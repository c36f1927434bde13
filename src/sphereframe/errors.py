"""Exception types shared across the library."""


class SphereFrameError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SphereFrameError, ValueError):
    """An argument is outside the supported parameter range."""


class IndexSetError(SphereFrameError, ValueError):
    """A multi-index is not a member of the expected index set."""


class DomainError(SphereFrameError, ValueError):
    """A numeric argument left the mathematical domain of the operation."""


class CapacityError(SphereFrameError, RuntimeError):
    """A grid construction would exceed the configured node cap."""


class FormatError(SphereFrameError, ValueError):
    """A document does not parse as the expected file format."""


class NotAFrameError(SphereFrameError, ValueError):
    """The spectral profile vanishes on the range a frame operation needs."""


class TableShapeError(SphereFrameError, ValueError):
    """A coefficient table lacks the structure a closed form requires."""


class DegenerateSignalError(SphereFrameError, ValueError):
    """The signal is identically zero where a normalized quantity was asked for."""


class UndefinedVarianceError(SphereFrameError, ValueError):
    """The center of mass vanishes, so the spatial variance is undefined.

    `record`, when given, holds what is still defined for the scale, with
    the variance fields None.
    """

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record
