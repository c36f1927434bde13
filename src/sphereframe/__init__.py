"""Rotated-polynomial frames on S^{d-1}.

Build frame-generating coefficient tables, verify frame and duality
properties from the spectral profile, compose rotation-group quadrature
grids from sphere rules, run analysis/synthesis, and compute localization
and directionality diagnostics.
"""

from .constructions import (PolarGrid, curvelet_spec, kappa, kappa1, kappa2,
                            make_g0, phi, polar_sample, wavelet_spec, zeta,
                            zeta_table, zonal_spec)
from .diagnostics import (LocalizationRecord, autocorrelation,
                          autocorrelation_closed, center_of_mass,
                          localization_report, var_momentum)
from .errors import (CapacityError, DegenerateSignalError, DomainError,
                     FormatError, IndexSetError, NotAFrameError,
                     ParameterError, SphereFrameError, TableShapeError)
from .frames import (FrameBounds, FrameSpec, FrameSystem, ParsevalGap, Scale,
                     Signal, analysis, build_system, canonical_dual,
                     dual_residuals, frame_bounds, invariance_order,
                     parseval_check, random_signal, relative_error,
                     sigma_profile, steerable_order, synthesis)
from .harmonics import (ExpansionEvaluator, basis_matrix, dim_harmonic,
                        index_set, spherical_to_cartesian)
from .quadrature import (RotationRule, Rule1D, SphereRule, embed_rotation,
                         gauss_symmetric_jacobi, rotation_rule,
                         sections, sphere_rule)
from .specfun import Q_d, gegenbauer_table, log_norm_A, q_d

__version__ = "0.1.0"
