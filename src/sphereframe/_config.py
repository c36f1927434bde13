"""The node cap and the worker threads of rotated-point evaluation.  A command's
--max-nodes and --threads hold, through `command_flags`, for that command and
its thread only; library callers set SPHEREFRAME_MAX_NODES."""

from __future__ import annotations

import contextlib
import contextvars
import os

from .errors import ParameterError

DEFAULT_MAX_NODES = 10_000_000
MAX_NODES_ENV = "SPHEREFRAME_MAX_NODES"

_flags = contextvars.ContextVar("command_flags", default=(None, None))


@contextlib.contextmanager
def command_flags(cap: int | None, threads: int | None):
    """Apply a command's --max-nodes and --threads until it returns or raises."""
    token = _flags.set((cap, threads))
    try:
        yield
    finally:
        _flags.reset(token)


def worker_count() -> int:
    """The running command's --threads, else the hardware parallelism."""
    return _flags.get()[1] or max(1, os.cpu_count() or 1)


def node_cap() -> int:
    """Grid-size guardrail: the running command's --max-nodes, else
    SPHEREFRAME_MAX_NODES, else the default."""
    if _flags.get()[0] is not None:
        return _flags.get()[0]
    env = os.environ.get(MAX_NODES_ENV)
    if not env:
        return DEFAULT_MAX_NODES
    try:
        cap = int(env)
    except ValueError:
        raise ParameterError(
            f"{MAX_NODES_ENV} must be an integer, got {env!r}") from None
    if cap < 1:
        raise ParameterError(f"{MAX_NODES_ENV} must be positive, got {env!r}")
    return cap
