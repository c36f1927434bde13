"""Process-wide knobs: worker threads for batched evaluation, node caps."""

from __future__ import annotations

import os

from .errors import ParameterError

_workers = max(1, os.cpu_count() or 1)

DEFAULT_MAX_NODES = 10_000_000
MAX_NODES_ENV = "SPHEREFRAME_MAX_NODES"


def set_workers(n: int) -> None:
    global _workers
    _workers = max(1, int(n))


def get_workers() -> int:
    return _workers


def node_cap(explicit=None) -> int:
    """Grid-size guardrail; flag beats environment beats default."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(MAX_NODES_ENV)
    if not env:
        return DEFAULT_MAX_NODES
    try:
        return int(env)
    except ValueError:
        raise ParameterError(
            f"{MAX_NODES_ENV} must be an integer, got {env!r}") from None
