"""Capacity bounds for exhaustive operations, overridable via environment."""

from __future__ import annotations

import os

from .errors import InputError

# Largest n for which is_excellent may enumerate all 2^n - 1 candidate sets.
EXCELLENT_EXHAUSTIVE_BOUND = 14
# Largest n for which exact good-partition search may enumerate set partitions.
EXACT_PARTITION_BOUND = 12
# Largest group order accepted for subgroup enumeration.
GROUP_ORDER_BOUND = 128
# Largest vertex count of a graph built from a family or an edge list; the
# packed adjacency of a graph at the bound takes n^2/8 = 50 MB. Fixed: no
# environment variable overrides it.
VERTEX_BOUND = 20_000

_ENV_NAMES = {
    "excellent": "STABLEREG_EXCELLENT_BOUND",
    "partition": "STABLEREG_PARTITION_BOUND",
    "group": "STABLEREG_GROUP_BOUND",
}

_DEFAULTS = {
    "excellent": EXCELLENT_EXHAUSTIVE_BOUND,
    "partition": EXACT_PARTITION_BOUND,
    "group": GROUP_ORDER_BOUND,
}


def capacity_bound(kind: str) -> int:
    """Configured bound for `kind` in {excellent, partition, group}."""
    name = _ENV_NAMES[kind]
    env = os.environ.get(name)
    if env is None:
        return _DEFAULTS[kind]
    try:
        return int(env)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {env!r}") from exc
