"""Capacity bounds for exhaustive operations, overridable via environment."""

from __future__ import annotations

import os

from .errors import InputError

# Largest vertex count of a graph built from a family or an edge list; the
# packed adjacency of a graph at the bound takes n^2/8 = 50 MB. Fixed: no
# environment variable overrides it.
VERTEX_BOUND = 20_000

# kind -> (environment variable that overrides the bound, default bound)
_BOUNDS = {
    # Largest n for which is_excellent may enumerate all 2^n - 1 candidate sets.
    "excellent": ("STABLEREG_EXCELLENT_BOUND", 14),
    # Largest n for which exact good-partition search may enumerate set partitions.
    "partition": ("STABLEREG_PARTITION_BOUND", 12),
    # Largest group order accepted for subgroup enumeration.
    "group": ("STABLEREG_GROUP_BOUND", 128),
    # Most search-step calls (nodes) one ladder search may make.
    "ladder": ("STABLEREG_LADDER_BUDGET", 200_000),
}


def capacity_bound(kind: str) -> int:
    """Configured bound for `kind` in {excellent, partition, group, ladder}."""
    name, default = _BOUNDS[kind]
    env = os.environ.get(name)
    if env is None:
        return default
    try:
        return int(env)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {env!r}") from exc
