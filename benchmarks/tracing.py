"""Spans and call aggregates for the traced run, kept in memory, and the
per-layer metrics derived from them.

A span covers one call into a layer. Spans recorded while an item runs are
"mirrored": they wrap the calls the item really makes. Spans recorded after
the item, by replaying the stages of a composite call (`regularity_pipeline`,
`cli.main`) through public functions, are flagged `replay`. A span's self
time is its duration minus the time of its children; a replayed stage that
an opaque call also performs internally (the sigma check inside
`equipartition_refine`, the validation inside `parse_edge_list`) is
re-executed after the call and recorded as that call's child, so the two add
up without counting the work twice.

Calls faster than about 10 microseconds are not given spans: `Tracer.call`
adds their count and busy time to a per-layer aggregate instead.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "item", "parent", "replay", "start", "end", "child_s")

    def __init__(self, name: str, item: int, parent: "Span | None", replay: bool):
        self.name = name
        self.item = item
        self.parent = parent
        self.replay = replay
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[str, list] = {}  # layer -> [count, busy seconds]
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, replay: bool = True, parent: Span | None = None):
        if parent is None and self._stack:
            parent = self._stack[-1]
        s = Span(name, self.item, parent, replay)
        self._stack.append(s)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()
            self.spans.append(s)
            if parent is not None:
                parent.child_s += s.duration

    def record(self, name: str, start: float, end: float) -> None:
        """A replayed span whose name depends on the call's result."""
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.item, parent, True)
        s.start, s.end = start, end
        self.spans.append(s)
        if parent is not None:
            parent.child_s += end - start

    def last(self, name: str) -> Span:
        for s in reversed(self.spans):
            if s.name == name:
                return s
        raise LookupError(f"no span named {name}")

    def call(self, layer: str, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        agg = self.calls.get(layer)
        if agg is None:
            agg = self.calls[layer] = [0, 0.0]
        agg[0] += 1
        agg[1] += dt
        if self._stack:
            self._stack[-1].child_s += dt
        return out


# Spans that are not layer time: the item itself, and composite calls whose
# stages are replayed (counting both would count the work twice).
NOT_LAYER_TIME = {"item", "partitions.pipeline"}

# Unit of every per-layer metric the traced run prints, in print order.
PER_LAYER_UNITS = {
    "graphs.parse_s": "s",
    "graphs.validate_s": "s",
    "graphs.edges": "count",
    "stability.relation_s": "s",
    "stability.search_s": "s",
    "stability.refute_s": "s",
    "stability.searches": "count",
    "stability.refutations": "count",
    "stability.found_ratio": "ratio",
    "typeclasses.spectrum_s": "s",
    "typeclasses.classes": "count",
    "typeclasses.define_s": "s",
    "typeclasses.define_calls": "count",
    "pairs.good_set_s": "s",
    "pairs.good_set_calls": "count",
    "pairs.predicate_s": "s",
    "pairs.predicate_calls": "count",
    "pairs.excellent_s": "s",
    "pairs.excellent_calls": "count",
    "partitions.pipeline_s": "s",
    "partitions.sigma_check_s": "s",
    "partitions.gate_s": "s",
    "partitions.refine_s": "s",
    "partitions.verify_s": "s",
    "partitions.verify_pairs": "count",
    "partitions.split_ratio": "ratio",
    "groups.build_s": "s",
    "groups.subgroup_s": "s",
    "groups.subgroups": "count",
    "groups.normal_ratio": "ratio",
    "groups.coset_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, untraced_wall: float) -> dict[str, float]:
    """Per-layer values of one traced pass, against the untraced pass run
    just before it on the same items."""
    out = {name: 0.0 for name, unit in PER_LAYER_UNITS.items() if unit == "s"}
    covered = 0.0
    for s in tr.spans:
        key = s.name + "_s"
        if key in out:
            out[key] += s.self_s
        if s.name not in NOT_LAYER_TIME:
            covered += s.self_s
    for layer, (count, busy) in tr.calls.items():
        out[layer + "_s"] += busy
        covered += busy
    item_s = sum(s.duration for s in tr.spans if s.name == "item")
    c = tr.counts
    out.update(
        {
            "graphs.edges": c["graphs.edges"],
            "stability.searches": c["stability.searches"],
            "stability.refutations": c["stability.refutations"],
            "stability.found_ratio": _ratio(
                c["stability.searches"] - c["stability.refutations"], c["stability.searches"]
            ),
            "typeclasses.classes": c["typeclasses.classes"],
            "typeclasses.define_calls": c["typeclasses.define_calls"],
            "pairs.good_set_calls": tr.calls.get("pairs.good_set", [0])[0],
            "pairs.predicate_calls": tr.calls.get("pairs.predicate", [0])[0],
            "pairs.excellent_calls": tr.calls.get("pairs.excellent", [0])[0],
            "partitions.verify_pairs": c["partitions.verify_pairs"],
            "partitions.split_ratio": _ratio(c["partitions.split_parts"], c["partitions.base_parts"]),
            "groups.subgroups": c["groups.subgroups"],
            "groups.normal_ratio": _ratio(c["groups.normal"], c["groups.subgroups"]),
            "trace.coverage": _ratio(covered, item_s),
            "trace.overhead": item_s - untraced_wall,
        }
    )
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
