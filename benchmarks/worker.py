"""Run one workload in this (fresh) process and print its result as JSON.

Started by run.py with the package's `src` directory on PYTHONPATH. The
loop is closed with one client: each item starts when the previous one has
finished. Passes over the same item set repeat until the time budget would
be overrun; every pass must reproduce the first pass's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics, median_metrics
from workloads import WORKLOADS


class Run:
    def __init__(self, items) -> None:
        self.items = items
        self.reference: list[str] | None = None  # per-item output digests of pass 1
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = ""

    def fail(self, idx: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"item {idx} ({self.items[idx].kind}): {message}")

    def one_pass(self, tr: Tracer | None) -> list[float]:
        """Run every item once; returns the item latencies in seconds."""
        first = self.reference is None
        digests: list[str] = []
        latencies: list[float] = []
        for idx, item in enumerate(self.items):
            out, err = None, None
            if tr is None:
                t0 = perf_counter()
                try:
                    out = item.run(None)
                except (Exception, SystemExit) as exc:
                    err = f"{type(exc).__name__}: {exc}"
                latencies.append(perf_counter() - t0)
            else:
                tr.item = idx
                try:
                    with tr.span("item", replay=False) as s:
                        out = item.run(tr)
                except (Exception, SystemExit) as exc:
                    err = f"{type(exc).__name__}: {exc}"
                latencies.append(s.duration)
            self.attempted += 1
            digest = ""
            # Everything below runs after the item's clock has stopped.
            if err is None:
                try:
                    canon = json.dumps(item.canon(out), sort_keys=True)
                    digest = hashlib.sha256(canon.encode()).hexdigest()
                    problems = item.check(out) if first else []
                    if not first and digest != self.reference[idx]:
                        problems.append("output differs from the first pass")
                    if tr is not None and item.replay is not None:
                        problems += item.replay(tr, out)
                    if problems:
                        err = "; ".join(problems)
                except Exception as exc:
                    err = f"{type(exc).__name__}: {exc}"
            if err is not None:
                self.fail(idx, err)
            digests.append(digest)
        if first:
            self.reference = digests
            self.digest = hashlib.sha256("".join(digests).encode()).hexdigest()
        return latencies


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    t_gen = perf_counter()
    run = Run(WORKLOADS[args.workload](args.seed, args.size, Path(args.workdir)))
    gen_s = perf_counter() - t_gen

    latencies: list[list[float]] = []  # per untraced pass
    layers: list[dict] = []
    tracers: list[Tracer] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        latencies.append(run.one_pass(None))
        if args.trace:
            tr = Tracer()
            run.one_pass(tr)
            layers.append(layer_metrics(tr, sum(latencies[-1])))
            tracers.append(tr)
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - t0) > args.seconds:
            break

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "digest": run.digest,
        "items": len(run.items),
        "passes": len(latencies),
        "generate_s": gen_s,
        "measured_s": perf_counter() - start,
    }
    if args.trace:
        result["metrics"] = median_metrics(layers)
        if args.trace_out:
            write_trace(Path(args.trace_out), latencies, tracers, run)
    else:
        result["metrics"] = {
            "wall_s": statistics.median(sum(lat) for lat in latencies),
            "item_p50_ms": statistics.median(x for lat in latencies for x in lat) * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def write_trace(path: Path, latencies: list[list[float]], tracers: list[Tracer], run: Run) -> None:
    """Item latencies of the untraced passes, and the spans and aggregates of
    every traced pass."""
    passes = []
    for tr in tracers:
        passes.append(
            {
                "spans": [
                    {
                        "name": s.name,
                        "item": s.item,
                        "kind": run.items[s.item].kind,
                        "replay": s.replay,
                        "start": s.start,
                        "duration": s.duration,
                        "self": s.self_s,
                    }
                    for s in tr.spans
                ],
                "calls": tr.calls,
                "counts": dict(tr.counts),
            }
        )
    kinds = [item.kind for item in run.items]
    path.write_text(json.dumps({"kinds": kinds, "untraced_latencies": latencies, "traced": passes}))


if __name__ == "__main__":
    sys.exit(main())
