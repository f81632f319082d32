"""stablereg benchmark: one command for every workload and metric.

    python3 benchmarks/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

prints the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
traced run (`--trace 1`); the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 only
when every item passed its checks.

    python3 benchmarks/run.py --smoke
        every workload at tiny sizes, traced and untraced, checking that each
        metric of BENCHMARK.json is printed with its unit
    python3 benchmarks/run.py --repeat 10 [--workload a,b] [--against DIR]
        N runs per workload with seeds seed..seed+N-1, printing each
        end-to-end metric's median and quartiles; with --against, the same
        runs on another checkout, alternating which side goes first

Each workload runs in a fresh child process (worker.py), single-threaded.
Set-up time is measured in separate fresh processes that only import the
package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "stability", "groups", "small_pairs")
END_TO_END_UNITS = {"wall_s": "s", "item_p50_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 160
SMOKE_SECONDS = 1

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import stablereg, stablereg.cli\n"
    "print(time.perf_counter() - t0)\n"
)


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_tree(root: Path) -> None:
    if not (root / "src" / "stablereg" / "__init__.py").is_file():
        raise BenchError(f"no stablereg package under {root / 'src'}")


def stamp(root: Path) -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=child_env(root), timeout=60,
    ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy or "unavailable",
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def measure_setup(root: Path) -> float:
    """Median fresh-process import time of stablereg and stablereg.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            capture_output=True, text=True, env=child_env(root), cwd=root, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing stablereg failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    workdir = HERE / ".work" / f"{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size, "--workdir", str(workdir),
    ]
    if trace:
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / f"trace-{workload}-{size}-s{seed}.json")]
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=child_env(root), cwd=root)
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} did not finish within {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def reference_digest(workload: str, seed: int, size: str) -> str | None:
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(size, {}).get(workload, {}).get(str(seed))


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """One benchmark run; returns the contract result plus a `notes` dict."""
    check_tree(root)
    setup_s = None if trace else measure_setup(root)
    res = run_worker(root, workload, seed, seconds, trace, size)
    errors = list(res["errors"])
    failed = res["failed"]
    expected = reference_digest(workload, seed, size)
    if expected is not None and expected != res["digest"]:
        failed = max(failed, 1)  # some item's answer changed, maybe one already counted
        errors.append(f"output digest {res['digest'][:16]} differs from the recorded {expected[:16]}")
    if trace:
        units = PER_LAYER_UNITS
    else:
        res["metrics"]["setup_s"] = setup_s
        units = END_TO_END_UNITS
    metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()}
    notes = {
        "digest": res["digest"],
        "items": res["items"],
        "passes": res["passes"],
        "generate_s": res["generate_s"],
        "measured_s": res["measured_s"],
        "error_rate": failed / res["attempted"],
        "errors": errors,
    }
    return {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def print_run(workload: str, seed: int, result: dict, env: dict) -> None:
    notes = result["notes"]
    print(f"# env {json.dumps(env)}")
    print(
        f"# {workload} seed {seed}: {notes['items']} items x {notes['passes']} passes, "
        f"inputs {notes['generate_s']:.2f} s, measured {notes['measured_s']:.2f} s, "
        f"digest {notes['digest']}"
    )
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':28s} {notes['error_rate']:.6g} ({result['failed']} failed / {result['attempted']} attempted)")
    for err in notes["errors"]:
        print(f"# FAILED {err}")


def contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = bench(ROOT, workload, 1, SMOKE_SECONDS, trace, size="smoke")
            got = res["metrics"]
            for m in wanted[trace]:
                if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} missing or not in {m['unit']}")
            if set(got) != {m["name"] for m in wanted[trace]}:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            if not res["correct"]:
                problems.append(f"{workload} trace={trace}: {res['notes']['errors']}")
            print(f"smoke {workload} trace={trace}: {res['attempted']} items checked, correct={res['correct']}")
    for p in problems:
        print(f"FAILED {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args) -> int:
    sides = [("this", ROOT)] + ([("against", Path(args.against).resolve())] if args.against else [])
    workloads = args.workload.split(",") if args.workload else list(WORKLOADS)
    values: dict[tuple, list[float]] = {}
    ok = True
    env = stamp(ROOT)
    print(f"# env {json.dumps(env)}")
    for r in range(args.repeat):
        order = sides if r % 2 == 0 else sides[::-1]
        seed = args.seed + r
        for workload in (workloads if r % 2 == 0 else workloads[::-1]):
            for side, root in order:
                res = bench(root, workload, seed, args.seconds, args.trace)
                ok &= res["correct"]
                line = " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
                print(
                    f"{side} {workload} seed={seed} correct={res['correct']} {line} "
                    f"passes={res['notes']['passes']} digest={res['notes']['digest']}",
                    flush=True,
                )
                for name, m in res["metrics"].items():
                    values.setdefault((workload, name, side), []).append(m["value"])
    print(f"{'workload':12s} {'metric':26s} {'side':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for (workload, name, side), vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload:12s} {name:26s} {side:8s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="stablereg benchmark")
    ap.add_argument("--workload", help="one of " + ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--against", help="another checkout to alternate with in --repeat")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.repeat:
            return repeat(args)
        if args.workload not in WORKLOADS:
            ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        result = bench(ROOT, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_run(args.workload, args.seed, result, stamp(ROOT))
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
