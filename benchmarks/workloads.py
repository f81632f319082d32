"""The four benchmark workloads: seeded inputs, timed items, independent
checks and traced replays.

Every input is generated here from the workload seed with the benchmark's
own code; the package receives only the generated edge lists, group tables,
vertex sets and thresholds. Items call public functions of `stablereg` or
`stablereg.cli.main` in-process, with stdout captured.

An item returns its raw output. After the item's clock stops, the worker
calls `canon` (every pass: exit code and canonical summary for the digest),
`check` (first pass only: independent re-derivation of the answer) and, in
a traced pass, `replay` (the item's stages re-run through public functions
under replay spans, compared with the item's own answer).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from stablereg import (
    DefinabilityWitnesses,
    ErrorFunction,
    Graph,
    Ladder,
    Partition,
    PairVerdict,
    Relation,
    SpecialWitness,
    definability_witnesses,
    equipartition_refine,
    find_relation_ladder,
    graph_relation,
    homogeneity,
    is_almost_good,
    is_excellent,
    is_good_pair,
    is_good_set,
    ladder_exists_scan,
    normal_subgroups_up_to_index,
    parse_edge_list,
    regularity_pipeline,
    special_witness,
    threshold_sets,
    translate_relation,
    type_mass_partition,
    type_spectrum,
    verify_regularity,
)
from stablereg import cli
from stablereg.graphs import parse_vertex_set
from stablereg.groups import all_subgroups, coset_report, group_from_json
from stablereg.pairs import good_set_violation
from stablereg.partitions import goodness_scale


class ItemError(Exception):
    """An item's output breaks its contract (exit code, check, replay)."""


@dataclass
class Item:
    kind: str
    run: Callable[[Any], Any]  # run(tracer or None) -> raw output
    canon: Callable[[Any], Any]  # raw output -> JSON-able summary; raises ItemError
    check: Callable[[Any], list[str]]  # raw output -> problems (independent checks)
    replay: Callable[[Any, Any], list[str]] | None = None  # (tracer, output) -> problems


def rng_for(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def bit_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cli_call(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def expect_exit(out: tuple[int, str], code: int) -> dict:
    got, text = out
    if got != code:
        raise ItemError(f"exit code {got}, expected {code}: {text[:200]!r}")
    return json.loads(text)


# ---------------------------------------------------------------------------
# Graph inputs


def jittered(sizes: tuple[int, ...], spread: int, rng: random.Random) -> list[int]:
    """Clique sizes moved by up to `spread` between neighbours; n is kept."""
    out = list(sizes)
    for i in range(len(out) - 1):
        d = rng.randint(-spread, spread)
        out[i] += d
        out[i + 1] -= d
    return out


def clique_rows(sizes: list[int], flips: int, rng: random.Random) -> tuple[int, ...]:
    """Adjacency rows of a clique union with `flips` distinct pairs toggled."""
    n = sum(sizes)
    rows = [0] * n
    start = 0
    for s in sizes:
        block = ((1 << s) - 1) << start
        for v in range(start, start + s):
            rows[v] = block ^ (1 << v)
        start += s
    flipped: set[tuple[int, int]] = set()
    while len(flipped) < flips:
        u, v = sorted(rng.sample(range(n), 2))
        flipped.add((u, v))
    for u, v in sorted(flipped):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return tuple(rows)


def write_edge_list(path: Path, rows: tuple[int, ...]) -> None:
    lines = []
    for u, row in enumerate(rows):
        lines.extend(f"{u} {w}" for w in bit_list(row >> (u + 1) << (u + 1)))
    path.write_text(f"{len(rows)} {len(lines)}\n" + "\n".join(lines) + "\n")


def read_graph(tr, path: Path) -> Graph:
    """Replay of the CLI's --input path: parse, then validation as its child."""
    text = path.read_text()
    with tr.span("graphs.parse") as ps:
        g = parse_edge_list(text)
    with tr.span("graphs.validate", parent=ps):
        Graph(g.n, g.adj)
    tr.counts["graphs.edges"] += g.edge_count()
    return g


def search(tr, rel: Relation, k: int) -> Ladder | None:
    """Replay of one ladder search; a miss is recorded as a refutation."""
    t0 = perf_counter()
    lad = find_relation_ladder(rel, k)
    tr.record("stability.search" if lad else "stability.refute", t0, perf_counter())
    tr.counts["stability.searches"] += 1
    tr.counts["stability.refutations"] += lad is None
    return lad


def replay_ladder_index(tr, rel: Relation, cap: int) -> int:
    index = 0
    for k in range(1, cap + 1):
        if search(tr, rel, k) is None:
            break
        index = k
    return index


# ---------------------------------------------------------------------------
# pipeline: parse_edge_list + regularity_pipeline on perturbed clique unions.

EPS = Fraction(1, 2)

# (clique sizes, size jitter, flipped pairs, sigma). Two or three cliques
# keep the type-mass cut at 3/4 of the vertices far from a clique boundary,
# so the part count, and with it the cost, barely moves with the seed.
PIPELINE = {
    "full": [
        ((300, 300), 20, 0, "1/2"),  # passes the goodness gate unsplit
        ((170, 165, 165), 10, 25, "table(1/2,1/3,1/4)"),
        ((235, 235, 230), 15, 35, "1/4"),
        ((90, 90, 90), 8, 18, "inverse(1/2)"),
        ((300, 300, 300), 15, 40, "1/3"),
    ],
    "smoke": [
        ((40, 40), 4, 0, "1/2"),
        ((12,) * 3, 2, 4, "inverse(1/2)"),
        ((15,) * 3, 2, 4, "table(1/2,1/3)"),
    ],
}


def sigma_check(tr, sigma: ErrorFunction, m: int, parent=None) -> ErrorFunction:
    """Replay of the monotonicity check at N from goodness_scale(m)."""
    _, N = goodness_scale(EPS, sigma, max(m, 1))
    with tr.span("partitions.sigma_check", parent=parent):
        if sigma.is_decreasing(N + 1):
            return sigma
        return sigma.running_minimum(N + 1)


def pipeline_item(path: Path, rows: tuple[int, ...], spec: str) -> Item:
    sigma = ErrorFunction.parse(spec)

    def run(tr):
        text = path.read_text()
        if tr is None:
            g = parse_edge_list(text)
            return g, regularity_pipeline(g, EPS, sigma)
        with tr.span("graphs.parse", replay=False):
            g = parse_edge_list(text)
        with tr.span("partitions.pipeline", replay=False):
            return g, regularity_pipeline(g, EPS, sigma)

    def canon(out):
        g, res = out
        return {
            "n": g.n,
            "base_m": res.base.m,
            "raw_ok": res.raw_precondition_ok,
            "split": list(res.split_parts),
            "exceptional": hex(res.refined.exceptional),
            "parts": [hex(p) for p in res.refined.parts],
            "pass": res.passed,
        }

    def check(out):
        g, res = out
        problems = []
        if g.adj != rows:
            problems.append("parsed graph differs from the generated edge list")
        if not res.report.passed:
            problems.append("pipeline report did not pass")
        if not verify_regularity(Graph(len(rows), rows), res.refined, EPS, sigma).passed:
            problems.append("a fresh verify_regularity rejects the refined partition")
        return problems

    def replay(tr, out):
        g, res = out
        with tr.span("graphs.validate", parent=tr.last("graphs.parse")):
            Graph(g.n, g.adj)
        tr.counts["graphs.edges"] += g.edge_count()
        with tr.span("typeclasses.spectrum"):
            spectrum = type_spectrum(g)
        tr.counts["typeclasses.classes"] += len(spectrum.classes)
        base = type_mass_partition(g, EPS / 2)  # its cost is the spectrum above
        # check_refine_precondition on the raw base
        s = sigma_check(tr, sigma, base.m)
        if base.exceptional_fraction() < EPS / 2:
            tau, _ = goodness_scale(EPS, s, base.m)
            for part in base.parts:
                if tr.call("pairs.good_set", good_set_violation, g, part, tau) is not None:
                    break
        mono = sigma_check(tr, sigma, g.n)
        split = 0
        with tr.span("partitions.gate"):
            parts = list(base.parts)
            while True:
                tau, _ = goodness_scale(EPS, mono, max(len(parts), 1))
                bad = {
                    i
                    for i, part in enumerate(parts)
                    if not tr.call("pairs.good_set", is_good_set, g, part, tau)
                    and part.bit_count() > 1
                }
                if not bad:
                    break
                split += len(bad)
                new_parts = []
                for i, part in enumerate(parts):
                    if i in bad:
                        new_parts.extend(1 << v for v in bit_list(part))
                    else:
                        new_parts.append(part)
                parts = new_parts
        repaired = Partition(g.n, base.exceptional, tuple(parts))
        with tr.span("partitions.refine") as rs:
            refined = equipartition_refine(g, repaired, EPS, sigma)
        sigma_check(tr, sigma, repaired.m, parent=rs)
        with tr.span("partitions.verify"):
            report = verify_regularity(g, refined, EPS, sigma)
        tr.counts["partitions.verify_pairs"] += refined.m**2
        tr.counts["partitions.split_parts"] += split
        tr.counts["partitions.base_parts"] += base.m
        if refined.parts != res.refined.parts or report.passed != res.report.passed:
            return ["replayed stages disagree with regularity_pipeline"]
        return []

    return Item("pipeline", run, canon, check, replay)


def pipeline_items(seed: int, size: str, workdir: Path) -> list[Item]:
    items = []
    for i, (sizes, spread, flips, spec) in enumerate(PIPELINE[size]):
        rng = rng_for(seed, f"pipeline.{i}")
        rows = clique_rows(jittered(sizes, spread, rng), flips, rng)
        path = workdir / f"pipeline{i}.txt"
        write_edge_list(path, rows)
        items.append(pipeline_item(path, rows, spec))
    return items


# ---------------------------------------------------------------------------
# stability: the `stability` and `define` subcommands through cli.main.

# small: (clique sizes, jitter, flips, graph count, cap); big: (sizes, jitter, flips, cap).
# The cost of a refutation varies by about a quarter from graph to graph, so
# many small graphs keep the cost of a pass steady across seeds.
STABILITY = {
    "full": {"small": ((10, 10, 10, 10), 1, 5, 50, 6), "big": ((600,) * 5, 30, 200, 3)},
    "smoke": {"small": ((8, 8, 8), 1, 3, 2, 5), "big": ((60,) * 5, 5, 10, 3)},
}


def stability_item(path: Path, rows: tuple[int, ...], cap: int, ctx: dict) -> Item:
    argv = ["stability", "--input", str(path), "--cap", str(cap)]

    def canon(out):
        data = expect_exit(out, 0)
        ctx["index"] = data["ladder_index"]
        return data

    def check(out):
        data = json.loads(out[1])
        idx, wit = data["ladder_index"], data["witness"]
        rel = Relation(len(rows), len(rows), rows)
        problems = []
        lad = Ladder(tuple(wit["vs"]), tuple(wit["ws"])) if wit else None
        if lad is None or lad.k != max(idx, 1) or not lad.holds_in(rel):
            problems.append(f"witness {wit} is not a ladder of length {max(idx, 1)}")
        if idx < cap and ladder_exists_scan(rel, idx + 1):
            problems.append(f"scan finds a ladder of length {idx + 1} beyond index {idx}")
        return problems

    def replay(tr, out):
        g = read_graph(tr, path)
        with tr.span("stability.relation"):
            rel = graph_relation(g)
        idx = replay_ladder_index(tr, rel, cap)
        with tr.span("stability.relation"):
            rel = graph_relation(g)
        search(tr, rel, max(idx, 1))
        if idx != json.loads(out[1])["ladder_index"]:
            return ["replayed ladder index differs"]
        return []

    return Item("stability", lambda tr: cli_call(argv), canon, check, replay)


def define_item(path: Path, rows: tuple[int, ...], member: int, seed: int, ctx: dict) -> Item:
    """`define` at k = index + 1, read from the preceding stability item."""

    def argv() -> list[str]:
        k = ctx["index"] + 1
        return ["define", "--input", str(path), "--k", str(k), "--member", str(member), "--seed", str(seed)]

    def canon(out):
        data = expect_exit(out, 0)
        return {"k": data["k"], "witnesses": data["witnesses"], "defined": data["defined"]}

    def check(out):
        data = json.loads(out[1])
        cls = type_spectrum(Graph(len(rows), rows)).class_of(member)
        if data["defined"] != bit_list(cls.signature):
            return [f"define mask of vertex {member} differs from its class signature"]
        return []

    def replay(tr, out):
        g = read_graph(tr, path)
        with tr.span("typeclasses.spectrum"):
            spectrum = type_spectrum(g)
        tr.counts["typeclasses.classes"] += len(spectrum.classes)
        cls = spectrum.class_of(member)
        with tr.span("typeclasses.define"):
            res = definability_witnesses(g, ctx["index"] + 1, cls, seed)
        tr.counts["typeclasses.define_calls"] += 1
        defined = bit_list(res.defined_mask) if isinstance(res, DefinabilityWitnesses) else None
        if defined != json.loads(out[1])["defined"]:
            return ["replayed definition differs"]
        return []

    return Item("define", lambda tr: cli_call(argv()), canon, check, replay)


def stability_items(seed: int, size: str, workdir: Path) -> list[Item]:
    shape = STABILITY[size]
    sizes, spread, flips, count, cap = shape["small"]
    items = []
    for i in range(count):
        rng = rng_for(seed, f"stability.{i}")
        rows = clique_rows(jittered(sizes, spread, rng), flips, rng)
        path = workdir / f"stability{i}.txt"
        write_edge_list(path, rows)
        ctx: dict = {}
        items.append(stability_item(path, rows, cap, ctx))
        for cls in type_spectrum(Graph(len(rows), rows)).classes:
            member = (cls.members & -cls.members).bit_length() - 1
            items.append(define_item(path, rows, member, rng.randrange(1 << 16), ctx))
    sizes, spread, flips, cap = shape["big"]
    rng = rng_for(seed, "stability.big")
    rows = clique_rows(jittered(sizes, spread, rng), flips, rng)
    path = workdir / "stability_big.txt"
    write_edge_list(path, rows)
    items.append(stability_item(path, rows, cap, {}))
    return items


# ---------------------------------------------------------------------------
# groups: the `group` subcommand on benchmark-written Cayley tables.


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(n: int) -> list[list[int]]:
    """Order 2n; r^i s^j is element 2i + j, and s r^j = r^-j s."""

    def mul(a: int, b: int) -> int:
        i, s = divmod(a, 2)
        j, t = divmod(b, 2)
        return 2 * ((i + (j if s == 0 else -j)) % n) + (s ^ t)

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def product_table(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    na, nb = len(a), len(b)
    return [
        [a[x1][x2] * nb + b[y1][y2] for x2 in range(na) for y2 in range(nb)]
        for x1 in range(na)
        for y1 in range(nb)
    ]


GROUPS = {
    "full": [
        ("Z64", lambda: cyclic_table(64)),
        ("D24", lambda: dihedral_table(24)),
        ("D5xZ6", lambda: product_table(dihedral_table(5), cyclic_table(6))),
        ("Z2xZ32", lambda: product_table(cyclic_table(2), cyclic_table(32))),
        ("D27", lambda: dihedral_table(27)),
    ],
    "smoke": [
        ("Z24", lambda: cyclic_table(24)),
        ("D12", lambda: dihedral_table(12)),
    ],
}
NEAR_COSET_SIGMAS = ("1/4", "inverse(1/2)")
STABILITY_CAP = 3
NEGATIVE_SIGMA, NEGATIVE_MAX_INDEX = "1/8", 2


def sigma_at(spec: str, m: int) -> Fraction:
    if spec.startswith("inverse("):
        return Fraction(spec[len("inverse(") : -1]) / (m + 1)
    return Fraction(spec)


def cyclic_subgroup(table: list[list[int]], x: int) -> frozenset[int]:
    h, y = {0}, x
    while y not in h:
        h.add(y)
        y = table[y][x]
    return frozenset(h)


def is_normal(table: list[list[int]], h: frozenset[int]) -> bool:
    inv = [row.index(0) for row in table]
    return all(table[table[g][x]][inv[g]] in h for g in range(len(table)) for x in h)


def left_cosets(table: list[list[int]], h: frozenset[int]) -> list[frozenset[int]]:
    seen: set[int] = set()
    out = []
    for x in range(len(table)):
        if x not in seen:
            coset = frozenset(table[x][y] for y in h)
            out.append(coset)
            seen |= coset
    return out


def near_coset_subset(table, spec: str, rng: random.Random) -> set[int]:
    """A union of cosets of a normal subgroup H with 1 to c - 1 members
    toggled in every coset, where c = sigma(index) |H|, so H certifies the
    subset while no two cosets stay exact copies of each other."""
    n = len(table)
    cands = sorted({cyclic_subgroup(table, x) for x in range(n)}, key=sorted)
    h = rng.choice(
        [c for c in cands if 2 <= n // len(c) <= 12 and sigma_at(spec, n // len(c)) * len(c) > 1 and is_normal(table, c)]
    )
    cosets = left_cosets(table, h)
    subset: set[int] = set()
    for coset in rng.sample(cosets, rng.randint(1, len(cosets) - 1)):
        subset |= coset
    limit = sigma_at(spec, n // len(h)) * len(h)
    most = -(-limit.numerator // limit.denominator) - 1  # largest c < limit
    for coset in cosets:
        subset ^= set(rng.sample(sorted(coset), rng.randint(1, most)))
    return subset


def group_item(path: Path, table, subset: set[int], spec: str, cap: int | None, max_index: int | None) -> Item:
    argv = ["group", "--input", str(path), "--set", ",".join(map(str, sorted(subset))), "--sigma", spec]
    if cap:
        argv += ["--stability-cap", str(cap)]
    if max_index:
        argv += ["--max-index", str(max_index)]
    expected = 1 if max_index else 0
    n = len(table)

    def canon(out):
        data = expect_exit(out, expected)
        return {
            "subgroup": data["subgroup"],
            "index": data["index"],
            "cosets": [(c["representative"], c["fraction"], c["verdict"]) for c in data["cosets"]],
            "pass": data["pass"],
            "certified": data["certified"],
            "translated": data.get("translated_ladder_index"),
        }

    def check(out):
        data = json.loads(out[1])
        h = set(data["subgroup"])
        problems = []
        if 0 not in h or any(table[a][b] not in h for a in h for b in h):
            problems.append("reported subgroup is not closed in the table")
        if n % len(h) or data["index"] != n // len(h):
            problems.append("reported index does not match the subgroup order")
        gamma = sigma_at(spec, data["index"])
        covered: set[int] = set()
        verdicts = []
        for row in data["cosets"]:
            coset = {table[row["representative"]][y] for y in h}
            covered |= coset
            frac = Fraction(len(coset & subset), len(h))
            verdict = "low" if frac < gamma else "high" if frac > 1 - gamma else "fail"
            verdicts.append(verdict)
            if sorted(coset) != row["elements"] or str(frac) != row["fraction"] or verdict != row["verdict"]:
                problems.append(f"coset of {row['representative']} recomputes differently")
        if covered != set(range(n)):
            problems.append("cosets do not cover the group")
        if data["pass"] != ("fail" not in verdicts) or data["certified"] != (expected == 0):
            problems.append("pass or certified flag disagrees with the recomputed cosets")
        if cap:
            rows = tuple(sum(1 << y for y in range(n) if table[x][y] in subset) for x in range(n))
            rel = Relation(n, n, rows)
            idx = data["translated_ladder_index"]
            if (idx and not ladder_exists_scan(rel, idx)) or (idx < cap and ladder_exists_scan(rel, idx + 1)):
                problems.append(f"translated ladder index {idx} disagrees with the scan")
        return problems

    def replay(tr, out):
        with tr.span("groups.build"):
            with open(path, encoding="utf-8") as fh:
                group = group_from_json(json.load(fh))
        a_mask = parse_vertex_set(argv[4], group.order)
        sigma = ErrorFunction.parse(spec)
        with tr.span("groups.subgroup"):
            cands = normal_subgroups_up_to_index(group, max_index or group.order)
        tr.counts["groups.normal"] += len(cands)
        tr.counts["groups.subgroups"] += len(all_subgroups(group))
        report = None
        for sub in cands:
            with tr.span("groups.coset"):
                report = coset_report(group, a_mask, sub, sigma)
            if report.passed:
                break
        problems = []
        if report is None or (report.passed and bit_list(report.subgroup.elements) != json.loads(out[1])["subgroup"]):
            problems.append("replayed coset scan differs")
        if cap:
            with tr.span("stability.relation"):
                rel = translate_relation(group, a_mask)
            if replay_ladder_index(tr, rel, cap) != json.loads(out[1])["translated_ladder_index"]:
                problems.append("replayed translated ladder index differs")
        return problems

    return Item("group", lambda tr: cli_call(argv), canon, check, replay)


def groups_items(seed: int, size: str, workdir: Path) -> list[Item]:
    items = []
    for name, build in GROUPS[size]:
        table = build()
        path = workdir / f"group_{name}.json"
        path.write_text(json.dumps({"order": len(table), "table": table, "name": name}))
        rng = rng_for(seed, f"groups.{name}")
        for spec in NEAR_COSET_SIGMAS:
            subset = near_coset_subset(table, spec, rng)
            items.append(group_item(path, table, subset, spec, STABILITY_CAP, None))
        subset = set(rng.sample(range(len(table)), len(table) // 2))
        items.append(group_item(path, table, subset, NEGATIVE_SIGMA, None, NEGATIVE_MAX_INDEX))
    return items


# ---------------------------------------------------------------------------
# small_pairs: the pair predicates on thousands of tiny graphs.

EPS_POOL = (Fraction(1, 4), Fraction(1, 9), Fraction(1, 16))
PREDICATES = (homogeneity, special_witness, is_good_pair, is_almost_good)

# exhaustive graphs up to n; random graphs per n in 5..8 with sampled set pairs
SMALL_PAIRS = {
    "full": {"exhaustive_n": 4, "random_per_n": 150, "pairs_per_graph": 120, "excellent_n": 6},
    "smoke": {"exhaustive_n": 3, "random_per_n": 2, "pairs_per_graph": 4, "excellent_n": 6},
}


def all_graph_rows(n: int):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if (code >> idx) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield tuple(rows)


def random_graph_rows(n: int, p: float, rng: random.Random) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


def battery(g: Graph, pairs, excellent, tr) -> list:
    """Per threshold: the five predicates on every pair, then is_excellent on
    the good sets. With a tracer, every call goes through its aggregate; the
    untraced loop calls the predicates directly so that the end-to-end
    timing carries no tracing cost."""
    out = []
    if tr is None:
        for eps in EPS_POOL:
            for X, Y in pairs:
                out.append(homogeneity(g, X, Y, eps))
                out.append(special_witness(g, X, Y, eps))
                out.append(is_good_pair(g, X, Y, eps))
                out.append(is_almost_good(g, X, Y, eps))
                out.append(threshold_sets(g, X, Y, eps, eps))
            for X in excellent[eps]:
                out.append(is_excellent(g, X, eps, eps))
        return out
    call = tr.call
    for eps in EPS_POOL:
        for X, Y in pairs:
            out.append(call("pairs.predicate", homogeneity, g, X, Y, eps))
            out.append(call("pairs.predicate", special_witness, g, X, Y, eps))
            out.append(call("pairs.predicate", is_good_pair, g, X, Y, eps))
            out.append(call("pairs.predicate", is_almost_good, g, X, Y, eps))
            out.append(call("pairs.predicate", threshold_sets, g, X, Y, eps, eps))
        for X in excellent[eps]:
            out.append(call("pairs.excellent", is_excellent, g, X, eps, eps))
    return out


def plain(value):
    if isinstance(value, PairVerdict):
        return [value.kind, str(value.density)]
    if isinstance(value, SpecialWitness):
        return [value.side, value.Xp, value.Yp]
    if isinstance(value, tuple):
        return list(value)
    return value


def naive_kind(rows, X: int, Y: int, eps: Fraction) -> str:
    xs, ys = bit_list(X), bit_list(Y)
    density = Fraction(sum((rows[a] >> b) & 1 for a in xs for b in ys), len(xs) * len(ys))
    if density < eps:
        return "homogeneous-low"
    if density > 1 - eps:
        return "homogeneous-high"
    return "not-homogeneous"


def small_graph_item(rows: tuple[int, ...], pairs, excellent, sample_every: int) -> Item:
    g = Graph(len(rows), rows)

    def check(out):
        problems = []
        pos = 0
        for eps in EPS_POOL:
            for idx, (X, Y) in enumerate(pairs):
                if idx % sample_every == 0 and out[pos].kind != naive_kind(rows, X, Y, eps):
                    problems.append(f"homogeneity of {X:b},{Y:b} at {eps} differs from the edge count")
                pos += 5
            pos += len(excellent[eps])
        return problems

    return Item("small_graph", lambda tr: battery(g, pairs, excellent, tr), lambda out: [plain(v) for v in out], check)


def small_pairs_items(seed: int, size: str, workdir: Path) -> list[Item]:
    shape = SMALL_PAIRS[size]
    graphs = []
    for n in range(1, shape["exhaustive_n"] + 1):
        sets = range(1, 1 << n)
        all_pairs = [(X, Y) for X in sets for Y in sets]
        graphs.extend((rows, all_pairs, list(sets)) for rows in all_graph_rows(n))
    rng = rng_for(seed, "small_pairs")
    for n in range(5, 9):
        for _ in range(shape["random_per_n"]):
            rows = random_graph_rows(n, rng.choice((0.25, 0.5, 0.75)), rng)
            full = (1 << n) - 1
            pairs = [(rng.randint(1, full), rng.randint(1, full)) for _ in range(shape["pairs_per_graph"])]
            graphs.append((rows, pairs, sorted({X for X, _ in pairs})))
    items = []
    for i, (rows, pairs, xs) in enumerate(graphs):
        g = Graph(len(rows), rows)
        small = g.n <= shape["excellent_n"]
        excellent = {eps: [X for X in xs if small and is_good_set(g, X, eps)] for eps in EPS_POOL}
        items.append(small_graph_item(rows, pairs, excellent, sample_every=7 + i % 5))
    return items


WORKLOADS = {
    "pipeline": pipeline_items,
    "stability": stability_items,
    "groups": groups_items,
    "small_pairs": small_pairs_items,
}
