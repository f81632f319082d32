"""The acceptance battery: nine seeded, deterministic criterion checks.

Each criterion function returns a CriterionResult with a verdict and the
counts that produced it; `run_battery` executes all nine. Randomized
corpora draw every bit of randomness from labeled streams below the single
battery seed, so two runs with the same seed return identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress
from math import isqrt
from random import Random

from .graphs import (
    Graph,
    bits,
    clique_union,
    complete_graph,
    empty_graph,
    from_edges,
    half_graph,
    mask_of,
    matching_graph,
    perturb,
)
from .groups import coset_regularity, cyclic_group
from .pairs import (
    is_excellent,
    is_good_pair,
    is_good_set,
    is_homogeneous,
    is_special,
    threshold_sets,
)
from .partitions import ErrorFunction, regularity_pipeline
from .rng import derive_rng
from .stability import (
    Relation,
    find_relation_ladder,
    graph_relation,
    ladder_exists_scan,
    ladder_index,
    relation_ladder_index,
)
from .typeclasses import (
    DefinabilityWitnesses,
    definability_witnesses,
    harrington_check,
    side_types,
    type_spectrum,
)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict


def _fraction_sqrt(f: Fraction) -> Fraction:
    num, den = isqrt(f.numerator), isqrt(f.denominator)
    if num * num != f.numerator or den * den != f.denominator:
        raise ValueError(f"{f} is not a perfect rational square")
    return Fraction(num, den)


def _all_graphs(n: int):
    """All labeled graphs on n vertices, by edge bitmap."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield from_edges(n, compress(pairs, (code >> idx & 1 for idx in range(len(pairs)))))


def _random_graph(rng: Random, n: int, p: float) -> Graph:
    # one draw per pair u < v, in this order, so seeded corpora stay the same
    return from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _complement(g: Graph) -> Graph:
    pairs = combinations(range(g.n), 2)
    return from_edges(g.n, ((u, v) for u, v in pairs if not g.adj[u] >> v & 1))


def _random_nonempty_subset(rng: Random, mask: int) -> int:
    verts = list(bits(mask))
    size = rng.randint(1, len(verts))
    return mask_of(rng.sample(verts, size))


# ---------------------------------------------------------------------------


def criterion_1(seed: int) -> CriterionResult:
    """Pruned ladder search vs exhaustive tuple-scan oracle."""
    rng = derive_rng(seed, "c1.random8")
    densities = [0.2, 0.35, 0.5, 0.65, 0.8]
    exhaustive = ((g, range(1, 4)) for n in range(1, 6) for g in _all_graphs(n))
    random8 = (
        (_random_graph(rng, 8, densities[i % len(densities)]), range(1, 5)) for i in range(500)
    )
    checked = 0
    mismatches = 0
    for g, ks in chain(exhaustive, random8):
        rel = graph_relation(g)
        for k in ks:
            found = find_relation_ladder(rel, k)
            exists = ladder_exists_scan(rel, k)
            checked += 1
            if (found is not None) != exists:
                mismatches += 1
            elif found is not None and not found.holds_in(rel):
                mismatches += 1
    return CriterionResult(
        1,
        "ladder search agrees with the exhaustive oracle",
        mismatches == 0,
        {"graphs": 1099 + 500, "comparisons": checked, "mismatches": mismatches},
    )


def criterion_2(seed: int) -> CriterionResult:
    """Pairs of (eps^2/4)-good sets are eps-homogeneous, on 1000 random
    hypothesis-filtered instances with at most 40 vertices."""
    rng = derive_rng(seed, "c2.symmetry")
    eps_pool = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]
    accepted = 0
    attempts = 0
    failures = 0
    while accepted < 1000 and attempts < 200_000:
        attempts += 1
        eps = rng.choice(eps_pool)
        gamma = eps * eps / 4
        g = _c2_graph(rng)
        X = _c2_set(rng, g)
        Y = _c2_set(rng, g)
        if X == 0 or Y == 0:
            continue
        if not (is_good_set(g, X, gamma) and is_good_set(g, Y, gamma)):
            continue
        accepted += 1
        if not is_homogeneous(g, X, Y, eps):
            failures += 1
    return CriterionResult(
        2,
        "good-good pairs are homogeneous (symmetry lemma)",
        failures == 0 and accepted == 1000,
        {"instances": accepted, "attempts": attempts, "failures": failures},
    )


def _c2_graph(rng: Random) -> Graph:
    kind = rng.randrange(7)
    if kind == 0:
        return empty_graph(rng.randint(3, 40))
    if kind == 1:
        return complete_graph(rng.randint(3, 40))
    if kind == 2:
        sizes = []
        left = rng.randint(6, 40)
        while left:
            s = rng.randint(1, min(20, left))
            sizes.append(s)
            left -= s
        return clique_union(sizes)
    if kind == 3:
        sizes = [rng.randint(17, 20) for _ in range(2)]
        return clique_union(sizes)
    if kind == 4:
        sizes = [rng.randint(2, 12) for _ in range(rng.randint(2, 4))]
        return _complement(clique_union(sizes))
    if kind == 5:
        return matching_graph(rng.randint(2, 20))
    return _random_graph(rng, rng.randint(4, 14), rng.choice([0.25, 0.5, 0.75]))


def _c2_set(rng: Random, g: Graph) -> int:
    spectrum = type_spectrum(g)
    kind = rng.randrange(4)
    if kind == 0:
        return 1 << rng.randrange(g.n)
    if kind == 1:
        return rng.choice(spectrum.classes).members
    if kind == 2:
        return _random_nonempty_subset(rng, rng.choice(spectrum.classes).members)
    return _random_nonempty_subset(rng, g.full_mask)


def criterion_3(seed: int) -> CriterionResult:
    """Homogeneous => special, special => homogeneous, good pair =>
    homogeneous, exhaustively over all graphs on at most 5 vertices."""
    eps_pool = [Fraction(1, 4), Fraction(1, 9), Fraction(1, 16)]
    roots = [_fraction_sqrt(eps) for eps in eps_pool]
    # (eps, sqrt(eps), 2 eps, 2 sqrt(eps)), resolved once per eps
    thresholds = [(eps, root, 2 * eps, 2 * root) for eps, root in zip(eps_pool, roots)]
    pairs_checked = 0
    failures = 0
    for n in range(1, 6):
        for g in _all_graphs(n):
            sets = range(1, 1 << n)
            for X in sets:
                for Y in sets:
                    for eps, root, double, double_root in thresholds:
                        pairs_checked += 1
                        if is_homogeneous(g, X, Y, eps) and not is_special(g, X, Y, root):
                            failures += 1
                        if is_special(g, X, Y, eps) and not is_homogeneous(g, X, Y, double):
                            failures += 1
                        if is_good_pair(g, X, Y, eps) and not is_homogeneous(g, X, Y, double_root):
                            failures += 1
    return CriterionResult(
        3,
        "homogeneous/special/good-pair implications hold exhaustively",
        failures == 0,
        {"pair_checks": pairs_checked, "failures": failures},
    )


def criterion_4(seed: int) -> CriterionResult:
    """Threshold-set dichotomy on 1000 random hypothesis-satisfying instances."""
    rng = derive_rng(seed, "c4.threshold")
    small = [Fraction(a, b) for b in range(2, 9) for a in range(1, b)]
    accepted = 0
    attempts = 0
    failures = 0
    while accepted < 1000 and attempts < 200_000:
        attempts += 1
        n = rng.randint(4, 16)
        g = _random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        X = _random_nonempty_subset(rng, g.full_mask)
        Y = _random_nonempty_subset(rng, g.full_mask)
        beta = rng.choice(small)
        eps_opts = [e for e in small if e < beta]
        if not eps_opts:
            continue
        eps = rng.choice(eps_opts)
        alpha = rng.choice(small + [Fraction(1)])
        # keep delta under alpha(beta-eps)/(1-beta) so the arithmetic half holds
        cap = alpha * (beta - eps) / (1 - beta)
        delta = min(cap, Fraction(1)) * rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3)])
        if delta <= 0:
            continue
        X0, Y1 = threshold_sets(g, X, Y, delta, eps)
        ny, nx = Y.bit_count(), X.bit_count()
        if Fraction(Y1.bit_count(), ny) < alpha:
            continue
        if delta * (1 - beta) > alpha * (beta - eps):
            continue
        accepted += 1
        c = X0.bit_count()
        if not (Fraction(c, nx) < beta or Fraction(c, nx) > 1 - beta):
            failures += 1
    return CriterionResult(
        4,
        "threshold-set dichotomy holds on filtered random instances",
        failures == 0 and accepted == 1000,
        {"instances": accepted, "attempts": attempts, "failures": failures},
    )


def criterion_5(seed: int) -> CriterionResult:
    """Every eps-good set is (3 eps, eps)-excellent, exhaustively per graph
    over a corpus of graphs on at most 8 vertices."""
    rng = derive_rng(seed, "c5.excellence")
    corpus: list[Graph] = []
    for n in range(1, 5):
        corpus.extend(_all_graphs(n))
    for n in range(5, 9):
        for i in range(60):
            kind = i % 3
            if kind == 0:
                corpus.append(_random_graph(rng, n, rng.choice([0.25, 0.5, 0.75])))
            elif kind == 1:
                sizes = []
                left = n
                while left:
                    s = rng.randint(1, left)
                    sizes.append(s)
                    left -= s
                corpus.append(clique_union(sizes))
            else:
                base = matching_graph(n // 2) if n % 2 == 0 else clique_union([n])
                corpus.append(perturb(base, rng.randint(0, 2), rng.randrange(1 << 30)))
    eps_pool = [Fraction(1, 4), Fraction(1, 3)]
    good_sets = 0
    failures = 0
    for g in corpus:
        for eps in eps_pool:
            for X in range(1, 1 << g.n):
                if not is_good_set(g, X, eps):
                    continue
                good_sets += 1
                if not is_excellent(g, X, 3 * eps, eps):
                    failures += 1
    return CriterionResult(
        5,
        "good sets are (3eps, eps)-excellent under exhaustive enumeration",
        failures == 0,
        {"graphs": len(corpus), "good_sets": good_sets, "failures": failures},
    )


def criterion_6(seed: int) -> CriterionResult:
    """Majority-vote definitions reproduce every type signature exactly over
    stable families, all classes, 100 adversarial seeds each."""
    rng = derive_rng(seed, "c6.definability")
    families = [
        matching_graph(2),
        matching_graph(3),
        matching_graph(4),
        clique_union([3, 3]),
        clique_union([4, 4]),
        clique_union([3, 4, 5]),
        half_graph(1),
        half_graph(2),
        half_graph(3),
    ]
    runs = 0
    failures = 0
    for g in families:
        k = ladder_index(g, g.n) + 1
        spectrum = type_spectrum(g)
        for cls in spectrum.classes:
            for _ in range(100):
                runs += 1
                result = definability_witnesses(g, k, cls, rng.randrange(1 << 62), spectrum)
                if not isinstance(result, DefinabilityWitnesses):
                    failures += 1
                elif result.defined_mask != cls.signature:
                    failures += 1
    return CriterionResult(
        6,
        "vote definitions reproduce type signatures exactly",
        failures == 0,
        {"runs": runs, "failures": failures},
    )


def criterion_7(seed: int) -> CriterionResult:
    """Definition-membership symmetry on 200 random stable two-sided instances."""
    rng = derive_rng(seed, "c7.harrington")
    accepted = 0
    attempts = 0
    failures = 0
    while accepted < 200 and attempts < 20_000:
        attempts += 1
        nl = rng.randint(3, 6)
        nr = rng.randint(3, 6)
        rows = _random_biprelation(rng, nl, nr)
        rel = Relation(nl, nr, tuple(rows))
        idx = relation_ladder_index(rel, 4)
        if idx >= 4:
            continue
        k = idx + 1
        g, L, R = _bipartite_graph(nl, nr, rows)
        p_classes = side_types(g, L, R)
        q_classes = side_types(g, R, L)
        p = p_classes[rng.randrange(len(p_classes))]
        q = q_classes[rng.randrange(len(q_classes))]
        accepted += 1
        hr = harrington_check(g, L, R, k, p, q, rng.randrange(1 << 62))
        if not hr.agree:
            failures += 1
    return CriterionResult(
        7,
        "definition membership is symmetric on stable two-sided instances",
        failures == 0 and accepted == 200,
        {"instances": accepted, "attempts": attempts, "failures": failures},
    )


def _random_biprelation(rng: Random, nl: int, nr: int) -> list[int]:
    kind = rng.randrange(3)
    rows = [0] * nl
    if kind == 0:
        # union of a few rectangles: low ladder index by construction
        for _ in range(rng.randint(1, 3)):
            ls = _random_nonempty_subset(rng, (1 << nl) - 1)
            rs = _random_nonempty_subset(rng, (1 << nr) - 1)
            for a in bits(ls):
                rows[a] |= rs
    elif kind == 1:
        for a in range(nl):
            for b in range(nr):
                if rng.random() < 0.25:
                    rows[a] |= 1 << b
    else:
        for a in range(nl):
            for b in range(nr):
                if rng.random() < 0.75:
                    rows[a] |= 1 << b
    return rows


def _bipartite_graph(nl: int, nr: int, rows: list[int]) -> tuple[Graph, int, int]:
    edges = ((a, nl + b) for a in range(nl) for b in bits(rows[a]))
    return from_edges(nl + nr, edges), (1 << nl) - 1, ((1 << nr) - 1) << nl


def criterion_8(seed: int) -> CriterionResult:
    """End-to-end pipeline: type-mass base, goodness gate, equipartition,
    verification; must pass on stable families at the stated parameters."""
    rng = derive_rng(seed, "c8.pipeline")
    instances: list[tuple[str, Graph]] = [
        ("clique_union(4,4)", clique_union([4, 4])),
        ("clique_union(6,10)", clique_union([6, 10])),
        ("clique_union(4,8,12)", clique_union([4, 8, 12])),
        ("clique_union(5,6,7,8)", clique_union([5, 6, 7, 8])),
        ("matching(3)", matching_graph(3)),
        ("matching(5)", matching_graph(5)),
    ]
    # perturbed clique unions that stay 3-stable per the ladder oracle
    for base_name, base in (("clique_union(4,4)", clique_union([4, 4])),
                            ("clique_union(5,7)", clique_union([5, 7]))):
        found = 0
        while found < 2:
            s = rng.randrange(1 << 30)
            cand = perturb(base, 2, s)
            if ladder_index(cand, 3) <= 2:
                instances.append((f"perturb({base_name},2,{s})", cand))
                found += 1
    eps_pool = [Fraction(1, 2), Fraction(1, 4)]
    sigma_pool = [ErrorFunction.parse("const(1/4)"), ErrorFunction.parse("inverse(1/2)")]
    runs = 0
    failures = 0
    for _, g in instances:
        for eps in eps_pool:
            for sigma in sigma_pool:
                runs += 1
                result = regularity_pipeline(g, eps, sigma)
                if not result.passed:
                    failures += 1
    return CriterionResult(
        8,
        "end-to-end regularity pipeline passes on stable families",
        failures == 0,
        {"instances": len(instances), "runs": runs, "failures": failures},
    )


def criterion_9(seed: int) -> CriterionResult:
    """Coset regularity on the worked group cases, with exact fractions."""
    failures = []
    sig14 = ErrorFunction.parse("const(1/4)")
    sig13 = ErrorFunction.parse("const(1/3)")

    z6 = cyclic_group(6)
    report, certified = coset_regularity(z6, mask_of([0, 2, 4]), sig14, 6)
    if not (
        certified
        and report.subgroup.elements == mask_of([0, 2, 4])
        and all(f in (0, 1) for f in report.fractions())
    ):
        failures.append("z6-evens")

    z12 = cyclic_group(12)
    report, certified = coset_regularity(z12, mask_of([0, 3, 6, 9, 1]), sig13, 12)
    worst = max(min(f, 1 - f) for f in report.fractions())
    if not (
        certified
        and report.subgroup.elements == mask_of([0, 3, 6, 9])
        and worst == Fraction(1, 4)
    ):
        failures.append("z12-shifted")

    # every passing report covers the group exactly, with no exceptional block
    for group, subset, sigma in (
        (z6, mask_of([0, 2, 4]), sig14),
        (z12, mask_of([0, 3, 6, 9, 1]), sig13),
    ):
        report, certified = coset_regularity(group, subset, sigma, group.order)
        union = 0
        total = 0
        for row in report.cosets:
            union |= row.elements
            total += row.elements.bit_count()
        if not (certified and union == (1 << group.order) - 1 and total == group.order):
            failures.append("coverage")

    return CriterionResult(
        9,
        "coset regularity certifies the worked group cases exactly",
        not failures,
        {"failures": failures},
    )


def run_battery(seed: int) -> list[CriterionResult]:
    return [
        criterion_1(seed),
        criterion_2(seed),
        criterion_3(seed),
        criterion_4(seed),
        criterion_5(seed),
        criterion_6(seed),
        criterion_7(seed),
        criterion_8(seed),
        criterion_9(seed),
    ]
