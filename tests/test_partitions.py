import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablereg.errors import CapacityError, InputError, PreconditionError
from stablereg.graphs import (
    Graph,
    clique_union,
    empty_graph,
    from_edges,
    half_graph,
    mask_of,
    matching_graph,
    vertex_list,
)
from stablereg.pairs import is_good_set
from stablereg.partitions import (
    ErrorFunction,
    Partition,
    RegularityReport,
    check_refine_precondition,
    equipartition_refine,
    good_partition_search,
    goodness_scale,
    parse_fraction,
    partition_from_json,
    partition_to_json,
    regularity_pipeline,
    type_mass_partition,
    verify_regularity,
)
from tests.test_graphs import graphs

F = Fraction


# ---------------------------------------------------------------------------
# error functions and rational parsing


def test_error_function_forms():
    c = ErrorFunction.parse("const(1/4)")
    assert c(0) == c(7) == F(1, 4)
    inv = ErrorFunction.parse("inverse(1/2)")
    assert inv(0) == F(1, 2) and inv(3) == F(1, 8)
    sq = ErrorFunction.parse("inverse_square(1/2)")
    assert sq(1) == F(1, 8) and sq(3) == F(1, 32)
    tab = ErrorFunction.parse("table(1/2,1/3,1/4)")
    assert [tab(i) for i in range(5)] == [F(1, 2), F(1, 3), F(1, 4), F(1, 4), F(1, 4)]
    bare = ErrorFunction.parse("1/3")
    assert bare.kind == "const" and bare(9) == F(1, 3)


def test_error_function_validation():
    for bad in ("const(0)", "const(1)", "const(3/2)", "table()", "mystery(1/2)"):
        with pytest.raises(InputError):
            ErrorFunction.parse(bad)
    with pytest.raises(InputError):
        ErrorFunction.parse("const(0.25)")


def test_error_function_monotonicity_tools():
    tab = ErrorFunction.parse("table(1/4,1/2,1/8)")
    assert not tab.is_decreasing(3)
    mono = tab.running_minimum(4)
    assert [mono(i) for i in range(4)] == [F(1, 4), F(1, 4), F(1, 8), F(1, 8)]
    assert mono.is_decreasing(6)
    assert ErrorFunction.parse("inverse(1/2)").is_decreasing(50)


def _decreasing_pointwise(f, upto):
    return all(f(i) >= f(i + 1) for i in range(upto))


def test_is_decreasing_matches_pointwise_definition():
    values = [F(1, 2), F(1, 3), F(1, 4), F(2, 3)]
    forms = [ErrorFunction(kind, F(1, 3)) for kind in ("const", "inverse", "inverse_square")]
    forms += [ErrorFunction(kind, F(99, 100)) for kind in ("const", "inverse", "inverse_square")]
    rng = random.Random(20260810)
    for length in range(1, 7):
        # random tables over a small pool, plus constant ones: equal, rising
        # and falling neighbours all occur
        for _ in range(40):
            forms.append(ErrorFunction("table", table=tuple(rng.choices(values, k=length))))
        forms.append(ErrorFunction("table", table=(F(1, 2),) * length))
    rising = falling = 0
    for f in forms:
        length = len(f.table) if f.kind == "table" else 3
        for upto in range(length + 4):
            expected = _decreasing_pointwise(f, upto)
            assert f.is_decreasing(upto) == expected, (f.describe(), upto)
            rising += not expected
            falling += expected
    assert rising and falling


def test_parse_fraction():
    assert parse_fraction("2/6") == F(1, 3)
    with pytest.raises(InputError):
        parse_fraction("0.5")
    with pytest.raises(InputError):
        parse_fraction("1/0")


def test_error_function_describe_round_trip():
    for spec in ("const(1/4)", "inverse(1/2)", "inverse_square(1/3)", "table(1/2,1/4)"):
        ef = ErrorFunction.parse(spec)
        again = ErrorFunction.parse(ef.describe())
        assert [ef(i) for i in range(6)] == [again(i) for i in range(6)]


# ---------------------------------------------------------------------------
# partitions and the type-mass construction


def test_partition_validation():
    with pytest.raises(InputError):
        Partition(3, 0, (0b011,))  # does not cover
    with pytest.raises(InputError):
        Partition(3, 0b001, (0b011, 0b110))  # overlap
    with pytest.raises(InputError):
        Partition(2, 0b11, (0,))  # empty part


def test_partition_json_round_trip():
    p = Partition(6, mask_of([5]), (mask_of([0, 1]), mask_of([2, 3, 4])), {"m": 2})
    assert partition_from_json(partition_to_json(p)) == p
    with pytest.raises(InputError):
        partition_from_json({"n": 3, "parts": [[0]]})


def test_type_mass_partition_examples():
    p = type_mass_partition(empty_graph(10), F(1, 2))
    assert p.m == 1 and p.exceptional == 0 and p.parts[0] == empty_graph(10).full_mask

    p = type_mass_partition(matching_graph(3), F(1, 2))
    assert p.m == 2
    assert vertex_list(p.exceptional) == [4, 5]

    p = type_mass_partition(half_graph(3), F(1, 6))
    assert p.m == 6 and p.exceptional == 0


def test_type_mass_partition_exceptional_mass_bound():
    for g in (matching_graph(5), half_graph(4), clique_union([2, 3, 4])):
        for eps in (F(1, 2), F(1, 4), F(1, 7)):
            p = type_mass_partition(g, eps)
            assert p.exceptional_fraction() < eps
            kept = sum(F(part.bit_count(), g.n) for part in p.parts)
            assert kept > 1 - eps


# ---------------------------------------------------------------------------
# good-partition search


def test_search_exact_trivial():
    r = good_partition_search(empty_graph(6), F(1, 4), ErrorFunction.parse("1/4"))
    assert r.certified and r.partition.m == 1 and r.partition.exceptional == 0


def test_search_exact_clique_union():
    # at sigma = 1/3 the two cliques are the minimal certificate
    r = good_partition_search(clique_union([4, 4]), F(1, 4), ErrorFunction.parse("1/3"))
    assert r.certified and r.partition.m == 2
    assert [vertex_list(b) for b in r.partition.parts] == [[0, 1, 2, 3], [4, 5, 6, 7]]

    # at sigma = 1/5 a size-4 clique is no longer good (needs gamma > 1/4), so
    # the first certificate tosses one vertex and uses singletons
    r = good_partition_search(clique_union([4, 4]), F(1, 4), ErrorFunction.parse("1/5"))
    assert r.certified and r.partition.m == 7
    assert vertex_list(r.partition.exceptional) == [0]
    assert not is_good_set(clique_union([4, 4]), mask_of(range(4)), F(1, 5))


def test_search_exact_half_graph_minimal_m():
    r = good_partition_search(half_graph(2), F(1, 4), ErrorFunction.parse("1/3"))
    assert r.certified and r.partition.m == 4 and r.partition.exceptional == 0


def test_search_exact_capacity():
    with pytest.raises(CapacityError):
        good_partition_search(empty_graph(13), F(1, 4), ErrorFunction.parse("1/4"))


def test_search_greedy_certifies_clique_union():
    r = good_partition_search(
        clique_union([4, 4]), F(1, 4), ErrorFunction.parse("1/3"), mode="greedy"
    )
    assert r.certified and r.partition.m == 2


def test_search_greedy_flags_failure():
    r = good_partition_search(
        clique_union([4, 4]), F(1, 4), ErrorFunction.parse("1/5"), mode="greedy"
    )
    assert not r.certified


def test_greedy_never_beats_exact_minimum():
    sigma = ErrorFunction.parse("1/3")
    for g in (clique_union([3, 3]), matching_graph(3), half_graph(2)):
        exact = good_partition_search(g, F(1, 3), sigma, mode="exact")
        greedy = good_partition_search(g, F(1, 3), sigma, mode="greedy")
        if greedy.certified:
            assert greedy.partition.m >= exact.partition.m


# ---------------------------------------------------------------------------
# equipartition refinement


def test_goodness_scale_formula():
    eps = F(1, 2)
    sigma = ErrorFunction.parse("const(1/4)")
    tau, N = goodness_scale(eps, sigma, 2)
    assert N == 16
    assert tau == eps * sigma(16) ** 2 / 16


def test_refine_empty_graph_example():
    g = empty_graph(20)
    base = Partition(20, 0, (g.full_mask,))
    refined = equipartition_refine(g, base, F(1, 2), ErrorFunction.parse("1/4"))
    assert refined.m == 4
    assert [b.bit_count() for b in refined.parts] == [5, 5, 5, 5]
    assert refined.exceptional == 0
    report = verify_regularity(g, refined, F(1, 2), ErrorFunction.parse("1/4"))
    assert report.passed and report.n == 4


def test_refine_precondition_error_names_part():
    g = clique_union([8, 8])
    base = Partition(16, 0, (mask_of(range(8)), mask_of(range(8, 16))))
    ok, reason = check_refine_precondition(g, base, F(1, 2), ErrorFunction.parse("1/4"))
    assert not ok and "part 0" in reason
    with pytest.raises(PreconditionError):
        equipartition_refine(g, base, F(1, 2), ErrorFunction.parse("1/4"))


def test_refine_mechanics_unchecked():
    # chunking mechanics on a base that fails the goodness precondition
    g = clique_union([8, 8])
    base = Partition(16, 0, (mask_of(range(8)), mask_of(range(8, 16))))
    refined = equipartition_refine(g, base, F(1, 2), ErrorFunction.parse("1/4"), check=False)
    assert refined.m == 8
    assert all(b.bit_count() == 2 for b in refined.parts)
    assert refined.exceptional == 0
    for i, Xi in enumerate(refined.parts):
        for j, Yj in enumerate(refined.parts):
            d = g.density(Xi, Yj)
            same_clique = (i < 4) == (j < 4)
            if i == j:
                assert d == F(1, 2)
            elif same_clique:
                assert d == 1
            else:
                assert d == 0
    # the composed verdict fails exactly on the within-chunk diagonal
    report = verify_regularity(g, refined, F(1, 2), ErrorFunction.parse("1/4"))
    assert not report.passed
    assert report.diagonal_failures == (0, 1, 2, 3, 4, 5, 6, 7)
    assert report.off_diagonal_failures == ()


def test_refine_full_pipeline_with_good_base():
    # large cliques under a forgiving sigma: the precondition holds honestly
    g = clique_union([64, 64])
    base = Partition(128, 0, (mask_of(range(64)), mask_of(range(64, 128))))
    eps = F(1, 2)
    sigma = ErrorFunction.parse("const(9/10)")
    ok, _ = check_refine_precondition(g, base, eps, sigma)
    assert ok
    refined = equipartition_refine(g, base, eps, sigma)
    # chunk size ceil((eps / 2m) |V|) = ceil(128 / 8) = 16
    assert refined.m == 8 and all(b.bit_count() == 16 for b in refined.parts)
    # recompute tau independently of the recorded parameters
    tau, N = goodness_scale(eps, sigma, 2)
    assert refined.params["tau"] == tau
    assert refined.m <= N
    # every chunk of a tau-good part is sigma(n)^2/4-good
    gamma = sigma(refined.m) ** 2 / 4
    for chunk in refined.parts:
        assert is_good_set(g, chunk, gamma)
    report = verify_regularity(g, refined, eps, sigma)
    assert report.passed and not report.diagonal_failures


def test_refine_respects_exceptional_budget():
    g = matching_graph(6)
    base = type_mass_partition(g, F(1, 8))
    parts = []
    for part in base.parts:
        parts.extend(1 << v for v in vertex_list(part))
    singletons = Partition(g.n, base.exceptional, tuple(parts))
    refined = equipartition_refine(g, singletons, F(1, 4), ErrorFunction.parse("1/4"))
    assert refined.exceptional.bit_count() <= F(1, 4) * g.n


def test_refine_unchecked_heavy_exceptional_block_raises():
    # 12 of 20 vertices exceptional at eps = 1/2: only check=False reaches the
    # exceptional bound, and it must hold under python -O as well
    g = empty_graph(20)
    base = Partition(20, mask_of(range(12)), (mask_of(range(12, 20)),))
    with pytest.raises(PreconditionError):
        equipartition_refine(g, base, F(1, 2), ErrorFunction.parse("1/4"), check=False)
    with pytest.raises(PreconditionError):
        equipartition_refine(g, base, F(1, 2), ErrorFunction.parse("1/4"))


def test_refine_monotonizes_sigma():
    g = empty_graph(12)
    base = Partition(12, 0, (empty_graph(12).full_mask,))
    wavy = ErrorFunction.parse("table(1/2,1/4,1/3,1/5)")
    refined = equipartition_refine(g, base, F(1, 2), wavy)
    assert refined.params["sigma_monotonized"] is True


# ---------------------------------------------------------------------------
# regularity verification


def test_verify_single_part_diagonal():
    g = half_graph(4)
    p = Partition(8, 0, (g.full_mask,))
    report = verify_regularity(g, p, F(1, 100), ErrorFunction.parse("1/4"))
    assert not report.passed
    assert report.pair_matrix == (("fail",),)
    assert report.diagonal_failures == (0,)
    # the failing density: 20 ordered pairs out of 64
    assert g.density(g.full_mask, g.full_mask) == F(20, 64)


def test_verify_size_check():
    g = empty_graph(5)
    p = Partition(5, 0, (mask_of([0, 1]), mask_of([2, 3, 4])))
    report = verify_regularity(g, p, F(1, 2), ErrorFunction.parse("1/4"))
    assert not report.size_check and not report.passed


def test_verify_exceptional_budget():
    g = empty_graph(6)
    p = Partition(6, mask_of([0, 1, 2]), (mask_of([3]), mask_of([4]), mask_of([5])))
    report = verify_regularity(g, p, F(1, 4), ErrorFunction.parse("1/4"))
    assert not report.exceptional_ok and not report.passed
    report = verify_regularity(g, p, F(1, 2), ErrorFunction.parse("1/4"))
    assert report.passed


def _verify_by_hand(g, partition, eps, sigma):
    # one density_pair call and one exact rational comparison per ordered pair
    gamma = sigma(partition.m)
    matrix, diag, off = [], [], []
    for i, Xi in enumerate(partition.parts):
        row = []
        for j, Yj in enumerate(partition.parts):
            num, den = g.density_pair(Xi, Yj)
            if F(num, den) < gamma:
                row.append("low")
            elif F(num, den) > 1 - gamma:
                row.append("high")
            else:
                row.append("fail")
                if i == j:
                    diag.append(i)
                else:
                    off.append((i, j))
        matrix.append(tuple(row))
    size_check = len({p.bit_count() for p in partition.parts}) <= 1
    exc = partition.exceptional_fraction()
    return RegularityReport(
        n=partition.m,
        size_check=size_check,
        exceptional_fraction=exc,
        exceptional_ok=exc <= eps,
        sigma_value=gamma,
        pair_matrix=tuple(matrix),
        diagonal_failures=tuple(diag),
        off_diagonal_failures=tuple(off),
        passed=size_check and exc <= eps and not diag and not off,
    )


def _random_graph(rng, n):
    p = rng.random()
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _random_partition(rng, n, shape):
    verts = list(range(n))
    rng.shuffle(verts)
    if shape == "singletons":  # m = n
        return Partition(n, 0, tuple(1 << v for v in verts))
    exc_size = rng.randint(0, n) if shape != "one" else rng.randint(0, n - 1)
    rest = verts[exc_size:]
    if shape == "one":  # m = 1, possibly beside an exceptional block
        return Partition(n, mask_of(verts[:exc_size]), (mask_of(rest),))
    blocks = []
    while rest:
        take = rng.randint(1, 3) if shape == "small" else rng.randint(1, len(rest))
        blocks.append(mask_of(rest[:take]))
        rest = rest[take:]
    return Partition(n, mask_of(verts[:exc_size]), tuple(blocks))


def test_verifier_matches_per_pair_oracle():
    rng = random.Random(20260810)
    sigmas = [
        ErrorFunction.parse(spec)
        for spec in (
            "const(1/4)",
            "const(1/2)",
            "const(3/4)",
            "inverse(1/2)",
            "inverse_square(2/3)",
            "table(1/3,1/2,1/5)",
            "const(999999999999/1000000000000)",
            "const(1/1000000000001)",
            "const(333333333333/1000000000003)",
        )
    ]
    shapes = ("mixed", "small", "one", "singletons")
    on_boundary = unequal = with_exceptional = 0
    for t in range(600):
        n = rng.randint(1, 24)
        g = _random_graph(rng, n)
        p = _random_partition(rng, n, shapes[t % len(shapes)])
        eps = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
        sigma = sigmas[t % len(sigmas)]
        report = verify_regularity(g, p, eps, sigma)
        assert report == _verify_by_hand(g, p, eps, sigma), (g, p, eps, sigma)
        gamma = sigma(p.m)
        for Xi in p.parts:
            for Yj in p.parts:
                num, den = g.density_pair(Xi, Yj)
                on_boundary += F(num, den) in (gamma, 1 - gamma)
        unequal += not report.size_check
        with_exceptional += p.exceptional != 0
    # the strict comparisons are exercised, not passed vacuously
    assert on_boundary and unequal and with_exceptional


def test_verifier_strict_on_boundary_counts():
    # 2 x 2 blocks at gamma = 1/4, so d = 4: one edge pair sits exactly on
    # gamma * d and three sit exactly on (1 - gamma) * d; both fail
    sigma = ErrorFunction.parse("1/4")
    p = Partition(4, 0, (mask_of([0, 2]), mask_of([1, 3])))
    for edges, kind in (
        ([], "low"),
        ([(0, 1)], "fail"),
        ([(0, 1), (0, 3), (2, 1)], "fail"),
        ([(0, 1), (0, 3), (2, 1), (2, 3)], "high"),
    ):
        g = from_edges(4, edges)
        report = verify_regularity(g, p, F(1, 2), sigma)
        assert report.pair_matrix == (("low", kind), (kind, "low"))
        assert report.off_diagonal_failures == (((0, 1), (1, 0)) if kind == "fail" else ())
        assert report == _verify_by_hand(g, p, F(1, 2), sigma)
    everything = Partition(4, mask_of(range(4)), ())
    report = verify_regularity(from_edges(4, []), everything, F(1, 2), sigma)
    assert report.pair_matrix == () and not report.exceptional_ok


def test_verify_graph_mismatch():
    with pytest.raises(InputError):
        verify_regularity(
            empty_graph(4),
            Partition(5, 0, (mask_of(range(5)),)),
            F(1, 2),
            ErrorFunction.parse("1/4"),
        )


# ---------------------------------------------------------------------------
# end-to-end pipeline


@pytest.mark.parametrize("eps", [F(1, 2), F(1, 4)])
@pytest.mark.parametrize("spec", ["const(1/4)", "inverse(1/2)"])
def test_pipeline_families(eps, spec):
    sigma = ErrorFunction.parse(spec)
    for g in (matching_graph(4), clique_union([4, 4]), clique_union([3, 4, 5])):
        result = regularity_pipeline(g, eps, sigma)
        assert result.passed
        assert result.report.exceptional_ok
        ok, reason = check_refine_precondition(g, result.repaired_base, eps, sigma)
        assert ok, reason


def test_pipeline_trivial_base_survives_gate():
    result = regularity_pipeline(empty_graph(20), F(1, 2), ErrorFunction.parse("1/4"))
    assert result.raw_precondition_ok
    assert result.split_parts == ()
    assert result.passed and result.report.n == 4


def test_pipeline_records_splits():
    result = regularity_pipeline(matching_graph(4), F(1, 2), ErrorFunction.parse("1/4"))
    assert not result.raw_precondition_ok  # matched pairs are never tau-good
    assert result.split_parts
    assert result.passed


@given(graphs(max_n=10))
@settings(max_examples=40, deadline=None)
def test_pipeline_always_meets_refine_precondition(g):
    sigma = ErrorFunction.parse("1/4")
    result = regularity_pipeline(g, F(1, 2), sigma)
    ok, reason = check_refine_precondition(g, result.repaired_base, F(1, 2), sigma)
    assert ok, reason
    assert result.report.exceptional_ok
    assert result.report.size_check


def test_report_survives_partition_round_trip():
    g = clique_union([4, 4])
    result = regularity_pipeline(g, F(1, 2), ErrorFunction.parse("1/4"))
    blob = partition_to_json(result.refined)
    reloaded = partition_from_json(blob)
    report = verify_regularity(g, reloaded, F(1, 2), ErrorFunction.parse("1/4"))
    assert report.passed == result.report.passed
    assert report.pair_matrix == result.report.pair_matrix


@given(graphs(max_n=7), st.data())
@settings(max_examples=100, deadline=None)
def test_verifier_matches_hand_recomputation(g, data):
    import random as _random

    rng = _random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    verts = list(range(g.n))
    rng.shuffle(verts)
    exc_size = rng.randint(0, g.n - 1)
    exceptional = mask_of(verts[:exc_size])
    rest = verts[exc_size:]
    blocks = []
    while rest:
        take = rng.randint(1, len(rest))
        blocks.append(mask_of(rest[:take]))
        rest = rest[take:]
    p = Partition(g.n, exceptional, tuple(blocks))
    eps = data.draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
    sigma = ErrorFunction.parse(data.draw(st.sampled_from(["const(1/4)", "inverse(1/2)"])))
    report = verify_regularity(g, p, eps, sigma)
    assert report == _verify_by_hand(g, p, eps, sigma)


def test_searched_base_composition():
    # whenever an exact-search certificate meets the refinement
    # precondition, the composed refine -> verify run passes
    sigma = ErrorFunction.parse("const(1/3)")
    fired = 0
    for g in (
        empty_graph(8),
        empty_graph(11),
        half_graph(2),
        matching_graph(4),
        clique_union([4, 4]),
        clique_union([3, 3, 3]),
    ):
        for eps in (F(1, 2), F(1, 4)):
            result = good_partition_search(g, eps / 2, sigma, mode="exact")
            assert result.certified
            ok, _ = check_refine_precondition(g, result.partition, eps, sigma)
            if not ok:
                continue
            fired += 1
            refined = equipartition_refine(g, result.partition, eps, sigma)
            report = verify_regularity(g, refined, eps, sigma)
            assert report.passed, (g, eps)
    assert fired >= 4  # the conditional must actually fire, not pass vacuously
