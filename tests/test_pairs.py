from fractions import Fraction
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablereg.errors import CapacityError, InputError
from stablereg.graphs import (
    Graph,
    bits,
    clique_union,
    complete_graph,
    empty_graph,
    from_edges,
    half_graph,
    mask_of,
    vertex_list,
)
from stablereg.pairs import (
    BANDS,
    ExcellenceReport,
    PairVerdict,
    band,
    cutoffs,
    excellence_report,
    good_set_violation,
    homogeneity,
    is_almost_good,
    is_excellent,
    is_good_pair,
    is_good_set,
    is_homogeneous,
    is_special,
    lopsided,
    margin,
    special_witness,
    threshold_sets,
)
from tests.test_graphs import graphs

F = Fraction


def complete_bipartite(a, b):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if (code >> idx) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# goodness


def test_good_set_examples():
    g = empty_graph(6)
    assert is_good_set(g, g.full_mask, F(1, 100))

    hg4 = half_graph(4)
    a_side = mask_of(range(4))
    assert not is_good_set(hg4, a_side, F(1, 4))
    # b_2 (vertex 5) is a mid-band parameter: it sees exactly half of the a-side
    assert (hg4.adj[5] & a_side).bit_count() * 2 == a_side.bit_count()

    cu = clique_union([5, 5])
    cls = mask_of(range(5))
    assert is_good_set(cu, cls, F(2, 5))  # type class at eps = 2/s


def test_good_set_errors():
    g = empty_graph(3)
    with pytest.raises(InputError):
        is_good_set(g, 0, F(1, 2))
    with pytest.raises(InputError):
        is_good_set(g, g.full_mask, F(0))


def test_good_set_violation_names_parameter():
    hg4 = half_graph(4)
    b = good_set_violation(hg4, mask_of(range(4)), F(1, 4))
    assert b is not None
    count = (hg4.adj[b] & mask_of(range(4))).bit_count()
    assert F(1, 4) * 4 <= count <= F(3, 4) * 4


def test_threshold_sets_examples():
    g = empty_graph(6)
    X, Y = mask_of(range(3)), mask_of(range(3, 6))
    assert threshold_sets(g, X, Y, F(1, 2), F(1, 2)) == (X, 0)

    cb = complete_bipartite(3, 3)
    assert threshold_sets(cb, X, Y, F(1, 2), F(1, 2)) == (0, Y)

    hg4 = half_graph(4)
    a_side, b_side = mask_of(range(4)), mask_of(range(4, 8))
    X0, Y1 = threshold_sets(hg4, a_side, b_side, F(1, 2), F(1, 2))
    assert X0 == mask_of([3])  # a_4 alone: |E(a_i, Y)| = 5 - i
    assert Y1 == mask_of([6, 7])  # b_3, b_4: |E(X, b_j)| = j


def test_threshold_sets_rejects_nonpositive_threshold():
    g = empty_graph(4)
    X, Y = mask_of(range(2)), mask_of(range(2, 4))
    for delta, eps in ((F(0), F(1, 2)), (F(1, 2), F(-1, 3))):
        with pytest.raises(InputError):
            threshold_sets(g, X, Y, delta, eps)


# ---------------------------------------------------------------------------
# the low/high rule against its Fraction definition


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=12).flatmap(
        lambda q: st.integers(min_value=1, max_value=3 * q // 2).map(lambda p: F(p, q))
    ),
)
@settings(max_examples=300)
def test_cutoffs_match_fraction_definition(size, eps):
    lo, hi = cutoffs(size, eps)
    for c in range(size + 1):
        assert (c < lo) == (c < eps * size), (c, size, eps)
        assert (c > hi) == (c > (1 - eps) * size), (c, size, eps)


def test_band_matches_fraction_definition():
    grid = sorted({F(p, q) for q in range(1, 9) for p in range(1, 3 * q // 2 + 1)})
    assert any(eps > F(1, 2) for eps in grid)
    for size in range(1, 13):
        counts = np.arange(size + 1)
        for eps in grid:
            lo, hi = cutoffs(size, eps)
            want = [
                "low" if c < eps * size else "high" if c > (1 - eps) * size else "fail"
                for c in range(size + 1)
            ]
            assert [BANDS[band(c, lo, hi)] for c in range(size + 1)] == want, (size, eps)
            codes = band(counts, lo, hi)
            assert codes.tolist() == [band(c, lo, hi) for c in range(size + 1)]
            # per-count bounds, as the pair matrix passes them
            lows, highs = np.full(size + 1, lo), np.full(size + 1, hi)
            assert band(counts, lows, highs).tolist() == codes.tolist()


def test_margin_matches_fraction_definition():
    rng = random.Random(20261021)
    for _ in range(2000):
        size = rng.randint(1, 30)
        counts = [rng.randint(0, size) for _ in range(rng.randint(1, 8))]
        q = rng.randint(2, 12)
        eps = F(rng.randint(1, q - 1), q)
        want = min(max(eps - F(c, size), F(c, size) - (1 - eps)) for c in counts)
        assert margin(counts, size, eps) == want
        lo, hi = cutoffs(size, eps)
        assert (margin(counts, size, eps) > 0) == all(band(c, lo, hi) != 2 for c in counts)


@given(graphs(max_n=7), st.data())
@settings(max_examples=200, deadline=None)
def test_goodness_is_positive_margin(g, data):
    X = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    eps = data.draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(2, 3)]))
    counts = [(row & X).bit_count() for row in g.adj]
    assert is_good_set(g, X, eps) == (margin(counts, X.bit_count(), eps) > 0)


def _degree(g, a, Y):
    return sum(1 for b in vertex_list(Y) if (g.adj[a] >> b) & 1)


def _oracle_sides(g, A, B, eps):
    """Members of A seeing fewer than eps|B| of B, and more than (1-eps)|B|."""
    size = len(vertex_list(B))
    low = {a for a in vertex_list(A) if _degree(g, a, B) < eps * size}
    high = {a for a in vertex_list(A) if _degree(g, a, B) > (1 - eps) * size}
    return low, high


def _oracle_special(g, X, Y, eps):
    x_low, x_high = _oracle_sides(g, X, Y, eps)
    y_low, y_high = _oracle_sides(g, Y, X, eps)
    nx, ny = len(vertex_list(X)), len(vertex_list(Y))
    for xs, ys, side in ((x_low, y_low, "low"), (x_high, y_high, "high")):
        if len(xs) > (1 - eps) * nx and len(ys) > (1 - eps) * ny:
            return mask_of(xs), mask_of(ys), side
    return None


@given(graphs(max_n=8), st.data())
@settings(max_examples=300)
def test_pair_predicates_match_fraction_oracle(g, data):
    X = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    Y = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    fracs = [F(1, 4), F(1, 2), F(2, 3), F(1), F(3, 2)]
    eps = data.draw(st.sampled_from(fracs))
    delta = data.draw(st.sampled_from(fracs))
    nx, ny = len(vertex_list(X)), len(vertex_list(Y))
    x_low, x_high = _oracle_sides(g, X, Y, eps)
    y_low, y_high = _oracle_sides(g, Y, X, eps)

    X0 = _oracle_sides(g, X, Y, delta)[0]
    Y1 = _oracle_sides(g, Y, X, eps)[1]
    assert threshold_sets(g, X, Y, delta, eps) == (mask_of(X0), mask_of(Y1))

    good_pair = len(x_low | x_high) == nx and len(y_low | y_high) == ny
    assert is_good_pair(g, X, Y, eps) == good_pair

    w = special_witness(g, X, Y, eps)
    assert (None if w is None else (w.Xp, w.Yp, w.side)) == _oracle_special(g, X, Y, eps)

    almost = len(x_low | x_high) > (1 - eps) * nx and len(y_low | y_high) > (1 - eps) * ny
    assert is_almost_good(g, X, Y, eps) == almost

    low, high = _oracle_sides(g, g.full_mask, X, eps)
    mid = [b for b in range(g.n) if b not in low | high]
    assert good_set_violation(g, X, eps) == (mid[0] if mid else None)

    density = F(sum(_degree(g, a, Y) for a in vertex_list(X)), nx * ny)
    low_or_high = "low" if density < eps else "high" if density > 1 - eps else None
    kind = f"homogeneous-{low_or_high}" if low_or_high else "not-homogeneous"
    assert homogeneity(g, X, Y, eps) == PairVerdict(kind, density, eps)


# ---------------------------------------------------------------------------
# homogeneity / speciality / pair goodness


def test_pair_examples():
    cb = complete_bipartite(3, 3)
    X, Y = mask_of(range(3)), mask_of(range(3, 6))
    v = homogeneity(cb, X, Y, F(1, 4))
    assert v.kind == "homogeneous-high" and v.density == 1
    w = special_witness(cb, X, Y, F(1, 4))
    assert w is not None and w.side == "high" and w.Xp == X and w.Yp == Y
    assert is_good_pair(cb, X, Y, F(1, 4))
    assert is_almost_good(cb, X, Y, F(1, 4))

    g = empty_graph(6)
    v = homogeneity(g, X, Y, F(1, 4))
    assert v.kind == "homogeneous-low" and v.density == 0
    assert is_special(g, X, Y, F(1, 4))
    assert is_good_pair(g, X, Y, F(1, 4))

    hg4 = half_graph(4)
    a_side, b_side = mask_of(range(4)), mask_of(range(4, 8))
    v = homogeneity(hg4, a_side, b_side, F(1, 4))
    assert v.kind == "not-homogeneous" and v.density == F(5, 8)


def test_special_implies_almost_good_small():
    for g in all_graphs(4):
        for X in range(1, 16):
            for Y in range(1, 16):
                if is_special(g, X, Y, F(1, 4)):
                    assert is_almost_good(g, X, Y, F(1, 4))


def test_almost_good_largeness_parameter():
    # one bad row out of five is tolerated at largeness 1/3 but not at 1/5
    edges = [(0, 5), (0, 6)]
    edges += [(i, 5 + j) for i in range(1, 5) for j in range(8)]
    g = from_edges(13, edges)
    X, Y = mask_of(range(5)), mask_of(range(5, 13))
    eps = F(1, 4)
    assert not is_good_pair(g, X, Y, eps)  # row 0 sits at exactly 1/4 of Y
    assert is_almost_good(g, X, Y, eps, largeness=F(1, 3))
    assert not is_almost_good(g, X, Y, eps, largeness=F(1, 5))


# ---------------------------------------------------------------------------
# threshold-set dichotomy (single frozen instance plus random sweep)


def _prop31_holds(g, X, Y, alpha, beta, delta, eps):
    X0, Y1 = threshold_sets(g, X, Y, delta, eps)
    if F(Y1.bit_count(), Y.bit_count()) < alpha:
        return True  # hypothesis fails, nothing to check
    if delta * (1 - beta) > alpha * (beta - eps):
        return True
    c = F(X0.bit_count(), X.bit_count())
    return c < beta or c > 1 - beta


@given(graphs(max_n=8), st.data())
@settings(max_examples=200)
def test_threshold_dichotomy_random(g, data):
    X = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    Y = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    fracs = [F(a, b) for b in range(2, 7) for a in range(1, b)]
    beta = data.draw(st.sampled_from(fracs))
    eps = data.draw(st.sampled_from([f for f in fracs] ))
    alpha = data.draw(st.sampled_from(fracs))
    delta = data.draw(st.sampled_from(fracs))
    assert _prop31_holds(g, X, Y, alpha, beta, delta, eps)


# ---------------------------------------------------------------------------
# symmetry lemma, exhaustively on all graphs with at most 6 vertices


@pytest.mark.parametrize("eps", [F(1, 2), F(1, 3), F(1, 4)])
def test_symmetry_lemma_exhaustive(eps):
    gamma = eps * eps / 4
    for n in range(1, 7):
        for g in all_graphs(n):
            full = g.full_mask
            good = [X for X in range(1, full + 1) if is_good_set(g, X, gamma)]
            for X in good:
                for Y in good:
                    assert is_homogeneous(g, X, Y, eps), (g, X, Y, eps)


def test_nested_subset_goodness_scaling():
    # Y <= X with |Y| = alpha |X| inherits goodness at eps / alpha
    g = clique_union([6, 4])
    X = mask_of(range(6))
    eps = F(1, 5)
    assert is_good_set(g, X, eps)
    Y = mask_of(range(3))
    alpha = F(3, 6)
    assert is_good_set(g, Y, eps / alpha)


@given(graphs(max_n=8), st.data())
@settings(max_examples=150)
def test_nested_subset_goodness_random(g, data):
    X = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    sub = data.draw(st.integers(min_value=1, max_value=X)) & X
    if sub == 0:
        sub = X & -X
    eps = data.draw(st.sampled_from([F(1, 3), F(1, 4), F(2, 5)]))
    if is_good_set(g, X, eps):
        alpha = F(sub.bit_count(), X.bit_count())
        assert is_good_set(g, sub, eps / alpha)


# ---------------------------------------------------------------------------
# excellence


def test_excellence_examples():
    g = empty_graph(5)
    assert is_excellent(g, g.full_mask, F(1, 3), F(1, 7))

    hg4 = half_graph(4)
    assert not is_excellent(hg4, mask_of(range(4)), F(1, 4), F(1, 4))

    cu = clique_union([4, 4])
    cls = mask_of(range(4))
    assert is_good_set(cu, cls, F(2, 4))
    assert is_excellent(cu, cls, 3 * F(2, 4), F(2, 4))


def test_excellence_capacity():
    g = empty_graph(15)
    with pytest.raises(CapacityError):
        is_excellent(g, g.full_mask, F(1, 3), F(1, 3))
    # a candidate list sidesteps the bound
    rep = excellence_report(g, g.full_mask, F(1, 3), F(1, 3), candidates=[1, 3])
    assert rep.value and rep.mode == "candidates"


@pytest.mark.parametrize("delta", [F(1, 8), F(1, 4), F(2, 5)])
def test_excellence_remark(delta):
    # an eps-good set (eps < 1/2) is ((eps + 2d)/(1 + 2d), d)-excellent
    for g in [clique_union([4, 3]), complete_graph(6), half_graph(3), empty_graph(6)]:
        for eps in (F(1, 4), F(1, 3)):
            target = (eps + 2 * delta) / (1 + 2 * delta)
            for X in range(1, g.full_mask + 1):
                if is_good_set(g, X, eps):
                    assert is_excellent(g, X, target, delta), (g, X, eps, delta)


def _fraction_good(g, A, t):
    size = A.bit_count()
    return all(
        (row & A).bit_count() < t * size or (row & A).bit_count() > (1 - t) * size
        for row in g.adj
    )


def _oracle_excellence(g, X, eps, tests):
    """(value, counterexample) of X from the Fraction definitions. `tests`
    lists, in ascending order, each delta-good Y with the vertices a that
    have |E(a, Y)| < delta|Y|."""
    if not _fraction_good(g, X, eps):
        return False, None
    size = X.bit_count()
    for Y, low in tests:
        if eps * size <= (X & low).bit_count() <= (1 - eps) * size:
            return False, Y
    return True, None


EXCELLENCE_GRID = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]


def _check_excellence_report(g):
    """Compare every excellence report on g over EXCELLENCE_GRID with the
    oracle; return how many counterexamples the oracle found."""
    n, found = g.n, 0
    sets = range(1, 1 << n)
    for delta in EXCELLENCE_GRID:
        tests = [
            (Y, mask_of(a for a in range(n) if (g.adj[a] & Y).bit_count() < delta * Y.bit_count()))
            for Y in sets
            if _fraction_good(g, Y, delta)
        ]
        for X in sets:
            for eps in EXCELLENCE_GRID:
                value, counterexample = _oracle_excellence(g, X, eps, tests)
                found += counterexample is not None
                rep = excellence_report(g, X, eps, delta)
                assert (rep.value, rep.mode, rep.counterexample) == (
                    value,
                    "exhaustive",
                    counterexample,
                ), (g, X, eps, delta)
                listed = excellence_report(g, X, eps, delta, list(sets))
                assert listed == ExcellenceReport(value, "candidates", counterexample)
                if not (value or counterexample):
                    # candidates are read only once X is found good
                    for bad in ([0], [1 << n], [-1]):
                        assert excellence_report(g, X, eps, delta, bad) == listed
                    continue
                with pytest.raises(InputError, match="candidate sets must be nonempty"):
                    excellence_report(g, X, eps, delta, [0])
                for bad in (1 << n, -1):
                    with pytest.raises(InputError, match="vertex set references vertices out of range"):
                        excellence_report(g, X, eps, delta, [bad])
    return found


def test_excellence_report_matches_fraction_oracle():
    found = sum(_check_excellence_report(g) for n in range(1, 5) for g in all_graphs(n))
    # graphs on at most 4 vertices give 4 counterexamples in all, so a seeded
    # sample on 6 vertices adds more
    rng = random.Random(20261020)
    for _ in range(12):
        edges = [(u, v) for u, v in combinations(range(6), 2) if rng.random() < 0.5]
        found += _check_excellence_report(from_edges(6, edges))
    assert found >= 20


# ---------------------------------------------------------------------------
# the per-call kernel against the bits() loops it replaced


def reference_lopsided(g, X, Y, eps):
    """`lopsided` as it was written with the `bits()` generator."""
    lo, hi = cutoffs(Y.bit_count(), eps)
    low = high = 0
    for a in bits(X):
        c = (g.adj[a] & Y).bit_count()
        if c < lo:
            low |= 1 << a
        if c > hi:
            high |= 1 << a
    return low, high


def reference_density_pair(g, X, Y):
    """`Graph.density_pair`'s count as it was written with `bits()`."""
    count = 0
    for a in bits(X):
        count += (g.adj[a] & Y).bit_count()
    return count, X.bit_count() * Y.bit_count()


KERNEL_EPS = [F(1, 16), F(1, 4), F(1, 2), F(2, 3), F(3, 2)]


@given(graphs(max_n=10), st.data())
@settings(max_examples=400)
def test_kernel_matches_bits_loop_reference(g, data):
    X = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    Y = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    eps = data.draw(st.sampled_from(KERNEL_EPS))
    assert lopsided(g, X, Y, eps) == reference_lopsided(g, X, Y, eps)
    assert lopsided(g, Y, X, eps) == reference_lopsided(g, Y, X, eps)
    assert g.density_pair(X, Y) == reference_density_pair(g, X, Y)
    assert is_homogeneous(g, X, Y, eps) == (homogeneity(g, X, Y, eps).kind != "not-homogeneous")


def test_kernel_matches_bits_loop_reference_exhaustively_on_four_vertices():
    for g in all_graphs(4):
        sets = range(1, 16)
        for X in sets:
            for Y in sets:
                assert g.density_pair(X, Y) == reference_density_pair(g, X, Y)
                for eps in KERNEL_EPS:
                    assert lopsided(g, X, Y, eps) == reference_lopsided(g, X, Y, eps)
                    kind = homogeneity(g, X, Y, eps).kind
                    assert is_homogeneous(g, X, Y, eps) == (kind != "not-homogeneous")


def _pair_calls(g, X, Y, eps):
    """Every validating pair entry point, with one threshold."""
    return [
        lambda: homogeneity(g, X, Y, eps),
        lambda: is_homogeneous(g, X, Y, eps),
        lambda: special_witness(g, X, Y, eps),
        lambda: is_special(g, X, Y, eps),
        lambda: is_good_pair(g, X, Y, eps),
        lambda: is_almost_good(g, X, Y, eps),
        lambda: threshold_sets(g, X, Y, eps, eps),
        lambda: lopsided(g, X, Y, eps),
        lambda: g.density_pair(X, Y),
    ]


@pytest.mark.parametrize("n", [1, 3, 8, 64, 65])
def test_out_of_range_and_negative_masks_raise_input_error(n):
    g = empty_graph(n)
    full = g.full_mask
    bad = [1 << n, full + 1, (1 << (n + 70)) | 1, -1, -2, -(1 << n), ~full]
    for mask in bad:
        for X, Y in ((mask, 1), (1, mask)):
            for call in _pair_calls(g, X, Y, F(1, 4)):
                with pytest.raises(InputError, match="vertex set references vertices out of range"):
                    call()
        with pytest.raises(InputError, match="vertex set references vertices out of range"):
            good_set_violation(g, mask, F(1, 4))
    for call in _pair_calls(g, full, full, F(1, 4)):
        call()


@pytest.mark.parametrize("t", [F(0), F(-1, 3), 0, -1])
def test_nonpositive_thresholds_raise_input_error(t):
    g = half_graph(3)
    X, Y = mask_of(range(3)), mask_of(range(3, 6))
    for call in _pair_calls(g, X, Y, t)[:-1]:
        with pytest.raises(InputError, match="threshold must be positive"):
            call()
    with pytest.raises(InputError, match="threshold must be positive"):
        is_good_set(g, 1, t)
    with pytest.raises(InputError, match="threshold must be positive"):
        is_almost_good(g, X, Y, F(1, 4), largeness=t)
    with pytest.raises(InputError, match="threshold must be positive"):
        excellence_report(g, X, F(1, 4), t)


def test_float_thresholds_are_not_accepted():
    g = half_graph(3)
    X, Y = mask_of(range(3)), mask_of(range(3, 6))
    for call in _pair_calls(g, X, Y, 0.25)[:-1]:
        with pytest.raises(AttributeError):
            call()


EMPTY_X = "X must be nonempty"
EMPTY_Y = "Y must be nonempty"
EMPTY_SIDE = "density is undefined for an empty side"
NONPOSITIVE = "threshold must be positive"
OUT_OF_RANGE = "vertex set references vertices out of range"

# Two faults at once on empty_graph(3): (X, Y, eps) and the message for each
# group of entry points in turn. Pair entries check X nonempty, Y nonempty,
# every threshold positive, then X and Y in range. Homogeneity checks eps,
# then `density_pair` checks both ranges before emptiness. One-set entries
# read X and eps, and excellence gets Y as its one candidate.
PRECEDENCE = {
    "empty X, eps 0": (0, 1, F(0), (EMPTY_X, NONPOSITIVE, EMPTY_SIDE, EMPTY_X)),
    "eps 0, X out of range": (8, 1, F(0), (NONPOSITIVE, NONPOSITIVE, OUT_OF_RANGE, NONPOSITIVE)),
    "eps 0, Y out of range": (1, -1, F(0), (NONPOSITIVE, NONPOSITIVE, OUT_OF_RANGE, NONPOSITIVE)),
    "empty Y, X out of range": (8, 0, F(1, 4), (EMPTY_Y, OUT_OF_RANGE, OUT_OF_RANGE, OUT_OF_RANGE)),
    "empty X alone": (0, 1, F(1, 4), (EMPTY_X, EMPTY_SIDE, EMPTY_SIDE, EMPTY_X)),
}


@pytest.mark.parametrize("fault", list(PRECEDENCE))
def test_combined_faults_raise_the_first_failing_check(fault):
    X, Y, eps, (pair, homog, density, one_set) = PRECEDENCE[fault]
    g = empty_graph(3)
    ok = F(1, 4)
    groups = [
        (
            pair,
            [
                lambda: special_witness(g, X, Y, eps),
                lambda: is_special(g, X, Y, eps),
                lambda: is_good_pair(g, X, Y, eps),
                lambda: is_almost_good(g, X, Y, eps),
                lambda: is_almost_good(g, X, Y, ok, largeness=eps),
                lambda: threshold_sets(g, X, Y, eps, eps),
                lambda: threshold_sets(g, X, Y, eps, ok),
                lambda: threshold_sets(g, X, Y, ok, eps),
                lambda: lopsided(g, X, Y, eps),
            ],
        ),
        (homog, [lambda: homogeneity(g, X, Y, eps), lambda: is_homogeneous(g, X, Y, eps)]),
        (density, [lambda: g.density_pair(X, Y)]),
        (
            one_set,
            [
                lambda: is_good_set(g, X, eps),
                lambda: good_set_violation(g, X, eps),
                lambda: excellence_report(g, X, eps, ok),
                lambda: excellence_report(g, X, eps, ok, [Y]),
                lambda: excellence_report(g, X, ok, eps, [Y]),
            ],
        ),
    ]
    for message, calls in groups:
        for i, call in enumerate(calls):
            with pytest.raises(InputError) as info:
                call()
            assert str(info.value) == message, (fault, message, i)
