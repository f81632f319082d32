import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablereg.errors import InputError
from stablereg.graphs import (
    Graph,
    bits,
    clique_union,
    complete_graph,
    empty_graph,
    from_edges,
    half_graph,
    mask_of,
    matching_graph,
    parse_edge_list,
    parse_family,
    parse_vertex_set,
    perturb,
    to_edge_list,
    transpose,
    vertex_list,
)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    code = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    edges = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (code >> idx) & 1:
                edges.append((u, v))
            idx += 1
    return from_edges(n, edges)


def test_family_shapes():
    assert empty_graph(3).edges() == []
    assert complete_graph(4).edge_count() == 6
    assert half_graph(2).edges() == [(0, 2), (0, 3), (1, 3)]
    assert matching_graph(3).edges() == [(0, 1), (2, 3), (4, 5)]
    cu = clique_union([3, 2])
    assert cu.edges() == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_half_graph_rule():
    g = half_graph(4)
    for i in range(1, 5):
        for j in range(1, 5):
            assert g.has_edge(i - 1, 4 + j - 1) == (i <= j)


def test_nonpositive_sizes_rejected():
    for build in (empty_graph, complete_graph, half_graph, matching_graph):
        with pytest.raises(InputError):
            build(0)
    with pytest.raises(InputError):
        clique_union([3, 0])


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(2, (0b10,) * 1)  # row count mismatch
    with pytest.raises(InputError):
        Graph(2, (0b01, 0b00))  # self-loop at 0
    with pytest.raises(InputError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(InputError):
        Graph(2, (0b100, 0b000))  # out of range


def test_neighborhood_examples():
    g = empty_graph(5)
    assert g.neighborhood(g.full_mask, 0) == 0
    k4 = complete_graph(4)
    assert vertex_list(k4.neighborhood(k4.full_mask, 2)) == [0, 1, 3]
    hg3 = half_graph(3)
    a_side = mask_of(range(3))
    assert vertex_list(hg3.neighborhood(a_side, 4)) == [0, 1]  # b_2 sees a_1, a_2


def test_neighborhood_out_of_range():
    g = empty_graph(3)
    with pytest.raises(InputError):
        g.neighborhood(g.full_mask, 3)
    with pytest.raises(InputError):
        g.neighborhood(0b11111, 0)


@given(graphs(), st.integers(min_value=0, max_value=6))
def test_neighborhood_complement_partition(g, b):
    b %= g.n
    X = g.full_mask
    assert g.neighborhood(X, b) | g.co_neighborhood(X, b) == X
    assert g.neighborhood(X, b) & g.co_neighborhood(X, b) == 0


def test_density_examples():
    g = empty_graph(4)
    assert g.density(0b0011, 0b1100) == 0
    k4 = complete_graph(4)
    assert k4.density(0b0011, 0b1100) == 1
    assert k4.density(0b0011, 0b0011) == Fraction(1, 2)


def test_density_empty_side_rejected():
    g = empty_graph(3)
    with pytest.raises(InputError):
        g.density(0, 0b111)


@given(graphs())
@settings(max_examples=60)
def test_density_counts_ordered_pairs(g):
    X = Y = g.full_mask
    brute = sum(
        1 for a in range(g.n) for b in range(g.n) if (g.adj[a] >> b) & 1
    )
    d = g.density(X, Y)
    assert d * g.n * g.n == brute


def test_half_graph_contains_its_ladder():
    g = half_graph(5)
    for i in range(1, 6):
        for j in range(1, 6):
            assert g.has_edge(i - 1, 5 + j - 1) == (i <= j)


def test_perturb_flip_count_and_determinism():
    base = empty_graph(8)
    g1 = perturb(base, 5, 99)
    g2 = perturb(base, 5, 99)
    assert g1 == g2
    assert g1.edge_count() == 5
    assert base.edge_count() == 0  # immutability: a new graph is returned
    again = perturb(g1, 5, 99)
    assert again == base  # flipping the same pairs twice undoes them


def test_perturb_bad_count():
    with pytest.raises(InputError):
        perturb(empty_graph(3), 4, 0)


def test_family_expressions():
    assert parse_family("half_graph(3)") == half_graph(3)
    assert parse_family("clique_union(3,3)") == clique_union([3, 3])
    assert parse_family("perturb(matching(4), 2, 7)") == perturb(matching_graph(4), 2, 7)
    for bad in ("nope(3)", "empty()", "empty(2)x", "perturb(empty(3),1)"):
        with pytest.raises(InputError):
            parse_family(bad)


def test_edge_list_round_trip():
    g = parse_family("perturb(half_graph(4),3,5)")
    assert parse_edge_list(to_edge_list(g)) == g


def test_edge_list_rejections():
    with pytest.raises(InputError):
        parse_edge_list("0 0\n")
    with pytest.raises(InputError):
        parse_edge_list("2 1\n0 0\n")
    with pytest.raises(InputError):
        parse_edge_list("2 2\n0 1\n")  # count mismatch
    with pytest.raises(InputError):
        parse_edge_list("2 1\n0 5\n")


def test_edge_list_idempotent_duplicates():
    g = parse_edge_list("3 3\n0 1\n1 0\n0 1\n")
    assert g.edges() == [(0, 1)]


def test_induced_subgraph():
    g = half_graph(3)
    sub = g.induced(mask_of([0, 1, 3]))  # a1, a2, b1
    assert sub.n == 3
    assert sub.edges() == [(0, 2)]  # only a1-b1 survives


def test_parse_vertex_set():
    assert parse_vertex_set("0,2-4", 6) == mask_of([0, 2, 3, 4])
    with pytest.raises(InputError):
        parse_vertex_set("7", 6)
    with pytest.raises(InputError):
        parse_vertex_set("3-1", 6)


def test_bits_ascending():
    assert list(bits(0b101001)) == [0, 3, 5]


def _transpose_by_bits(rows, width):
    cols = [0] * width
    for a, row in enumerate(rows):
        for b in range(width):
            if (row >> b) & 1:
                cols[b] |= 1 << a
    return tuple(cols)


def test_transpose_matches_per_bit_loop():
    rng = random.Random(20261018)
    heights = list(range(1, 21)) + [255, 256, 257, 1023, 1024, 1025, 2100]
    for nv in heights:
        for nw in list(range(1, 21)) + [63, 64, 65]:
            rows = [rng.getrandbits(nw) for _ in range(nv)]
            assert transpose(rows, nw) == _transpose_by_bits(rows, nw), (nv, nw)
    assert transpose([0] * 5, 7) == (0,) * 7
    full = (1 << 9) - 1
    assert transpose([full] * 1030, 9) == ((1 << 1030) - 1,) * 9


def _validation_error_by_loops(n, adj):
    """Graph's checks with symmetry tested edge by edge, as a reference."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            return f"row {v} references vertices >= {n}"
        if (row >> v) & 1:
            return f"self-loop at vertex {v}"
    for v in range(n):
        for w in bits(adj[v]):
            if not (adj[w] >> v) & 1:
                return f"asymmetric edge {v}-{w}"
    return None


def test_symmetry_check_matches_edge_loop():
    rng = random.Random(7)
    asymmetric = 0
    for _ in range(3000):
        n = rng.randint(1, 12)
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        for _ in range(rng.randint(0, 3)):
            u, v = rng.randrange(n), rng.randrange(n + 1)
            rows[u] ^= 1 << v
        expected = _validation_error_by_loops(n, rows)
        try:
            Graph(n, tuple(rows))
            got = None
        except InputError as exc:
            got = str(exc)
        assert got == expected, (n, rows)
        asymmetric += expected is not None and expected.startswith("asymmetric")
    assert asymmetric > 1000
