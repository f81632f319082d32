import gc
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablereg.acceptance import _complement
from stablereg.errors import CapacityError, InputError
from stablereg.graphs import (
    Graph,
    bits,
    clique_union,
    complete_graph,
    empty_graph,
    half_graph,
    matching_graph,
    parse_family,
    perturb,
    transpose,
    twin_classes,
)
from stablereg.stability import (
    Ladder,
    Relation,
    find_relation_ladder,
    graph_relation,
    ladder_exists_scan,
    ladder_index,
    relation_ladder_index,
)
from tests.oracles import ladder_exists_naive
from tests.test_graphs import graphs


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if (code >> idx) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph(n, tuple(rows))


def test_empty_has_no_ladder():
    assert find_relation_ladder(graph_relation(empty_graph(5)), 1) is None
    assert ladder_index(empty_graph(5), 5) == 0


def test_half_graph_defining_ladder():
    lad = find_relation_ladder(graph_relation(half_graph(4)), 4)
    assert lad == Ladder((0, 1, 2, 3), (4, 5, 6, 7))


def test_half_graph_index_is_exactly_its_order():
    # frozen from the exhaustive tuple-scan oracle
    assert ladder_index(half_graph(4), 6) == 4
    assert ladder_index(half_graph(2), 6) == 2  # so half_graph(2) is 3-stable


def test_matching_index():
    assert ladder_index(matching_graph(4), 4) == 1


def test_complete_graph_repeating_witnesses():
    # K_5: a length-2 ladder exists only because slots may repeat across lists
    lad = find_relation_ladder(graph_relation(complete_graph(5)), 2)
    assert lad is not None and lad.holds_in(graph_relation(complete_graph(5)))
    assert set(lad.vs) & set(lad.ws)
    assert find_relation_ladder(graph_relation(complete_graph(5)), 3) is None
    assert ladder_index(complete_graph(5), 5) == 2


def test_distinct_witness_variant():
    # with pairwise-distinct slots the complete graph loses its 2-ladder
    assert find_relation_ladder(graph_relation(complete_graph(5)), 2, distinct=True) is None
    assert ladder_index(complete_graph(5), 5, distinct=True) == 1
    lad = find_relation_ladder(graph_relation(half_graph(3)), 3, distinct=True)
    assert lad is not None
    assert len(set(lad.vs) | set(lad.ws)) == 6


def test_clique_union_index():
    assert ladder_index(clique_union([3, 3]), 5) == 2
    assert ladder_index(clique_union([4, 4]), 5) == 2


def test_bad_inputs():
    with pytest.raises(InputError):
        find_relation_ladder(graph_relation(empty_graph(3)), 0)
    with pytest.raises(InputError):
        ladder_index(empty_graph(3), 0)


def test_oracle_equivalence_small_exhaustive():
    # DFS, tuple scan and the literal product enumeration agree on all
    # graphs with at most 4 vertices for k <= 4
    for n in range(1, 5):
        for g in all_graphs(n):
            rel = graph_relation(g)
            for k in range(1, 5):
                found = find_relation_ladder(rel, k)
                exists = ladder_exists_scan(rel, k)
                naive = ladder_exists_naive(rel, k)
                assert (found is not None) == exists == naive
                if found is not None:
                    assert found.holds_in(rel)


@given(graphs(max_n=7), st.integers(min_value=1, max_value=4))
@settings(max_examples=200)
def test_oracle_equivalence_random(g, k):
    rel = graph_relation(g)
    found = find_relation_ladder(rel, k)
    assert (found is not None) == ladder_exists_scan(rel, k)
    if found is not None:
        assert found.holds_in(rel)


def test_ladder_length_cannot_exceed_vertex_count():
    # slots within one tuple are forced distinct, so k > n is impossible
    for g in (complete_graph(4), half_graph(2), matching_graph(2)):
        assert find_relation_ladder(graph_relation(g), g.n + 1) is None


@given(graphs(max_n=6))
@settings(max_examples=80)
def test_distinct_matches_naive(g):
    rel = graph_relation(g)
    for k in (1, 2):
        found = find_relation_ladder(rel, k, distinct=True)
        assert (found is not None) == ladder_exists_naive(rel, k, distinct=True)


@given(graphs(max_n=7))
@settings(max_examples=80)
def test_stability_monotone(g):
    idx = ladder_index(g, g.n)
    for k in range(1, g.n + 1):
        assert (find_relation_ladder(graph_relation(g), k) is None) == (k > idx)


@given(graphs(max_n=7), st.integers(min_value=0))
@settings(max_examples=80)
def test_induced_subgraph_monotone(g, pick):
    mask = (pick % g.full_mask) + 1 if g.full_mask > 1 else 1
    sub = g.induced(mask)
    assert ladder_index(sub, sub.n) <= ladder_index(g, g.n)


def _plain_dfs(rel, k, distinct=False):
    """The ladder DFS without the memo of refuted states, as a reference."""
    vs, ws = [], []

    def extend(cand_v, cand_w, used):
        pool_v = cand_v & ~used if distinct else cand_v
        for v in bits(pool_v):
            next_w = cand_w & rel.rows[v]
            pool_w = next_w & ~(used | (1 << v)) if distinct else next_w
            if not pool_w:
                continue
            vs.append(v)
            for w in bits(pool_w):
                ws.append(w)
                if len(vs) == k:
                    return True
                if extend(
                    cand_v & ~rel.cols[w],
                    next_w,
                    used | (1 << v) | (1 << w) if distinct else 0,
                ):
                    return True
                ws.pop()
            vs.pop()
        return False

    if extend((1 << rel.nv) - 1, (1 << rel.nw) - 1, 0):
        return Ladder(tuple(vs), tuple(ws))
    return None


def test_memoized_search_matches_plain_dfs_on_random_relations():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(1500):
        nv, nw = rng.randint(1, 10), rng.randint(1, 10)
        density = rng.choice((0.2, 0.5, 0.8))
        rows = tuple(
            sum(1 << b for b in range(nw) if rng.random() < density) for _ in range(nv)
        )
        rel = Relation(nv, nw, rows)
        k = rng.randint(1, 4)
        for distinct in (False, True):
            found = find_relation_ladder(rel, k, distinct=distinct)
            assert found == _plain_dfs(rel, k, distinct=distinct), (rows, nw, k, distinct)
            outcomes.add((distinct, found is None))
        assert (find_relation_ladder(rel, k) is not None) == ladder_exists_scan(rel, k)
    assert len(outcomes) == 4


def test_memoized_refutations_match_plain_dfs_on_perturbed_clique_unions():
    rng = random.Random(5)
    for seed in range(50):
        sizes = [10 + rng.randint(-1, 1) for _ in range(4)]
        spec = f"perturb(clique_union({','.join(map(str, sizes))}),5,{seed})"
        rel = graph_relation(parse_family(spec))
        k = relation_ladder_index(rel, 6) + 1
        found = find_relation_ladder(rel, k)
        assert found == _plain_dfs(rel, k), spec
        assert (found is not None) == ladder_exists_scan(rel, k), spec


def test_count_prunes_match_plain_dfs_past_the_index():
    # the count prunes cut refutations; compare both variants at index + 1
    # and index + 2, where whole subtrees fall to them
    rng = random.Random(8)
    for seed in range(12):
        sizes = [10 + rng.randint(-1, 1) for _ in range(4)]
        spec = f"perturb(clique_union({','.join(map(str, sizes))}),5,{seed})"
        rel = graph_relation(parse_family(spec))
        for distinct in (False, True):
            index = relation_ladder_index(rel, 6, distinct=distinct)
            for k in (index, index + 1, index + 2):
                found = find_relation_ladder(rel, k, distinct=distinct)
                assert found == _plain_dfs(rel, k, distinct=distinct), (spec, k, distinct)
                assert (found is None) == (k > index), (spec, k, distinct)


def test_ladder_search_leaves_no_reference_cycle():
    # The memo of refuted states must be freed when the search returns, not
    # when the cycle collector next runs.
    g = parse_family("perturb(clique_union(10,10,10,10),5,1)")
    gc.collect()
    gc.disable()
    try:
        assert find_relation_ladder(graph_relation(g), 5) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_graph_relation_columns_are_rows():
    rng = random.Random(5)
    for _ in range(40):
        sizes = [rng.randint(1, 30) for _ in range(rng.randint(1, 4))]
        base = clique_union(sizes)
        total = base.n * (base.n - 1) // 2
        g = perturb(base, rng.randint(0, min(total, 40)), rng.randrange(1000))
        rel = graph_relation(g)
        assert rel.cols == transpose(g.adj, g.n)
        assert (rel.nv, rel.nw, rel.rows) == (g.n, g.n, g.adj)


def _blow_up(rng):
    """A random graph on 4-6 vertices with each vertex blown up into a clique
    or an independent set of 1-5 twins."""
    m = rng.randint(4, 6)
    quotient = [[u != v and rng.random() < 0.5 for v in range(m)] for u in range(m)]
    for u in range(m):
        for v in range(u):
            quotient[u][v] = quotient[v][u]
    block = [b for b in range(m) for _ in range(rng.randint(1, 5))]
    clique = [rng.random() < 0.5 for _ in range(m)]
    rows = [
        sum(
            1 << b
            for b, y in enumerate(block)
            if a != b and (quotient[x][y] or (x == y and clique[x]))
        )
        for a, x in enumerate(block)
    ]
    return Graph(len(block), tuple(rows))


def _twin_rich_graphs():
    rng = random.Random(9)
    for seed in range(8):
        sizes = [rng.randint(3, 9) for _ in range(rng.randint(2, 4))] + [1, 1]
        g = perturb(clique_union(sizes), rng.randint(1, 4), seed)
        yield g
        yield _complement(g)
    for _ in range(16):
        yield _blow_up(rng)


def test_twin_pruned_search_matches_plain_dfs_on_all_small_graphs():
    for n in range(1, 6):
        for g in all_graphs(n):
            rel = graph_relation(g)
            for k in range(1, 5):
                for distinct in (True, False):
                    found = find_relation_ladder(rel, k, distinct=distinct)
                    assert found == _plain_dfs(rel, k, distinct=distinct), (g.adj, k, distinct)
                assert (found is not None) == ladder_exists_scan(rel, k), (g.adj, k)


def test_twin_pruned_search_matches_plain_dfs_on_twin_rich_graphs():
    # perturbed clique unions with singleton cliques, their complements and
    # blow-ups hold twins of both kinds; compare at the index and past it
    kinds = set()
    for g in _twin_rich_graphs():
        rel = graph_relation(g)
        for members in twin_classes(g.adj):
            if members.bit_count() > 1:
                v = (members & -members).bit_length() - 1
                kinds.add((g.adj[v] & members).bit_count() > 0)
        for distinct in (False, True):
            index = relation_ladder_index(rel, g.n, distinct=distinct)
            for k in (index, index + 1, index + 2):
                found = find_relation_ladder(rel, k, distinct=distinct)
                assert found == _plain_dfs(rel, k, distinct=distinct), (g.adj, k, distinct)
                assert (found is None) == (k > index)
                if not distinct:
                    assert (found is not None) == ladder_exists_scan(rel, k), (g.adj, k)
    assert kinds == {False, True}


def test_twin_prune_keeps_a_refutation_under_budget(monkeypatch):
    # The pruned refutation at index + 1 takes 193 nodes; the same rows as a
    # plain Relation, which has no twin rule, take 7,579.
    g = parse_family("perturb(clique_union(10,10,10,10),5,1)")
    rel = graph_relation(g)
    k = relation_ladder_index(rel, 8) + 1
    monkeypatch.setenv("STABLEREG_LADDER_BUDGET", "1000")
    assert find_relation_ladder(rel, k) is None
    with pytest.raises(CapacityError, match="spent 1001 nodes; the node budget is 1000 "):
        find_relation_ladder(Relation(g.n, g.n, g.adj), k)


def test_ladder_budget_of_one_node(monkeypatch):
    monkeypatch.setenv("STABLEREG_LADDER_BUDGET", "1")
    assert find_relation_ladder(graph_relation(half_graph(3)), 1) == Ladder((0,), (3,))
    with pytest.raises(CapacityError, match="length 2 spent 2 nodes; the node budget is 1 "):
        find_relation_ladder(graph_relation(half_graph(3)), 2)
