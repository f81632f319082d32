import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from stablereg.acceptance import _complement
from stablereg.errors import InputError
from stablereg.graphs import (
    bits,
    clique_union,
    complete_graph,
    empty_graph,
    from_edges,
    half_graph,
    mask_of,
    matching_graph,
    perturb,
    vertex_list,
)
from stablereg.pairs import is_good_set
from stablereg.stability import ladder_index
from stablereg.typeclasses import (
    DefinabilityDefect,
    DefinabilityWitnesses,
    TypeClass,
    TypeSpectrum,
    _class_signature,
    definability_witnesses,
    harrington_check,
    patched_rows,
    side_types,
    type_spectrum,
)
from tests.test_graphs import graphs
from tests.test_stability import all_graphs

F = Fraction


def test_spectrum_examples():
    sp = type_spectrum(empty_graph(5))
    assert len(sp.classes) == 1
    assert sp.classes[0].members == empty_graph(5).full_mask
    assert sp.classes[0].signature == 0
    assert sp.masses() == (F(1),)

    sp = type_spectrum(matching_graph(3))
    assert [vertex_list(c.members) for c in sp.classes] == [[0, 1], [2, 3], [4, 5]]
    assert [c.signature for c in sp.classes] == [0b11, 0b1100, 0b110000]
    assert sp.masses() == (F(1, 3), F(1, 3), F(1, 3))

    sp = type_spectrum(half_graph(3))
    assert len(sp.classes) == 6
    assert all(c.size == 1 for c in sp.classes)


def test_spectrum_partitions_and_orders():
    g = clique_union([2, 3])
    sp = type_spectrum(g)
    # heavier class first; ties by least member
    assert [vertex_list(c.members) for c in sp.classes] == [[2, 3, 4], [0, 1]]
    assert sum(sp.masses()) == 1


@given(graphs(max_n=9))
@settings(max_examples=100)
def test_spectrum_is_a_partition(g):
    sp = type_spectrum(g)
    union = 0
    total = 0
    for c in sp.classes:
        assert c.members
        assert union & c.members == 0
        union |= c.members
        total += c.size
    assert union == g.full_mask and total == g.n
    assert sum(sp.masses()) == 1
    assert len(sp.classes) <= g.n


def test_half_graph_class_count():
    for k in (1, 2, 3, 4):
        expected = 1 if k == 1 else 2 * k  # both endpoints of an edge share a class
        assert len(type_spectrum(half_graph(k)).classes) == expected


def reference_type_spectrum(g):
    """The pairwise construction: grow each class from the least vertex not
    yet placed by comparing its row with every remaining row off the two
    cells naming themselves."""
    remaining = g.full_mask
    classes = []
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        members = 0
        for u in bits(remaining):
            off = ~((1 << v) | (1 << u))
            if g.adj[v] & off == g.adj[u] & off:
                members |= 1 << u
        classes.append(TypeClass(_class_signature(g, members), members))
        remaining &= ~members
    classes.sort(key=lambda c: (-c.size, (c.members & -c.members).bit_length()))
    return TypeSpectrum(g.n, tuple(classes))


@given(graphs(max_n=10))
@settings(max_examples=300)
def test_spectrum_matches_reference(g):
    assert type_spectrum(g) == reference_type_spectrum(g)


def test_spectrum_matches_reference_exhaustive():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert type_spectrum(g) == reference_type_spectrum(g)


def test_spectrum_matches_reference_with_both_twin_kinds():
    # singleton cliques leave isolated (non-adjacent) twins beside the
    # cliques' adjacent ones; complements swap the two kinds
    rng = random.Random(20261018)
    mixed = 0  # graphs holding twins of both kinds
    for _ in range(30):
        sizes = [rng.randint(2, 40) for _ in range(rng.randint(1, 4))] + [1] * rng.randint(2, 5)
        rng.shuffle(sizes)
        base = clique_union(sizes)
        g = perturb(base, rng.randint(0, 2 * base.n), rng.randrange(1000))
        assert g.n <= 200
        for h in (g, _complement(g)):
            spectrum = type_spectrum(h)
            assert spectrum == reference_type_spectrum(h)
            kinds = set()
            for c in spectrum.classes:
                if c.size > 1:
                    a, b = vertex_list(c.members)[:2]
                    kinds.add((h.adj[a] >> b) & 1)
            mixed += kinds == {0, 1}
    assert mixed >= 20


@given(graphs(max_n=9))
@settings(max_examples=60)
def test_classes_are_good_sets(g):
    for c in type_spectrum(g).classes:
        assert is_good_set(g, c.members, F(2, c.size))
        assert is_good_set(g, c.members, F(2, c.size) + F(1, 97))


def test_member_rows_match_signature():
    for g in (matching_graph(3), clique_union([3, 4]), half_graph(3), complete_graph(5)):
        sp = type_spectrum(g)
        prows = patched_rows(g)
        for c in sp.classes:
            for v in vertex_list(c.members):
                assert prows[v] == c.signature
                off = ~(1 << v)
                assert g.adj[v] & off == c.signature & off


# ---------------------------------------------------------------------------
# definability


def test_definability_empty():
    g = empty_graph(5)
    cls = type_spectrum(g).classes[0]
    r = definability_witnesses(g, 1, cls, 3)
    assert isinstance(r, DefinabilityWitnesses)
    assert r.defined_mask == 0 and len(r.witnesses) == 2


def test_definability_matching_pair_class():
    # the vote must say yes exactly on the matched pair, for every seed
    g = matching_graph(3)
    cls = type_spectrum(g).class_of(0)
    assert cls.signature == 0b11
    for seed in range(100):
        r = definability_witnesses(g, 2, cls, seed)
        assert isinstance(r, DefinabilityWitnesses)
        assert r.defined_mask == cls.signature


def test_definability_clique_class():
    g = clique_union([3, 3])
    assert ladder_index(g, 6) == 2
    cls = type_spectrum(g).class_of(0)
    for seed in range(50):
        r = definability_witnesses(g, 3, cls, seed)
        assert isinstance(r, DefinabilityWitnesses)
        assert len(r.witnesses) == 6
        assert r.defined_mask == mask_of(range(3))


def test_definability_half_graph_singletons():
    g = half_graph(2)
    assert ladder_index(g, 5) == 2  # 3-stable
    for cls in type_spectrum(g).classes:
        for seed in range(25):
            r = definability_witnesses(g, 3, cls, seed)
            assert isinstance(r, DefinabilityWitnesses)
            assert r.defined_mask == cls.signature
            # exhaustive parameter loop against the signature
            for b in range(g.n):
                assert (r.vote_counts[b] >= 3) == bool((cls.signature >> b) & 1)


def test_definability_defect_reports_instability():
    # half_graph(4) is not 2-stable; an adversarial seed produces a vote
    # defect and the cross-check finds a ladder
    g = half_graph(4)
    cls = type_spectrum(g).classes[2]
    r = definability_witnesses(g, 2, cls, 1)
    assert isinstance(r, DefinabilityDefect)
    assert r.ladder is not None and len(r.ladder.vs) == 2
    assert (r.vote_count >= 2) != r.expected


def test_definability_input_errors():
    g = empty_graph(4)
    cls = type_spectrum(g).classes[0]
    with pytest.raises(InputError):
        definability_witnesses(g, 0, cls, 0)


def test_definability_deterministic_per_seed():
    g = clique_union([4, 4])
    cls = type_spectrum(g).class_of(0)
    a = definability_witnesses(g, 3, cls, 12)
    b = definability_witnesses(g, 3, cls, 12)
    assert a == b
    c = definability_witnesses(g, 3, cls, 13)
    assert isinstance(c, DefinabilityWitnesses)


# ---------------------------------------------------------------------------
# two-sided types and the membership-symmetry check


def bipartite(nl, nr, cross):
    edges = [(a, nl + b) for a, b in cross]
    return from_edges(nl + nr, edges), (1 << nl) - 1, ((1 << nr) - 1) << nl


def test_side_types_literal_rows():
    g, L, R = bipartite(3, 3, [(0, 0), (1, 0), (2, 1)])
    classes = side_types(g, L, R)
    assert sorted(vertex_list(c.members) for c in classes) == [[0, 1], [2]]


def test_harrington_empty_and_complete():
    g, L, R = bipartite(3, 3, [])
    p = side_types(g, L, R)[0]
    q = side_types(g, R, L)[0]
    hr = harrington_check(g, L, R, 1, p, q, 0)
    assert hr.agree and not hr.psi_in_q and not hr.theta_in_p

    g, L, R = bipartite(3, 3, [(a, b) for a in range(3) for b in range(3)])
    p = side_types(g, L, R)[0]
    q = side_types(g, R, L)[0]
    hr = harrington_check(g, L, R, 2, p, q, 0)
    assert hr.agree and hr.psi_in_q and hr.theta_in_p


def test_harrington_cross_matched_cliques():
    # two 3-cliques joined by a perfect matching across the cut
    g = from_edges(
        6,
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)],
    )
    L, R = mask_of(range(3)), mask_of(range(3, 6))
    p_classes = side_types(g, L, R)
    q_classes = side_types(g, R, L)
    for p in p_classes:
        for q in q_classes:
            for seed in range(10):
                hr = harrington_check(g, L, R, 2, p, q, seed)
                assert hr.agree


def test_harrington_input_errors():
    g, L, R = bipartite(3, 3, [])
    p = side_types(g, L, R)[0]
    q = side_types(g, R, L)[0]
    with pytest.raises(InputError):
        harrington_check(g, L, L, 1, p, q, 0)
    with pytest.raises(InputError):
        harrington_check(g, L, mask_of([3, 4]), 1, p, q, 0)
