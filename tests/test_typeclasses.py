import random
from fractions import Fraction
from random import Random

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
from stablereg.rng import derive_rng
from stablereg.stability import Relation, find_relation_ladder, ladder_index
from stablereg.typeclasses import (
    DefinabilityDefect,
    DefinabilityResult,
    DefinabilityWitnesses,
    TypeClass,
    TypeSpectrum,
    _class_signature,
    definability_witnesses,
    harrington_check,
    patched_rows,
    side_definability_witnesses,
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


def test_vote_counts_and_first_defect_match_per_parameter_sums():
    # counts, answers and the defect recomputed from the emitted witnesses;
    # low k on random graphs makes defects common
    rng = random.Random(5)
    defects = witnesses = 0
    for _ in range(120):
        n = rng.randrange(2, 12)
        p_edge = rng.random()
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < p_edge])
        spectrum = type_spectrum(g)
        prows = patched_rows(g)
        for cls in spectrum.classes:
            k = rng.randrange(1, 4)
            seed = rng.randrange(1 << 30)
            r = definability_witnesses(g, k, cls, seed)
            assert r == definability_witnesses(g, k, cls, seed, spectrum)
            counts = [sum((prows[a] >> p) & 1 for a in r.witnesses) for p in range(n)]
            wrong = [p for p in range(n) if (counts[p] >= k) != bool((cls.signature >> p) & 1)]
            if isinstance(r, DefinabilityWitnesses):
                witnesses += 1
                assert not wrong
                assert list(r.vote_counts) == counts
                assert r.defined_mask == mask_of(p for p in range(n) if counts[p] >= k)
            else:
                defects += 1
                assert r.parameter == wrong[0]
                assert r.vote_count == counts[r.parameter]
                assert r.expected == bool((cls.signature >> r.parameter) & 1)
    assert defects and witnesses


def reference_construct(
    candidates: list[int],
    rows: tuple[int, ...] | list[int],
    parameters: list[int],
    sig: int,
    k: int,
    rng: Random,
    width: int,
) -> DefinabilityResult:
    """Inductive construction of 2k vote witnesses.

    candidates: element ids allowed as witnesses (each with rows[id] a mask
    over parameter bit positions); parameters: usable parameter positions;
    sig: the target answers on those positions.

    Stage n keeps, for every subset X of the chosen indices, one parameter
    witnessing that the target answers "no" while all of X answered "yes"
    (and dually). Each next witness is drawn uniformly from the elements
    agreeing with the target on every parameter recorded so far.
    """
    param_mask = mask_of(parameters)
    sig &= param_mask
    not_sig = param_mask & ~sig

    chosen: list[int] = []
    # candidate parameter masks per subset of chosen indices (bitmask over stages)
    i_cand: dict[int, int] = {}
    j_cand: dict[int, int] = {}
    recorded: list[int] = []  # parameters entered into D, in discovery order
    recorded_mask = 0
    qual = list(candidates)

    def record(p: int) -> None:
        nonlocal qual, recorded_mask
        if (recorded_mask >> p) & 1:
            return
        recorded_mask |= 1 << p
        recorded.append(p)
        want = (sig >> p) & 1
        qual = [a for a in qual if ((rows[a] >> p) & 1) == want]

    for stage in range(2 * k):
        if not qual:
            raise InputError(
                "no element agrees with the class on the recorded parameters; "
                "the class is not realized in this relation"
            )
        a = qual[rng.randrange(len(qual))]
        chosen.append(a)
        row = rows[a]
        bit = 1 << stage
        new_i: dict[int, int] = {}
        new_j: dict[int, int] = {}
        if stage == 0:
            new_i[0] = not_sig
            new_j[0] = sig
        for sub, cand in list(i_cand.items()):
            new_i[sub | bit] = cand & row
        for sub, cand in list(j_cand.items()):
            new_j[sub | bit] = cand & ~row
        if stage == 0:
            new_i[bit] = not_sig & row
            new_j[bit] = sig & ~row
        # An empty candidate mask stays empty at every later stage, so only
        # nonempty ones are kept. A new nonempty mask holds only parameters not
        # yet recorded (witnesses agree with sig on recorded ones) and records
        # one, so the masks kept can double only at stages that record a new
        # parameter, not at each of the 2k stages.
        for sub, cand in new_i.items():
            if cand:
                i_cand[sub] = cand
                record((cand & -cand).bit_length() - 1)
        for sub, cand in new_j.items():
            if cand:
                j_cand[sub] = cand
                record((cand & -cand).bit_length() - 1)

    counts = [0] * width
    for a in chosen:
        for p in bits(rows[a] & param_mask):
            counts[p] += 1
    defined = mask_of(p for p in bits(param_mask) if counts[p] >= k)
    wrong = defined ^ sig
    if wrong:
        p = (wrong & -wrong).bit_length() - 1  # the first defect
        rel = Relation(len(rows), width, tuple(rows))
        ladder = find_relation_ladder(rel, k)
        return DefinabilityDefect(k, tuple(chosen), p, counts[p], bool((sig >> p) & 1), ladder)
    return DefinabilityWitnesses(k, tuple(chosen), defined, tuple(counts))


def test_construct_matches_reference_construct():
    # the mask construction against the subset-keyed one it replaced, with
    # the arguments the callers passed it: seeded graphs with n <= 10 at
    # three densities, every class, k = 1..5, and a random two-sided split
    rng = random.Random(13)
    outcomes = []
    for trial in range(90):
        n = rng.randrange(1, 11)
        density = (0.2, 0.5, 0.8)[trial % 3]
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < density])
        spectrum = type_spectrum(g)
        rows = patched_rows(g, spectrum)
        for cls in spectrum.classes:
            for k in range(1, 6):
                seed = rng.randrange(1 << 30)
                want = reference_construct(
                    list(range(n)), rows, list(range(n)), cls.signature, k,
                    derive_rng(seed, "definability.graph"), n,
                )
                assert definability_witnesses(g, k, cls, seed, spectrum) == want
                outcomes.append(type(want))
        if n < 2:
            continue
        side = rng.randrange(1, g.full_mask)
        params = g.full_mask & ~side
        side_rows = tuple(g.adj[v] & params if (side >> v) & 1 else 0 for v in range(n))
        for cls in side_types(g, side, params):
            for k in range(1, 6):
                seed = rng.randrange(1 << 30)
                want = reference_construct(
                    list(bits(side)), side_rows, list(bits(params)), cls.signature, k,
                    derive_rng(seed, "definability.side"), n,
                )
                assert side_definability_witnesses(g, side, params, k, cls, seed) == want
                outcomes.append(type(want))
    assert DefinabilityWitnesses in outcomes and DefinabilityDefect in outcomes
