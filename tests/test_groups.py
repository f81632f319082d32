import random
from fractions import Fraction

import pytest

from stablereg.errors import CapacityError, InputError
from stablereg.graphs import mask_of, vertex_list
from stablereg.groups import (
    FiniteGroup,
    Subgroup,
    _normal_closures,
    all_subgroups,
    coset_regularity,
    coset_report,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_json,
    group_to_json,
    left_cosets,
    normal_subgroups_up_to_index,
    translate_relation,
)
from stablereg.partitions import ErrorFunction
from stablereg.stability import Relation, relation_ladder_index
from tests.oracles import is_normal, membership_relation

F = Fraction
SIG14 = ErrorFunction.parse("const(1/4)")
SIG13 = ErrorFunction.parse("const(1/3)")


# ---------------------------------------------------------------------------
# construction and validation


def test_cyclic_group_axioms():
    g = cyclic_group(6)
    assert g.identity == 0
    assert g.inverses == (0, 5, 4, 3, 2, 1)


def test_broken_tables_rejected():
    with pytest.raises(InputError):
        FiniteGroup([[0, 1], [1, 1]])  # not associative / no inverses
    with pytest.raises(InputError):
        FiniteGroup([[0, 2], [1, 0]])  # out of range
    with pytest.raises(InputError):
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])  # quasigroup, x*y = y+2x
    with pytest.raises(InputError):
        FiniteGroup([])


def test_identity_may_sit_anywhere():
    # Z2 with its identity at position 1
    g = FiniteGroup([[1, 0], [0, 1]])
    assert g.identity == 1


def test_dihedral_and_product():
    d3 = dihedral_group(3)
    assert d3.order == 6
    z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
    assert z2z2.order == 4
    assert all(z2z2.mul(x, x) == z2z2.identity for x in range(4))


def test_group_json_round_trip():
    g = dihedral_group(4)
    again = group_from_json(group_to_json(g))
    assert again.table == g.table
    with pytest.raises(InputError):
        group_from_json({"order": 3, "table": [[0, 1], [1, 0]]})


# ---------------------------------------------------------------------------
# subgroups


def test_z6_subgroups():
    subs = normal_subgroups_up_to_index(cyclic_group(6), 3)
    assert [(vertex_list(s.elements), s.index) for s in subs] == [
        ([0, 1, 2, 3, 4, 5], 1),
        ([0, 2, 4], 2),
        ([0, 3], 3),
    ]


def test_z5_prime_order():
    subs = normal_subgroups_up_to_index(cyclic_group(5), 4)
    assert len(subs) == 1 and subs[0].index == 1


def test_s3_normal_subgroups():
    s3 = dihedral_group(3)
    assert len(all_subgroups(s3)) == 6
    subs = normal_subgroups_up_to_index(s3, 2)
    assert [s.index for s in subs] == [1, 2]
    assert subs[1].order == 3  # the rotation subgroup
    # the order-2 reflection subgroups exist but are not normal
    reflections = [m for m in all_subgroups(s3) if m.bit_count() == 2]
    assert reflections and all(not is_normal(s3, m) for m in reflections)


def test_left_cosets_partition():
    g = cyclic_group(12)
    h = mask_of([0, 3, 6, 9])
    cosets = left_cosets(g, h)
    assert len(cosets) == 3
    union = 0
    for c in cosets:
        assert union & c == 0
        union |= c
    assert union == (1 << 12) - 1


def test_subgroup_capacity():
    big = cyclic_group(130)
    with pytest.raises(CapacityError):
        all_subgroups(big)


# ---------------------------------------------------------------------------
# translated relation


def test_translate_relation_extremes():
    g = cyclic_group(5)
    assert all(r == 0 for r in translate_relation(g, 0).rows)
    assert all(r == 31 for r in translate_relation(g, 31).rows)


def test_translate_relation_parity():
    g = cyclic_group(6)
    rel = translate_relation(g, mask_of([0, 2, 4]))
    assert relation_ladder_index(rel, 4) == 1


def test_translation_invariance_of_ladder_index():
    g = cyclic_group(8)
    a = mask_of([0, 1, 3])
    rel = translate_relation(g, a)
    base = relation_ladder_index(rel, 6)
    for t in range(1, 8):
        shifted_rows = tuple(rel.rows[g.mul(t, x)] for x in range(8))
        shifted = Relation(8, 8, shifted_rows)
        assert relation_ladder_index(shifted, 6) == base


# ---------------------------------------------------------------------------
# coset regularity


def test_subgroup_itself_certifies_with_zero_error():
    g = cyclic_group(6)
    report, certified = coset_regularity(g, mask_of([0, 2, 4]), SIG14, 6)
    assert certified
    assert vertex_list(report.subgroup.elements) == [0, 2, 4]
    assert report.fractions() == (F(1), F(0))


def test_z12_shifted_union():
    g = cyclic_group(12)
    report, certified = coset_regularity(g, mask_of([0, 3, 6, 9, 1]), SIG13, 12)
    assert certified
    assert vertex_list(report.subgroup.elements) == [0, 3, 6, 9]
    assert report.fractions() == (F(1), F(1, 4), F(0))
    worst = max(min(f, 1 - f) for f in report.fractions())
    assert worst == F(1, 4)


def test_interval_subset_not_certified_below_trivial():
    g = cyclic_group(6)
    report, certified = coset_regularity(g, mask_of([0, 1, 2]), SIG14, 5)
    assert not certified
    # the trivial subgroup (index 6) certifies vacuously once allowed
    report, certified = coset_regularity(g, mask_of([0, 1, 2]), SIG14, 6)
    assert certified and report.subgroup.order == 1


def test_union_of_cosets_certifies_exactly():
    z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
    a = mask_of([0, 2])  # a subgroup, hence a union of its own cosets
    report, certified = coset_regularity(z2z2, a, SIG14, 4)
    assert certified
    assert all(f in (0, 1) for f in report.fractions())
    for row in report.cosets:
        inter = row.elements & a
        assert inter in (0, row.elements)  # A is a union of certified cosets

    g = cyclic_group(12)
    a = mask_of([0, 3, 6, 9, 1, 4, 7, 10])  # two cosets of 3Z12
    report, certified = coset_regularity(g, a, SIG14, 12)
    assert certified
    assert all(f in (0, 1) for f in report.fractions())


def test_passing_report_covers_group_without_exception():
    g = cyclic_group(12)
    report, certified = coset_regularity(g, mask_of([0, 3, 6, 9, 1]), SIG13, 12)
    assert certified
    union = 0
    total = 0
    for row in report.cosets:
        union |= row.elements
        total += row.elements.bit_count()
    assert union == (1 << 12) - 1 and total == 12


def test_coset_pairs_are_homogeneous_under_membership_relation():
    # blocks of a passing report are pairwise homogeneous for x in yA
    g = cyclic_group(12)
    a = mask_of([0, 3, 6, 9, 1])
    report, certified = coset_regularity(g, a, SIG13, 12)
    assert certified
    rel = membership_relation(g, a)
    gamma = report.sigma_value
    blocks = [row.elements for row in report.cosets]
    for X in blocks:
        for Y in blocks:
            count = sum((rel.rows[x] & Y).bit_count() for x in vertex_list(X))
            d = F(count, X.bit_count() * Y.bit_count())
            assert d < gamma or d > 1 - gamma


def test_sigma_reevaluated_per_index():
    # with sigma = inverse(1/2) the threshold shrinks as the index grows
    g = cyclic_group(6)
    sigma = ErrorFunction.parse("inverse(1/2)")
    rep1 = coset_report(g, mask_of([0, 2, 4]), normal_subgroups_up_to_index(g, 1)[0], sigma)
    rep2 = coset_report(g, mask_of([0, 2, 4]), normal_subgroups_up_to_index(g, 2)[1], sigma)
    assert rep1.sigma_value == F(1, 4) and rep2.sigma_value == F(1, 6)


def test_bad_subset_rejected():
    g = cyclic_group(4)
    with pytest.raises(InputError):
        coset_regularity(g, 1 << 7, SIG14, 4)


# ---------------------------------------------------------------------------
# exact associativity (Light's test) and the generating set


def _associative_by_triples(table):
    n = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def test_one_bad_entry_rejected_above_order_128():
    n = 130
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[40][50] = 91  # seeded sampling of 2000 triples misses this entry
    with pytest.raises(InputError, match="not associative"):
        FiniteGroup(table)


def test_light_test_matches_triple_check_on_random_magmas():
    rng = random.Random(20260810)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randint(1, 5)
        e = rng.randrange(n)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        for x in range(n):
            table[e][x] = table[x][e] = x
        associative = _associative_by_triples(table)
        outcomes[associative] += 1
        try:
            FiniteGroup(table)
            rejected_as_nonassociative = False
        except InputError as exc:
            rejected_as_nonassociative = "not associative" in str(exc)
        assert rejected_as_nonassociative == (not associative), table
    assert min(outcomes.values()) > 100


def test_generators_generate_the_group():
    for g in (cyclic_group(12), dihedral_group(9), direct_product(cyclic_group(2), cyclic_group(4))):
        reached = {g.identity}
        todo = [g.identity]
        while todo:
            a = todo.pop()
            for s in g.generators:
                b = g.mul(a, s)
                if b not in reached:
                    reached.add(b)
                    todo.append(b)
        assert reached == set(range(g.order))
        assert g.identity not in g.generators


# ---------------------------------------------------------------------------
# oracles for the subgroup enumeration


def _small_groups():
    factors = [cyclic_group(n) for n in range(2, 7)] + [dihedral_group(n) for n in range(1, 4)]
    groups = [cyclic_group(n) for n in range(1, 13)] + [dihedral_group(n) for n in range(1, 7)]
    for i, a in enumerate(factors):
        for b in factors[i:]:
            if a.order * b.order <= 12:
                groups.append(direct_product(a, b))
    return groups


def _subgroups_by_subsets(g):
    others = [x for x in range(g.order) if x != g.identity]
    out = []
    for pick in range(1 << len(others)):
        elems = [g.identity] + [x for i, x in enumerate(others) if (pick >> i) & 1]
        mask = mask_of(elems)
        if all((mask >> g.mul(a, b)) & 1 for a in elems for b in elems):
            out.append(mask)
    return sorted(out)


def test_all_subgroups_matches_subset_scan():
    groups = _small_groups()
    assert len(groups) > 25
    for g in groups:
        assert all_subgroups(g) == _subgroups_by_subsets(g), g.name


def _tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_subgroup_counts_match_divisor_formulas():
    for n in range(1, 33):
        assert len(all_subgroups(cyclic_group(n))) == _tau(n), n
        assert len(all_subgroups(dihedral_group(n))) == _tau(n) + _sigma(n), n


BENCHMARK_GROUPS = [
    (lambda: cyclic_group(64), 7),
    (lambda: dihedral_group(24), 68),
    (lambda: direct_product(dihedral_group(5), cyclic_group(6)), 44),
    (lambda: direct_product(cyclic_group(2), cyclic_group(32)), 17),
    (lambda: dihedral_group(27), 44),
]


def _normal_by_definition(g, h_mask):
    return all(
        (h_mask >> g.mul(g.mul(x, h), g.inv(x))) & 1
        for x in range(g.order)
        for h in vertex_list(h_mask)
    )


def test_benchmark_group_subgroup_counts_and_normality():
    for build, count in BENCHMARK_GROUPS:
        g = build()
        subs = all_subgroups(g)
        assert len(subs) == count, g.name
        for mask in subs:
            assert is_normal(g, mask) == _normal_by_definition(g, mask), (g.name, mask)


def test_is_normal_matches_definition_on_small_groups():
    for g in _small_groups():
        for mask in all_subgroups(g):
            assert is_normal(g, mask) == _normal_by_definition(g, mask), (g.name, mask)


def _normal_subgroups_by_filter(g, max_index):
    out = [
        Subgroup(mask, g.order // mask.bit_count())
        for mask in all_subgroups(g)
        if g.order // mask.bit_count() <= max_index and is_normal(g, mask)
    ]
    return sorted(out, key=lambda s: (s.index, s.elements))


def test_normal_walk_matches_subgroup_filter():
    factors = [cyclic_group(n) for n in range(2, 13)] + [dihedral_group(n) for n in range(1, 7)]
    groups = [cyclic_group(n) for n in range(1, 49)] + [dihedral_group(n) for n in range(1, 25)]
    for i, a in enumerate(factors):
        for b in factors[i:]:
            if a.order * b.order <= 24:
                groups.append(direct_product(a, b))
    groups += [build() for build, _ in BENCHMARK_GROUPS]
    for g in groups:
        for max_index in (g.order, 2):
            assert normal_subgroups_up_to_index(g, max_index) == _normal_subgroups_by_filter(
                g, max_index
            ), (g.name, max_index)


def _product(*factors):
    g = factors[0]
    for f in factors[1:]:
        g = direct_product(g, f)
    return g


# groups whose normal closures are not cyclic, or with many normal subgroups
MANY_NORMAL_GROUPS = [
    _product(cyclic_group(2), cyclic_group(2), cyclic_group(2), cyclic_group(2)),
    _product(cyclic_group(2), cyclic_group(2), cyclic_group(4)),
    _product(cyclic_group(4), cyclic_group(4)),
    _product(cyclic_group(3), cyclic_group(3)),
    _product(dihedral_group(4), cyclic_group(2)),
    _product(dihedral_group(3), cyclic_group(2)),
]


def test_normal_walk_matches_subgroup_filter_with_many_normal_subgroups():
    for g in MANY_NORMAL_GROUPS:
        for max_index in (g.order, 2):
            assert normal_subgroups_up_to_index(g, max_index) == _normal_subgroups_by_filter(
                g, max_index
            ), (g.name, max_index)
    assert len(normal_subgroups_up_to_index(MANY_NORMAL_GROUPS[0], 16)) == 67


def test_normal_closures_are_least_normal_subgroups():
    # NC(x) is the intersection of the normal subgroups that contain x
    for g in _small_groups() + MANY_NORMAL_GROUPS:
        normal = [s.elements for s in _normal_subgroups_by_filter(g, g.order)]
        closures = _normal_closures(g)
        for x in range(g.order):
            least = (1 << g.order) - 1
            for mask in normal:
                if (mask >> x) & 1:
                    least &= mask
            assert mask_of(closures[x]) == least, (g.name, x)


def test_translate_relation_matches_definition_on_random_subsets():
    rng = random.Random(11)
    groups = [cyclic_group(1), cyclic_group(7), dihedral_group(5), MANY_NORMAL_GROUPS[4]]
    groups += [build() for build, _ in BENCHMARK_GROUPS]
    for g in groups:
        for _ in range(6):
            a_mask = rng.getrandbits(g.order)
            rel = translate_relation(g, a_mask)
            assert (rel.nv, rel.nw) == (g.order, g.order)
            for x in range(g.order):
                assert rel.rows[x] == mask_of(
                    y for y in range(g.order) if (a_mask >> g.mul(x, y)) & 1
                ), (g.name, a_mask, x)


def test_translate_relation_rejects_out_of_range_subsets():
    groups = [cyclic_group(1), cyclic_group(7), dihedral_group(5), MANY_NORMAL_GROUPS[4]]
    groups += [build() for build, _ in BENCHMARK_GROUPS]
    for g in groups:
        with pytest.raises(InputError):
            translate_relation(g, 1 << g.order)


def test_group_table_checks_fire_in_order():
    # each table passes every check before the one it fails, so the message
    # names that check; cells beyond the machine integers are out of range
    tables = [
        ([[0, 1], [1, 2**70]], "Cayley table must be n x n over 0..n-1"),
        ([[0, 1], [1, -(2**70)]], "Cayley table must be n x n over 0..n-1"),
        ([[0, 1], [True, 0]], "Cayley table must be n x n over 0..n-1"),
        ([[0, 1], [1, 2]], "Cayley table must be n x n over 0..n-1"),
        ([[1, 0], [1, 0]], "Cayley table has no identity element"),
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "Cayley table is not associative"),
        ([[0, 1, 2], [1, 1, 1], [2, 1, 2]], "element 1 has no inverse"),
    ]
    for table, message in tables:
        with pytest.raises(InputError) as info:
            FiniteGroup(table)
        assert str(info.value) == message, table
    g = FiniteGroup([[1, 0], [0, 1]])  # Z2 with the identity at 1
    assert (g.identity, g.inverses) == (1, (0, 1))


def test_failing_coset_choice_matches_fraction_margin():
    # the choice as first written: fewest failing cosets, then the largest
    # least distance of a coset fraction into a band, then scan order
    rng = random.Random(20261022)
    groups = [cyclic_group(12), dihedral_group(6), direct_product(cyclic_group(2), cyclic_group(8))]
    groups += [dihedral_group(5), cyclic_group(30)]
    sigmas = [ErrorFunction.parse(s) for s in ("1/4", "inverse(1/2)", "table(1/3,1/5,1/8)")]
    failing = 0
    for _ in range(300):
        g = rng.choice(groups)
        a_mask = rng.randrange(1 << g.order)
        sigma = rng.choice(sigmas)
        max_index = rng.randint(2, 4)
        report, certified = coset_regularity(g, a_mask, sigma, max_index)
        if certified:
            continue
        failing += 1
        best, best_key = None, None
        for sub in normal_subgroups_up_to_index(g, max_index):
            rows = coset_report(g, a_mask, sub, sigma).cosets
            gamma = sigma(sub.index)
            fails = sum(1 for row in rows if row.verdict == "fail")
            worst = min(max(gamma - row.fraction, row.fraction - (1 - gamma)) for row in rows)
            if best_key is None or (fails, -worst) < best_key:
                best, best_key = sub, (fails, -worst)
        assert report.subgroup == best
    assert failing >= 100
