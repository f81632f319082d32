"""Finite groups by Cayley table: subgroup enumeration and coset regularity.

A subset A of a group G is analyzed through the two-sided relation
R(x, y) <=> x*y in A. The coset scanner looks for a normal subgroup H such
that every coset gH is almost contained in or almost disjoint from A at a
threshold sigma(index) re-evaluated per candidate; coset partitions carry
no exceptional block.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import config
from .errors import CapacityError, InputError
from .graphs import bits, mask_of
from .pairs import BANDS, band, cutoffs, margin
from .partitions import ErrorFunction
from .stability import Relation

# numpy is imported where a table is validated or gathered, as in `graphs`


def _close(rows: tuple[tuple[int, ...], ...], mask: int, gens: tuple[int, ...], x: int) -> int:
    """The least superset of mask closed under right multiplication by gens
    and x, for a mask already closed under gens: breadth-first search in
    which the old elements need only x and the new ones every generator.
    O(|result| * |gens|).
    """
    todo = []
    for a in bits(mask):
        b = rows[a][x]
        if not (mask >> b) & 1:
            mask |= 1 << b
            todo.append(b)
    gens += (x,)
    while todo:
        row = rows[todo.pop()]
        for s in gens:
            b = row[s]
            if not (mask >> b) & 1:
                mask |= 1 << b
                todo.append(b)
    return mask


def _generating_set(rows: tuple[tuple[int, ...], ...], identity: int) -> tuple[int, ...]:
    """Greedy generators: add each element not yet reached from the identity
    by right multiplication with the generators so far.

    Every element ends up a left-bracketed product of generators, so they
    generate the table as a magma, which is all Light's test needs.
    """
    gens: tuple[int, ...] = ()
    reached = 1 << identity
    for x in range(len(rows)):
        if not (reached >> x) & 1:
            reached = _close(rows, reached, gens, x)
            gens += (x,)
    return gens


class FiniteGroup:
    """Group on elements 0..n-1 given by its Cayley table, a sequence of n
    rows of n Python ints; `cells` holds the same table as an n x n numpy
    array.

    The axioms are verified exactly on construction, at any order.
    Associativity is Light's test: (x*s)*y == x*(s*y) for all x, y and every
    s in a generating set, O(n^2 |gens|). It is exact for any magma because
    the elements s passing it are closed under the product: if s and t pass,
    (x(st))y = ((xs)t)y = (xs)(ty) = x(s(ty)) = x((st)y).
    """

    __slots__ = ("order", "table", "cells", "identity", "inverses", "generators", "name")

    def __init__(self, table: list[list[int]] | tuple[tuple[int, ...], ...], name: str = ""):
        n = len(table)
        if n == 0:
            raise InputError("group must be nonempty")
        malformed = "Cayley table must be n x n over 0..n-1"
        if any(not isinstance(row, Sequence) or len(row) != n for row in table):
            raise InputError(malformed)
        # one C-level type test for every cell: bool is an int subclass that
        # numpy would read as 0 or 1, so JSON true and false are rejected here
        if set(map(type, chain.from_iterable(table))) != {int}:
            raise InputError(malformed)
        rows = tuple(tuple(row) for row in table)
        import numpy as np

        try:
            arr = self.cells = np.array(rows, dtype=np.intp)
        except OverflowError:  # a cell beyond the machine integers
            raise InputError(malformed) from None
        if arr.min() < 0 or arr.max() >= n:
            raise InputError(malformed)
        self.order = n
        self.table = rows
        self.name = name
        span = np.arange(n)
        units = np.flatnonzero((arr == span).all(axis=1) & (arr == span[:, None]).all(axis=0))
        if len(units) == 0:
            raise InputError("Cayley table has no identity element")
        identity = self.identity = int(units[0])
        self.generators = _generating_set(rows, identity)
        for s in self.generators:
            if not np.array_equal(arr[arr[:, s], :], arr[:, arr[s, :]]):
                raise InputError("Cayley table is not associative")
        unit = arr == identity
        inverse_of = unit & unit.T  # a*b and b*a both the identity
        missing = np.flatnonzero(~inverse_of.any(axis=1))
        if len(missing):
            raise InputError(f"element {missing[0]} has no inverse")
        self.inverses = tuple(inverse_of.argmax(axis=1).tolist())

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]


def cyclic_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise InputError("cyclic group order must be positive")
    return FiniteGroup(
        [[(i + j) % n for j in range(n)] for i in range(n)], name=f"Z{n}"
    )


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; element r^i s^j is 2i + j."""
    if n <= 0:
        raise InputError("dihedral parameter must be positive")
    size = 2 * n

    def compose(a: int, b: int) -> int:
        i, s = divmod(a, 2)
        j, t = divmod(b, 2)
        # (r^i s^s)(r^j s^t): s r^j = r^{-j} s
        rot = (i + (j if s == 0 else -j)) % n
        return 2 * rot + (s ^ t)

    return FiniteGroup(
        [[compose(a, b) for b in range(size)] for a in range(size)], name=f"D{n}"
    )


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order

    def code(x: int, y: int) -> int:
        return x * nb + y

    table = [
        [
            code(a.table[x1][x2], b.table[y1][y2])
            for x2 in range(na)
            for y2 in range(nb)
        ]
        for x1 in range(na)
        for y1 in range(nb)
    ]
    return FiniteGroup(table, name=f"{a.name or 'G'}x{b.name or 'H'}")


def group_from_json(data: dict) -> FiniteGroup:
    try:
        order = data["order"]
        table = list(data["table"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed group JSON: {exc}") from exc
    if type(order) is not int:
        raise InputError("group JSON order must be an integer")
    if len(table) != order:
        raise InputError("group JSON order does not match table size")
    return FiniteGroup(table, name=str(data.get("name", "")))


def group_to_json(g: FiniteGroup) -> dict:
    out = {"order": g.order, "table": [list(row) for row in g.table]}
    if g.name:
        out["name"] = g.name
    return out


# ---------------------------------------------------------------------------
# Subgroups


@dataclass(frozen=True)
class Subgroup:
    elements: int
    index: int

    @property
    def order(self) -> int:
        return self.elements.bit_count()


def all_subgroups(g: FiniteGroup) -> list[int]:
    """Every subgroup as an element mask, sorted, by extending each subgroup
    H with one element breadth-first from the trivial one.

    <H, x> depends only on the left coset xH, since <H, x> = <H, xh>, so one
    x per coset outside H is tried: n/|H| - 1 closures per subgroup. Each
    subgroup keeps the generating tuple it was found with (its parent's plus
    x), and <H, x> is the closure of H under right multiplication by that
    tuple, since positive words suffice in a finite group.
    """

    def closure_joins(h: int, gens: tuple[int, ...], reps: list[int], _coset_of: list[int]):
        for x in reps:
            yield _close(g.table, h, gens, x), gens + (x,)

    return _subgroup_walk(g, closure_joins)


def _check_order_bound(order: int) -> None:
    bound = config.capacity_bound("group")
    if order > bound:
        raise CapacityError(f"subgroup enumeration bound is order <= {bound}")


def _subgroup_walk(g: FiniteGroup, joins) -> list[int]:
    """The sorted masks reached from the trivial subgroup by the joins of
    each subgroup H found.

    joins(H, data, reps, coset_of) gets the data H was found with, the least
    member x of each left coset xH outside H, and the mask of the left coset
    of every element (0 on H); it yields (join of H with x, data of the
    join) for each x. A subgroup keeps the data it was first found with.
    """
    _check_order_bound(g.order)
    trivial = 1 << g.identity
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for h in frontier:
            h_elems = list(bits(h))
            coset_of = [0] * g.order
            reps = []
            for x in range(g.order):
                if coset_of[x] or (h >> x) & 1:
                    continue
                row = g.table[x]
                members = [row[a] for a in h_elems]
                coset = mask_of(members)
                for y in members:
                    coset_of[y] = coset
                reps.append(x)
            for k, data in joins(h, found[h], reps, coset_of):
                if k not in found:
                    found[k] = data
                    nxt.append(k)
        frontier = nxt
    return sorted(found)


def _normal_closures(g: FiniteGroup) -> list[tuple[int, ...]]:
    """NC(x), the subgroup generated by the conjugacy class of x, for each
    element x, as its ascending members.

    The class of x is x's orbit under conjugation by the generators. That is
    exact, since conjugation by a product of generators is a composite of
    those conjugations. NC(x) is the orbit's closure from the identity. It
    is computed once per class: a class of x^j with gcd(j, ord x) = 1 shares
    NC(x), since x^j generates <x>.
    """
    n, rows = g.order, g.table
    closures: list[tuple[int, ...]] = [()] * n
    for x in range(n):
        if closures[x]:
            continue
        orbit, todo = 1 << x, [x]
        while todo:
            y = todo.pop()
            for s in g.generators:
                z = rows[rows[s][y]][g.inv(s)]
                if not (orbit >> z) & 1:
                    orbit |= 1 << z
                    todo.append(z)
        mask, gens = 1 << g.identity, ()
        for y in bits(orbit):
            if not (mask >> y) & 1:
                mask = _close(rows, mask, gens, y)
                gens += (y,)
        members = tuple(bits(mask))
        for z in bits(orbit):
            powers, y = [z], rows[z][z]  # z, z^2, ..., z^ord(z) = identity
            while y != z:
                powers.append(y)
                y = rows[y][z]
            for j, y in enumerate(powers, 1):
                if math.gcd(j, len(powers)) == 1:
                    closures[y] = members
    return closures


def normal_subgroups_up_to_index(g: FiniteGroup, max_index: int) -> list[Subgroup]:
    """Normal subgroups of index at most max_index, ordered by increasing
    index then by element mask.

    The walk of all_subgroups, with another join: a normal H and x are
    joined into the least normal subgroup containing both, so only normal
    subgroups are visited, and each normal M is reached by adding the
    conjugacy classes of its elements one at a time. That join is the
    product H NC(x), NC(x) the subgroup generated by the class of x: a
    product of normal subgroups is a normal subgroup, and it lies in every
    normal subgroup containing H and x. It is the union of the cosets of H
    that meet NC(x), found by one coset lookup per member of NC(x) instead
    of a closure under multiplication. It depends only on the coset xH,
    since xh lies in H NC(x) and x in H NC(xh).
    """
    if max_index < 1:
        raise InputError("max_index must be at least 1")
    closures = _normal_closures(g)

    def product_joins(h: int, _data: tuple, reps: list[int], coset_of: list[int]):
        for x in reps:
            k = h
            for y in closures[x]:
                k |= coset_of[y]
            yield k, ()

    out = []
    for mask in _subgroup_walk(g, product_joins):
        order = mask.bit_count()
        if g.order % order:
            raise AssertionError("subgroup order must divide group order")
        index = g.order // order
        if index <= max_index:
            out.append(Subgroup(mask, index))
    out.sort(key=lambda s: (s.index, s.elements))
    return out


def left_cosets(g: FiniteGroup, h_mask: int) -> list[int]:
    """Left cosets gH in order of least representative."""
    seen = 0
    cosets = []
    for x in range(g.order):
        if (seen >> x) & 1:
            continue
        coset = mask_of(g.table[x][h] for h in bits(h_mask))
        cosets.append(coset)
        seen |= coset
    return cosets


# ---------------------------------------------------------------------------
# The translated relation and coset regularity


def translate_relation(g: FiniteGroup, a_mask: int) -> Relation:
    """Two-sided relation R(x, y) <=> x*y in A, for ladder analysis: A's
    membership bits gathered through the Cayley table, packed row by row."""
    import numpy as np

    n = g.order
    if a_mask & ~((1 << n) - 1):
        raise InputError("subset references elements out of range")
    nbytes = (n + 7) // 8
    member = np.unpackbits(
        np.frombuffer(a_mask.to_bytes(nbytes, "little"), np.uint8), count=n, bitorder="little"
    )
    raw = np.packbits(member[g.cells], axis=1, bitorder="little").tobytes()
    rows = tuple(int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, n * nbytes, nbytes))
    return Relation(n, n, rows)


@dataclass(frozen=True)
class CosetRow:
    representative: int
    elements: int
    fraction: Fraction
    verdict: str  # low | high | fail


@dataclass(frozen=True)
class CosetReport:
    subgroup: Subgroup
    sigma_value: Fraction
    cosets: tuple[CosetRow, ...]
    passed: bool

    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(row.fraction for row in self.cosets)


def coset_report(
    g: FiniteGroup, a_mask: int, subgroup: Subgroup, sigma: ErrorFunction
) -> CosetReport:
    gamma = sigma(subgroup.index)
    h_size = subgroup.order
    lo, hi = cutoffs(h_size, gamma)
    rows = []
    for coset in left_cosets(g, subgroup.elements):
        inter = (coset & a_mask).bit_count()
        rep = (coset & -coset).bit_length() - 1
        rows.append(CosetRow(rep, coset, Fraction(inter, h_size), BANDS[band(inter, lo, hi)]))
    return CosetReport(subgroup, gamma, tuple(rows), all(row.verdict != "fail" for row in rows))


def coset_regularity(
    g: FiniteGroup, a_mask: int, sigma: ErrorFunction, max_index: int
) -> tuple[CosetReport, bool]:
    """Scan normal subgroups by increasing index; return the first passing
    report, or the best failing one (fewest failing cosets, then largest
    `pairs.margin` of the coset counts, then scan order) flagged
    not-certified."""
    if a_mask & ~((1 << g.order) - 1):
        raise InputError("subset references elements out of range")
    candidates = normal_subgroups_up_to_index(g, max_index)
    best: CosetReport | None = None
    best_key: tuple | None = None
    for sub in candidates:
        report = coset_report(g, a_mask, sub, sigma)
        if report.passed:
            return report, True
        fails = sum(1 for row in report.cosets if row.verdict == "fail")
        counts = [(row.elements & a_mask).bit_count() for row in report.cosets]
        key = (fails, -margin(counts, sub.order, report.sigma_value))
        if best_key is None or key < best_key:
            best, best_key = report, key
    if best is None:
        raise InputError("no normal subgroup within the index bound")
    return best, False
