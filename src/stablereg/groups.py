"""Finite groups by Cayley table: subgroup enumeration and coset regularity.

A subset A of a group G is analyzed through the two-sided relation
R(x, y) <=> x*y in A. The coset scanner looks for a normal subgroup H such
that every coset gH is almost contained in or almost disjoint from A at a
threshold sigma(index) re-evaluated per candidate; coset partitions carry
no exceptional block.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .errors import CapacityError, InputError
from .graphs import bits, mask_of
from .pairs import cutoffs
from .partitions import ErrorFunction
from .stability import Relation


class FiniteGroup:
    """Group on elements 0..n-1 given by its Cayley table, a sequence of n
    rows of n Python ints.

    The axioms are verified on construction: exhaustively up to order 128,
    by seeded sampling above that.
    """

    __slots__ = ("order", "table", "identity", "inverses", "name")

    def __init__(self, table: list[list[int]] | tuple[tuple[int, ...], ...], name: str = ""):
        n = len(table)
        if n == 0:
            raise InputError("group must be nonempty")
        for row in table:
            if not isinstance(row, Sequence) or len(row) != n or any(
                type(x) is not int or not 0 <= x < n for x in row
            ):
                raise InputError("Cayley table must be n x n over 0..n-1")
        rows = tuple(tuple(row) for row in table)
        self.order = n
        self.table = rows
        self.name = name
        arr = np.array(rows, dtype=np.int64)
        if n <= 128:
            left = arr[arr, :]  # left[i,j,k] = T[T[i,j], k]
            right = arr[:, arr]  # right[i,j,k] = T[i, T[j,k]]
            if not np.array_equal(left, right):
                raise InputError("Cayley table is not associative")
        else:
            rng = np.random.default_rng(0)
            for _ in range(2000):
                i, j, k = rng.integers(0, n, size=3)
                if arr[arr[i, j], k] != arr[i, arr[j, k]]:
                    raise InputError("Cayley table is not associative")
        identity = None
        for e in range(n):
            if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise InputError("Cayley table has no identity element")
        self.identity = identity
        inverses = [-1] * n
        for a in range(n):
            for b in range(n):
                if rows[a][b] == identity and rows[b][a] == identity:
                    inverses[a] = b
                    break
            if inverses[a] < 0:
                raise InputError(f"element {a} has no inverse")
        self.inverses = tuple(inverses)

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
        order = int(data["order"])
        table = list(data["table"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed group JSON: {exc}") from exc
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
    normal: bool

    @property
    def order(self) -> int:
        return self.elements.bit_count()


def _closure(g: FiniteGroup, seed_mask: int) -> int:
    mask = seed_mask | (1 << g.identity)
    # a finite subset closed under the product is a subgroup
    while True:
        new = mask
        for a in bits(mask):
            row = g.table[a]
            for b in bits(mask):
                new |= 1 << row[b]
        if new == mask:
            return mask
        mask = new


def all_subgroups(g: FiniteGroup) -> list[int]:
    """Every subgroup, by closing single-element extensions breadth-first."""
    bound = config.capacity_bound("group")
    if g.order > bound:
        raise CapacityError(f"subgroup enumeration bound is order <= {bound}")
    trivial = 1 << g.identity
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for h in frontier:
            for x in range(g.order):
                if (h >> x) & 1:
                    continue
                k = _closure(g, h | (1 << x))
                if k not in seen:
                    seen.add(k)
                    nxt.append(k)
        frontier = nxt
    return sorted(seen)


def is_normal(g: FiniteGroup, h_mask: int) -> bool:
    for x in range(g.order):
        xi = g.inv(x)
        for h in bits(h_mask):
            if not (h_mask >> g.table[g.table[x][h]][xi]) & 1:
                return False
    return True


def normal_subgroups_up_to_index(g: FiniteGroup, max_index: int) -> list[Subgroup]:
    """Normal subgroups of index at most max_index, ordered by increasing
    index then by element mask."""
    if max_index < 1:
        raise InputError("max_index must be at least 1")
    out = []
    for mask in all_subgroups(g):
        order = mask.bit_count()
        if g.order % order:
            raise AssertionError("subgroup order must divide group order")
        index = g.order // order
        if index <= max_index and is_normal(g, mask):
            out.append(Subgroup(mask, index, True))
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
    """Two-sided relation R(x, y) <=> x*y in A, for ladder analysis."""
    if a_mask & ~((1 << g.order) - 1):
        raise InputError("subset references elements out of range")
    rows = tuple(
        mask_of(y for y in range(g.order) if (a_mask >> g.table[x][y]) & 1)
        for x in range(g.order)
    )
    return Relation(g.order, g.order, rows)


def membership_relation(g: FiniteGroup, a_mask: int) -> Relation:
    """Two-sided relation R(x, y) <=> x in yA, i.e. inv(y)*x in A."""
    rows = tuple(
        mask_of(y for y in range(g.order) if (a_mask >> g.table[g.inv(y)][x]) & 1)
        for x in range(g.order)
    )
    return Relation(g.order, g.order, rows)


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
    ok = True
    for coset in left_cosets(g, subgroup.elements):
        inter = (coset & a_mask).bit_count()
        if inter < lo:
            verdict = "low"
        elif inter > hi:
            verdict = "high"
        else:
            verdict = "fail"
            ok = False
        rep = (coset & -coset).bit_length() - 1
        rows.append(CosetRow(rep, coset, Fraction(inter, h_size), verdict))
    return CosetReport(subgroup, gamma, tuple(rows), ok)


def coset_regularity(
    g: FiniteGroup, a_mask: int, sigma: ErrorFunction, max_index: int
) -> tuple[CosetReport, bool]:
    """Scan normal subgroups by increasing index; return the first passing
    report, or the best failing one (fewest failing cosets, then largest
    minimum margin, then scan order) flagged not-certified."""
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
        margin = min(
            max(report.sigma_value - row.fraction, row.fraction - (1 - report.sigma_value))
            for row in report.cosets
        )
        key = (fails, -margin)
        if best_key is None or key < best_key:
            best, best_key = report, key
    if best is None:
        raise InputError("no normal subgroup within the index bound")
    return best, False
