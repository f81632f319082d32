"""Reference implementations that tests compare the library against.

Each one is the literal definition of its notion, written for tiny inputs
and for clarity rather than speed.
"""

from itertools import product

from stablereg.graphs import bits, mask_of
from stablereg.groups import FiniteGroup
from stablereg.stability import Relation


def ladder_exists_naive(rel: Relation, k: int, distinct: bool = False) -> bool:
    """Literal enumeration of all (v-tuple, w-tuple) pairs; tiny inputs only."""
    for vs in product(range(rel.nv), repeat=k):
        for ws in product(range(rel.nw), repeat=k):
            if distinct and len(set(vs) | set(ws)) != 2 * k:
                continue
            if all(
                bool((rel.rows[v] >> w) & 1) == (i <= j)
                for i, v in enumerate(vs)
                for j, w in enumerate(ws)
            ):
                return True
    return False


def is_normal(g: FiniteGroup, h_mask: int) -> bool:
    """sHs^-1 within H for each generator s of G; exact, since conjugation
    by a product of generators is a composite of those conjugations."""
    elems = list(bits(h_mask))
    for s in g.generators:
        row, si = g.table[s], g.inv(s)
        for h in elems:
            if not (h_mask >> g.table[row[h]][si]) & 1:
                return False
    return True


def membership_relation(g: FiniteGroup, a_mask: int) -> Relation:
    """Two-sided relation R(x, y) <=> x in yA, i.e. inv(y)*x in A."""
    n = g.order
    rows = tuple(
        mask_of(y for y in range(n) if (a_mask >> g.mul(g.inv(y), x)) & 1) for x in range(n)
    )
    return Relation(n, n, rows)
