"""Ladder (half-graph order) detection and the ladder index.

A ladder of length k in a relation R <= A x B is a pair of tuples
v_1..v_k in A, w_1..w_k in B with R(v_i, w_j) <=> i <= j. Witness slots may
reuse elements across the two tuples (repetition within one tuple is
impossible: it forces R(v,w) and not R(v,w) simultaneously). A graph is
k-stable when it contains no ladder of length k.

Two deciders are kept deliberately separate:

* `find_ladder` / `find_relation_ladder`: depth-first search interleaving
  v_t, w_t picks with candidate bitmask filtering; returns the first witness
  in the (v_1, w_1, v_2, w_2, ...) ascending-vertex order.
* `ladder_exists_scan`: exhaustive scan over v-tuples only, with the w-side
  decided by closed-form mask intersections (the w_j choices are mutually
  independent once the v's are fixed). Used as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InputError
from .graphs import Graph, transpose


class Relation:
    """Finite relation R <= A x B; rows[a] is the bitmask of b with R(a, b).

    `cols[b]` is the bitmask of a with R(a, b), taken from
    `graphs.transpose`, the blocked bit-matrix kernel whose scratch space is
    O(256 * nw) bytes; `graph_relation` reuses a graph's rows instead.
    """

    __slots__ = ("nv", "nw", "rows", "cols")

    def __init__(self, nv: int, nw: int, rows: tuple[int, ...]):
        if nv <= 0 or nw <= 0:
            raise InputError("relation sides must be nonempty")
        if len(rows) != nv:
            raise InputError("row count does not match left side size")
        full = (1 << nw) - 1
        for a, row in enumerate(rows):
            if row & ~full:
                raise InputError(f"row {a} references parameters >= {nw}")
        self.nv = nv
        self.nw = nw
        self.rows = tuple(rows)
        self.cols = transpose(self.rows, nw)


def graph_relation(g: Graph) -> Relation:
    """The adjacency relation of g, whose columns are its rows.

    A `Graph` is validated symmetric, so its rows need neither the row check
    nor the transpose of `Relation.__init__`.
    """
    rel = object.__new__(Relation)
    rel.nv = rel.nw = g.n
    rel.rows = rel.cols = g.adj
    return rel


@dataclass(frozen=True)
class Ladder:
    vs: tuple[int, ...]
    ws: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.vs)

    def holds_in(self, rel: Relation) -> bool:
        return all(
            bool((rel.rows[v] >> w) & 1) == (i <= j)
            for i, v in enumerate(self.vs)
            for j, w in enumerate(self.ws)
        )


def find_relation_ladder(rel: Relation, k: int, distinct: bool = False) -> Ladder | None:
    """First length-k ladder in DFS order, or None.

    With `distinct=True` all 2k slots must name pairwise distinct elements;
    that variant only makes sense when both sides share a universe.

    The search below a state depends only on (depth, cand_v, cand_w, used),
    so refuted states are recorded and skipped when they recur.

    Two counts also cut branches. With d pairs placed and r = k - d still
    to place, v_{d+1} = v is skipped when its w-pool has fewer than r
    members: w_{d+1..k} are all adjacent to v and to every earlier v, and
    they are distinct (w_i = w_j with i < j would make R(v_j, w_i) both
    false and true). Then w_{d+1} = w is skipped when cand_v & ~cols[w] has
    fewer than r - 1 members, because v_{d+2..k} are distinct and none is
    adjacent to w. With `distinct=True` the true pools are smaller still,
    so both counts stay necessary.

    The memo and the counts skip only dead subtrees, so the DFS order and
    the first witness are those of the plain search.
    """
    if k < 1:
        raise InputError("ladder length must be at least 1")
    search = _LadderSearch(rel, k, distinct)
    if search.extend((1 << rel.nv) - 1, (1 << rel.nw) - 1, 0):
        return Ladder(tuple(search.vs), tuple(search.ws))
    return None


class _LadderSearch:
    """One DFS for find_relation_ladder. The recursion is a method rather
    than a self-referencing closure, so the memo of refuted states is freed
    by reference counting when the call returns."""

    __slots__ = ("rows", "cols", "k", "distinct", "vs", "ws", "dead")

    def __init__(self, rel: Relation, k: int, distinct: bool):
        self.rows = rel.rows
        self.cols = rel.cols
        self.k = k
        self.distinct = distinct
        self.vs: list[int] = []
        self.ws: list[int] = []
        self.dead: set[tuple[int, int, int, int]] = set()

    def extend(self, cand_v: int, cand_w: int, used: int) -> bool:
        # cand_v: non-adjacent to every chosen w; cand_w: adjacent to every chosen v.
        vs, ws, distinct = self.vs, self.ws, self.distinct
        rows, cols = self.rows, self.cols
        state = (len(vs), cand_v, cand_w, used)
        if state in self.dead:
            return False
        left = self.k - len(vs)  # pairs still to place, this one included
        pool_v = cand_v & ~used if distinct else cand_v
        while pool_v:
            v_bit = pool_v & -pool_v
            pool_v ^= v_bit
            v = v_bit.bit_length() - 1
            next_w = cand_w & rows[v]
            pool_w = next_w & ~(used | v_bit) if distinct else next_w
            if pool_w.bit_count() < left:
                continue
            vs.append(v)
            while pool_w:
                w_bit = pool_w & -pool_w
                pool_w ^= w_bit
                w = w_bit.bit_length() - 1
                if left == 1:
                    ws.append(w)
                    return True
                next_v = cand_v & ~cols[w]
                if next_v.bit_count() < left - 1:
                    continue
                ws.append(w)
                if self.extend(next_v, next_w, used | v_bit | w_bit if distinct else 0):
                    return True
                ws.pop()
            vs.pop()
        self.dead.add(state)
        return False


def ladder_exists_scan(rel: Relation, k: int) -> bool:
    """Exhaustive existence check over all v-tuples (the independent oracle).

    For a fixed v-tuple the admissible w_j form the mask
    W_j = AND_{i<=j} rows[v_i] & AND_{i>j} ~rows[v_i]; a ladder exists iff
    some v-tuple leaves every W_j nonempty. Prefixes are abandoned as soon
    as any W_j empties, which never skips a completable tuple because masks
    only shrink.
    """
    if k < 1:
        raise InputError("ladder length must be at least 1")
    full_w = (1 << rel.nw) - 1

    def rec(depth: int, wsets: list[int]) -> bool:
        if depth == k:
            return True
        for v in range(rel.nv):
            row = rel.rows[v]
            nrow = ~row & full_w
            nxt = []
            ok = True
            for j in range(k):
                m = wsets[j] & (row if j >= depth else nrow)
                if not m:
                    ok = False
                    break
                nxt.append(m)
            if ok and rec(depth + 1, nxt):
                return True
        return False

    return rec(0, [full_w] * k)


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


def relation_ladder_index(rel: Relation, cap: int, distinct: bool = False) -> int:
    """Largest k <= cap admitting a ladder (0 if none).

    Ladders truncate, so existence is monotone decreasing in k and a linear
    scan from below is exact.
    """
    return _index_and_ladder(rel, cap, distinct)[0]


def _index_and_ladder(rel: Relation, cap: int, distinct: bool) -> tuple[int, Ladder | None]:
    """The ladder index and the ladder found at it (None for index 0)."""
    if cap < 1:
        raise InputError("cap must be at least 1")
    index, ladder = 0, None
    for k in range(1, cap + 1):
        found = find_relation_ladder(rel, k, distinct=distinct)
        if found is None:
            break
        index, ladder = k, found
    return index, ladder


def find_ladder(g: Graph, k: int, distinct: bool = False) -> Ladder | None:
    return find_relation_ladder(graph_relation(g), k, distinct=distinct)


def ladder_index(g: Graph, cap: int, distinct: bool = False) -> int:
    return relation_ladder_index(graph_relation(g), cap, distinct=distinct)


def is_k_stable(g: Graph, k: int) -> bool:
    return find_ladder(g, k) is None
