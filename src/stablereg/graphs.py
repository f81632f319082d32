"""Immutable finite graphs over vertices 0..n-1 with bitmask adjacency rows.

Vertex sets are plain ints used as bitmasks (bit v set <=> vertex v in the
set), so set algebra is &, |, ~ plus `int.bit_count`. Edge densities are
exact `Fraction`s; all threshold comparisons elsewhere in the package stay
in integer/rational arithmetic, never floats.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .rng import derive_rng


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_list(mask: int) -> list[int]:
    return list(bits(mask))


# Rows per block; a multiple of 8, so blocks pack whole bytes. At n = 3000 a
# block of 256 rows peaks at 2.6 MiB of scratch, one of 1024 at 7.3 MiB, in
# the same time.
_TRANSPOSE_BLOCK = 256


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Columns of a bit matrix: bit a of column b is bit b of rows[a].

    Every row must lie in 0 .. 2**width - 1. Rows are unpacked to one byte
    per bit, transposed and packed again in blocks of 256 rows, so the
    scratch space is O(256 * width) bytes besides the packed result.
    """
    nbytes = (width + 7) // 8
    stride = (len(rows) + 7) // 8
    packed = np.zeros((width, stride), dtype=np.uint8)
    for start in range(0, len(rows), _TRANSPOSE_BLOCK):
        block = rows[start : start + _TRANSPOSE_BLOCK]
        raw = b"".join(row.to_bytes(nbytes, "little") for row in block)
        cells = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(len(block), nbytes),
            axis=1,
            count=width,
            bitorder="little",
        )
        packed[:, start // 8 : (start + len(block) + 7) // 8] = np.packbits(
            cells.T, axis=1, bitorder="little"
        )
    return tuple(int.from_bytes(packed[b].tobytes(), "little") for b in range(width))


@dataclass(frozen=True)
class Graph:
    """Undirected irreflexive graph; `adj[v]` is the neighborhood bitmask.

    Symmetry is checked against the columns from `transpose`, the blocked
    bit-matrix kernel (O(256 * n) bytes of scratch): the lowest bit of
    `adj[v] & ~column[v]` over the lowest such v is the reported edge.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise InputError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise InputError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise InputError(f"row {v} references vertices >= {self.n}")
            if (row >> v) & 1:
                raise InputError(f"self-loop at vertex {v}")
        for v, (row, col) in enumerate(zip(self.adj, transpose(self.adj, self.n))):
            stray = row & ~col
            if stray:
                w = (stray & -stray).bit_length() - 1
                raise InputError(f"asymmetric edge {v}-{w}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for d in bits(row):
                out.append((u, u + 1 + d))
        return out

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range 0..{self.n - 1}")

    def _check_set(self, X: int) -> None:
        if X & ~self.full_mask:
            raise InputError("vertex set references vertices out of range")

    def neighborhood(self, X: int, b: int) -> int:
        """Members of X adjacent to b."""
        self._check_vertex(b)
        self._check_set(X)
        return X & self.adj[b]

    def co_neighborhood(self, X: int, b: int) -> int:
        """Members of X not adjacent to b (b itself included when in X)."""
        self._check_vertex(b)
        self._check_set(X)
        return X & ~self.adj[b]

    def density(self, X: int, Y: int) -> Fraction:
        """Fraction of ordered pairs in X x Y that are edges; X, Y may overlap."""
        num, den = self.density_pair(X, Y)
        return Fraction(num, den)

    def density_pair(self, X: int, Y: int) -> tuple[int, int]:
        """(edge pair count, |X||Y|) without reducing; cheaper than Fraction."""
        self._check_set(X)
        self._check_set(Y)
        if X == 0 or Y == 0:
            raise InputError("density is undefined for an empty side")
        count = 0
        for a in bits(X):
            count += (self.adj[a] & Y).bit_count()
        return count, X.bit_count() * Y.bit_count()

    def induced(self, X: int) -> "Graph":
        """Induced subgraph on X, relabeled to 0..|X|-1 in ascending order."""
        self._check_set(X)
        verts = vertex_list(X)
        if not verts:
            raise InputError("induced subgraph needs at least one vertex")
        index = {v: i for i, v in enumerate(verts)}
        rows = []
        for v in verts:
            rows.append(mask_of(index[w] for w in bits(self.adj[v] & X)))
        return Graph(len(verts), tuple(rows))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop {u} {u} rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge {u} {v} out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Graph families


def empty_graph(n: int) -> Graph:
    _positive(n, "empty")
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    _positive(n, "complete")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def half_graph(k: int) -> Graph:
    """2k vertices a_1..a_k (0..k-1) and b_1..b_k (k..2k-1); a_i ~ b_j iff i <= j."""
    _positive(k, "half_graph")
    rows = [0] * (2 * k)
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            rows[i - 1] |= 1 << (k + j - 1)
            rows[k + j - 1] |= 1 << (i - 1)
    return Graph(2 * k, tuple(rows))


def matching_graph(m: int) -> Graph:
    _positive(m, "matching")
    return from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def clique_union(sizes: Iterable[int]) -> Graph:
    sizes = list(sizes)
    if not sizes:
        raise InputError("clique_union needs at least one clique")
    for s in sizes:
        _positive(s, "clique_union")
    n = sum(sizes)
    rows = [0] * n
    start = 0
    for s in sizes:
        block = ((1 << s) - 1) << start
        for v in range(start, start + s):
            rows[v] = block ^ (1 << v)
        start += s
    return Graph(n, tuple(rows))


def perturb(base: Graph, flip_count: int, seed: int) -> Graph:
    """Flip exactly `flip_count` distinct non-loop pairs chosen by the seed."""
    total = base.n * (base.n - 1) // 2
    if flip_count < 0 or flip_count > total:
        raise InputError(f"flip_count must be in 0..{total}")
    rng = derive_rng(seed, "graph.perturb")
    picks = sorted(rng.sample(range(total), flip_count))
    rows = list(base.adj)
    for idx in picks:
        u, v = _pair_from_index(base.n, idx)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph(base.n, tuple(rows))


def _pair_from_index(n: int, idx: int) -> tuple[int, int]:
    # Lexicographic rank over pairs (u, v), u < v.
    u = 0
    remaining = idx
    while remaining >= n - 1 - u:
        remaining -= n - 1 - u
        u += 1
    return u, u + 1 + remaining


def _positive(value: int, name: str) -> None:
    if value <= 0:
        raise InputError(f"{name} requires a positive size, got {value}")


# ---------------------------------------------------------------------------
# Family expressions, e.g. "half_graph(4)" or "perturb(clique_union(3,3),2,7)"

_SIMPLE_FAMILIES = {
    "empty": lambda args: empty_graph(*args),
    "complete": lambda args: complete_graph(*args),
    "half_graph": lambda args: half_graph(*args),
    "matching": lambda args: matching_graph(*args),
    "clique_union": lambda args: clique_union(args),
}


def parse_family(spec: str) -> Graph:
    """Build a graph from a family expression.

    Grammar: name(int,...) with one nesting level for
    perturb(<family expression>, flips, seed).
    """
    text = spec.replace(" ", "")
    graph, rest = _parse_expr(text)
    if rest:
        raise InputError(f"trailing characters in family spec: {rest!r}")
    return graph


def _parse_expr(text: str) -> tuple[Graph, str]:
    open_at = text.find("(")
    if open_at <= 0:
        raise InputError(f"bad family spec: {text!r}")
    name = text[:open_at]
    rest = text[open_at + 1 :]
    if name == "perturb":
        base, rest = _parse_expr(rest)
        if not rest.startswith(","):
            raise InputError("perturb needs (base, flips, seed)")
        args, rest = _parse_int_args(rest[1:])
        if len(args) != 2:
            raise InputError("perturb needs exactly flips and seed")
        return perturb(base, args[0], args[1]), rest
    if name not in _SIMPLE_FAMILIES:
        raise InputError(f"unknown family {name!r}")
    args, rest = _parse_int_args(rest)
    if not args:
        raise InputError(f"family {name} needs arguments")
    try:
        return _SIMPLE_FAMILIES[name](args), rest
    except TypeError as exc:
        raise InputError(f"bad arguments for family {name}: {exc}") from exc


def _parse_int_args(text: str) -> tuple[list[int], str]:
    args: list[int] = []
    token = ""
    for pos, ch in enumerate(text):
        if ch.isdigit() or (ch == "-" and not token):
            token += ch
        elif ch == ",":
            args.append(_int_token(token))
            token = ""
        elif ch == ")":
            if token:
                args.append(_int_token(token))
            return args, text[pos + 1 :]
        else:
            raise InputError(f"unexpected character {ch!r} in family spec")
    raise InputError("unterminated family spec")


def _int_token(token: str) -> int:
    if not token:
        raise InputError("empty argument in family spec")
    try:
        return int(token)
    except ValueError as exc:
        raise InputError(f"bad integer {token!r} in family spec") from exc


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n <count>", then one "u v" line per edge.
# Duplicate and reversed pairs are idempotent; self-loops are rejected.


def parse_edge_list(text: str) -> Graph:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise InputError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError('edge-list header must be "n <count>"')
    try:
        n, count = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError("edge-list header must contain two integers") from exc
    if n <= 0:
        raise InputError("vertex count must be positive")
    if count != len(lines) - 1:
        raise InputError(f"header announces {count} edges, found {len(lines) - 1}")
    return from_edges(n, map(_edge, lines[1:]))


def _edge(line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise InputError(f"bad edge line: {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"bad edge line: {line!r}") from exc


def to_edge_list(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_vertex_set(spec: str, n: int) -> int:
    """Parse "0,2-4,7" into a bitmask, validating against vertex count n."""
    mask = 0
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise InputError(f"empty item in vertex set spec {spec!r}")
        if "-" in chunk:
            lo_s, _, hi_s = chunk.partition("-")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError as exc:
                raise InputError(f"bad range {chunk!r}") from exc
            if lo > hi:
                raise InputError(f"descending range {chunk!r}")
            items = range(lo, hi + 1)
        else:
            try:
                items = [int(chunk)]
            except ValueError as exc:
                raise InputError(f"bad vertex {chunk!r}") from exc
        for v in items:
            if not 0 <= v < n:
                raise InputError(f"vertex {v} out of range 0..{n - 1}")
            mask |= 1 << v
    return mask
