"""Immutable finite graphs over vertices 0..n-1 with bitmask adjacency rows.

Vertex sets are plain ints used as bitmasks (bit v set <=> vertex v in the
set), so set algebra is &, |, ~ plus `int.bit_count`. Edge densities are
exact `Fraction`s; all threshold comparisons elsewhere in the package stay
in integer/rational arithmetic, never floats.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import config
from .errors import CapacityError, InputError
from .rng import derive_rng

# numpy is imported inside the kernels that use it, so a process that builds
# family graphs, small `Graph`s and `Relation`s or reads short edge lists,
# and runs the pure-Python layers on them, never loads it
if TYPE_CHECKING:
    import numpy as np


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


# Matrices of at most this many cells (rows x width) are transposed in pure
# Python, where square ones are faster than in the numpy kernel up to 32 x 32
# (best of 5-7 runs, numpy loaded: 8 x 8 in 6.5 us against 12 us, 32 x 32 in
# 35 us against 43 us). The two are level from 40 x 40 to 256 x 256
# (64 x 64: 99 us in Python against 89 us). The kernel is ahead above that
# and needs far less scratch, so both paths stay: at 900 x 900 it takes
# 3.3 ms against 4.2 ms, at 3000 x 3000 38 ms and 2.9 MiB against 84 ms and
# 17 MiB.
_PURE_TRANSPOSE_CELLS = 1024
# Rows per block; a multiple of 8, so blocks pack whole bytes. At n = 3000 a
# block of 256 rows peaks at 2.6 MiB of scratch, one of 1024 at 7.3 MiB, in
# the same time.
_TRANSPOSE_BLOCK = 256


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Columns of a bit matrix: bit a of column b is bit b of rows[a].

    Every row must lie in 0 .. 2**width - 1. Matrices of at most 1024 cells
    take `_columns_by_text` and never load numpy; larger ones take
    `_columns_by_blocks`, the numpy kernel.
    """
    if len(rows) * width <= _PURE_TRANSPOSE_CELLS:
        return _columns_by_text(rows, width)
    return _columns_by_blocks(rows, width)


def _columns_by_text(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Rows written as one binary string, last row first, so that every
    width-th character from offset width - 1 - b is column b, read from its
    highest bit down. The cost does not depend on how many bits are set."""
    fmt = f"0{width}b"
    text = "".join([format(row, fmt) for row in reversed(rows)])
    top = width - 1
    return tuple([int(text[top - b :: width] or "0", 2) for b in range(width)])


def _columns_by_blocks(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Rows unpacked to one byte per bit, transposed and packed again in
    blocks of 256 rows, so the scratch space is O(256 * width) bytes besides
    the packed result."""
    import numpy as np

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


def twin_classes(adj: Sequence[int]) -> tuple[int, ...]:
    """Per-vertex twin class masks of a symmetric irreflexive adjacency.

    Distinct u, v are twins when their rows agree everywhere off the two
    cells naming themselves. They are found by hashing rows, not comparing
    pairs: u, v are twins iff adj[u] == adj[v] (non-adjacent twins: the rows
    have no self cells, so equal rows leave u, v non-adjacent, and
    non-adjacent rows agreeing off {u, v} agree on u and v too) or
    adj[u] | 1<<u == adj[v] | 1<<v (adjacent twins: both closed rows hold u
    and v exactly when u and v are adjacent). No vertex has twins of both
    kinds: were v a non-adjacent and w an adjacent twin of u, then w would
    not see v (the rows of u and w agree at v, and u does not see v) while v
    would see w (the rows of u and v agree at w, and u sees w). So entry v
    is v's group of equal open rows if that group has a second member, and
    its group of equal closed rows otherwise; either way it holds v, and
    the entries partition the vertices.
    """
    open_rows: dict[int, int] = {}
    closed_rows: dict[int, int] = {}
    for v, row in enumerate(adj):
        bit = 1 << v
        open_rows[row] = open_rows.get(row, 0) | bit
        closed_rows[row | bit] = closed_rows.get(row | bit, 0) | bit
    classes = []
    for v, row in enumerate(adj):
        bit = 1 << v
        members = open_rows[row]
        if members == bit:
            members = closed_rows[row | bit]
        classes.append(members)
    return tuple(classes)


@dataclass(frozen=True)
class Graph:
    """Undirected irreflexive graph; `adj[v]` is the neighborhood bitmask.

    Symmetry is checked against the columns from `transpose`, which stays
    in pure Python up to 1024 cells (n <= 32) and runs the blocked numpy
    kernel (O(256 * n) bytes of scratch) above: the lowest bit of
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

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for d in bits(row):
                out.append((u, u + 1 + d))
        return out

    def _check_set(self, X: int) -> None:
        # X >> n is nonzero exactly when X & ~full_mask is, negative X included
        if X >> self.n:
            raise InputError("vertex set references vertices out of range")

    def density(self, X: int, Y: int) -> Fraction:
        """Fraction of ordered pairs in X x Y that are edges; X, Y may overlap."""
        num, den = self.density_pair(X, Y)
        return Fraction(num, den)

    def density_pair(self, X: int, Y: int) -> tuple[int, int]:
        """(edge pair count, |X||Y|) without reducing; cheaper than Fraction."""
        # the range check of `_check_set` on both sides at once
        if (X | Y) >> self.n:
            raise InputError("vertex set references vertices out of range")
        if X == 0 or Y == 0:
            raise InputError("density is undefined for an empty side")
        adj = self.adj
        size = X.bit_count()
        count = 0
        while X:
            bit = X & -X
            count += (adj[bit.bit_length() - 1] & Y).bit_count()
            X ^= bit
        return count, size * Y.bit_count()

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
        return _built(len(verts), rows)


def _built(n: int, rows: Iterable[int]) -> Graph:
    """A graph on n >= 1 rows that are in range, symmetric and loop-free by
    construction, without the transpose of `Graph`'s checks on outside rows."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", tuple(rows))
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if n <= 0:
        raise InputError("graph needs at least one vertex")
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop {u} {u} rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge {u} {v} out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _built(n, rows)


def _check_order(n: int) -> None:
    """Refuse a graph past the vertex bound before anything is allocated."""
    if n > config.VERTEX_BOUND:
        raise CapacityError(f"graph has {n} vertices; bound is n <= {config.VERTEX_BOUND}")


# ---------------------------------------------------------------------------
# Graph families


def empty_graph(n: int) -> Graph:
    _positive(n, "empty")
    _check_order(n)
    return _built(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    _positive(n, "complete")
    _check_order(n)
    full = (1 << n) - 1
    return _built(n, (full ^ (1 << v) for v in range(n)))


def half_graph(k: int) -> Graph:
    """2k vertices a_1..a_k (0..k-1) and b_1..b_k (k..2k-1); a_i ~ b_j iff i <= j."""
    _positive(k, "half_graph")
    _check_order(2 * k)
    rows = [0] * (2 * k)
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            rows[i - 1] |= 1 << (k + j - 1)
            rows[k + j - 1] |= 1 << (i - 1)
    return _built(2 * k, rows)


def matching_graph(m: int) -> Graph:
    _positive(m, "matching")
    _check_order(2 * m)
    return from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def clique_union(sizes: Iterable[int]) -> Graph:
    sizes = list(sizes)
    if not sizes:
        raise InputError("clique_union needs at least one clique")
    for s in sizes:
        _positive(s, "clique_union")
    n = sum(sizes)
    _check_order(n)
    rows = [0] * n
    start = 0
    for s in sizes:
        block = ((1 << s) - 1) << start
        for v in range(start, start + s):
            rows[v] = block ^ (1 << v)
        start += s
    return _built(n, rows)


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
    return _built(base.n, rows)


def _pair_from_index(n: int, idx: int) -> tuple[int, int]:
    """The pair (u, v), u < v, of lexicographic rank idx: reverse rank r lies
    in row t = n - 2 - u from the end, where t(t+1)/2 <= r < (t+1)(t+2)/2."""
    r = n * (n - 1) // 2 - 1 - idx
    u = n - 2 - (math.isqrt(8 * r + 1) - 1) // 2
    return u, idx - u * (2 * n - u - 1) // 2 + u + 1


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
#
# The format is defined by the line reader `_read_lines`: the non-empty lines
# of `text.splitlines()` after `strip()`, each `split()` into tokens that
# `int()` reads. It checks the header, then the edge count, then each edge in
# order through `from_edges`, so the first failing check words the error.
#
# While numpy is not loaded, text of at most 64 KiB goes straight to the line
# reader, so a fresh process reading a small file never loads numpy. Other
# ASCII text takes a faster path first. Its header line, up to the first line
# break after the first non-space character, goes through the same `_header`.
# The body is cut into chunks of about 128 KiB, each just after a line break;
# a cut can only split a "\r\n" pair, which adds a blank line, and blank lines
# are dropped. One numpy kernel, `_plain_edges`, takes a chunk only when every
# non-empty line in it is two tokens of at most 18 ASCII digits naming an
# in-range edge that is not a self-loop; `np.fromstring` reads such tokens as
# `int()` does, within int64. Non-ASCII text, any other chunk and a wrong edge
# count send the whole text to the line reader, which returns its graph or
# its error. Edge lists as `to_edge_list` writes them never leave the kernel
# once it is taken.
# Its scratch is O(chunk) arrays plus the n x ceil(n/8) packed adjacency.

# Texts of at most this many characters go to the line reader while numpy is
# not loaded. There the kernel's cost is numpy's import, about 60 ms, and the
# line reader's is about 0.1 us a character against the kernel's 0.02 us
# (55 KB: 5.7 ms against 1.1 ms, numpy loaded). In fresh processes, median of
# 11 runs, `types --input` took 93-107 ms on the line reader against
# 157-181 ms on the kernel for files of 45 B to 98 KB; when numpy is imported
# after the parse anyway, the line reader cost 0-6 ms more up to 98 KB, 17 ms
# at 209 KB and 36 ms at 376 KB. At 64 KiB that loss stays near 5 ms, a
# tenth of the import the line reader saves when nothing else needs numpy.
# Once numpy is loaded, every ASCII text tries the kernel first.
_LINE_READER_CHARS = 1 << 16
# Chunk size in characters. A chunk's arrays peak at about 13 bytes per
# character: 128 KiB keeps them near 1.7 MiB and in cache, and 1 MiB
# chunks run no faster.
_CHUNK = 1 << 17
# Longest digit run that int64 holds whatever the digits: 10**18 < 2**63.
_PLAIN_DIGITS = 18

_ASCII = [chr(b) for b in range(128)]
_BREAKS = "".join(ch for ch in _ASCII if ch.splitlines() == [""])
_SPACES = "".join(ch for ch in _ASCII if ch.isspace())
_LINE_BREAK = re.compile(f"[{re.escape(_BREAKS)}]")
_NON_SPACE = re.compile(f"[^{re.escape(_SPACES)}]")

# Byte tables for `bytes.translate`, which is about 6x faster than a numpy
# gather. It takes 256 entries; the text is ASCII, so only 128 are read.
_DIGIT, _OTHER, _SPACE, _BREAK = range(4)
_CLASS = bytes(
    _BREAK if ch in _BREAKS else _SPACE if ch in _SPACES else _DIGIT if ch.isdigit() else _OTHER
    for ch in _ASCII
).ljust(256, bytes([_OTHER]))
_SPACED = bytes.maketrans(_SPACES.encode(), b" " * len(_SPACES))


def parse_edge_list(text: str) -> Graph:
    short = len(text) <= _LINE_READER_CHARS and "numpy" not in sys.modules
    first = _NON_SPACE.search(text) if text.isascii() and not short else None
    if first is None:
        return _read_lines(text)
    stop = _line_end(text, first.start())
    n, count = _header(text[first.start() : stop])
    import numpy as np

    adj = np.zeros((n, (n + 7) // 8), dtype=np.uint8)  # bit v of row u at byte v // 8
    lines = 0
    while stop < len(text):
        start, stop = stop, _line_end(text, stop + _CHUNK)
        edges = _plain_edges(text[start:stop].encode("ascii"), n)
        if edges is None:
            return _read_lines(text)
        _or_edges(adj, *edges)
        lines += len(edges[0])
    if count != lines:
        return _read_lines(text)
    # `_or_edges` wrote both directions of every edge, and `_plain_edges`
    # rejected self-loops and ends outside 0..n-1
    return _built(n, (int.from_bytes(row, "little") for row in adj))


def _plain_edges(raw: bytes, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Edge ends (u, v) of an ASCII chunk whose non-empty lines are all plain.

    A plain line is two tokens of at most 18 digits naming an edge of
    0..n-1 that is not a self-loop. Any other non-empty line gives None.
    """
    import numpy as np

    codes = np.frombuffer(raw.translate(_CLASS), dtype=np.uint8)
    if (codes == _OTHER).any():
        return None
    digit = np.zeros(len(raw) + 2, dtype=bool)
    digit[1:-1] = codes == _DIGIT
    starts, ends = np.flatnonzero(digit[1:] != digit[:-1]).reshape(-1, 2).T
    line = np.searchsorted(np.flatnonzero(codes == _BREAK), starts)  # per token
    # tokens 2i and 2i + 1 share a line, and that line holds no other token
    if (
        len(starts) % 2
        or (ends - starts > _PLAIN_DIGITS).any()
        or (line[0::2] != line[1::2]).any()
        or (line[2::2] == line[1:-1:2]).any()
    ):
        return None
    if not len(starts):  # np.fromstring would read a blank chunk as [0]
        return starts, starts
    values = np.fromstring(raw.translate(_SPACED), dtype=np.int64, sep=" ")
    u, v = values[0::2], values[1::2]
    if ((u == v) | (u >= n) | (v >= n)).any():
        return None
    return u, v


def _or_edges(adj: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """OR both directions of every edge (u[i], v[i]) into `adj`."""
    import numpy as np

    stride = adj.shape[1]
    cells = np.concatenate((u * stride + (v >> 3), v * stride + (u >> 3)))
    masks = np.left_shift(1, np.concatenate((v & 7, u & 7))).astype(np.uint8)
    np.bitwise_or.at(adj.reshape(-1), cells, masks)


def _line_end(text: str, pos: int) -> int:
    """Offset just past the first line break at or after pos, else len(text)."""
    found = _LINE_BREAK.search(text, pos)
    return found.end() if found else len(text)


def _read_lines(text: str) -> Graph:
    """The line reader that defines the format: a graph or the first error."""
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines:
        raise InputError("empty edge-list input")
    n, count = _header(lines[0])
    if count != len(lines) - 1:
        raise InputError(f"header announces {count} edges, found {len(lines) - 1}")
    return from_edges(n, map(_edge, lines[1:]))


def _header(line: str) -> tuple[int, int]:
    """(n, count) of the header line; n is held to the vertex bound."""
    head = line.split()
    if len(head) != 2:
        raise InputError('edge-list header must be "n <count>"')
    try:
        n, count = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError("edge-list header must contain two integers") from exc
    if n <= 0:
        raise InputError("vertex count must be positive")
    _check_order(n)
    return n, count


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
