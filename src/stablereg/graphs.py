"""Immutable finite graphs over vertices 0..n-1 with bitmask adjacency rows.

Vertex sets are plain ints used as bitmasks (bit v set <=> vertex v in the
set), so set algebra is &, |, ~ plus `int.bit_count`. Edge densities are
exact `Fraction`s; all threshold comparisons elsewhere in the package stay
in integer/rational arithmetic, never floats.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .errors import CapacityError, InputError
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
        # X >> n is nonzero exactly when X & ~full_mask is, negative X included
        if X >> self.n:
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
        return Graph(len(verts), tuple(rows))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        fault = _edge_fault(u, v, n)
        if fault:
            raise InputError(fault)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _edge_fault(u: int, v: int, n: int) -> str | None:
    """The message for an edge that is a self-loop or leaves 0..n-1."""
    if u == v:
        return f"self-loop {u} {u} rejected"
    if not (0 <= u < n and 0 <= v < n):
        return f"edge {u} {v} out of range for n={n}"
    return None


def _check_order(n: int) -> None:
    """Refuse a graph past the vertex bound before anything is allocated."""
    if n > config.VERTEX_BOUND:
        raise CapacityError(f"graph has {n} vertices; bound is n <= {config.VERTEX_BOUND}")


# ---------------------------------------------------------------------------
# Graph families


def empty_graph(n: int) -> Graph:
    _positive(n, "empty")
    _check_order(n)
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    _positive(n, "complete")
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def half_graph(k: int) -> Graph:
    """2k vertices a_1..a_k (0..k-1) and b_1..b_k (k..2k-1); a_i ~ b_j iff i <= j."""
    _positive(k, "half_graph")
    _check_order(2 * k)
    rows = [0] * (2 * k)
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            rows[i - 1] |= 1 << (k + j - 1)
            rows[k + j - 1] |= 1 << (i - 1)
    return Graph(2 * k, tuple(rows))


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
#
# The format is defined line by line: the non-empty lines of
# `text.splitlines()` after `strip()`, each `split()` into tokens that
# `int()` reads. The header line is read that way. The body is read by one
# numpy kernel in chunks of about 128 KiB, each cut just after a line break;
# a cut can only split a "\r\n" pair, which adds a blank line, and blank
# lines are dropped. Per chunk, byte tables over ASCII built from
# `str.isspace` and `str.splitlines` mark whitespace and line breaks; token
# starts, placed among the breaks by `searchsorted`, give each line's token
# count. A line of two tokens of at most 18 ASCII digits is plain:
# `np.fromstring(sep=" ")` reads such tokens as `int()` does, within int64,
# and plain lines are checked for self-loops and range as whole arrays. Any
# other non-empty line (a sign, an underscore, a long or foreign token, a
# wrong token count) and any faulty plain line goes through the one-line
# check `_edge`, which reads it as `int()` would or words the error of the
# first failing line. Non-ASCII text is first mapped one character to one
# onto what `split()`, `splitlines()` and `int()` see, so offsets still
# name the original lines. Scratch is O(chunk) arrays plus the
# n x ceil(n/8) packed adjacency: O(chunk + n^2/8) bytes.

# Chunk size in characters. A chunk's arrays take about 20 bytes per
# character: 128 KiB keeps them near 2.5 MiB and in cache, where 1 MiB
# chunks add some 20 MiB of peak RSS and run no faster.
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
_DIGIT, _OTHER, _SPACE, _BREAK = range(4)  # whitespace is code >= _SPACE
_CLASS = bytes(
    _BREAK if ch in _BREAKS else _SPACE if ch in _SPACES else _DIGIT if ch.isdigit() else _OTHER
    for ch in _ASCII
).ljust(256, bytes([_OTHER]))
_SPACED = bytes(ord(" ") if ch in _SPACES else ord(ch) for ch in _ASCII).ljust(256, b"?")


def parse_edge_list(text: str) -> Graph:
    seen = _ascii_image(text)
    first = _NON_SPACE.search(seen)
    if first is None:
        raise InputError("empty edge-list input")
    stop = _line_end(seen, first.start())
    head = text[first.start() : stop].split()
    if len(head) != 2:
        raise InputError('edge-list header must be "n <count>"')
    try:
        n, count = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError("edge-list header must contain two integers") from exc
    if n <= 0:
        raise InputError("vertex count must be positive")
    _check_order(n)
    adj = np.zeros((n, (n + 7) // 8), dtype=np.uint8)  # bit v of row u at byte v // 8
    lines = 0
    bad_line = None
    while stop < len(seen):
        start, stop = stop, _line_end(seen, stop + _CHUNK)
        found, bad = _read_chunk(seen, text, start, stop, n, adj if bad_line is None else None)
        lines += found
        bad_line = bad_line or bad
    if count != lines:
        raise InputError(f"header announces {count} edges, found {lines}")
    if bad_line is not None:
        _edge(bad_line, n)  # raises: the first line that failed it
    # `_or_edges` wrote both directions of every edge, and the checks above
    # rejected self-loops and ends outside 0..n-1, so the rows are valid by
    # construction and skip the transpose of `Graph.__post_init__`.
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", tuple(int.from_bytes(row, "little") for row in adj))
    return g


def _read_chunk(
    seen: str, text: str, start: int, stop: int, n: int, adj: np.ndarray | None
) -> tuple[int, str | None]:
    """Non-empty line count of text[start:stop] and its first bad line.

    The chunk's edges are ORed into `adj`, unless it is None (an earlier bad
    line already decides the result) or the chunk has a bad line.
    """
    raw = seen[start:stop].encode("ascii")
    codes = np.frombuffer(raw.translate(_CLASS), dtype=np.uint8)
    breaks = np.flatnonzero(codes == _BREAK)
    solid = np.zeros(len(raw) + 2, dtype=bool)
    solid[1:-1] = codes < _SPACE
    starts, ends = np.flatnonzero(solid[1:] != solid[:-1]).reshape(-1, 2).T
    # Line L is raw[bounds[L] + 1 : bounds[L + 1]]; no token starts at a bound.
    bounds = np.concatenate(([-1], breaks, [len(raw)]))
    tokens = np.diff(np.searchsorted(starts, bounds))
    live = np.flatnonzero(tokens)
    if adj is None:
        return len(live), None

    odd = np.zeros(len(tokens), dtype=bool)
    odd[np.searchsorted(breaks, np.flatnonzero(codes == _OTHER))] = True
    odd[np.searchsorted(breaks, starts[ends - starts > _PLAIN_DIGITS])] = True
    plain = (tokens == 2) & ~odd
    digits = np.frombuffer(raw.translate(_SPACED), dtype=np.uint8)
    blank = np.repeat(~plain, tokens)  # per token: its line is not plain
    if blank.any():  # leave only the plain lines' tokens to fromstring
        digits = digits.copy()
        fill = np.zeros(len(raw) + 1, dtype=np.int8)
        fill[starts[blank]] = 1
        fill[ends[blank]] = -1
        digits[np.cumsum(fill[:-1], dtype=np.int8).view(bool)] = ord(" ")
    values = np.fromstring(digits, dtype=np.int64, sep=" ")

    plain = plain[live]
    u = np.zeros(len(live), dtype=np.int64)
    v = np.zeros(len(live), dtype=np.int64)
    u[plain], v[plain] = values[0::2], values[1::2]
    for i in np.flatnonzero(~plain | _edge_faults(u, v, n)):
        at = live[i]
        line = text[start + bounds[at] + 1 : start + bounds[at + 1]].strip()
        try:
            u[i], v[i] = _edge(line, n)
        except InputError:
            return len(live), line
    _or_edges(adj, u, v)
    return len(live), None


def _edge_faults(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Array form of `_edge_fault`: True where the edge has a message."""
    return (u == v) | (u < 0) | (v < 0) | (u >= n) | (v >= n)


def _or_edges(adj: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """OR both directions of every edge (u[i], v[i]) into `adj`."""
    stride = adj.shape[1]
    cells = np.concatenate((u * stride + (v >> 3), v * stride + (u >> 3)))
    masks = np.left_shift(1, np.concatenate((v & 7, u & 7))).astype(np.uint8)
    np.bitwise_or.at(adj.reshape(-1), cells, masks)


def _line_end(seen: str, pos: int) -> int:
    """Offset just past the first line break at or after pos, else len(seen)."""
    found = _LINE_BREAK.search(seen, pos)
    return found.end() if found else len(seen)


def _ascii_image(text: str) -> str:
    """`text` with each non-ASCII character replaced by an ASCII one that
    `split()`, `splitlines()` and `int()` treat alike: a line break, a
    space, the value of a Unicode decimal digit, or "?" for anything else."""
    if text.isascii():
        return text
    return text.translate({ord(ch): _ascii_stand_in(ch) for ch in set(text) if not ch.isascii()})


def _ascii_stand_in(ch: str) -> str:
    if ch.splitlines() == [""]:
        return "\n"
    if ch.isspace():
        return " "
    if ch.isdecimal():
        return str(int(ch))
    return "?"


def _edge(line: str, n: int) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise InputError(f"bad edge line: {line!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"bad edge line: {line!r}") from exc
    fault = _edge_fault(u, v, n)
    if fault:
        raise InputError(fault)
    return u, v


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
