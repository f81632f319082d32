import math
import random
import sys
from collections.abc import Iterable
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablereg import config
from stablereg import graphs as graphs_module
from stablereg.errors import CapacityError, InputError
from stablereg.graphs import (
    Graph,
    bits,
    clique_union,
    complete_graph,
    empty_graph,
    from_edges,
    half_graph,
    mask_of,
    matching_graph,
    parse_edge_list,
    parse_family,
    parse_vertex_set,
    perturb,
    to_edge_list,
    transpose,
)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    code = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    edges = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (code >> idx) & 1:
                edges.append((u, v))
            idx += 1
    return from_edges(n, edges)


def test_family_shapes():
    assert empty_graph(3).edges() == []
    assert complete_graph(4).edge_count() == 6
    assert half_graph(2).edges() == [(0, 2), (0, 3), (1, 3)]
    assert matching_graph(3).edges() == [(0, 1), (2, 3), (4, 5)]
    cu = clique_union([3, 2])
    assert cu.edges() == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_half_graph_rule():
    g = half_graph(4)
    for i in range(1, 5):
        for j in range(1, 5):
            assert ((g.adj[i - 1] >> (4 + j - 1)) & 1) == (i <= j)


def test_nonpositive_sizes_rejected():
    for build in (empty_graph, complete_graph, half_graph, matching_graph):
        with pytest.raises(InputError):
            build(0)
    with pytest.raises(InputError):
        clique_union([3, 0])


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(2, (0b10,) * 1)  # row count mismatch
    with pytest.raises(InputError):
        Graph(2, (0b01, 0b00))  # self-loop at 0
    with pytest.raises(InputError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(InputError):
        Graph(2, (0b100, 0b000))  # out of range


def test_density_examples():
    g = empty_graph(4)
    assert g.density(0b0011, 0b1100) == 0
    k4 = complete_graph(4)
    assert k4.density(0b0011, 0b1100) == 1
    assert k4.density(0b0011, 0b0011) == Fraction(1, 2)


def test_density_empty_side_rejected():
    g = empty_graph(3)
    with pytest.raises(InputError):
        g.density(0, 0b111)


@given(graphs())
@settings(max_examples=60)
def test_density_counts_ordered_pairs(g):
    X = Y = g.full_mask
    brute = sum(
        1 for a in range(g.n) for b in range(g.n) if (g.adj[a] >> b) & 1
    )
    d = g.density(X, Y)
    assert d * g.n * g.n == brute


def test_half_graph_contains_its_ladder():
    g = half_graph(5)
    for i in range(1, 6):
        for j in range(1, 6):
            assert ((g.adj[i - 1] >> (5 + j - 1)) & 1) == (i <= j)


def test_perturb_flip_count_and_determinism():
    base = empty_graph(8)
    g1 = perturb(base, 5, 99)
    g2 = perturb(base, 5, 99)
    assert g1 == g2
    assert g1.edge_count() == 5
    assert base.edge_count() == 0  # immutability: a new graph is returned
    again = perturb(g1, 5, 99)
    assert again == base  # flipping the same pairs twice undoes them


def test_perturb_bad_count():
    with pytest.raises(InputError):
        perturb(empty_graph(3), 4, 0)


def test_family_expressions():
    assert parse_family("half_graph(3)") == half_graph(3)
    assert parse_family("clique_union(3,3)") == clique_union([3, 3])
    assert parse_family("perturb(matching(4), 2, 7)") == perturb(matching_graph(4), 2, 7)
    for bad in ("nope(3)", "empty()", "empty(2)x", "perturb(empty(3),1)"):
        with pytest.raises(InputError):
            parse_family(bad)


def test_edge_list_round_trip():
    g = parse_family("perturb(half_graph(4),3,5)")
    assert parse_edge_list(to_edge_list(g)) == g


def test_edge_list_rejections():
    with pytest.raises(InputError):
        parse_edge_list("0 0\n")
    with pytest.raises(InputError):
        parse_edge_list("2 1\n0 0\n")
    with pytest.raises(InputError):
        parse_edge_list("2 2\n0 1\n")  # count mismatch
    with pytest.raises(InputError):
        parse_edge_list("2 1\n0 5\n")


def test_edge_list_idempotent_duplicates():
    g = parse_edge_list("3 3\n0 1\n1 0\n0 1\n")
    assert g.edges() == [(0, 1)]


def test_induced_subgraph():
    g = half_graph(3)
    sub = g.induced(mask_of([0, 1, 3]))  # a1, a2, b1
    assert sub.n == 3
    assert sub.edges() == [(0, 2)]  # only a1-b1 survives


def test_parse_vertex_set():
    assert parse_vertex_set("0,2-4", 6) == mask_of([0, 2, 3, 4])
    with pytest.raises(InputError):
        parse_vertex_set("7", 6)
    with pytest.raises(InputError):
        parse_vertex_set("3-1", 6)


def test_bits_ascending():
    assert list(bits(0b101001)) == [0, 3, 5]


def _transpose_by_bits(rows, width):
    cols = [0] * width
    for a, row in enumerate(rows):
        for b in range(width):
            if (row >> b) & 1:
                cols[b] |= 1 << a
    return tuple(cols)


def test_transpose_matches_per_bit_loop():
    rng = random.Random(20261018)
    heights = list(range(1, 21)) + [255, 256, 257, 1023, 1024, 1025, 2100]
    for nv in heights:
        for nw in list(range(1, 21)) + [63, 64, 65]:
            rows = [rng.getrandbits(nw) for _ in range(nv)]
            assert transpose(rows, nw) == _transpose_by_bits(rows, nw), (nv, nw)
    assert transpose([0] * 5, 7) == (0,) * 7
    full = (1 << 9) - 1
    assert transpose([full] * 1030, 9) == ((1 << 1030) - 1,) * 9


def test_transpose_paths_agree_across_the_cutoff(monkeypatch):
    rng = random.Random(20261020)
    cutoff = graphs_module._PURE_TRANSPOSE_CELLS
    shapes = [(0, w) for w in (1, 7, 8, 33)]
    for cells in (cutoff - 1, cutoff, cutoff + 1):
        shapes += [(cells // w, w) for w in range(1, cells + 1) if cells % w == 0]
    by_text, by_blocks = graphs_module._columns_by_text, graphs_module._columns_by_blocks
    paths = []
    for name, inner in (("text", by_text), ("blocks", by_blocks)):
        spy = lambda rows, width, name=name, inner=inner: paths.append(name) or inner(rows, width)
        monkeypatch.setattr(graphs_module, f"_columns_by_{name}", spy)
    for nv, nw in shapes:
        for rows in ([rng.getrandbits(nw) for _ in range(nv)], [(1 << nw) - 1] * nv):
            expected = _transpose_by_bits(rows, nw)
            assert by_text(rows, nw) == by_blocks(rows, nw) == expected, (nv, nw)
            paths.clear()
            assert transpose(rows, nw) == expected
            assert paths == ["text" if nv * nw <= cutoff else "blocks"], (nv, nw)


def _validation_error_by_loops(n, adj):
    """Graph's checks with symmetry tested edge by edge, as a reference."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            return f"row {v} references vertices >= {n}"
        if (row >> v) & 1:
            return f"self-loop at vertex {v}"
    for v in range(n):
        for w in bits(adj[v]):
            if not (adj[w] >> v) & 1:
                return f"asymmetric edge {v}-{w}"
    return None


def test_symmetry_check_matches_edge_loop():
    rng = random.Random(7)
    asymmetric = 0
    for _ in range(3000):
        n = rng.randint(1, 12)
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        for _ in range(rng.randint(0, 3)):
            u, v = rng.randrange(n), rng.randrange(n + 1)
            rows[u] ^= 1 << v
        expected = _validation_error_by_loops(n, rows)
        try:
            Graph(n, tuple(rows))
            got = None
        except InputError as exc:
            got = str(exc)
        assert got == expected, (n, rows)
        asymmetric += expected is not None and expected.startswith("asymmetric")
    assert asymmetric > 1000


def test_symmetry_check_matches_edge_loop_across_the_transpose_cutoff():
    rng = random.Random(20261020)
    cutoff_n = math.isqrt(graphs_module._PURE_TRANSPOSE_CELLS)
    asymmetric = set()
    for n in list(range(cutoff_n - 3, cutoff_n + 4)) + [40] * 4:
        for _ in range(12):
            rows = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
            for _ in range(rng.randint(0, 3)):
                rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
            expected = _validation_error_by_loops(n, rows)
            assert _outcome(Graph, n, tuple(rows)) == (
                Graph(n, tuple(rows)) if expected is None else f"InputError: {expected}"
            ), (n, rows)
            if expected is not None and expected.startswith("asymmetric"):
                asymmetric.add(n)
    assert min(asymmetric) <= cutoff_n < max(asymmetric)


# ---------------------------------------------------------------------------
# The line-by-line edge-list reader, kept as the reference for the chunked
# kernel: same `Graph`, or the same `InputError` message, on every input.


def reference_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if n <= 0:
        raise InputError("graph needs at least one vertex")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop {u} {u} rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge {u} {v} out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def reference_parse_edge_list(text: str) -> Graph:
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
    return reference_from_edges(n, map(_reference_edge, lines[1:]))


def _reference_edge(line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise InputError(f"bad edge line: {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"bad edge line: {line!r}") from exc


def _outcome(read, *args):
    try:
        return read(*args)
    except InputError as exc:
        return f"InputError: {exc}"


# Line breaks of str.splitlines, and whitespace that only separates tokens.
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
_BLANKS = [" ", "\t", "\x1f", "\xa0", "\u3000"]
_ODD_TOKENS = ["x", "1.0", "\u00b2", "1__0", "_1", "1_", "--1", "+", "-", "0x1", "\x00"]


def _tokens(n: int):
    """Vertex tokens around 0..n-1, in the spellings int() accepts or not."""
    near = st.integers(-2, n + 2)
    return st.one_of(
        near.map(str),
        near.map(str),
        near.map(str),
        near.map(lambda v: "00" + str(v)),
        near.map(lambda v: ("+" if v >= 0 else "") + str(v)),
        near.map(lambda v: str(v).zfill(20)),
        st.integers(0, 10**25).map(str),
        st.integers(10, 99).map(lambda v: f"{v // 10}_{v % 10}"),
        st.integers(0, 9).map(lambda d: "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"[d]),
        st.integers(0, 9).map(lambda d: chr(0xFF10 + d) + str(d)),
        st.sampled_from(_ODD_TOKENS),
    )


@st.composite
def edge_texts(draw):
    n = draw(st.integers(1, 8))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
        lambda e: [str(e[0]), str((e[0] + 1) % n if e[0] == e[1] else e[1])]
    )
    wild = st.lists(_tokens(n), max_size=3)
    gap = st.text(st.sampled_from(_BLANKS), min_size=1, max_size=2)
    pad = st.text(st.sampled_from(_BLANKS), max_size=2)

    def line(items):
        return draw(pad) + "".join(t + draw(gap) for t in items[:-1]) + "".join(items[-1:]) + draw(pad)

    body = ""
    for _ in range(draw(st.integers(0, 10))):
        body += line(draw(wild if draw(st.integers(0, 9)) == 0 else edge))
        body += draw(st.sampled_from(_BREAKS))
    if draw(st.booleans()):
        body = body.rstrip("".join(_BREAKS))  # no break after the last line
    count = sum(1 for item in body.splitlines() if item.strip())
    head = [
        draw(st.sampled_from([str(n)] * 6 + ["0", "-1", f"+{n}", f"0{n}", "x", "\u0663"])),
        draw(st.sampled_from([str(count)] * 6 + [str(count + 1), str(count - 1), "y"])),
    ]
    head = draw(st.sampled_from([head] * 12 + [head[:1], head + ["1"]]))
    lead = draw(st.sampled_from(["", "", "\n", " \t\n\x1c"]))
    return lead + line(head) + draw(st.sampled_from(_BREAKS)) + body


@settings(max_examples=600, deadline=None)
@given(edge_texts(), st.sampled_from([1, 2, 3, 5, 8, graphs_module._CHUNK]))
def test_parse_edge_list_matches_reference(text, chunk):
    saved = graphs_module._CHUNK
    graphs_module._CHUNK = chunk
    try:
        got = _outcome(parse_edge_list, text)
        assert got == _outcome(reference_parse_edge_list, text)
        if isinstance(got, Graph):  # built without the symmetry check
            assert transpose(got.adj, got.n) == got.adj
    finally:
        graphs_module._CHUNK = saved


@settings(max_examples=600, deadline=None)
@given(edge_texts(), st.sampled_from([1, 2, 3, 5, 8, graphs_module._CHUNK]))
def test_parse_edge_list_matches_reference_with_every_text_offered_to_the_kernel(text, chunk):
    saved = graphs_module._CHUNK, graphs_module._LINE_READER_CHARS
    graphs_module._CHUNK, graphs_module._LINE_READER_CHARS = chunk, 0
    try:
        got = _outcome(parse_edge_list, text)
        assert got == _outcome(reference_parse_edge_list, text)
        if isinstance(got, Graph):  # built without the symmetry check
            assert transpose(got.adj, got.n) == got.adj
    finally:
        graphs_module._CHUNK, graphs_module._LINE_READER_CHARS = saved


def test_short_texts_skip_the_kernel_while_numpy_is_not_loaded(monkeypatch):
    def refuse(raw, n):
        raise AssertionError("the kernel was reached")

    cutoff = graphs_module._LINE_READER_CHARS
    g = half_graph(4)
    text = to_edge_list(g)
    short = text + "\n" * (cutoff - len(text))
    assert len(short) == cutoff
    monkeypatch.setattr(graphs_module, "sys", SimpleNamespace(modules={}))
    monkeypatch.setattr(graphs_module, "_plain_edges", refuse)
    assert parse_edge_list(text) == parse_edge_list(short) == g
    with pytest.raises(InputError, match="self-loop 1 1 rejected"):
        parse_edge_list(short.replace("0 4", "1 1"))
    monkeypatch.undo()
    calls = _line_reader_spy(monkeypatch)
    monkeypatch.setattr(graphs_module, "sys", SimpleNamespace(modules={}))
    assert parse_edge_list(short + "\n") == g  # the kernel imports numpy
    monkeypatch.setattr(graphs_module, "sys", sys)
    assert parse_edge_list(text) == g
    assert calls == []


def test_edge_list_reference_examples(monkeypatch):
    """The reading rules one input at a time, at several chunk sizes."""
    texts = [
        "",
        " \n\t\n",
        "3",
        "3 1 1\n0 1\n",
        "3 x\n",
        "0 0\n",
        "-2 0\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\n\n  0 1  \n\n",
        "3 2\r\n0\t1\r\n1\x1f2\r\n",
        "3 2\x0b0 1\x0c1 2\x1c",
        "3 2\x1d0 1\x1e1\xa02\x85",
        "3 1\n0\u20282\n",  # one line broken in two by U+2028
        "3 1\n+1 -0\n",
        "3 1\n1_0 2\n",
        "3 1\n00000000000000000000002 1\n",
        "3 1\n12345678901234567890 1\n",
        "3 1\n\u0661 \u0662\n",
        "3 1\n\uff11 2\n",
        "3 1\n\u00b2 1\n",
        "3 1\n1 1\n",
        "3 1\n7 7\n",
        "3 1\n0 3\n",
        "3 2\n0 1 2\n5 5\n",
        "3 2\n5 5\n0 1 2\n",
        "3 3\n0 1\n1 0\n0 1\n",
        "\u0663 1\n0 1\n",
        "3 1\n0 1" + " " * 40 + "\n",
    ]
    chunks = (1, 2, 3, graphs_module._CHUNK)
    graphs_read = 0
    for text in texts:
        for chunk in chunks:
            monkeypatch.setattr(graphs_module, "_CHUNK", chunk)
            got = _outcome(parse_edge_list, text)
            assert got == _outcome(reference_parse_edge_list, text), (text, chunk)
        graphs_read += isinstance(got, Graph)
    assert 0 < graphs_read < len(texts)


def test_edge_list_chunk_boundaries(monkeypatch):
    g = parse_family("perturb(clique_union(9,8,7),30,3)")
    plain = to_edge_list(g)
    bad = plain.replace(f"{g.n} {g.edge_count()}", f"{g.n} {g.edge_count() + 1}", 1)
    text, bad = (t.replace("\n", "\r\n").replace(" ", " \t") for t in (plain, bad + "4 4\n"))
    for chunk in range(1, 13):
        monkeypatch.setattr(graphs_module, "_CHUNK", chunk)
        assert parse_edge_list(text) == g
        with pytest.raises(InputError, match="self-loop 4 4 rejected"):
            parse_edge_list(bad)


def test_edge_list_round_trip_past_one_chunk():
    g = perturb(clique_union([600, 600]), 500, 11)
    text = to_edge_list(g)
    assert len(text) > 1 << 20
    assert parse_edge_list(text) == g


def _line_reader_spy(monkeypatch):
    """Count the calls of the line reader, which still reads the text."""
    calls = []
    read_lines = graphs_module._read_lines

    def spy(text):
        calls.append(len(text))
        return read_lines(text)

    monkeypatch.setattr(graphs_module, "_read_lines", spy)
    return calls


def _kernel_texts(g):
    text = to_edge_list(g)
    return text, text.replace("\n", "\r\n").replace(" ", "\t")


def test_plain_edge_lists_stay_in_the_kernel(monkeypatch):
    def refuse(text):
        raise AssertionError("the line reader was reached")

    monkeypatch.setattr(graphs_module, "_read_lines", refuse)
    g = perturb(clique_union([200, 200, 200]), 100, 5)
    for text in _kernel_texts(g):
        assert len(text) > 3 * graphs_module._CHUNK
        assert parse_edge_list(text) == g
    small = parse_family("perturb(clique_union(9,8,7),30,3)")
    for chunk in (1, 2, 7, 64):
        monkeypatch.setattr(graphs_module, "_CHUNK", chunk)
        for text in _kernel_texts(small):
            assert parse_edge_list(text) == small


def test_other_spellings_and_faults_reach_the_line_reader(monkeypatch):
    g = parse_family("perturb(clique_union(9,8,7),30,3)")
    text = to_edge_list(g)
    u, v = g.edges()[-1]
    variants = [
        text.replace(f"\n{u} {v}\n", f"\n+{u} {v}\n"),  # one signed token
        text.replace(f"\n{u} {v}\n", f"\n{u}　{v}\n"),  # one non-ASCII space
        text.replace(f"\n{u} {v}\n", f"\n{u} ٣\n"),  # one non-ASCII digit
        text.replace(f"\n{u} {v}\n", f"\n{u} {u}\n"),  # one self-loop
        text.replace(f"\n{u} {v}\n", f"\n{u} {g.n}\n"),  # one edge out of range
        text.replace(f"\n{u} {v}\n", f"\n{u}\n{v}\n"),  # one edge split over two lines
        text.replace(f"\n{u} {v}\n", f"\n{u} {v} 1\n"),  # one line of three tokens
        # one line of four tokens, under a header that counts token pairs
        text.replace(f"\n{u} {v}\n", f"\n{u} {v} {u} {v}\n").replace(
            f"{g.n} {g.edge_count()}\n", f"{g.n} {g.edge_count() + 1}\n", 1
        ),
        text + "0 1\n",  # one edge more than the header announces
    ]
    for chunk in (1, 5, graphs_module._CHUNK):
        monkeypatch.setattr(graphs_module, "_CHUNK", chunk)
        for bad in variants:
            assert bad != text
            calls = _line_reader_spy(monkeypatch)
            assert _outcome(parse_edge_list, bad) == _outcome(reference_parse_edge_list, bad)
            assert calls == [len(bad)], (bad, chunk)


def test_from_edges_matches_reference():
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(-1, 6)
        pool = [-1, 0, 1, 2, 3, 5, 6, 7, 10**20, -(10**20)]
        edges = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 4))]
        assert _outcome(from_edges, n, edges) == _outcome(reference_from_edges, n, edges)
    for m in (1, 2, 5, 17):
        pairs = [(2 * i, 2 * i + 1) for i in range(m)]
        assert matching_graph(m) == reference_from_edges(2 * m, pairs)


def test_from_edges_without_vertices_names_the_vertex_count():
    for n in (0, -2):
        for edges in ([], [(0, 1)], [(1, 1)], [(5, -3)]):
            with pytest.raises(InputError, match="^graph needs at least one vertex$"):
                from_edges(n, edges)


def test_vertex_bound():
    bound = config.VERTEX_BOUND
    for build in (
        lambda: parse_edge_list("1000000000 0\n"),
        lambda: parse_edge_list(f"{bound + 1} 0\n"),
        lambda: from_edges(10**9, []),
        lambda: from_edges(bound + 1, iter(())),
        lambda: empty_graph(bound + 1),
        lambda: complete_graph(bound + 1),
        lambda: half_graph(bound // 2 + 1),
        lambda: matching_graph(10**9),
        lambda: matching_graph(bound // 2 + 1),
        lambda: clique_union([bound, 1]),
    ):
        with pytest.raises(CapacityError, match=f"bound is n <= {bound}$"):
            build()
    assert parse_edge_list(f"{bound} 1\n0 {bound - 1}\n").n == bound


def test_set_range_check_matches_full_mask_rule():
    # the check is `X >> n`; the rule it replaced is `X & ~full_mask`
    rng = random.Random(7)
    for n in (1, 2, 7, 8, 9, 63, 64, 65, 200):
        g = empty_graph(n)
        masks = [0, g.full_mask, 1 << n, -1, -2, ~g.full_mask, -(1 << n)]
        masks += [rng.randrange(-(1 << (n + 3)), 1 << (n + 3)) for _ in range(200)]
        for X in masks:
            calls = (
                lambda: g.induced(X),
                lambda: g.density_pair(X, 1),
                lambda: g.density_pair(1, X),
            )
            for call in calls:
                if X & ~g.full_mask:
                    with pytest.raises(InputError, match="vertex set references vertices out of range"):
                        call()
                elif X:
                    call()


def test_pair_from_index_matches_lexicographic_walk():
    def walk(n, idx):
        u = 0
        while idx >= n - 1 - u:
            idx -= n - 1 - u
            u += 1
        return u, u + 1 + idx

    for n in range(2, 60):
        for idx in range(n * (n - 1) // 2):
            assert graphs_module._pair_from_index(n, idx) == walk(n, idx), (n, idx)
    rng = random.Random(20261023)
    for _ in range(300):
        n = rng.randint(2, 20_000)
        idx = rng.randrange(n * (n - 1) // 2)
        assert graphs_module._pair_from_index(n, idx) == walk(n, idx), (n, idx)


def test_family_graphs_pass_the_checks_they_skip():
    rng = random.Random(20261024)
    for _ in range(200):
        built = [
            empty_graph(rng.randint(1, 9)),
            complete_graph(rng.randint(1, 9)),
            half_graph(rng.randint(1, 5)),
            clique_union([rng.randint(1, 4) for _ in range(rng.randint(1, 4))]),
        ]
        base = rng.choice(built)
        built.append(perturb(base, rng.randint(0, base.n * (base.n - 1) // 2), rng.randint(0, 99)))
        built.append(base.induced(rng.randint(1, base.full_mask)))
        for g in built:
            assert type(g.adj) is tuple and all(type(row) is int for row in g.adj)
            assert Graph(g.n, g.adj) == g
