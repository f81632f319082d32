"""Fuzz test of the CLI exit-code contract.

For generated argument lists, well-formed or not, every subcommand but
`suite` (which runs the whole acceptance battery) must:
- exit with 0, 1, 2 or 3, and with 1 only where it certifies a negative verdict;
- write no traceback to stderr;
- write one JSON document, or nothing, to stdout.
"""

import io
import json
import resource
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stablereg.cli import main
from stablereg.errors import CapacityError, InputError
from stablereg.graphs import parse_family
from stablereg.partitions import partition_from_json

VERDICT_COMMANDS = {"define", "partition", "verify", "group", "suite"}

MALFORMED_PARTITIONS = [
    {"n": 4, "exceptional": [], "parts": [[0, 1], [2, 3]], "params": [1]},
    {"n": 4, "exceptional": [], "parts": [[0, 1], [2, 3]], "params": "ab"},
    {"n": 4.0, "exceptional": [], "parts": [[0, 1, 2, 3]]},
    {"n": 4, "exceptional": [], "parts": [[0.5]]},
    {"n": 4, "exceptional": [], "parts": [[-1]]},
    {"n": -1, "exceptional": [0], "parts": []},
    {"n": 4, "parts": [[0, 1, 2, 3]]},
    {"n": 4, "exceptional": 0, "parts": [[0, 1, 2, 3]]},
    [1, 2],
    "partition",
    7,
    None,
]

_small = st.integers(min_value=-1, max_value=8)


def _mostly(valid, malformed):
    """Three draws in four from `valid`, so verdicts are reached as often as
    input errors."""
    return st.one_of(valid, valid, valid, malformed)


def _call(name, *args):
    return f"{name}({','.join(str(a) for a in args)})"


_size = st.integers(min_value=1, max_value=8)
_simple_families = st.one_of(
    st.builds(lambda n: _call("empty", n), _size),
    st.builds(lambda n: _call("complete", n), _size),
    st.builds(lambda k: _call("half_graph", k), st.integers(min_value=1, max_value=4)),
    st.builds(lambda m: _call("matching", m), st.integers(min_value=1, max_value=4)),
    st.builds(
        lambda sizes: _call("clique_union", *sizes),
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2),
    ),
)

families = _mostly(
    st.one_of(
        _simple_families,
        st.builds(
            lambda base, flips, seed: f"perturb({base},{flips},{seed})",
            _simple_families,
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=3),
        ),
    ),
    st.sampled_from(
        [
            "",
            "empty(0)",
            "complete(-1)",
            "clique_union(3,0)",
            "half_graph(",
            "half_graph()",
            "half_graph(3,4)",
            "half_graph(3))",
            "foo(3)",
            "(3)",
            "clique_union(3,a)",
            "perturb(empty(4),3)",
            "perturb(empty(4))",
            "perturb(empty(4),99,0)",
            "empty(20001)",
            "matching(1000000000)",
        ]
    ),
)

_junk = st.text(alphabet="0123456789/-.,() abx_", max_size=8)

_positive_fractions = st.integers(min_value=1, max_value=9).flatmap(
    lambda q: st.integers(min_value=1, max_value=3 * q // 2).map(lambda p: f"{p}/{q}")
)

fractions = _mostly(
    _positive_fractions,
    st.one_of(
        st.sampled_from(["0", "0/3", "-1/2", "1/0", "0.5", "1e3", "nan", "1/2/3", " 1/4 ", "", "abc"]),
        _junk,
    ),
)

sigmas = _mostly(
    st.one_of(
        _positive_fractions,
        st.builds(
            lambda form, f: f"{form}({f})",
            st.sampled_from(["const", "inverse", "inverse_square"]),
            _positive_fractions,
        ),
        st.lists(_positive_fractions, min_size=1, max_size=3).map(lambda fs: f"table({','.join(fs)})"),
    ),
    st.one_of(
        st.builds(lambda f: f"foo({f})", fractions),
        st.builds(lambda f: f"const({f})", fractions),
        st.sampled_from(["table()", "const(1/2", "(", "inverse(0)", "table(1/2,,1/4)", "table(1/4,1/2)"]),
    ),
)

_vertex = st.integers(min_value=0, max_value=3)
vertex_sets = _mostly(
    st.one_of(
        _vertex.map(str),
        st.builds(lambda a, b: f"{min(a, b)}-{max(a, b)}", _vertex, _vertex),
        st.lists(_vertex, min_size=1, max_size=3).map(lambda vs: ",".join(map(str, vs))),
    ),
    st.one_of(st.sampled_from(["", "a", "0,,1", "0-99", "9", "-1", "3-1", "0-"]), _junk),
)

ints = _mostly(
    st.integers(min_value=0, max_value=6).map(str),
    st.sampled_from(["-1", "-2", "x", "", "1.5", "99"]),
)

partition_documents = st.one_of(
    st.builds(
        lambda n, exceptional, parts: {"n": n, "exceptional": exceptional, "parts": parts},
        _small,
        st.lists(_small, max_size=2),
        st.lists(st.lists(_small, max_size=4), max_size=3),
    ),
    st.sampled_from(MALFORMED_PARTITIONS),
)

# files that are not UTF-8 text: a leading 0xff byte never decodes
raw_files = st.binary(max_size=6).map(lambda tail: b"\xff" + tail)


def _blocks_of(spec):
    """Partitions of the family's vertices into consecutive blocks, so that
    refine and verify reach their verdicts."""
    try:
        n = parse_family(spec).n
    except (InputError, CapacityError):
        return partition_documents
    return st.integers(min_value=1, max_value=n).map(
        lambda size: {
            "n": n,
            "exceptional": [],
            "parts": [list(range(start, min(start + size, n))) for start in range(0, n, size)],
        }
    )


def _maybe(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def invocations(draw, out_path, partition_path):
    """(subcommand, argv, partition document or None)."""
    command = draw(
        st.sampled_from(
            ["stability", "pairs", "types", "define", "partition", "refine", "verify", "group", "gen"]
        )
    )
    family = ["--family", draw(families)]
    document = None
    if command == "stability":
        argv = family + draw(_maybe("--cap", ints)) + draw(_maybe("--k", ints))
        argv += draw(st.sampled_from([[], ["--distinct-witnesses"]]))
    elif command == "pairs":
        argv = family + ["--x", draw(vertex_sets), "--y", draw(vertex_sets), "--epsilon", draw(fractions)]
        argv += draw(st.sampled_from([[], ["--excellent"]])) + draw(_maybe("--delta", fractions))
    elif command == "types":
        argv = family
    elif command == "define":
        argv = family + ["--k", draw(ints), "--member", draw(ints)] + draw(_maybe("--seed", ints))
    elif command == "partition":
        argv = family + ["--epsilon", draw(fractions), "--sigma", draw(sigmas)]
        argv += draw(_maybe("--mode", st.sampled_from(["exact", "greedy", "fast"])))
    elif command in ("refine", "verify"):
        document = draw(st.one_of(partition_documents, _blocks_of(family[1]), raw_files))
        argv = family + ["--partition", partition_path, "--epsilon", draw(fractions), "--sigma", draw(sigmas)]
    elif command == "group":
        source = draw(
            _mostly(
                st.one_of(ints.map(lambda v: ["--cyclic", v]), ints.map(lambda v: ["--dihedral", v])),
                st.sampled_from(
                    [["--input", partition_path + ".missing"], ["--input", partition_path], []]
                ),
            )
        )
        if source == ["--input", partition_path]:
            document = draw(st.one_of(partition_documents, raw_files))
        argv = source + ["--set", draw(vertex_sets), "--sigma", draw(sigmas)]
        argv += draw(_maybe("--max-index", ints)) + draw(_maybe("--stability-cap", ints))
    else:
        argv = [draw(families), "--out", out_path]
    # now and then drop one argument, so argparse's own errors are exercised
    if argv and draw(st.integers(min_value=0, max_value=9)) == 0:
        del argv[draw(st.integers(min_value=0, max_value=len(argv) - 1))]
    return command, [command] + argv, document


@contextmanager
def _memory_cap(extra=1 << 30):
    """Lower the soft address-space limit to the current size plus `extra`.

    The fuzz reaches exponential searches; under the cap an unbounded one
    fails its example with MemoryError instead of exhausting the machine.
    """
    with open("/proc/self/statm", encoding="ascii") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with _memory_cap(), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_contract_fuzz(tmp_path):
    out_path = str(tmp_path / "gen.txt")
    partition_path = str(tmp_path / "partition.json")

    @given(invocations(out_path, partition_path))
    @settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(invocation):
        command, argv, document = invocation
        if isinstance(document, bytes):
            with open(partition_path, "wb") as fh:
                fh.write(document)
        elif document is not None:
            with open(partition_path, "w", encoding="utf-8") as fh:
                json.dump(document, fh)
        code, out, err = _run(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err, (argv, err)
        payload = json.loads(out) if out else None
        if code == 1:
            assert command in VERDICT_COMMANDS, argv
        if code in (2, 3):
            # argparse errors print usage to stderr only; the package's own
            # errors print one error document to stdout
            if payload is not None:
                assert payload["error"]["kind"] == ("input" if code == 2 else "capacity"), (argv, payload)

    check()


def test_malformed_partition_documents_are_input_errors(tmp_path):
    path = tmp_path / "partition.json"
    for document in MALFORMED_PARTITIONS:
        path.write_text(json.dumps(document), encoding="utf-8")
        for command in ("refine", "verify"):
            argv = [command, "--family", "empty(4)", "--partition", str(path), "--epsilon", "1/2", "--sigma", "1/4"]
            code, out, err = _run(argv)
            assert code == 2, (document, command, out, err)
            assert json.loads(out)["error"]["kind"] == "input"


def test_huge_partition_vertex_is_input_error(tmp_path):
    # 1 << 10**11 takes 12.5 GB: a vertex or n shifted before its range
    # check fails under the cap with MemoryError, not with exit 2
    huge = 10**11
    documents = [
        {"n": 4, "exceptional": [], "parts": [[0, 1], [2, huge]]},
        {"n": 4, "exceptional": [huge], "parts": [[0, 1, 2, 3]]},
        {"n": huge, "exceptional": [], "parts": [[0, 1, 2, 3]]},
    ]
    path = tmp_path / "partition.json"
    for document in documents:
        with _memory_cap(), pytest.raises(InputError):
            partition_from_json(document)
        path.write_text(json.dumps(document), encoding="utf-8")
        for command in ("refine", "verify"):
            argv = [command, "--family", "empty(4)", "--partition", str(path), "--epsilon", "1/2", "--sigma", "1/4"]
            code, out, err = _run(argv)
            assert code == 2, (document, command, out, err)
            assert json.loads(out)["error"]["kind"] == "input"


def test_define_negative_member_is_input_error():
    code, out, _ = _run(["define", "--family", "empty(3)", "--k", "1", "--member", "-1"])
    assert code == 2
    assert json.loads(out) == {"error": {"kind": "input", "reason": "vertex -1 out of range"}}


def test_define_large_k_is_bounded():
    # 2k witness stages, but candidate masks multiply only at stages that
    # record a new parameter; 8 vertices have at most 8
    code, out, _ = _run(["define", "--family", "half_graph(4)", "--k", "99", "--member", "6"])
    assert code in (0, 1)
    payload = json.loads(out)
    assert (payload if code == 0 else payload["defect"])["k"] == 99
