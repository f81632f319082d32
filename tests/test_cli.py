import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablereg
from stablereg import config, graphs
from stablereg.cli import _emit, main
from stablereg.graphs import parse_edge_list, parse_family, to_edge_list
from stablereg.partitions import partition_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_stability_emits_witness(capsys):
    code, payload = run_json(
        capsys, "stability", "--family", "half_graph(4)", "--k", "4"
    )
    assert code == 0
    assert payload["ladder_index"] == 4
    assert payload["k_stable_for"] == 5
    assert payload["witness"] == {"vs": [0, 1, 2, 3], "ws": [4, 5, 6, 7]}


def test_stability_distinct_flag(capsys):
    code, payload = run_json(
        capsys, "stability", "--family", "complete(5)", "--distinct-witnesses"
    )
    assert code == 0 and payload["ladder_index"] == 1


def test_malformed_edge_list_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    code, payload = run_json(capsys, "stability", "--input", str(bad))
    assert code == 2
    assert payload["error"]["kind"] == "input"
    assert "self-loop" in payload["error"]["reason"]


def test_missing_graph_source(capsys):
    code, payload = run_json(capsys, "types")
    assert code == 2 and payload["error"]["kind"] == "input"


def test_pairs_output(capsys):
    code, payload = run_json(
        capsys,
        "pairs",
        "--family",
        "half_graph(4)",
        "--x",
        "0-3",
        "--y",
        "4-7",
        "--epsilon",
        "1/4",
    )
    assert code == 0
    assert payload["verdict"]["kind"] == "not-homogeneous"
    assert payload["verdict"]["density"] == "5/8"
    assert payload["good_pair"] is False
    assert payload["good_set_x"] is False


def test_types_and_define(capsys):
    code, payload = run_json(capsys, "types", "--family", "matching(3)")
    assert code == 0
    assert [c["members"] for c in payload] == [[0, 1], [2, 3], [4, 5]]
    assert all(c["mass"] == "1/3" for c in payload)

    code, payload = run_json(
        capsys, "define", "--family", "matching(3)", "--k", "2", "--member", "0",
        "--seed", "5",
    )
    assert code == 0
    assert payload["defined"] == [0, 1]
    assert len(payload["witnesses"]) == 4


def test_define_defect_exit_code(capsys):
    code, payload = run_json(
        capsys, "define", "--family", "half_graph(4)", "--k", "1", "--member", "0",
        "--seed", "3",
    )
    assert code == 1
    assert "defect" in payload
    assert payload["defect"]["ladder"] is not None


def test_partition_refine_verify_round_trip(capsys, tmp_path):
    code, payload = run_json(
        capsys, "partition", "--family", "clique_union(4,4)",
        "--epsilon", "1/4", "--sigma", "const(1/3)",
    )
    assert code == 0 and payload["certified"]
    assert partition_from_json(payload["partition"]).m == 2

    # search -> refine -> verify end to end on a base that stays tau-good
    code, payload = run_json(
        capsys, "partition", "--family", "empty(8)",
        "--epsilon", "1/4", "--sigma", "const(1/5)",
    )
    assert code == 0 and payload["certified"]
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps(payload["partition"]))

    code, payload = run_json(
        capsys, "refine", "--family", "empty(8)", "--partition", str(base_file),
        "--epsilon", "1/2", "--sigma", "const(1/5)",
    )
    assert code == 0
    refined_file = tmp_path / "refined.json"
    refined_file.write_text(json.dumps(payload["partition"]))

    code, payload = run_json(
        capsys, "verify", "--family", "empty(8)", "--partition", str(refined_file),
        "--epsilon", "1/2", "--sigma", "const(1/5)",
    )
    assert code == 0 and payload["pass"] is True


def test_refine_with_rising_table_sigma_on_many_parts(capsys, tmp_path):
    # N = 2 m^2 / eps is 16 M here: the running minimum reads the two table
    # entries, not sigma at every point up to N
    base_file = tmp_path / "singletons.json"
    base_file.write_text(json.dumps({"n": 2000, "exceptional": [], "parts": [[v] for v in range(2000)]}))
    code, payload = run_json(
        capsys, "refine", "--family", "empty(2000)", "--partition", str(base_file),
        "--epsilon", "1/2", "--sigma", "table(1/4,1/2)",
    )
    assert code == 0
    params = payload["partition"]["params"]
    assert params["sigma"] == "table(1/4,1/4)"
    assert params["sigma_monotonized"] == "True"
    assert params["n"] == "2000"


def test_verify_failure_exit_code(capsys, tmp_path):
    part_file = tmp_path / "p.json"
    part_file.write_text(json.dumps({"n": 8, "exceptional": [], "parts": [list(range(8))]}))
    code, payload = run_json(
        capsys, "verify", "--family", "half_graph(4)", "--partition", str(part_file),
        "--epsilon", "1/100", "--sigma", "const(1/4)",
    )
    assert code == 1 and payload["pass"] is False
    assert payload["diagonal_failures"] == [0]


def test_group_command(capsys):
    code, payload = run_json(
        capsys, "group", "--cyclic", "12", "--set", "0,3,6,9,1",
        "--sigma", "const(1/3)",
    )
    assert code == 0 and payload["certified"]
    assert payload["subgroup"] == [0, 3, 6, 9]
    assert [c["fraction"] for c in payload["cosets"]] == ["1", "1/4", "0"]


def test_group_not_certified_exit(capsys):
    code, payload = run_json(
        capsys, "group", "--cyclic", "6", "--set", "0,1,2",
        "--sigma", "const(1/4)", "--max-index", "5",
    )
    assert code == 1 and payload["certified"] is False


def test_group_capacity_exit(capsys):
    code, payload = run_json(
        capsys, "group", "--cyclic", "130", "--set", "0", "--sigma", "const(1/4)"
    )
    assert code == 3 and payload["error"]["kind"] == "capacity"


def test_gen_round_trip(capsys, tmp_path):
    out = tmp_path / "graph.txt"
    code, payload = run_json(
        capsys, "gen", "perturb(clique_union(3,3),2,9)", "--out", str(out)
    )
    assert code == 0
    g = parse_edge_list(out.read_text())
    assert g == parse_family("perturb(clique_union(3,3),2,9)")


def test_gen_stdout(capsys):
    code, out = run(capsys, "gen", "matching(2)")
    assert code == 0
    assert out == "4 2\n0 1\n2 3\n"


def test_byte_determinism(capsys):
    args = ["define", "--family", "clique_union(4,4)", "--k", "3", "--member", "0",
            "--seed", "42"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_pairs_excellence_flag(capsys):
    code, payload = run_json(
        capsys, "pairs", "--family", "empty(5)", "--x", "0-4", "--y", "0-4",
        "--epsilon", "1/3", "--excellent",
    )
    assert code == 0
    assert payload["excellent_x"] == {"value": True, "mode": "exhaustive"}


def test_group_json_input(capsys, tmp_path):
    from stablereg.groups import cyclic_group, group_to_json

    path = tmp_path / "z6.json"
    path.write_text(json.dumps(group_to_json(cyclic_group(6))))
    code, payload = run_json(
        capsys, "group", "--input", str(path), "--set", "0,2,4", "--sigma", "const(1/4)"
    )
    assert code == 0 and payload["subgroup"] == [0, 2, 4]


def test_capacity_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STABLEREG_PARTITION_BOUND", "5")
    code, payload = run_json(
        capsys, "partition", "--family", "empty(6)", "--epsilon", "1/4",
        "--sigma", "const(1/4)",
    )
    assert code == 3 and payload["error"]["kind"] == "capacity"


def test_capacity_env_not_integer_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("STABLEREG_EXCELLENT_BOUND", "abc")
    code, payload = run_json(
        capsys, "pairs", "--family", "empty(4)", "--x", "0,1", "--y", "2,3",
        "--epsilon", "1/4", "--excellent",
    )
    assert code == 2 and payload["error"]["kind"] == "input"
    assert "STABLEREG_EXCELLENT_BOUND" in payload["error"]["reason"]


def test_ladder_budget_is_capacity_error(capsys, monkeypatch):
    monkeypatch.setenv("STABLEREG_LADDER_BUDGET", "1")
    code, payload = run_json(capsys, "stability", "--family", "half_graph(3)", "--cap", "3")
    assert code == 3 and payload["error"]["kind"] == "capacity"
    assert payload["error"]["reason"] == (
        "ladder search of length 2 spent 2 nodes; the node budget is 1 (STABLEREG_LADDER_BUDGET)"
    )
    monkeypatch.setenv("STABLEREG_LADDER_BUDGET", "abc")
    code, payload = run_json(capsys, "stability", "--family", "half_graph(3)")
    assert code == 2 and payload["error"]["kind"] == "input"
    assert "STABLEREG_LADDER_BUDGET" in payload["error"]["reason"]


def test_group_non_integer_cells_are_input_errors(capsys, tmp_path):
    tables = {
        "string_cell": [[0, 1], [1, "x"]],
        "int_row": [[0, 1], 1],
        "float_cell": [[0, 1], [1, 0.5]],
    }
    for name, table in tables.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"order": 2, "table": table}))
        code, payload = run_json(
            capsys, "group", "--input", str(path), "--set", "0", "--sigma", "const(1/4)"
        )
        assert code == 2 and payload["error"]["kind"] == "input", name


def test_group_bool_cells_are_input_errors(capsys, tmp_path):
    # JSON true and false are Python bools, which numpy would read as 1 and 0
    for table in ([[0, 1], [1, True]], [[False, 1], [1, 0]]):
        path = tmp_path / "bool_cell.json"
        path.write_text(json.dumps({"order": 2, "table": table}))
        code, payload = run_json(
            capsys, "group", "--input", str(path), "--set", "0", "--sigma", "const(1/4)"
        )
        assert code == 2 and payload["error"]["kind"] == "input", table
        assert payload["error"]["reason"] == "Cayley table must be n x n over 0..n-1"


def test_malformed_partition_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, payload = run_json(
        capsys, "verify", "--family", "empty(4)", "--partition", str(bad),
        "--epsilon", "1/2", "--sigma", "const(1/4)",
    )
    assert code == 2 and payload["error"]["kind"] == "input"

    missing = tmp_path / "missing.json"
    code, payload = run_json(
        capsys, "verify", "--family", "empty(4)", "--partition", str(missing),
        "--epsilon", "1/2", "--sigma", "const(1/4)",
    )
    assert code == 2 and payload["error"]["kind"] == "input"


def test_group_float_order_is_input_error(capsys, tmp_path):
    for order in (2.9, 2.0, True):
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({"order": order, "table": [[0, 1], [1, 0]]}))
        code, payload = run_json(
            capsys, "group", "--input", str(path), "--set", "0", "--sigma", "const(1/4)"
        )
        assert code == 2 and payload["error"]["kind"] == "input", order


def test_partition_non_integer_vertices_are_input_errors(capsys, tmp_path):
    blobs = {
        "float_vertex": {"n": 2, "exceptional": [], "parts": [[0.7, 1]]},
        "bool_vertex": {"n": 2, "exceptional": [], "parts": [[False, 1]]},
        "float_exceptional": {"n": 2, "exceptional": [1.0], "parts": [[0]]},
        "float_n": {"n": 2.5, "exceptional": [], "parts": [[0, 1]]},
    }
    for name, blob in blobs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(blob))
        code, payload = run_json(
            capsys, "verify", "--family", "empty(2)", "--partition", str(path),
            "--epsilon", "1/2", "--sigma", "const(1/4)",
        )
        assert code == 2 and payload["error"]["kind"] == "input", name


def test_stability_searches_each_k_once(capsys, monkeypatch):
    import stablereg.cli
    import stablereg.stability

    searched = []
    real = stablereg.stability.find_relation_ladder

    def counting(rel, k, distinct=False):
        searched.append(k)
        return real(rel, k, distinct=distinct)

    monkeypatch.setattr(stablereg.stability, "find_relation_ladder", counting)
    code, out = run(capsys, "stability", "--family", "half_graph(4)", "--cap", "6")
    assert code == 0
    assert searched == [1, 2, 3, 4, 5]
    assert json.loads(out) == {
        "ladder_index": 4,
        "witness": {"vs": [0, 1, 2, 3], "ws": [4, 5, 6, 7]},
        "k_stable_for": 5,
    }


def test_parser_reuse_keeps_output_identical(capsys):
    argv = ("stability", "--family", "perturb(clique_union(4,4,4),3,2)", "--cap", "4")
    first = run(capsys, *argv)
    code, payload = run_json(capsys, "types", "--family", "bad(")
    assert code == 2 and payload["error"]["kind"] == "input"
    assert run(capsys, *argv) == first
    assert first[0] == 0


def test_vertex_bound_is_capacity_error(capsys, tmp_path):
    over = config.VERTEX_BOUND + 1
    big = tmp_path / "big.txt"
    big.write_text(f"{over} 0\n")
    for argv in (
        ["stability", "--input", str(big)],
        ["stability", "--family", f"empty({over})"],
        ["types", "--family", f"empty({over})"],
        ["types", "--family", "matching(1000000000)"],
    ):
        code, payload = run_json(capsys, *argv)
        assert code == 3 and payload["error"]["kind"] == "capacity", argv
        assert f"bound is n <= {config.VERTEX_BOUND}" in payload["error"]["reason"]


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.text()
    | st.sampled_from(["", "\\", '"', "\x00\x1f\x7f", "\n\r\t\b\f", "é", "\u2028", "\U0001f600"])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_emit_writes_the_bytes_of_indented_json_dumps(value):
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(value)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["types", "--input", "{path}"],
        ["types", "--input", "-"],
        ["verify", "--family", "empty(2)", "--partition", "{path}", "--epsilon", "1/2", "--sigma", "1/2"],
        ["group", "--input", "{path}", "--set", "0", "--sigma", "1/2"],
    ],
)
def test_non_utf8_input_is_input_error(capsys, tmp_path, monkeypatch, argv):
    raw = b"\xff\xfe2 1\n0 1\n"
    path = tmp_path / "raw.bin"
    path.write_bytes(raw)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code, payload = run_json(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2
    assert payload["error"]["kind"] == "input"
    assert "can't decode byte 0xff" in payload["error"]["reason"]


def test_cli_import_loads_only_stdlib_numpy_and_the_package():
    # setup time is the fresh-process import of the package and its CLI
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import stablereg, stablereg.cli\n"
        "new = sorted({name.split('.')[0] for name in set(sys.modules) - before})\n"
        "print(' '.join(new))\n"
        "print('stablereg.acceptance' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(stablereg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    names, acceptance_loaded = done.stdout.splitlines()
    foreign = [
        name
        for name in names.split()
        if name not in sys.stdlib_module_names and name not in ("numpy", "stablereg")
    ]
    assert foreign == []
    assert acceptance_loaded == "False"


def test_group_stability_cap_zero_is_input_error(capsys):
    group = ("group", "--cyclic", "6", "--set", "0,2,4", "--sigma", "1/4")
    stability = ("stability", "--family", "half_graph(4)")
    code, payload = run_json(capsys, *group, "--stability-cap", "0")
    assert code == 2
    assert payload == run_json(capsys, *stability, "--cap", "0")[1]
    assert payload == {"error": {"kind": "input", "reason": "cap must be at least 1"}}
    code, payload = run_json(capsys, *group, "--stability-cap", "1")
    assert code == 0 and payload["translated_ladder_index"] == 1


def _fresh_process_json(probe, *argv):
    """The JSON that `python -c probe argv...` prints, run on this package."""
    src = os.path.dirname(os.path.dirname(stablereg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


_MODULES_AFTER_MAIN = (
    "import contextlib, io, json, sys\n"
    "import stablereg, stablereg.cli\n"
    "loaded = sorted(sys.modules)\n"
    "if sys.argv[1:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert stablereg.cli.main(sys.argv[1:]) == 0\n"
    "print(json.dumps([loaded, sorted(sys.modules)]))\n"
)
_FAMILY = ("--family", "half_graph(4)")
_LAYERS = {"pairs", "partitions", "typeclasses", "stability", "groups"}


def test_cli_import_loads_only_the_cli_and_errors():
    loaded, _ = _fresh_process_json(_MODULES_AFTER_MAIN)
    assert [m for m in loaded if m.startswith("stablereg")] == [
        "stablereg",
        "stablereg.cli",
        "stablereg.errors",
    ]
    assert "numpy" not in loaded


@pytest.mark.parametrize(
    "argv, numpy_loaded, not_loaded",
    [
        (["gen", "half_graph(4)"], False, _LAYERS),
        (["stability", *_FAMILY, "--cap", "6"], False, _LAYERS - {"stability"}),
        (["define", *_FAMILY, "--k", "2", "--member", "0"], False, {"pairs", "partitions", "groups"}),
        (["types", *_FAMILY], False, {"pairs", "partitions", "groups"}),
        (
            ["pairs", *_FAMILY, "--x", "0-3", "--y", "4-7", "--epsilon", "1/4", "--excellent"],
            False,
            _LAYERS - {"pairs"},
        ),
        (["group", "--cyclic", "6", "--set", "0,2,4", "--sigma", "1/4"], True, set()),
        (["stability", "--input", "{big}"], True, _LAYERS - {"stability"}),
        (["stability", "--input", "{path}"], False, _LAYERS - {"stability"}),
        (["types", "--input", "{path}"], False, {"pairs", "partitions", "groups"}),
        (["stability", "--input", "{mid}"], False, _LAYERS - {"stability"}),
    ],
)
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, numpy_loaded, not_loaded):
    path = tmp_path / "half_graph_4.txt"
    path.write_text(to_edge_list(parse_family("half_graph(4)")), encoding="ascii")
    big = tmp_path / "clique_union_130_130.txt"
    big.write_text(to_edge_list(parse_family("clique_union(130,130)")), encoding="ascii")
    assert big.stat().st_size > graphs._LINE_READER_CHARS
    mid = tmp_path / "half_graph_20.txt"
    mid.write_text(to_edge_list(parse_family("half_graph(20)")), encoding="ascii")
    assert mid.stat().st_size >= 1024
    argv = [a.format(path=path, big=big, mid=mid) for a in argv]
    _, loaded = _fresh_process_json(_MODULES_AFTER_MAIN, *argv)
    assert ("numpy" in loaded) == numpy_loaded
    assert sorted(f"stablereg.{m}" for m in not_loaded if f"stablereg.{m}" in loaded) == []


_SMALL_GRAPH_PROBE = """
import json, sys
from fractions import Fraction
from stablereg import (
    Graph, Relation, find_relation_ladder, homogeneity, is_almost_good, is_excellent,
    is_good_pair, special_witness, threshold_sets,
)

rows = [0] * 8
for u, v in [(0, 4), (0, 5), (1, 5), (2, 6), (3, 7), (4, 5), (6, 7), (1, 2)]:
    rows[u] |= 1 << v
    rows[v] |= 1 << u
g = Graph(8, tuple(rows))
eps = Fraction(1, 4)
for check in (homogeneity, special_witness, is_good_pair, is_almost_good):
    check(g, 0b1111, 0b11110000, eps)
threshold_sets(g, 0b1111, 0b11110000, eps, eps)
is_excellent(g, 0b11, eps, eps)
find_relation_ladder(Relation(3, 4, (0b0001, 0b0011, 0b0111)), 3)
print(json.dumps(sorted(sys.modules)))
"""


def test_small_graphs_and_relations_load_no_numpy():
    loaded = _fresh_process_json(_SMALL_GRAPH_PROBE)
    assert "stablereg.pairs" in loaded and "stablereg.stability" in loaded
    assert "numpy" not in loaded


_PACKAGE_PROBE = """
import json, sys
import stablereg

out = {"graphs_after_bare_import": stablereg.graphs is sys.modules.get("stablereg.graphs")}
out["dir_missing"] = sorted(set(stablereg.__all__) - set(dir(stablereg)))
star = {}
exec("from stablereg import *", star)
out["star_missing"] = sorted(set(stablereg.__all__) - set(star))
out["not_from_submodule"] = sorted(
    name
    for name in stablereg.__all__
    if getattr(stablereg, name) is not getattr(sys.modules[getattr(stablereg, name).__module__], name)
    or getattr(stablereg, name) is not star[name]
)
out["unknown_names"] = [
    hasattr(stablereg, "no_such_name"),
    hasattr(stablereg, "__main__"),
    hasattr(stablereg.cli, "no_such_name"),
    hasattr(stablereg.cli, "_no_such_name"),
    hasattr(stablereg.cli, "parse_family"),
    hasattr(stablereg.cli, "find_relation_ladder"),
]
out["parse_fraction"] = [
    stablereg.parse_fraction is stablereg.pairs.parse_fraction,
    stablereg.parse_fraction is stablereg.partitions.parse_fraction,
]
out["all"] = stablereg.__all__
print(json.dumps(out))
"""


def test_lazy_package_names_resolve_to_their_submodules():
    # a fresh process, so that no submodule is loaded before the lookups
    # under test make it load
    out = _fresh_process_json(_PACKAGE_PROBE)
    assert out.pop("all") == sorted(stablereg.__all__) and len(stablereg.__all__) == 65
    assert out == {
        "graphs_after_bare_import": True,
        "dir_missing": [],
        "star_missing": [],
        "not_from_submodule": [],
        "unknown_names": [False, False, False, False, False, False],
        "parse_fraction": [True, True],
    }
