import json

from stablereg import config
from stablereg.cli import main
from stablereg.graphs import parse_edge_list, parse_family
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
    monkeypatch.setattr(stablereg.cli, "find_relation_ladder", counting)
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
