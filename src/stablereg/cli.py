"""Command-line front end.

Every subcommand prints a single JSON document on stdout and exits with
0 on success, 1 on a certified negative verdict, 2 on an input error and
3 on a capacity error. All randomness flows from --seed through labeled
child streams, so identical invocations produce identical bytes.

Each subcommand imports the modules it runs when it runs, so a call loads
only those.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

from .errors import CapacityError, InputError

if TYPE_CHECKING:
    from fractions import Fraction

    from .graphs import Graph
    from .groups import FiniteGroup
    from .partitions import RegularityReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value: object, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for dicts with str keys,
    without its pure-Python encoder: containers are joined here and scalars
    encoded by the json module's C functions. `indent` opens each line of
    the enclosing container."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_encode_str(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    # floats, subclasses of str and int, and the TypeError of anything else
    return json.dumps(value)


def _emit(payload: object) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _load_graph(args: argparse.Namespace) -> Graph:
    from .graphs import parse_edge_list, parse_family

    if getattr(args, "family", None):
        return parse_family(args.family)
    if getattr(args, "input", None):
        if args.input == "-":
            return parse_edge_list(sys.stdin.read())
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    raise InputError("provide a graph via --family or --input")


def _graph_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", help="family expression, e.g. half_graph(4)")
    sub.add_argument("--input", help="edge-list file path, or - for stdin")


def _fraction_json(f: Fraction) -> str:
    return str(f)


def _ladder_json(lad) -> dict | None:
    if lad is None:
        return None
    return {"vs": list(lad.vs), "ws": list(lad.ws)}


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_stability(args: argparse.Namespace) -> int:
    from .stability import _index_and_ladder, find_relation_ladder, graph_relation

    g = _load_graph(args)
    rel = graph_relation(g)
    cap = args.cap if args.cap is not None else g.n
    idx, witness = _index_and_ladder(rel, cap, args.distinct_witnesses)
    if args.k is not None:
        witness = find_relation_ladder(rel, args.k, distinct=args.distinct_witnesses)
    _emit(
        {
            "ladder_index": idx,
            "witness": _ladder_json(witness),
            "k_stable_for": idx + 1,
        }
    )
    return EXIT_PASS


def _cmd_pairs(args: argparse.Namespace) -> int:
    from .graphs import parse_vertex_set, vertex_list
    from .pairs import (
        excellence_report,
        homogeneity,
        is_almost_good,
        is_good_pair,
        is_good_set,
        parse_fraction,
        special_witness,
    )

    g = _load_graph(args)
    X = parse_vertex_set(args.x, g.n)
    Y = parse_vertex_set(args.y, g.n)
    eps = parse_fraction(args.epsilon)
    delta = parse_fraction(args.delta) if args.delta else eps
    verdict = homogeneity(g, X, Y, eps)
    sw = special_witness(g, X, Y, eps)
    payload = {
        "verdict": {
            "kind": verdict.kind,
            "density": _fraction_json(verdict.density),
            "threshold": _fraction_json(verdict.threshold),
        },
        "good_pair": is_good_pair(g, X, Y, eps),
        "special": None
        if sw is None
        else {"side": sw.side, "Xp": vertex_list(sw.Xp), "Yp": vertex_list(sw.Yp)},
        "almost_good": is_almost_good(g, X, Y, eps),
        "good_set_x": is_good_set(g, X, eps),
        "good_set_y": is_good_set(g, Y, eps),
    }
    if args.excellent:
        rep = excellence_report(g, X, eps, delta)
        payload["excellent_x"] = {"value": rep.value, "mode": rep.mode}
    _emit(payload)
    return EXIT_PASS


def _cmd_types(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from .graphs import vertex_list
    from .typeclasses import type_spectrum

    g = _load_graph(args)
    spectrum = type_spectrum(g)
    payload = [
        {
            "signature_hex": hex(c.signature),
            "members": vertex_list(c.members),
            "mass": _fraction_json(Fraction(c.size, g.n)),
        }
        for c in spectrum.classes
    ]
    _emit(payload)
    return EXIT_PASS


def _cmd_define(args: argparse.Namespace) -> int:
    from .graphs import vertex_list
    from .typeclasses import DefinabilityWitnesses, definability_witnesses, type_spectrum

    g = _load_graph(args)
    spectrum = type_spectrum(g)
    cls = spectrum.class_of(args.member)
    result = definability_witnesses(g, args.k, cls, args.seed, spectrum)
    if isinstance(result, DefinabilityWitnesses):
        _emit(
            {
                "k": result.k,
                "witnesses": list(result.witnesses),
                "defined": vertex_list(result.defined_mask),
                "signature": vertex_list(cls.signature),
                "votes": [
                    {"vertex": b, "count": result.vote_counts[b], "in_type": bool((cls.signature >> b) & 1)}
                    for b in range(g.n)
                ],
            }
        )
        return EXIT_PASS
    _emit(
        {
            "defect": {
                "k": result.k,
                "witnesses": list(result.witnesses),
                "parameter": result.parameter,
                "vote_count": result.vote_count,
                "expected": result.expected,
                "ladder": _ladder_json(result.ladder),
            }
        }
    )
    return EXIT_FAIL


def _cmd_partition(args: argparse.Namespace) -> int:
    from .partitions import ErrorFunction, good_partition_search, parse_fraction, partition_to_json

    g = _load_graph(args)
    eps = parse_fraction(args.epsilon)
    sigma = ErrorFunction.parse(args.sigma)
    result = good_partition_search(g, eps, sigma, mode=args.mode)
    _emit(
        {
            "partition": partition_to_json(result.partition),
            "certified": result.certified,
            "mode": result.mode,
        }
    )
    return EXIT_PASS if result.certified else EXIT_FAIL


def _cmd_refine(args: argparse.Namespace) -> int:
    from .partitions import (
        ErrorFunction,
        equipartition_refine,
        parse_fraction,
        partition_from_json,
        partition_to_json,
    )

    g = _load_graph(args)
    eps = parse_fraction(args.epsilon)
    sigma = ErrorFunction.parse(args.sigma)
    with open(args.partition, "r", encoding="utf-8") as fh:
        base = partition_from_json(json.load(fh))
    refined = equipartition_refine(g, base, eps, sigma)
    _emit({"partition": partition_to_json(refined)})
    return EXIT_PASS


def _report_json(report: RegularityReport) -> dict:
    return {
        "n": report.n,
        "size_check": report.size_check,
        "exceptional_fraction": _fraction_json(report.exceptional_fraction),
        "exceptional_ok": report.exceptional_ok,
        "sigma_at_n": _fraction_json(report.sigma_value),
        "pair_matrix": [list(row) for row in report.pair_matrix],
        "diagonal_failures": list(report.diagonal_failures),
        "off_diagonal_failures": [list(p) for p in report.off_diagonal_failures],
        "pass": report.passed,
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    from .partitions import ErrorFunction, parse_fraction, partition_from_json, verify_regularity

    g = _load_graph(args)
    eps = parse_fraction(args.epsilon)
    sigma = ErrorFunction.parse(args.sigma)
    with open(args.partition, "r", encoding="utf-8") as fh:
        partition = partition_from_json(json.load(fh))
    report = verify_regularity(g, partition, eps, sigma)
    _emit(_report_json(report))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _load_group(args: argparse.Namespace) -> FiniteGroup:
    from .groups import _check_order_bound, cyclic_group, dihedral_group, group_from_json

    # an order past the bound is refused before its order x order table is built
    if args.cyclic is not None:
        _check_order_bound(args.cyclic)
        return cyclic_group(args.cyclic)
    if args.dihedral is not None:
        _check_order_bound(2 * args.dihedral)
        return dihedral_group(args.dihedral)
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return group_from_json(json.load(fh))
    raise InputError("provide a group via --cyclic, --dihedral or --input")


def _cmd_group(args: argparse.Namespace) -> int:
    from .graphs import parse_vertex_set, vertex_list
    from .groups import coset_regularity, translate_relation
    from .partitions import ErrorFunction
    from .stability import relation_ladder_index

    g = _load_group(args)
    a_mask = parse_vertex_set(args.set, g.order)
    sigma = ErrorFunction.parse(args.sigma)
    max_index = args.max_index if args.max_index is not None else g.order
    report, certified = coset_regularity(g, a_mask, sigma, max_index)
    payload = {
        "subgroup": vertex_list(report.subgroup.elements),
        "index": report.subgroup.index,
        "sigma_at_index": _fraction_json(report.sigma_value),
        "cosets": [
            {
                "representative": row.representative,
                "elements": vertex_list(row.elements),
                "fraction": _fraction_json(row.fraction),
                "verdict": row.verdict,
            }
            for row in report.cosets
        ],
        "pass": report.passed,
        "certified": certified,
    }
    if args.stability_cap is not None:
        rel = translate_relation(g, a_mask)
        payload["translated_ladder_index"] = relation_ladder_index(rel, args.stability_cap)
    _emit(payload)
    return EXIT_PASS if certified else EXIT_FAIL


def _cmd_gen(args: argparse.Namespace) -> int:
    from .graphs import parse_family, to_edge_list

    g = parse_family(args.family)
    text = to_edge_list(g)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"written": args.out, "n": g.n, "edges": g.edge_count()})
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def _cmd_suite(args: argparse.Namespace) -> int:
    from .acceptance import run_battery

    results = run_battery(args.seed)
    payload = {
        "seed": args.seed,
        "criteria": [
            {"id": r.cid, "name": r.name, "pass": r.passed, "details": r.details}
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    }
    _emit(payload)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stderr.write(f"{status} criterion {r.cid}: {r.name}\n")
    return EXIT_PASS if payload["all_pass"] else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not modify it."""
    parser = argparse.ArgumentParser(
        prog="stablereg",
        description="Regularity calculus for stable finite graphs and groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="ladder index and witnesses")
    _graph_args(p)
    p.add_argument("--cap", type=int, help="search cap for the ladder index")
    p.add_argument("--k", type=int, help="also emit a witness at this length")
    p.add_argument("--distinct-witnesses", action="store_true")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("pairs", help="pair metrics for two vertex sets")
    _graph_args(p)
    p.add_argument("--x", required=True, help="vertex set, e.g. 0,2-4")
    p.add_argument("--y", required=True)
    p.add_argument("--epsilon", required=True, help="threshold, e.g. 1/4")
    p.add_argument("--delta", help="second threshold for excellence")
    p.add_argument("--excellent", action="store_true")
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("types", help="neighborhood type spectrum")
    _graph_args(p)
    p.set_defaults(func=_cmd_types)

    p = sub.add_parser("define", help="majority-vote definition of a type class")
    _graph_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--member", type=int, required=True, help="a vertex of the class")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_define)

    p = sub.add_parser("partition", help="search a good partition")
    _graph_args(p)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--sigma", required=True, help='e.g. "1/4" or "inverse(1/2)"')
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("refine", help="equipartition refinement of a partition")
    _graph_args(p)
    p.add_argument("--partition", required=True, help="partition JSON file")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("verify", help="verify a partition's regularity")
    _graph_args(p)
    p.add_argument("--partition", required=True, help="partition JSON file")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("group", help="coset regularity for a subset of a group")
    p.add_argument("--cyclic", type=int, help="cyclic group of this order")
    p.add_argument("--dihedral", type=int, help="dihedral group on this many points")
    p.add_argument("--input", help="group JSON file {order, table, name?}")
    p.add_argument("--set", required=True, help="subset, e.g. 0,2,4")
    p.add_argument("--sigma", required=True)
    p.add_argument("--max-index", type=int)
    p.add_argument("--stability-cap", type=int, help="also report the translated ladder index")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("gen", help="write a family graph as an edge list")
    p.add_argument("family", help="family expression")
    p.add_argument("--out", help="output path, - for stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        _emit({"error": {"kind": "input", "reason": str(exc)}})
        return EXIT_INPUT
    except CapacityError as exc:
        _emit({"error": {"kind": "capacity", "reason": str(exc)}})
        return EXIT_CAPACITY
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        _emit({"error": {"kind": "input", "reason": str(exc)}})
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
