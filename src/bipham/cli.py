"""Command-line interface.

Subcommands: ``generate`` (instance families), ``verify`` (framework /
scheme / balanced-system validation of a graph file), ``decompose`` (the two
pipelines), ``oracle`` (reference solvers).  Graph files use the JSON layout
{"n", "edges", "partition"}; generators that also produce a regular spanning
subgraph write it next to the host file with a ``.sub.json`` suffix.
"""

from __future__ import annotations

import argparse
import json
import sys

from .balance import frac, validate_framework, Framework
from .errors import BadParams, BiphamError, InputFileError
from .generators import generate, regular_spanning_subgraph
from .graphs import (
    PathSystem,
    dump_graph,
    load_graph,
    parse_edge_list,
)
from .pipeline import PipelineConstants, run_theorem_NWbip, run_theorem_1factbip
from .report import emit_report, format_json
from .schemes import scheme_violations
from .solvers import (
    SolverBudget,
    chromatic_index_regular,
    exhaustive_hamilton_decomposition,
    reg_even,
)
from .validate import check_a0b0_path_system, check_bes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bipham")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="generate an instance")
    g.add_argument("--kind", required=True,
                   choices=["eps_bipartite", "babai", "two_cliques",
                            "complete_bipartite"])
    g.add_argument("--params", default="{}", help="JSON dict of parameters")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True)

    v = sub.add_parser("verify", help="validate a graph file")
    v.add_argument("--level", required=True, choices=["framework", "scheme", "bes"])
    v.add_argument("--D", type=int, default=None)
    v.add_argument("--eps", default="1/2")
    v.add_argument("--eps-prime", default="1/4")
    v.add_argument("--K", type=int, default=1)
    v.add_argument("graph")

    d = sub.add_parser("decompose", help="run a pipeline")
    d.add_argument("--theorem", required=True, choices=["nwbip", "onefact"])
    d.add_argument("--constants", default=None, help="JSON constants file")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--subgraph", default=None,
                   help="regular spanning subgraph file (nwbip)")
    d.add_argument("--D", type=int, default=None,
                   help="extract a D-regular spanning subgraph (nwbip)")
    d.add_argument("graph")
    d.add_argument("-o", "--out", required=True)

    o = sub.add_parser("oracle", help="run a reference solver")
    o.add_argument("--op", required=True, choices=["regeven", "chi", "hamdecomp"])
    o.add_argument("--max-seconds", type=float, default=60.0)
    o.add_argument("graph")

    args = p.parse_args(argv)
    try:
        return _dispatch(args)
    except BiphamError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.cmd == "generate":
        try:
            params = json.loads(args.params)
        except ValueError as exc:
            raise InputFileError(f"malformed --params: {exc}") from exc
        out = generate(args.kind, params, seed=args.seed)
        if len(out) == 4:
            graph, part, props, subgraph = out
        else:
            graph, part, props = out
            subgraph = None
        dump_graph(args.out, graph, part)
        if subgraph is not None:
            sub_path = args.out.removesuffix(".json") + ".sub.json"
            dump_graph(sub_path, subgraph, part)
            props["subgraph_file"] = sub_path
        print(format_json(props))
        return 0

    if args.cmd == "verify":
        eps = _rational("--eps", args.eps)
        eps_prime = _rational("--eps-prime", args.eps_prime)
        graph, part = _load(args.graph)
        if part is None:
            raise InputFileError(f"no partition in {args.graph}")
        if args.level == "framework":
            D = args.D if args.D is not None else graph.common_degree()
            if D is None:
                raise BiphamError("graph is not regular; pass --D")
            res = validate_framework(graph, part, D, eps, eps_prime, args.K)
            if isinstance(res, Framework):
                print(f"framework kind: {res.kind}")
                return 0
            for viol in res[:10]:
                print(f"{viol.condition}: {viol.detail}")
            return 1
        if args.level == "scheme":
            problems = scheme_violations(graph, part, eps, eps_prime)
            for prob in problems[:10]:
                print(prob)
            print("scheme ok" if not problems else f"{len(problems)} violations")
            return 0 if not problems else 1
        q = PathSystem(graph.n, graph.edges)
        problems = check_a0b0_path_system(q, part) + check_bes(
            q, part, None, eps.numerator, eps.denominator
        )
        dedup = list(dict.fromkeys(problems))
        for prob in dedup[:10]:
            print(prob)
        print("balanced system ok" if not dedup else f"{len(dedup)} violations")
        return 0 if not dedup else 1

    if args.cmd == "decompose":
        graph, part = _load(args.graph)
        constants = PipelineConstants()
        if args.constants:
            constants = _read_input(args.constants, _load_constants)
        hint = None
        if part is not None:
            hint = (
                sorted(set(part.A0) | set(part.A)),
                sorted(set(part.B0) | set(part.B)),
            )
        if args.theorem == "nwbip":
            if args.subgraph:
                sub, _ = _load(args.subgraph)
            elif args.D is not None:
                sub = regular_spanning_subgraph(graph, args.D, seed=args.seed)
            else:
                sub = graph
            report = run_theorem_NWbip(graph, sub, constants, seed=args.seed,
                                       hint_split=hint)
        else:
            report = run_theorem_1factbip(graph, constants, seed=args.seed,
                                          hint_split=hint)
        emit_report(report, args.out)
        status = "ok" if report.ok() else "failed"
        print(f"{status}: {len(report.cycles)} cycles -> {args.out}")
        return 0 if report.ok() else 1

    if args.cmd == "oracle":
        graph, _ = _load(args.graph)
        budget = SolverBudget(max_seconds=args.max_seconds)
        if args.op == "regeven":
            D, witness = reg_even(graph, budget)
            print(json.dumps({
                "reg_even": D,
                "witness_edges": [list(e) for e in sorted(witness.edges)],
            }, sort_keys=True))
            return 0
        if args.op == "chi":
            chi, cert = chromatic_index_regular(graph, budget)
            print(json.dumps({
                "chromatic_index": chi,
                "classes": [[list(e) for e in m] for m in cert],
            }, sort_keys=True))
            return 0
        res = exhaustive_hamilton_decomposition(graph, budget)
        print(json.dumps({
            "cycles": res.cycles,
            "matching": [list(e) for e in res.matching] if res.matching else None,
            "feasible": res.cycles is not None,
        }, sort_keys=True))
        return 0 if res.cycles is not None else 1
    return 2


def _rational(flag: str, text: str):
    """A rational command-line value such as ``1/4`` or ``0.25``."""
    try:
        return frac(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"malformed {flag}: {text!r}") from exc


def _load(path: str):
    """Graph file loader: JSON layout, or 'u v' lines for .txt files."""
    return _read_input(path, _load_edge_list if path.endswith(".txt") else load_graph)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_edge_list(path: str):
    return parse_edge_list(_read_text(path)), None


def _load_constants(path: str) -> PipelineConstants:
    doc = json.loads(_read_text(path))
    if not isinstance(doc, dict):
        raise TypeError("expected a JSON object")
    return PipelineConstants.from_json(doc)


def _read_input(path: str, parse):
    """``parse(path)``, with a missing, unreadable or malformed file raised
    as InputFileError; typed errors of the parser pass through."""
    try:
        return parse(path)
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise InputFileError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())
