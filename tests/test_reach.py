"""The reach ledger: a fixed set of driver runs under ``sys.setprofile``,
and every function of the package, methods and nested functions included,
either reached by them or named here with the reason no driver run reaches
it.  A new function that no run reaches fails until it is listed, and a
listed one that a run reaches fails until it is struck off."""

import ast
import gc
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import bipham
from bipham import hamkernel
from bipham.generators import eps_bipartite_instance
from bipham.graphs import Graph
from bipham.pipeline import PipelineConstants, run_theorem_1factbip, run_theorem_NWbip
from bipham.report import render_report

from test_pipeline import TOY_1FACT, _kmm_with_circulants

SRC = Path(bipham.__file__).resolve().parent
INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

# how many of each frozen benchmark workload's instances run, from the first
FROZEN = [("nwbip-exceptional", 20), ("nwbip-dense", 4), ("onefact-robust", 1)]

# small near-bipartite hosts with edges inside their sides, drawn as the
# contract tests draw them: (n, D, hubs, extra internal edges, seed, driver)
CENSUS = [
    (16, 6, 0, 2, 4, "onefact"),
    (24, 4, 2, 0, 3, "nwbip"),  # recolours a balanced colouring's last class
    (16, 4, 1, 0, 2, "onefact"),
]

# what the kernel that did not load leaves unreached: its search, and the
# split-and-switch engine that runs beside it (on the pure kernel, the
# Python engine, the one driver caller of matchings.degree_split here)
KERNEL_FUNCTIONS = {
    "c": {
        f"hamkernel/__init__.py: _c_kernel.<locals>.CGraphEnum.{name}"
        for name in ("__init__", "set_cap", "__iter__", "__next__",
                     "_release", "__del__")
    } | {f"hamkernel/__init__.py: {name}" for name in (
        "_ints", "class_degree_rows", "seed_words", "split_and_switch")},
    "pure": {
        f"hamkernel/_pure.py: {name}"
        for name in ("GraphEnum.__init__", "GraphEnum.set_cap",
                     "GraphEnum.__iter__", "GraphEnum.__next__", "_instance",
                     "_search", "_short")
    } | {f"switches.py: {name}" for name in (
        "pure_split_and_switch", "_check_input", "_level_needs",
        "_split_levels", "_cycles_of", "_find_swap", "_switch", "_repair")
    } | {"matchings.py: degree_split"},
}

CLI = "the command line, which calls the drivers"
ORACLE = "an oracle or referee: ``bipham oracle``, and the tests' referees"
GENERATOR = ("an instance generator: ``bipham generate`` and "
             "perfbench/freeze.py build the hosts the drivers take")
GRAPH_IO = "graph files, which the command line reads and writes"
LOADER = "the kernel loader, which runs once at import, before any driver"
REPR = "a repr, for debugging and test failure messages"
CONSTANTS = ("constants are built before a run, by the command line, the "
             "benchmark's worker or a test")
SCHEME = "the scheme check of ``bipham verify --level scheme``"
UNEQUAL_EXCEPTIONAL = (
    "unequal exceptional sets (a != b): every host here plants its hubs in "
    "pairs (ROADMAP item 15)")

# every function that no driver run above reaches, with the reason
UNREACHED = {
    **dict.fromkeys([
        "cli.py: main", "cli.py: _dispatch", "cli.py: _load",
        "cli.py: _load_constants", "cli.py: _load_edge_list",
        "cli.py: _rational", "cli.py: _read_input", "cli.py: _read_text",
        "report.py: emit_report",
    ], CLI),
    **dict.fromkeys([
        "graphs.py: _vertex_ids", "graphs.py: dump_graph",
        "graphs.py: graph_from_json", "graphs.py: graph_to_json",
        "graphs.py: load_graph", "graphs.py: parse_edge_list",
        "graphs.py: sorted_edge_list",
    ], GRAPH_IO),
    **dict.fromkeys([
        "generators.py: babai_instance",
        "generators.py: bipartite_degree_factor",
        "generators.py: complete_bipartite_instance",
        "generators.py: eps_bipartite_instance", "generators.py: generate",
        "generators.py: regular_spanning_subgraph",
        "generators.py: two_cliques_instance",
        "graphs.py: complete_bipartite",
    ], GENERATOR),
    **dict.fromkeys([
        "generators.py: verify_eps_bipartite",
        "solvers.py: _MatchingEnum.__init__", "solvers.py: _MatchingEnum._extend",
        "solvers.py: _MatchingEnum.matchings", "solvers.py: _OracleEnum.__init__",
        "solvers.py: _OracleEnum._extend", "solvers.py: _OracleEnum.cycles",
        "solvers.py: chromatic_index_regular",
        "solvers.py: chromatic_index_regular.<locals>.search",
        "solvers.py: exhaustive_hamilton_decomposition",
        "solvers.py: exhaustive_hamilton_decomposition.<locals>.search",
        "solvers.py: reg_even", "validate.py: check_matching",
        "solvers.py: Peel.rest",
    ], ORACLE),
    "validate.py: check_cycle_in_graph":
        "the benchmark's referee (perfbench/worker.py) and the tests'; the "
        "drivers check each cycle on the edge set they build for it once",
    "generators.py: degree_factor":
        "reg_even's degree-factor reduction (an oracle) and the generators'",
    **dict.fromkeys([
        "generators.py: near_bipartition",
        "generators.py: near_bipartition.<locals>.internal",
    ], "bip_decompose without a split: ``bipham decompose`` on a graph file "
       "with no partition; every run here passes its split"),
    **dict.fromkeys([
        "hamkernel/__init__.py: _load", "hamkernel/__init__.py: _build",
        "hamkernel/__init__.py: _c_kernel",
    ], LOADER),
    **dict.fromkeys([
        "graphs.py: Graph.__repr__", "graphs.py: LabelledPartition.__repr__",
        "graphs.py: PathSystem.__repr__",
    ], REPR),
    **dict.fromkeys([
        "graphs.py: Graph.__eq__", "graphs.py: Graph.__hash__",
        "graphs.py: PathSystem.__eq__", "graphs.py: PathSystem.__hash__",
    ], "a graph's or path system's value semantics, which the tests compare "
       "by"),
    **dict.fromkeys([
        "schemes.py: scheme_violations",
        "schemes.py: partition_structure_violations", "graphs.py: Graph.d",
        "graphs.py: LabelledPartition.m",
    ], SCHEME),
    **dict.fromkeys([
        "hamkernel/__init__.py: _c_kernel.<locals>.CGraphEnum.set_cap",
        "hamkernel/_pure.py: GraphEnum.set_cap",
    ], "a kernel call resumed after a deeper level of its peel failed, "
       "which lowers the call's cap; no run here backtracks since an "
       "approximate decomposition with an exact budget splits and switches"),
    **dict.fromkeys([
        "pipeline.py: PipelineConstants.__post_init__",
        "pipeline.py: PipelineConstants.as_json",
        "pipeline.py: PipelineConstants.from_json",
    ], CONSTANTS),
    "search.py: CycleSearch.first":
        "the benchmark's kernel micro-cases (perfbench/worker.py)",
    "graphs.py: Graph.has_edge":
        "a level search of one item, a prescribed path through every vertex "
        "(CycleSearch.cycles); no run's level has one",
    "graphs.py: Graph.is_regular": "the oracles' precondition",
    **dict.fromkeys([
        "graphs.py: LabelledPartition.swapped", "matchings.py: vizing_balanced",
    ], UNEQUAL_EXCEPTIONAL),
    **dict.fromkeys([
        "matchings.py: sparsify_split", "graphs.py: Graph.minus",
    ], "bes at gamma > 0, which no benchmark or default constants set "
       "(ROADMAP item 17)"),
    "bes.py: decompose_global.<locals>.side_systems":
        "global path-system pairs (k > 0), which bes builds only at K > 1 or "
        "eps4 > 0; since a framework with exceptional vertices packs the "
        "whole host at K = 1, no benchmark, ladder or default constants set "
        "either",
    "errors.py: AuxMatchingFailure.__init__":
        "the exceptional edges' assignment in bes failing; no run here fails "
        "it (ROADMAP item 18 asks for its Hall violator)",
    "matchings.py: kuhn_matching":
        "the exceptional edges' assignment in bes (_absorb_exceptional) with "
        "slots left open; no run here leaves one",
    "errors.py: RetryBudgetExceeded.__init__":
        "a randomized partition that spends its retries; no run here does",
    **dict.fromkeys([
        "switches.py: _stuck", "switches.py: _short", "switches.py: _late",
        "switches.py: _no_vertices", "switches.py: _bad_vertex",
        "switches.py: _bad_pool_edge", "switches.py: _bad_system_edge",
        "switches.py: _c_failure",
    ], "a split-and-switch failure, worded once for both engines; every "
       "engine call here closes"),
}


def _defined():
    """``module: qualified name`` of every function defined in the
    package, as ``co_qualname`` spells it."""
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(f"{module}: {prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), "")
    return found


def _frozen_runs():
    """One driver call per frozen instance, its files read as the
    benchmark's worker reads them: each checked against the manifest's
    sha256, none written."""
    digests = json.loads((INPUTS / "MANIFEST.json").read_bytes())["sha256"]

    def read(rel):
        data = (INPUTS / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digests[rel], rel
        return json.loads(data)

    for workload, count in FROZEN:
        spec = read(f"{workload}/instances.json")
        constants = PipelineConstants.from_json(spec["constants"])
        for inst in spec["instances"][:count]:
            doc = read(f"{workload}/{inst['graph']}.json")
            host = Graph(doc["n"], doc["edges"])
            sub = Graph(doc["n"], doc["sub_edges"]) if "sub_edges" in doc else host
            kw = dict(seed=inst["seed"], hint_split=tuple(doc["split"]))
            if spec["driver"] == "nwbip":
                yield lambda host=host, sub=sub, c=constants, kw=kw: (
                    run_theorem_NWbip(host, sub, c, **kw))
            else:
                yield lambda host=host, c=constants, kw=kw: (
                    run_theorem_1factbip(host, c, **kw))


def _driver_runs():
    yield from _frozen_runs()
    g, hint = _kmm_with_circulants(14, (1,))
    nwbip = PipelineConstants()
    yield lambda: run_theorem_1factbip(g, TOY_1FACT, seed=1, hint_split=hint)
    yield lambda: run_theorem_NWbip(g, g, nwbip, seed=1, hint_split=hint)
    k30, hint30 = _kmm_with_circulants(30, ())
    yield lambda: run_theorem_1factbip(k30, TOY_1FACT, seed=1, hint_split=hint30)
    # 4-regular on 7 + 7 vertices, two cross matchings and a 7-cycle inside
    # each side
    c7 = Graph(14, [(i, 7 + (i + j) % 7) for i in range(7) for j in (0, 1)]
               + [(s + i, s + (i + 1) % 7) for s in (0, 7) for i in range(7)])
    sides = (list(range(7)), list(range(7, 14)))
    yield lambda: run_theorem_1factbip(c7, TOY_1FACT, seed=1, hint_split=sides)
    # a spent node budget: K(12,12) around a 10-regular subgraph leaves its
    # approximate decomposition spare edges, so it searches level by level
    doc = json.loads((INPUTS / "nwbip-dense" / "K12-D10.json").read_bytes())
    k12, k12sub = Graph(doc["n"], doc["edges"]), Graph(doc["n"], doc["sub_edges"])
    starved = replace(nwbip, max_nodes=5)
    yield lambda: run_theorem_NWbip(k12, k12sub, starved, seed=1,
                                    hint_split=tuple(doc["split"]))
    for n, D, hubs, extra, seed, driver in CENSUS:
        f, part, _, sub = eps_bipartite_instance(
            n=n, D=D, eps="1/8", hubs=hubs, hub_degree=n // 4 + 1,
            extra_internal=extra, seed=seed)
        kw = dict(seed=1, hint_split=(list(part.A), list(part.B)))
        if driver == "nwbip":
            yield lambda f=f, sub=sub, kw=kw: run_theorem_NWbip(f, sub, nwbip, **kw)
        else:
            yield lambda sub=sub, kw=kw: run_theorem_1factbip(sub, TOY_1FACT, **kw)


def test_every_function_is_reached_or_listed():
    runs = list(_driver_runs())
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # a generator left suspended by an earlier test and closed by the
    # collector inside the window would count as reached
    gc.collect()
    sys.setprofile(profile)
    try:
        for run in runs:
            render_report(run())
    finally:
        sys.setprofile(None)
    reached = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if SRC in path.parents:
            reached.add(f"{path.relative_to(SRC).as_posix()}: {code.co_qualname}")
    defined = _defined()
    assert set(UNREACHED) <= defined, sorted(set(UNREACHED) - defined)
    other = "pure" if hamkernel.KERNEL == "c" else "c"
    expected = set(UNREACHED) | KERNEL_FUNCTIONS[other]
    unreached = defined - reached
    assert unreached == expected, {
        "reached by no run and not listed": sorted(unreached - expected),
        "listed but reached": sorted(expected - unreached),
    }
