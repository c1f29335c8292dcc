"""End-to-end pipelines, reports, determinism, CLI."""

import gc
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from bipham import hamkernel, pipeline, search, solvers
from bipham.cli import main as cli_main
from bipham.errors import BadParams, PreconditionViolated, Timeout
from bipham.generators import generate, regular_spanning_subgraph
from bipham.graphs import Graph, complete_bipartite, dump_graph, load_graph
from bipham.pipeline import (
    PipelineConstants,
    run_theorem_1factbip,
    run_theorem_NWbip,
)
from bipham.report import emit_report, render_report
from bipham.validate import (
    check_cycle_in_graph,
    check_decomposition,
    check_edge_disjoint,
    cycle_edges,
)
from bipham.walks import RobustDecomposition

TOY_1FACT = PipelineConstants(
    K1=7, L=1, f=1, g=2, ell_prime=4, gamma=0, gamma1=0,
    r1_override=2, min_interval=3, max_seconds=300.0, max_nodes=20_000_000,
)


def _digest(rep) -> str:
    return hashlib.sha256(render_report(rep).encode()).hexdigest()


def test_nwbip_on_complete_bipartite():
    g, part, props = generate("complete_bipartite", {"m": 4})
    hint = (list(part.A), list(part.B))
    rep = run_theorem_NWbip(g, g, PipelineConstants(), seed=1, hint_split=hint)
    assert rep.ok()
    assert len(rep.cycles) == 2
    assert not check_edge_disjoint([cycle_edges(c) for c in rep.cycles])
    assert all(e["conserved"] for e in rep.accounting)
    # pinned report: refactors of the drivers must leave it byte-identical
    assert _digest(rep) == (
        "534c67752c9e8f3a53b2ace41433eb056478e80db9883fcf8ac1b66badd64ac7"
    )


EXCEPTIONAL_INPUTS = (
    Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "nwbip-exceptional"
)


@pytest.mark.parametrize("name, seed, constants, digest", [
    # planted hubs make the exceptional sets, WF2, FR6 and the slices'
    # exceptional counts nontrivial
    ("n32-D8-h1-x1-s1001", 1001, {},
     "9e325ee76d70d92f9fe19178069056a03cbd8995bbf3262f4e02c1e5ed2f84e1"),
    # fails in the balanced-exceptional-systems stage
    ("n24-D8-h2-x0-s1008", 1008, {},
     "51764ae8ff91ecbbdb23a0858ac181edab3a27f13e2824f60bc69174397032a6"),
    # fails the weak-framework check with the text of a WF4 violation,
    # "a+b = 2 > eps*n = 6/25"
    ("n24-D6-h1-x1-s1002", 1002, {"eps0": Fraction(1, 100)},
     "58cd53507b01ba1e2fc0686804c242ae3953c33c585402b3d608480ef0f7e66c"),
])
def test_nwbip_reports_pinned_on_exceptional_hosts(name, seed, constants, digest):
    # frozen eps-bipartite hosts of the benchmark (the generator's subgraph
    # depends on the hash seed); reports must stay byte-identical
    doc = json.loads((EXCEPTIONAL_INPUTS / f"{name}.json").read_text())
    host = Graph(doc["n"], doc["edges"])
    sub = Graph(doc["n"], doc["sub_edges"])
    rep = run_theorem_NWbip(host, sub, PipelineConstants(**constants), seed=seed,
                            hint_split=tuple(doc["split"]))
    assert _digest(rep) == digest


@pytest.mark.parametrize("case", [
    "n32-D8-h1-x1-s1001", "n24-D8-h2-x0-s1008", "n24-D6-h1-x1-s1002", "K28-s1",
])
def test_reports_identical_on_both_kernels(monkeypatch, case):
    # the hosts of test_nwbip_reports_pinned_on_exceptional_hosts and the
    # 1-factorization of K(28,28): a report does not depend on the kernel
    if case == "K28-s1":
        g, part, props = generate("complete_bipartite", {"m": 28})
        hint = (list(part.A), list(part.B))

        def run():
            return run_theorem_1factbip(g, TOY_1FACT, seed=1, hint_split=hint)
    else:
        doc = json.loads((EXCEPTIONAL_INPUTS / f"{case}.json").read_text())
        host, sub = Graph(doc["n"], doc["edges"]), Graph(doc["n"], doc["sub_edges"])
        eps0 = {"eps0": Fraction(1, 100)} if case.endswith("s1002") else {}

        def run():
            return run_theorem_NWbip(
                host, sub, PipelineConstants(**eps0), seed=int(case[-4:]),
                hint_split=tuple(doc["split"]),
            )
    if shutil.which("cc") is not None:
        assert hamkernel.KERNEL == "c"
    assert search.cycle_enumerator is hamkernel.cycle_enumerator
    on_default = render_report(run())
    monkeypatch.setattr(search, "cycle_enumerator", hamkernel.PureGraphEnum)
    assert render_report(run()) == on_default


def test_drivers_do_not_load_networkx():
    # networkx serves only the generators' degree factors and the oracle;
    # a fresh process that runs both drivers never imports it
    code = f"""
import json, sys
import bipham, bipham.cli
from bipham.generators import generate
from bipham.graphs import Graph
from bipham.pipeline import PipelineConstants, run_theorem_1factbip, run_theorem_NWbip
doc = json.loads(open({str(EXCEPTIONAL_INPUTS / "n32-D8-h1-x1-s1001.json")!r}).read())
host, sub = Graph(doc["n"], doc["edges"]), Graph(doc["n"], doc["sub_edges"])
nw = run_theorem_NWbip(host, sub, PipelineConstants(), seed=1001,
                       hint_split=tuple(doc["split"]))
g, part, _ = generate("complete_bipartite", {{"m": 28}})
toy = PipelineConstants.from_json(json.loads({json.dumps(TOY_1FACT.as_json())!r}))
one = run_theorem_1factbip(g, toy, seed=1, hint_split=(list(part.A), list(part.B)))
print(nw.ok(), one.ok(), "networkx" in sys.modules)
"""
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "True", "False"]


def test_nwbip_stage_failure_marks_downstream_skipped():
    g, part, props = generate("complete_bipartite", {"m": 3})  # odd degree
    rep = run_theorem_NWbip(g, g, PipelineConstants(), seed=0,
                            hint_split=(list(part.A), list(part.B)))
    assert not rep.ok()
    assert rep.stages[0].status == "failed"
    assert rep.stages[-1].status == "skipped"
    assert rep.cycles == []


def test_reports_deterministic_and_round_trip(tmp_path):
    g, part, props = generate("complete_bipartite", {"m": 5})
    sub = regular_spanning_subgraph(g, 4, seed=3)
    hint = (list(part.A), list(part.B))
    rep1 = run_theorem_NWbip(g, sub, PipelineConstants(), seed=9, hint_split=hint)
    rep2 = run_theorem_NWbip(g, sub, PipelineConstants(), seed=9, hint_split=hint)
    assert render_report(rep1) == render_report(rep2)
    rep3 = run_theorem_NWbip(g, sub, PipelineConstants(), seed=10, hint_split=hint)
    assert rep3.ok()  # different seed still succeeds
    path = tmp_path / "r.json"
    emit_report(rep1, str(path))
    doc = json.loads(path.read_text())
    assert doc == rep1.as_json()  # emit/parse round trip is lossless
    assert doc["seed"] == 9
    assert doc["decomposition"]["cycles"] == [list(c) for c in rep1.cycles]
    assert all(st["paper_ref"] for st in doc["stages"])


def test_onefact_full_run():
    g, part, props = generate("complete_bipartite", {"m": 28})
    hint = (list(part.A), list(part.B))
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=1, hint_split=hint)
    assert rep.ok()
    assert len(rep.cycles) == 14
    assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])
    assert _digest(rep) == (
        "b88749bfcf8e7f91318ae2fa2791284f09af4c50d1ba20ce36852ea139b9f161"
    )


@pytest.mark.parametrize("seed, digest", [
    (2, "5faa6c69db86887e8cd1131180f26a3de191a7378a4a93e2a81a3cd5e1fe6da8"),
    (3, "0cdf6e964cbfddfdfa1b80db730db0ad298c4eb11fc019ab01ded0799e131841"),
])
def test_onefact_closure_finishes(seed, digest):
    # the closure needs the kernel's prune to fire on these seeds: with
    # path interiors in the port masks, seed 2 spent all of its nodes and
    # seed 3 three of its four restarts; with item orders that all had a
    # quarter of a restart, one closure level took up to 1.03 M nodes
    g, part, props = generate("complete_bipartite", {"m": 28})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=seed,
                               hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])
    assert _digest(rep) == digest


def test_onefact_k42_heavy_tailed_level_finishes():
    # under a single item order, level 0 of the approximate decomposition
    # spent all 20 M nodes on this seed; restarts on the cap schedule cut
    # that order's heavy tail
    g, part, props = generate("complete_bipartite", {"m": 42})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=3,
                               hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])


def _slow_clock(monkeypatch, step):
    # every reading is ``step`` seconds after the previous one, as on a
    # machine far slower than this one
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: step * next(ticks))


def test_closure_outcome_independent_of_clock(monkeypatch):
    # the closure restarts on node budgets: a slow machine gets the same
    # cycles as long as it stays inside the wall-clock safety net
    calls = []
    closure = RobustDecomposition.closure

    def record(self, h, **kwargs):
        calls.append((self, h, kwargs))
        return closure(self, h, **kwargs)

    monkeypatch.setattr(RobustDecomposition, "closure", record)
    g, part, props = generate("complete_bipartite", {"m": 28})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=1,
                               hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    [(rd, h, kwargs)] = calls
    expected = closure(rd, h, **kwargs)
    assert kwargs["max_seconds"] == 300.0
    _slow_clock(monkeypatch, 10.0)  # 14 kernel calls: 150 s of 300
    assert closure(rd, h, **kwargs) == expected
    with pytest.raises(Timeout, match="not reproducible") as exc:
        closure(rd, h, **{**kwargs, "max_seconds": 100.0})
    assert exc.typename == "WallClockExceeded"


def test_wall_clock_overrun_lands_in_report(monkeypatch):
    g, part, props = generate("complete_bipartite", {"m": 4})
    _slow_clock(monkeypatch, 1000.0)
    rep = run_theorem_NWbip(g, g, PipelineConstants(), seed=1,
                            hint_split=(list(part.A), list(part.B)))
    assert not rep.ok()
    failed = [st for st in rep.stages if st.status == "failed"]
    assert len(failed) == 1
    assert failed[0].error.startswith("WallClockExceeded: ")
    assert "not reproducible" in failed[0].error


@pytest.mark.parametrize("theorem,m", [
    ("nwbip", 8), ("onefact", 28),
    # frozen hosts with exceptional vertices: one run that succeeds, one
    # whose six attempts fail in the balanced-exceptional-systems stage
    ("nwbip", "n32-D8-h1-x1-s1001"), ("nwbip", "n24-D8-h2-x0-s1008"),
])
def test_driver_run_leaves_no_reference_cycles(theorem, m):
    # a run's graphs and search state are freed by reference counting, so
    # repeated runs in one process keep a flat memory high-water mark
    # without waiting for the cycle collector
    if isinstance(m, str):
        doc = json.loads((EXCEPTIONAL_INPUTS / f"{m}.json").read_text())
        g, sub = Graph(doc["n"], doc["edges"]), Graph(doc["n"], doc["sub_edges"])
        hint, seed = tuple(doc["split"]), int(m.rsplit("-s", 1)[1])
    else:
        g, part, props = generate("complete_bipartite", {"m": m})
        sub, hint, seed = g, (list(part.A), list(part.B)), 1
    gc.collect()
    gc.disable()
    try:
        if theorem == "nwbip":
            rep = run_theorem_NWbip(g, sub, PipelineConstants(), seed=seed,
                                    hint_split=hint)
        else:
            rep = run_theorem_1factbip(g, TOY_1FACT, seed=seed, hint_split=hint)
        assert rep.ok() == (m != "n24-D8-h2-x0-s1008")
        del rep
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_render_report_leaves_no_reference_cycles():
    # the text is json.dumps(..., indent=1, sort_keys=True)'s, written
    # without the pure-Python encoder's self-recursive closures
    g, part, props = generate("complete_bipartite", {"m": 4})
    rep = run_theorem_NWbip(g, g, PipelineConstants(), seed=1,
                            hint_split=(list(part.A), list(part.B)))
    gc.collect()
    gc.disable()
    try:
        text = render_report(rep)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == json.dumps(rep.as_json(), indent=1, sort_keys=True) + "\n"


def _kmm_with_circulants(m, steps):
    # K(m,m) plus the circulant C_m(steps) inside each side, with the sides
    # as the split: (m + 2 len(steps))-regular on 2m vertices
    edges = set(complete_bipartite((m, m)).edges)
    for side in (0, m):
        for i in range(m):
            for d in steps:
                u, v = side + i, side + (i + d) % m
                edges.add((min(u, v), max(u, v)))
    return Graph(2 * m, edges), (list(range(m)), list(range(m, 2 * m)))


def test_onefact_degree_reduction_peels_a_hamilton_cycle(monkeypatch):
    # a 14-cycle inside each side: 16-regular on 28 vertices, so one
    # Hamilton cycle must go before the degree is at most n/2
    g, hint = _kmm_with_circulants(14, (1,))
    assert set(g.degrees()) == {16}
    peels = []
    peel_cycles = pipeline.peel_cycles

    def record(*args, **kwargs):
        peels.append(peel_cycles(*args, **kwargs))
        return peels[-1]

    monkeypatch.setattr(pipeline, "peel_cycles", record)
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=1, hint_split=hint)
    st = rep.stages[0]
    assert st.name == "input" and st.status == "ok"
    checks = {c.ident: c.witness for c in st.checks}
    assert checks["degree-reduced"] == 1
    assert checks["degree-at-most-half"] == 14
    [peel] = peels
    [cyc] = peel.cycles
    assert not check_cycle_in_graph(g, cyc)


def test_onefact_degree_reduction_budget_is_a_timeout():
    # a spent node budget is not evidence that no Hamilton cycle exists
    g, hint = _kmm_with_circulants(14, (1,))
    rep = run_theorem_1factbip(g, replace(TOY_1FACT, max_nodes=5), seed=1,
                               hint_split=hint)
    st = rep.stages[0]
    assert st.name == "input" and st.status == "failed"
    assert st.error.startswith("Timeout: node budget 5 spent")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_onefact_degree_reduction_peels_four_levels(monkeypatch, seed):
    # C20(1,2,3,4) inside each side: 28-regular on 40 vertices, so four
    # Hamilton cycles must go; under one item order at every level, the
    # first three leave a graph whose fourth level spends the whole budget
    g, hint = _kmm_with_circulants(20, (1, 2, 3, 4))
    assert set(g.degrees()) == {28}
    peels = []
    peel_cycles = pipeline.peel_cycles

    def record(*args, **kwargs):
        peels.append(peel_cycles(*args, **kwargs))
        return peels[-1]

    monkeypatch.setattr(pipeline, "peel_cycles", record)
    rep = run_theorem_1factbip(g, replace(TOY_1FACT, max_nodes=200_000),
                               seed=seed, hint_split=hint)
    st = rep.stages[0]
    assert st.name == "input" and st.status == "ok"
    checks = {c.ident: c.witness for c in st.checks}
    assert checks["degree-reduced"] == 4
    assert checks["degree-at-most-half"] == 20
    [peel] = peels
    assert len(peel.cycles) == 4
    assert all(not check_cycle_in_graph(g, c) for c in peel.cycles)
    assert not check_edge_disjoint([cycle_edges(c) for c in peel.cycles])


@pytest.mark.parametrize("seed", [1, 12])
def test_nwbip_at_degree_m_peels_every_level(seed):
    # D = m on K(12,12): all six systems are empty and the approximate
    # decomposition peels all of K(12,12), the last level taking whatever
    # is left; under one item order at every level the early levels peel
    # alike cycles and the budget runs out at level 5
    g, part, props = generate("complete_bipartite", {"m": 12})
    rep = run_theorem_NWbip(g, g, replace(PipelineConstants(), max_nodes=100_000),
                            seed=seed, hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    assert len(rep.cycles) == 6
    assert all(not check_cycle_in_graph(g, c) for c in rep.cycles)
    assert not check_edge_disjoint([cycle_edges(c) for c in rep.cycles])


def test_level_searches_get_their_own_item_orders(monkeypatch):
    # the approximate decomposition and the degree reduction give every
    # (level, order) its own seed; level 0, order 0 keeps the peel's seed
    calls = []

    def record_levels(module):
        peel = module.peel_cycles

        def wrapped(level_search, *args, **kwargs):
            def level(i, pool, order, cap):
                calls.append([module.__name__, i, order, None])
                return level_search(i, pool, order, cap)
            return peel(level, *args, **kwargs)
        monkeypatch.setattr(module, "peel_cycles", wrapped)

    def record_seed(module, name):
        search = getattr(module, name)

        def wrapped(*args, seed=0, **kwargs):
            calls[-1][3] = seed
            return search(*args, seed=seed, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    record_levels(pipeline)
    record_levels(solvers)
    record_seed(pipeline, "CycleSearch")
    record_seed(solvers, "consistent_cycle_search")

    g, hint = _kmm_with_circulants(20, (1, 2, 3, 4))
    run_theorem_1factbip(g, replace(TOY_1FACT, max_nodes=200_000), seed=1,
                         hint_split=hint)
    k12, part, props = generate("complete_bipartite", {"m": 12})
    run_theorem_NWbip(k12, k12, replace(PipelineConstants(), max_nodes=100_000),
                      seed=5, hint_split=(list(part.A), list(part.B)))
    for module, first, depth in [("bipham.pipeline", 0, 4),
                                 ("bipham.solvers", 5, 6)]:
        seeds = {}
        for name, i, order, seed in calls:
            if name == module:
                seeds.setdefault((i, order), set()).add(seed)
        assert sorted(seeds) == [(i, 0) for i in range(depth)]
        assert all(len(s) == 1 for s in seeds.values())
        flat = [s for (s,) in seeds.values()]
        assert len(set(flat)) == len(flat)
        assert seeds[(0, 0)] == {first}


def test_onefact_rejects_odd_degree():
    g, part, props = generate("complete_bipartite", {"m": 5})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=0,
                               hint_split=(list(part.A), list(part.B)))
    assert not rep.ok()
    assert rep.stages[0].status == "failed"


def test_onefact_parameter_failure_lands_in_report(tmp_path):
    # r3 = 2rK/L = 2/3 is not integral: deriving the robust parameters
    # raises, and that must fail its stage rather than escape the driver
    g, part, props = generate("complete_bipartite", {"m": 12})
    consts = PipelineConstants(
        K1=1, L=3, f=1, g=2, ell_prime=4, gamma=Fraction(1, 12), gamma1=0,
        r1_override=2, min_interval=3,
    )
    rep = run_theorem_1factbip(g, consts, seed=1,
                               hint_split=(list(part.A), list(part.B)))
    assert not rep.ok()
    failed = [st for st in rep.stages if st.status == "failed"]
    assert [st.name for st in failed] == ["robust-parameters"]
    assert failed[0].error == "PreconditionViolated: r3 = 2rK/L not integral"
    assert (rep.stages[-1].name, rep.stages[-1].status) == ("remaining", "skipped")

    inst = tmp_path / "k12.json"
    cli_main(["generate", "--kind", "complete_bipartite",
              "--params", '{"m": 12}', "-o", str(inst)])
    consts_path = tmp_path / "c.json"
    consts_path.write_text(json.dumps(consts.as_json()))
    rep_path = tmp_path / "rep.json"
    rc = cli_main([
        "decompose", "--theorem", "onefact", "--constants", str(consts_path),
        "--seed", "1", str(inst), "-o", str(rep_path),
    ])
    assert rc == 1
    assert json.loads(rep_path.read_text()) == rep.as_json()


def test_repartition_exceptional_maximizes_cut():
    from bipham.graphs import LabelledPartition
    from bipham.pipeline import _repartition_exceptional

    # two exceptional vertices: 8 sends 3 edges to the B side, 9 sends 3 to
    # the A side; the optimal split puts 8 with A and 9 with B
    edges = [(8, i) for i in (4, 5, 6)] + [(9, i) for i in (0, 1, 2)]
    g = Graph(10, edges)
    part = LabelledPartition(10, [9], [0, 1, 2, 3], [8], [4, 5, 6, 7])
    a0, b0 = _repartition_exceptional(g, part)
    assert a0 == [8] and b0 == [9]


def test_uniform_refinement_handles_digraphs():
    from bipham.graphs import Digraph, LabelledPartition
    from bipham.partitioning import uniform_refinement

    arcs = [(i, 4 + j) for i in range(4) for j in range(4)]
    arcs += [(4 + j, i) for i in range(4) for j in range(4) if (i + j) % 2]
    d = Digraph(8, arcs)
    part = LabelledPartition(8, [], range(4), [], range(4, 8),
                             clusters_A=[[0, 1, 2, 3]],
                             clusters_B=[[4, 5, 6, 7]])
    cert = uniform_refinement(d, part, 2, "3/4", seed=0)
    assert cert.child.L == 2


def test_cli_generate_verify_oracle_decompose(tmp_path):
    out = tmp_path / "inst.json"
    rc = cli_main([
        "generate", "--kind", "babai", "--params", '{"k": 1}',
        "--seed", "0", "-o", str(out),
    ])
    assert rc == 0 and out.exists()
    g, part = load_graph(str(out))
    assert g.n == 10 and part is not None

    rc = cli_main(["oracle", "--op", "regeven", str(out)])
    assert rc == 0

    rep_path = tmp_path / "report.json"
    rc = cli_main([
        "decompose", "--theorem", "nwbip", "--D", "2", "--seed", "1",
        str(out), "-o", str(rep_path),
    ])
    assert rc == 0
    doc = json.loads(rep_path.read_text())
    assert len(doc["decomposition"]["cycles"]) == 1

    # verify subcommand on a clean framework instance
    k66 = tmp_path / "k66.json"
    cli_main(["generate", "--kind", "complete_bipartite",
              "--params", '{"m": 6}', "-o", str(k66)])
    rc = cli_main(["verify", "--level", "framework", "--K", "2", str(k66)])
    assert rc == 0

    # remaining oracle operations
    k4 = tmp_path / "k4.json"
    dump_graph(str(k4), Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    assert cli_main(["oracle", "--op", "chi", str(k4)]) == 0
    assert cli_main(["oracle", "--op", "hamdecomp", str(k4)]) == 0

    # balanced-system verification of a path-system file
    bes = tmp_path / "bes.json"
    from bipham.graphs import LabelledPartition, graph_to_json
    import json as _json

    part = LabelledPartition(4, [0], [1], [], [2, 3])
    doc = graph_to_json(Graph(4, [(0, 1), (0, 2)]), part)
    bes.write_text(_json.dumps(doc))
    assert cli_main(["verify", "--level", "bes", str(bes)]) == 0


def test_cli_onefact(tmp_path):
    inst = tmp_path / "k88.json"
    cli_main(["generate", "--kind", "complete_bipartite",
              "--params", '{"m": 8}', "-o", str(inst)])
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({
        "K1": 2, "L": 1, "f": 1, "g": 2, "ell_prime": 4,
        "gamma": "0", "gamma1": "0", "r1_override": 1, "min_interval": 3,
    }))
    rep_path = tmp_path / "rep.json"
    rc = cli_main([
        "decompose", "--theorem", "onefact", "--constants", str(consts),
        "--seed", "2", str(inst), "-o", str(rep_path),
    ])
    doc = json.loads(rep_path.read_text())
    # K1=2 cannot host the seven switcher intervals: the run must fail
    # honestly with a recorded stage error, or succeed if parameters allow
    assert rc in (0, 1)
    assert doc["stages"]


def test_cli_unloadable_inputs_exit_2(tmp_path, capsys):
    # a missing, unreadable or malformed graph or constants file, or
    # malformed generator parameters, is one error line and exit 2, never a
    # traceback or exit 1 ("report written")
    inst = tmp_path / "k44.json"
    cli_main(["generate", "--kind", "complete_bipartite",
              "--params", '{"m": 4}', "-o", str(inst)])
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"n": 3')
    no_edges = tmp_path / "no_edges.json"
    no_edges.write_text('{"n": 3}')
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    missing = str(tmp_path / "missing.json")
    rep_path = tmp_path / "rep.json"
    for args in [
        ["decompose", "--theorem", "nwbip", missing],
        # a directory cannot be read
        ["decompose", "--theorem", "nwbip", str(tmp_path)],
        ["decompose", "--theorem", "nwbip", str(truncated)],
        ["decompose", "--theorem", "nwbip", str(no_edges)],
        ["decompose", "--theorem", "nwbip", "--subgraph", missing, str(inst)],
        ["decompose", "--theorem", "onefact", "--constants", missing, str(inst)],
        ["decompose", "--theorem", "onefact", "--constants", str(truncated),
         str(inst)],
        ["decompose", "--theorem", "onefact", "--constants", str(not_object),
         str(inst)],
        ["generate", "--kind", "complete_bipartite", "--params", "{bad"],
    ]:
        capsys.readouterr()
        rc = cli_main([*args, "-o", str(rep_path)])
        err = capsys.readouterr().err
        assert rc == 2, args
        assert err.startswith("error: InputFileError: "), err
        assert err.count("\n") == 1, err
        assert not rep_path.exists()


def test_cli_malformed_rationals_exit_2(tmp_path, capsys):
    # a bad --eps or --eps-prime is one error line and exit 2, not a
    # traceback and exit 1 ("violations found")
    inst = tmp_path / "k44.json"
    cli_main(["generate", "--kind", "complete_bipartite",
              "--params", '{"m": 4}', "-o", str(inst)])
    for level in ("framework", "scheme"):
        for flag, value in [("--eps", "abc"), ("--eps", "1/0"),
                            ("--eps-prime", "1/x"), ("--eps-prime", "0/0")]:
            capsys.readouterr()
            rc = cli_main(["verify", "--level", level, flag, value, str(inst)])
            err = capsys.readouterr().err
            assert rc == 2, (level, flag, value)
            assert err == f"error: BadParams: malformed {flag}: {value!r}\n", err
    capsys.readouterr()
    assert cli_main(["verify", "--level", "framework", "--eps", "0.5",
                     "--eps-prime", "1/4", str(inst)]) == 0


def test_unknown_constants_rejected(tmp_path, capsys):
    # a misspelt key used to leave its constant at the default unnoticed
    with pytest.raises(BadParams, match="unknown constants max_node, tau$"):
        PipelineConstants.from_json({"tau": 1, "max_node": 5, "L": 1})
    inst = tmp_path / "k44.json"
    cli_main(["generate", "--kind", "complete_bipartite",
              "--params", '{"m": 4}', "-o", str(inst)])
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({"max_node": 5}))
    rep_path = tmp_path / "rep.json"
    capsys.readouterr()
    rc = cli_main(["decompose", "--theorem", "onefact", "--constants",
                   str(consts), str(inst), "-o", str(rep_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: BadParams: unknown constants max_node\n")
    assert not rep_path.exists()


@pytest.mark.parametrize("name", ["K1", "L"])
def test_zero_divisor_constants_rejected(tmp_path, capsys, name):
    with pytest.raises(PreconditionViolated, match=f"constant {name} = 0"):
        PipelineConstants(**{name: 0})
    inst = tmp_path / "k44.json"
    cli_main(["generate", "--kind", "complete_bipartite",
              "--params", '{"m": 4}', "-o", str(inst)])
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({name: 0}))
    rep_path = tmp_path / "rep.json"
    capsys.readouterr()
    rc = cli_main(["decompose", "--theorem", "onefact", "--constants",
                   str(consts), str(inst), "-o", str(rep_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: PreconditionViolated: constant {name} = 0 must be at least 1\n"
    )
    assert not rep_path.exists()
