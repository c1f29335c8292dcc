"""End-to-end pipelines, reports, determinism, CLI."""

import gc
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from bipham import balancer, hamkernel, pipeline, search, solvers, switches
from bipham.cli import main as cli_main
from bipham.errors import BadParams, PreconditionViolated, Timeout
from bipham.generators import generate, regular_spanning_subgraph
from bipham.graphs import (
    Graph,
    complete_bipartite,
    dump_graph,
    load_graph,
)
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
        "9ef1b0f4a1987b777fac484c63e9901f513807b92f96e82ff67e04b13200af1c"
    )


EXCEPTIONAL_INPUTS = (
    Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "nwbip-exceptional"
)


def _exceptional_input(name):
    doc = json.loads((EXCEPTIONAL_INPUTS / f"{name}.json").read_text())
    return (Graph(doc["n"], doc["edges"]), Graph(doc["n"], doc["sub_edges"]),
            tuple(doc["split"]))


# the pinned reports' parameters; each test is named by its instance and
# seed, so re-pinning a digest does not rename it
EXCEPTIONAL_PINS = [
    # planted hubs make the exceptional sets, WF2, FR6 and the slices'
    # exceptional counts nontrivial
    ("n32-D8-h1-x1-s1001", 1001, {},
     "0e9029c4bc02771c633c0f09a4994238566078eea4ec0ade0af76244e5835e37"),
    # two hubs that share B-neighbors: the cut elimination takes the shared
    # ones first, so each hub keeps neighbors of its own in the designated
    # cluster and the balanced-exceptional-systems stage attaches both at
    # the first attempt
    ("n24-D8-h2-x0-s1008", 1008, {},
     "8869d2107e0a3fa95ecb3e95bb40d545878a263d9203ed76e69ba0a2b4c6dde3"),
    ("n24-D8-h2-x0-s1131", 1131, {},
     "2d942d1c5f66445172bce4699e004de5672e90d4d913e96d7bb4c84881a73eae"),
    # fails the weak-framework check with the text of a WF4 violation,
    # "a+b = 2 > eps*n = 6/25"
    ("n24-D6-h1-x1-s1002", 1002, {"eps0": Fraction(1, 100)},
     "58cd53507b01ba1e2fc0686804c242ae3953c33c585402b3d608480ef0f7e66c"),
]


@pytest.mark.parametrize("name, seed, constants, digest", EXCEPTIONAL_PINS,
                         ids=[name for name, *_ in EXCEPTIONAL_PINS])
def test_nwbip_reports_pinned_on_exceptional_hosts(name, seed, constants, digest):
    # frozen eps-bipartite hosts of the benchmark (the generator's subgraph
    # depends on the hash seed); reports must stay byte-identical
    host, sub, hint = _exceptional_input(name)
    rep = run_theorem_NWbip(host, sub, PipelineConstants(**constants), seed=seed,
                            hint_split=hint)
    assert _digest(rep) == digest


def _packed_at_first_attempt(rep, host, D):
    assert rep.ok(), [st.error for st in rep.stages if st.error]
    assert not any("reshuffling" in w for w in rep.warnings)
    assert len(rep.cycles) == D // 2
    for cyc in rep.cycles:
        assert not check_cycle_in_graph(host, cyc)
    assert not check_edge_disjoint([cycle_edges(c) for c in rep.cycles])


def test_cut_decomposition_is_sized_to_the_degree():
    # vertex 1 has cut degree 2 at D = 4: Vizing's three matchings would
    # ask it for degree 6, König's two fit
    host, sub, hint = _exceptional_input("n24-D4-h2-x1-s1142")
    c = PipelineConstants()
    fw = balancer.bip_decompose(host, sub, c.K, c.eps0, c.eps_prime,
                                hint_split=hint)
    part = fw.partition
    cut = Graph(fw.graph.n, fw.graph.edges_between(part.A0, part.B0))
    assert (fw.D, cut.max_degree()) == (4, 2)
    assert len(balancer.cover_A0B0_by_path_systems(fw)) == 2
    rep = run_theorem_NWbip(host, sub, c, seed=1142, hint_split=hint)
    _packed_at_first_attempt(rep, host, 4)


def test_every_frozen_exceptional_host_packs_at_its_first_attempt():
    spec = json.loads((EXCEPTIONAL_INPUTS / "instances.json").read_text())
    assert len(spec["instances"]) == 200
    for inst in spec["instances"]:
        host, sub, hint = _exceptional_input(inst["graph"])
        rep = run_theorem_NWbip(host, sub, PipelineConstants(),
                                seed=inst["seed"], hint_split=hint)
        _packed_at_first_attempt(rep, host, rep.instance["D"])


TWO_HUB_DRAW = """
import json, random
from bipham.errors import BadParams
from bipham.generators import eps_bipartite_instance
rng = random.Random(7)
gen_seed, hosts = 7000, []
while len(hosts) < 30:
    gen_seed += 1
    n, D = rng.choice([24, 32, 40, 48, 56, 64]), rng.choice([4, 6, 8])
    hubs, extra = rng.choice([1, 2, 2]), rng.randint(0, 2)
    if hubs == 1:
        continue
    try:
        host, part, _, sub = eps_bipartite_instance(
            n=n, D=D, eps="1/8", hubs=2, hub_degree=n // 4 + 1,
            extra_internal=extra, seed=gen_seed)
    except BadParams:  # the internal edge budget is blown
        continue
    hosts.append([gen_seed, n, D, sorted(host.edges), sorted(sub.edges),
                  sorted(part.A), sorted(part.B)])
print(json.dumps(hosts))
"""


def test_two_hub_hosts_pack_at_their_first_attempt():
    # the draw of perfbench/freeze.py at seed 7 with hubs from [1, 2, 2],
    # two-hub hosts only; drawn in a fresh process under a fixed hash seed
    # and pinned by digest, so every run checks the same 30 hosts
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", TWO_HUB_DRAW],
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONHASHSEED="0",
                                  PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == (
        "cf187ded148c911a6fb1c95b94fd3381578b9ffba7fc144e81852137f1c98f60"
    )
    for gen_seed, n, D, edges, sub_edges, a, b in json.loads(run.stdout):
        host = Graph(n, [tuple(e) for e in edges])
        sub = Graph(n, [tuple(e) for e in sub_edges])
        rep = run_theorem_NWbip(host, sub, PipelineConstants(), seed=gen_seed,
                                hint_split=(a, b))
        _packed_at_first_attempt(rep, host, D)


DENSE_INPUTS = EXCEPTIONAL_INPUTS.parent / "nwbip-dense"


DENSE_PINS = [
    ("K12-D10", 12,
     "718666fe1e0d35ae48197d1efbca013ec0d32c1b48240da7521fcebf2eb950dd"),
    ("K14-D10", 14,
     "5d19d5b6335124f7833111bbd491c8d1b0c0fb8fd909f2ee3217635f2b0c8848"),
    ("K16-D10", 16,
     "2006b0906dc61cd93d3132c967ca06456b02959ac9c8a0cd75785b5d60e70c13"),
    # past 64 instance vertices; the largest pool of the five
    ("K34-D10", 34,
     "993feab6ae3ac1ece24d2b30c173ebf1feef20b216f92ff7f26a85ad5afa555f"),
    ("K12-D12", 12,
     "148757a92178d67c5dd535d7b6f5da87dc1028146fca17b506dce03a4d89249f"),
]


@pytest.mark.parametrize("name, seed, digest", DENSE_PINS,
                         ids=[f"{name}-s{seed}" for name, seed, _ in DENSE_PINS])
def test_nwbip_reports_pinned_on_dense_hosts(name, seed, digest):
    # the frozen complete bipartite hosts of the benchmark, where A0 u B0
    # ends up empty and the approximate decomposition searches on the
    # vertex ids as they are; reports must stay byte-identical
    doc = json.loads((DENSE_INPUTS / f"{name}.json").read_text())
    host = Graph(doc["n"], doc["edges"])
    sub = Graph(doc["n"], doc["sub_edges"])
    rep = run_theorem_NWbip(host, sub, PipelineConstants(), seed=seed,
                            hint_split=tuple(doc["split"]))
    assert rep.ok()
    assert _digest(rep) == digest


def test_nwbip_packs_nothing_after_an_elimination_to_degree_zero(monkeypatch):
    # the cut cycles of this frozen host already take the whole degree 4:
    # the run is ok at its first attempt, and no cluster partition, systems
    # or approximate decomposition follows the elimination
    calls = []
    partition = pipeline.framework_partition

    def counted(*args, **kwargs):
        calls.append(args)
        return partition(*args, **kwargs)

    monkeypatch.setattr(pipeline, "framework_partition", counted)
    doc = json.loads((EXCEPTIONAL_INPUTS / "n24-D4-h2-x0-s1041.json").read_text())
    rep = run_theorem_NWbip(Graph(doc["n"], doc["edges"]),
                            Graph(doc["n"], doc["sub_edges"]),
                            PipelineConstants(), seed=1041,
                            hint_split=tuple(doc["split"]))
    assert rep.ok() and not any("reshuffling" in w for w in rep.warnings)
    assert calls == []
    assert [s.name for s in rep.stages] == [
        "input", "eliminate-exceptional-cut", "final-validation"]
    count = {c.ident: c.witness for c in rep.stages[-1].checks}["count-identity"]
    assert count == [2, 0, 0]
    assert [e["stage"] for e in rep.accounting] == ["elimination"]


def test_onefact_packs_with_the_nwbip_stages():
    # the 1-factorization packs the host around itself with NW-bip's own
    # elimination, partition, systems and approximation, and checks that
    # the cycles decompose it
    g, part, props = generate("complete_bipartite", {"m": 56})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=1,
                               hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    assert [s.name for s in rep.stages] == [
        "input", "eliminate-exceptional-cut", "cluster-partition",
        "balanced-exceptional-systems", "approximate-decomposition",
        "final-validation",
    ]
    assert [e["stage"] for e in rep.accounting] == [
        "elimination", "bes-cycles", "approx"]
    checks = [c.ident for c in rep.stages[1].checks]
    assert checks[-3:] == ["cut-cycles", "reduction-bound", "parity-preserved"]
    assert rep.stages[-1].checks[-1].ident == "exact-decomposition"


@pytest.mark.parametrize("case", [
    "n32-D8-h1-x1-s1001", "n24-D8-h2-x0-s1008", "n24-D6-h1-x1-s1002",
    "n24-D8-h2-x0-s1131", "K28-s1",
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


def kernel_free_digests():
    """The report digests of ``run_theorem_1factbip`` on K(28,28) at seeds 1
    and 2 and of ``run_theorem_NWbip`` on K(12,12) at D = 12, whose
    approximate decompositions split and switch."""
    g, part, props = generate("complete_bipartite", {"m": 28})
    hint = (list(part.A), list(part.B))
    digests = [_digest(run_theorem_1factbip(g, TOY_1FACT, seed=seed,
                                            hint_split=hint))
               for seed in (1, 2)]
    g, part, props = generate("complete_bipartite", {"m": 12})
    digests.append(_digest(run_theorem_NWbip(
        g, g, replace(PipelineConstants(), max_nodes=100_000), seed=1,
        hint_split=(list(part.A), list(part.B)))))
    return digests


# a fresh interpreter that installs the pure kernel, as the loader picks it
# when there is no compiler, and with it the Python split-and-switch engine
PURE_REPORTS = """
import sys
from pathlib import Path
from bipham import hamkernel
hamkernel.GraphEnum, hamkernel.KERNEL = hamkernel._load(Path(sys.argv[1]),
                                                        "bipham-no-such-cc")
hamkernel._DLL = None
assert hamkernel.KERNEL.startswith("pure: "), hamkernel.KERNEL
from test_pipeline import kernel_free_digests
print(*kernel_free_digests())
"""


def test_reports_identical_on_the_pure_kernel_and_engine(tmp_path):
    # aim 3: a report does not depend on the kernel, nor on the engine that
    # runs beside it
    tests = Path(__file__).resolve().parent
    run = subprocess.run(
        [sys.executable, "-c", PURE_REPORTS, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests)])))
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.split() == kernel_free_digests()


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


def test_nwbip_input_failure_runs_one_attempt(monkeypatch):
    # no reshuffle changes the input: an entry-gate failure is returned
    # after the first attempt, with the run's own seed
    calls = []
    attempt = pipeline._nwbip_attempt

    def counted(*args, **kwargs):
        calls.append(kwargs["demotion_seed"])
        return attempt(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_nwbip_attempt", counted)
    g, part, props = generate("complete_bipartite", {"m": 3})  # odd degree
    rep = run_theorem_NWbip(g, g, PipelineConstants(), seed=0,
                            hint_split=(list(part.A), list(part.B)))
    assert calls == [0]
    assert rep.seed == 0
    assert rep.stages[0].error == (
        "AssertionError: input: check degree-even failed (3)")


@pytest.mark.parametrize("theorem", ["nwbip", "onefact"])
def test_soft_input_failure_runs_one_attempt(theorem):
    # the 202-cycle is its own Hamilton cycle, found at every attempt, but
    # its degree 2 fails the soft check D >= n/100: no report is ok, and
    # since no reshuffle changes the input the first one is returned
    n = 202
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    hint = ([v for v in range(n) if v % 2 == 0], [v for v in range(n) if v % 2])
    if theorem == "nwbip":
        rep = run_theorem_NWbip(g, g, PipelineConstants(), seed=1,
                                hint_split=hint)
    else:
        rep = run_theorem_1factbip(g, PipelineConstants(), seed=1,
                                   hint_split=hint)
    assert rep.seed == 1
    assert not rep.ok() and len(rep.cycles) == 1
    assert [c.ident for c in rep.stages[0].checks if not c.ok] == [
        "degree-at-least-n-over-100"]
    assert all(st.status == "ok" for st in rep.stages)


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
        "ef87016084babc21cbf9573d5317bb9f1fc3df36ce4b95437d8ec4e8306c3335"
    )


@pytest.mark.parametrize("seed, digest", [
    (2, "1d7b6334d71bc66009ab6f99071313db1758e0e9ac0a3fc023e6812152cf82c1"),
    (3, "514e79cc96c1b8cb482383625e37c0b41fba4965252f6ab771b918701f2f0a28"),
], ids=["K28-s2", "K28-s3"])
def test_onefact_closure_finishes(seed, digest):
    # seeds 2 and 3 of the benchmark's K(28,28) instances, beside seed 1
    # in test_onefact_full_run
    g, part, props = generate("complete_bipartite", {"m": 28})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=seed,
                               hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])
    assert _digest(rep) == digest


def test_closure_builds_no_cycle_search(monkeypatch):
    # packed around itself, K(28,28) leaves its approximate decomposition
    # an exact budget: the split-and-switch engine answers it, once a run,
    # and no CycleSearch is made while the approximate decomposition runs
    made, closed, inside = [], [], []
    real_init = search.CycleSearch.__init__
    approx, engine = pipeline.approx_decomposition, solvers.split_and_switch

    def counting_init(self, *args, **kwargs):
        if inside:
            made.append(args)
        real_init(self, *args, **kwargs)

    def traced_approx(*args, **kwargs):
        inside.append(True)
        try:
            return approx(*args, **kwargs)
        finally:
            inside.pop()

    def traced_engine(*args):
        out = engine(*args)
        closed.append(out[1:])
        return out

    monkeypatch.setattr(search.CycleSearch, "__init__", counting_init)
    monkeypatch.setattr(pipeline, "approx_decomposition", traced_approx)
    monkeypatch.setattr(solvers, "split_and_switch", traced_engine)
    g, part, props = generate("complete_bipartite", {"m": 28})
    for seed in (1, 2, 3, 4):
        rep = run_theorem_1factbip(g, TOY_1FACT, seed=seed,
                                   hint_split=(list(part.A), list(part.B)))
        assert rep.ok()
    assert len(closed) == 4 and not made
    assert all(attempts >= 1 for attempts, _ in closed)


def test_onefact_k70_closes():
    # the first rung of ROADMAP item 3's ladder that a search-based
    # closure could not close within the default budget
    g, part, props = generate("complete_bipartite", {"m": 70})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=2,
                               hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    assert len(rep.cycles) == 35
    assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])


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
    # the engine runs on seeds, not on the clock: a slow machine gets the
    # same cycles as long as it stays inside the wall-clock safety net
    calls = []
    approx = solvers.approx_decomposition

    def record(g, part, family, budget, excluded):
        calls.append((g, part, family, budget, set(excluded)))
        return approx(g, part, family, budget, excluded)

    monkeypatch.setattr(pipeline, "approx_decomposition", record)
    g, part, props = generate("complete_bipartite", {"m": 28})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=1,
                               hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    [(host, cells, family, budget, excluded)] = calls
    assert len(family) == 14 and budget.max_seconds == 300.0
    expected = approx(host, cells, family, budget, excluded)
    assert expected == rep.cycles[-14:]
    # one reading sets the deadline, one more opens each of the 14 split
    # levels of the one attempt: 140 s of 300.  The slowed clock is
    # time.monotonic, which the Python engine reads; the C engine reads the
    # system's monotonic clock (test_walks.py checks it with a deadline
    # already past), so this runs on the Python engine, which gives the
    # same cycles
    monkeypatch.setattr(solvers, "split_and_switch",
                        switches.pure_split_and_switch)
    assert approx(host, cells, family, budget, excluded) == expected
    _slow_clock(monkeypatch, 10.0)
    assert approx(host, cells, family, budget, excluded) == expected
    with pytest.raises(Timeout, match="not reproducible") as exc:
        approx(host, cells, family, replace(budget, max_seconds=100.0),
               excluded)
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


DRIVER_RUNS = [
    ("nwbip", 8, None), ("onefact", 28, None),
    # frozen hosts with exceptional vertices: one run that succeeds, and
    # one whose elimination peel spends a 40-node budget at its third
    # level, so that all six attempts fail inside the kernel
    ("nwbip", "n32-D8-h1-x1-s1001", None), ("nwbip", "n24-D8-h2-x0-s1008", 40),
]


@pytest.mark.parametrize("theorem,m,max_nodes", DRIVER_RUNS,
                         ids=[f"{t}-{m}" for t, m, _ in DRIVER_RUNS])
def test_driver_run_leaves_no_reference_cycles(theorem, m, max_nodes):
    # a run's graphs and search state are freed by reference counting, so
    # repeated runs in one process keep a flat memory high-water mark
    # without waiting for the cycle collector
    if isinstance(m, str):
        g, sub, hint = _exceptional_input(m)
        seed = int(m.rsplit("-s", 1)[1])
    else:
        g, part, props = generate("complete_bipartite", {"m": m})
        sub, hint, seed = g, (list(part.A), list(part.B)), 1
    gc.collect()
    gc.disable()
    try:
        if theorem == "nwbip":
            constants = (PipelineConstants() if max_nodes is None
                         else PipelineConstants(max_nodes=max_nodes))
            rep = run_theorem_NWbip(g, sub, constants, seed=seed,
                                    hint_split=hint)
        else:
            rep = run_theorem_1factbip(g, TOY_1FACT, seed=seed, hint_split=hint)
        assert rep.ok() == (max_nodes is None)
        if max_nodes is not None:
            assert rep.stages[-2].error.startswith("Timeout: ")
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


def _driver_input(theorem, m):
    if theorem == "nwbip":
        f, g, hint = _exceptional_input(m)
        return f, g, hint, int(m.rsplit("-s", 1)[1])
    f, part, props = generate("complete_bipartite", {"m": m})
    return f, f, (list(part.A), list(part.B)), 1


def _run_driver(theorem, f, g, hint, seed):
    if theorem == "nwbip":
        return run_theorem_NWbip(f, g, PipelineConstants(), seed=seed,
                                 hint_split=hint)
    return run_theorem_1factbip(f, TOY_1FACT, seed=seed, hint_split=hint)


@pytest.mark.parametrize("theorem,warm,m", [
    ("nwbip", "n24-D4-h1-x0-s1081", "n64-D6-h1-x0-s1003"),
    ("onefact", 8, 28),
])
def test_driver_run_leaves_the_callers_graphs_unindexed(theorem, warm, m):
    # the drivers answer degree questions about the caller's graphs from
    # their degree tuples and count degrees into sides by label, so neither
    # graph gets a neighbour index, and a run's allocations go with its
    # report, but for the graphs' edge arrays, the kernel's cache of their
    # edges.  A frozenset index of the host alone would keep 172 KiB
    # (NW-bip here) and 68 KiB (K(28,28)) past the run
    _run_driver(theorem, *_driver_input(theorem, warm))  # imports, caches
    f, g, hint, seed = _driver_input(theorem, m)
    gc.collect()
    tracemalloc.start()
    try:
        rep = _run_driver(theorem, f, g, hint, seed)
        assert rep.ok()
        del rep
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert f._adj is None and g._adj is None
    kept = {id(h): h for h in (f, g) if h._ids is not None}.values()
    assert all(sorted(zip(h._ids[::2], h._ids[1::2])) == sorted(h.edges)
               for h in kept)
    assert retained < 4096 + sum(sys.getsizeof(h._ids) for h in kept)


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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m,steps", [(30, ()), (44, ()), (30, (1,))],
                         ids=["K30", "K44", "K30+C1"])
def test_onefact_packs_a_host_whose_framework_has_exceptional_vertices(
        m, steps, seed):
    # 7 does not divide m, so a framework on K1*L = 7 clusters would demote
    # vertices to exceptional ones; the host is packed as NW-bip packs it.
    # K(30,30) + C(1) is 32-regular on 60 vertices, and no degree is
    # reduced first
    g, hint = _kmm_with_circulants(m, steps)
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=seed, hint_split=hint)
    assert rep.ok()
    assert len(rep.cycles) == (m + 2 * len(steps)) // 2
    assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])
    assert [s.name for s in rep.stages] == [
        "input", "eliminate-exceptional-cut", "cluster-partition",
        "balanced-exceptional-systems", "approximate-decomposition",
        "final-validation",
    ]
    assert rep.stages[-1].checks[-1].ident == "exact-decomposition"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_onefact_packs_a_host_that_has_no_framework(seed):
    # K(20,20) + C(1,2,3,4) is 28-regular on 40 vertices, and no weak
    # framework on K1*L = 7 clusters exists for it; like every host, it is
    # packed around itself, with no degree reduction first
    g, hint = _kmm_with_circulants(20, (1, 2, 3, 4))
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=seed, hint_split=hint)
    assert rep.ok(), [st.error for st in rep.stages if st.error]
    assert len(rep.cycles) == 14
    assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])
    assert rep.stages[-1].checks[-1].ident == "exact-decomposition"


# K(m,m) plus circulants inside each side, beside K(20,20) + C(1,2,3,4)
# above: the robust decomposition front failed all nine of these runs in
# robust-graph
CIRCULANT_HOSTS = [(14, (1,)), (28, (1, 2)), (28, (1,))]


@pytest.mark.parametrize("m, steps, seed", [
    (m, steps, seed) for m, steps in CIRCULANT_HOSTS for seed in (1, 2, 3)
], ids=[f"K{m}+C{''.join(map(str, steps))}-s{seed}"
        for m, steps in CIRCULANT_HOSTS for seed in (1, 2, 3)])
def test_onefact_closes_the_circulant_hosts(m, steps, seed):
    g, hint = _kmm_with_circulants(m, steps)
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=seed, hint_split=hint)
    assert rep.ok(), [st.error for st in rep.stages if st.error]
    assert len(rep.cycles) == (m + 2 * len(steps)) // 2
    assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])


def test_onefact_k126_closes():
    # a kernel peel of the approximate decomposition spends the 20 M-node
    # budget at level 47 on this seed; split and switch search nothing
    g, part, props = generate("complete_bipartite", {"m": 126})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=2,
                               hint_split=(list(part.A), list(part.B)))
    assert rep.ok(), [st.error for st in rep.stages if st.error]
    assert len(rep.cycles) == 63
    assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])


@pytest.mark.parametrize("seed", [1, 12])
def test_nwbip_at_degree_m_peels_every_level(seed):
    # D = m on K(12,12): all six systems are empty and the approximate
    # decomposition takes all of K(12,12), an exact budget, which split and
    # switch close within a budget that a peel under one item order at
    # every level spends at level 5
    g, part, props = generate("complete_bipartite", {"m": 12})
    rep = run_theorem_NWbip(g, g, replace(PipelineConstants(), max_nodes=100_000),
                            seed=seed, hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    assert len(rep.cycles) == 6
    assert all(not check_cycle_in_graph(g, c) for c in rep.cycles)
    assert not check_edge_disjoint([cycle_edges(c) for c in rep.cycles])


def test_level_searches_get_their_own_item_orders(monkeypatch):
    # every peel through path systems (the cut elimination, an
    # approximate decomposition with spare edges) gives every (level,
    # order) its own seed; level 0, order 0 keeps the peel's seed
    peels = []  # [caller, first seed, depth, {(level, order): seeds}]
    level = []  # the (level, order) searching now

    for module in (balancer, solvers):
        def opened(host, systems, budget, *args, name=module.__name__,
                   helper=module.peel_through_systems, **kwargs):
            peels.append([name, budget.seed, len(systems), {}])
            return helper(host, systems, budget, *args, **kwargs)
        monkeypatch.setattr(module, "peel_through_systems", opened)

    peel = solvers.peel_cycles

    def levels(level_search, *args, **kwargs):
        def search(i, taken, order, cap):
            level[:] = [(i, order)]
            return level_search(i, taken, order, cap)
        return peel(search, *args, **kwargs)
    monkeypatch.setattr(solvers, "peel_cycles", levels)

    cycle_search = solvers.CycleSearch

    def built(*args, seed=0, **kwargs):
        peels[-1][3].setdefault(level[0], set()).add(seed)
        return cycle_search(*args, seed=seed, **kwargs)
    monkeypatch.setattr(solvers, "CycleSearch", built)

    # K(12,12) around a 10-regular subgraph: five systems, and a pool with
    # two edges a vertex to spare
    doc = json.loads((DENSE_INPUTS / "K12-D10.json").read_text())
    assert run_theorem_NWbip(
        Graph(doc["n"], doc["edges"]), Graph(doc["n"], doc["sub_edges"]),
        PipelineConstants(), seed=5, hint_split=tuple(doc["split"])).ok()
    # a two-hub host whose cut elimination peels two levels
    doc = json.loads((EXCEPTIONAL_INPUTS / "n24-D4-h2-x0-s1041.json").read_text())
    assert run_theorem_NWbip(
        Graph(doc["n"], doc["edges"]), Graph(doc["n"], doc["sub_edges"]),
        PipelineConstants(), seed=1041, hint_split=tuple(doc["split"])).ok()
    seen = set()
    for caller, first, depth, seeds in peels:
        assert all(len(s) == 1 for s in seeds.values())
        flat = [s for (s,) in seeds.values()]
        assert len(set(flat)) == len(flat)
        if depth:
            assert seeds[(0, 0)] == {first}
        seen.add((caller, first, depth, tuple(sorted(seeds))))
    for caller, first, depth in [("bipham.solvers", 5, 5),
                                 ("bipham.balancer", 1041, 2)]:
        assert (caller, first, depth,
                tuple((i, 0) for i in range(depth))) in seen


def test_onefact_rejects_odd_degree():
    g, part, props = generate("complete_bipartite", {"m": 5})
    rep = run_theorem_1factbip(g, TOY_1FACT, seed=0,
                               hint_split=(list(part.A), list(part.B)))
    assert not rep.ok()
    assert rep.stages[0].status == "failed"


def test_onefact_parameter_failure_lands_in_report(tmp_path):
    # K = 13 clusters cannot split a side of 12: the framework would demote
    # every vertex, and that must fail its stage rather than escape the
    # driver
    g, part, props = generate("complete_bipartite", {"m": 12})
    consts = PipelineConstants(K=13)
    rep = run_theorem_1factbip(g, consts, seed=1,
                               hint_split=(list(part.A), list(part.B)))
    assert not rep.ok()
    failed = [st for st in rep.stages if st.status == "failed"]
    assert [st.name for st in failed] == ["eliminate-exceptional-cut"]
    assert failed[0].error == ("PreconditionViolated: no weak framework: "
                               "a+b = 24 > eps*n = 12")
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
    # the robust front's constants are still read, and nothing reads
    # them: the host is packed around itself
    assert rc == 0
    assert len(doc["decomposition"]["cycles"]) == 4


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
    # ids that Python would take for integers: a float or a boolean vertex,
    # a fractional or negative n, a float in a partition class; and a
    # partition that is not an object
    not_ids = []
    for i, text in enumerate([
        '{"n": 4, "edges": [[0, 1.5]]}',
        '{"n": 4, "edges": [[0, true]]}',
        '{"n": 2.5, "edges": []}',
        '{"n": -1, "edges": []}',
        '{"n": 4, "edges": [[0, 1], [0, 3], [2, 1], [2, 3]],'
        ' "partition": {"A": [0, 2.0], "B": [1, 3]}}',
        '{"n": 2, "edges": [[0, 1]], "partition": [[0], [1]]}',
    ]):
        not_ids.append(tmp_path / f"not_ids_{i}.json")
        not_ids[-1].write_text(text)
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
        *(["decompose", "--theorem", theorem, str(path)]
          for path in not_ids for theorem in ("nwbip", "onefact")),
        *(["verify", "--level", "framework", str(path)] for path in not_ids),
        *(["oracle", "--op", "hamdecomp", str(path)] for path in not_ids),
    ]:
        capsys.readouterr()
        out = ["-o", str(rep_path)] if args[0] in ("decompose", "generate") else []
        rc = cli_main([*args, *out])
        err = capsys.readouterr().err
        assert rc == 2, args
        assert err.startswith("error: InputFileError: "), err
        assert err.count("\n") == 1, err
        assert not rep_path.exists()


@pytest.mark.parametrize("level", ["framework", "scheme", "bes"])
def test_cli_verify_without_partition_exit_2(tmp_path, capsys, level):
    # an edge list holds no partition: one error line and exit 2 at every
    # level, not a traceback and exit 1 ("violations found")
    edges = tmp_path / "p4.txt"
    edges.write_text("0 1\n1 2\n2 3\n")
    rc = cli_main(["verify", "--level", level, str(edges)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == f"error: InputFileError: no partition in {edges}\n", err
    assert not out


def test_cli_verify_scheme_with_empty_cluster_lists(tmp_path, capsys):
    # a partition whose cluster lists are empty has no cluster size: the
    # scheme check lists its structure problems and exit 1, not a
    # traceback
    path = tmp_path / "empty-clusters.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "partition": {
        "A0": [0], "A": [], "B0": [1], "B": [],
        "clusters_A": [], "clusters_B": []}}))
    rc = cli_main(["verify", "--level", "scheme", str(path)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "empty clusters" in out.splitlines(), out
    assert out.splitlines()[-1] == "2 violations", out
    assert not err


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
    # a misspelt key used to leave its constant at the default unnoticed;
    # mu and rho fed only the approximate decomposition's entry gates, which
    # no run computed, and are gone
    with pytest.raises(BadParams, match="unknown constants max_node, tau$"):
        PipelineConstants.from_json({"tau": 1, "max_node": 5, "L": 1})
    inst = tmp_path / "k44.json"
    cli_main(["generate", "--kind", "complete_bipartite",
              "--params", '{"m": 4}', "-o", str(inst)])
    consts = tmp_path / "c.json"
    rep_path = tmp_path / "rep.json"
    for doc, name in [({"max_node": 5}, "max_node"), ({"mu": "0"}, "mu"),
                      ({"rho": "0"}, "rho")]:
        consts.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = cli_main(["decompose", "--theorem", "onefact", "--constants",
                       str(consts), str(inst), "-o", str(rep_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: BadParams: unknown constants {name}\n")
        assert not rep_path.exists()


@pytest.mark.parametrize("doc, text", [
    ({"L": 1.7}, "L = 1.7 must be an integer"),
    ({"max_nodes": True}, "max_nodes = True must be an integer"),
    ({"K1": "7"}, "K1 = '7' must be an integer"),
    ({"r1_override": 2.0}, "r1_override = 2.0 must be an integer"),
    ({"max_seconds": False}, "max_seconds = False must be a number"),
    (json.loads('{"max_seconds": NaN}'),
     "max_seconds = nan must be finite and positive"),
    ({"eps0": True}, "eps0 = True must be a rational"),
    ({"eps1": "1/0"}, "eps1 = '1/0' must be a rational"),
    ({"max_nodes": 0}, "max_nodes = 0 must be positive"),
])
def test_constants_not_truncated(doc, text):
    with pytest.raises(BadParams, match=f"^constant {re.escape(text)}$"):
        PipelineConstants.from_json(doc)


def test_every_benchmark_constants_object_loads():
    # the benchmark's worker builds each workload's constants with
    # from_json, which refuses unknown keys: a constants field that a
    # workload names cannot go without failing here first
    inputs = EXCEPTIONAL_INPUTS.parent
    specs = sorted(inputs.glob("*/instances.json"))
    assert [p.parent.name for p in specs] == [
        "nwbip-dense", "nwbip-exceptional", "onefact-robust"]
    for path in specs:
        PipelineConstants.from_json(json.loads(path.read_text())["constants"])


def test_frozen_constants_load_unchanged():
    spec = json.loads((EXCEPTIONAL_INPUTS.parent / "onefact-robust"
                       / "instances.json").read_text())
    assert PipelineConstants.from_json(spec["constants"]) == TOY_1FACT
    assert PipelineConstants.from_json(
        {"r1_override": None, "max_seconds": 5}
    ) == PipelineConstants(max_seconds=5.0)


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


def test_negative_r1_override_rejected():
    # r_diamond and s' are counts: a negative r1 has no path systems to
    # build, so the constants refuse it before any run
    with pytest.raises(PreconditionViolated,
                       match=r"^constant r1_override = -3 must be at least 0$"):
        PipelineConstants(r1_override=-3)
    with pytest.raises(PreconditionViolated, match="r1_override = -1"):
        PipelineConstants.from_json({"r1_override": -1})
    assert PipelineConstants(r1_override=0).r1_override == 0


@pytest.mark.parametrize("doc, text", [
    ({"max_nodes": 0}, "max_nodes = 0 must be positive"),
    ({"max_seconds": float("nan")},
     "max_seconds = nan must be finite and positive"),
])
def test_budget_constants_rejected(tmp_path, capsys, doc, text):
    # a budget no stage could run under is refused when the constants are
    # built, directly or from a file, before any report exists
    with pytest.raises(BadParams, match=f"^constant {re.escape(text)}$"):
        PipelineConstants(**doc)
    inst = tmp_path / "k44.json"
    cli_main(["generate", "--kind", "complete_bipartite",
              "--params", '{"m": 4}', "-o", str(inst)])
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps(doc))
    rep_path = tmp_path / "rep.json"
    capsys.readouterr()
    rc = cli_main(["decompose", "--theorem", "onefact", "--constants",
                   str(consts), str(inst), "-o", str(rep_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: BadParams: constant {text}\n"
    assert not rep_path.exists()
