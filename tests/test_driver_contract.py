"""Property tests of the drivers' failure contract on generated hosts.

Whatever the host and constants, a driver returns a report: an ok report
holds a valid decomposition, and a failed one ends in exactly one failed
stage, carrying a typed error, and one skipped ``remaining`` stage.  The
report is the same, byte for byte, on either kernel.
"""

import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bipham import errors, hamkernel, pipeline, search
from bipham.generators import (
    babai_instance,
    eps_bipartite_instance,
    regular_spanning_subgraph,
)
from bipham.graphs import complete_bipartite
from bipham.pipeline import (
    PipelineConstants,
    run_theorem_1factbip,
    run_theorem_NWbip,
)
from bipham.report import render_report
from bipham.validate import (
    check_cycle_in_graph,
    check_decomposition,
    check_edge_disjoint,
    cycle_edges,
)

from test_pipeline import TOY_1FACT, _kmm_with_circulants


def _typed_errors():
    found, todo = set(), [errors.BiphamError]
    while todo:
        cls = todo.pop()
        found.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return found | {"AssertionError"}


TYPED = _typed_errors()


def _on_both_kernels(run):
    """The report of ``run()`` on the kernel that loaded, once the same run
    on the pure kernel has rendered the same report."""
    rep = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "cycle_enumerator", hamkernel.PureGraphEnum)
        assert render_report(run()) == render_report(rep)
    return rep


def _two_attempts(run):
    """``_on_both_kernels(run)`` with NW-bip held to two attempts.  The
    hypothesis tests cannot take the function-scoped ``monkeypatch``
    fixture, so each example patches in its own context."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "NWBIP_ATTEMPTS", 2)
        return _on_both_kernels(run)


def _check_report(rep) -> bool:
    """Assert the report contract and return whether the report is ok."""
    assert len(set(rep.warnings)) == len(rep.warnings), rep.warnings
    statuses = [s.status for s in rep.stages]
    if rep.ok():
        assert set(statuses) == {"ok"}
        return True
    # every stage before the failed one ran to the end
    assert statuses[-2:] == ["failed", "skipped"]
    assert set(statuses[:-2]) <= {"ok"}
    assert rep.stages[-1].name == "remaining"
    name = re.match(r"^(\w+): ", rep.stages[-2].error)
    assert name and name.group(1) in TYPED, rep.stages[-2].error
    assert rep.cycles == []
    return False


budgets = st.sampled_from([50, 2_000, 4_000_000])


@st.composite
def nwbip_hosts(draw):
    """(host, D-regular spanning subgraph, hint split) of a small complete
    bipartite or eps-bipartite host; D may be odd."""
    if draw(st.booleans()):
        m = draw(st.integers(min_value=2, max_value=8))
        f = complete_bipartite((m, m))
        D = draw(st.integers(min_value=1, max_value=m))
        g = f if D == m else regular_spanning_subgraph(
            f, D, seed=draw(st.integers(0, 9)))
        return f, g, (list(range(m)), list(range(m, 2 * m)))
    n = draw(st.sampled_from([16, 20, 24]))
    try:
        f, part, _, g = eps_bipartite_instance(
            n=n, D=draw(st.sampled_from([4, 6])), eps="1/8",
            hubs=draw(st.integers(0, 2)), hub_degree=n // 4 + 1,
            extra_internal=draw(st.integers(0, 2)),
            seed=draw(st.integers(0, 999)),
        )
    except errors.BiphamError:
        assume(False)
    return f, g, (list(part.A), list(part.B))


@st.composite
def babai_hosts(draw):
    """(host, D-regular spanning subgraph, hint split) of a Babai host: a
    perfect matching inside the larger side, which a D-regular subgraph
    must use D times, so D is at most the matching's size."""
    k = draw(st.integers(1, 2))
    f, part, _ = babai_instance(k)
    D = draw(st.integers(1, 2 * k + 1))
    g = regular_spanning_subgraph(f, D, seed=draw(st.integers(0, 9)))
    return f, g, (list(part.A), list(part.B))


@given(nwbip_hosts(), st.sampled_from([1, 2]),
       st.sampled_from([Fraction(1, 2), Fraction(1, 4)]), budgets,
       st.integers(0, 3))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_nwbip_report_contract(host, K, eps0, max_nodes, seed):
    f, g, hint = host
    constants = PipelineConstants(K=K, eps0=eps0, max_nodes=max_nodes)
    rep = _two_attempts(lambda: run_theorem_NWbip(
        f, g, constants, seed=seed, hint_split=hint))
    if _check_report(rep):
        assert not check_edge_disjoint([cycle_edges(c) for c in rep.cycles])
        for cyc in rep.cycles:
            assert not check_cycle_in_graph(f, cyc)


@given(st.sampled_from([4, 6, 7, 8, 14, 28]),
       st.sampled_from([{}, {"K1": 1}, {"K1": 2}, {"L": 2}, {"g": 3},
                        {"r1_override": 1}, {"min_interval": 10}]),
       budgets, st.integers(1, 3))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_onefact_report_contract(m, change, max_nodes, seed):
    g = complete_bipartite((m, m))
    constants = replace(TOY_1FACT, max_nodes=max_nodes, **change)
    rep = _on_both_kernels(
        lambda: run_theorem_1factbip(g, constants, seed=seed))
    if _check_report(rep):
        assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])


@given(babai_hosts(), st.sampled_from([1, 2]), budgets, st.integers(0, 3))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_nwbip_report_contract_on_babai_hosts(host, K, max_nodes, seed):
    f, g, hint = host
    constants = PipelineConstants(K=K, max_nodes=max_nodes)
    rep = _two_attempts(lambda: run_theorem_NWbip(
        f, g, constants, seed=seed, hint_split=hint))
    if _check_report(rep):
        assert not check_edge_disjoint([cycle_edges(c) for c in rep.cycles])
        for cyc in rep.cycles:
            assert not check_cycle_in_graph(f, cyc)


@given(st.sampled_from([6, 8, 10, 14]),
       st.sampled_from([(1,), (2,), (1, 2)]), budgets, st.integers(1, 3))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_onefact_report_contract_on_circulant_hosts(m, steps, max_nodes, seed):
    # K(m, m) plus a circulant inside each side: (m + 2 len(steps))-regular
    # with edges inside both sides, so the degree reduction runs first
    g, hint = _kmm_with_circulants(m, steps)
    constants = replace(TOY_1FACT, max_nodes=max_nodes)
    rep = _on_both_kernels(
        lambda: run_theorem_1factbip(g, constants, seed=seed, hint_split=hint))
    if _check_report(rep):
        assert not check_decomposition(g, [cycle_edges(c) for c in rep.cycles])
