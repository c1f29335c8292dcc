"""Slice plans, slice/global decompositions, localized pairs, balanced
exceptional systems, global covering."""

import pytest
from fractions import Fraction

from bipham.balance import Framework
from bipham.bes import (
    decompose_global,
    decompose_slice,
    derive_slice_counts,
    plan_slice_decomposition,
)
from bipham.errors import PreconditionViolated
from bipham.generators import generate
from bipham.graphs import Graph, LabelledPartition, complete_bipartite
from bipham.partitioning import framework_partition
from bipham.pipeline import PipelineConstants, bes_stage
from bipham.report import Stage
from bipham.validate import check_bes, cycle_edges


def _k1_framework(f, g, hint, eps="1/2", eps_prime="1/4"):
    from bipham.balancer import bip_decompose, eliminate_A0B0

    elim = eliminate_A0B0(bip_decompose(f, g, 1, eps, eps_prime, hint_split=hint))
    fw = elim.reduced
    f1 = fw.host_graph()
    part, _ = framework_partition(fw, f1, 1, "1", "1", seed=0)
    return Framework(fw.graph, part, fw.D, fw.eps, fw.eps_prime, 1, fw.kind, f1)


def test_plan_cases():
    # both sides below the threshold: zero loads, equality of the
    # exceptional counts enforced
    g = complete_bipartite((6, 6))
    part = LabelledPartition(12, [], range(6), [], range(6, 12),
                             clusters_A=[list(range(6))],
                             clusters_B=[list(range(6, 12))])
    fw = Framework(g, part, 6, Fraction(1, 2), Fraction(1, 2), 1, "full", None)
    plan = plan_slice_decomposition(fw, "1/25", 0, 1)
    assert plan.case == "both-small" and plan.ell_a == plan.ell_b == 0

    # exact rational solve of the load identity:
    # a=2, D=4, e(A')=6 gives 2*6/4 - 2 = 1, so q=1 and c=0
    assert Fraction(2 * 6, 4) - 2 == 1


def test_plan_identity_on_generated_instance():
    f, hint_part, props, gsub = generate(
        "eps_bipartite",
        {"n": 20, "D": 8, "eps": "1/10", "hubs": 1, "hub_degree": 6,
         "extra_internal": 2},
        seed=11,
    )
    fw = _k1_framework(f, gsub, (list(hint_part.A), list(hint_part.B)))
    plan = plan_slice_decomposition(fw, "1/25", 0, 1)
    assert plan.ceil_a() - plan.ceil_b() == fw.partition.a - fw.partition.b
    assert plan.floor_a() - plan.floor_b() == fw.partition.a - fw.partition.b
    # the load identities hold exactly in rational arithmetic
    assert 2 * plan.e_a == (plan.a + plan.q + plan.c) * fw.D
    assert 2 * plan.e_b == (plan.b + plan.q + plan.c) * fw.D
    assert 0 <= plan.c < 1


def _framework_with_loads(e_a_edges, e_b_edges, a, b, D):
    """A framework object carrying prescribed side-internal edge sets; only
    the fields the planner reads need to be meaningful."""
    from fractions import Fraction as F

    m = 6
    n = 2 * m + a + b
    A = list(range(m))
    B = list(range(m, 2 * m))
    exc_a = list(range(2 * m, 2 * m + a))
    exc_b = list(range(2 * m + a, n))
    edges = [(x, y) for x in A for y in B]
    edges += e_a_edges + e_b_edges
    part = LabelledPartition(n, exc_a, A, exc_b, B,
                             clusters_A=[A], clusters_B=[B])
    return Framework(Graph(n, edges), part, D, F(1), F(1), 1, "full", None)


def test_plan_three_branches():
    # both sides below threshold: zero loads
    fw = _framework_with_loads([], [], 1, 1, 4)
    plan = plan_slice_decomposition(fw, "1/4", 0, 1)
    assert plan.case == "both-small" and plan.ell_a == 0

    # only the first side above threshold: its load is the imbalance
    fw = _framework_with_loads([(12, 0), (12, 1), (13, 2), (13, 3)], [], 2, 0, 4)
    plan = plan_slice_decomposition(fw, "1/10", 0, 1)
    assert plan.case == "a-large"
    assert plan.ell_a == 2 and plan.ell_b == 0

    # both sides loaded: full rational loads with the imbalance difference
    fw = _framework_with_loads(
        [(12, 0), (12, 1), (13, 2), (13, 3), (0, 1), (2, 3)],
        [(14, 6), (14, 7), (6, 7), (8, 9)],
        2, 1, 4,
    )
    plan = plan_slice_decomposition(fw, "1/10", 0, 1)
    assert plan.case == "both-large"
    assert plan.ell_a == plan.a + plan.q + plan.c
    assert plan.ell_b == plan.b + plan.q + plan.c
    assert plan.ceil_a() - plan.ceil_b() == plan.a - plan.b


def test_derive_counts():
    t_K, k, achieved = derive_slice_counts(8, 1, 0)
    assert (t_K, k) == (4, 0) and achieved == 0
    t_K, k, achieved = derive_slice_counts(10, 1, "1/20")
    assert 2 * t_K + 2 * k == 10


def test_decompose_slice_empty_plan():
    g = complete_bipartite((6, 6))
    part = LabelledPartition(12, [], range(6), [], range(6, 12),
                             clusters_A=[list(range(6))],
                             clusters_B=[list(range(6, 12))])
    fw = Framework(g, part, 6, Fraction(1, 2), Fraction(1, 2), 1, "full", None)
    plan = plan_slice_decomposition(fw, "1/25", 0, 1)
    sl = Graph(12, [])
    out = decompose_slice(sl, plan, "A", part, "1/2", "1/2")
    assert len(out.systems) == plan.t and all(
        s.num_edges() == 0 for s in out.systems
    )
    assert out.leftover.num_edges() == 0


def test_decompose_global_zero_pairs():
    part = LabelledPartition(4, [], [0, 1], [], [2, 3],
                             clusters_A=[[0, 1]], clusters_B=[[2, 3]])
    out = decompose_global(Graph(4, []), Graph(4, []), 0, part, "1/2")
    assert out.pairs == []
    with pytest.raises(PreconditionViolated):
        decompose_global(Graph(4, [(0, 1)]), Graph(4, []), 0, part, "1/2")


def test_full_bes_stage_with_exceptional_vertices():
    f, part0, props, g = generate(
        "eps_bipartite",
        {"n": 20, "D": 8, "eps": "1/10", "hubs": 1, "hub_degree": 6,
         "extra_internal": 0},
        seed=21,
    )
    fw = _k1_framework(f, g, (list(part0.A), list(part0.B)))
    stage = Stage("test", "bes-cover")
    c = PipelineConstants()
    res = bes_stage(fw, fw.partition, c, 3, stage, c.K, c.eps4)
    # every produced system passes the shared validator
    eps0 = Fraction(7, 10)
    for cell, systems in res.j_cells.items():
        assert len(systems) == res.t_K
        for j in systems:
            assert not check_bes(j, fw.partition, cell,
                                 eps0.numerator, eps0.denominator)
    # family is edge-disjoint with multiplicity one
    from bipham.validate import check_edge_disjoint
    all_sets = [j.edges for lst in res.j_cells.values() for j in lst]
    assert not check_edge_disjoint(all_sets)
    # diamond graph: exceptional set isolated, sides internally empty
    assert all(res.diamond.degree(v) == 0 for v in fw.partition.V0())
    assert res.diamond.e_within(fw.partition.A_prime()) == 0
    assert res.diamond.e_within(fw.partition.B_prime()) == 0


def test_global_cover_with_nonzero_pairs():
    # force k >= 1 by requesting a leftover fraction
    f, part0, props, g = generate(
        "eps_bipartite",
        {"n": 24, "D": 10, "eps": "1/10", "hubs": 1, "hub_degree": 7,
         "extra_internal": 0},
        seed=33,
    )
    fw = _k1_framework(f, g, (list(part0.A), list(part0.B)))
    stage = Stage("test", "bes-cover")
    c = PipelineConstants(eps4="1/20")
    res = bes_stage(fw, fw.partition, c, 5, stage, c.K, c.eps4)
    assert stage.params["k"] >= 1
    assert len(res.cycles) == stage.params["k"]
    # cycles are genuine and edge-disjoint
    from bipham.validate import check_cycle, check_edge_disjoint
    for cyc in res.cycles:
        assert not check_cycle(fw.graph.n, cyc)
    assert not check_edge_disjoint([cycle_edges(cy) for cy in res.cycles])


def test_flow_attach_cap_is_a_timeout(monkeypatch):
    # one exceptional vertex 0 needs both of its edges in one system, into
    # the cluster {1, 2}: two search nodes settle it, one does not
    from bipham import bes
    from bipham.errors import Timeout

    def attach(max_nodes):
        monkeypatch.setattr(bes, "ATTACH_NODES", max_nodes)
        sys_edges, covered, pool = [set()], [set()], {(0, 1), (0, 2)}
        bes._flow_attach([0], [1, 2], sys_edges, covered, pool, (1, 1, 1, 1))
        return sys_edges, pool

    assert attach(2) == ([{(0, 1), (0, 2)}], set())
    with pytest.raises(Timeout, match="node cap 1"):
        attach(1)


def _floor_violations_in_fractions(g, part, fam, plan, eps4):
    # the bound as stated: x in A0 keeps (d(x, A) - 15 eps4 D) / K^4 edges
    out = []
    for cell, pairs in sorted(fam.cells.items()):
        edges = set().union(*(p.edges | p2.edges for p, p2 in pairs))
        for x, side in [(x, part.A) for x in part.A0] + [(y, part.B) for y in part.B0]:
            kept = sum(1 for e in edges if x in e)
            floor = (Fraction(g.d(x, side)) - 15 * eps4 * plan.D) / plan.K**4
            if kept < floor:
                out.append(f"cell {cell}: exceptional {x} keeps {kept} < {floor}")
    return out


def test_exceptional_degree_floor_matches_the_rational_bound():
    # integer comparison, same messages, on random cells of path-system
    # pairs and bounds on both sides of every kept count
    import random
    from types import SimpleNamespace

    from bipham.bes import exceptional_degree_floor_violations
    from bipham.graphs import PathSystem

    rng = random.Random(5)
    seen = 0
    for _ in range(60):
        n = rng.randint(6, 16)
        order = rng.sample(range(n), n)
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        rest = order[a + b:]
        part = LabelledPartition(n, order[:a], rest[::2], order[a:a + b],
                                 rest[1::2])
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.6])
        plan = SimpleNamespace(K=rng.randint(1, 2), D=rng.randint(2, 8))
        eps4 = Fraction(rng.randint(0, 3), rng.randint(1, 40))

        def system():
            path = rng.sample(range(n), rng.randint(1, 4))
            return PathSystem(n, zip(path, path[1:]))

        fam = SimpleNamespace(cells={
            (i, j): [(system(), system()) for _ in range(rng.randint(0, 2))]
            for i in range(2) for j in range(2)
        })
        got = exceptional_degree_floor_violations(g, part, fam, plan, eps4)
        assert got == _floor_violations_in_fractions(g, part, fam, plan, eps4)
        seen += len(got)
    assert seen
