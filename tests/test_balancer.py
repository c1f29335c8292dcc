"""Exceptional-cover path systems and the elimination pipeline."""

import pytest

from bipham.balance import Framework, validate_framework
from bipham.balancer import (
    bip_decompose,
    cover_A0B0_by_path_systems,
    eliminate_A0B0,
    extend_to_two_balanced,
    is_two_balanced,
    peel_hamilton_cycles,
)
from bipham.errors import PreconditionViolated, Timeout
from bipham.generators import eps_bipartite_instance, generate
from bipham.graphs import Graph, LabelledPartition, PathSystem, complete_bipartite
from bipham.solvers import SolverBudget
from bipham.validate import check_cycle_in_graph, check_edge_disjoint, cycle_edges


def test_two_balanced_examples():
    # single path through one exceptional vertex, one endpoint per side
    part = LabelledPartition(4, [0], [1], [], [2, 3])
    q = PathSystem(4, [(0, 1), (0, 2)])
    assert is_two_balanced(q, part)
    # empty system with no exceptional vertices
    part2 = LabelledPartition(4, [], [0, 1], [], [2, 3])
    assert is_two_balanced(PathSystem(4, []), part2)
    # both endpoints on the A side: edge count 2 exceeds the imbalance 1
    part3 = LabelledPartition(4, [0], [1, 2], [], [3])
    q3 = PathSystem(4, [(0, 1), (0, 2)])
    assert not is_two_balanced(q3, part3)


def test_extend_to_two_balanced():
    # seed already complete
    part = LabelledPartition(4, [0], [1], [], [2, 3])
    q = PathSystem(4, [(0, 1), (0, 2)])
    assert extend_to_two_balanced(complete_bipartite((2, 2)), part, q).edges == q.edges

    # one missing edge at the exceptional vertex gets attached to the
    # opposite inner class
    g = Graph(5, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
    part2 = LabelledPartition(5, [0], [1, 2], [], [3, 4])
    seed = PathSystem(5, [(0, 1)])
    out = extend_to_two_balanced(g, part2, seed)
    new = out.edges - seed.edges
    assert len(new) == 1 and all(e[0] == 0 for e in new)
    assert is_two_balanced(out, part2)

    # arithmetic gate: empty seed cannot balance a nonzero imbalance
    part3 = LabelledPartition(6, [0, 1], [2, 3], [], [4, 5])
    with pytest.raises(PreconditionViolated):
        extend_to_two_balanced(
            complete_bipartite((3, 3)), part3, PathSystem(6, [])
        )


def _weak_framework_instance(seed=0, n=20, D=8, hubs=1):
    f, part, props, g = generate(
        "eps_bipartite",
        {"n": n, "D": D, "eps": "1/10", "hubs": hubs,
         "hub_degree": n // 4 + 1, "extra_internal": 2},
        seed=seed,
    )
    hint = (list(part.A), list(part.B))
    return f, g, bip_decompose(f, g, 1, "1/2", "1/4", hint_split=hint)


def test_cover_empty_cut():
    g = complete_bipartite((6, 6))
    part = LabelledPartition(12, [], range(6), [], range(6, 12))
    fw = validate_framework(g, part, 6, "1/10", "1/10", 2)
    assert cover_A0B0_by_path_systems(fw) == []


def test_cover_single_cut_edge():
    f, g, fw = _weak_framework_instance(seed=1)
    part = fw.partition
    cut = fw.graph.edges_between(part.A0, part.B0)
    assert len(cut) >= 1
    systems = cover_A0B0_by_path_systems(fw)
    assert systems
    covered = set().union(*[q.edges for q in systems])
    assert cut <= covered
    ab = fw.graph.edges_between(part.A, part.B)
    for q in systems:
        assert is_two_balanced(q, part)
        assert not (q.edges & ab)


def test_hamilton_peel_empty_system():
    g = complete_bipartite((4, 4))
    part = LabelledPartition(8, [], range(4), [], range(4, 8))
    [cyc] = peel_hamilton_cycles(g, g, part, [PathSystem(8, [])])
    assert sorted(cyc) == list(range(8))


def test_hamilton_peel_through_exceptional_path():
    # 14-vertex dense instance, one exceptional vertex
    f, g, fw = _weak_framework_instance(seed=3, n=16, D=6)
    part = fw.partition
    v0 = sorted(part.V0())
    q_edges = []
    used = set()
    for v in v0:
        nbrs = [w for w in sorted(fw.graph.adj[v])
                if w not in used and w not in v0][:2]
        q_edges += [(v, w) for w in nbrs]
        used.update(nbrs)
    q = PathSystem(f.n, q_edges)
    if not is_two_balanced(q, part):
        pytest.skip("random instance produced an unbalanced seed")
    [cyc] = peel_hamilton_cycles(f, fw.graph, part, [q])
    assert set(q.edges) <= cycle_edges(cyc)
    extra = cycle_edges(cyc) - q.edges
    a, b = set(part.A), set(part.B)
    assert all((u in a) != (u2 in a) and {u, u2} <= a | b for u, u2 in extra)


def test_hamilton_peel_path_count_gate():
    g = complete_bipartite((4, 4))
    part = LabelledPartition(8, [], range(4), [], range(4, 8))
    q = PathSystem(8, [(0, 4), (1, 5), (2, 6)])
    with pytest.raises(PreconditionViolated):
        peel_hamilton_cycles(g, g, part, [q], max_paths=2)


def test_hamilton_peel_reserves_each_system_for_its_level():
    # the systems' edges are cross edges here: an earlier level that took
    # a later system's edge would leave the cycles overlapping.  A spent
    # node budget is a Timeout, not a proof that no peel exists
    g = complete_bipartite((6, 6))
    part = LabelledPartition(12, [], range(6), [], range(6, 12))
    systems = [PathSystem(12, [(i, 6 + i)]) for i in range(3)]
    cycles = peel_hamilton_cycles(g, g, part, systems)
    assert not check_edge_disjoint([cycle_edges(c) for c in cycles])
    for q, cyc in zip(systems, cycles):
        assert not check_cycle_in_graph(g, cyc)
        assert q.edges <= cycle_edges(cyc)
    with pytest.raises(Timeout, match="node budget 20 spent"):
        peel_hamilton_cycles(g, g, part, systems, SolverBudget(max_nodes=20))


def test_eliminate_identity_when_no_cut():
    g = complete_bipartite((6, 6))
    part = LabelledPartition(12, [], range(6), [], range(6, 12))
    fw = validate_framework(g, part, 6, "1/10", "1/10", 2)
    res = eliminate_A0B0(fw)
    assert res.hamilton_cycles == [] and res.reduced.D == 6
    assert res.reduced.graph == g


def test_eliminate_full_postconditions():
    f, g, fw = _weak_framework_instance(seed=5, n=24, D=10, hubs=2)
    res = eliminate_A0B0(fw)
    assert res.reduced.D == fw.D - 2 * len(res.hamilton_cycles)
    assert res.reduced.kind == "full"
    assert (fw.D - res.reduced.D) % 2 == 0
    cut = fw.graph.edges_between(fw.partition.A0, fw.partition.B0)
    covered = set().union(*[cycle_edges(c) for c in res.hamilton_cycles])
    assert cut <= covered


def test_bip_decompose_on_clean_bipartite():
    g = complete_bipartite((6, 6))
    fw = bip_decompose(g, g, 2, "1/100", "1/10",
                       hint_split=(list(range(6)), list(range(6, 12))))
    assert isinstance(fw, Framework)
    assert fw.partition.a == 0 and fw.partition.b == 0


@pytest.mark.parametrize("host, kind", [
    (dict(n=24, D=8, eps="1/100", hubs=0, hub_degree=0, extra_internal=5,
          seed=3), "full"),
    (dict(n=20, D=8, eps="1/10", hubs=1, hub_degree=6, extra_internal=0,
          seed=1), "weak"),
])
def test_bip_decompose_without_hint_finds_planted_split(host, kind):
    # with no hint the near-bipartition search starts the split; it must
    # land on the planted (A', B') the hinted run starts from
    f, part, _, g = eps_bipartite_instance(**host)
    runs = []
    for hint in (None, (part.A_prime(), part.B_prime())):
        fw = bip_decompose(f, g, 1, "1/2", "1/4", hint_split=hint)
        p = fw.partition
        runs.append((fw.kind, {(p.A0, p.A), (p.B0, p.B)}))
    assert runs[0] == runs[1]
    assert runs[0][0] == kind


def test_bip_decompose_flipping_strictly_improves():
    # plant a vertex on the wrong side: it has high internal degree there,
    # clears the root-eps threshold, and must be flipped back
    g = complete_bipartite((6, 6))
    hint = (list(range(1, 6)) + [11], [0] + list(range(6, 11)))
    part = bip_decompose(g, g, 1, "1/16", "1/2", hint_split=hint).partition
    assert 0 in set(part.A0) | set(part.A)
    assert 11 in set(part.B0) | set(part.B)


def test_bip_decompose_raises_without_a_framework():
    # a 6-regular graph with one edge inside each side: at eps = 1/1000
    # that one edge already exceeds eps*n^2, so no framework level holds
    g = complete_bipartite((6, 6)).minus_edges({(0, 6), (1, 7)})
    g = Graph(12, g.edges | {(0, 1), (6, 7)})
    with pytest.raises(PreconditionViolated, match=r"^no weak framework: e\(A'\)"):
        bip_decompose(g, g, 1, "1/1000", "1/2",
                      hint_split=(list(range(6)), list(range(6, 12))))
