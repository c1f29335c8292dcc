import random
import re

import pytest

from bipham.errors import BadParams, PartitionMismatch
from bipham.graphs import (
    Graph,
    LabelledPartition,
    OrientedGraph,
    PathSystem,
    complete_bipartite,
    graph_from_json,
    graph_to_json,
    norm_edge,
    parse_edge_list,
)
from bipham.validate import cycle_edges


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 0)])
    assert g.degree(0) == 2 and g.degree(3) == 0
    assert g.e_within({0, 1, 2}) == 3
    assert g.e_between({0}, {1, 2}) == 2
    assert g.d(1, {0, 2, 3}) == 2
    with pytest.raises(BadParams):
        Graph(3, [(0, 0)])
    with pytest.raises(BadParams):
        Graph(2, [(0, 5)])


def test_graph_edges_keep_construction_order():
    # the edge set's iteration order, which searches and generators follow,
    # is the one a norm_edge per pair, in input order, gives
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 30)
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 3 * n))]
        pairs += rng.sample(pairs, len(pairs) // 3)  # duplicates
        rng.shuffle(pairs)
        es = [(u, v) if rng.random() < 0.5 else [u, v] for u, v in pairs]
        assert list(Graph(n, es).edges) == list(
            frozenset(norm_edge(u, v) for u, v in es)
        )


def _recount(g):
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _check_index(g, rng):
    # degree questions read the degree tuple and leave adj unbuilt; adj is
    # the neighbours of every vertex
    nbrs = _recount(g)
    degs = [len(a) for a in nbrs]
    assert [g.degree(v) for v in range(g.n)] == degs
    assert g.degrees() == degs
    assert g.max_degree() == max(degs, default=0)
    assert g.min_degree() == min(degs, default=0)
    assert g.is_regular() == (len(set(degs)) <= 1)
    assert g._adj is None
    assert g.adj == tuple(map(frozenset, nbrs))
    for v in range(g.n):
        S = rng.sample(range(g.n), rng.randint(0, g.n))
        expected = len(nbrs[v] & set(S))
        assert g.d(v, S) == g.d(v, set(S)) == g.d(v, frozenset(S)) == expected
    # and in the other order
    h = Graph._trusted(g.n, g.edges)
    assert h.adj == g.adj
    assert h.degrees() == degs


def test_graph_index_matches_a_recount():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 24)
        m = rng.randint(1, n)

        def draw(k):
            if k < 2:
                return []
            return [rng.sample(range(k), 2) for _ in range(rng.randint(0, 3 * k))]

        a, b = Graph(n, draw(n)), Graph(m, draw(m))
        some = rng.sample(sorted(a.edges), len(a.edges) // 2)
        for g in (a, Graph._trusted(n, a.edges), a.minus_edges(some),
                  a.minus(b), Graph(n, a.edges | b.edges)):
            _check_index(g, rng)


@pytest.mark.parametrize("edges, text", [
    ([(0, 1), (2, 2)], "loop edge (2,2) not allowed"),
    ([(2, 1), (5, 1)], "edge (1,5) out of range for n=3"),
    ([(0, 1), (2, -1)], "edge (-1,2) out of range for n=3"),
])
def test_graph_rejects_a_bad_edge(edges, text):
    with pytest.raises(BadParams, match=re.escape(text)):
        Graph(3, edges)


def test_graph_algebra():
    g = complete_bipartite((2, 2))
    h = g.minus_edges([(0, 2)])
    assert h.num_edges() == 3
    assert g.minus(h).edges == frozenset({(0, 2)})


def test_oriented_graph_rejects_antiparallel():
    with pytest.raises(BadParams):
        OrientedGraph(3, [(0, 1), (1, 0)])
    o = OrientedGraph(3, [(0, 1), (2, 1)])
    assert o.underlying().num_edges() == 2


def test_minus_arcs_matches_a_validated_build():
    # the unchecked result has the arcs, in the same iteration order, and
    # the out- and in-neighbourhoods of the graph built through __init__
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 20)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        o = OrientedGraph(n, [(u, v) if rng.random() < 0.5 else (v, u)
                              for u, v in pairs])
        removed = {a for a in o.arcs if rng.random() < 0.3}
        removed |= {(v, u) for u, v in pairs if rng.random() < 0.1}  # absent
        got = o.minus_arcs(removed)
        want = OrientedGraph(n, o.arcs - removed)
        assert got.n == want.n
        assert list(got.arcs) == list(want.arcs)
        assert got.out == want.out and got.inn == want.inn


def test_cycle_edges_one_pass():
    # the edges of a vertex sequence, closing edge included, in the order
    # of the per-index construction; a loop anywhere, the closing edge
    # included, raises
    rng = random.Random(5)
    for _ in range(200):
        cycle = rng.sample(range(40), rng.choice((0, *range(2, 13))))
        if rng.random() < 0.5:
            cycle = tuple(cycle)
        want = frozenset(norm_edge(cycle[i], cycle[(i + 1) % len(cycle)])
                         for i in range(len(cycle)))
        got = cycle_edges(cycle)
        assert got == want and list(got) == list(want)
    for bad in ([3], [0, 1, 1, 2], (2, 0, 1, 2)):
        with pytest.raises(BadParams, match="loop"):
            cycle_edges(bad)


def test_labelled_partition_validation():
    p = LabelledPartition(6, [0], [1, 2], [3], [4, 5])
    assert p.a == 1 and p.b == 1
    assert p.A_prime() == {0, 1, 2}
    assert p.side_labels() == (0, 1, 1, 2, 3, 3)
    sw = p.swapped()
    assert sw.A0 == (3,) and sw.B == (1, 2)
    with pytest.raises(PartitionMismatch):
        LabelledPartition(6, [0], [0, 1], [2], [3, 4, 5])
    with pytest.raises(PartitionMismatch):
        LabelledPartition(6, [0], [1], [2], [3, 4])


def test_clusters_and_refinement():
    with pytest.raises(PartitionMismatch):
        LabelledPartition(8, [], [0, 1, 2, 3], [], [4, 5, 6, 7],
                          clusters_A=[[0, 1], [2]], clusters_B=[[4, 5], [6, 7]])
    q = LabelledPartition(
        8, [], [0, 1, 2, 3], [], [4, 5, 6, 7],
        clusters_A=[[0, 1], [2, 3]], clusters_B=[[4, 5], [6, 7]],
    )
    assert q.K == 2 and q.m == 2
    r = q.with_refinement([[[0], [1]], [[2], [3]]], [[[4], [5]], [[6], [7]]])
    assert r.L == 2
    assert r.subcluster_A(2, 1) == (2,)


def test_path_system_structure():
    q = PathSystem(6, [(0, 1), (1, 2), (3, 4)])
    assert q.paths == ((0, 1, 2), (3, 4))
    assert q.internal() == {1}
    assert q.endpoints() == {0, 2, 3, 4}
    assert q.num_nontrivial() == 2
    with pytest.raises(BadParams):
        PathSystem(4, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(BadParams):
        PathSystem(4, [(0, 1), (0, 2), (0, 3)])


def test_json_and_edge_list_round_trip(tmp_path):
    g = complete_bipartite((2, 3))
    p = LabelledPartition(5, [], [0, 1], [], [2, 3, 4])
    doc = graph_to_json(g, p)
    g2, p2 = graph_from_json(doc)
    assert g2 == g and p2.A == p.A and p2.B == p.B
    g3 = parse_edge_list("# n=5 m=6\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n")
    assert g3.edges == g.edges
    assert parse_edge_list("# empty\n0 1\n").edges == frozenset({(0, 1)})
