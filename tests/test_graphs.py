import hashlib
import json
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from bipham import graphs, hamkernel
from bipham.errors import BadParams, PartitionMismatch
from bipham.graphs import (
    Graph,
    LabelledPartition,
    OrientedGraph,
    PathSystem,
    class_labels,
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
        g = Graph(n, es)
        assert list(g.edges) == list(
            frozenset([(u, v) if u < v else (v, u) for u, v in es])
        )
        # a second build from fresh lists holds the same tuples in turn
        again = Graph(n, [[u, v] for u, v in es])
        assert all(a is b for a, b in zip(g.edges, again.edges))


def test_host_and_subgraph_share_edge_tuples():
    # built from separate [u, v] lists, as the benchmark's worker and
    # graph_from_json build a host and its subgraph, the two hold one tuple
    # per shared pair
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(4, 40)
        host = complete_bipartite((n // 2, n - n // 2))
        doc = json.loads(json.dumps({"n": n, "edges": [list(e) for e in host.edges]}))
        sub = [list(e)[::rng.choice((1, -1))] for e in host.edges
               if rng.random() < 0.3]
        f, _ = graph_from_json(doc)
        g = Graph(n, json.loads(json.dumps(sub)))
        held = {e: e for e in f.edges}
        assert g.edges <= f.edges
        assert all(held[e] is e for e in g.edges)
        assert all(held[e] is e for e in host.edges)


# pairs on ids that no other test uses, so each is new to the shared table
FRESH = 7_000_000


@pytest.mark.parametrize("make_one, base", [
    (lambda: True, FRESH), (lambda: 1.0, FRESH + 10),
    (lambda: pytest.importorskip("numpy").int64(1), FRESH + 20),
    (lambda: Fraction(1), FRESH + 30),
], ids=["bool", "float", "numpy", "fraction"])
def test_shared_edges_hold_int_ids_only(make_one, base):
    # a non-int id that Graph accepts never becomes another graph's edge:
    # after a graph on (one, base), a pair new to the table, a graph on
    # (1, base) holds ints
    one = make_one()
    Graph(base + 1, [(one, base)])
    Graph(3, [(one - 1, one)])
    for g in (Graph(base + 1, [(1, base)]), Graph(3, [(0, 1)])):
        assert [type(v) for e in g.edges for v in e] == [int, int]


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


def _pairs(ids):
    return sorted(zip(ids[::2], ids[1::2]))


def test_class_degrees_over_derived_edge_arrays(monkeypatch):
    # f's edge array is built once; f minus some cycles, and that minus
    # more edges, derive theirs from it in the compiled kernel, and every
    # count of degrees into labelled classes over them is the pure count
    rng = random.Random(7)
    derived = hamkernel.KERNEL == "c"
    for _ in range(40):
        n = rng.randint(3, 40)
        f = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < rng.uniform(0.2, 0.9)])
        f.edge_ids()
        cycles = [cycle_edges(rng.sample(range(n), rng.randint(3, n)))
                  for _ in range(rng.randint(1, 3))]
        g1 = f.minus_edges(set().union(*cycles))
        some = rng.sample(sorted(g1.edges), len(g1.edges) // 3)
        g2 = g1.minus(Graph(n, some + [rng.sample(range(n), 2)]))
        assert all((h._ids is not None) == derived for h in (g1, g2))
        k = rng.randint(1, 4)
        label = [rng.randint(-1, k - 1) for _ in range(n)]
        counts = [h.class_degrees(label, k) for h in (f, g1, g2)]
        for h in (f, g1, g2):
            assert _pairs(h.edge_ids()) == sorted(h.edges)
        with monkeypatch.context() as patch:
            patch.setattr(hamkernel, "KERNEL", "pure: the reference count")
            assert counts == [h.class_degrees(label, k) for h in (f, g1, g2)]


def test_derived_edge_arrays_ignore_what_is_no_edge():
    # a removed pair outside 0..n-1 matches no edge, though (0, 18) and
    # the edge (1, 8) would share a key on 10 vertices, and a float vertex
    # leaves the array to be built from the edges on first use
    f = complete_bipartite((5, 5)).minus_edges([(0, 5)])
    f.edge_ids()
    g = f.minus_edges([(0, 18), (1, 6)])
    assert _pairs(g.edge_ids()) == sorted(g.edges)
    assert (1, 8) in g.edges and (1, 6) not in g.edges
    h = f.minus_edges([(1.0, 6.0), (2, 7)])
    assert hamkernel.KERNEL != "c" or h._ids is None
    assert _pairs(h.edge_ids()) == sorted(h.edges)
    assert len(h.edges) == len(f.edges) - 2
    # labels a compiled count cannot take go to the pure count
    label = class_labels(10, [range(5), range(5, 10)])
    assert f.class_degrees(label, 2)[0] == [0, 4]
    with pytest.raises(IndexError):
        f.class_degrees(label, 1)


@pytest.mark.parametrize("edges, text", [
    ([(0, 1), (2, 2)], "loop edge (2,2) not allowed"),
    ([(2, 1), (5, 1)], "edge (1,5) out of range for n=3"),
    ([(0, 1), (2, -1)], "edge (-1,2) out of range for n=3"),
])
def test_graph_rejects_a_bad_edge(edges, text):
    with pytest.raises(BadParams, match=re.escape(text)):
        Graph(3, edges)


def test_a_refused_graph_shares_no_edge():
    # no pair of a graph that __init__ refuses enters the shared table, the
    # valid pair beside the bad one included
    a, b, c = FRESH + 100, FRESH + 101, FRESH + 102
    for n, es in ((c + 1, [(a, b), (c, c)]), (c, [(a, b), (b, c)]),
                  (c + 1, [(a, b), (a, -1)])):
        size = len(graphs._EDGES)
        with pytest.raises(BadParams):
            Graph(n, es)
        assert len(graphs._EDGES) == size and (a, b) not in graphs._EDGES


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


INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def test_benchmark_inputs_hold_shared_edges():
    # the 200 frozen nwbip-exceptional input pairs, read as the benchmark's
    # worker reads them (each file checked against the manifest's sha256,
    # none written), store 138 177 edges over at most 2 016 vertex pairs.
    # Built with one tuple per edge per graph they held about 105 bytes per
    # stored edge; with shared tuples about 50
    digests = json.loads((INPUTS / "MANIFEST.json").read_bytes())["sha256"]

    def read(rel):
        data = (INPUTS / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digests[rel], rel
        return json.loads(data)

    spec = read("nwbip-exceptional/instances.json")
    docs = [read(f"nwbip-exceptional/{inst['graph']}.json")
            for inst in spec["instances"]]
    tracemalloc.start()
    try:
        pairs = [(Graph(d["n"], d["edges"]), Graph(d["n"], d["sub_edges"]))
                 for d in docs]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    stored = sum(len(f.edges) + len(g.edges) for f, g in pairs)
    assert len(pairs) == 200 and stored == 138_177
    assert held / stored < 75, held / stored
