"""Balanced matchings, the split trick, and the random sparsifier."""

import random
from fractions import Fraction

import networkx as nx
import pytest

from bipham.errors import (
    MatchingFailure,
    PreconditionViolated,
    RetryBudgetExceeded,
)
from bipham.graphs import Graph, PathSystem, complete_bipartite
from bipham.matchings import (
    degree_split,
    edge_coloring,
    kuhn_matching,
    path_system_split,
    sparsify_split,
    split_trick,
    vizing_balanced,
)

from conftest import complete_graph, random_graph


def _sizes(md):
    return [len(m) for m in md.matchings]


def check_decomposition_invariants(g, md):
    assert len(md.matchings) == g.max_degree() + 1
    union = set()
    for m in md.matchings:
        touched = set()
        for u, v in m:
            assert u not in touched and v not in touched
            touched |= {u, v}
        assert not (m & union)
        union |= m
    assert union == g.edges
    sizes = _sizes(md)
    assert max(sizes) - min(sizes) <= 1


def test_vizing_examples():
    assert _sizes(vizing_balanced(complete_graph(4))) == [2, 2, 1, 1]
    assert _sizes(vizing_balanced(Graph(5, []))) == [0]
    assert _sizes(vizing_balanced(Graph(3, [(0, 1), (1, 2)]))) == [1, 1, 0]


def test_vizing_structured_families():
    q3 = Graph(8, [(i, i ^ (1 << b)) for i in range(8) for b in range(3)
                   if i < i ^ (1 << b)])
    for g in [complete_graph(6), complete_graph(8),
              complete_bipartite((4, 4)), complete_bipartite((5, 5)), q3]:
        check_decomposition_invariants(g, vizing_balanced(g))


@pytest.mark.parametrize("seed", range(8))
def test_vizing_random(seed):
    rng = random.Random(seed)
    for _ in range(125):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        check_decomposition_invariants(g, vizing_balanced(g))


def test_edge_coloring_proper(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        coloring = edge_coloring(g)
        assert set(coloring) == set(g.edges)
        for v in range(g.n):
            cols = [c for e, c in coloring.items() if v in e]
            assert len(cols) == len(set(cols))
            assert all(0 <= c <= g.max_degree() for c in cols)


def test_split_trick_examples():
    assert split_trick(Graph(1, []), [0], [], 2) == [PathSystem(1, [])]
    g = Graph(3, [(0, 1), (0, 2)])
    out = split_trick(g, [0], [1, 2], 4)
    assert sorted(s.num_edges() for s in out) == [1, 1]
    g2 = Graph(6, [(0, 2), (0, 3), (1, 4), (1, 5)])
    out2 = split_trick(g2, [0, 1], [2, 3, 4, 5], 4)
    assert [s.num_edges() for s in out2] == [2, 2]
    for s in out2:
        assert s.internal() <= {0, 1}


def test_split_trick_gates():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(PreconditionViolated):
        split_trick(g, [0], [1, 2], 2)  # max degree exceeds D-2
    with pytest.raises(PreconditionViolated):
        split_trick(g, [0], [1, 2], 3)  # odd


def test_split_trick_structure(rng):
    count = 0
    while count < 25:
        n0, n1 = rng.randint(1, 3), rng.randint(2, 5)
        D = 2 * rng.randint(2, 4)
        g = random_graph(rng, n0 + n1, 0.5)
        A0, A = list(range(n0)), list(range(n0, n0 + n1))
        ga0 = Graph(g.n, g.edges_within(A0))
        if (
            g.max_degree() > D - 2
            or any(g.degree(x) > D // 2 - 1 for x in A)
            or ga0.max_degree() > D // 2 - 1
        ):
            continue
        count += 1
        out = split_trick(g, A0, A, D)
        assert len(out) == D // 2
        union = set()
        for s in out:
            assert not (s.edges & union)
            union |= s.edges
            assert all(s.degree(v) <= 1 for v in A)
            assert all(s.degree(v) <= 2 for v in A0)
            assert s.internal() <= set(A0)
        assert union == g.edges
        sizes = [s.num_edges() for s in out]
        assert max(sizes) - min(sizes) <= 1


def test_path_system_split_fallback_handles_tiny_counts():
    # two disjoint edges into a single class: the duplication construction
    # cannot run (needs 2t-2 degree headroom) but the direct split can
    g = Graph(4, [(0, 1), (2, 3)])
    out = path_system_split(g, [0, 1], [2, 3], 1, [2])
    assert len(out) == 1 and out[0].edges == g.edges


def test_sparsify_identity_and_success():
    g = complete_bipartite((4, 4))
    res = sparsify_split(g, 0, "1/10", seed=1)
    assert res.kept == g and res.leftover.num_edges() == 0

    # 10-regular circulant on 200 vertices: 300 leftover edges must spread
    # below the degree bound of 7.2
    n = 200
    g10 = Graph(n, [(i, (i + d) % n) for i in range(n) for d in range(1, 6)])
    assert set(g10.degrees()) == {10}
    res = sparsify_split(g10, "3/10", "1/10", seed=3)
    assert res.kept.num_edges() == -(-7 * g10.num_edges() // 10) == 700
    bound = Fraction(6, 5) * Fraction(3, 10) * Fraction(1, 10) * n
    assert res.leftover.max_degree() <= bound


def test_sparsify_impossible_bound(monkeypatch):
    # the degree bound rounds to zero at this scale, so only a leftover-free
    # split could succeed, which the edge target forbids
    from bipham import matchings
    from bipham.generators import regular_spanning_subgraph
    g = regular_spanning_subgraph(complete_graph(20), 3, seed=0)
    monkeypatch.setattr(matchings, "SPARSIFY_ATTEMPTS", 8)
    with pytest.raises(RetryBudgetExceeded, match="after 8 attempts"):
        sparsify_split(g, "1/5", "1/5", seed=0)


def _predicate_kuhn(left, right, adjacent):
    """Referee: Kuhn's augmenting paths asking ``adjacent(u, v)`` for each
    candidate in the order of ``right`` as the search reaches it, as
    ``kuhn_matching`` did before it took candidate lists."""
    match_r = {}

    def augment(u, seen):
        for v in right:
            if v in seen or not adjacent(u, v):
                continue
            seen.add(v)
            if v not in match_r or augment(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    for u in left:
        if not augment(u, set()):
            return None
    match_l = {u: v for v, u in match_r.items()}
    return {u: match_l[u] for u in left}


def test_kuhn_matching_against_hopcroft_karp():
    # random bipartite graphs, as undirected edges and as arcs: a matching is
    # returned exactly when a maximum matching saturates the left side, and
    # it is the map, in the same order, that the predicate-driven search
    # gives on the same orders
    rng = random.Random(7)
    found = unsaturated = 0
    for _ in range(400):
        left = list(range(rng.randint(0, 8)))
        right = list(range(10, 10 + rng.randint(0, 8)))
        rng.shuffle(right)
        p = rng.random()
        edges = {(u, v) for u in left for v in right if rng.random() < p}
        g = Graph(18, edges)
        arcs = {(u, v) for u, v in edges if rng.random() < 0.7}
        arcs |= {(v, u) for u, v in edges if rng.random() < 0.5}
        for adjacent, pairs in (
            (lambda u, v: v in g.adj[u], edges),
            (lambda u, v: (u, v) in arcs, {a for a in arcs if a[0] in left}),
        ):
            h = nx.Graph()
            h.add_nodes_from(left)
            h.add_nodes_from(right)
            h.add_edges_from(pairs)
            best = nx.bipartite.hopcroft_karp_matching(h, top_nodes=left)
            saturated = all(u in best for u in left)
            cands = {u: [v for v in right if adjacent(u, v)] for u in left}
            match = kuhn_matching(left, cands)
            assert (match is not None) == saturated
            ref = _predicate_kuhn(left, right, adjacent)
            assert match == ref and list(match or ()) == list(ref or ())
            unsaturated += match is None
            if match is not None:
                found += 1
                assert list(match) == left
                assert len(set(match.values())) == len(left)
                assert all(adjacent(u, v) for u, v in match.items())
    assert found > 100 and unsaturated > 100


def test_degree_split_against_max_flow():
    # random bipartite hosts with degree targets that some subgraph meets,
    # half of them then moved by one unit between two right vertices: a
    # split is returned exactly when an integral max-flow meets every
    # target, and then every vertex has its target degree and every host
    # edge is taken at most once
    rng = random.Random(8)
    found = failed = 0
    for _ in range(300):
        left = list(range(rng.randint(1, 7)))
        right = list(range(10, 10 + rng.randint(2, 7)))
        p = rng.random()
        edges = sorted((u, v) for u in left for v in right if rng.random() < p)
        need = dict.fromkeys(left + right, 0)
        for u, v in edges:
            if rng.random() < 0.5:
                need[u] += 1
                need[v] += 1
        if rng.random() < 0.5:
            v, w = rng.sample(right, 2)
            if need[v]:
                need[v] -= 1
                need[w] += 1
        flow = nx.DiGraph()
        for u in left:
            flow.add_edge("s", u, capacity=need[u])
        for v in right:
            flow.add_edge(v, "t", capacity=need[v])
        for u, v in edges:
            flow.add_edge(u, v, capacity=1)
        meets = nx.maximum_flow_value(flow, "s", "t") == sum(
            need[u] for u in left)
        cands = {u: [v for w, v in edges if w == u] for u in left}
        try:
            pairs = degree_split(left, cands, need)
        except MatchingFailure:
            assert not meets
            failed += 1
            continue
        assert meets
        found += 1
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) <= set(edges)
        deg = dict.fromkeys(need, 0)
        for u, v in pairs:
            deg[u] += 1
            deg[v] += 1
        assert deg == need
    assert found > 100 and failed > 30


def test_degree_split_failures_are_typed():
    # both left vertices see only right vertex 10: Hall's condition fails
    with pytest.raises(MatchingFailure, match="^no subgraph with the "
                       "prescribed degrees: left vertex 1 stays at 0 of 1$"):
        degree_split([0, 1], {0: [10], 1: [10]}, {0: 1, 1: 1, 10: 1, 11: 1})
    with pytest.raises(MatchingFailure,
                       match="^degree targets differ across the two sides$"):
        degree_split([0], {0: [10, 11]}, {0: 1, 10: 1, 11: 1})


def test_degree_split_walks_paths_past_the_recursion_limit():
    # the greedy pass matches left i to right i + 1, so the last left vertex
    # is only matched along an augmenting path through every vertex
    import sys

    k = sys.getrecursionlimit() + 100
    right = [k + 1 + i for i in range(k + 1)]
    cands = {i: [right[i + 1], right[i]] for i in range(k)}
    cands[k] = [right[k]]
    pairs = degree_split(list(range(k + 1)), cands,
                         dict.fromkeys([*range(k + 1), *right], 1))
    assert pairs == [(i, right[i]) for i in range(k + 1)]
