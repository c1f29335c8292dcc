"""Property-based tests over randomly generated structures."""

import pytest
from hypothesis import given, settings, strategies as st

from bipham.balance import is_D_balanced
from bipham.errors import BadParams
from bipham.graphs import Graph, LabelledPartition, PathSystem
from bipham.matchings import balanced_matchings, vizing_balanced
from bipham.search import CycleSearch
from bipham.validate import cycle_edges


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, mask) if keep])


def _check_balanced_matchings(g, classes, k):
    assert len(classes) == k
    union = set()
    for m in classes:
        touched = set()
        for u, v in m:
            assert u not in touched and v not in touched
            touched |= {u, v}
        assert not (m & union)
        union |= m
    assert union == g.edges
    sizes = [len(m) for m in classes]
    assert max(sizes) - min(sizes) <= 1


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_vizing_invariants(g):
    _check_balanced_matchings(g, vizing_balanced(g).matchings,
                              g.max_degree() + 1)


@given(graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_cycle_enumeration_yields_valid_distinct_cycles(g):
    seen = set()
    for cyc in CycleSearch(g).cycles():
        assert len(cyc) == g.n
        es = cycle_edges(cyc)
        assert es <= g.edges
        assert es not in seen
        seen.add(es)


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=40, deadline=None)
def test_balance_survives_exceptional_repartition(m, data):
    # a regular graph is balanced for any equal-inner-size split; moving
    # exceptional vertices between the exceptional sets preserves it
    n = 2 * m + 2
    ring = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    inner = list(range(2 * m))
    exc = [2 * m, 2 * m + 1]
    picks = data.draw(st.permutations(inner))
    A, B = sorted(picks[:m]), sorted(picks[m:])
    base = LabelledPartition(n, exc, A, [], B)
    assert is_D_balanced(ring, base, 2)
    for a0, b0 in (([exc[0]], [exc[1]]), ([], exc), (exc, [])):
        part = LabelledPartition(n, a0, A, b0, B)
        assert is_D_balanced(ring, part, 2)


@st.composite
def bipartite_graphs(draw):
    p = draw(st.integers(min_value=2, max_value=4))
    q = draw(st.integers(min_value=2, max_value=4))
    pairs = [(i, p + j) for i in range(p) for j in range(q)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep] or [pairs[0]]
    return Graph(p + q, edges)


@given(bipartite_graphs(), st.integers(min_value=0, max_value=2))
@settings(max_examples=150, deadline=None)
def test_balanced_matchings_on_bipartite_graphs(g, extra):
    # König: max degree classes suffice on a bipartite graph
    k = g.max_degree() + extra
    _check_balanced_matchings(g, balanced_matchings(g, k), k)


@given(graphs(), st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_balanced_matchings_needs_vizing_classes_off_bipartite(g, short):
    # a triangle makes any graph non-bipartite: König's bound is off
    triangle = Graph(g.n + 3, g.edges | {(g.n, g.n + 1), (g.n + 1, g.n + 2),
                                         (g.n, g.n + 2)})
    with pytest.raises(BadParams):
        balanced_matchings(triangle, triangle.max_degree() - short)


@st.composite
def path_systems(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edges = set()
    deg = {}
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    attempts = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=12,
    ))
    for u, v in attempts:
        if u == v or deg.get(u, 0) >= 2 or deg.get(v, 0) >= 2:
            continue
        if find(u) == find(v):
            continue
        parent[find(u)] = find(v)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        edges.add((min(u, v), max(u, v)))
    return PathSystem(n, edges)


@given(path_systems())
@settings(max_examples=60, deadline=None)
def test_path_reconstruction_covers_edges(q):
    rebuilt = set()
    for p in q.paths:
        for i in range(len(p) - 1):
            rebuilt.add((min(p[i], p[i + 1]), max(p[i], p[i + 1])))
    assert rebuilt == set(q.edges)
    assert q.internal().isdisjoint(q.endpoints())
