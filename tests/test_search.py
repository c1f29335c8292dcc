"""Prescribed-path search layer: the port masks the kernel builds for a
``CycleSearch``, its checks, and the cycle order it yields."""

import hashlib
import json
import random

import pytest

from bipham import search
from bipham.graphs import Graph, complete_bipartite
from bipham.hamkernel._pure import CycleEnum as PureCycleEnum
from bipham.hamkernel._pure import _decode, _ports, _states
from bipham.search import CycleSearch, Prescribed
from bipham.solvers import _OracleEnum
from bipham.validate import cycle_edges

from conftest import random_graph


def _capture_kernel_inputs(monkeypatch):
    """Record ``(port_a, port_b)`` that the kernel builds, by ``_ports``,
    for every search ``CycleSearch`` hands it."""
    calls = []
    enumerator = search.cycle_enumerator

    def record(n, edges, items, *args, **kwargs):
        calls.append(_ports(n, edges, items)[:2])
        return enumerator(n, edges, items, *args, **kwargs)

    monkeypatch.setattr(search, "cycle_enumerator", record)
    return calls


def _random_instance(rng):
    """A random host on 8..12 vertices with prescribed paths of 3 or 4
    vertices (two on 10 or more vertices); at least three search items."""
    n = rng.randint(8, 12)
    g = random_graph(rng, n, rng.uniform(0.45, 0.9))
    order = rng.sample(range(n), n)
    paths, at = [], 0
    for _ in range(1 if n < 10 else 2):
        size = rng.randint(3, 4)
        paths.append(tuple(order[at:at + size]))
        at += size
    return g, [Prescribed(verts) for verts in paths]


def _loose_reference(g, prescribed):
    """The search with port masks built from every vertex of a prescribed
    path, interiors included: the over-approximation ``CycleSearch`` used
    before interiors were left out.  An item that another offers offers it
    back through both ports, so that the union masks are symmetric.
    Returns (cycles, kernel nodes)."""
    items = CycleSearch(g, prescribed)._items()
    where = {v: idx for idx, verts in enumerate(items) for v in verts}

    def mask(end, idx):
        return sum({1 << where[w] for w in g.adj[end] if where[w] != idx})

    port_a = [mask(verts[0], idx) for idx, verts in enumerate(items)]
    port_b = [mask(verts[-1], idx) for idx, verts in enumerate(items)]
    for i, offered in enumerate([a | b for a, b in zip(port_a, port_b)]):
        for j in range(len(items)):
            if offered >> j & 1:
                port_a[j] |= 1 << i
                port_b[j] |= 1 << i
    enum = PureCycleEnum(port_a, port_b)
    adj = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    states = _states(items)
    cycles = [c for c in (_decode(ic, items, states, adj) for ic in enum)
              if c is not None]
    return cycles, enum.nodes


def test_interior_neighbour_sets_no_port_bit(monkeypatch):
    # vertex 3's only neighbour on the path 0-1-2 is the interior vertex 1,
    # which already has both of its cycle edges
    g = Graph(6, [(1, 3), (3, 4), (3, 5), (0, 4), (4, 5), (2, 5)])
    calls = _capture_kernel_inputs(monkeypatch)
    s = CycleSearch(g, [Prescribed((0, 1, 2))])
    assert list(s.cycles()) == [[2, 1, 0, 4, 3, 5]]
    [(port_a, port_b)] = calls
    idx = {verts: i for i, verts in enumerate(s._items())}
    path_bit = 1 << idx[(0, 1, 2)]
    assert not (port_a[idx[(3,)]] | port_b[idx[(3,)]]) & path_bit
    assert port_a[idx[(4,)]] & path_bit and port_a[idx[(5,)]] & path_bit


def test_union_masks_symmetric(monkeypatch):
    # an edge joins two ends, so if item i may step to item j, j may step
    # back to i; at least one instance has an end next to a path interior
    calls = _capture_kernel_inputs(monkeypatch)
    interior_neighbours = 0
    for seed in range(40):
        g, prescribed = _random_instance(random.Random(seed))
        interiors = {v for p in prescribed for v in p.vertices[1:-1]}
        interior_neighbours += sum(
            1 for v in range(g.n) if v not in interiors and g.adj[v] & interiors
        )
        CycleSearch(g, prescribed, max_nodes=2000, seed=seed).first()
        port_a, port_b = calls.pop()
        union = [a | b for a, b in zip(port_a, port_b)]
        for i, mask in enumerate(union):
            for j in range(len(union)):
                assert (mask >> j & 1) == (union[j] >> i & 1), (seed, i, j)
    assert interior_neighbours


def test_cycle_order_matches_loose_reference():
    # unbudgeted, leaving interiors out of the masks changes only the work
    fewer = 0
    for seed in range(60):
        g, prescribed = _random_instance(random.Random(1000 + seed))
        expected, loose_nodes = _loose_reference(g, prescribed)
        s = CycleSearch(g, prescribed)
        assert list(s.cycles()) == expected, seed
        assert s.stats.nodes <= loose_nodes, seed
        fewer += s.stats.nodes < loose_nodes
    assert fewer


def test_free_vertex_enumeration_pinned():
    # with no prescribed path each item is a vertex, decoded without the
    # orientation DP: the same cycles, in the same order, in the same nodes
    s = CycleSearch(complete_bipartite((6, 6)))
    cycles = list(s.cycles())
    assert len(cycles) == 43200
    assert (s.stats.nodes, s.stats.candidates, s.stats.rejected) == (334386, 43200, 0)
    assert hashlib.sha256(json.dumps(cycles).encode()).hexdigest() == (
        "bdf0b0d87970a6f22a66779690361a52e7a0192ebe8de5f0b1a3ea60e58a05b0"
    )


def test_free_vertex_enumeration_matches_oracle():
    for seed in range(40):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(3, 10), rng.uniform(0.3, 0.9))
        oracle = _OracleEnum(g, 10**7)
        expected = {cycle_edges(c) for c in oracle.cycles()}
        got = [cycle_edges(c) for c in CycleSearch(g, seed=rng.randint(0, 3)).cycles()]
        assert len(got) == len(set(got)) and set(got) == expected, seed


@pytest.mark.parametrize("n, path", [
    (3, (0, 1, 5)),
    (3, (0, 5, 2)),
    (3, (0, -1, 2)),
    (4, (0, 5, 1)),
], ids=["one item", "two items", "two items, negative", "three items"])
def test_prescribed_vertex_out_of_range_rejected(n, path):
    # with one or two items the search never reaches the kernel's checks,
    # and used to yield a cycle through the vertex that is not there
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    with pytest.raises(ValueError, match=rf"vertex outside 0\.\.{n - 1}"):
        CycleSearch(g, [Prescribed(path)])
