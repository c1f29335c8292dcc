"""Prescribed-path search layer: ``CycleSearch``'s checks, and the cycles
it yields."""

import hashlib
import json
import random

import pytest

from bipham.graphs import Graph, complete_bipartite
from bipham.search import CycleSearch, Prescribed
from bipham.solvers import _OracleEnum
from bipham.validate import cycle_edges

from conftest import random_graph


def test_free_vertex_enumeration_pinned():
    # with no prescribed path the instance is the graph itself; every
    # candidate is a cycle
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
