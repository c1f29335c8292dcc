"""Instance generators and their certified properties."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bipham

from bipham.errors import BadParams, MatchingFailure
from bipham.generators import (
    babai_instance,
    bipartite_degree_factor,
    degree_factor,
    eps_bipartite_instance,
    generate,
    regular_spanning_subgraph,
    two_cliques_instance,
    verify_eps_bipartite,
)
from bipham.graphs import Graph, complete_bipartite

from conftest import complete_graph


def test_babai_structure():
    g, part, props = babai_instance(1)
    assert g.n == 10
    assert props["min_degree"] == 5 and props["min_degree_is_half_n"]
    a_side = set(part.A)
    assert len(a_side) == 6
    internal = g.edges_within(a_side)
    assert len(internal) == 3
    deg_inside = {}
    for u, v in internal:
        deg_inside[u] = deg_inside.get(u, 0) + 1
        deg_inside[v] = deg_inside.get(v, 0) + 1
    assert set(deg_inside.values()) == {1}  # a perfect matching on the side
    assert g.e_within(part.B) == 0


def test_two_cliques_both_residues():
    g10, _, props10 = two_cliques_instance(10)
    assert props10["regular_degree"] == 4
    # two disjoint K5s
    assert g10.e_within(range(5)) == g10.e_within(range(5, 10)) == 10
    assert len(g10.edges_between(range(5), range(5, 10))) == 0
    g12, _, props12 = two_cliques_instance(12)
    assert props12["regular_degree"] == 4
    assert set(g12.degrees()) == {4}
    with pytest.raises(BadParams):
        two_cliques_instance(9)


def test_eps_bipartite_budget_and_subgraph():
    f, part, props, g = eps_bipartite_instance(
        n=24, D=8, eps="1/100", hubs=0, hub_degree=0, extra_internal=5, seed=3
    )
    e1, e2 = props["internal_edges"]
    assert e1 + e2 <= 2 * (24 * 24) // 100
    assert set(g.degrees()) == {8}
    assert g.edges <= f.edges
    ok, split = verify_eps_bipartite(f, "1/100")
    assert ok

    with pytest.raises(BadParams):
        eps_bipartite_instance(n=20, D=8, eps="1/1000", hubs=1,
                               hub_degree=6, extra_internal=0, seed=0)


def test_forced_cut_edge_present():
    f, part, props, g = eps_bipartite_instance(
        n=20, D=8, eps="1/10", hubs=1, hub_degree=6, extra_internal=0, seed=1
    )
    forced = props["forced_cut_edges"]
    assert len(forced) == 1
    assert tuple(forced[0]) in g.edges
    # the subgraph itself stays internally empty
    assert g.e_within(part.A) == 0 and g.e_within(part.B) == 0


def test_regular_spanning_subgraph_general_and_forced():
    g = regular_spanning_subgraph(complete_graph(7), 4, seed=2)
    assert set(g.degrees()) == {4}
    forced = {(0, 1)}
    g2 = regular_spanning_subgraph(complete_graph(6), 3, seed=1, forced=forced)
    assert (0, 1) in g2.edges and set(g2.degrees()) == {3}
    with pytest.raises(Exception):
        regular_spanning_subgraph(complete_graph(4), 3, forbidden={(0, 1)})


def test_degree_factor():
    out = degree_factor(Graph(4, [(0, 1), (2, 3)]), {0: 1, 1: 1, 2: 0, 3: 0})
    assert out.edges == frozenset({(0, 1)})
    # an odd-sum degree prescription cannot be realized
    with pytest.raises(MatchingFailure):
        degree_factor(complete_graph(3), {0: 1, 1: 1, 2: 1})


def test_bipartite_degree_factor_ignores_edge_order():
    # equal edge sets built in different orders iterate differently; the
    # flow network, and so the factor, must not follow that order
    m = 5
    split = (list(range(m)), list(range(m, 2 * m)))
    targets = {v: 2 for v in range(2 * m)}
    for seed in range(40):
        rng = random.Random(seed)
        edges = [(a, m + b) for a in range(m) for b in range(m)
                 if rng.random() < 0.8]
        try:
            first = bipartite_degree_factor(Graph(2 * m, edges), targets, split)
        except MatchingFailure:
            continue
        again = Graph(2 * m, list(reversed(edges)))
        assert bipartite_degree_factor(again, targets, split) == first, seed


def test_generate_dispatch():
    g, part, props = generate("complete_bipartite", {"m": 3})
    assert g == complete_bipartite((3, 3))
    with pytest.raises(BadParams):
        generate("nonsense", {})


def test_eps_bipartite_subgraph_independent_of_hash_seed():
    # the degree-factor flow network must not key its nodes on strings,
    # whose hashes change with PYTHONHASHSEED
    code = (
        "from bipham.generators import eps_bipartite_instance\n"
        "out = eps_bipartite_instance(n=32, D=6, eps='1/8', hubs=1, seed=4)\n"
        "print(sorted(out[-1].edges))\n"
    )
    src = str(Path(bipham.__file__).resolve().parent.parent)
    edges = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        edges.append(run.stdout)
    assert edges[0] and edges[0] == edges[1]
