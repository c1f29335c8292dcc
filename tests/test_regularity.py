"""Density-regularity checking against an independent brute force."""

import math
import random
from fractions import Fraction

import pytest

from bipham.errors import NotBipartite
from bipham.graphs import Graph, complete_bipartite
from bipham.regularity import check_regular_pair, naive_regular_pair


def test_complete_pair_superregular():
    g = complete_bipartite((5, 5))
    rep = check_regular_pair(g, range(5), range(5, 10), "3/10", d=1)
    assert rep.density == 1
    assert rep.is_eps_regular and rep.is_superregular
    assert rep.mode == "exhaustive"


def test_complete_minus_matching():
    g = complete_bipartite((5, 5)).minus_edges([(i, i + 5) for i in range(5)])
    rep = check_regular_pair(g, range(5), range(5, 10), "3/10", d="4/5")
    assert rep.density == Fraction(4, 5)
    # the 2x2 rectangle missing both matching edges has density 1/2, which
    # deviates by exactly 3/10: the strict-inequality definition fails right
    # at the boundary, and the independent brute force agrees
    ok, _ = naive_regular_pair(g, range(5), range(5, 10), "3/10")
    assert rep.is_eps_regular == ok == False
    rep2 = check_regular_pair(g, range(5), range(5, 10), "31/100", d="4/5")
    ok2, _ = naive_regular_pair(g, range(5), range(5, 10), "31/100")
    assert rep2.is_eps_regular and ok2
    assert rep2.is_superregular  # all degrees are exactly 4 = (4/5) * 5


def test_disjoint_union_not_regular():
    edges = [(i, 6 + j) for i in range(3) for j in range(3)]
    edges += [(3 + i, 9 + j) for i in range(3) for j in range(3)]
    g = Graph(12, edges)
    rep = check_regular_pair(g, range(6), range(6, 12), "2/5")
    assert not rep.is_eps_regular
    a_sub, b_sub, dens = rep.witness
    assert len(a_sub) >= math.ceil(0.4 * 6) and len(b_sub) >= 3
    assert abs(dens - rep.density) >= Fraction(2, 5)
    ok, _ = naive_regular_pair(g, range(6), range(6, 12), "2/5")
    assert not ok


@pytest.mark.parametrize("seed", range(25))
def test_exhaustive_matches_naive(seed):
    rng = random.Random(seed)
    p, q = rng.randint(2, 5), rng.randint(2, 5)
    edges = [
        (i, p + j) for i in range(p) for j in range(q) if rng.random() < 0.6
    ]
    if not edges:
        edges = [(0, p)]
    g = Graph(p + q, edges)
    eps = Fraction(rng.randint(1, 9), 10)
    fast = check_regular_pair(g, range(p), range(p, p + q), eps)
    slow_ok, _ = naive_regular_pair(g, range(p), range(p, p + q), eps)
    assert fast.is_eps_regular == slow_ok


def test_sampled_mode_reports():
    g = complete_bipartite((14, 14))
    rep = check_regular_pair(g, range(14), range(14, 28), "1/4", samples=200, seed=7)
    assert rep.mode == "sampled" and rep.samples == 200 and rep.seed == 7
    assert rep.is_eps_regular


def test_class_hygiene():
    g = Graph(4, [(0, 1), (0, 2)])
    with pytest.raises(NotBipartite):
        check_regular_pair(g, [0, 1], [1, 2], "1/2")
    with pytest.raises(NotBipartite):
        check_regular_pair(g, [0, 1], [2, 3], "1/2")  # edge inside {0,1}
