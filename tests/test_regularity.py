"""Density-regularity checking against an independent brute force."""

import math
import random
from fractions import Fraction

import pytest

from bipham.errors import NotBipartite
from bipham.graphs import Graph, complete_bipartite
from bipham.balance import frac
from bipham.regularity import (
    EXHAUSTIVE_LIMIT,
    RegularityReport,
    _exhaustive_check,
    check_regular_pair,
    naive_regular_pair,
)


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


def test_vacuous_checks_agree_with_brute_force():
    # eps >= 1, or eps > max(d, 1 - d), leaves no rectangle able to deviate:
    # such a check is decided at once, and the brute force finds every
    # rectangle within eps too; any other eps runs the exhaustive check
    counts = {"vacuous": 0, "exhaustive": 0}
    for seed in range(200):
        rng = random.Random(seed)
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        g = Graph(p + q, [(a, p + b) for a in range(p) for b in range(q)
                          if rng.random() < rng.random()])
        density = Fraction(len(g.edges), p * q)
        eps = Fraction(rng.randint(1, 12), 10)
        rep = check_regular_pair(g, range(p), range(p, p + q), eps)
        vacuous = eps >= 1 or eps > max(density, 1 - density)
        assert rep.mode == ("vacuous" if vacuous else "exhaustive"), seed
        ok, _ = naive_regular_pair(g, range(p), range(p, p + q), eps)
        assert rep.is_eps_regular == ok and (ok or not vacuous), seed
        counts[rep.mode] += 1
    assert min(counts.values()) > 50, counts


def test_vacuous_boundary_stays_exact():
    # eps = max(d, 1 - d) < 1 is not vacuous: two disjoint K(3,3) have
    # density 1/2, and a 3x3 block inside one of them deviates by exactly 1/2
    edges = [(i, 6 + j) for i in range(3) for j in range(3)]
    edges += [(3 + i, 9 + j) for i in range(3) for j in range(3)]
    g = Graph(12, edges)
    rep = check_regular_pair(g, range(6), range(6, 12), "1/2", d="1/2")
    assert rep.density == Fraction(1, 2) and rep.mode == "exhaustive"
    assert not rep.is_eps_regular and not rep.is_superregular
    assert abs(rep.witness[2] - rep.density) == Fraction(1, 2)
    assert naive_regular_pair(g, range(6), range(6, 12), "1/2")[0] is False
    # a hair above the boundary nothing can deviate
    rep = check_regular_pair(g, range(6), range(6, 12), "501/1000", d="1/2")
    assert rep.mode == "vacuous" and rep.is_superregular


def test_large_pair_is_unverified():
    # past the exhaustive limit a non-vacuous check decides nothing: K(14,14)
    # at eps = 1/4 is regular, but no check here proves it
    g = complete_bipartite((14, 14))
    assert 14 > EXHAUSTIVE_LIMIT
    rep = check_regular_pair(g, range(14), range(14, 28), "1/4", d=1)
    assert rep.mode == "unverified"
    assert rep.is_eps_regular is None and rep.witness is None
    assert rep.is_superregular is None and rep.degree_witness is None
    # without d there is no superregularity to report
    assert check_regular_pair(g, range(14), range(14, 28), "1/4").is_superregular is False


def test_large_pair_degree_witness_still_refutes():
    # the degree window is exact at every size: vertex 0 keeps 10 of its 14
    # edges, below (1 - 1/4) * 14, so the pair is not superregular although
    # its regularity is unverified
    g = complete_bipartite((14, 14)).minus_edges([(0, 14 + j) for j in range(4)])
    rep = check_regular_pair(g, range(14), range(14, 28), "1/4", d=1)
    assert rep.mode == "unverified" and rep.is_eps_regular is None
    assert rep.is_superregular is False
    assert rep.degree_witness == (0, 10, Fraction(21, 2), Fraction(35, 2))


def test_class_hygiene():
    g = Graph(4, [(0, 1), (0, 2)])
    with pytest.raises(NotBipartite):
        check_regular_pair(g, [0, 1], [1, 2], "1/2")
    with pytest.raises(NotBipartite):
        check_regular_pair(g, [0, 1], [2, 3], "1/2")  # edge inside {0,1}


def _fraction_regular_pair(g, left, right, eps, d=None):
    """``check_regular_pair`` as it was before its degree windows were
    compared in integers: every bound a Fraction, each degree taken by
    ``Graph.d``, and the window checked even where it holds every degree.
    The referee of ``test_integer_windows_match_fractions``."""
    eps = frac(eps)
    d = None if d is None else frac(d)
    A = sorted(left)
    B = sorted(right)
    if set(A) & set(B):
        raise NotBipartite("classes overlap")
    if g.e_within(A) or g.e_within(B):
        raise NotBipartite("class contains internal edges")
    p, q = len(A), len(B)
    if p == 0 or q == 0:
        raise NotBipartite("empty class")
    density = Fraction(g.e_between(A, B), p * q)
    # a rectangle's density lies in [0, 1], so none deviates from the pair
    # density by eps when eps >= 1 or eps > max(density, 1 - density)
    if eps >= 1 or eps > max(density, 1 - density):
        ok, witness, mode = True, None, "vacuous"
    elif p <= EXHAUSTIVE_LIMIT and q <= EXHAUSTIVE_LIMIT:
        ok, witness = _exhaustive_check(g, A, B, eps, density)
        mode = "exhaustive"
    else:
        ok, witness, mode = None, None, "unverified"
    super_ok, deg_witness = True, None
    if d is not None:
        for a in A:
            da = g.d(a, B)
            lo, hi = (d - eps) * q, (d + eps) * q
            if not lo <= da <= hi:
                super_ok, deg_witness = False, (a, da, lo, hi)
                break
        if super_ok:
            for b in B:
                db = g.d(b, A)
                lo, hi = (d - eps) * p, (d + eps) * p
                if not lo <= db <= hi:
                    super_ok, deg_witness = False, (b, db, lo, hi)
                    break
    return RegularityReport(
        density=density, eps=eps, d=d, is_eps_regular=ok, witness=witness,
        is_superregular=super_ok and ok if d is not None else False,
        degree_witness=deg_witness, mode=mode,
    )


def test_integer_windows_match_fractions():
    # random pairs, exhaustive and unverified, with d drawn around the density
    # so that degree windows both hold and fail, on either side, and land
    # exactly on a window's end
    seen = {"superregular": 0, "left witness": 0, "right witness": 0,
            "no d": 0, "unverified": 0, "vacuous": 0, "on a bound": 0}
    for seed in range(300):
        rng = random.Random(seed)
        p, q = rng.randint(1, 8), rng.randint(1, 8)
        if rng.random() < 0.1:
            p, q = rng.randint(13, 16), rng.randint(13, 16)
        shuffled = rng.sample(range(p + q), p + q)
        left, right = shuffled[:p], shuffled[p:]
        prob = rng.uniform(0.3, 1.0)
        g = Graph(p + q, [(a, b) for a in left for b in right
                          if rng.random() < prob])
        eps = Fraction(rng.randint(1, 6), rng.choice((10, 12, 20)))
        d = None
        if rng.random() < 0.85:
            density = Fraction(len(g.edges), p * q)
            d = max(Fraction(0), density + Fraction(rng.randint(-3, 3), 10))
        rep = check_regular_pair(g, left, right, eps, d)
        assert rep == _fraction_regular_pair(g, left, right, eps, d), seed
        witness = rep.degree_witness
        seen["superregular"] += rep.is_superregular is True
        seen["left witness"] += witness is not None and witness[0] in left
        seen["right witness"] += witness is not None and witness[0] in right
        seen["no d"] += d is None
        seen["unverified"] += rep.mode == "unverified"
        seen["vacuous"] += rep.mode == "vacuous"
        seen["on a bound"] += d is not None and any(
            g.d(v, other) in ((d - eps) * len(other), (d + eps) * len(other))
            for side, other in ((left, right), (right, left)) for v in side)
    assert all(seen.values()), seen
