"""Path-system factor construction in oriented schemes."""

import pytest

from bipham.beps import (
    build_beps,
    build_bf_family,
    canonical_intervals,
    check_factor_degrees,
)
from bipham.errors import PreconditionViolated
from bipham.graphs import Graph, LabelledPartition, PathSystem
from bipham.partitioning import orient_scheme


def _scheme(K=10, m=6, exc_a=2, exc_b=2, seed=4):
    """Complete-bipartite scheme on K clusters of size m per side, plus
    exceptional vertices (whose host edges the tests add themselves)."""
    nA = K * m
    a_exc = [2 * nA + i for i in range(exc_a)]
    b_exc = [2 * nA + exc_a + i for i in range(exc_b)]
    n = 2 * nA + exc_a + exc_b
    A = list(range(nA))
    B = list(range(nA, 2 * nA))
    cross = [(a, b) for a in A for b in B]
    g = Graph(n, cross)
    part = LabelledPartition(
        n, a_exc, A, b_exc, B,
        clusters_A=[A[i * m : (i + 1) * m] for i in range(K)],
        clusters_B=[B[i * m : (i + 1) * m] for i in range(K)],
    )
    # the alternating orientation keeps a perfect matching in both
    # directions of every row pair, which the builders rely on
    gdir, _ = orient_scheme(g, part, "1/2", "1/4", seed=seed)
    return g, part, gdir


def _system(part, col, base=2):
    """A four-cluster balanced system with all endpoints in the interior
    clusters base..base+3 (1-based) of an interval."""
    a0, a1 = part.A0
    b0, b1 = part.B0
    ca = part.clusters_A
    cb = part.clusters_B
    edges = [
        (a0, ca[base - 1][col]), (a0, ca[base][col]),
        (b0, cb[base + 1][col]), (b0, cb[base + 2][col]),
        (a1, cb[base - 1][col]), (a1, cb[base][col]),
        (b1, ca[base + 1][col]), (b1, ca[base + 2][col]),
    ]
    return PathSystem(part.n, edges)


def test_canonical_intervals():
    assert canonical_intervals(4, 2) == [[1, 2, 3], [3, 4, 1]]
    assert canonical_intervals(7, 7) == [
        [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 1]
    ]


def test_wrapping_interval_rejected():
    g, part, gdir = _scheme(K=4, m=2, exc_a=0, exc_b=0)
    with pytest.raises(PreconditionViolated):
        build_beps(gdir, part, PathSystem(part.n, []), 1,
                   canonical_intervals(4, 1)[0], min_interval=3)


def test_build_beps_refuses_an_exceptional_system():
    # the robust front runs only on frameworks without exceptional
    # vertices, so a slot's system must be empty
    g, part, gdir = _scheme()
    interval = canonical_intervals(10, 2)[0]  # clusters 1..6, interior 2..5
    with pytest.raises(PreconditionViolated, match="covers exceptional"):
        build_beps(gdir, part, _system(part, 0), 1, interval, min_interval=10)


def test_build_bf_family_single_factor():
    g, part, gdir = _scheme(K=10, m=6, exc_a=0, exc_b=0)
    empty = PathSystem(part.n, [])
    assignments = {(1, 1): [empty], (2, 1): [empty]}
    factors = build_bf_family(gdir, part, assignments, 1, 2, 1, min_interval=10)
    assert len(factors) == 1
    bf = factors[0]
    assert not check_factor_degrees(bf, part)
    assert len(bf.systems) == 2
