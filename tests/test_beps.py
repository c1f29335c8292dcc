"""Path-system factor construction in oriented schemes."""

import pytest

from bipham.beps import (
    build_beps,
    build_bf_family,
    canonical_intervals,
    check_factor_degrees,
)
from bipham.errors import PreconditionViolated
from bipham.fictive import build_fictive
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


def test_build_beps_with_system():
    g, part, gdir = _scheme()
    interval = canonical_intervals(10, 2)[0]  # clusters 1..6, interior 2..5
    j = _system(part, 0)
    beps = build_beps(gdir, part, j, 1, interval, min_interval=10)
    assert len(beps.paths) == part.m
    got = set(v for p in beps.paths for v in p)
    assert set(part.V0()) <= got
    fict = build_fictive(j, part)
    assert [e.pair() for e in beps.fict.edges] == [e.pair() for e in fict.edges]
    # vertex bookkeeping: the starred path visits each interior cluster row
    # once per fictive endpoint it hosts, and every other row exactly once
    star = set(beps.star_path)
    for i in interval:
        row = set(part.subcluster_A(i, 1))
        hosts = sum(1 for e in beps.fict.edges if e.x in row) + sum(
            1
            for e in beps.fict.edges
            if e.y in set(part.subcluster_B(i, 1))
        )
        assert len(row & star) == max(hosts, 1)


def test_build_bf_family_single_factor():
    g, part, gdir = _scheme(K=10, m=6, exc_a=0, exc_b=0)
    empty = PathSystem(part.n, [])
    assignments = {(1, 1): [empty], (2, 1): [empty]}
    factors = build_bf_family(gdir, part, assignments, 1, 2, 1, min_interval=10)
    assert len(factors) == 1
    bf = factors[0]
    assert not check_factor_degrees(bf, part)
    assert len(bf.systems) == 2


def test_starred_cycle_pulls_back():
    # a Hamilton cycle of the bipartite scheme plus the fictive edges that
    # contains the starred path system corresponds, after substituting the
    # embedded system back, to a Hamilton cycle on the full vertex set
    from bipham.search import CycleSearch, Prescribed
    from bipham.validate import check_cycle, cycle_edges
    from bipham.fictive import substitute

    g, part, gdir = _scheme(K=10, m=6)
    interval = canonical_intervals(10, 2)[0]
    j = _system(part, 0)
    beps = build_beps(gdir, part, j, 1, interval, min_interval=10)
    # search universe: inner vertices only; allowed edges: the scheme
    universe = sorted(set(part.A) | set(part.B))
    comp = {v: i for i, v in enumerate(universe)}
    allowed = Graph(len(universe),
                    [(comp[x], comp[y]) for x, y in gdir.underlying().edges])
    prescribed = [Prescribed(tuple(comp[v] for v in beps.star_path))]
    prescribed += [Prescribed(tuple(comp[v] for v in p)) for p in beps.paths[1:]]
    cyc = None
    for seed in range(6):  # a bad item order can trap the first descent
        cyc = CycleSearch(allowed, prescribed, max_nodes=500_000,
                          seed=seed).first()
        if cyc is not None:
            break
    assert cyc is not None
    star_cycle = [universe[v] for v in cyc]
    full = substitute(star_cycle, beps.bes, beps.fict, part)
    assert not check_cycle(part.n, full)
    # the pulled-back cycle contains the whole undirected path system
    assert beps.edge_set() <= cycle_edges(full)


def test_bf_degree_law_with_exceptional():
    # two factors need q/m well below one: use wider rows than the
    # single-factor case
    g, part, gdir = _scheme(K=10, m=8, seed=9)
    # every slot needs a system covering all exceptional vertices; interval 1
    # has interior clusters 2..5, interval 2 has 7..10
    assignments = {
        (1, 1): [_system(part, 0, base=2), _system(part, 1, base=2)],
        (2, 1): [_system(part, 0, base=7), _system(part, 1, base=7)],
    }
    factors = build_bf_family(gdir, part, assignments, 1, 2, 2, min_interval=10)
    assert len(factors) == 2
    for bf in factors:
        assert not check_factor_degrees(bf, part)
        v0 = sorted(part.V0())
        deg = {v: 0 for v in v0}
        for b in bf.systems:
            for p in b.paths:
                for i in range(len(p) - 1):
                    for v in (p[i], p[i + 1]):
                        if v in deg:
                            deg[v] += 1
        assert all(d == 2 * 1 * 2 for d in deg.values())
    e0 = set(factors[0].edge_multiset())
    e1 = set(factors[1].edge_multiset())
    assert not (e0 & e1)
