"""Path-system factor construction in oriented schemes."""

import random

import pytest

from bipham.beps import (
    BEPS,
    build_bf_family,
    canonical_intervals,
    check_beps,
    check_factor_degrees,
)
from bipham.errors import MatchingFailure, PreconditionViolated
from bipham.graphs import Graph, LabelledPartition, OrientedGraph
from bipham.matchings import kuhn_matching
from bipham.partitioning import orient_scheme


def _scheme(K=10, m=6, seed=4):
    """Oriented complete-bipartite scheme on K clusters of size m per side."""
    nA = K * m
    A = list(range(nA))
    B = list(range(nA, 2 * nA))
    g = Graph(2 * nA, [(a, b) for a in A for b in B])
    part = LabelledPartition(
        2 * nA, [], A, [], B,
        clusters_A=[A[i * m : (i + 1) * m] for i in range(K)],
        clusters_B=[B[i * m : (i + 1) * m] for i in range(K)],
    )
    # the alternating orientation keeps a perfect matching in both
    # directions of every row pair, which the builder relies on
    gdir, _ = orient_scheme(g, part, "1/2", "1/4", seed=seed)
    return part, gdir


def test_canonical_intervals():
    assert canonical_intervals(4, 2) == [[1, 2, 3], [3, 4, 1]]
    assert canonical_intervals(7, 7) == [
        [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 1]
    ]


def test_wrapping_interval_rejected():
    part, gdir = _scheme(K=4, m=2)
    with pytest.raises(PreconditionViolated, match="wraps onto itself"):
        build_bf_family(gdir, part, 1, 1, 1, min_interval=3)


def test_no_factors_are_built_before_any_interval_check():
    # f = 3 does not divide K = 4, yet no factor asks for an interval
    part, gdir = _scheme(K=4, m=2)
    assert build_bf_family(gdir, part, 1, 3, 0) == []


def test_build_bf_family_single_factor():
    part, gdir = _scheme(K=10, m=6)
    factors = build_bf_family(gdir, part, 1, 2, 1, min_interval=10)
    assert len(factors) == 1
    bf = factors[0]
    assert not check_factor_degrees(bf, part)
    assert len(bf.systems) == 2


def _ref_bf_family(gdir, part, L, f, q):
    """Referee: the factor-by-factor greedy.  Factor j runs over the slots
    and, in each, over the pairs of consecutive rows, taking a Kuhn matching
    over the arcs that no earlier factor or slot used.  Returns each
    factor's (style, interval, paths) per slot."""
    used = set()
    factors = []
    for _ in range(q):
        systems = []
        for interval in canonical_intervals(part.K, f):
            for h in range(1, L + 1):
                rows = []
                for idx, i in enumerate(interval):
                    rows.append(list(part.subcluster_A(i, h)))
                    if idx < len(interval) - 1:
                        rows.append(list(part.subcluster_B(i, h)))
                cur = gdir.minus_arcs(used)
                succ = {}
                for left, right in zip(rows, rows[1:]):
                    mm = kuhn_matching(left, {
                        u: [v for v in right if (u, v) in cur.arcs] for u in left
                    })
                    if mm is None:
                        raise MatchingFailure(
                            "no perfect matching between consecutive rows"
                        )
                    succ.update(mm)
                    used |= set(mm.items())
                paths = []
                for v in rows[0]:
                    seq = [v]
                    while seq[-1] in succ:
                        seq.append(succ[seq[-1]])
                    paths.append(tuple(seq))
                systems.append((h, tuple(interval), tuple(paths)))
        factors.append(systems)
    return factors


def _random_scheme(rng, K, m, L, p):
    """K clusters of m shuffled vertices a side, each split into L parts;
    every A-B pair is an edge with probability p, oriented along the
    cluster cycle A_1 B_1 ... A_K B_K with probability p."""
    ids = list(range(2 * K * m))
    rng.shuffle(ids)
    A, B = ids[: K * m], ids[K * m :]
    clusters_A = [A[i * m : (i + 1) * m] for i in range(K)]
    clusters_B = [B[i * m : (i + 1) * m] for i in range(K)]
    s = m // L
    part = LabelledPartition(
        2 * K * m, [], A, [], B, clusters_A, clusters_B,
        [[c[h * s : (h + 1) * s] for h in range(L)] for c in clusters_A],
        [[c[h * s : (h + 1) * s] for h in range(L)] for c in clusters_B],
    )
    cluster = {v: i for i, c in enumerate(clusters_A + clusters_B) for v in c}
    arcs = []
    for a in A:
        for b in B:
            if rng.random() >= p:
                continue
            i, j = cluster[a], cluster[b] - K
            # A_i -> B_i and B_i -> A_(i+1) run along the cycle
            forward = (a, b) if i == j else (b, a)
            arcs.append(forward if rng.random() < p else forward[::-1])
    return part, OrientedGraph(2 * K * m, arcs)


def test_build_bf_family_matches_the_factor_by_factor_greedy():
    rng = random.Random(34)
    outcomes = set()
    for _ in range(60):
        L = rng.choice([1, 2])
        q = rng.choice([1, 2, 3])
        K = rng.choice([2, 3, 4, 6])
        f = rng.choice([d for d in range(2, K + 1) if K % d == 0])
        m = L * rng.choice([4, 5, 6])
        part, gdir = _random_scheme(rng, K, m, L, rng.choice([0.85, 0.95, 1.0]))
        try:
            want = _ref_bf_family(gdir, part, L, f, q)
        except MatchingFailure as exc:
            with pytest.raises(MatchingFailure) as info:
                build_bf_family(gdir, part, L, f, q, min_interval=3)
            assert str(info.value) == str(exc)
            outcomes.add((L, q, "failed"))
            continue
        got = build_bf_family(gdir, part, L, f, q, min_interval=3)
        assert [[(b.style, b.interval, b.paths) for b in bf.systems]
                for bf in got] == want
        outcomes.add((L, q, "ok"))
    # both outcomes are compared at every L and q
    assert len(outcomes) == 12, sorted(outcomes)


def test_check_beps_names_each_corruption():
    part, gdir = _scheme(K=10, m=6)
    beps = build_bf_family(gdir, part, 1, 2, 1, min_interval=10)[0].systems[0]
    assert not check_beps(beps, gdir, part)
    first, *rest = beps.paths

    # the first path's second vertex swapped for another path's end: two
    # A-vertices, which no arc of the scheme joins
    far = rest[0][-1]
    bad = BEPS((first[:1] + (far,) + first[2:],) + tuple(rest), beps.style,
               beps.interval)
    assert f"edge ({first[0]},{far}) not in the scheme" in check_beps(
        bad, gdir, part)

    dropped = BEPS((first[:-1],) + tuple(rest), beps.style, beps.interval)
    problems = check_beps(dropped, gdir, part)
    assert any(p.startswith("vertex set mismatch") for p in problems)

    outside = BEPS((first[1:],) + tuple(rest), beps.style, beps.interval)
    problems = check_beps(outside, gdir, part)
    assert f"path endpoints {sorted({first[1], first[-1]})} miss an end row" \
        in problems
