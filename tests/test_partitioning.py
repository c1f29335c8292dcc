"""Randomized partitions: equipartitions, cluster partitions, localized
slices, and the scheme check of ``bipham verify --level scheme``."""

import random
from collections import Counter
from fractions import Fraction

from bipham import partitioning
from bipham.balance import Framework, validate_framework
from bipham.graphs import Graph, LabelledPartition, complete_bipartite
from bipham.partitioning import (
    framework_partition,
    localized_slices,
    random_equipartition,
    verify_equipartition,
)
from bipham.schemes import partition_structure_violations, scheme_violations

from conftest import complete_graph


def test_equipartition_complete_bipartite_zero_slack():
    # splitting one side of a complete bipartite graph: every vertex of the
    # other side sees each part equally, so any epsilon passes
    g = Graph(16, [(i, 8 + j) for i in range(8) for j in range(8)])
    parts, cert = random_equipartition(
        g, g, range(8), [list(range(8, 16))], 2, "1/10", "1/8", "1/8", seed=1
    )
    assert [len(p) for p in parts] == [4, 4]
    assert not verify_equipartition(
        g, g, range(8), [list(range(8, 16))], parts, "1/8", "1/8"
    )


def test_equipartition_dense_clique_bound():
    g = complete_graph(16)
    parts, cert = random_equipartition(
        g, g, range(16), [], 2, "1/10", "1/2", "1/2", seed=2
    )
    e_between = g.e_between(parts[0], parts[1])
    # 2(e(U) +- eps2 max)/K^2 with e(U)=120: window 60 +- 54
    assert abs(e_between - 60) <= Fraction(1, 2) * 120 / 2


def test_equipartition_singleton_parts_slack_dominated():
    g = complete_graph(4)
    parts, cert = random_equipartition(
        g, g, range(4), [], 4, "1/10", "1", "1", seed=3
    )
    assert [len(p) for p in parts] == [1, 1, 1, 1]


def test_framework_partition_and_slices():
    g = complete_bipartite((8, 8))
    part0 = LabelledPartition(16, [], range(8), [], range(8, 16))
    fw = validate_framework(g, part0, 8, "1/10", "1/10", 2)
    assert isinstance(fw, Framework) and fw.kind == "full"
    part, cert = framework_partition(fw, g, 2, "1/2", "9/10", seed=4)
    assert part.K == 2 and part.m == 4
    sl = localized_slices(fw, part, "1/2", "9/10", seed=4)
    union_a = set().union(*sl.slices_A.values()) if sl.slices_A else set()
    assert union_a == set(g.edges_within(part.A_prime()))


def test_slices_partition_exactly_with_internal_edges():
    base = complete_bipartite((8, 8))
    # equal internal load on both sides keeps the split balanced
    extra = [(0, 1), (2, 3), (8, 9), (10, 11)]
    g = Graph(16, list(base.edges) + extra)
    part0 = LabelledPartition(16, [], range(8), [], range(8, 16))
    fw = validate_framework(g, part0, 8, "1/2", "1/2", 2)
    assert isinstance(fw, Framework)
    part, _ = framework_partition(fw, g, 2, "1", "1", seed=0)
    sl = localized_slices(fw, part, "1", "1", seed=1)
    got_a = sorted(e for edges in sl.slices_A.values() for e in edges)
    assert got_a == sorted(g.edges_within(part.A_prime()))
    got_b = sorted(e for edges in sl.slices_B.values() for e in edges)
    assert got_b == sorted(g.edges_within(part.B_prime()))
    count = sum(len(v) for v in sl.slices_A.values()) + sum(
        len(v) for v in sl.slices_B.values()
    )
    assert count == len(extra)


def test_exceptional_star_split():
    # a star at an exceptional vertex splits its edges across the slice row
    base = complete_bipartite((8, 9))
    n = 17
    center = 16
    g = Graph(n, [e for e in base.edges if center not in e]
              + [(center, i) for i in range(4)]
              + [(center, 8 + i) for i in range(4)])
    part0 = LabelledPartition(n, [center], range(8), [], range(8, 16))
    part = part0.with_clusters(
        [[0, 1, 2, 3], [4, 5, 6, 7]], [[8, 9, 10, 11], [12, 13, 14, 15]]
    )
    fw = Framework(g, part, 8, Fraction(1, 2), Fraction(1, 2), 2, "full", None)
    sl = localized_slices(fw, part, "1", "1", seed=0)
    star_edges = {(i, center) if i < center else (center, i) for i in range(4)}
    spread = [len(star_edges & set(sl.slices_A[(1, j)])) for j in (1, 2)]
    assert sum(spread) == 4 and max(spread) - min(spread) <= 1


def test_exceptional_internal_edges_spread_evenly():
    # five edges inside the exceptional set, four slices: each slice gets
    # one or two of them
    base = complete_bipartite((8, 8))
    n = 22
    exc = list(range(16, 22))
    inner = [(16, 17), (17, 18), (18, 19), (19, 20), (20, 21)]
    cross = [(v, b) for v in exc[:3] for b in range(8, 12)]
    cross += [(v, a) for v in exc[3:] for a in range(0, 4)]
    g = Graph(n, list(base.edges) + inner + cross)
    part = LabelledPartition(
        n, exc[:3], range(8), exc[3:], range(8, 16),
        clusters_A=[[0, 1, 2, 3], [4, 5, 6, 7]],
        clusters_B=[[8, 9, 10, 11], [12, 13, 14, 15]],
    )
    fw = Framework(g, part, 8, Fraction(1), Fraction(1), 2, "full", None)
    sl = localized_slices(fw, part, "1", "1", seed=0)
    inner_a = [e for e in inner if e[0] in set(exc[:3]) and e[1] in set(exc[:3])]
    counts = [
        len(set(inner_a) & set(sl.slices_A[(i, j)]))
        for i in (1, 2) for j in (1, 2)
    ]
    assert sum(counts) == len(inner_a)
    assert all(abs(c - len(inner_a) / 4) <= 1 for c in counts)


def _ref_dichotomy_warnings(g, U, R, eps):
    """Referee: the degree-dichotomy warnings recounted with ``Graph.d``,
    one reference set at a time, compared as Fractions."""
    bound = Fraction(eps) * g.n
    du = [g.d(v, U) for v in U]
    out = []
    if du and not (min(du) >= bound or max(du) <= bound):
        out.append(f"degree dichotomy fails on U: min {min(du)}, "
                   f"max {max(du)}, eps*n={bound}")
    for j, Rj in enumerate(R):
        up = all(g.d(u, Rj) <= bound for u in U)
        down = all(g.d(x, U) >= bound for x in Rj)
        if not (up or down):
            out.append(f"degree dichotomy fails for reference set {j}")
    return out


def test_equipartition_dichotomy_warnings_match_referee():
    # hosts drawn from random.Random alone (no set or hash order), bipartite
    # across two sides with a few internal edges and an exceptional vertex
    # or two per side; eps*n an integer up to the cross degrees, so that it
    # meets degrees
    seen = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.choice([12, 16, 20])
        order = rng.sample(range(n), n)
        a = rng.randint(0, 2)
        A0, A = order[:a], order[a:n // 2]
        B0, B = order[n // 2:n // 2 + a], order[n // 2 + a:]
        side = {v: v in A0 or v in A for v in range(n)}
        p, q = rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.3)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < (q if side[u] == side[v] else p)])
        eps = Fraction(rng.randint(0, n // 2), n)
        U, R = (A, [A0, B0, B]) if rng.random() < 0.5 else (B, [B0, A0, A])
        K = rng.choice([k for k in (1, 2, 3) if len(U) % k == 0])
        parts, cert = random_equipartition(g, g, U, R, K, eps, 4, 4, seed=seed)
        assert cert.warnings == _ref_dichotomy_warnings(g, U, R, eps), seed
        seen.update(w.split(" fails ")[1].split()[0] for w in cert.warnings)
        seen["none"] += not cert.warnings
    # the dichotomy fails on U, fails for a reference set, and holds
    assert set(seen) == {"on", "for", "none"}, seen


def test_equipartition_success_rate_monitor(capsys, monkeypatch):
    # observed success rate over 100 seeds, reported (not asserted): at this
    # scale the generous parameters should verify on the first try
    monkeypatch.setattr(partitioning, "DEFAULT_ATTEMPTS", 1)
    g = Graph(16, [(i, 8 + j) for i in range(8) for j in range(8)])
    ok = 0
    for seed in range(100):
        try:
            random_equipartition(
                g, g, range(8), [list(range(8, 16))], 2,
                "1/10", "1/2", "1/2", seed=seed,
            )
            ok += 1
        except Exception:
            pass
    print(f"\nequipartition first-try success rate: {ok}/100")


def _random_scheme(rng):
    """A random bipartite host on K clusters of m per side, with an
    exceptional vertex on each side half the time."""
    K, m = rng.randint(1, 3), rng.choice((4, 6))
    a = rng.randint(0, 1)
    n = 2 * (K * m + a)
    order = rng.sample(range(n), n)
    A0, A = order[:a], order[a:a + K * m]
    B0, B = order[a + K * m:2 * a + K * m], order[2 * a + K * m:]
    clusters_A = [A[i * m:(i + 1) * m] for i in range(K)]
    clusters_B = [B[i * m:(i + 1) * m] for i in range(K)]
    part = LabelledPartition(n, A0, A, B0, B, clusters_A, clusters_B)
    p = rng.uniform(0.7, 1.0)
    edges = [(u, v) for u in A0 + A for v in B0 + B if rng.random() < p]
    return Graph(n, edges), part


def _ref_scheme_violations(g, part, eps0, eps):
    """Referee: the scheme check with the edges sorted in full and every
    degree compared with its Fraction threshold."""
    eps = Fraction(eps)
    problems = partition_structure_violations(part, eps0)
    A, B = frozenset(part.A), frozenset(part.B)
    for u, v in sorted(g.edges):
        if not ((u in A and v in B) or (u in B and v in A)):
            problems.append(f"edge ({u},{v}) is not an AB-edge")
            break
    threshold = (1 - eps) * Fraction(part.m)
    for i in range(1, part.K + 1):
        sub_a, sub_b = part.clusters_A[i - 1], part.clusters_B[i - 1]
        for v in part.B:
            if g.d(v, sub_a) < threshold:
                problems.append(f"d({v}, A_({i},1)) = {g.d(v, sub_a)} "
                                f"< (1-eps)m/L = {threshold}")
        for w in part.A:
            if g.d(w, sub_b) < threshold:
                problems.append(f"d({w}, B_({i},1)) = {g.d(w, sub_b)} "
                                f"< (1-eps)m/L = {threshold}")
    return problems


def test_scheme_violations_match_referee():
    # random schemes, some with edges inside a side; thresholds on the
    # lattice of m and just off it
    rng = random.Random(7)
    kinds = Counter()
    for case in range(60):
        g, part = _random_scheme(rng)
        if rng.random() < 0.4:
            side = rng.choice([part.A0 + part.A, part.B0 + part.B])
            u, v = rng.sample(side, 2)
            g = Graph(g.n, list(g.edges) + [(u, v)])
        t = rng.randint(0, part.m)
        eps = rng.choice([Fraction(t, part.m), Fraction(t, part.m)
                          + Fraction(1, 997), Fraction(1, 4)])
        got = scheme_violations(g, part, "1/8", eps)
        assert got == _ref_scheme_violations(g, part, "1/8", eps), case
        kinds.update(t[:2] for t in got)
        kinds["none"] += not got
    assert {"ed", "d(", "none"} <= set(kinds), kinds
