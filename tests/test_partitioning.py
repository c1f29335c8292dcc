"""Randomized partitions: equipartitions, cluster partitions, localized
slices, scheme orientation."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from bipham import partitioning
from bipham.balance import Framework, validate_framework
from bipham.errors import PreconditionViolated, RetryBudgetExceeded
from bipham.graphs import Graph, LabelledPartition, OrientedGraph, complete_bipartite
from bipham.matchings import edge_coloring
from bipham.partitioning import (
    _alternating_orientation,
    framework_partition,
    localized_slices,
    orient_scheme,
    random_equipartition,
    verify_equipartition,
)
from bipham.regularity import EXHAUSTIVE_LIMIT, check_regular_pair
from bipham.schemes import (
    oriented_scheme_violations,
    partition_structure_violations,
    scheme_violations,
)

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


def _square_scheme(m=4, K=2):
    g = complete_bipartite((K * m, K * m))
    A = list(range(K * m))
    B = list(range(K * m, 2 * K * m))
    part = LabelledPartition(
        2 * K * m, [], A, [], B,
        clusters_A=[A[i * m : (i + 1) * m] for i in range(K)],
        clusters_B=[B[i * m : (i + 1) * m] for i in range(K)],
    )
    return g, part


def test_orient_scheme_verifies():
    g, part = _square_scheme()
    gdir, cert = orient_scheme(g, part, "1/2", "1/4", seed=2)
    assert len(gdir.arcs) == g.num_edges()
    assert not oriented_scheme_violations(gdir, part, "1/2", "1")


def test_orient_scheme_pairs_are_vacuous_at_eps_dir_one(monkeypatch):
    # eps = 1/4 gives eps_dir = 2*sqrt(1/4) = 1, at which no directed pair
    # can fail [eps_dir, 1/2]-superregularity: the scheme check builds and
    # checks no pair, and each pair, checked on its own, reports mode vacuous
    from bipham import schemes

    def no_pair_check(*args, **kwargs):
        raise AssertionError("a vacuous pair was checked")

    g, part = _square_scheme()
    monkeypatch.setattr(schemes, "check_regular_pair", no_pair_check)
    gdir, cert = orient_scheme(g, part, "1/2", "1/4", seed=0)
    monkeypatch.undo()
    assert cert.conditions["oriented-scheme"] == "pass with eps=1"
    for sa in part.clusters_A:
        for sb in part.clusters_B:
            for left, right in ((sa, sb), (sb, sa)):
                pair = Graph(gdir.n, [(x, y) for x, y in gdir.arcs
                                      if x in left and y in right])
                rep = check_regular_pair(pair, left, right, 1, d=Fraction(1, 2))
                assert rep.density == Fraction(1, 2)
                assert rep.mode == "vacuous" and rep.is_superregular


def _half_density_scheme(m=14):
    """K(m, m) as one cluster a side, its edge colour classes oriented in
    alternating directions: each directed pair has density 1/2 and every
    degree m/2, inside the window at eps = 1/4."""
    g, part = _square_scheme(m=m, K=1)
    return OrientedGraph(g.n, _alternating_orientation(g, part, 0)), part


def test_oriented_scheme_lists_undecided_pairs_as_unverified():
    # classes of 14 vertices are past the exhaustive limit: at eps = 1/4 the
    # pairs are not vacuous, so their regularity is undecided, and the
    # scheme check says so instead of passing them
    gdir, part = _half_density_scheme()
    assert len(part.clusters_A[0]) > EXHAUSTIVE_LIMIT
    pairs = [p for p in oriented_scheme_violations(gdir, part, "1/2", "1/4")
             if p.startswith("pair ")]
    assert pairs == [
        f"pair {name} unverified: [1/4,1/2]-superregularity is decided only "
        f"up to {EXHAUSTIVE_LIMIT} vertices a class"
        for name in ("A_(1,1)->B_(1,1)", "B_(1,1)->A_(1,1)")
    ]


def test_oriented_scheme_degree_witness_refutes_large_pairs():
    # the same pairs with every arc at vertex 0 turned out of it: 0 has
    # out-degree 14 and in-degree 0, outside [7/2, 21/2], so both pairs
    # fail superregularity whatever their regularity
    gdir, part = _half_density_scheme()
    arcs = [(y, x) if y == 0 else (x, y) for x, y in gdir.arcs]
    pairs = [p for p in oriented_scheme_violations(OrientedGraph(gdir.n, arcs),
                                                   part, "1/2", "1/4")
             if p.startswith("pair ")]
    assert pairs == ["pair A_(1,1)->B_(1,1) not [1/4,1/2]-superregular",
                     "pair B_(1,1)->A_(1,1) not [1/4,1/2]-superregular"]


def test_absorber_builder_tries_each_parity_once(monkeypatch):
    # at eps = 1/100, eps_dir = 1/5, and single-vertex rectangles of density
    # 0 or 1 break every half-density pair: both parities fail, each is
    # oriented and verified once, and the second failure is raised
    import bipham.partitioning as partitioning
    from bipham.pipeline import PipelineConstants, _build_absorbers

    seeds = []
    orient = partitioning._alternating_orientation

    def counted(g, part, seed):
        seeds.append(seed)
        return orient(g, part, seed)

    monkeypatch.setattr(partitioning, "_alternating_orientation", counted)
    g, part = _square_scheme()
    c = PipelineConstants(eps_prime=Fraction(1, 100))
    with pytest.raises(RetryBudgetExceeded) as info:
        _build_absorbers(g, part, None, {}, {}, c, seed=5)
    assert seeds == [5, 6] and info.value.attempts == 1
    assert any(t.startswith("pair ") for t in info.value.last_failures)


def test_orient_scheme_rejects_side_internal_edge():
    g, part = _square_scheme()
    bad = Graph(g.n, list(g.edges) + [(0, 1)])
    with pytest.raises(PreconditionViolated):
        orient_scheme(bad, part, "1/2", "1/4", seed=0)


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


def test_alternating_orientation_keeps_pair_matchings():
    g, part = _square_scheme()
    gdir, _ = orient_scheme(g, part, "1/2", "1/4", seed=0)
    from bipham.matchings import kuhn_matching

    def arcs_into(left, right):
        return {u: [v for v in right if (u, v) in gdir.arcs] for u in left}

    for i in range(1, 3):
        for j in range(1, 3):
            left = list(part.clusters_A[i - 1])
            right = list(part.clusters_B[j - 1])
            assert kuhn_matching(left, arcs_into(left, right)) is not None
            assert kuhn_matching(right, arcs_into(right, left)) is not None


def _ref_alternating_orientation(g, part, seed):
    """Referee: the orientation as one edges_between scan per subcluster
    pair."""
    K, L = part.K, part.L or 1
    arcs = []
    for i in range(1, K + 1):
        for h in range(1, L + 1):
            sa = part.subcluster_A(i, h)
            for j in range(1, K + 1):
                for h2 in range(1, L + 1):
                    pair_edges = g.edges_between(sa, part.subcluster_B(j, h2))
                    if not pair_edges:
                        continue
                    verts = sorted(set(v for e in pair_edges for v in e))
                    idx = {v: t for t, v in enumerate(verts)}
                    local = Graph(len(verts), [(idx[u], idx[v]) for u, v in pair_edges])
                    for (lu, lv), color in edge_coloring(local).items():
                        u, v = verts[lu], verts[lv]
                        a_end, b_end = (u, v) if u in sa else (v, u)
                        if (color + seed % 2) % 2 == 0:
                            arcs.append((a_end, b_end))
                        else:
                            arcs.append((b_end, a_end))
    return arcs


def _ref_oriented_scheme_violations(gdir, part, eps0, eps):
    """Referee: the oriented scheme check with one scan of all arcs per
    directed pair and common neighbourhoods compared as Fractions."""
    eps = Fraction(eps)
    K, L, m = part.K, part.L or 1, part.m
    problems = partition_structure_violations(part, eps0, require_refinement=False)
    A, B = frozenset(part.A), frozenset(part.B)
    for x, y in sorted(gdir.arcs):
        if not ((x in A and y in B) or (x in B and y in A)):
            problems.append(f"arc ({x},{y}) is not an AB-arc")
            break
    for i in range(1, K + 1):
        for j in range(1, K + 1):
            for h in range(1, L + 1):
                for h2 in range(1, L + 1):
                    sa = set(part.subcluster_A(i, h))
                    sb = set(part.subcluster_B(j, h2))
                    for left, right, name in (
                        (sa, sb, f"A_({i},{h})->B_({j},{h2})"),
                        (sb, sa, f"B_({j},{h2})->A_({i},{h})"),
                    ):
                        pair = Graph(gdir.n, [(x, y) for x, y in gdir.arcs
                                              if x in left and y in right])
                        rep = check_regular_pair(pair, sorted(left), sorted(right),
                                                 eps, d=Fraction(1, 2))
                        if rep.is_superregular is None:
                            problems.append(
                                f"pair {name} unverified: [{eps},1/2]-"
                                "superregularity is decided only up to "
                                f"{EXHAUSTIVE_LIMIT} vertices a class")
                        elif not rep.is_superregular:
                            problems.append(
                                f"pair {name} not [{eps},1/2]-superregular")
    floor_cn = (1 - eps) * Fraction(m, 5 * L)
    for side, other_sub in ((sorted(part.A), part.subcluster_B),
                            (sorted(part.B), part.subcluster_A)):
        for xi, x in enumerate(side):
            for y in side[xi + 1:]:
                for i in range(1, K + 1):
                    for h in range(1, L + 1):
                        sub = set(other_sub(i, h))
                        both = len(gdir.out[x] & gdir.inn[y] & sub)
                        rev = len(gdir.out[y] & gdir.inn[x] & sub)
                        if both < floor_cn or rev < floor_cn:
                            problems.append(
                                f"common neighborhood of ({x},{y}) in "
                                f"subcluster ({i},{h}) too small: "
                                f"{min(both, rev)} < {floor_cn}")
    return problems


def _random_scheme(rng):
    """A random bipartite host on K clusters of m per side, refined into L
    parts, with an exceptional vertex on each side half the time."""
    K, m, L = rng.randint(1, 3), rng.choice((4, 6)), rng.choice((1, 2))
    a = rng.randint(0, 1)
    n = 2 * (K * m + a)
    order = rng.sample(range(n), n)
    A0, A = order[:a], order[a:a + K * m]
    B0, B = order[a + K * m:2 * a + K * m], order[2 * a + K * m:]
    clusters_A = [A[i * m:(i + 1) * m] for i in range(K)]
    clusters_B = [B[i * m:(i + 1) * m] for i in range(K)]
    part = LabelledPartition(n, A0, A, B0, B, clusters_A, clusters_B).with_refinement(
        [[c[t * m // L:(t + 1) * m // L] for t in range(L)] for c in clusters_A],
        [[c[t * m // L:(t + 1) * m // L] for t in range(L)] for c in clusters_B],
    )
    p = rng.uniform(0.7, 1.0)
    edges = [(u, v) for u in A0 + A for v in B0 + B if rng.random() < p]
    return Graph(n, edges), part


def _ref_scheme_violations(g, part, eps0, eps):
    """Referee: the undirected scheme check with the edges sorted in full
    and every degree compared with its Fraction threshold."""
    eps = Fraction(eps)
    problems = partition_structure_violations(part, eps0, require_refinement=False)
    A, B = frozenset(part.A), frozenset(part.B)
    for u, v in sorted(g.edges):
        if not ((u in A and v in B) or (u in B and v in A)):
            problems.append(f"edge ({u},{v}) is not an AB-edge")
            break
    L = part.L or 1
    threshold = (1 - eps) * Fraction(part.m, L)
    for i in range(1, part.K + 1):
        for h in range(1, L + 1):
            sub_a, sub_b = part.subcluster_A(i, h), part.subcluster_B(i, h)
            for v in part.B:
                if g.d(v, sub_a) < threshold:
                    problems.append(f"d({v}, A_({i},{h})) = {g.d(v, sub_a)} "
                                    f"< (1-eps)m/L = {threshold}")
            for w in part.A:
                if g.d(w, sub_b) < threshold:
                    problems.append(f"d({w}, B_({i},{h})) = {g.d(w, sub_b)} "
                                    f"< (1-eps)m/L = {threshold}")
    return problems


def test_scheme_violations_match_referee():
    # random schemes, some with edges inside a side; thresholds on the
    # lattice of m/L and just off it
    rng = random.Random(7)
    kinds = Counter()
    for case in range(60):
        g, part = _random_scheme(rng)
        if rng.random() < 0.4:
            side = rng.choice([part.A0 + part.A, part.B0 + part.B])
            u, v = rng.sample(side, 2)
            g = Graph(g.n, list(g.edges) + [(u, v)])
        L = part.L or 1
        t = rng.randint(0, part.m // L)
        eps = rng.choice([Fraction(t * L, part.m), Fraction(t * L, part.m)
                          + Fraction(1, 997), Fraction(1, 4)])
        got = scheme_violations(g, part, "1/8", eps)
        assert got == _ref_scheme_violations(g, part, "1/8", eps), case
        kinds.update(t[:2] for t in got)
        kinds["none"] += not got
    assert {"ed", "d(", "none"} <= set(kinds), kinds


def test_orientation_layer_matches_referee():
    # the bucketed orientation gives the referee's arcs in the same order,
    # and the verifier its problems, on alternating, random and perturbed
    # orientations
    rng = random.Random(2024)
    kinds = Counter()
    for case in range(24):
        g, part = _random_scheme(rng)
        arcs = _alternating_orientation(g, part, case)
        assert arcs == _ref_alternating_orientation(g, part, case), case
        flipped = [(y, x) if rng.random() < 0.1 else (x, y) for x, y in arcs]
        coin = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
        for orientation in (arcs, flipped, coin):
            gdir = OrientedGraph(g.n, orientation)
            for eps in ("1/4", "1/2", "1"):
                got = oriented_scheme_violations(gdir, part, "1/8", eps)
                assert got == _ref_oriented_scheme_violations(
                    gdir, part, "1/8", eps), (case, eps)
                kinds.update(t.split()[0] for t in got)
                kinds["none"] += not got
    assert set(kinds) == {"|A0", "arc", "pair", "common", "none"}
