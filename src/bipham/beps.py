"""Balanced exceptional path systems and factors.

A balanced exceptional path system (BEPS) of style h spanning an interval of
the cluster cycle consists of m/L vertex-disjoint paths between the h-rows
of the interval's two end clusters, exactly covering the h-rows of the
interval plus all exceptional vertices; one distinguished path carries a
whole balanced exceptional system.  Replacing that system by its fictive
matching turns the distinguished path into a directed path and the whole
object into a special path system, the input format of the robust
decomposition machinery.  A balanced exceptional factor stacks L*f of these
(one per interval and style) into a spanning structure where every ordinary
vertex has degree two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InsufficientNeighbors,
    MatchingFailure,
    PreconditionViolated,
)
from .fictive import FictiveMatching, build_fictive, is_consistent, substitute
from .graphs import LabelledPartition, OrientedGraph, PathSystem, norm_edge
from .matchings import kuhn_matching
from .validate import check_edge_disjoint

BEPS_ATTEMPTS = 16


def canonical_intervals(K: int, f: int) -> list[list[int]]:
    """The f intervals of the cluster cycle A_1 B_1 ... A_K B_K, each given
    as its list of A-cluster indices (1-based, wrapping; consecutive
    intervals share an endpoint cluster)."""
    if K % f != 0:
        raise PreconditionViolated(f"f = {f} does not divide K = {K}")
    size = K // f
    out = []
    for i in range(f):
        start = i * size + 1
        out.append([((start - 1 + r) % K) + 1 for r in range(size + 1)])
    return out


@dataclass(frozen=True)
class BEPS:
    """One balanced exceptional path system."""

    paths: tuple[tuple[int, ...], ...]  # undirected; paths[0] carries the system
    bes: PathSystem
    fict: FictiveMatching
    star_path: tuple[int, ...]  # directed replacement of paths[0]
    style: int
    interval: tuple[int, ...]  # A-cluster indices

    def edge_set(self) -> frozenset:
        out = set()
        for p in self.paths:
            for i in range(len(p) - 1):
                out.add(norm_edge(p[i], p[i + 1]))
        return frozenset(out)


def build_beps(
    gdir: OrientedGraph,
    part: LabelledPartition,
    j_sys: PathSystem,
    style: int,
    interval: list[int],
    min_interval: int = 10,
    source_id: str = "J",
    seed: int = 0,
) -> BEPS:
    """Extend a balanced exceptional system into a path system of the given
    style spanning the interval; retries with reshuffled pivot choices when
    a greedy pick or a fill matching gets stuck (``BEPS_ATTEMPTS`` tries)."""
    last = None
    for attempt in range(BEPS_ATTEMPTS):
        try:
            return _build_beps_once(
                gdir, part, j_sys, style, interval, min_interval, source_id,
                (seed, attempt).__hash__(),
            )
        except (InsufficientNeighbors, MatchingFailure) as exc:
            # a kept traceback would refer back to this frame, and the cycle
            # would hold every failed attempt until a full garbage collection
            last = exc.with_traceback(None)
    raise last


def _build_beps_once(
    gdir: OrientedGraph,
    part: LabelledPartition,
    j_sys: PathSystem,
    style: int,
    interval: list[int],
    min_interval: int,
    source_id: str,
    seed: int,
) -> BEPS:
    """One construction attempt.

    Thread a directed path through the fictive edges in their canonical
    order, using fresh pivot vertices from the subclusters of the fictive
    endpoints, then continue it through one vertex of every untouched row
    cluster.  The remaining paths (detours that skip a multiply-visited
    cluster, and plain row-to-row paths) are routed together, one bipartite
    matching per row transition.  Picks follow a seeded order (ascending
    for seed zero).
    """
    import random as _random

    L = part.L or 1
    h = style
    if len(set(interval)) != len(interval):
        raise PreconditionViolated(
            "interval wraps onto itself: paths would need two endpoints in "
            "one row"
        )
    if 2 * len(interval) - 1 < min_interval:
        raise PreconditionViolated(
            f"interval has {2 * len(interval) - 1} clusters < {min_interval}"
        )
    fict = build_fictive(j_sys, part, source_id)
    a_row = {i: list(part.subcluster_A(i, h)) for i in interval}
    b_row = {i: list(part.subcluster_B(i, h)) for i in interval[:-1]}
    cluster_of_a = {v: i for i in interval for v in a_row[i]}
    cluster_of_b = {v: i for i in interval[:-1] for v in b_row[i]}

    interior = set(interval[1:-1])
    visits: dict[int, int] = {}
    for e in fict.edges:
        ca = cluster_of_a.get(e.x)
        cb = cluster_of_b.get(e.y)
        if ca is None or cb is None or ca not in interior or cb not in interior:
            raise PreconditionViolated(
                f"fictive endpoint outside the interval interior: {e.pair()}"
            )
        visits[ca] = visits.get(ca, 0) + 1
        visits[cb] = visits.get(cb, 0) + 1
    used: set[int] = set(v for e in fict.edges for v in e.pair())

    rng = _random.Random(seed)

    def pick(candidates, pred):
        order = list(candidates)
        if seed:
            rng.shuffle(order)
        for w in order:
            if w not in used and pred(w):
                used.add(w)
                return w
        raise InsufficientNeighbors("no fresh pivot vertex available")

    if not fict.edges:
        # no exceptional content: the whole system is a chain of perfect
        # matchings between consecutive rows, which is both the most robust
        # construction and exactly what the filling step below produces
        star, rest = _pure_matching_paths(gdir, part, interval, h)
        beps = BEPS(
            paths=tuple([star] + rest),
            bes=j_sys,
            fict=fict,
            star_path=star,
            style=style,
            interval=tuple(interval),
        )
        problems = check_beps(beps, gdir, part)
        if problems:
            raise AssertionError(problems[0])
        return beps

    # thread a directed path through the fictive edges, in their order
    chain: list[int] = []
    prev_z = None
    for e in fict.edges:
        w = pick(
            b_row[cluster_of_a[e.x]],
            lambda cand: (prev_z is None or (prev_z, cand) in gdir.arcs)
            and (cand, e.x) in gdir.arcs,
        )
        z = pick(a_row[cluster_of_b[e.y]], lambda cand: (e.y, cand) in gdir.arcs)
        chain += [w, e.x, e.y, z]
        prev_z = z
    z_start = pick(a_row[interval[0]], lambda cand: (cand, chain[0]) in gdir.arcs)
    chain = [z_start] + chain
    # continue through both rows of every unvisited cluster, interval order;
    # a visited cluster drops its adjacent (A_i, B_i) pair, which keeps the
    # A/B alternation intact
    for idx, i in enumerate(interval):
        if idx < len(interval) - 1 and visits.get(i, 0) == 0:
            nxt = pick(b_row[i], lambda cand: (chain[-1], cand) in gdir.arcs)
            chain.append(nxt)
        if idx + 1 < len(interval) and visits.get(interval[idx + 1], 0) == 0:
            nxt = pick(
                a_row[interval[idx + 1]],
                lambda cand: (chain[-1], cand) in gdir.arcs,
            )
            chain.append(nxt)
    star_path = tuple(chain)
    if cluster_of_a.get(star_path[-1]) != interval[-1]:
        raise AssertionError("threaded path does not end in the last cluster")
    if not is_consistent(star_path, fict, closed=False):
        raise AssertionError("threaded path inconsistent with the fictive matching")

    # remaining paths: for a cluster met k times, k-1 paths that skip it
    # (skipping drops the adjacent (A_i, B_i) row pair, preserving the A/B
    # alternation), plus plain paths through every row.  All of them are
    # routed together, one bipartite matching per row transition, which
    # keeps the matchings large instead of degenerating to singletons.
    skip_plan: list[int | None] = []
    for i in sorted(visits):
        skip_plan += [i] * (visits[i] - 1)
    n_paths = part.m // L - 1
    skip_plan += [None] * (n_paths - len(skip_plan))
    if len(skip_plan) != n_paths:
        raise InsufficientNeighbors("more detours than free rows")
    starts = [v for v in a_row[interval[0]] if v not in used]
    seqs: list[list[int]] = [[s] for s in starts]
    if len(seqs) != n_paths:
        raise AssertionError("start row leftover does not match path count")
    row_plan: list[tuple[str, int]] = []
    for idx, c in enumerate(interval):
        if idx > 0:
            row_plan.append(("A", c))
        if idx < len(interval) - 1:
            row_plan.append(("B", c))
    row_plan.sort(key=lambda rc: (interval.index(rc[1]), rc[0] == "B"))
    for kind, c in row_plan:
        row = a_row[c] if kind == "A" else b_row[c]
        avail = [v for v in row if v not in used]
        active = [t for t in range(n_paths) if skip_plan[t] != c]
        if len(active) != len(avail):
            raise AssertionError(
                f"row {kind}_{c}: {len(active)} active paths vs "
                f"{len(avail)} free vertices"
            )
        heads = [seqs[t][-1] for t in active]
        mm = kuhn_matching(
            range(len(heads)),
            [[v for v in avail if (x, v) in gdir.arcs] for x in heads],
        )
        if mm is None:
            raise MatchingFailure(
                f"no perfect matching into row {kind}_{c}"
            )
        for pos, t in enumerate(active):
            v = mm[pos]
            seqs[t].append(v)
            used.add(v)
    detours = [tuple(s) for t, s in enumerate(seqs) if skip_plan[t] is not None]
    matched_paths = [tuple(s) for t, s in enumerate(seqs) if skip_plan[t] is None]

    p1 = tuple(substitute(star_path, j_sys, fict, part, closed=False))
    beps = BEPS(
        paths=tuple([p1] + detours + matched_paths),
        bes=j_sys,
        fict=fict,
        star_path=star_path,
        style=style,
        interval=tuple(interval),
    )
    problems = check_beps(beps, gdir, part)
    if problems:
        raise AssertionError(problems[0])
    return beps


def _pure_matching_paths(gdir, part, interval, h):
    """All rows joined by chained perfect matchings; returns (first path,
    remaining paths) starting from the sorted first row."""
    rows: list[list[int]] = []
    for idx, i in enumerate(interval):
        rows.append(list(part.subcluster_A(i, h)))
        if idx < len(interval) - 1:
            rows.append(list(part.subcluster_B(i, h)))
    succ: dict[int, int] = {}
    for left, right in zip(rows, rows[1:]):
        mm = kuhn_matching(
            left, {u: [v for v in right if (u, v) in gdir.arcs] for u in left}
        )
        if mm is None:
            raise MatchingFailure(
                "no perfect matching between consecutive rows"
            )
        succ.update(mm)
    paths = []
    for v in rows[0]:
        seq = [v]
        while seq[-1] in succ:
            seq.append(succ[seq[-1]])
        paths.append(tuple(seq))
    return paths[0], paths[1:]


def check_beps(beps: BEPS, gdir: OrientedGraph, part: LabelledPartition) -> list[str]:
    """The four defining conditions, recounted from the final object."""
    problems = []
    h = beps.style
    interval = list(beps.interval)
    first_row = set(part.subcluster_A(interval[0], h))
    last_row = set(part.subcluster_A(interval[-1], h))
    L = part.L or 1
    expect_paths = part.m // L
    if len(beps.paths) != expect_paths:
        problems.append(f"{len(beps.paths)} paths, expected {expect_paths}")
    for p in beps.paths:
        ends = {p[0], p[-1]}
        if not (ends & first_row and ends & last_row):
            problems.append(f"path endpoints {sorted(ends)} miss an end row")
    # vertex set: V0 plus exactly the rows of the interval
    want = set(part.V0())
    for idx, i in enumerate(interval):
        want |= set(part.subcluster_A(i, h))
        if idx < len(interval) - 1:
            want |= set(part.subcluster_B(i, h))
    got = set(v for p in beps.paths for v in p)
    if got != want:
        problems.append(
            f"vertex set mismatch: {len(got)} vertices vs expected {len(want)}"
        )
    seen: set[int] = set()
    for p in beps.paths:
        if seen & set(p):
            problems.append("paths share vertices")
        seen |= set(p)
    # the system equals the non-cross part, end rows untouched by it
    ab = set()
    rest = set()
    A, B = frozenset(part.A), frozenset(part.B)
    for e in beps.edge_set():
        u, v = e
        if (u in A and v in B) or (u in B and v in A):
            ab.add(e)
        else:
            rest.add(e)
    if rest != set(beps.bes.edges):
        problems.append("non-cross edges differ from the embedded system")
    if set(v for e in beps.bes.edges for v in e) & (first_row | last_row):
        problems.append("embedded system touches an end row")
    # non-fictive directed edges must be arcs of the scheme
    fict_pairs = {norm_edge(e.x, e.y) for e in beps.fict.edges}
    for seq in [beps.star_path] + list(beps.paths[1:]):
        for i in range(len(seq) - 1):
            if norm_edge(seq[i], seq[i + 1]) in fict_pairs:
                continue
            a, b = seq[i], seq[i + 1]
            if (a, b) not in gdir.arcs and (b, a) not in gdir.arcs:
                problems.append(f"edge ({a},{b}) not in the scheme")
    return problems


@dataclass(frozen=True)
class BalancedFactor:
    """L*f path systems, one per (interval, style), forming a spanning
    structure: ordinary vertices have degree two, exceptional ones 2*L*f."""

    systems: tuple[BEPS, ...]
    L: int
    f: int

    def edge_multiset(self):
        out = []
        for b in self.systems:
            out.extend(sorted(b.edge_set()))
        return out


def check_factor_degrees(bf: BalancedFactor, part: LabelledPartition) -> list[str]:
    deg: dict[int, int] = {}
    for b in bf.systems:
        for p in b.paths:
            for i in range(len(p) - 1):
                deg[p[i]] = deg.get(p[i], 0) + 1
                deg[p[i + 1]] = deg.get(p[i + 1], 0) + 1
    problems = []
    v0 = part.V0()
    for v in range(part.n):
        want = 2 * bf.L * bf.f if v in v0 else 2
        if deg.get(v, 0) != want:
            problems.append(f"vertex {v} has factor degree {deg.get(v, 0)} != {want}")
    return problems


def build_bf_family(
    gdir: OrientedGraph,
    part: LabelledPartition,
    assignments: dict[tuple[int, int], list[PathSystem]],
    L: int,
    f: int,
    q: int,
    min_interval: int = 10,
) -> list[BalancedFactor]:
    """q edge-disjoint balanced factors; assignments[(interval_index, style)]
    holds exactly q systems earmarked for that slot."""
    intervals = canonical_intervals(part.K, f)
    for key, lst in assignments.items():
        if len(lst) != q:
            raise PreconditionViolated(
                f"slot {key} holds {len(lst)} systems, needs {q}"
            )
    used_arcs: set[tuple[int, int]] = set()
    factors = []
    for jdx in range(q):
        removed_deg: dict[int, int] = {}
        for x, y in used_arcs:
            removed_deg[x] = removed_deg.get(x, 0) + 1
            removed_deg[y] = removed_deg.get(y, 0) + 1
        if removed_deg and max(removed_deg.values()) >= 3 * q:
            raise PreconditionViolated(
                f"previously used degree {max(removed_deg.values())} >= 3q"
            )
        cur = gdir.minus_arcs(used_arcs)
        systems = []
        for i_idx, interval in enumerate(intervals, start=1):
            for h in range(1, L + 1):
                j_sys = assignments[(i_idx, h)][jdx]
                beps = build_beps(
                    cur, part, j_sys, h, interval,
                    min_interval=min_interval, source_id=f"BF{jdx}-I{i_idx}-h{h}",
                    seed=jdx * 1000 + i_idx * 10 + h,
                )
                systems.append(beps)
                for seq in [beps.star_path] + list(beps.paths[1:]):
                    fict_pairs = {norm_edge(e.x, e.y) for e in beps.fict.edges}
                    for t in range(len(seq) - 1):
                        if norm_edge(seq[t], seq[t + 1]) in fict_pairs:
                            continue
                        a, b = seq[t], seq[t + 1]
                        arc = (a, b) if (a, b) in gdir.arcs else (b, a)
                        used_arcs.add(arc)
                cur = gdir.minus_arcs(used_arcs)
        bf = BalancedFactor(tuple(systems), L, f)
        problems = check_factor_degrees(bf, part)
        if problems:
            raise AssertionError(problems[0])
        factors.append(bf)
    dup = check_edge_disjoint([bf.edge_multiset() for bf in factors])
    if dup:
        raise AssertionError(dup[0])
    return factors
