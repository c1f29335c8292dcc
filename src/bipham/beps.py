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

from .errors import MatchingFailure, PreconditionViolated
from .fictive import FictiveMatching, build_fictive
from .graphs import LabelledPartition, OrientedGraph, PathSystem, norm_edge
from .matchings import kuhn_matching
from .validate import check_edge_disjoint


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
) -> BEPS:
    """The path system of the given style spanning the interval around the
    balanced exceptional system ``j_sys``, which must be empty: the robust
    front runs only on frameworks without exceptional vertices, so every
    slot holds an empty system.  All rows of the interval are then joined
    by chained perfect matchings between consecutive rows, with no free
    choice; ``MatchingFailure`` when two rows have none."""
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
    if fict.edges:
        raise PreconditionViolated(
            f"system {source_id} covers exceptional vertices: only empty "
            "systems are built"
        )
    star, rest = _pure_matching_paths(gdir, part, interval, style)
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
