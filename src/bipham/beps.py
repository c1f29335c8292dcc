"""Balanced exceptional path systems and factors.

A balanced exceptional path system (BEPS) of style h spanning an interval of
the cluster cycle consists of m/L vertex-disjoint paths between the h-rows
of the interval's two end clusters, exactly covering the h-rows of the
interval.  In the paper one distinguished path also carries a balanced
exceptional system through the exceptional vertices; here a scheme has
none, so every path is a chain of perfect matchings between consecutive
rows.  A balanced exceptional factor stacks L*f of these (one per interval
and style) into a spanning structure where every vertex has degree two.

No driver builds them: every 1-factorization packs its host around itself
(``pipeline.run_theorem_1factbip``).  They stay, with the oriented scheme
they are built in (``partitioning.orient_scheme``), as checked library
code of the paper's construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MatchingFailure, PreconditionViolated
from .graphs import LabelledPartition, OrientedGraph, norm_edge
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

    paths: tuple[tuple[int, ...], ...]  # each from the first row to the last
    style: int
    interval: tuple[int, ...]  # A-cluster indices

    def edge_set(self) -> frozenset:
        out = set()
        for p in self.paths:
            for i in range(len(p) - 1):
                out.add(norm_edge(p[i], p[i + 1]))
        return frozenset(out)


def _rows(part: LabelledPartition, interval, h: int) -> list[list[int]]:
    """The h-rows of an interval in path order: A_i and B_i of each of its
    clusters but the last, then the last one's A-row."""
    rows: list[list[int]] = []
    for idx, i in enumerate(interval):
        rows.append(list(part.subcluster_A(i, h)))
        if idx < len(interval) - 1:
            rows.append(list(part.subcluster_B(i, h)))
    return rows


def check_beps(beps: BEPS, gdir: OrientedGraph, part: LabelledPartition) -> list[str]:
    """The defining conditions, recounted from the final object."""
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
    want = {v for row in _rows(part, interval, h) for v in row}
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
    for p in beps.paths:
        for a, b in zip(p, p[1:]):
            if (a, b) not in gdir.arcs and (b, a) not in gdir.arcs:
                problems.append(f"edge ({a},{b}) not in the scheme")
    return problems


@dataclass(frozen=True)
class BalancedFactor:
    """L*f path systems, one per (interval, style), forming a spanning
    structure in which every vertex has degree two."""

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
    return [f"vertex {v} has factor degree {deg.get(v, 0)} != 2"
            for v in range(part.n) if deg.get(v, 0) != 2]


def build_bf_family(
    gdir: OrientedGraph,
    part: LabelledPartition,
    L: int,
    f: int,
    q: int,
    min_interval: int = 10,
) -> list[BalancedFactor]:
    """q edge-disjoint balanced factors on the arcs of ``gdir``.

    For each (interval, style) slot and each pair of consecutive rows, q
    edge-disjoint perfect matchings are taken along the arcs, each by
    ``kuhn_matching`` over the arcs the earlier ones left; factor j chains
    the j-th matchings of each slot into its paths.  No two pairs of rows
    share an arc, so this is the factor-by-factor greedy taken pair by
    pair.  ``MatchingFailure`` when a pair of rows has no further perfect
    matching."""
    if not q:
        return []
    intervals = canonical_intervals(part.K, f)
    # every interval has K/f + 1 clusters
    if len(set(intervals[0])) != len(intervals[0]):
        raise PreconditionViolated(
            "interval wraps onto itself: paths would need two endpoints in "
            "one row"
        )
    if 2 * len(intervals[0]) - 1 < min_interval:
        raise PreconditionViolated(
            f"interval has {2 * len(intervals[0]) - 1} clusters < {min_interval}"
        )
    systems: list[list[BEPS]] = [[] for _ in range(q)]
    for interval in intervals:
        for h in range(1, L + 1):
            rows = _rows(part, interval, h)
            succs: list[dict[int, int]] = [{} for _ in range(q)]
            for left, right in zip(rows, rows[1:]):
                free = {u: [v for v in right if (u, v) in gdir.arcs] for u in left}
                for succ in succs:
                    mm = kuhn_matching(left, free)
                    if mm is None:
                        raise MatchingFailure(
                            "no perfect matching between consecutive rows"
                        )
                    succ.update(mm)
                    for u, v in mm.items():
                        free[u].remove(v)
            for succ, factor_systems in zip(succs, systems):
                paths = []
                for v in rows[0]:
                    seq = [v]
                    while seq[-1] in succ:
                        seq.append(succ[seq[-1]])
                    paths.append(tuple(seq))
                beps = BEPS(tuple(paths), h, tuple(interval))
                problems = check_beps(beps, gdir, part)
                if problems:
                    raise AssertionError(problems[0])
                factor_systems.append(beps)
    factors = [BalancedFactor(tuple(s), L, f) for s in systems]
    for bf in factors:
        problems = check_factor_degrees(bf, part)
        if problems:
            raise AssertionError(problems[0])
    dup = check_edge_disjoint([bf.edge_multiset() for bf in factors])
    if dup:
        raise AssertionError(dup[0])
    return factors
