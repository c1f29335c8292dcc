"""Scheme validation: the cluster-structured bipartite graphs (undirected
and oriented) in which path-system factors are built.

An undirected scheme demands that the graph live between A and B and that
every vertex see almost all of every opposite subcluster.  The oriented
variant strengthens this to superregularity of all directed cluster pairs
and large common in/out-neighborhoods in every subcluster.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .balance import frac
from .graphs import Graph, LabelledPartition, OrientedGraph
from .regularity import (
    EXHAUSTIVE_LIMIT,
    check_regular_pair,
    vacuous_regularity,
    vacuous_window,
)

CEIL_DENOMINATOR = 10**6


def rational_ceil(x: float) -> Fraction:
    """Smallest Fraction with denominator ``CEIL_DENOMINATOR`` that is >= x;
    turns irrational thresholds (like 2*sqrt(eps)) into exact ones."""
    return Fraction(math.ceil(x * CEIL_DENOMINATOR), CEIL_DENOMINATOR)


def partition_structure_violations(
    part: LabelledPartition, eps0, require_refinement: bool
) -> list[str]:
    eps0 = frac(eps0)
    problems = []
    if part.clusters_A is None:
        return ["no clusters present"]
    if part.m is None or part.m == 0:
        problems.append("empty clusters")
    if len(part.V0()) > eps0 * part.n:
        problems.append(
            f"|A0 u B0| = {len(part.V0())} > eps0*n = {eps0 * part.n}"
        )
    if require_refinement and part.refined_A is None:
        problems.append("no refinement present")
    return problems


def scheme_violations(
    g: Graph, part: LabelledPartition, eps0, eps
) -> list[str]:
    """Undirected scheme conditions: partition structure, bipartiteness
    between A and B, and near-complete degrees into every subcluster."""
    eps0, eps = frac(eps0), frac(eps)
    problems = partition_structure_violations(part, eps0, require_refinement=False)
    if problems and problems[0] == "no clusters present":
        return problems
    A, B = frozenset(part.A), frozenset(part.B)
    bad = min(((u, v) for u, v in g.edges
               if not ((u in A and v in B) or (u in B and v in A))), default=None)
    if bad is not None:
        problems.append(f"edge ({bad[0]},{bad[1]}) is not an AB-edge")
    L = part.L or 1
    m = part.m
    threshold = (1 - eps) * Fraction(m, L)
    # a degree is below the threshold exactly when it is below its ceiling
    need = math.ceil(threshold)
    K = part.K
    for i in range(1, K + 1):
        for h in range(1, L + 1):
            sub_a = part.subcluster_A(i, h)
            sub_b = part.subcluster_B(i, h)
            for v in part.B:
                if g.d(v, sub_a) < need:
                    problems.append(
                        f"d({v}, A_({i},{h})) = {g.d(v, sub_a)} < (1-eps)m/L = {threshold}"
                    )
            for w in part.A:
                if g.d(w, sub_b) < need:
                    problems.append(
                        f"d({w}, B_({i},{h})) = {g.d(w, sub_b)} < (1-eps)m/L = {threshold}"
                    )
    return problems


def oriented_scheme_violations(
    gdir: OrientedGraph,
    part: LabelledPartition,
    eps0,
    eps,
) -> list[str]:
    """Oriented scheme conditions: AB-orientation, superregular directed
    subcluster pairs at density one half, and large common in/out
    neighborhoods inside every subcluster.  When eps makes the pair
    condition vacuous for every pair, as eps >= 1 does, no pair is built.
    A pair that ``check_regular_pair`` cannot decide (a class over
    ``EXHAUSTIVE_LIMIT`` vertices and no degree witness) is listed as
    unverified, not as passing."""
    eps0, eps = frac(eps0), frac(eps)
    problems = partition_structure_violations(part, eps0, require_refinement=False)
    A, B = frozenset(part.A), frozenset(part.B)
    for x, y in sorted(gdir.arcs):
        if not ((x in A and y in B) or (x in B and y in A)):
            problems.append(f"arc ({x},{y}) is not an AB-arc")
            break
    K = part.K
    L = part.L or 1
    m = part.m

    out, inn = gdir.out, gdir.inn

    def directed_pair(xs, ys):
        """Arcs from xs to ys as an undirected bipartite graph; the arcs of
        a validated ``gdir`` need no checks."""
        return Graph._trusted(gdir.n, [(x, y) if x < y else (y, x)
                                       for x in xs for y in out[x] & ys])

    half = Fraction(1, 2)
    if not (vacuous_regularity(eps) and vacuous_window(eps, half)):
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
                            rep = check_regular_pair(
                                directed_pair(left, right),
                                sorted(left),
                                sorted(right),
                                eps,
                                d=half,
                            )
                            if rep.is_superregular is None:
                                problems.append(
                                    f"pair {name} unverified: [{eps},1/2]-"
                                    "superregularity is decided only up to "
                                    f"{EXHAUSTIVE_LIMIT} vertices a class"
                                )
                            elif not rep.is_superregular:
                                problems.append(
                                    f"pair {name} not [{eps},1/2]-superregular"
                                )
    # a count c is below (1-eps)m/(5L) exactly when it is below its ceiling,
    # and no count is below a ceiling of 0 or less, as at eps >= 1
    need = -(-(eps.denominator - eps.numerator) * m // (5 * L * eps.denominator))
    if need <= 0:
        return problems
    subs = [(i, h) for i in range(1, K + 1) for h in range(1, L + 1)]
    for side, other_sub in (
        (sorted(part.A), part.subcluster_B),
        (sorted(part.B), part.subcluster_A),
    ):
        sets = [frozenset(other_sub(i, h)) for i, h in subs]
        outs = [[out[x] & sub for sub in sets] for x in side]
        ins = [[inn[x] & sub for sub in sets] for x in side]
        for xi, x in enumerate(side):
            out_x, in_x = outs[xi], ins[xi]
            for yi in range(xi + 1, len(side)):
                out_y, in_y = outs[yi], ins[yi]
                for c, (i, h) in enumerate(subs):
                    both = len(out_x[c] & in_y[c])
                    rev = len(out_y[c] & in_x[c])
                    if both < need or rev < need:
                        problems.append(
                            f"common neighborhood of ({x},{side[yi]}) in "
                            f"subcluster ({i},{h}) too small: "
                            f"{min(both, rev)} < {(1 - eps) * Fraction(m, 5 * L)}"
                        )
    return problems
