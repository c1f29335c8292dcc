"""Scheme validation: the cluster-structured bipartite graph that ``bipham
verify --level scheme`` checks; no driver builds a scheme.

A scheme demands that the graph live between A and B and that every vertex
see almost all of every opposite cluster.  Graph files carry no refinement
of the clusters, so each cluster is its one subcluster (L = 1), and the
messages name it ``A_(i,1)``/``B_(i,1)`` with the threshold ``(1-eps)m/L``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .balance import frac
from .graphs import Graph, LabelledPartition

CEIL_DENOMINATOR = 10**6


def rational_ceil(x: float) -> Fraction:
    """Smallest Fraction with denominator ``CEIL_DENOMINATOR`` that is >= x;
    turns irrational thresholds (like 2*sqrt(eps)) into exact ones."""
    return Fraction(math.ceil(x * CEIL_DENOMINATOR), CEIL_DENOMINATOR)


def partition_structure_violations(part: LabelledPartition, eps0) -> list[str]:
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
    return problems


def scheme_violations(
    g: Graph, part: LabelledPartition, eps0, eps
) -> list[str]:
    """Scheme conditions: partition structure, bipartiteness between A and
    B, and near-complete degrees into every cluster.  Without clusters, or
    with none in the lists, only the structure problems are listed."""
    eps0, eps = frac(eps0), frac(eps)
    problems = partition_structure_violations(part, eps0)
    m = part.m
    if m is None:
        return problems
    A, B = frozenset(part.A), frozenset(part.B)
    bad = min(((u, v) for u, v in g.edges
               if not ((u in A and v in B) or (u in B and v in A))), default=None)
    if bad is not None:
        problems.append(f"edge ({bad[0]},{bad[1]}) is not an AB-edge")
    threshold = (1 - eps) * m
    # a degree is below the threshold exactly when it is below its ceiling
    need = math.ceil(threshold)
    for i, (sub_a, sub_b) in enumerate(zip(part.clusters_A, part.clusters_B), 1):
        for v in part.B:
            if g.d(v, sub_a) < need:
                problems.append(
                    f"d({v}, A_({i},1)) = {g.d(v, sub_a)} < (1-eps)m/L = {threshold}"
                )
        for w in part.A:
            if g.d(w, sub_b) < need:
                problems.append(
                    f"d({w}, B_({i},1)) = {g.d(w, sub_b)} < (1-eps)m/L = {threshold}"
                )
    return problems
