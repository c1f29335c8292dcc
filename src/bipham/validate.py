"""Shared validators, used as the single source of truth in tests and
pipeline postcondition checks.

These deliberately do not share code with the builders or searchers whose
output they check: they recompute everything from edge sets.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .graphs import Graph, LabelledPartition, PathSystem, norm_edge


def check_cycle(n: int, cycle: Sequence[int], edges=None) -> list[str]:
    """A Hamilton cycle given as a vertex sequence (closing edge implicit).

    Returns a list of violation strings; empty means valid.  Checks: correct
    length, no repeats, no loops, every vertex of 0..n-1 visited.
    Connectivity and 2-regularity follow from the sequence form.  ``edges``
    is the cycle's ``cycle_edges`` when the caller has built it.
    """
    problems = []
    if len(cycle) < 3:
        problems.append(f"cycle length {len(cycle)} < 3")
        return problems
    if len(set(cycle)) != len(cycle):
        dup = [v for v, c in Counter(cycle).items() if c > 1]
        problems.append(f"repeated vertices {sorted(dup)[:3]}")
    if set(cycle) != set(range(n)):
        problems.append(
            f"not spanning: visits {len(set(cycle))} of {n} vertices"
        )
    if edges is None:
        edges = cycle_edges(cycle)
    if len(edges) != len(cycle):
        problems.append("cycle repeats an edge")
    return problems


def cycle_edges(cycle: Sequence[int]) -> frozenset:
    """The edges of a cycle given as a vertex sequence, the closing edge
    last, each as (min, max); a loop raises BadParams (via ``norm_edge``)."""
    return frozenset(
        (u, v) if u < v else (v, u) if v < u else norm_edge(u, v)
        for u, v in zip(cycle, [*cycle[1:], *cycle[:1]])
    )


def check_cycle_in_graph(g: Graph, cycle: Sequence[int]) -> list[str]:
    return cycle_in_graph_problems(g, cycle, cycle_edges(cycle))


def cycle_in_graph_problems(g: Graph, cycle: Sequence[int],
                            edges: frozenset) -> list[str]:
    """``check_cycle_in_graph`` on the cycle's ``cycle_edges``, built by the
    caller, which may check more with them."""
    problems = check_cycle(g.n, cycle, edges)
    missing = [e for e in edges if e not in g.edges]
    if missing:
        problems.append(f"{len(missing)} cycle edges not in graph: {sorted(missing)[:3]}")
    return problems


def check_matching(n: int, edges: Iterable) -> list[str]:
    problems = []
    deg = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    bad = sorted(v for v, d in deg.items() if d > 1)
    if bad:
        problems.append(f"vertices {bad[:3]} covered twice")
    return problems


def check_edge_disjoint(edge_sets: Sequence[Iterable]) -> list[str]:
    """Multiset union must have multiplicity one everywhere."""
    c = Counter()
    for es in edge_sets:
        for e in es:
            c[norm_edge(*e)] += 1
    dup = sorted(e for e, k in c.items() if k > 1)
    return [f"edges used twice: {dup[:5]}"] if dup else []


def check_decomposition(g: Graph, edge_sets: Sequence[Iterable]) -> list[str]:
    """The edge sets must partition E(g) exactly."""
    return check_edge_disjoint(edge_sets) + cover_problems(g, edge_sets)


def cover_problems(g: Graph, edge_sets: Sequence[Iterable]) -> list[str]:
    """``check_decomposition`` past the disjointness check: the union of
    the edge sets must be E(g)."""
    problems = []
    union = set()
    for es in edge_sets:
        union.update(norm_edge(*e) for e in es)
    extra = union - g.edges
    missing = g.edges - union
    if extra:
        problems.append(f"edges outside graph: {sorted(extra)[:5]}")
    if missing:
        problems.append(f"edges not covered: {sorted(missing)[:5]}")
    return problems


def check_a0b0_path_system(q: PathSystem, part: LabelledPartition) -> list[str]:
    """Every exceptional vertex internal; endpoints only in A u B."""
    problems = []
    v0 = part.V0()
    internal = q.internal()
    for v in sorted(v0):
        if q.degree(v) != 2:
            problems.append(f"exceptional vertex {v} has degree {q.degree(v)} != 2")
    bad_internal = sorted(internal - v0)
    if bad_internal:
        problems.append(f"internal vertices outside V0: {bad_internal[:3]}")
    bad_ends = sorted(q.endpoints() & v0)
    if bad_ends:
        problems.append(f"path endpoints inside V0: {bad_ends[:3]}")
    return problems


def is_two_balanced_counts(q: PathSystem, part: LabelledPartition) -> tuple[int, int, int, int]:
    """(e(A'), e(B'), endpoints in A, endpoints in B) for a path system."""
    A_pr, B_pr = part.A_prime(), part.B_prime()
    g = q.as_graph()
    eA = g.e_within(A_pr)
    eB = g.e_within(B_pr)
    ends = q.endpoints()
    nA = len(ends & frozenset(part.A))
    nB = len(ends & frozenset(part.B))
    return eA, eB, nA, nB


def check_bes(
    j: PathSystem,
    part: LabelledPartition,
    indices: tuple[int, int, int, int] | None,
    eps0_num: int,
    eps0_den: int,
) -> list[str]:
    """The four defining conditions of a balanced exceptional system.

    ``indices`` are the 1-based cluster indices (i1, i2, i3, i4); None skips
    the localization condition (used for systems built without clusters).
    """
    problems = check_a0b0_path_system(j, part)
    A_set, B_set = frozenset(part.A), frozenset(part.B)
    for v in sorted(j.covered() & (A_set | B_set)):
        if j.degree(v) > 1:
            problems.append(f"cluster vertex {v} has degree {j.degree(v)} > 1")
    if indices is not None:
        i1, i2, i3, i4 = indices
        allowed_A = set(part.clusters_A[i1 - 1]) | set(part.clusters_A[i2 - 1])
        allowed_B = set(part.clusters_B[i3 - 1]) | set(part.clusters_B[i4 - 1])
        allowed = allowed_A | allowed_B | set(part.V0())
        stray = sorted(j.covered() - allowed)
        if stray:
            problems.append(f"edges touch vertices outside the four clusters: {stray[:3]}")
    for u, v in sorted(j.edges):
        u_in_A, v_in_A = u in A_set, v in A_set
        u_in_B, v_in_B = u in B_set, v in B_set
        if (u_in_A and v_in_B) or (u_in_B and v_in_A):
            problems.append(f"AB-edge ({u},{v}) inside a balanced exceptional system")
        if indices is not None:
            i1, i2, i3, i4 = indices
            if u_in_A and v_in_A:
                c1 = set(part.clusters_A[i1 - 1])
                c2 = set(part.clusters_A[i2 - 1])
                if not (
                    (u in c1 and v in c2) or (u in c2 and v in c1)
                ):
                    problems.append(f"A-edge ({u},{v}) not between clusters {i1},{i2}")
            if u_in_B and v_in_B:
                c3 = set(part.clusters_B[i3 - 1])
                c4 = set(part.clusters_B[i4 - 1])
                if not (
                    (u in c3 and v in c4) or (u in c4 and v in c3)
                ):
                    problems.append(f"B-edge ({u},{v}) not between clusters {i3},{i4}")
    covered = j.covered()
    ca = len(covered & A_set)
    cb = len(covered & B_set)
    if ca != cb:
        problems.append(f"edges cover {ca} vertices in A but {cb} in B")
    if j.num_edges() * eps0_den > eps0_num * part.n:
        problems.append(
            f"too many edges: e(J)={j.num_edges()} > eps0*n = "
            f"{eps0_num}/{eps0_den}*{part.n}"
        )
    return problems
