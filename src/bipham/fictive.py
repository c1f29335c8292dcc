"""Fictive edges: replacing a balanced exceptional system by an auxiliary
matching between the two sides.

A balanced exceptional system J pairs off its nontrivial-path endpoints into
a matching on A u B.  Re-pairing the endpoints of the A-internal and
B-internal matching edges yields a matching J* consisting of AB-pairs only.
Fictive edges are tagged objects, always treated as distinct from real graph
edges.  A Hamilton cycle of G[A u B] + J* that contains all fictive edges
and visits their endpoints in the canonical interleaved order pulls back,
by deleting J* and inserting J, to a Hamilton cycle of G u J on the full
vertex set including the exceptional vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BadParams, InconsistentInput
from .graphs import Graph, LabelledPartition, PathSystem, norm_edge
from .search import CycleSearch, Prescribed


@dataclass(frozen=True)
class FictiveEdge:
    x: int  # endpoint in A
    y: int  # endpoint in B
    tag: tuple  # (source system id, index) - provenance, not identity of G-edges

    def pair(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class FictiveMatching:
    """Ordered fictive edges x_1y_1, ..., x_s'y_s'.

    The first 2s pairs re-encode the A-internal matching {x1x2, x3x4, ...}
    and the B-internal matching {y1y2, ...} of the endpoint pairing; the
    rest are its AB-edges verbatim.
    """

    edges: tuple[FictiveEdge, ...]
    s: int  # number of A-internal (= B-internal) endpoint pairs
    source_id: str

    @property
    def s_prime(self) -> int:
        return len(self.edges)

    def xs(self) -> list[int]:
        return [e.x for e in self.edges]

    def ys(self) -> list[int]:
        return [e.y for e in self.edges]

    def vertex_order(self) -> list[int]:
        out = []
        for e in self.edges:
            out.append(e.x)
            out.append(e.y)
        return out

    def pairs(self) -> list[tuple[int, int]]:
        return [e.pair() for e in self.edges]


def build_fictive(
    j: PathSystem, part: LabelledPartition, source_id: str = "J"
) -> FictiveMatching:
    """The fictive matching of a balanced exceptional system.

    Endpoint pairs of nontrivial paths are classified by side; the A-side
    and B-side pairs are sorted and interleaved (i-th A-pair with i-th
    B-pair), cross pairs follow in sorted order.
    """
    A = frozenset(part.A)
    B = frozenset(part.B)
    a_pairs, b_pairs, cross = [], [], []
    for p in j.paths:
        u, v = p[0], p[-1]
        if u in A and v in A:
            a_pairs.append(tuple(sorted((u, v))))
        elif u in B and v in B:
            b_pairs.append(tuple(sorted((u, v))))
        elif (u in A and v in B) or (u in B and v in A):
            x, y = (u, v) if u in A else (v, u)
            cross.append((x, y))
        else:
            raise BadParams(
                f"path endpoint outside A u B: ({u},{v}) - not an exceptional-"
                "cover path system"
            )
    if len(a_pairs) != len(b_pairs):
        raise BadParams(
            f"{len(a_pairs)} A-side endpoint pairs vs {len(b_pairs)} B-side: "
            "system does not cover both sides equally"
        )
    a_pairs.sort()
    b_pairs.sort()
    cross.sort()
    xs: list[int] = []
    ys: list[int] = []
    for pa, pb in zip(a_pairs, b_pairs):
        xs.extend(pa)
        ys.extend(pb)
    for x, y in cross:
        xs.append(x)
        ys.append(y)
    edges = tuple(
        FictiveEdge(x, y, (source_id, i)) for i, (x, y) in enumerate(zip(xs, ys))
    )
    fict = FictiveMatching(edges, len(a_pairs), source_id)
    if fict.s_prime > j.num_edges() and j.num_edges() > 0:
        raise AssertionError("e(J*) exceeds e(J)")
    seen = set()
    for e in edges:
        if e.x in seen or e.y in seen:
            raise BadParams("fictive matching is not a matching")
        seen.add(e.x)
        seen.add(e.y)
    return fict


def _marked_ok(seq: Sequence[int], fict: FictiveMatching) -> bool:
    """True if seq (read forward) visits the fictive endpoints in canonical
    order and each fictive pair is consecutive."""
    order = fict.vertex_order()
    pos = {v: i for i, v in enumerate(seq)}
    if any(v not in pos for v in order):
        return False
    n = len(seq)
    # containment: each pair adjacent on the cycle
    for e in fict.edges:
        if (pos[e.x] - pos[e.y]) % n not in (1, n - 1):
            return False
    # order: walking from x_1 forward must meet the marked vertices in order
    start = pos[order[0]]
    walk = [seq[(start + i) % n] for i in range(n)]
    marked = [v for v in walk if v in set(order)]
    return marked == order


def is_consistent(
    seq: Sequence[int], fict: FictiveMatching, closed: bool = True
) -> bool:
    """Does the path/cycle contain all fictive edges and admit an
    orientation traversing x1, y1, x2, ..., x_s', y_s' in this order?

    ``seq`` is a vertex sequence; for ``closed`` the wrap-around edge is
    implicit.  Both traversal directions are tried (and all rotations, for
    cycles).
    """
    if fict.s_prime == 0:
        return True
    if not closed:
        order = fict.vertex_order()
        for cand in (list(seq), list(reversed(seq))):
            pos = {v: i for i, v in enumerate(cand)}
            if any(v not in pos for v in order):
                return False
            if all(
                abs(pos[e.x] - pos[e.y]) == 1 for e in fict.edges
            ) and [v for v in cand if v in set(order)] == order:
                return True
        return False
    return _marked_ok(list(seq), fict) or _marked_ok(list(reversed(seq)), fict)


def substitute(
    seq: Sequence[int],
    j: PathSystem,
    fict: FictiveMatching,
    part: LabelledPartition,
    closed: bool = True,
) -> list[int]:
    """Replace the fictive edges of a consistent cycle by the system J:
    returns the traced cycle on V(seq) u V0 as a vertex sequence.

    The edge set of the result is E(seq) - J* + J; consistency guarantees
    this is a single spanning cycle, which is re-derived here by tracing.
    """
    if not is_consistent(seq, fict, closed=closed):
        raise InconsistentInput("sequence is not consistent with the fictive matching")
    n = len(seq)
    edges = set()
    limit = n if closed else n - 1
    for i in range(limit):
        edges.add(norm_edge(seq[i], seq[(i + 1) % n]))
    for e in fict.edges:
        edges.discard(norm_edge(e.x, e.y))
    edges |= set(j.edges)

    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    expected = set(seq) | j.covered() | set(part.V0())
    if set(adj) != expected:
        raise InconsistentInput(
            f"substituted graph covers {len(adj)} vertices, expected {len(expected)}"
        )
    if closed:
        if any(len(ns) != 2 for ns in adj.values()):
            bad = min(v for v, ns in adj.items() if len(ns) != 2)
            raise InconsistentInput(f"vertex {bad} has degree != 2 after substitution")
        start = min(adj)
        out = [start]
        prev, cur = None, start
        while True:
            step = [w for w in adj[cur] if w != prev][0]
            if step == start:
                break
            out.append(step)
            prev, cur = cur, step
        if len(out) != len(adj):
            raise InconsistentInput("substitution produced more than one cycle")
        return out
    ends = sorted(v for v, ns in adj.items() if len(ns) == 1)
    if len(ends) != 2:
        raise InconsistentInput("substituted path does not have two endpoints")
    out = [ends[0]]
    prev, cur = None, ends[0]
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if not nxt:
            break
        out.append(nxt[0])
        prev, cur = cur, nxt[0]
    if len(out) != len(adj):
        raise InconsistentInput("substitution produced a disconnected path")
    return out


class ABRelabel:
    """The vertices of A u B as compact ids 0..|A u B| - 1, in increasing
    order of vertex id: the vertex set of ``consistent_cycle_search``.
    Built once per decomposition, so that its pool is relabelled once, not
    once per search.  When A0 u B0 is empty, A u B is all of 0..n-1, the
    map is the identity and nothing is rebuilt."""

    __slots__ = ("n", "_ids", "_comp")

    def __init__(self, part: LabelledPartition):
        self.n = len(part.A) + len(part.B)
        if self.n == part.n:
            self._ids = self._comp = None
        else:
            self._ids = tuple(sorted(part.A + part.B))
            self._comp = {v: i for i, v in enumerate(self._ids)}

    def edges(self, edges) -> frozenset:
        """The normalised edges with both ends in A u B, in compact ids;
        the map is increasing, so they stay normalised."""
        comp = self._comp
        if comp is None:
            return frozenset(edges)
        return frozenset([(comp[u], comp[v]) for u, v in edges
                          if u in comp and v in comp])

    def compact(self, v: int) -> int:
        return v if self._comp is None else self._comp[v]

    def original(self, seq: list[int]) -> list[int]:
        ids = self._ids
        return seq if ids is None else [ids[v] for v in seq]


def consistent_cycle_search(
    pool: frozenset,
    ab: ABRelabel,
    fict: FictiveMatching,
    max_nodes: int | None = None,
    seed: int = 0,
) -> "ConsistentCycles":
    """Enumerate Hamilton cycles of pool + J* consistent with J*, where
    ``pool`` is an edge set on A u B in the compact ids of ``ab`` (see
    ``ABRelabel.edges``).

    The fictive edges are prescribed as directed, rank-ordered length-one
    paths, so every cycle the kernel reports is consistent by construction.
    Iterates cycles as vertex sequences over the original vertex ids; its
    ``stats`` are the search's (nodes, budget), for node budgets.
    """
    prescribed = [
        Prescribed((ab.compact(e.x), ab.compact(e.y)), directed=True, rank=i)
        for i, e in enumerate(fict.edges)
    ]
    search = CycleSearch(Graph._trusted(ab.n, pool), prescribed,
                         max_nodes=max_nodes, seed=seed)
    found = ConsistentCycles(ab.original, search.cycles())
    found.stats = search.stats
    return found


class ConsistentCycles(map):
    """The relabelled cycles of one search, carrying its ``stats``."""
