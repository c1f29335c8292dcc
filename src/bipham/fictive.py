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

Here fictive edges serve only the construction of balanced exceptional
path systems (``beps``), which threads a path through J* in that order and
pulls it back with ``substitute``.  The Hamilton searches through a system
prescribe its own paths instead (``solvers.peel_through_systems``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BadParams, InconsistentInput
from .graphs import LabelledPartition, PathSystem, norm_edge


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

    def vertex_order(self) -> list[int]:
        out = []
        for e in self.edges:
            out.append(e.x)
            out.append(e.y)
        return out


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
