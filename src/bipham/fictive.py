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

Here ``beps`` builds the fictive matching of each system it is given and
accepts only the empty one: the robust front runs only on frameworks
without exceptional vertices, so no path is threaded through J* and none
is pulled back.  The Hamilton searches through a system prescribe its own
paths instead (``solvers.peel_through_systems``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams
from .graphs import LabelledPartition, PathSystem


@dataclass(frozen=True)
class FictiveEdge:
    x: int  # endpoint in A
    y: int  # endpoint in B
    tag: tuple  # (source system id, index) - provenance, not identity of G-edges


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
