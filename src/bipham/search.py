"""Hamilton-cycle search with prescribed path systems.

A target cycle must contain every edge of a set of vertex-disjoint
prescribed paths and may otherwise only use edges of an ``allowed`` graph.
Each prescribed path is contracted to a single search item with two ports
(the allowed neighborhoods of its two ends), and every other vertex is an
item of its own.  ``CycleSearch`` validates the paths, shuffles the items
and hands the graph and the items to the kernel (``hamkernel``), which
builds the ports from the allowed graph, enumerates candidate item cycles
and re-checks each one's orientation.  Because a single port mask per end
cannot express which end of the *other* contracted path an edge attaches
to, the masks over-approximate: every true cycle is enumerated, and the
kernel's two-state chain DP rejects the candidates that no orientation
closes.  With no prescribed path the masks are exact, and a candidate is
only re-checked edge by edge.

A port mask holds only the items whose *ends* (a free vertex, or either end
of a path) are allowed neighbours.  An interior vertex of a path already
has both of its cycle edges, so it appears in no mask, and every union mask
is symmetric.  Each step of a true cycle joins an end to an end, so the
masks still accept every item sequence the DP accepts; the kernel tries
candidates in ascending order, so an unbudgeted search yields the same
cycles, in the same order, as masks that also offered interiors would, in
no more nodes.

Prescribed paths may be directed (must be traversed in the given vertex
order) and carry ranks forcing a cyclic visit order, which is how
"traverse these edges in this sequence" constraints are expressed.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .graphs import Graph
from .hamkernel import cycle_enumerator


@dataclass(frozen=True)
class Prescribed:
    """A path that the cycle must contain, as a vertex sequence."""

    vertices: tuple[int, ...]
    directed: bool = False
    rank: int = -1


@dataclass
class SearchStats:
    nodes: int = 0
    candidates: int = 0
    rejected: int = 0
    budget_exceeded: bool = False
    # the node cap; a change made while ``cycles()`` is suspended holds
    # from when it resumes
    max_nodes: int | None = None


class CycleSearch:
    """Enumerates Hamilton cycles of ``allowed`` + prescribed paths covering
    all of 0..n-1.  Yields cycles as vertex lists (closing edge implicit)."""

    def __init__(
        self,
        allowed: Graph,
        prescribed: Sequence[Prescribed] = (),
        max_nodes: int | None = None,
        seed: int = 0,
    ):
        self.allowed = allowed
        self.n = allowed.n
        self.prescribed = list(prescribed)
        self.seed = seed
        self.stats = SearchStats(max_nodes=max_nodes)
        self._validate()

    def _validate(self):
        seen = set()
        for p in self.prescribed:
            if len(p.vertices) < 2:
                raise ValueError("prescribed paths need at least one edge")
            for v in p.vertices:
                if not 0 <= v < self.n:
                    raise ValueError(
                        f"an item has a vertex outside 0..{self.n - 1}")
                if v in seen:
                    raise ValueError(f"vertex {v} on two prescribed paths")
                seen.add(v)
        ranks = sorted(p.rank for p in self.prescribed if p.rank >= 0)
        if ranks != list(range(len(ranks))):
            raise ValueError(
                f"prescribed path ranks {ranks} must be 0..{len(ranks) - 1},"
                " each used once"
            )

    # -- item construction -------------------------------------------------
    def _items(self):
        on_path = {v for p in self.prescribed for v in p.vertices}
        items = []
        for p in self.prescribed:
            items.append(("path", p.vertices, p.directed, p.rank))
        for v in range(self.n):
            if v not in on_path:
                items.append(("free", (v,), False, -1))
        if self.seed:
            rng = random.Random(self.seed)
            rng.shuffle(items)
        return items

    def cycles(self) -> Iterator[list[int]]:
        items = self._items()
        k = len(items)
        if k == 0:
            return
        if k <= 2:
            yield from self._tiny(items)
            return

        directed = [it[2] for it in items]
        ranks = [it[3] for it in items]
        has_ranks = any(r >= 0 for r in ranks)
        stats = self.stats
        enum = cycle_enumerator(
            self.n,
            array("i", chain.from_iterable(self.allowed.edges)),
            [it[1] for it in items],
            directed,
            start=ranks.index(0) if has_ranks else 0,
            waypoint_ranks=ranks if has_ranks else None,
            max_nodes=stats.max_nodes,
            break_mirror=not has_ranks and not any(directed),
        )
        for cycle in enum:
            stats.nodes, stats.candidates, stats.rejected = (
                enum.nodes, enum.candidates, enum.rejected)
            yield cycle
            enum.set_cap(stats.max_nodes)
        stats.nodes, stats.candidates, stats.rejected = (
            enum.nodes, enum.candidates, enum.rejected)
        stats.budget_exceeded = bool(enum.budget_exceeded)

    def first(self) -> list[int] | None:
        for c in self.cycles():
            return c
        return None

    def _tiny(self, items):
        """Handle 1- or 2-item instances, where the kernel's minimum cycle
        length of three items does not apply."""
        has = self.allowed.has_edge
        if len(items) == 1:
            kind, verts, dirflag, _ = items[0]
            if kind == "path" and len(verts) >= 3 and has(verts[0], verts[-1]):
                yield list(verts)
            return
        (k1, v1, d1, _), (k2, v2, d2, _) = items
        # need two distinct allowed edges joining opposite ends
        ends1 = (v1[0], v1[-1])
        ends2 = (v2[0], v2[-1])
        for o2 in ((v2, False), (tuple(reversed(v2)), True)):
            seq2, flipped = o2
            if d2 and flipped:
                continue
            e_close_a = (ends1[-1], seq2[0])
            e_close_b = (seq2[-1], ends1[0])
            if (
                has(*e_close_a)
                and has(*e_close_b)
                and frozenset(e_close_a) != frozenset(e_close_b)
            ):
                cyc = list(v1) + list(seq2)
                if len(cyc) == len(set(cyc)) and len(cyc) >= 3:
                    yield cyc
                    return
