"""Hamilton-cycle search with prescribed path systems.

A target cycle must contain every edge of a set of vertex-disjoint
prescribed paths, traversing each either way, and may otherwise only use
edges of an ``allowed`` graph.  Each prescribed path is contracted to a
single search item with two ports (the allowed neighborhoods of its two
ends), and every other vertex is an item of its own.  ``CycleSearch``
validates the paths, shuffles the items and hands the graph and the items
to the kernel (``hamkernel``), which builds the ports from the allowed
graph, enumerates candidate item cycles and re-checks each one's
orientation.  Because a single port mask per end cannot express which end
of the *other* contracted path an edge attaches to, the masks
over-approximate: every item cycle that some true cycle follows is
enumerated, and the kernel's two-state chain DP rejects the candidates
that no orientation closes.  With no prescribed path the masks are exact,
and a candidate is only re-checked edge by edge.

The DP yields one orientation per item cycle, the first that closes, so
Hamilton cycles that follow one item cycle and differ only in how its
paths are traversed are not all yielded.  An exhausted search therefore
proves that no Hamilton cycle exists only when there is no prescribed
path.

A port mask holds only the items whose *ends* (a free vertex, or either end
of a path) are allowed neighbours.  An interior vertex of a path already
has both of its cycle edges, so it appears in no mask, and every union mask
is symmetric.  Each step of a true cycle joins an end to an end, so the
masks still accept every item sequence the DP accepts; the kernel tries
candidates in ascending order, so an unbudgeted search yields the same
cycles, in the same order, as masks that also offered interiors would, in
no more nodes.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .graphs import Graph
from .hamkernel import check_graph, cycle_enumerator


@dataclass(frozen=True)
class Prescribed:
    """A path that the cycle must contain, as a vertex sequence."""

    vertices: tuple[int, ...]


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
        if any(len(p.vertices) < 2 for p in self.prescribed):
            raise ValueError("prescribed paths need at least one edge")
        check_graph(self.n, (), [p.vertices for p in self.prescribed])

    def _items(self):
        """The search items, each a vertex sequence: the prescribed paths,
        then the free vertices, shuffled under a non-zero seed."""
        on_path = {v for p in self.prescribed for v in p.vertices}
        items = [p.vertices for p in self.prescribed]
        items += [(v,) for v in range(self.n) if v not in on_path]
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

        stats = self.stats
        enum = cycle_enumerator(
            self.n,
            array("i", chain.from_iterable(self.allowed.edges)),
            items,
            max_nodes=stats.max_nodes,
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
            [verts] = items
            if len(verts) >= 3 and has(verts[0], verts[-1]):
                yield list(verts)
            return
        v1, v2 = items
        # need two distinct allowed edges joining opposite ends
        for seq2 in (v2, v2[::-1]):
            close_a, close_b = (v1[-1], seq2[0]), (seq2[-1], v1[0])
            if has(*close_a) and has(*close_b) and {*close_a} != {*close_b}:
                yield list(v1) + list(seq2)
                return
