"""Hamilton-cycle search with prescribed path systems.

A target cycle must contain every edge of a set of vertex-disjoint
prescribed paths, traversing each either way, and may otherwise only use
edges of an ``allowed`` graph: all of its edges, or those between the two
sides of optional side labels, in either case less the ``excluded`` edges.
``CycleSearch`` validates the paths, shuffles the search items (each path,
and every other vertex on its own) and hands the graph's edge array, the
labels, the exclusions and the items to the kernel (``hamkernel``).  The
kernel searches exactly: each path becomes its two ends joined by a
required edge, and every Hamilton cycle through the paths, in whichever
direction it traverses each, is yielded once.  So a search that ends
within its node cap without a cycle proves that the allowed graph has no
Hamilton cycle through the paths; one that spends its cap
(``stats.budget_exceeded``) proves nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    # the cycles yielded; every candidate of the exact search is a cycle,
    # so none is rejected
    candidates: int = 0
    rejected: int = 0
    budget_exceeded: bool = False
    # the node cap; a change made while ``cycles()`` is suspended holds
    # from when it resumes
    max_nodes: int | None = None


class CycleSearch:
    """Enumerates Hamilton cycles of ``allowed`` + prescribed paths covering
    all of 0..n-1.  Yields cycles as vertex lists (closing edge implicit).

    With ``sides`` (a label per vertex: 0 or 1 for the two sides, -1 for
    neither), only the edges of ``allowed`` between side 0 and side 1 are
    allowed; ``excluded`` holds edges that are not, as a flat sequence of
    vertex ids (edge i at 2i and 2i + 1).  The kernel reads
    ``allowed.edge_ids()`` in place, so a level search over a host costs no
    copy of the host's edges."""

    def __init__(
        self,
        allowed: Graph,
        prescribed: Sequence[Prescribed] = (),
        max_nodes: int | None = None,
        seed: int = 0,
        sides: Sequence[int] | None = None,
        excluded: Sequence[int] = (),
    ):
        self.allowed = allowed
        self.n = allowed.n
        self.prescribed = list(prescribed)
        self.seed = seed
        self.sides = sides
        self.excluded = excluded
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
        if len(items) == 1:
            # one path closing on itself, by an edge that joins the two ends
            # the kernel's instance joins by the required edge
            [verts] = items
            u, v, sides, gone = verts[0], verts[-1], self.sides, iter(self.excluded)
            if (len(verts) >= 3 and self.allowed.has_edge(u, v)
                    and (sides is None or {sides[u], sides[v]} == {0, 1})
                    and {u, v} not in ({a, b} for a, b in zip(gone, gone))):
                yield list(verts)
            return

        stats = self.stats
        enum = cycle_enumerator(
            self.n,
            self.allowed.edge_ids(),
            items,
            max_nodes=stats.max_nodes,
            sides=self.sides,
            excluded=self.excluded,
        )
        for cycle in enum:
            stats.nodes = enum.nodes
            stats.candidates += 1
            yield cycle
            enum.set_cap(stats.max_nodes)
        stats.nodes = enum.nodes
        stats.budget_exceeded = bool(enum.budget_exceeded)

    def first(self) -> list[int] | None:
        for c in self.cycles():
            return c
        return None
