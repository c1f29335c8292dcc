"""Hamilton-cycle search with prescribed path systems.

A target cycle must contain every edge of a set of vertex-disjoint
prescribed paths and may otherwise only use edges of an ``allowed`` graph.
Each prescribed path is contracted to a single search vertex with two ports
(the allowed neighborhoods of its two ends); a port-constrained kernel then
enumerates candidate cycles.  Because a single port mask per end cannot
express which end of the *other* contracted path an edge attaches to, the
kernel over-approximates: every true cycle is enumerated, and each candidate
is re-checked here by a two-state chain DP before it is reported.  With no
prescribed path every item is a vertex and the masks are exact, so a
candidate is only re-checked edge by edge.

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
from dataclasses import dataclass
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

        # ports join ends to ends: a path interior has owner -1, whose bit,
        # ``bit[-1]``, is 0
        adj = self.allowed.adj
        owner = [-1] * self.n
        for idx, (_, verts, _, _) in enumerate(items):
            owner[verts[0]] = owner[verts[-1]] = idx
        bit = [1 << j for j in range(k)] + [0]
        port_a, port_b = [], []
        for idx, (_, verts, _, _) in enumerate(items):
            pa = 0
            for w in adj[verts[0]]:
                pa |= bit[owner[w]]
            pb = pa
            if len(verts) > 1:
                pb = 0
                for w in adj[verts[-1]]:
                    pb |= bit[owner[w]]
            port_a.append(pa & ~bit[idx])
            port_b.append(pb & ~bit[idx])
        directed = [it[2] for it in items]
        ranks = [it[3] for it in items]
        has_ranks = any(r >= 0 for r in ranks)

        if has_ranks:
            start = ranks.index(0)
        else:
            start = 0
        mirror = not has_ranks and not any(directed)
        enum = cycle_enumerator(
            port_a,
            port_b,
            directed,
            start=start,
            waypoint_ranks=ranks if has_ranks else None,
            max_nodes=self.stats.max_nodes,
            break_mirror=mirror,
        )
        for item_cycle in enum:
            self.stats.candidates += 1
            decoded = self._decode(items, item_cycle)
            if decoded is None:
                self.stats.rejected += 1
                continue
            self.stats.nodes = enum.nodes
            yield decoded
            enum.set_cap(self.stats.max_nodes)
        self.stats.nodes = enum.nodes
        self.stats.budget_exceeded = bool(enum.budget_exceeded)

    def first(self) -> list[int] | None:
        for c in self.cycles():
            return c
        return None

    # -- candidate verification / decoding ---------------------------------
    def _decode(self, items, item_cycle) -> list[int] | None:
        if not self.prescribed:
            # every item is a free vertex and the port masks are exact: no
            # orientation to choose, only the steps to re-check
            out = [items[idx][1][0] for idx in item_cycle]
            adj = self.allowed.adj
            prev = out[-1]
            for v in out:
                if v not in adj[prev]:
                    return None
                prev = v
            return out
        k = len(item_cycle)
        has = self.allowed.has_edge

        def states(idx):
            kind, verts, dirflag, _ = items[idx]
            if kind == "free" or len(verts) == 1:
                return ((verts[0], verts[0]),)
            if dirflag:
                return ((verts[0], verts[-1]),)
            return ((verts[0], verts[-1]), (verts[-1], verts[0]))

        # chain DP over orientations; fix the first item's state
        for first_state in states(item_cycle[0]):
            parents = [None] * k
            layers = [[first_state]]
            ok = True
            for pos in range(1, k):
                prev_layer = layers[-1]
                cur = []
                par = {}
                for st in states(item_cycle[pos]):
                    for pst in prev_layer:
                        if has(pst[1], st[0]):
                            cur.append(st)
                            par[st] = pst
                            break
                if not cur:
                    ok = False
                    break
                layers.append(cur)
                parents[pos] = par
            if not ok:
                continue
            # close the cycle back to the fixed first state
            final = None
            for st in layers[-1]:
                if has(st[1], first_state[0]):
                    final = st
                    break
            if final is None:
                continue
            # reconstruct orientations
            orient = [None] * k
            orient[-1] = final
            for pos in range(k - 1, 0, -1):
                orient[pos - 1] = (
                    parents[pos][orient[pos]] if pos > 1 else first_state
                )
            out = []
            for pos in range(k):
                kind, verts, dirflag, _ = items[item_cycle[pos]]
                entry, _ = orient[pos]
                seq = verts if verts[0] == entry else tuple(reversed(verts))
                out.extend(seq)
            return out
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
