"""Search backends: the cycle-peeling engine, exhaustive Hamilton
decompositions, densest even-regular spanning subgraphs, and exact
chromatic index for regular graphs.

``reg_even`` tries each even degree on the degree-factor reduction of
``generators.degree_factor``, the package's one such reduction.

Two independent Hamilton-cycle code paths exist on purpose: the fast
required-edge kernel (via ``bipham.search``) drives the pipeline builders,
while the plain recursive enumerator in this module acts as the referee
for decompositions.  They share no search code, so agreement between them
is meaningful evidence.

Every backtracking peel runs on one engine, ``peel_cycles``, which counts
every kernel node against one node budget: fixed input, seed and budget give
the same outcome on any machine.  Its users are the referee and the
one-factorization here, and ``peel_through_systems``, the one Hamilton
level search through path systems, which every pipeline peel runs: the
approximate decomposition and the Hamilton cycles through exceptional-cover
path systems in ``balancer`` (for the cut elimination and the global cover
in ``bes``).  An approximate decomposition whose cycles must take its whole
pool runs no search: ``switches.split_and_switch`` splits and repairs it.

A peel whose search space is exhausted returns ``cycles`` None: the
referee reports such a graph as having no decomposition, and the
approximate decomposition raises ``PreconditionViolated`` naming the
deepest level it reached.  Exhaustion is a proof that no peel exists.
Every level search here is exact: it yields every cycle (or matching) of
its level, and the kernel every Hamilton cycle through a level's paths
(``search``).  A level ends only when one item order's call finishes
within its cap, after each cycle it yielded led to a level below that
ended the same way; an order that hits its cap is restarted under the
next, never taken for exhausted.  A spent budget raises ``Timeout``
(``WallClockExceeded`` when it was the safety net), which proves
nothing.

networkx, for the blossom test of ``_MatchingEnum``, is imported where it is
called: the drivers import this module but never run the oracle.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import (
    BadParams,
    MatchingFailure,
    PreconditionViolated,
    Timeout,
    WallClockExceeded,
)
from .generators import degree_factor
from .graphs import Edge, Graph, LabelledPartition, PathSystem, class_labels
from .search import CycleSearch, Prescribed
from .switches import split_and_switch
from .validate import cycle_edges


@dataclass(frozen=True)
class SolverBudget:
    max_nodes: int = 2_000_000
    max_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise BadParams("budget limits must be positive")
        check_wall_clock(self.max_seconds)


def check_wall_clock(max_seconds: float) -> None:
    """Raise BadParams unless the wall-clock safety net is finite and
    positive; a NaN deadline would never pass, so it fails here."""
    if not (math.isfinite(max_seconds) and max_seconds > 0):
        raise BadParams("budget limits must be positive")


@dataclass
class DecompositionResult:
    cycles: list[list[int]] | None  # None: proven that no decomposition exists
    matching: list[tuple[int, int]] | None


# -- the peeling engine -------------------------------------------------------

@dataclass
class Peel:
    cycles: list[list[int]] | None  # None: proven that no peeling exists
    # the edges each level's cycle took, level by level ([] without cycles)
    taken: list[frozenset]
    nodes: int
    deepest: int  # deepest level searched

    def rest(self, pool: frozenset) -> frozenset:
        """What is left of ``pool``, the edges the levels took from, after
        the peel: the taken sets removed one after another, as a level
        removes its cycle's edges from what the level above left."""
        for used in self.taken:
            pool = pool - used
        return pool


# the node cap of a level's first item order.  It sits above what a
# well-conditioned level search spends (every NW-bip benchmark call takes at
# most 361 nodes; the 1-factorization of K(42,42) with the toy constants of
# the tests, seed 1, at most 1 474), so the schedule cuts only heavy-tailed
# calls, such as a level of that run at seeds 2 and 3
LEVEL_UNIT = 81_920


def luby(i: int) -> int:
    """The ``i``-th term (``i >= 1``) of the universal restart schedule of
    Luby, Sinclair and Zuckerman (IPL 1993): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    For any distribution of a search's cost, restarting on it is within a
    logarithmic factor of the best fixed cap, without knowing that cap."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def peel_cycles(level_search: Callable, depth: int, max_nodes: int,
                deadline: float | None = None) -> Peel:
    """Peel ``depth`` edge-disjoint cycles, one per level, with full
    backtracking.

    ``level_search(i, taken, order, cap)`` starts one kernel call for level
    ``i`` under item order ``order``, capped at ``cap`` nodes, where
    ``taken`` is the tuple of the edge sets the cycles of levels 0..i-1
    took, which the level must not take again; it returns ``(found,
    stats)``: ``found`` yields ``(cycle, edges it takes)``,
    ``stats.nodes`` is current at every yield and ``stats.budget_exceeded``
    once ``found`` ends, and ``stats.max_nodes`` is the call's cap, which
    holds from the next ``next(found)`` on.  Orders 0, 1, 2, ... of a level
    are restarts on Luby's schedule: order k is capped at
    ``LEVEL_UNIT * luby(k + 1)`` and at what is left of ``max_nodes``, so
    one heavy-tailed order costs a bounded share.  A call resumed after a
    deeper level failed has its cap lowered to what is left then, so no
    call runs past ``max_nodes``.  A call exhausted within its cap has
    yielded every cycle of its level, as each level search here does, so
    it ends its level for what the levels above took, and ``cycles`` None
    proves that no peel exists; one that hits its cap hands over to the
    next order.  A frame holds what its level excludes, never a copy of
    what it may take.  Only spending ``max_nodes`` raises ``Timeout``.  Past ``deadline``
    (``time.monotonic()``) the next call raises ``WallClockExceeded``
    instead of starting.
    """
    spent = deepest = 0
    chosen: list[list[int]] = []
    # one frame per open level: [taken, order, found, stats, nodes counted]
    frames: list[list] = []

    def timeout(i):
        return Timeout(f"node budget {max_nodes} spent at level {i}",
                       stats={"nodes": spent, "level": i})

    def open_level(i, taken, order):
        if deadline is not None and time.monotonic() > deadline:
            raise WallClockExceeded(
                f"wall-clock safety net passed at level {i} after {spent} "
                "nodes; the result is not reproducible",
                stats={"nodes": spent, "level": i})
        cap = min(LEVEL_UNIT * luby(order + 1), max_nodes - spent)
        found, stats = level_search(i, taken, order, cap)
        frames.append([taken, order, found, stats, 0])

    if depth == 0:
        return Peel([], [], 0, 0)
    open_level(0, (), 0)
    while frames:
        i = len(frames) - 1
        taken, order, found, stats, counted = frame = frames[i]
        deepest = max(deepest, i)
        stats.max_nodes = min(stats.max_nodes, counted + max_nodes - spent)
        step = next(found, None)
        spent += stats.nodes - counted
        frame[4] = stats.nodes
        if step is not None:
            cycle, used = step
            chosen.append(cycle)
            if i + 1 == depth:
                return Peel(chosen, [*taken, used], spent, deepest)
            open_level(i + 1, (*taken, used), 0)
            continue
        frames.pop()
        if not stats.budget_exceeded:
            # exhausted within its cap: no cycle here leads to a full peel
            if chosen:
                chosen.pop()
            continue
        if spent >= max_nodes:
            raise timeout(i)
        open_level(i, taken, order + 1)
    return Peel(None, [], spent, deepest)


def level_seed(seed: int, level: int, order: int) -> int:
    """The item-order seed of the kernel call for ``level`` under ``order``
    in a peel whose first order is ``seed``: ``seed`` itself at level 0,
    order 0, and a different seed for every other (level, order) pair with
    ``order < 1009``; on the engine's schedule a level opens at most 92
    orders within the default 20 M nodes.  Integer arithmetic only, so the
    orders do not depend on the platform or on hash randomisation.

    Every peel through path systems (``peel_through_systems``) uses it:
    under one order at every level, each level peels a cycle much like the
    one before, and what is left can be barren (NW-bip on K(12,12), D = 12,
    at level 5).
    """
    return seed + 1009 * level + order


def peel_through_systems(host: Graph, systems: Sequence[PathSystem],
                         budget: SolverBudget, sides: Sequence[int] | None = None,
                         excluded: Iterable[Edge] = ()) -> Peel:
    """Peel one Hamilton cycle on the vertices of ``host`` through each path
    system, the cycles edge-disjoint: one ``peel_cycles`` of
    ``len(systems)`` levels under ``budget``.  The pool is the edges of
    ``host`` between side 0 and side 1 of ``sides`` (a label per vertex,
    -1 for neither side; None: every edge of ``host``), less the edges
    ``excluded`` and every system's edges, which are reserved for their
    own levels.  Level i searches what the levels above left of the pool
    for a cycle through the paths of ``systems[i]``, undirected, and takes
    its edges outside that system; order k of level i searches under seed
    ``level_seed(budget.seed, i, k)``.

    No pool is built: every level's search reads the host's edge array
    (``Graph.edge_ids``) in place and is handed the side labels and what
    the level excludes, ``excluded``, the systems' edges and the edges the
    levels above took, each taken set flattened once while a frame holds
    it."""
    paths = [[Prescribed(p) for p in q.paths] for q in systems]
    if sides is not None:
        sides = array("i", sides)
    barred = array("i", chain.from_iterable(
        chain(excluded, *(q.edges for q in systems))))
    # id of a set the open levels took -> (the set, its edges flattened);
    # an entry holds its set, so no other set can take that id meanwhile
    flat: dict[int, tuple] = {}

    def search(i, taken, order, cap):
        kept = {id(u): flat.get(id(u)) or (u, array("i", chain.from_iterable(u)))
                for u in taken}
        flat.clear()
        flat.update(kept)
        gone = barred[:]
        for _, ids in kept.values():
            gone.extend(ids)
        found = CycleSearch(host, paths[i], max_nodes=cap,
                            seed=level_seed(budget.seed, i, order),
                            sides=sides, excluded=gone)
        own = systems[i].edges
        return ((c, cycle_edges(c) - own) for c in found.cycles()), found.stats

    return peel_cycles(search, len(systems), budget.max_nodes,
                       deadline=time.monotonic() + budget.max_seconds)


# -- independent plain enumerator (referee) ----------------------------------

class _OracleEnum:
    """Recursive lexicographic Hamilton-cycle enumerator on adjacency sets.
    No bit masks, no required edges; used as the referee and for exhaustive
    decompositions."""

    def __init__(self, g: Graph, max_nodes: int):
        self.g = g
        self.max_nodes = max_nodes
        self.nodes = 0
        self.budget_exceeded = False

    def cycles(self) -> Iterator[list[int]]:
        g = self.g
        n = g.n
        if n < 3:
            return
        if any(len(g.adj[v]) < 2 for v in range(n)):
            return
        path = [0]
        visited = [False] * n
        visited[0] = True
        yield from self._extend(path, visited)

    def _extend(self, path, visited):
        g, n = self.g, self.g.n
        v = path[-1]
        if len(path) == n:
            if 0 in g.adj[v] and path[1] < path[-1]:
                yield list(path)
            return
        for w in sorted(g.adj[v]):
            if visited[w]:
                continue
            if self.nodes >= self.max_nodes:
                self.budget_exceeded = True
                return
            self.nodes += 1
            visited[w] = True
            path.append(w)
            yield from self._extend(path, visited)
            path.pop()
            visited[w] = False


def exhaustive_hamilton_decomposition(
    g: Graph, budget: SolverBudget = SolverBudget()
) -> DecompositionResult:
    """Decompose a regular graph into Hamilton cycles plus at most one
    perfect matching, by peeling cycles with full backtracking.

    Used as the referee for every decomposition the pipeline produces.
    """
    if not g.is_regular():
        raise PreconditionViolated("graph is not regular")

    def search(i, taken, order, cap):
        enum = _OracleEnum(Graph(g.n, g.edges.difference(*taken)), cap)
        return ((c, cycle_edges(c)) for c in enum.cycles()), enum

    # peeling a Hamilton cycle keeps the graph regular: D // 2 cycles, and
    # a perfect matching is left when D is odd
    peel = peel_cycles(search, g.max_degree() // 2, budget.max_nodes,
                       deadline=time.monotonic() + budget.max_seconds)
    matching = None if peel.cycles is None else sorted(peel.rest(g.edges)) or None
    return DecompositionResult(peel.cycles, matching)


# -- even-regular spanning subgraphs -----------------------------------------

def reg_even(g: Graph, budget: SolverBudget = SolverBudget()) -> tuple[int, Graph]:
    """Largest even D admitting a D-regular spanning subgraph, with a
    witness subgraph (D = 0 with the empty graph when none larger exists)."""
    deadline = time.monotonic() + budget.max_seconds
    top = g.min_degree() - (g.min_degree() % 2)
    for D in range(top, 0, -2):
        if time.monotonic() > deadline:
            raise WallClockExceeded("reg_even: wall clock passed "
                                    f"{budget.max_seconds}s; not reproducible")
        try:
            sub = degree_factor(g, {v: D for v in range(g.n)})
        except MatchingFailure:
            continue
        assert set(sub.degrees()) <= {D}
        return D, sub
    return 0, Graph(g.n, [])


# -- chromatic index of regular graphs ---------------------------------------

class _MatchingEnum:
    """All perfect matchings, lexicographic by the edge at the lowest
    uncovered vertex, one node per edge tried; none are enumerated when a
    blossom matching shows that none exists."""

    def __init__(self, g: Graph, max_nodes: int):
        self.g = g
        self.max_nodes = max_nodes
        self.nodes = 0
        self.budget_exceeded = False

    def matchings(self) -> Iterator[frozenset]:
        import networkx as nx

        gx = nx.Graph()
        gx.add_nodes_from(range(self.g.n))
        gx.add_edges_from(self.g.edges)
        if 2 * len(nx.max_weight_matching(gx, maxcardinality=True)) == self.g.n:
            yield from self._extend(frozenset(range(self.g.n)), [])

    def _extend(self, uncovered: frozenset, chosen: list):
        if not uncovered:
            yield frozenset(chosen)
            return
        v = min(uncovered)
        for w in sorted(self.g.adj[v]):
            if w in uncovered:
                if self.nodes >= self.max_nodes:
                    self.budget_exceeded = True
                    return
                self.nodes += 1
                yield from self._extend(uncovered - {v, w}, chosen + [(v, w)])


def chromatic_index_regular(
    g: Graph, budget: SolverBudget = SolverBudget()
) -> tuple[int, list]:
    """(D, one-factorization) when the D-regular graph has one, else
    (D+1, proper edge coloring as color classes).  The factorization is a
    peel of D perfect matchings under the node budget."""
    from .matchings import balanced_matchings

    if not g.is_regular():
        raise PreconditionViolated("graph is not regular")
    D = g.max_degree()

    def search(i, taken, order, cap):
        enum = _MatchingEnum(Graph(g.n, g.edges.difference(*taken)), cap)
        return ((sorted(pm), pm) for pm in enum.matchings()), enum

    peel = peel_cycles(search, D, budget.max_nodes,
                       deadline=time.monotonic() + budget.max_seconds)
    if peel.cycles is not None:
        return D, peel.cycles
    classes = balanced_matchings(g, D + 1)
    return D + 1, [sorted(m) for m in classes]


# -- approximate decomposition -----------------------------------------------

def approx_decomposition(
    g: Graph,
    part: LabelledPartition,
    family: Sequence[PathSystem],
    budget: SolverBudget = SolverBudget(),
    excluded: Collection[Edge] = (),
) -> list[list[int]]:
    """len(family) edge-disjoint Hamilton cycles of ``g``, the i-th
    containing the i-th balanced exceptional system and otherwise only
    edges of g[A, B] outside ``excluded``.

    The pool is the A-B edges of ``g`` outside the systems and
    ``excluded``.  When the pool and the systems hold exactly
    ``len(family) * n`` edges, as when g is its own host, the cycles must
    take every pool edge, and ``switches.split_and_switch`` builds them
    with no search, under ``budget.seed`` and the wall clock
    ``budget.max_seconds``, or raises ``BackendFailure``; whether the
    budget is exact is decided from edge counts, and only then is the pool
    built.  Every other call runs one ``peel_through_systems`` over the
    pool, which the kernel reads from ``g``'s edge array under the
    partition's side labels: level i prescribes the paths of system i
    itself.  Spending
    ``budget.max_nodes`` raises ``Timeout``.  When the whole search space is
    exhausted without a decomposition, ``PreconditionViolated`` names the
    deepest system index reached; that proves that the pool holds no such
    cycles (``peel_cycles``).

    The lemma's entry hypotheses (degree windows into the clusters, family
    size, bounded incidence) are not checked: the engine or the search
    itself decides whether the cycles exist.
    """
    sides = class_labels(g.n, (part.A, part.B))
    pool = _exact_pool(g, part, sides, family, excluded)
    if pool is not None:
        return split_and_switch(
            g.n, part.A, pool, [q.edges for q in family], budget.seed,
            time.monotonic() + budget.max_seconds)[0]
    peel = peel_through_systems(g, family, budget, sides=sides,
                                excluded=excluded)
    if peel.cycles is None:
        raise PreconditionViolated(
            f"approximate decomposition: search exhausted at index "
            f"{peel.deepest} (exhaustive for the chosen systems and pool: no "
            "edge-disjoint Hamilton cycles through the systems exist in that "
            "pool; not a claim about the host)"
        )
    return peel.cycles


def _exact_pool(g, part, sides, family, excluded) -> frozenset | None:
    """The A-B edges of ``g`` (``sides``: 0 on A, 1 on B, -1 elsewhere, so
    an edge is A-B exactly when its ends' sides sum to 1) outside the
    systems of ``family`` and ``excluded``, when they and the systems'
    edges number exactly ``len(family) * g.n``; else None, decided from
    the A-B degrees of ``g`` and the barred edges alone."""
    barred = {(u, v) if u < v else (v, u)
              for u, v in chain(excluded, *(q.edges for q in family))}
    rows = g.class_degrees(sides, 2)
    cross = sum(rows[a][1] for a in part.A) - sum(
        1 for e in barred if sides[e[0]] + sides[e[1]] == 1 and e in g.edges)
    if cross + sum(len(q.edges) for q in family) != len(family) * g.n:
        return None
    return frozenset(e for e in g.edges
                     if sides[e[0]] + sides[e[1]] == 1 and e not in barred)
