"""Edge decompositions into balanced matchings and path systems.

Five tools used throughout the pipeline:

* ``balanced_matchings``: decompose any graph into k >= max-degree+1
  matchings whose sizes differ by at most one, or a bipartite graph into
  k >= max-degree (König; the coloring's extra class is recolored into the
  others by alternating paths).  A proper edge coloring, then repeated
  alternating-path exchanges between the largest and smallest classes; the
  sum of squared class sizes strictly drops each exchange, so the loop
  terminates.  ``vizing_balanced`` is its max-degree+1 case.
* ``split_trick``: decompose a graph on A0 u A with bounded degrees into
  D/2 edge-disjoint path systems of near-equal size whose internal vertices
  all lie in A0 (duplicate A0, decompose the auxiliary graph into balanced
  matchings, re-identify the copies).
* ``sparsify_split``: randomly split off a (1-gamma) fraction of the edges
  so that the leftover has small maximum degree, retrying until both
  postconditions verify.
* ``kuhn_matching``: a perfect matching of a vertex list by augmenting
  paths over candidate lists.  Each left vertex comes with the list of right
  vertices it may take, built once by the caller in the order it wants
  them tried, so the augmenting step only walks lists and the result is a
  fixed function of the left order and the lists.  It is the package's one
  bipartite matching routine: ``bes`` calls it, and ``balancer`` runs its
  augmenting step ``_augment`` directly.
* ``degree_split``: a bipartite subgraph with exact prescribed degrees (a
  greedy pass, then augmenting paths: Kuhn's step with capacities).  It is
  the package's one exact-degree bipartite routine: the generators'
  bipartite degree factor and the 2-factors of ``switches`` run on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .balance import frac
from .errors import (
    BadParams,
    MatchingFailure,
    PreconditionViolated,
    RetryBudgetExceeded,
)
from .graphs import Edge, Graph, PathSystem, norm_edge

SPARSIFY_ATTEMPTS = 64


# -- proper edge coloring (max-degree + 1 colors) ---------------------------

def edge_coloring(g: Graph) -> dict[Edge, int]:
    """Proper edge coloring with at most max_degree+1 colors (fan/Kempe
    construction).  Deterministic: edges processed in sorted order and the
    smallest usable color is preferred."""
    ncolors = g.max_degree() + 1
    color: dict[Edge, int] = {}
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]  # vertex -> color -> nbr

    def first_free(v: int) -> int:
        for c in range(ncolors):
            if c not in at[v]:
                return c
        raise AssertionError("no free color")

    def uncolor(u: int, v: int):
        old = color.pop(norm_edge(u, v))
        del at[u][old]
        del at[v][old]

    def put(u: int, v: int, c: int):
        color[norm_edge(u, v)] = c
        at[u][c] = v
        at[v][c] = u

    def is_free(v: int, c: int) -> bool:
        return c not in at[v]

    for u, v in sorted(g.edges):
        # maximal fan of u starting at v
        fan = [v]
        infan = {v}
        while True:
            ext = None
            for c in range(ncolors):
                if is_free(fan[-1], c):
                    w = at[u].get(c)
                    if w is not None and w not in infan:
                        ext = w
                        break
            if ext is None:
                break
            fan.append(ext)
            infan.add(ext)
        c = first_free(u)
        d = first_free(fan[-1])
        if c != d:
            # invert the maximal path from u alternating d, c; the cd-sub-
            # graph has max degree 2 and u misses c, so the walk is simple
            path = [u]
            cur, col = u, d
            while col in at[cur]:
                nxt = at[cur][col]
                path.append(nxt)
                cur = nxt
                col = c if col == d else d
            updates = []
            for i in range(len(path) - 1):
                old = color[norm_edge(path[i], path[i + 1])]
                updates.append((path[i], path[i + 1], c if old == d else d))
            for x, y, _ in updates:
                uncolor(x, y)
            for x, y, new in updates:
                put(x, y, new)
        # longest fan prefix that is still a fan, then the last vertex in it
        # on which d is free
        w_idx = None
        for i, fv in enumerate(fan):
            if i > 0:
                ce = color.get(norm_edge(u, fv))
                if ce is None or not is_free(fan[i - 1], ce):
                    break
            if is_free(fv, d) and is_free(u, d):
                w_idx = i
        if w_idx is None:
            raise AssertionError("fan rotation failed")
        shifted = [color[norm_edge(u, fan[i + 1])] for i in range(w_idx)]
        for i in range(w_idx):
            uncolor(u, fan[i + 1])
        for i in range(w_idx):
            put(u, fan[i], shifted[i])
        put(u, fan[w_idx], d)
    return color


# -- balanced matching decompositions ---------------------------------------

@dataclass(frozen=True)
class MatchingDecomposition:
    matchings: tuple[frozenset[Edge], ...]
    source: Graph


def _components_alternating(m1: frozenset[Edge], m2: frozenset[Edge]):
    """Components of the symmetric difference m1 ^ m2, each as a list of
    edges; every component is a path or an even cycle alternating between
    the two matchings."""
    sym = m1 ^ m2
    adj: dict[int, list[Edge]] = {}
    for e in sym:
        for v in e:
            adj.setdefault(v, []).append(e)
    seen: set[Edge] = set()
    comps = []
    for start in sorted(adj):
        for e0 in adj[start]:
            if e0 in seen:
                continue
            comp = [e0]
            seen.add(e0)
            frontier = [e0]
            while frontier:
                e = frontier.pop()
                for v in e:
                    for e2 in adj[v]:
                        if e2 not in seen:
                            seen.add(e2)
                            comp.append(e2)
                            frontier.append(e2)
            comps.append(comp)
    return comps


def rebalance_matchings(classes: list[set[Edge]]) -> None:
    """Equalize class sizes to within one by swapping alternating paths
    between the currently largest and smallest classes (in place)."""
    while True:
        sizes = [len(c) for c in classes]
        hi = sizes.index(max(sizes))
        lo = sizes.index(min(sizes))
        if sizes[hi] - sizes[lo] <= 1:
            return
        big, small = classes[hi], classes[lo]
        swapped = False
        for comp in _components_alternating(frozenset(big), frozenset(small)):
            surplus = sum(1 if e in big else -1 for e in comp)
            if surplus > 0:
                for e in comp:
                    if e in big:
                        big.discard(e)
                        small.add(e)
                    else:
                        small.discard(e)
                        big.add(e)
                swapped = True
                break
        if not swapped:  # cannot happen: a size gap >= 2 forces a surplus path
            raise AssertionError("no surplus component despite size gap")


def balanced_matchings(g: Graph, num_classes: int) -> list[frozenset[Edge]]:
    """Decompose E(g) into ``num_classes`` matchings with sizes within one,
    largest first.  Requires num_classes >= max_degree + 1, or, when g is
    bipartite, num_classes >= max_degree (König): the coloring's class
    max_degree is then recolored into the others by alternating paths."""
    delta = g.max_degree()
    if num_classes < delta + 1 and (num_classes < max(delta, 1)
                                    or not _is_bipartite(g)):
        raise BadParams(
            f"{num_classes} classes < max degree {delta} + 1 (or max "
            "degree, on a bipartite graph)"
        )
    coloring = edge_coloring(g)
    if num_classes == delta:
        _recolor_last_class(coloring, g.n, delta)
    classes: list[set[Edge]] = [set() for _ in range(num_classes)]
    for e, c in coloring.items():
        classes[c].add(e)
    rebalance_matchings(classes)
    ordered = sorted(classes, key=lambda m: (-len(m), sorted(m)))
    return [frozenset(m) for m in ordered]


def _is_bipartite(g: Graph) -> bool:
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def _recolor_last_class(coloring: dict[Edge, int], n: int, k: int) -> None:
    """Recolor the edges of color ``k`` of a proper coloring of a bipartite
    graph with max degree ``k`` into colors 0..k-1 (in place), in sorted
    order.  For edge uv, u misses some color a < k and v some b < k; when
    v has a, the a/b path from v is swapped first.  In a bipartite graph
    that path cannot reach u (it would arrive at u by an a edge), so a is
    then free at both ends."""
    at: list[dict[int, int]] = [dict() for _ in range(n)]
    for (u, v), c in coloring.items():
        if c < k:
            at[u][c] = v
            at[v][c] = u
    for u, v in sorted(e for e, c in coloring.items() if c == k):
        a = next(c for c in range(k) if c not in at[u])
        b = next(c for c in range(k) if c not in at[v])
        if a in at[v]:
            path = [v]
            col = a
            while col in at[path[-1]]:
                path.append(at[path[-1]][col])
                col = b if col == a else a
            steps = list(zip(path, path[1:]))
            for x, y in steps:
                del at[x][coloring[norm_edge(x, y)]]
                del at[y][coloring[norm_edge(x, y)]]
            for x, y in steps:
                new = b if coloring[norm_edge(x, y)] == a else a
                coloring[norm_edge(x, y)] = new
                at[x][new] = y
                at[y][new] = x
        coloring[(u, v)] = a
        at[u][a] = v
        at[v][a] = u


def vizing_balanced(g: Graph) -> MatchingDecomposition:
    """Decompose E(g) into exactly max_degree+1 pairwise disjoint matchings
    (some possibly empty) with sizes within one, largest first."""
    return MatchingDecomposition(
        tuple(balanced_matchings(g, g.max_degree() + 1)), g
    )


# -- the split trick ---------------------------------------------------------

def split_trick(g: Graph, A0, A, D: int) -> list[PathSystem]:
    """Decompose E(g) into D/2 edge-disjoint path systems with sizes within
    one, all internal path vertices in A0, largest systems first."""
    A0 = sorted(A0)
    A = sorted(A)
    if D % 2 != 0 or D < 2:
        raise PreconditionViolated(f"D = {D} must be a positive even integer")
    if set(A0) & set(A) or set(A0) | set(A) != set(range(g.n)):
        raise PreconditionViolated("A0, A must partition the vertex set")
    if g.max_degree() > D - 2:
        v = max(range(g.n), key=g.degree)
        raise PreconditionViolated(f"max degree {g.degree(v)} > D-2 at {v}", witness=v)
    half = D // 2
    for x in A:
        if g.degree(x) > half - 1:
            raise PreconditionViolated(
                f"degree {g.degree(x)} of {x} in A exceeds D/2-1", witness=x
            )
    gA0 = g.edges_within(A0)
    degA0 = {v: 0 for v in A0}
    for u, v in gA0:
        degA0[u] += 1
        degA0[v] += 1
    if degA0 and max(degA0.values()) > half - 1:
        v = max(degA0, key=lambda x: (degA0[x], -x))
        raise PreconditionViolated(
            f"degree {degA0[v]} of {v} inside A0 exceeds D/2-1", witness=v
        )

    # G1: all edges inside A0 and inside A, plus greedily added A0A-edges
    # while degrees stay <= D/2 - 1.  G2 gets the rest (A0A-edges only).
    in_g1 = set(gA0) | set(g.edges_within(A))
    deg1 = {v: 0 for v in range(g.n)}
    for u, v in in_g1:
        deg1[u] += 1
        deg1[v] += 1
    g2_edges = []
    A0_set = set(A0)
    for u, v in sorted(g.edges - in_g1):
        if deg1[u] <= half - 2 and deg1[v] <= half - 2:
            in_g1.add((u, v))
            deg1[u] += 1
            deg1[v] += 1
        else:
            g2_edges.append((u, v))

    # auxiliary graph: duplicate A0, route G2 edges through the copies
    copy = {a: g.n + i for i, a in enumerate(A0)}
    aux_edges = list(in_g1)
    for u, v in g2_edges:
        a, x = (u, v) if u in A0_set else (v, u)
        aux_edges.append((copy[a], x))
    aux = Graph(g.n + len(A0), aux_edges)
    classes = balanced_matchings(aux, half)

    back = {c: a for a, c in copy.items()}
    systems = []
    for m in classes:
        edges = [(back.get(u, u), back.get(v, v)) for u, v in m]
        systems.append(PathSystem(g.n, edges))
    return systems


def path_system_split(
    g: Graph, A0, A, t: int, sizes: list[int] | None = None
) -> list[PathSystem]:
    """Decompose E(g) into t path systems with internal vertices in A0 and
    sizes within one (largest first).

    Uses the duplication construction when its degree preconditions hold;
    for the tiny instances where t is too small for that route (the
    construction needs 2t-2 degree headroom), a direct backtracking
    assignment over the same constraints takes over.
    """
    if sizes is None:
        base, extra = divmod(g.num_edges(), t)
        sizes = [base + 1] * extra + [base] * (t - extra)
    if len(sizes) != t or sum(sizes) != g.num_edges():
        raise BadParams(f"sizes {sizes} do not fit {g.num_edges()} edges in {t} parts")
    try:
        systems = split_trick(g, A0, A, 2 * t)
        if [s.num_edges() for s in systems] == sizes:
            return systems
    except PreconditionViolated:
        pass
    return _backtrack_path_split(g, set(A0), t, sizes)


def _backtrack_path_split(g: Graph, A0: set, t: int, sizes: list[int]):
    """Exact-size assignment of edges to classes; each class stays a path
    system whose internal vertices lie in A0 (inner vertices keep degree at
    most one per class, exceptional ones at most two, no cycles)."""
    edges = sorted(g.edges)
    deg = [dict() for _ in range(t)]
    parent = [dict() for _ in range(t)]
    count = [0] * t
    out: list[list] = [[] for _ in range(t)]

    def find(c, x):
        while parent[c].get(x, x) != x:
            parent[c][x] = parent[c].get(parent[c][x], parent[c][x])
            x = parent[c][x]
        return x

    def ok(c, u, v):
        if count[c] >= sizes[c]:
            return False
        if deg[c].get(u, 0) >= (2 if u in A0 else 1):
            return False
        if deg[c].get(v, 0) >= (2 if v in A0 else 1):
            return False
        return find(c, u) != find(c, v)

    if not _place_edge(0, edges, sizes, ok, find, count, deg, parent, out):
        raise PreconditionViolated(
            f"no decomposition into {t} path systems of sizes {sizes}"
        )
    systems = [PathSystem(g.n, es) for es in out]
    systems.sort(key=lambda s: (-s.num_edges(), sorted(s.edges)))
    return systems


def _place_edge(idx, edges, sizes, ok, find, count, deg, parent, out) -> bool:
    """Place ``edges[idx:]`` for ``_backtrack_path_split``, trying the
    classes in order; module level for the reason ``_augment`` gives."""
    t = len(sizes)
    if idx == len(edges):
        return all(count[c] == sizes[c] for c in range(t))
    u, v = edges[idx]
    tried_fresh_sizes = set()
    for c in range(t):
        if count[c] == 0:
            if sizes[c] in tried_fresh_sizes:
                continue  # empty classes of equal target size are interchangeable
            tried_fresh_sizes.add(sizes[c])
        if not ok(c, u, v):
            continue
        count[c] += 1
        deg[c][u] = deg[c].get(u, 0) + 1
        deg[c][v] = deg[c].get(v, 0) + 1
        saved = parent[c].copy()
        parent[c][find(c, u)] = find(c, v)
        out[c].append((u, v))
        if _place_edge(idx + 1, edges, sizes, ok, find, count, deg, parent, out):
            return True
        out[c].pop()
        parent[c] = saved
        count[c] -= 1
        deg[c][u] -= 1
        deg[c][v] -= 1
    return False


# -- bipartite matching by augmenting paths ---------------------------------

def kuhn_matching(left, candidates) -> dict | None:
    """Match every vertex of ``left`` to a distinct candidate (Kuhn's
    augmenting paths); returns the left->right map, or None when some left
    vertex stays unmatched.

    ``candidates[u]`` lists the right vertices u may be matched to.  Left
    vertices are matched in their order, each tries its candidates in
    their order, and the map iterates in the order of ``left``, so the
    result is a fixed function of the two orders.
    """
    match_r: dict = {}
    for u in left:
        if not _augment(u, set(), candidates, match_r):
            return None
    match_l = {u: v for v, u in match_r.items()}
    return {u: match_l[u] for u in left}


def _augment(u, seen, candidates, match_r) -> bool:
    """Kuhn's augmenting-path step from left vertex ``u``.  A module-level
    function, not a closure: a self-referencing closure would keep each
    call's lists and its graph alive until a full garbage collection."""
    for v in candidates[u]:
        if v in seen:
            continue
        seen.add(v)
        if v not in match_r or _augment(match_r[v], seen, candidates, match_r):
            match_r[v] = u
            return True
    return False


def degree_split(left, candidates, need: dict) -> list[tuple]:
    """A subgraph in which every vertex ``v`` has exactly ``need[v]``
    edges, as (left, right) pairs in the order of ``left``; raises
    ``MatchingFailure`` when none exists.

    ``candidates[u]`` lists the right vertices that left vertex ``u`` may
    be joined to, each once; the right vertices are the keys of ``need``
    outside ``left``.  A greedy pass takes, for each left vertex in order,
    its candidates in order while both ends still need an edge; each left
    vertex still short of its target then gains edges one at a time by
    augmenting paths (Kuhn's step, with right vertices of any capacity),
    so the result is a fixed function of the orders.
    With the two sides' demands equal, every left vertex full means every
    right vertex full.
    """
    lefts = set(left)
    room = {v: t for v, t in need.items() if v not in lefts}
    if sum(need.get(u, 0) for u in left) != sum(room.values()):
        raise MatchingFailure("degree targets differ across the two sides")
    # the right vertices of each left vertex and the reverse, each as a
    # dict in the order taken (an ordered set)
    chosen: dict = {}
    holders: dict = {v: {} for v in room}
    for u in left:
        want = need.get(u, 0)
        mine = chosen[u] = {}
        for v in candidates[u]:
            if len(mine) == want:
                break
            if room[v]:
                room[v] -= 1
                mine[v] = holders[v][u] = None
    for u in left:
        while len(chosen[u]) < need.get(u, 0):
            if not _augment_capacitated(u, candidates, chosen, holders,
                                        room):
                raise MatchingFailure(
                    f"no subgraph with the prescribed degrees: left vertex "
                    f"{u} stays at {len(chosen[u])} of {need[u]}"
                )
    return [(u, v) for u in left for v in chosen[u]]


def _augment_capacitated(u, candidates, chosen, holders, room) -> bool:
    """One more edge at left vertex ``u`` along an augmenting path, found
    depth first in candidate order: a right vertex with room takes the
    edge at once, a full one is handed over to ``u`` by one of its holders
    that can move to another right vertex.  The walk keeps its own stack,
    so no path length meets the recursion limit."""
    seen = set()
    # one frame per left vertex on the path: [it, its candidates left to
    # try, the full right vertex it tries, that vertex's holders left]
    stack = [[u, iter(candidates[u]), None, None]]
    while stack:
        frame = stack[-1]
        w, cands, _, holding = frame
        if holding is not None:
            x = next(holding, None)
            if x is not None:
                stack.append([x, iter(candidates[x]), None, None])
                continue
        mine = chosen[w]
        for v in cands:
            if v not in seen and v not in mine:
                break
        else:
            stack.pop()
            continue
        seen.add(v)
        frame[2], frame[3] = v, iter(holders[v])
        if room[v]:
            room[v] -= 1
            # each left vertex on the path takes its right vertex and gives
            # up the one the frame below it tried
            for depth in range(len(stack) - 1, -1, -1):
                x, _, took, _ = stack[depth]
                chosen[x][took] = holders[took][x] = None
                if depth:
                    gave = stack[depth - 1][2]
                    del chosen[x][gave], holders[gave][x]
            return True
    return False


# -- random sparsifying split ------------------------------------------------

@dataclass(frozen=True)
class SparsifyResult:
    kept: Graph
    leftover: Graph
    attempts: int
    degree_bound: Fraction


def sparsify_split(
    g: Graph,
    gamma,
    alpha,
    seed: int = 0,
    target_edges: int | None = None,
) -> SparsifyResult:
    """Split g into (kept, leftover) with e(kept) = ceil((1-gamma) e(g)) and
    max degree of the leftover at most 6*gamma*alpha*n/5.

    Each attempt keeps every edge out of ``kept`` independently with
    probability 11*gamma/10 and then tops up or trims (lowest-index first)
    to hit the exact edge count; both postconditions are verified, and up
    to ``SPARSIFY_ATTEMPTS`` attempts run with fresh randomness.
    """
    gamma, alpha = frac(gamma), frac(alpha)
    if not 0 <= gamma < Fraction(1, 2):
        raise PreconditionViolated(f"gamma = {gamma} outside [0, 1/2)")
    e_total = g.num_edges()
    target = (
        target_edges
        if target_edges is not None
        else math.ceil((1 - gamma) * e_total)
    )
    if not 0 <= target <= e_total:
        raise PreconditionViolated(f"target edge count {target} out of range")
    bound = Fraction(6, 5) * gamma * alpha * g.n
    p = float(Fraction(11, 10) * gamma)
    sorted_edges = sorted(g.edges)
    last = []
    for attempt in range(SPARSIFY_ATTEMPTS):
        rng = random.Random((seed, attempt).__hash__())
        removed = {e for e in sorted_edges if rng.random() < p}
        kept_edges = set(g.edges) - removed
        if len(kept_edges) < target:
            for e in sorted_edges:
                if len(kept_edges) >= target:
                    break
                kept_edges.add(e)
        elif len(kept_edges) > target:
            for e in sorted_edges:
                if len(kept_edges) <= target:
                    break
                kept_edges.discard(e)
        kept = Graph(g.n, kept_edges)
        leftover = g.minus(kept)
        if leftover.max_degree() <= bound and kept.num_edges() == target:
            return SparsifyResult(kept, leftover, attempt + 1, bound)
        last = [
            f"attempt {attempt}: leftover max degree "
            f"{leftover.max_degree()} vs bound {bound}"
        ]
    raise RetryBudgetExceeded(
        f"sparsify_split failed after {SPARSIFY_ATTEMPTS} attempts "
        f"(degree bound {bound})",
        attempts=SPARSIFY_ATTEMPTS,
        last_failures=last,
    )
