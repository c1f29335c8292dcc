"""Pure-Python Hamilton cycle search through prescribed paths: the
reference that the C kernel (``csrc/hamkernel.c``) is tested against, and
the kernel that runs when that one cannot be built.

``GraphEnum`` is the search that ``search.CycleSearch`` runs: the Hamilton
cycles of a graph through items, free vertices and prescribed paths that a
cycle may traverse either way.  Its allowed edges are given as three
things: a host's edge array, which the caller keeps; optional side labels,
which keep only the host edges between side 0 and side 1; and the excluded
edges, which are taken out.  So a level of a peel passes the host it
already has and what the level excludes, and no pool is flattened.  It
searches a vertex instance (``_instance``).  A free vertex is an instance
vertex.  A path becomes its two ends, joined by a required edge, and its
interior leaves the instance.  Instance vertices take ids in item order, a
path's first end before its last, and the allowed edges that join two of
them, other than the two ends of one path, make their adjacency masks.
This is required-edge backtracking (Rubin, JACM 1974): the Hamilton cycles
of the instance that take every required edge are exactly the Hamilton
cycles of the graph through the paths, each path traversed in whichever
direction the cycle takes it, so an exhausted search proves that there is
none.

The search starts at vertex 0 and tries candidates in ascending id order,
so in item order.  A step into a free vertex stays there; a step into a
path end takes the path's required edge in the same node and stays at its
other end.  When vertex 0 is a path end, the search starts across its
required edge, which fixes each cycle's direction; otherwise it yields each
cycle once, in the direction whose first step enters a lower vertex than
the one the cycle closes from.  Each yielded cycle is a list of graph
vertices, the paths' interiors put back.

Masks are Python ints, so any vertex count is supported.

The search prunes a node whose current vertex is ``cur`` when some
unvisited vertex has fewer available neighbours than it needs: two for a
free vertex, one for a path end, whose other cycle edge is its required
edge.  The available vertices are the unvisited ones, ``cur`` and vertex 0.
Rather than scan every unvisited vertex at every node, it decides this
predicate from the neighbours of the vertices that a step takes out of the
available set:

* A node passed the prune, and any step out of it takes ``cur`` out of the
  available set (nothing when ``cur`` is vertex 0).  So only an unvisited
  neighbour of ``cur`` can have dropped below its need.  These vertices
  (``starving``) are found once, when the node is pushed.
* A step into ``v`` visits ``v`` and, for a path end, the other end too.
  The child fails unless ``starving`` lies within these.  A step into a
  path end also takes ``v`` itself out of the available set, so the child
  fails, too, when an unvisited neighbour of ``v`` drops below its need.
* When two vertices starve, every child fails, and the children are
  counted without being visited.  A step visits both only when they are
  the ends of one path, and then it stops at an end with no way on.
* The root was never checked, so its ``starving`` comes from a scan of
  every unvisited vertex.

The search, the order of its cycles, its node count and its budget trips
are those of the full scan.
"""

from __future__ import annotations

from array import array
from itertools import chain


def check_graph(n, edges, items, sides=None, excluded=()) -> array:
    """The items' vertices, one item after another, of a graph search
    instance; ``ValueError`` if an item is empty, a vertex lies on two
    items (or twice on one), the side labels are not n values of -1, 0 and
    1, or an item, an edge or an excluded edge has a vertex outside
    0..n-1.  ``edges`` and ``excluded`` hold edges as vertex ids, edge i
    being ``[2i], [2i+1]``.  The C kernel makes this check but for the
    ends of the edges, which its builder checks as it reads them."""
    seq = check_items(n, edges, items, sides, excluded)
    for ids, what in ((edges, "an edge"), (excluded, "an excluded edge")):
        if len(ids) and (min(ids) < 0 or max(ids) >= n):
            raise ValueError(f"{what} has an end outside 0..{n - 1}")
    return seq


def check_items(n, edges, items, sides, excluded) -> array:
    """``check_graph`` but for the ends of the edges."""
    for ids, what in ((edges, "edge"), (excluded, "excluded edge")):
        if len(ids) % 2:
            raise ValueError(f"the {what} list holds an odd number of "
                             "vertex ids")
    if sides is not None and (len(sides) != n
                              or not set(sides) <= {-1, 0, 1}):
        raise ValueError(f"the side labels are not {n} values of -1, 0 "
                         "and 1")
    if not all(items):
        raise ValueError("an item has no vertex")
    seq = array("i", chain.from_iterable(items))
    if len(seq) and (min(seq) < 0 or max(seq) >= n):
        raise ValueError(f"an item has a vertex outside 0..{n - 1}")
    if len(set(seq)) != len(seq):
        raise ValueError("a vertex lies on two items or twice on one")
    return seq


def _instance(n, edges, items, sides, excluded):
    """``(adj, mate, runs)``, the vertex instance of a checked graph search:
    ``adj[x]`` is instance vertex x's neighbourhood as a bit mask,
    ``mate[x]`` the other end of x's path (x itself for a free vertex), and
    ``runs[x]`` the graph vertices a cycle walks from x to ``mate[x]``."""
    ids = [-1] * n  # graph vertex -> instance vertex; -1 for an interior
    mate, runs = [], []
    for verts in items:
        x = ids[verts[0]] = len(mate)
        if len(verts) == 1:
            mate.append(x)
            runs.append(tuple(verts))
        else:
            ids[verts[-1]] = x + 1
            mate += [x + 1, x]
            runs += [tuple(verts), tuple(reversed(verts))]
    adj = [0] * len(mate)
    ends = iter(edges)
    for u, v in zip(ends, ends):
        if sides is not None and (sides[u] < 0 or sides[v] < 0
                                  or sides[u] == sides[v]):
            continue
        x, y = ids[u], ids[v]
        if x >= 0 and y >= 0 and y != x and y != mate[x]:
            adj[x] |= 1 << y
            adj[y] |= 1 << x
    ends = iter(excluded)
    for u, v in zip(ends, ends):
        x, y = ids[u], ids[v]
        if x >= 0 and y >= 0:
            adj[x] &= ~(1 << y)
            adj[y] &= ~(1 << x)
    return adj, mate, runs


class GraphEnum:
    """Resumable enumerator of the Hamilton cycles of a graph on vertices
    0..n-1 that run through ``items``, each a vertex sequence: a free
    vertex, or a prescribed path the cycle must traverse, either way.  The
    allowed edges are the host's, ``edges`` (2m vertex ids), that join side
    0 to side 1 of ``sides`` (n labels, -1 for neither side; None: every
    host edge), less the edges ``excluded`` (vertex ids as in ``edges``);
    ``max_nodes`` caps the search nodes (None: no cap).

    Yields each cycle once, as a list of vertex ids.  ``nodes`` and
    ``budget_exceeded`` are current after every ``next()``; ``set_cap``
    changes the node cap between two ``next()`` calls.  An instance of
    fewer than three vertices (a path's two ends count, its interior does
    not) gives no cycle."""

    def __init__(self, n, edges, items, max_nodes=None, sides=None,
                 excluded=()):
        check_graph(n, edges, items, sides, excluded)
        self.nodes = 0
        self.budget_exceeded = False
        self._cap = [max_nodes]
        # the search holds no reference back to self, so an enumerator that
        # is dropped before the end is freed at once, not by the cycle GC
        self._search = _search(*_instance(n, edges, items, sides, excluded),
                               self._cap)

    def set_cap(self, max_nodes: int | None) -> None:
        """Cap the search at ``max_nodes`` nodes in all from the next
        ``next()`` on (None: no cap)."""
        self._cap[0] = max_nodes

    def __iter__(self):
        return self

    def __next__(self) -> list[int]:
        try:
            cycle, self.nodes = next(self._search)
        except StopIteration as end:
            if end.value is not None:  # the search has just finished
                self.nodes, self.budget_exceeded = end.value
            raise
        return cycle


def _short(adj, need, rem, avail) -> bool:
    """Whether a vertex in the mask ``rem`` has fewer neighbours in the mask
    ``avail`` than it needs."""
    while rem:
        lb = rem & -rem
        rem ^= lb
        w = lb.bit_length() - 1
        if (adj[w] & avail).bit_count() < need[w]:
            return True
    return False


def _search(adj, mate, runs, cap):
    """The depth-first search, on local variables.  Yields ``(cycle,
    nodes)`` and returns ``(nodes, budget_exceeded)``.  ``cap[0]`` is the
    node cap, read at the start and after every yield."""
    n = len(adj)
    if n < 3:
        return 0, False
    max_nodes = cap[0]
    has_budget = max_nodes is not None
    full = (1 << n) - 1
    # what a step into x visits, and how many available neighbours x needs
    step = [1 << x | 1 << m for x, m in enumerate(mate)]
    need = [1 if m != x else 2 for x, m in enumerate(mate)]
    free0 = mate[0] == 0

    # per depth: the vertex its step entered (the current vertex is that
    # vertex's mate), untried candidates, and the vertices that a step out
    # of the node would starve
    path = [0] * n
    cands = [0] * n
    starving_stack = [0] * n
    visited = step[0]
    cands[0] = adj[mate[0]] & ~visited
    avail = ~visited | 1
    starving = starving_stack[0] = sum(
        1 << w for w in range(n)
        if not visited >> w & 1 and (adj[w] & avail).bit_count() < need[w])
    depth = 0
    nodes = 0
    while True:
        cand = cands[depth]
        if cand == 0:
            # backtrack
            if depth == 0:
                break
            visited ^= step[path[depth]]
            depth -= 1
            starving = starving_stack[depth]
            continue
        b = cand & -cand
        cands[depth] = cand ^ b
        v = b.bit_length() - 1

        if has_budget and nodes >= max_nodes:
            return nodes, True
        nodes += 1

        s = step[v]
        last = mate[v]
        path[depth + 1] = v
        visited |= s
        if visited == full:
            if adj[last] & 1 and (not free0 or path[1] < last):
                yield [x for y in path[: depth + 2] for x in runs[y]], nodes
                max_nodes = cap[0]
                has_budget = max_nodes is not None
            visited ^= s
            continue

        exits = adj[last] & ~visited
        if exits == 0 or starving & ~s:
            visited ^= s
            continue
        avail = ~visited | 1
        # a path end v is no longer available; its other end is current
        if s != b and _short(adj, need, adj[v] & ~visited, avail | 1 << last):
            visited ^= s
            continue

        # v passed the prune; find what a step out of it would starve
        child_starving = 0
        rem = exits
        while rem:
            lb = rem & -rem
            rem ^= lb
            w = lb.bit_length() - 1
            if (adj[w] & avail).bit_count() < need[w]:
                if child_starving:
                    break
                child_starving = lb
        else:
            depth += 1
            cands[depth] = exits
            starving = starving_stack[depth] = child_starving
            continue
        # two vertices starve: every child of v fails
        k = exits.bit_count()
        if has_budget and nodes + k > max_nodes:
            return max_nodes, True
        nodes += k
        visited ^= s
    return nodes, False
