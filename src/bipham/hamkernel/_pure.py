"""Pure-Python Hamilton cycle enumerator over port-constrained vertices:
the reference that the C kernel (``csrc/hamkernel.c``) is tested against,
and the kernel that runs when that one cannot be built.

``GraphEnum`` is the search that ``search.CycleSearch`` runs: the Hamilton
cycles of a graph through items (free vertices and prescribed paths).  It
builds the items' port masks from the allowed edges (``_ports``), runs
``CycleEnum`` over them and decodes each item cycle into a vertex cycle
(``_decode``), dropping the candidates no orientation of the paths closes.

The search instance is a graph whose vertices each expose two "ports": a
cycle must use one edge through each port.  Ordinary vertices have both port
masks equal to their adjacency mask.  A vertex produced by contracting a
prescribed path has port masks equal to the allowed neighborhoods of the two
path ends.  A "directed" vertex must be entered through port A and left
through port B (used to force a traversal direction through contracted
edges).  Optional waypoint ranks force a set of vertices to appear in a
fixed cyclic order.

Masks are Python ints, so any vertex count is supported.

The search prunes a node whose current vertex is ``cur`` when some
unvisited vertex has fewer than two neighbours, in its union mask, among the
available vertices: the unvisited ones, ``cur`` and ``start``.  Rather than
scan every unvisited vertex at every node, it decides this predicate from
the neighbours of the vertex just left:

* A node's parent passed the prune, and the step ``prev -> cur`` takes
  exactly one vertex, ``prev``, out of the available set (none when
  ``prev`` is ``start``).  So only an unvisited vertex whose union mask
  contains ``prev`` can have dropped below two.  These vertices are read
  from a reverse mask, not from ``prev``'s own union mask.  The masks
  ``_ports`` builds are symmetric, so there the two are equal, and the C
  kernel, which takes only graph searches, reads the union mask.  Only this
  reference's ``CycleEnum`` allows asymmetric masks (the pinned
  ``ported-one-way`` instance in ``tests/test_kernel.py`` has them).
* For every child of one node the available set is the same, so the
  vertices that would drop below two (``starving``) are found once, when
  the node is pushed, and a child ``v`` fails the prune unless
  ``starving`` is empty or ``{v}``.  When two vertices starve, every child
  fails; the children are then counted without being visited.
* The root was never checked, so its children test one precomputed mask of
  the vertices with fewer than two union-mask bits.

The search, the order of its cycles, its node count and its budget trips
are those of the full scan.
"""

from __future__ import annotations

from array import array
from itertools import chain


def check_instance(port_a, port_b, directed, start, waypoint_ranks) -> int:
    """The vertex count of a search instance; ``ValueError`` if its lists
    differ in length, a port mask has a bit at or past the vertex count,
    ``start`` is out of range or is not the rank-0 waypoint."""
    n = len(port_a)
    if len(port_b) != n:
        raise ValueError("the port masks differ in length")
    if any(m >> n for m in port_a) or any(m >> n for m in port_b):
        raise ValueError(f"a port mask has a bit at or past vertex count {n}")
    _check_order(n, directed, start, waypoint_ranks)
    return n


def _check_order(n, directed, start, waypoint_ranks):
    """The checks on the flags, ranks and ``start`` of ``n`` search items
    that port and graph instances share."""
    if len(directed) != n or (
        waypoint_ranks is not None and len(waypoint_ranks) != n
    ):
        raise ValueError(f"directed flags or ranks not one per item of {n}")
    if n >= 3 and not 0 <= start < n:
        raise ValueError(f"start vertex {start} out of range")
    if waypoint_ranks is not None and waypoint_ranks[start] not in (0, -1):
        raise ValueError("start vertex must be the rank-0 waypoint")


def check_graph(n, edges, items, directed, start, waypoint_ranks) -> array:
    """The items' vertices, one item after another, of a graph search
    instance; ``ValueError`` if an edge or an item has a vertex outside
    0..n-1, an item is empty, a vertex lies on two items (or twice on one),
    or the flags, ranks and ``start`` do not fit the items as
    ``check_instance`` requires of a port instance.  ``edges`` holds the
    allowed edges as 2m vertex ids, edge i being ``edges[2i], edges[2i+1]``."""
    if len(edges) % 2:
        raise ValueError("the edge list holds an odd number of vertex ids")
    if len(edges) and (min(edges) < 0 or max(edges) >= n):
        raise ValueError(f"an edge has an end outside 0..{n - 1}")
    if not all(items):
        raise ValueError("an item has no vertex")
    seq = array("i", chain.from_iterable(items))
    if len(seq) and (min(seq) < 0 or max(seq) >= n):
        raise ValueError(f"an item has a vertex outside 0..{n - 1}")
    if len(set(seq)) != len(seq):
        raise ValueError("a vertex lies on two items or twice on one")
    _check_order(len(items), directed, start, waypoint_ranks)
    return seq


def _ports(n, edges, items):
    """``(port_a, port_b, adj)`` of a checked graph instance: port A (B) of
    item i offers each item j != i that an allowed edge joins to i's first
    (last) vertex by one of j's ends; ``adj[x]`` is x's neighbourhood as a
    bit mask.  A path interior is no item's end, so it is in no port: it
    already has both of its cycle edges, and every union mask is
    symmetric."""
    owner = [-1] * n  # the item x is an end of
    for idx, verts in enumerate(items):
        owner[verts[0]] = owner[verts[-1]] = idx
    adj = [0] * n
    offers = [0] * n  # the items an edge joins x to, end to end
    ends = iter(edges)
    for u, v in zip(ends, ends):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        i, j = owner[u], owner[v]
        if i >= 0 and j >= 0:
            offers[u] |= 1 << j
            offers[v] |= 1 << i
    port_a = [offers[v[0]] & ~(1 << i) for i, v in enumerate(items)]
    port_b = [offers[v[-1]] & ~(1 << i) for i, v in enumerate(items)]
    return port_a, port_b, adj


def _states(items, directed):
    """Each item's (entry, exit) vertex pairs, in the order the decoder
    tries them: a path enters at its first vertex, or, when undirected, at
    its last; a free vertex is both."""
    return [
        ((v[0], v[-1]),) if d or len(v) == 1 else ((v[0], v[-1]), (v[-1], v[0]))
        for v, d in zip(items, directed)
    ]


def _decode(item_cycle, items, states, adj) -> list[int] | None:
    """The vertex cycle of an item cycle, or None when no orientation of
    its items closes it in the allowed graph (``adj`` as bit masks).  A
    chain DP over each item's ``states``: a state's parent is the first
    reachable state before it that an edge joins to it, the first item's
    states are tried in turn, and the cycle closes on the first reachable
    state of the last item that joins the first."""
    if all(len(states[idx]) == 1 for idx in item_cycle):
        # one orientation each: only the steps to re-check
        prev = states[item_cycle[-1]][0][1]
        for idx in item_cycle:
            entry, prev_exit = states[idx][0]
            if not adj[prev] >> entry & 1:
                return None
            prev = prev_exit
        orient = [states[idx][0] for idx in item_cycle]
    else:
        orient = _orient(item_cycle, states, adj)
        if orient is None:
            return None
    out = []
    for idx, (entry, _) in zip(item_cycle, orient):
        verts = items[idx]
        out.extend(verts if verts[0] == entry else reversed(verts))
    return out


def _orient(item_cycle, states, adj):
    """The DP of ``_decode``: each position's (entry, exit) state, or None."""
    k = len(item_cycle)
    for first_state in states[item_cycle[0]]:
        parents = [None] * k
        layer = [first_state]
        for pos in range(1, k):
            cur, par = [], {}
            for st in states[item_cycle[pos]]:
                for pst in layer:
                    if adj[pst[1]] >> st[0] & 1:
                        cur.append(st)
                        par[st] = pst
                        break
            if not cur:
                break
            layer = cur
            parents[pos] = par
        else:
            # close the cycle back to the fixed first state
            final = next((st for st in layer
                          if adj[st[1]] >> first_state[0] & 1), None)
            if final is None:
                continue
            orient = [None] * k
            orient[-1] = final
            for pos in range(k - 1, 0, -1):
                orient[pos - 1] = parents[pos][orient[pos]]
            return orient
    return None


class CycleEnum:
    """Resumable enumerator of Hamilton cycles.

    Yields each cycle as a list of vertex ids starting at ``start``.  The
    enumeration order is deterministic: candidates are tried in ascending
    vertex order.  ``nodes`` and ``budget_exceeded`` are current after every
    ``next()``.  ``set_cap`` changes the node cap between two ``next()``
    calls.
    """

    def __init__(
        self,
        port_a: list[int],
        port_b: list[int],
        directed: list[bool],
        start: int = 0,
        waypoint_ranks: list[int] | None = None,
        max_nodes: int | None = None,
        break_mirror: bool = False,
    ):
        check_instance(port_a, port_b, directed, start, waypoint_ranks)
        self.nodes = 0
        self.budget_exceeded = False
        self._cap = [max_nodes]
        # the search holds no reference back to self, so an enumerator that
        # is dropped before the end is freed at once, not by the cycle GC
        self._search = _search(
            list(port_a),
            list(port_b),
            list(directed),
            start,
            None if waypoint_ranks is None else list(waypoint_ranks),
            self._cap,
            break_mirror,
        )

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


class GraphEnum:
    """Resumable enumerator of the Hamilton cycles of a graph on vertices
    0..n-1 that run through ``items``, each a vertex sequence: a free
    vertex, or a prescribed path the cycle must traverse, in its given
    order when its ``directed`` flag is set.  ``edges`` holds the allowed
    edges as 2m vertex ids; ``start``, ``waypoint_ranks``, ``max_nodes``
    and ``break_mirror`` are ``CycleEnum``'s, over item indices.

    Yields each cycle as a list of vertex ids.  ``nodes``,
    ``budget_exceeded``, ``candidates`` (item cycles the search found) and
    ``rejected`` (those no orientation closes) are current after every
    ``next()``.  Fewer than three items give no cycle."""

    def __init__(self, n, edges, items, directed, start=0,
                 waypoint_ranks=None, max_nodes=None, break_mirror=False):
        check_graph(n, edges, items, directed, start, waypoint_ranks)
        self.candidates = self.rejected = 0
        self._items = [tuple(v) for v in items]
        port_a, port_b, self._adj = _ports(n, edges, self._items)
        self._states = _states(self._items, directed)
        self._enum = CycleEnum(port_a, port_b, directed, start,
                               waypoint_ranks, max_nodes, break_mirror)

    @property
    def nodes(self) -> int:
        return self._enum.nodes

    @property
    def budget_exceeded(self) -> bool:
        return self._enum.budget_exceeded

    def set_cap(self, max_nodes: int | None) -> None:
        """Cap the search at ``max_nodes`` nodes in all from the next
        ``next()`` on (None: no cap)."""
        self._enum.set_cap(max_nodes)

    def __iter__(self):
        return self

    def __next__(self) -> list[int]:
        for item_cycle in self._enum:
            self.candidates += 1
            cycle = _decode(item_cycle, self._items, self._states, self._adj)
            if cycle is not None:
                return cycle
            self.rejected += 1
        raise StopIteration


def _search(pa, pb, dirv, start, ranks, cap, break_mirror):
    """The depth-first search, on local variables.  Yields ``(cycle,
    nodes)`` and returns ``(nodes, budget_exceeded)``.  ``cap[0]`` is the
    node cap, read at the start and after every yield."""
    n = len(pa)
    if n < 3:
        return 0, False
    umask = [a | b for a, b in zip(pa, pb)]
    max_nodes = cap[0]
    has_budget = max_nodes is not None
    full = (1 << n) - 1
    start_bit = 1 << start

    rev = [0] * n  # rev[x]: the vertices whose union mask contains x
    starved = 0  # vertices that never have two neighbours
    for w in range(n):
        m, wb = umask[w] & full, 1 << w
        if umask[w].bit_count() < 2:
            starved |= wb
        while m:
            b = m & -m
            m ^= b
            rev[b.bit_length() - 1] |= wb

    # per depth: current vertex, untried candidates, next waypoint
    # rank, and the vertices that a step out of the node would starve
    path = [start] * n
    cands = [0] * n
    need_stack = [0] * n
    starving_stack = [0] * n
    visited = start_bit
    if dirv[start]:
        cands[0] = pb[start] & ~visited
        close_mask = pa[start]
    else:
        cands[0] = umask[start] & ~visited
        close_mask = 0  # determined once the first step is chosen
    need = 1 if (ranks is not None and ranks[start] == 0) else 0
    need_stack[0] = need
    starving = starving_stack[0] = starved & ~start_bit
    depth = 0
    nodes = 0
    while True:
        cand = cands[depth]
        if cand == 0:
            # backtrack
            if depth == 0:
                break
            visited ^= 1 << path[depth]
            depth -= 1
            need = need_stack[depth]
            starving = starving_stack[depth]
            continue
        b = cand & -cand
        cands[depth] = cand ^ b
        v = b.bit_length() - 1

        if has_budget and nodes >= max_nodes:
            return nodes, True
        nodes += 1

        new_need = need
        if ranks is not None:
            r = ranks[v]
            if r >= 0:
                if r != need:
                    continue
                new_need = need + 1

        # the ports v can leave by, entered from prev
        prev = path[depth]
        fb = 1 << prev
        a_v, b_v = pa[v], pb[v]
        if dirv[v]:
            exits = b_v if a_v & fb else 0
        else:
            exits = (b_v if a_v & fb else 0) | (a_v if b_v & fb else 0)
        if depth == 0 and not dirv[start]:
            a_s, b_s = pa[start], pb[start]
            close_mask = (b_s if a_s & b else 0) | (a_s if b_s & b else 0)

        visited |= b
        if visited == full:
            if (
                exits & start_bit
                and close_mask & b
                and not (break_mirror and path[1] > v)
            ):
                yield path[: depth + 1] + [v], nodes
                max_nodes = cap[0]
                has_budget = max_nodes is not None
            visited ^= b
            continue

        exits &= ~visited
        if exits == 0 or starving & ~b:
            visited ^= b
            continue

        # v passed the prune; find what a step out of v would starve
        child_starving = 0
        avail = ~visited | start_bit
        rem = rev[v] & ~visited
        while rem:
            lb = rem & -rem
            rem ^= lb
            if (umask[lb.bit_length() - 1] & avail).bit_count() < 2:
                if child_starving:
                    break
                child_starving = lb
        else:
            depth += 1
            path[depth] = v
            cands[depth] = exits
            need = need_stack[depth] = new_need
            starving = starving_stack[depth] = child_starving
            continue
        # two vertices starve: every child of v fails the prune
        k = exits.bit_count()
        if has_budget and nodes + k > max_nodes:
            return max_nodes, True
        nodes += k
        visited ^= b
    return nodes, False
