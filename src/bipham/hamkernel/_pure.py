"""Pure-Python Hamilton cycle enumerator over port-constrained vertices:
the reference that the C kernel (``csrc/hamkernel.c``) is tested against,
and the kernel that runs when that one cannot be built.

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
  from a reverse mask, not from ``prev``'s own union mask: the masks
  ``search.CycleSearch`` builds are symmetric, but the kernel's contract
  allows asymmetric ones (the pinned ``ported-one-way`` instance in
  ``tests/test_kernel.py`` has them).
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


def check_instance(port_a, port_b, directed, start, waypoint_ranks) -> int:
    """The vertex count of a search instance; ``ValueError`` if its lists
    differ in length, a port mask has a bit at or past the vertex count,
    ``start`` is out of range or is not the rank-0 waypoint."""
    n = len(port_a)
    if len(port_b) != n or len(directed) != n or (
        waypoint_ranks is not None and len(waypoint_ranks) != n
    ):
        raise ValueError("port masks, directed flags and ranks differ in length")
    if any(m >> n for m in port_a) or any(m >> n for m in port_b):
        raise ValueError(f"a port mask has a bit at or past vertex count {n}")
    if n >= 3 and not 0 <= start < n:
        raise ValueError(f"start vertex {start} out of range")
    if waypoint_ranks is not None and waypoint_ranks[start] not in (0, -1):
        raise ValueError("start vertex must be the rank-0 waypoint")
    return n


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
