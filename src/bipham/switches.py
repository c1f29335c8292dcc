"""Split and switch: Hamilton cycles through path systems that use up
their whole pool, with no search.

Given s path systems Q_1, ..., Q_s on n vertices and a pool of A-B edges
that no system shares, with s * n edges in all, s edge-disjoint Hamilton
cycles, the i-th through Q_i, must take every pool edge.  Then each cycle
is built as a 2-factor F_i that contains Q_i: level by level,
``matchings.degree_split`` takes from the pool the edges that bring Q_i's
degrees up to two everywhere, and the last level takes the rest.  With
empty systems every level of a regular bipartite pool has such a split,
by König's theorem (1916), as Petersen's 2-factor theorem (1891) gives for
any even-regular graph; with paths in the systems a level can lack one.
Switches then repair the factors: an alternating 4-cycle x-y-c-d, with xy
and cd in a factor F_Y and yc and dx in a factor F_X, none of them on a
path system, x and y on different cycles of F_X, is swapped when F_Y keeps
or loses a cycle by it.  Every degree and every path system stays in
place, F_X loses a cycle, and the repair ends when each factor is one
Hamilton cycle.  A split with no level left or a repair with no switch
left is retried: attempt k shuffles the split and the switch orders under
seed ``seed + k``.

The engine has two implementations, as the Hamilton search has two
kernels: ``hk_split_and_switch`` in the C kernel (``bipham.hamkernel``),
which runs when that kernel loaded, and ``pure_split_and_switch`` here,
which is its reference and runs in its place otherwise.  Both return the
same cycles, attempts and switches and raise the same errors, so a report
does not depend on the engine.

Nothing here backtracks, so nothing counts kernel nodes; the wall clock,
read before each split level, is the one limit.
"""

from __future__ import annotations

import random
import time
from itertools import chain, islice

from . import hamkernel
from .errors import BackendFailure, BadParams, MatchingFailure, WallClockExceeded
from .matchings import degree_split

# the split-and-repair attempts: attempt k splits and repairs under seed
# ``seed + k``, and the engine fails once all are stuck.  Under the desk
# constants, K(28,28) to K(98,98) at seeds 1-10 took at most 22
CLOSURE_ATTEMPTS = 64


def split_and_switch(n, A, pool, systems, seed, deadline):
    """Hamilton cycles through each of the edge sets ``systems``, together
    taking every edge of ``pool``, whose edges each have one end in the
    vertex list ``A``: (the cycles as vertex lists, the attempts run, the
    switches made).  ``BadParams`` when ``n`` is below 1, ``A`` has a
    vertex outside 0..n-1 or twice, a pool edge is not (u, v), u < v, from
    A to its complement inside 0..n-1, or a system edge has an end outside
    0..n-1 or is a pool edge: the first such, A before the pool before the
    systems, each in its iteration order; ``BackendFailure`` when no such
    decomposition exists by the degree counts, or once
    ``CLOSURE_ATTEMPTS`` are stuck; ``WallClockExceeded`` past ``deadline``
    (``time.monotonic()``).  Without systems the pool must be empty, and
    no cycle is due.  Runs on the C kernel's engine when it loaded, else
    on ``pure_split_and_switch``."""
    if systems and hamkernel.KERNEL == "c":
        done = hamkernel.split_and_switch(n, A, pool, systems, seed, deadline,
                                          CLOSURE_ATTEMPTS)
        if done is not None:
            status, a, b, cycles = done
            if status == 0:
                return cycles, a, b
            raise _c_failure(status, a, b, n, A, pool, systems)
    return pure_split_and_switch(n, A, pool, systems, seed, deadline)


def pure_split_and_switch(n, A, pool, systems, seed, deadline):
    """``split_and_switch`` in Python: the reference of the C engine."""
    if not systems:
        return [], 0, 0
    _check_input(n, A, pool, systems)
    needs = _level_needs(n, pool, systems)
    swaps = 0
    for attempt in range(CLOSURE_ATTEMPTS):
        rng = random.Random(seed + attempt)
        factors = _split_levels(n, A, pool, systems, needs, rng, deadline)
        if factors is None:
            continue
        cycles, done = _repair(factors, pool, rng)
        swaps += done
        if cycles is not None:
            return cycles, attempt + 1, swaps
    raise _stuck(CLOSURE_ATTEMPTS, swaps)


def _stuck(attempts, swaps):
    return BackendFailure(
        f"closure: {attempts} split attempts and {swaps} swaps left a factor "
        "that is not a Hamilton cycle")


def _short(v, have, s):
    return BackendFailure(
        f"no full decomposition exists: vertex {v} has {have} of {2 * s} "
        "edges or a path system of the wrong degree")


def _late(level):
    return WallClockExceeded(
        f"closure: wall-clock safety net passed at split level {level}; "
        "the result is not reproducible")


def _no_vertices(n):
    return BadParams(f"split and switch on {n} vertices")


def _bad_vertex(n, a):
    return BadParams(f"vertex {a!r} of A is outside 0..{n - 1} or repeated")


def _bad_pool_edge(n, e):
    return BadParams(f"pool edge {e!r} is not (u, v), u < v, from A to its "
                     f"complement inside 0..{n - 1}")


def _bad_system_edge(n, i, e):
    return BadParams(f"edge {e!r} of path system {i} has an end outside "
                     f"0..{n - 1} or is a pool edge")


def _c_failure(status, a, b, n, A, pool, systems):
    """The error of ``hk_split_and_switch``'s status with its details
    ``a`` and ``b``, worded as ``pure_split_and_switch`` words it."""
    if status == 1:
        return _short(a, b, len(systems))
    if status == 2:
        return _stuck(a, b)
    if status == 3:
        return _late(a)
    if status == 4:
        return _no_vertices(n)
    if status == 5:
        return _bad_vertex(n, next(islice(A, a, None)))
    if status == 6:
        return _bad_pool_edge(n, next(islice(pool, a, None)))
    if status == 7:
        return _bad_system_edge(n, a, next(islice(systems[a], b, None)))
    return RuntimeError(f"split and switch: a factor is not 2-regular ({status})")


def _check_input(n, A, pool, systems) -> None:
    """Raise the ``BadParams`` of ``split_and_switch`` for the first vertex
    or edge it names."""
    if n < 1:
        raise _no_vertices(n)
    in_a = bytearray(n)
    for a in A:
        if not 0 <= a < n or in_a[a]:
            raise _bad_vertex(n, a)
        in_a[a] = 1
    for e in pool:
        u, v = e
        if not 0 <= u < v < n or in_a[u] == in_a[v]:
            raise _bad_pool_edge(n, e)
    for i, q in enumerate(systems):
        for e in q:
            u, v = e
            if not (0 <= u < n and 0 <= v < n) or (
                    (u, v) if u < v else (v, u)) in pool:
                raise _bad_system_edge(n, i, e)


def _level_needs(n: int, pool, systems) -> list[dict]:
    """For each path system Q_i, the pool degree its 2-factor must add at
    each vertex, 2 - deg_Q_i; raises ``BackendFailure`` when no
    decomposition can exist: some vertex is short of 2s edges in the pool
    plus the systems, or sits outside the pool with Q_i short of two."""
    pool_deg = [0] * n
    for u, v in pool:
        pool_deg[u] += 1
        pool_deg[v] += 1
    needs = []
    for q in systems:
        deg = [0] * n
        for u, v in q:
            deg[u] += 1
            deg[v] += 1
        needs.append(deg)
    s = len(systems)
    for v in range(n):
        have = pool_deg[v] + sum(deg[v] for deg in needs)
        if have != 2 * s or any(
                deg[v] > 2 or not pool_deg[v] and deg[v] != 2 for deg in needs):
            raise _short(v, have, s)
    return [{v: 2 - deg[v] for v in range(n) if pool_deg[v]} for deg in needs]


def _split_levels(n, A, pool, systems, needs, rng, deadline):
    """The 2-factors F_i = Q_i + X_i as neighbour lists (``nbrs[i][v]``),
    X_i taken from the pool by ``degree_split`` under left and candidate
    orders shuffled by ``rng``, the last level taking the rest; None when
    some level has no split."""
    left = list(A)
    rng.shuffle(left)
    avail = {a: [] for a in A}
    for u, v in sorted(pool):
        a, b = (u, v) if u in avail else (v, u)
        avail[a].append(b)
    for a in left:
        rng.shuffle(avail[a])
    # the levels at which each vertex still takes pool edges, as bits
    takes = [0] * n
    for i, need in enumerate(needs):
        for v, t in need.items():
            if t:
                takes[v] |= 1 << i
    factors = []
    for i, q in enumerate(systems):
        if time.monotonic() > deadline:
            raise _late(i)
        if i + 1 < len(systems):
            later = (1 << len(systems)) - (1 << (i + 1))
            # an edge that fewer later levels could take goes first; the
            # sort is stable, so ties keep the shuffled order.  A vertex
            # that takes every later level ranks by one table per level,
            # and one that takes none keeps its order (every key is 0)
            rest = [(t & later).bit_count() for t in takes]
            cands = {}
            for a in left:
                ma = takes[a] & later
                if ma == later:
                    cands[a] = sorted(avail[a], key=rest.__getitem__)
                elif ma:
                    cands[a] = sorted(avail[a], key=lambda b, ma=ma:
                                      (ma & takes[b]).bit_count())
                else:
                    cands[a] = avail[a]
            try:
                pairs = degree_split(left, cands, needs[i])
            except MatchingFailure:
                return None
            taken = set(pairs)
            for a in left:
                avail[a] = [b for b in avail[a] if (a, b) not in taken]
        else:
            pairs = [(a, b) for a in left for b in avail[a]]
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in chain(q, pairs):
            nbrs[u].append(v)
            nbrs[v].append(u)
        factors.append(nbrs)
    return factors


def _cycles_of(nbrs):
    """The cycles of a 2-regular graph given as neighbour lists: (the cycle
    index of each vertex, its position along its cycle, the cycle
    lengths)."""
    n = len(nbrs)
    which, pos, lengths = [-1] * n, [0] * n, []
    for start in range(n):
        if which[start] >= 0:
            continue
        k, steps = len(lengths), 0
        prev, cur = nbrs[start][1], start
        while True:
            which[cur], pos[cur] = k, steps
            steps += 1
            a, b = nbrs[cur]
            prev, cur = cur, a if b == prev else b
            if cur == start:
                break
        lengths.append(steps)
    return which, pos, lengths


def _find_swap(fx, factors, cyc, owner, pool_nbrs, order):
    """A switch that joins two cycles of factor ``fx``: (x, y, c, d, fy)
    with xy and cd in factor fy, yc and dx in fx, none of them on a path
    system, x and y on different cycles of fx and fy not gaining a cycle;
    None when there is none.  A switch is also the switch (c, d, x, y), so
    y is only taken off the longest cycle of fx."""
    nx = factors[fx]
    wx, _, lx = cyc[fx]
    longest = lx.index(max(lx))
    for y in order:
        cy = wx[y]
        if cy == longest:
            continue
        for c in nx[y]:
            if (y, c) not in owner:
                continue
            for x in pool_nbrs[y]:
                if wx[x] == cy:
                    continue
                fy = owner[y, x]
                wy, py, ly = cyc[fy]
                for d in nx[x]:
                    if owner.get((c, d)) != fy or (d, x) not in owner:
                        continue
                    k = wy[x]
                    if k != wy[c]:
                        return x, y, c, d, fy
                    # one cycle of fy holds xy and cd: the switch keeps it
                    # whole when the cycle runs x -> y and d -> c (or back)
                    size = ly[k]
                    if ((py[y] - py[x]) % size == 1) != (
                            (py[d] - py[c]) % size == 1):
                        return x, y, c, d, fy
    return None


def _switch(factors, cyc, owner, fx, move) -> None:
    """Make the switch ``move`` of ``_find_swap`` on factor ``fx``: xy and
    cd go to fx, yc and dx to fy, and both factors' cycles are relabelled."""
    x, y, c, d, fy = move
    nx, ny = factors[fx], factors[fy]
    for nbrs, a, old, new in ((nx, y, c, x), (nx, c, y, d),
                              (nx, x, d, y), (nx, d, x, c),
                              (ny, x, y, d), (ny, y, x, c),
                              (ny, c, d, y), (ny, d, c, x)):
        nbrs[a][nbrs[a].index(old)] = new
    for a, b, f in ((x, y, fx), (c, d, fx), (y, c, fy), (d, x, fy)):
        owner[a, b] = owner[b, a] = f
    cyc[fx] = _cycles_of(nx)
    cyc[fy] = _cycles_of(ny)


def _repair(factors, pool, rng):
    """Switch until every factor is one Hamilton cycle: (the cycles as
    vertex lists, the switches made), or (None, the switches made) when no
    factor with two or more cycles has a switch left."""
    n = len(factors[0])
    # each pool edge, both ways round, to the factor holding it
    owner = {}
    pool_nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, nbrs in enumerate(factors):
        for v in range(n):
            for u in nbrs[v]:
                if ((u, v) if u < v else (v, u)) in pool:
                    owner[v, u] = i
                    pool_nbrs[v].append(u)
    order = list(range(n))
    rng.shuffle(order)
    for nb in pool_nbrs:
        rng.shuffle(nb)
    cyc = [_cycles_of(nbrs) for nbrs in factors]
    swaps = 0
    while True:
        broken = [i for i in range(len(factors)) if len(cyc[i][2]) > 1]
        if not broken:
            break
        for fx in broken:
            move = _find_swap(fx, factors, cyc, owner, pool_nbrs, order)
            if move is not None:
                break
        else:
            return None, swaps
        _switch(factors, cyc, owner, fx, move)
        swaps += 1
    cycles = []
    for nbrs in factors:
        walk, prev, cur = [0], 0, nbrs[0][0]
        while cur:
            walk.append(cur)
            a, b = nbrs[cur]
            prev, cur = cur, a if b == prev else b
        cycles.append(walk)
    return cycles, swaps
