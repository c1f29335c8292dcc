"""The robust-decomposition contract and its closure backend.

The paper closes its decomposition with the robust decomposition lemma of
Kühn and Osthus: around a chord absorber and a parity switcher, any sparse
regular remainder plus the absorbers splits into Hamilton cycles, each
containing one prescribed path system.  Here the lemma is a contract whose
arithmetic (``RobustParams``) is checked exactly and whose conclusion
(``RobustDecomposition.closure``) is discharged at desk scale by a split
into 2-factors, one per path system, repaired by switches along
alternating 4-cycles until each factor is a Hamilton cycle.  The module is
named for the lemma's bi-universal walks, which the closure does not need.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import chain

from .beps import BalancedFactor
from .errors import (
    BackendFailure,
    BackendUnavailable,
    MatchingFailure,
    PreconditionViolated,
    WallClockExceeded,
)
from .generators import bipartite_degree_factor
from .graphs import Graph, LabelledPartition, OrientedGraph
from .matchings import degree_split
from .solvers import check_wall_clock
from .validate import check_decomposition, cycle_edges

# the closure's split-and-repair attempts: attempt k splits and repairs
# under seed ``seed + k``, and the closure fails once all are stuck.  Under
# the desk constants, K(28,28) to K(98,98) at seeds 1-10 took at most 22
CLOSURE_ATTEMPTS = 64


@dataclass(frozen=True)
class RobustParams:
    r: int
    r1: int
    g: int
    f: int
    L: int
    ell_prime: int
    K: int
    m: int

    @property
    def r2(self) -> int:
        return 192 * self.ell_prime * self.g * self.g * self.K * self.r

    @property
    def r3(self) -> int:
        num = 2 * self.r * self.K
        if num % self.L:
            raise PreconditionViolated("r3 = 2rK/L not integral")
        return num // self.L

    @property
    def r_diamond(self) -> int:
        return self.r1 + self.r2 + self.r - (self.L * self.f - 1) * self.r3

    @property
    def s_prime(self) -> int:
        return 2 * self.r * self.f * self.K + 7 * self.r_diamond

    def divisibility_report(self) -> list[str]:
        out = []
        checks = [
            ("K/7", self.K % 7 == 0),
            ("K/f", self.K % self.f == 0),
            ("K/g", self.K % self.g == 0),
            ("m/4ell'", self.m % (4 * self.ell_prime) == 0),
            ("m/L", self.m % self.L == 0),
        ]
        denom = 3 * self.g * (self.g - 1)
        checks.append(
            ("4fK/3g(g-1)", denom > 0 and (4 * self.f * self.K) % denom == 0)
        )
        checks.append(("4rK^2<=m", 4 * self.r * self.K * self.K <= self.m))
        for name, ok in checks:
            if not ok:
                out.append(f"divisibility {name} fails")
        return out


class RobustDecomposition:
    """Desk-scale backend for the robust decomposition contract.

    Builds the two regular absorber graphs as regular splits of what the
    scheme leaves, and discharges the closure (decomposing the absorbers
    plus a sparse regular remainder into Hamilton cycles, one prescribed
    path system each) by a 2-factor split and switches.
    """

    def __init__(
        self,
        gdir: OrientedGraph,
        part: LabelledPartition,
        params: RobustParams,
    ):
        self.gdir = gdir
        self.part = part
        self.params = params
        self.ca: Graph | None = None
        self.pca: Graph | None = None
        self._bf: list[BalancedFactor] = []
        self._bf_prime: list[BalancedFactor] = []
        # the last closure's split attempts and switches
        self.split_attempts = 0
        self.swaps = 0

    def _regular_split(self, avail: Graph, count: int, what: str) -> Graph:
        """A ``count``-regular spanning subgraph of the A-B edges of
        ``avail``; by König's theorem, a union of ``count`` perfect
        matchings of A into B."""
        A, B = self.part.A, self.part.B
        try:
            return bipartite_degree_factor(
                avail, dict.fromkeys(chain(A, B), count), (A, B))
        except MatchingFailure as exc:
            raise BackendFailure(
                f"{what}: no {count}-regular split ({exc})"
            ) from None

    def build_chord_absorber(
        self,
        bf_family: list[BalancedFactor],
        extra_avoid: list[BalancedFactor] = (),
    ) -> Graph:
        self._bf = list(bf_family)
        if len(bf_family) != self.params.r3:
            raise PreconditionViolated(
                f"{len(bf_family)} factors supplied, r3 = {self.params.r3}"
            )
        used = set()
        for bf in list(bf_family) + list(extra_avoid):
            for e in bf.edge_multiset():
                used.add(e)
        avail = Graph._trusted(self.gdir.n, self.gdir.underlying().edges - used)
        self.ca = self._regular_split(
            avail, 2 * (self.params.r1 + self.params.r2), "chord absorber"
        )
        return self.ca

    def build_parity_switcher(self, bf_prime: list[BalancedFactor]) -> Graph:
        if self.ca is None:
            raise BackendUnavailable("chord absorber not built yet")
        self._bf_prime = list(bf_prime)
        if len(bf_prime) != self.params.r_diamond:
            raise PreconditionViolated(
                f"{len(bf_prime)} factors supplied, r_diamond = "
                f"{self.params.r_diamond}"
            )
        used = set(self.ca.edges)
        for bf in self._bf + self._bf_prime:
            used |= set(bf.edge_multiset())
        avail = Graph._trusted(self.gdir.n, self.gdir.underlying().edges - used)
        self.pca = self._regular_split(
            avail, 10 * self.params.r_diamond, "parity switcher"
        )
        return self.pca

    def closure(
        self,
        h: Graph,
        max_seconds: float = 300.0,
        seed: int = 0,
    ) -> list[list[int]]:
        """Decompose h + absorbers + factors into s' Hamilton cycles, each
        containing one of the s' path systems of the factors.

        Cycle i is built as a 2-factor F_i that contains path system Q_i:
        level by level, ``degree_split`` takes from the pool (the A-B edges
        of h and the absorbers, which no path system shares) the edges that
        bring Q_i's degrees up to two everywhere, and the last level takes
        the rest.  Switches then repair the factors: an alternating 4-cycle
        x-y-c-d, with xy and cd in a factor F_Y and yc and dx in a factor
        F_X, none of them on a path system, x and y on different cycles of
        F_X, is swapped when F_Y keeps or loses a cycle by it.  Every degree
        and every path system stays in place, F_X loses a cycle, and the
        repair ends when each factor is one Hamilton cycle.  A split with
        no level left or a repair with no switch left is retried: attempt k
        shuffles the split and the switch orders under seed ``seed + k``.
        ``split_attempts`` and ``swaps`` then hold the attempts run and the
        switches they made; once ``CLOSURE_ATTEMPTS`` are stuck,
        ``BackendFailure`` names both counts.

        The closure runs no search, so it takes no node budget;
        ``max_seconds`` is the wall-clock safety net, read before each split
        level.  A wall clock that is not finite and positive raises
        ``BadParams``.
        """
        check_wall_clock(max_seconds)
        if self.ca is None or self.pca is None:
            raise BackendUnavailable("absorbers not built yet")
        all_beps = [b for bf in self._bf + self._bf_prime for b in bf.systems]
        s_prime = self.params.s_prime
        if len(all_beps) != s_prime:
            raise BackendFailure(
                f"{len(all_beps)} path systems vs s' = {s_prime}"
            )
        deg_check = 2 * self.params.r
        if h.edges and (not h.is_regular() or h.max_degree() != deg_check):
            raise PreconditionViolated(
                f"remainder must be {deg_check}-regular"
            )
        pool = frozenset(h.edges | self.ca.edges | self.pca.edges)
        beps_edges = [b.edge_set() for b in all_beps]
        target = pool.union(*beps_edges)
        total = len(pool) + sum(len(es) for es in beps_edges)
        # s' Hamilton cycles then take every pool edge exactly once
        n = self.part.n
        if total != s_prime * n or len(target) != total:
            raise BackendFailure(
                f"edge budget {total} != s' * n = {s_prime * n} "
                "or path systems overlapping"
            )
        cycles, self.split_attempts, self.swaps = _close(
            n, sorted(self.part.A), pool, beps_edges, seed,
            time.monotonic() + max_seconds,
        )
        problems = check_decomposition(Graph(n, target),
                                       [cycle_edges(c) for c in cycles])
        if problems:
            raise AssertionError(problems[0])
        return cycles


def _close(n, A, pool, systems, seed, deadline):
    """The closure's split and repair over the A-B edges ``pool``, one
    2-factor per path system of ``systems``: (the Hamilton cycles, the
    attempts run, the switches made), or ``BackendFailure`` once
    ``CLOSURE_ATTEMPTS`` are stuck.  Without systems (s' = 0) the edge
    budget has left the pool empty, and no cycle is due."""
    if not systems:
        return [], 0, 0
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
    raise BackendFailure(
        f"closure: {CLOSURE_ATTEMPTS} split attempts and {swaps} swaps left "
        "a factor that is not a Hamilton cycle"
    )


def _level_needs(n: int, pool, systems) -> list[dict]:
    """For each path system Q_i, the pool degree its 2-factor must add at
    each vertex, 2 - deg_Q_i; raises ``BackendFailure`` when no
    decomposition can exist: some vertex is short of 2s' edges in the pool
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
    s_prime = len(systems)
    for v in range(n):
        have = pool_deg[v] + sum(deg[v] for deg in needs)
        if have != 2 * s_prime or any(
                deg[v] > 2 or not pool_deg[v] and deg[v] != 2 for deg in needs):
            raise BackendFailure(
                f"no full decomposition exists: vertex {v} has {have} of "
                f"{2 * s_prime} edges or a path system of the wrong degree"
            )
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
            raise WallClockExceeded(
                f"closure: wall-clock safety net passed at split level {i}; "
                "the result is not reproducible")
        if i + 1 < len(systems):
            later = -1 << (i + 1)
            # an edge that fewer later levels could take goes first; the
            # sort is stable, so ties keep the shuffled order
            cands = {a: sorted(avail[a], key=lambda b, ma=takes[a] & later:
                               (ma & takes[b]).bit_count())
                     for a in left}
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
                if (min(u, v), max(u, v)) in pool:
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
