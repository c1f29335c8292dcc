"""The robust-decomposition contract and its closure backend.

The paper closes its decomposition with the robust decomposition lemma of
Kühn and Osthus: around a chord absorber and a parity switcher, any sparse
regular remainder plus the absorbers splits into Hamilton cycles, each
containing one prescribed path system.  Here the lemma is a contract whose
arithmetic (``RobustParams``) is checked exactly and whose conclusion
(``RobustDecomposition.closure``) is discharged by a node-budgeted search
at desk scale.  The module is named for the lemma's bi-universal walks,
which the search does not need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

from .beps import BalancedFactor
from .errors import (
    BackendFailure,
    BackendUnavailable,
    PreconditionViolated,
    Timeout,
    WallClockExceeded,
)
from .graphs import Graph, LabelledPartition, OrientedGraph, norm_edge
from .matchings import kuhn_matching
from .search import CycleSearch, Prescribed, SearchStats
from .solvers import check_limits, luby, peel_cycles
from .validate import check_decomposition, cycle_edges

# the node budget of the closure's first restart; restart t gets
# RESTART_UNIT * luby(t + 1).  It holds a whole good descent (seed 1's
# closure on K(28,28) takes 76 546 nodes); of 2, 3.2 and 6.4 level units,
# the middle one spent the fewest nodes over K(28,28) to K(56,56)
RESTART_UNIT = 262_144


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

    Builds the two regular absorber graphs by peeling perfect matchings from
    the scheme, and discharges the closure (decomposing the absorbers plus a
    sparse regular remainder into Hamilton cycles, one prescribed path
    system each) by backtracking search.
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
        self.warnings = params.divisibility_report()
        self.ca: Graph | None = None
        self.pca: Graph | None = None
        self._bf: list[BalancedFactor] = []
        self._bf_prime: list[BalancedFactor] = []

    def _peel_matchings(self, avail: Graph, count: int, what: str) -> Graph:
        """``count`` perfect matchings of A into B, taken one after another
        from what the earlier ones left of ``avail``; their union."""
        A = sorted(self.part.A)
        B = frozenset(self.part.B)
        nbrs = {a: set(avail.adj[a] & B) for a in A}
        chosen: set = set()
        for t in range(count):
            # sorted, each list is in the order of B
            match = kuhn_matching(A, {a: sorted(nbrs[a]) for a in A})
            if match is None:
                raise BackendFailure(
                    f"{what}: no perfect matching at layer {t + 1}/{count}"
                )
            edges = {norm_edge(a, b) for a, b in match.items()}
            chosen |= edges
            for a, b in match.items():
                nbrs[a].discard(b)
        return Graph(avail.n, chosen)

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
        self.ca = self._peel_matchings(
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
        self.pca = self._peel_matchings(
            avail, 10 * self.params.r_diamond, "parity switcher"
        )
        return self.pca

    def closure(
        self,
        h: Graph,
        max_nodes: int = 20_000_000,
        max_seconds: float = 300.0,
        seed: int = 0,
    ) -> list[list[int]]:
        """Decompose h + absorbers + factors into s' Hamilton cycles, each
        containing one of the s' path systems of the factors.

        Runs as globally-restarted backtracking: early cycle choices can
        poison the deep levels beyond repair, so a descent that spends its
        nodes is abandoned and the search restarts with reshuffled orders.
        Restart t is one ``peel_cycles`` descent capped at ``RESTART_UNIT *
        luby(t + 1)`` nodes and at what is left of ``max_nodes``; within it
        each level restarts its item orders on the engine's own schedule.
        Order k of restart t searches under seed ``seed + 131 * t + k``,
        distinct because a level opens at most 92 orders in 20 M nodes.
        Only spending ``max_nodes`` raises ``Timeout``, whose text names the
        restarts run.  ``max_seconds`` is only the wall-clock safety net
        over all restarts; a budget that is not positive, or a wall clock
        that is not finite, raises ``BadParams``.

        Once s' - 1 cycles are taken, the last one has no choice left: it
        is the pool left plus the last path system's edges, or nothing.
        That level is decided by one walk (``_closes``) and spends no
        kernel nodes; only when the walk closes does the kernel run, to
        report the cycle from the same start and in the same direction as
        a search would.
        """
        check_limits(max_nodes, max_seconds)
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
        if total != s_prime * self.part.n or len(target) != total:
            raise BackendFailure(
                f"edge budget {total} != s' * n = {s_prime * self.part.n} "
                "or path systems overlapping"
            )
        prescribed = [[Prescribed(p) for p in b.paths] for b in all_beps]
        n = self.part.n
        deadline = time.monotonic() + max_seconds
        spent = t = 0
        while spent < max_nodes:
            def search(i, pool_left, order, cap, base=seed + 131 * t):
                if i == s_prime - 1 and not _closes(n, pool_left,
                                                    beps_edges[i]):
                    # proven infeasible, in no nodes
                    return iter(()), SearchStats(max_nodes=cap)
                found = CycleSearch(Graph._trusted(n, pool_left),
                                    prescribed[i], max_nodes=cap,
                                    seed=base + order)
                return ((c, cycle_edges(c) - beps_edges[i])
                        for c in found.cycles()), found.stats

            share = min(RESTART_UNIT * luby(t + 1), max_nodes - spent)
            try:
                peel = peel_cycles(search, pool, s_prime, share,
                                   deadline=deadline)
                break
            except WallClockExceeded:
                raise
            except Timeout as exc:
                spent += exc.stats["nodes"]
                t += 1
                last = str(exc)  # the text only: the exception holds this frame
        else:
            raise Timeout(f"closure: {t} restarts spent {spent} nodes, "
                          f"the last: {last}",
                          stats={"nodes": spent, "restarts": t})
        if peel.cycles is None:
            raise BackendFailure("no full decomposition exists")
        cycles = [cycle_edges(c) for c in peel.cycles]
        problems = check_decomposition(Graph(self.part.n, target), cycles)
        if problems:
            raise AssertionError(problems[0])
        return peel.cycles


def _closes(n: int, pool, path_edges) -> bool:
    """Whether the edges of ``pool`` and ``path_edges`` together form one
    cycle through all of 0..n-1: exactly n edges, every vertex of degree
    2, and the walk from vertex 0 meets all n before it returns."""
    if n < 3 or len(pool) + len(path_edges) != n:
        return False
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in chain(pool, path_edges):
        nbrs[u].append(v)
        nbrs[v].append(u)
    if set(map(len, nbrs)) != {2}:
        return False
    prev, cur, steps = 0, nbrs[0][0], 1
    while cur:
        a, b = nbrs[cur]
        prev, cur = cur, a if b == prev else b
        steps += 1
    return steps == n
