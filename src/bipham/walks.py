"""Chord sequences, bi-universal walks, bi-setups, and the robust
decomposition contract.

A bi-universal walk is a closed walk on the cluster cycle whose edge set
splits into two parity classes, each entering and leaving every cluster the
same number of times; it is the balancing device that lets a sparse regular
remainder be absorbed into Hamilton cycles.  The decomposition result that
consumes these structures is imported machinery; here it is exposed as a
contract whose arithmetic is checked exactly and whose conclusion is
discharged by an explicit search backend at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain

from .balance import frac
from .beps import BalancedFactor
from .errors import (
    BackendFailure,
    BackendUnavailable,
    BadParams,
    BiphamError,
    PreconditionViolated,
    Timeout,
    WallClockExceeded,
)
from .graphs import Digraph, Graph, LabelledPartition, OrientedGraph, norm_edge
from .matchings import kuhn_matching
from .partitioning import uniform_refinement
from .search import CycleSearch, Prescribed, SearchStats
from .solvers import luby, peel_cycles
from .validate import check_decomposition, cycle_edges

# the node budget of the closure's first restart; restart t gets
# RESTART_UNIT * luby(t + 1).  It holds a whole good descent (seed 1's
# closure on K(28,28) takes 76 546 nodes); of 2, 3.2 and 6.4 level units,
# the middle one spent the fewest nodes over K(28,28) to K(56,56)
RESTART_UNIT = 262_144


class NoSequence(BiphamError):
    """No chord sequence links the requested clusters."""


# -- chord sequences ----------------------------------------------------------

def chord_sequence(
    r: Digraph, cycle: list[int], i: int, j: int
) -> list[tuple[int, int]]:
    """Shortest chord sequence from cluster i to cluster j: a sequence of
    arcs, each from the cycle-predecessor of the current cluster to the next
    current cluster, containing no cycle edges.  Indices refer to positions
    on ``cycle``; the empty sequence is returned for i == j."""
    k = len(cycle)
    if i == j:
        return []
    pred = {cycle[p]: cycle[(p - 1) % k] for p in range(k)}
    succ = {cycle[p]: cycle[(p + 1) % k] for p in range(k)}
    start, goal = cycle[i], cycle[j]
    seen = {start}
    frontier = [(start, [])]
    while frontier:
        nxt = []
        for cur, seq in frontier:
            tail = pred[cur]
            for head in sorted(r.out[tail]):
                if head == succ[tail]:
                    continue  # cycle edge
                if head in seen:
                    continue
                seq2 = seq + [(tail, head)]
                if head == goal:
                    return seq2
                seen.add(head)
                nxt.append((head, seq2))
        frontier = nxt
    raise NoSequence(f"no chord sequence from position {i} to {j}")


# -- bi-universal walks -------------------------------------------------------

@dataclass(frozen=True)
class WalkEdge:
    ident: int
    arc: tuple[int, int]
    kind: str  # 'cycle' or 'chord'
    label: tuple  # ('copy', c) or ('ecs', i)


@dataclass
class BiUniversalWalk:
    cycle: list[int]  # cluster ids in cycle order
    ell_prime: int
    order: list[int]  # walk as a sequence of edge idents
    edges: dict[int, WalkEdge]
    even: frozenset[int]  # idents in the even class
    ecs: dict[int, list[int]]  # position i -> idents of its chord sequence

    def as_json(self):
        return {
            "cycle": self.cycle,
            "ell_prime": self.ell_prime,
            "order": [list(self.edges[i].arc) for i in self.order],
            "even": sorted(
                self.order.index(i) for i in self.even if i in self.order
            ),
        }


def build_biuniversal_walk(
    r: Digraph, cycle: list[int], ell_prime: int
) -> BiUniversalWalk:
    """Order ell'-1 copies of the cycle edges plus one short chord per
    cluster into a closed walk with an exact parity split.

    The multiset minus one cycle copy is (ell'-1)-regular and is decomposed
    into 1-factors; the walk traverses, at each cluster in cycle order, all
    not-yet-traversed factor cycles through it, then steps along the
    reserved cycle copy.
    """
    k = len(cycle)
    if k < 4 or k % 2:
        raise PreconditionViolated(f"cluster count {k} must be even and >= 4")
    if ell_prime < 4 or ell_prime % 2:
        raise PreconditionViolated(f"parameter {ell_prime} must be even and >= 4")
    chords = {}
    for p in range(k):
        arc = (cycle[(p - 1) % k], cycle[(p + 2) % k])
        if arc not in r.arcs:
            raise PreconditionViolated(f"required chord {arc} missing")
        chords[p] = arc

    edges: dict[int, WalkEdge] = {}
    ident = 0

    def add(arc, kind, label):
        nonlocal ident
        edges[ident] = WalkEdge(ident, arc, kind, label)
        ident += 1
        return ident - 1

    # copies 0..ell'-2 enter the regular multidigraph; copy ell'-1 stitches
    factor_pool: list[int] = []
    for c in range(ell_prime - 2):
        for p in range(k):
            factor_pool.append(add((cycle[p], cycle[(p + 1) % k]), "cycle", ("copy", c)))
    ecs = {}
    for p in range(k):
        e = add(chords[p], "chord", ("ecs", p))
        ecs[p] = [e]
        factor_pool.append(e)
    stitch = [
        add((cycle[p], cycle[(p + 1) % k]), "cycle", ("copy", ell_prime - 2))
        for p in range(k)
    ]

    factors = _one_factorization(factor_pool, edges, k)

    # stitch the walk
    traversed: set[int] = set()
    order: list[int] = []
    for p in range(k):
        v = cycle[p]
        for factor in factors:
            cyc = _factor_cycle_through(factor, edges, v)
            if cyc is None or cyc[0] in traversed:
                continue
            order.extend(cyc)
            traversed.update(cyc)
        order.append(stitch[p])
    if len(order) != len(edges):
        raise AssertionError("walk does not traverse every edge instance")

    # parity split: chords of even positions + even stitch edges + half the
    # whole copies form the even class
    even: set[int] = set()
    for p in range(k):
        if p % 2 == 0:
            even.add(ecs[p][0])
            even.add(stitch[p])
    for e in edges.values():
        if e.kind == "cycle" and e.label[1] < (ell_prime - 2) // 2:
            even.add(e.ident)
    walk = BiUniversalWalk(list(cycle), ell_prime, order, edges, frozenset(even), ecs)
    problems = check_biuniversal(walk)
    if problems:
        raise AssertionError(problems[0])
    return walk


def _one_factorization(pool: list[int], edges, k: int) -> list[list[int]]:
    """Split a regular multidigraph (given as edge instances) into
    1-factors by repeated perfect matchings tail -> head, each pair matched
    through its lowest remaining edge ident."""
    remaining = list(pool)
    factors = []
    degree = len(pool) // k
    for _ in range(degree):
        lowest: dict[tuple, int] = {}
        for e in sorted(remaining):
            lowest.setdefault(edges[e].arc, e)
        tails = sorted({tail for tail, _ in lowest})
        heads = sorted({head for _, head in lowest})
        match = kuhn_matching(tails, heads, lambda t, h: (t, h) in lowest)
        if match is None:
            raise AssertionError("regular multidigraph had no 1-factor")
        chosen = sorted(lowest[arc] for arc in match.items())
        factors.append(chosen)
        remaining = [e for e in remaining if e not in set(chosen)]
    return factors


def _factor_cycle_through(factor: list[int], edges, v) -> list[int] | None:
    nxt = {edges[e].arc[0]: e for e in factor}
    if v not in nxt:
        return None
    out = []
    cur = v
    while True:
        e = nxt[cur]
        out.append(e)
        cur = edges[e].arc[1]
        if cur == v:
            return out


def check_biuniversal(walk: BiUniversalWalk) -> list[str]:
    """Independent checker: closed-walk property, the cover/partition
    condition, chord-sequence sizes, and exact parity counts."""
    problems = []
    k = len(walk.cycle)
    ell = walk.ell_prime
    # closed walk
    for t in range(len(walk.order)):
        head = walk.edges[walk.order[t]].arc[1]
        tail_next = walk.edges[walk.order[(t + 1) % len(walk.order)]].arc[0]
        if head != tail_next:
            problems.append(f"walk breaks between steps {t} and {t + 1}")
            break
    if len(set(walk.order)) != len(walk.order):
        problems.append("walk repeats an edge instance")
    # composition: exactly ell'-1 copies of each cycle edge plus each chord
    from collections import Counter

    arcs = Counter(walk.edges[i].arc for i in walk.order)
    expect: Counter = Counter()
    for p in range(k):
        expect[(walk.cycle[p], walk.cycle[(p + 1) % k])] += ell - 1
        expect[(walk.cycle[(p - 1) % k], walk.cycle[(p + 2) % k])] += 1
    if arcs != expect:
        problems.append(
            f"walk multiset differs from ell'-1 cycle copies plus chords: "
            f"{sorted((arcs - expect).items()) + sorted((expect - arcs).items())}"
        )
    # ECS bookkeeping and parity classes partition the instances
    ecs_ids = {i for ids in walk.ecs.values() for i in ids}
    for p, ids in walk.ecs.items():
        if len(ids) > (ell ** 0.5) / 2:
            problems.append(f"chord sequence at position {p} too long")
        for i in ids:
            if walk.edges[i].kind != "chord":
                problems.append(f"chord sequence at {p} uses a cycle edge")
    for i in walk.order:
        e = walk.edges[i]
        if e.kind == "chord" and i not in ecs_ids:
            problems.append(f"chord instance {i} not assigned to a sequence")
    odd = set(walk.order) - set(walk.even)
    for cls_name, cls in (("even", set(walk.even)), ("odd", odd)):
        for v in walk.cycle:
            enters = sum(1 for i in cls if walk.edges[i].arc[1] == v)
            leaves = sum(1 for i in cls if walk.edges[i].arc[0] == v)
            if enters != ell // 2 or leaves != ell // 2:
                problems.append(
                    f"{cls_name} class enters/leaves {v}: {enters}/{leaves} "
                    f"!= {ell // 2}"
                )
    return problems


# -- bi-setups ----------------------------------------------------------------

@dataclass
class BiSetup:
    clusters: list[list[int]]  # 2K clusters in cycle order
    refined: list[list[list[int]]]  # ell' subclusters per cluster
    walk: BiUniversalWalk
    refined_walk: list[tuple[int, int]]  # (cluster position, visit index)
    checks: dict[str, str] = field(default_factory=dict)


def assemble_bisetup(
    gdir: OrientedGraph,
    part: LabelledPartition,
    ell_prime: int,
    eps,
    seed: int = 0,
    exhaustive_limit: int = 12,
    check_pairs: bool = True,
) -> BiSetup:
    """The alternating cluster cycle A1 B1 ... AK BK with the complete
    bipartite cluster digraph, a parity walk, and a uniform refinement
    (``partitioning.uniform_refinement``, which raises RetryBudgetExceeded
    when no attempt verifies); each condition is verified at desk scale and
    recorded."""
    from .regularity import check_regular_pair

    eps = frac(eps)
    K = part.K
    m = part.m
    if ell_prime < 4 or ell_prime % 2:
        raise PreconditionViolated("walk parameter must be even and >= 4")
    if m % ell_prime:
        raise PreconditionViolated(
            f"subcluster size m/ell' = {m}/{ell_prime} not integral"
        )
    clusters = []
    for i in range(K):
        clusters.append(list(part.clusters_A[i]))
        clusters.append(list(part.clusters_B[i]))
    k2 = 2 * K
    cyc = list(range(k2))
    r_arcs = []
    for p in range(k2):
        for p2 in range(k2):
            if p % 2 != p2 % 2:
                r_arcs.append((p, p2))
    r_bi = Digraph(k2, r_arcs)
    walk = build_biuniversal_walk(r_bi, cyc, ell_prime)

    cert = uniform_refinement(gdir, part, ell_prime, eps, seed)
    refined = []
    for parts_a, parts_b in zip(cert.child.refined_A, cert.child.refined_B):
        refined.append([list(p) for p in parts_a])
        refined.append([list(p) for p in parts_b])
    checks = {"refinement": f"max relative deviation {cert.max_relative_deviation}"}

    # visit bookkeeping: a-th visit to cluster position p uses subcluster a
    visit_count = {p: 0 for p in range(k2)}
    refined_walk = []
    for ident in walk.order:
        head = walk.edges[ident].arc[1]
        refined_walk.append((head, visit_count[head]))
        visit_count[head] += 1
    if any(c != ell_prime for c in visit_count.values()):
        checks["walk-visits"] = f"visit counts {sorted(set(visit_count.values()))}"
    else:
        checks["walk-visits"] = "every cluster visited exactly ell' times"

    if check_pairs:
        half = Fraction(1, 2)
        bad = 0
        for t in range(len(refined_walk)):
            p_from, a_from = refined_walk[t - 1] if t else refined_walk[-1]
            p_to, a_to = refined_walk[t]
            left = refined[p_from][a_from]
            right = refined[p_to][a_to]
            pair = Graph(
                gdir.n,
                [(x, y) for x, y in gdir.arcs if x in set(left) and y in set(right)],
            )
            rep = check_regular_pair(
                pair, left, right, eps, d=half, exhaustive_limit=exhaustive_limit
            )
            if not rep.is_superregular:
                bad += 1
        checks["walk-pairs"] = (
            "all refined walk pairs superregular" if bad == 0 else f"{bad} pairs fail"
        )
        # consecutive cycle pairs
        bad_c = 0
        for p in range(k2):
            left = clusters[p]
            right = clusters[(p + 1) % k2]
            pair = Graph(
                gdir.n,
                [(x, y) for x, y in gdir.arcs if x in set(left) and y in set(right)],
            )
            rep = check_regular_pair(
                pair, left, right, eps, d=half, exhaustive_limit=exhaustive_limit
            )
            if not rep.is_superregular:
                bad_c += 1
        checks["cycle-pairs"] = (
            "all cycle pairs superregular" if bad_c == 0 else f"{bad_c} pairs fail"
        )
    return BiSetup(clusters, refined, walk, refined_walk, checks)


# -- the robust decomposition contract ----------------------------------------

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


def verify_robust_params(
    params: RobustParams, r2: int, r3: int, r_diamond: int, s_prime: int
) -> None:
    """The four derived-parameter identities, checked exactly."""
    if r2 != params.r2:
        raise PreconditionViolated(f"r2 = {r2} != {params.r2}")
    if r3 != params.r3:
        raise PreconditionViolated(f"r3 = {r3} != {params.r3}")
    if r_diamond != params.r_diamond:
        raise PreconditionViolated(f"r_diamond = {r_diamond} != {params.r_diamond}")
    if s_prime != params.s_prime:
        raise PreconditionViolated(f"s' = {s_prime} != {params.s_prime}")


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
        A = sorted(self.part.A)
        B = sorted(self.part.B)
        chosen: set = set()
        cur = avail
        for t in range(count):
            adj = cur.adj
            match = kuhn_matching(A, B, lambda a, b: b in adj[a])
            if match is None:
                raise BackendFailure(
                    f"{what}: no perfect matching at layer {t + 1}/{count}"
                )
            edges = {norm_edge(a, b) for a, b in match.items()}
            chosen |= edges
            cur = cur.minus_edges(edges)
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
        avail = Graph(self.gdir.n, self.gdir.underlying().edges - used)
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
        avail = Graph(self.gdir.n, self.gdir.underlying().edges - used)
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
        over all restarts; a budget that is not positive raises
        ``BadParams``.

        Once s' - 1 cycles are taken, the last one has no choice left: it
        is the pool left plus the last path system's edges, or nothing.
        That level is decided by one walk (``_closes``) and spends no
        kernel nodes; only when the walk closes does the kernel run, to
        report the cycle from the same start and in the same direction as
        a search would.
        """
        if max_nodes <= 0 or max_seconds <= 0:
            raise BadParams("budget limits must be positive")
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


@dataclass
class RobustResult:
    chord_absorber: Graph
    parity_switcher: Graph
    closure: object  # callable: 2r-regular bipartite remainder -> cycles
    warnings: list[str]


def robust_decomposition(
    gdir: OrientedGraph,
    part: LabelledPartition,
    bf_family: list[BalancedFactor],
    bf_prime_family: list[BalancedFactor],
    params: RobustParams,
    max_nodes: int = 20_000_000,
    max_seconds: float = 300.0,
    seed: int = 0,
) -> RobustResult:
    """The robust-decomposition contract in one call: build both absorber
    graphs around the supplied factor families and hand back the closure.

    The closure, applied to any 2r-regular bipartite graph on the inner
    vertices that is edge-disjoint from everything built here, returns s'
    edge-disjoint Hamilton cycles, each containing one of the factors' path
    systems and together covering every edge involved.
    """
    rd = RobustDecomposition(gdir, part, params)
    rd.build_chord_absorber(bf_family, extra_avoid=bf_prime_family)
    rd.build_parity_switcher(bf_prime_family)

    closure = partial(rd.closure, max_nodes=max_nodes, max_seconds=max_seconds,
                      seed=seed)
    return RobustResult(rd.ca, rd.pca, closure, rd.warnings)
