"""Search backends: Hamilton cycles with prescribed subgraphs, exhaustive
Hamilton decompositions, densest even-regular spanning subgraphs, and exact
chromatic index for regular graphs.

Two independent Hamilton-cycle code paths exist on purpose: the fast
port-constrained kernel (via ``bipham.search``) drives the pipeline
builders, while the plain recursive enumerator in this module acts as the
referee for decompositions.  They share no search code, so agreement between
them is meaningful evidence.

Failure is a first-class result here: searches return result objects whose
``cycle``/``cycles`` field is None when the space was exhausted, and raise
``Timeout`` only when a budget ran out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import networkx as nx

from .balance import frac
from .errors import BadParams, PreconditionViolated, Timeout
from .fictive import build_fictive, consistent_cycle_search, substitute
from .graphs import Graph, LabelledPartition, PathSystem
from .search import CycleSearch, Prescribed
from .validate import cycle_edges


@dataclass(frozen=True)
class SolverBudget:
    max_nodes: int = 2_000_000
    max_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_seconds <= 0:
            raise BadParams("budget limits must be positive")


@dataclass
class SolveResult:
    cycle: list[int] | None
    proven_infeasible: bool
    stats: dict = field(default_factory=dict)


@dataclass
class DecompositionResult:
    cycles: list[list[int]] | None
    matching: list[tuple[int, int]] | None
    proven_infeasible: bool
    stats: dict = field(default_factory=dict)


# -- Hamilton cycle containing a prescribed path system ----------------------

def bip_hamilton_with_prescribed(
    h: Graph,
    extra: Graph | None,
    q: PathSystem | None,
    budget: SolverBudget = SolverBudget(),
    portfolio: int = 4,
) -> SolveResult:
    """First Hamilton cycle containing all edges of ``q`` whose remaining
    edges come from ``h`` (plus ``extra`` when given).  The cycle must cover
    every vertex 0..n-1.

    A handful of item orders share the node budget: a single unlucky
    depth-first descent can churn for millions of nodes on instances another
    order solves instantly.  One fully exhausted search (no budget hit)
    already proves infeasibility.
    """
    allowed = h if extra is None else h.union(extra)
    prescribed = []
    if q is not None:
        allowed = Graph(max(allowed.n, q.n), allowed.edges)
        prescribed = [Prescribed(p) for p in q.paths]
    deadline = time.monotonic() + budget.max_seconds
    total_stats = {"nodes": 0, "candidates": 0, "rejected": 0}
    for i in range(max(portfolio, 1)):
        search = CycleSearch(
            allowed, prescribed,
            max_nodes=budget.max_nodes // max(portfolio, 1),
            seed=budget.seed + i,
        )
        for cycle in search.cycles():
            return SolveResult(cycle, False, _stats(search))
        for key, val in _stats(search).items():
            total_stats[key] += val
        if not search.stats.budget_exceeded:
            return SolveResult(None, True, total_stats)
        if time.monotonic() > deadline:
            break
    raise Timeout("prescribed-path Hamilton search budget exhausted",
                  stats=total_stats)


def _stats(search: CycleSearch) -> dict:
    return {
        "nodes": search.stats.nodes,
        "candidates": search.stats.candidates,
        "rejected": search.stats.rejected,
    }


# -- independent plain enumerator (referee) ----------------------------------

class _OracleEnum:
    """Recursive lexicographic Hamilton-cycle enumerator on adjacency sets.
    No ports, no contraction; used as the referee and for exhaustive
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

    Used as the referee for every decomposition the pipeline produces and
    as the desk backend for the robust-decomposition contract.
    """
    if not g.is_regular():
        raise PreconditionViolated("graph is not regular")
    deadline = time.monotonic() + budget.max_seconds
    nodes_used = [0]

    def peel(cur: Graph, acc: list[list[int]]):
        if time.monotonic() > deadline or nodes_used[0] > budget.max_nodes:
            raise Timeout("decomposition budget exhausted",
                          stats={"nodes": nodes_used[0]})
        degs = set(cur.degrees())
        if degs == {0}:
            return acc, None
        if degs == {1}:
            return acc, sorted(cur.edges)
        enum = _OracleEnum(cur, budget.max_nodes - nodes_used[0])
        for cycle in enum.cycles():
            nodes_used[0] += enum.nodes
            enum.nodes = 0
            res = peel(cur.minus_edges(cycle_edges(cycle)), acc + [cycle])
            if res is not None:
                return res
        nodes_used[0] += enum.nodes
        if enum.budget_exceeded:
            raise Timeout("decomposition budget exhausted",
                          stats={"nodes": nodes_used[0]})
        return None

    out = peel(g, [])
    if out is None:
        return DecompositionResult(None, None, True, {"nodes": nodes_used[0]})
    cycles, matching = out
    return DecompositionResult(cycles, matching, False, {"nodes": nodes_used[0]})


# -- even-regular spanning subgraphs -----------------------------------------

def _regular_subgraph(g: Graph, D: int) -> Graph | None:
    """A D-regular spanning subgraph of g, via the degree-gadget reduction
    to perfect matching (general matching by blossom)."""
    if D == 0:
        return Graph(g.n, [])
    if any(g.degree(v) < D for v in range(g.n)):
        return None
    if (g.n * D) % 2 != 0:
        return None
    gx = nx.Graph()
    edge_nodes = {}
    for u, v in sorted(g.edges):
        eu = ("e", u, v, u)
        ev = ("e", u, v, v)
        edge_nodes[(u, v)] = (eu, ev)
        gx.add_edge(eu, ev)
    for v in range(g.n):
        inc = sorted(e for e in g.edges if v in e)
        spare = g.degree(v) - D
        for j in range(spare):
            iv = ("i", v, j)
            for u, w in inc:
                gx.add_edge(iv, ("e", u, w, v))
    matching = nx.max_weight_matching(gx, maxcardinality=True)
    if 2 * len(matching) != gx.number_of_nodes():
        return None
    matched = {frozenset(p) for p in matching}
    chosen = [
        e for e, (eu, ev) in edge_nodes.items() if frozenset((eu, ev)) in matched
    ]
    sub = Graph(g.n, chosen)
    assert set(sub.degrees()) <= {D}
    return sub


def reg_even(g: Graph, budget: SolverBudget = SolverBudget()) -> tuple[int, Graph]:
    """Largest even D admitting a D-regular spanning subgraph, with a
    witness subgraph (D = 0 with the empty graph when none larger exists)."""
    deadline = time.monotonic() + budget.max_seconds
    top = g.min_degree() - (g.min_degree() % 2)
    for D in range(top, 0, -2):
        if time.monotonic() > deadline:
            raise Timeout("reg_even budget exhausted")
        sub = _regular_subgraph(g, D)
        if sub is not None:
            return D, sub
    return 0, Graph(g.n, [])


# -- chromatic index of regular graphs ---------------------------------------

def _perfect_matchings(g: Graph, deadline: float) -> Iterator[frozenset]:
    """All perfect matchings, lexicographic by the edge at the lowest
    uncovered vertex; prunes with an exact matching feasibility test."""
    if g.n % 2 != 0:
        return
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges)
    if 2 * len(nx.max_weight_matching(gx, maxcardinality=True)) != g.n:
        return

    def rec(uncovered: frozenset, chosen: list):
        if time.monotonic() > deadline:
            raise Timeout("perfect matching enumeration budget exhausted")
        if not uncovered:
            yield frozenset(chosen)
            return
        v = min(uncovered)
        for w in sorted(g.adj[v]):
            if w in uncovered:
                yield from rec(uncovered - {v, w}, chosen + [(v, w)])

    yield from rec(frozenset(range(g.n)), [])


def chromatic_index_regular(
    g: Graph, budget: SolverBudget = SolverBudget()
) -> tuple[int, list]:
    """(D, one-factorization) when the D-regular graph has one, else
    (D+1, proper edge coloring as color classes)."""
    from .matchings import balanced_matchings

    if not g.is_regular():
        raise PreconditionViolated("graph is not regular")
    D = g.max_degree()
    if D == 0:
        return 0, []
    deadline = time.monotonic() + budget.max_seconds

    def factorize(cur: Graph, acc: list):
        if not cur.edges:
            return acc
        for pm in _perfect_matchings(cur, deadline):
            res = factorize(cur.minus_edges(pm), acc + [sorted(pm)])
            if res is not None:
                return res
        return None

    factorization = factorize(g, [])
    if factorization is not None:
        return D, factorization
    classes = balanced_matchings(g, D + 1)
    return D + 1, [sorted(m) for m in classes]


# -- approximate decomposition contract --------------------------------------

@dataclass
class ApproxResult:
    cycles: list[list[int]] | None
    stuck_index: int | None
    stats: dict = field(default_factory=dict)


def check_approx_preconditions(
    g: Graph,
    part: LabelledPartition,
    family: Sequence[PathSystem],
    mu,
    rho,
    eps0,
) -> list[str]:
    """The four entry gates of the approximate-decomposition contract:
    degree windows into every cluster, family size, localization into the
    partition, and bounded incidence of each vertex to the family."""
    mu, rho, eps0 = frac(mu), frac(rho), frac(eps0)
    problems = []
    K, m, n = part.K, part.m, part.n
    lo = (1 - 4 * mu - Fraction(4, K)) * m
    hi = (1 - 4 * mu + Fraction(4, K)) * m
    for w in part.A:
        for i in range(K):
            dw = g.d(w, part.clusters_B[i])
            if not lo <= dw <= hi:
                problems.append(
                    f"degree window: d({w},B_{i + 1}) = {dw} outside [{lo},{hi}]"
                )
    for v in part.B:
        for i in range(K):
            dv = g.d(v, part.clusters_A[i])
            if not lo <= dv <= hi:
                problems.append(
                    f"degree window: d({v},A_{i + 1}) = {dv} outside [{lo},{hi}]"
                )
    if len(family) > (Fraction(1, 4) - mu - rho) * n:
        problems.append(
            f"family size {len(family)} > (1/4-mu-rho)n = "
            f"{(Fraction(1, 4) - mu - rho) * n}"
        )
    incidence = {v: 0 for v in list(part.A) + list(part.B)}
    for j in family:
        for v in j.covered():
            if v in incidence:
                incidence[v] += 1
    worst = max(incidence.values(), default=0)
    if worst > 2 * eps0 * n:
        problems.append(f"vertex incident to {worst} systems > 2*eps0*n")
    return problems


def approx_decomposition(
    g: Graph,
    part: LabelledPartition,
    family: Sequence[PathSystem],
    mu,
    rho,
    eps0,
    budget: SolverBudget = SolverBudget(),
    enforce_gates: bool = True,
) -> ApproxResult:
    """len(family) edge-disjoint Hamilton cycles of ``g``, the i-th
    containing the i-th balanced exceptional system.

    Works through the fictive-edge reduction: each system J is replaced by
    its matching J*, a cycle of g[A u B] + J* consistent with J* is found
    (greedily, with backtracking across systems), and the fictive edges are
    substituted back.  Cycle edges other than J's come from g[A, B].
    """
    problems = check_approx_preconditions(g, part, family, mu, rho, eps0)
    if problems and enforce_gates:
        raise PreconditionViolated("; ".join(problems))

    ab_pool = set(g.edges_between(part.A_prime(), part.B_prime()))
    # edges of the systems themselves are reserved per system
    deadline = time.monotonic() + budget.max_seconds
    nodes = [0]
    deepest = [0]

    def level(i: int, pool: frozenset) -> list[list[int]] | None:
        if i == len(family):
            return []
        deepest[0] = max(deepest[0], i)
        if time.monotonic() > deadline or nodes[0] > budget.max_nodes:
            raise Timeout("approximate decomposition budget exhausted",
                          stats={"nodes": nodes[0], "level": i})
        j = family[i]
        fict = build_fictive(j, part)
        search = consistent_cycle_search(
            Graph(g.n, pool), part, j, fict,
            max_nodes=budget.max_nodes - nodes[0], seed=budget.seed,
        )
        for consistent in search:
            cycle = substitute(consistent, j, fict, part)
            used = cycle_edges(cycle) - j.edges
            rest = level(i + 1, pool - used)
            if rest is not None:
                return [cycle] + rest
        return None

    try:
        out = level(0, frozenset(ab_pool))
    finally:
        del level  # it refers to itself: free its state without the cycle GC
    if out is None:
        return ApproxResult(None, deepest[0], {"nodes": nodes[0]})
    return ApproxResult(out, None, {"nodes": nodes[0]})
