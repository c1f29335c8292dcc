"""Building localized balanced exceptional systems and covering the global
leftover by Hamilton cycles.

Each localized slice is decomposed into a fixed number of small path systems
of exactly prescribed sizes plus a low-degree leftover; the union of the
leftovers (per side) is decomposed once more; A-side and B-side systems are
paired so each pair balances the side sizes; pairs are extended to balanced
exceptional systems by attaching the exceptional vertices; and the global
leftover pairs are extended to Hamilton cycles.  Every count used here is an
exact rational identity, never a float.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .balance import Framework, frac
from .balancer import is_two_balanced, peel_hamilton_cycles
from .errors import (
    AuxMatchingFailure,
    DivisibilityError,
    InsufficientNeighbors,
    PreconditionViolated,
    Timeout,
)
from .graphs import Graph, LabelledPartition, PathSystem
from .matchings import kuhn_matching, path_system_split, sparsify_split
from .schemes import rational_ceil
from .solvers import SolverBudget
from .validate import check_bes, check_decomposition, check_edge_disjoint, cycle_edges

ATTACH_NODES = 50_000


def derive_slice_counts(D: int, K: int, eps4_requested) -> tuple[int, int, Fraction]:
    """Integer counts (t_K, k) realizing the requested leftover fraction:
    t_K systems per cell with t = K^2 t_K per slice, and k = (D - 2 t K^2)/2
    global path-system pairs.  The achieved eps4 with t exactly integral is
    returned alongside."""
    eps4 = frac(eps4_requested)
    t_K = int(round((1 - 20 * eps4) * Fraction(D, 2 * K**4)))
    t_K = max(t_K, 0)
    t = t_K * K * K
    if D % 2 != 0:
        raise PreconditionViolated(f"D = {D} must be even")
    k = (D - 2 * t * K * K) // 2
    if k < 0:
        raise PreconditionViolated("requested leftover fraction is negative")
    achieved = (1 - Fraction(2 * t * K * K, D)) / 20 if D else Fraction(0)
    return t_K, k, achieved


@dataclass(frozen=True)
class SliceDecompositionPlan:
    """Exact arithmetic of a slice decomposition.

    q and c solve e(A') = (a+q+c) D/2 and e(B') = (b+q+c) D/2 with q an
    integer and 0 <= c < 1; per-slice system sizes are ceil/floor of the
    side's load l_a (resp. l_b), with t_star large systems per slice.
    """

    D: int
    K: int
    a: int
    b: int
    e_a: int
    e_b: int
    q: int
    c: Fraction
    t: int
    t_star: int
    ell_a: Fraction
    ell_b: Fraction
    case: str
    eps3: Fraction
    eps4: Fraction

    def ceil_a(self) -> int:
        return math.ceil(self.ell_a)

    def floor_a(self) -> int:
        return math.floor(self.ell_a)

    def ceil_b(self) -> int:
        return math.ceil(self.ell_b)

    def floor_b(self) -> int:
        return math.floor(self.ell_b)

    def target_edges(self, side: str) -> int:
        """Exact number of edges the slice must shed into path systems."""
        if side == "A":
            return self.t_star * self.ceil_a() + (self.t - self.t_star) * self.floor_a()
        return self.t_star * self.ceil_b() + (self.t - self.t_star) * self.floor_b()


def plan_slice_decomposition(
    fw: Framework, eps3, eps4, K: int, t: int | None = None
) -> SliceDecompositionPlan:
    """Solve the exact load identities and the three-way case split on how
    much of each side's internal edges the slices must absorb."""
    eps3, eps4 = frac(eps3), frac(eps4)
    g, part = fw.graph, fw.partition
    D, n = fw.D, g.n
    if D % 2 != 0:
        raise PreconditionViolated(f"D = {D} must be even")
    e_a = g.e_within(part.A_prime())
    e_b = g.e_within(part.B_prime())
    a, b = part.a, part.b
    if t is None:
        t_frac = (1 - 20 * eps4) * Fraction(D, 2 * K * K)
        if t_frac.denominator != 1:
            raise DivisibilityError(
                f"t = (1-20 eps4) D / 2K^2 = {t_frac} is not an integer"
            )
        t = int(t_frac)
    if D <= 0:
        raise PreconditionViolated("balance degree must be positive")
    val = Fraction(2 * e_a, D) - a
    q = math.floor(val)
    c = val - q
    if Fraction(2 * e_b, D) - b != q + c:
        raise PreconditionViolated(
            "edge loads are inconsistent with the balance identity: "
            f"e(A')={e_a}, e(B')={e_b}, a={a}, b={b}, D={D}"
        )
    if e_b >= eps3 * n:
        t_star = (int(math.floor(c * t)) // (K * K)) * (K * K)
        case = "both-large"
        ell_a = a + q + c
        ell_b = b + q + c
    else:
        t_star = 0
        if e_a < eps3 * n:
            case = "both-small"
            ell_a = Fraction(0)
            ell_b = Fraction(0)
            if a != b:
                raise PreconditionViolated(
                    f"tiny internal load but a = {a} != b = {b}"
                )
        else:
            case = "a-large"
            ell_a = Fraction(a - b)
            ell_b = Fraction(0)
    plan = SliceDecompositionPlan(
        D, K, a, b, e_a, e_b, q, frac(c), t, t_star,
        frac(ell_a), frac(ell_b), case, eps3, eps4,
    )
    if plan.ceil_a() - plan.ceil_b() != a - b or plan.floor_a() - plan.floor_b() != a - b:
        raise AssertionError("rounded load difference does not match a-b")
    return plan


@dataclass
class SliceDecomposition:
    systems: list[PathSystem]  # large systems first
    leftover: Graph
    num_large: int
    attempts: int


def decompose_slice(
    h_slice: Graph,
    plan: SliceDecompositionPlan,
    side: str,
    part: LabelledPartition,
    eps,
    eps1,
    seed: int = 0,
) -> SliceDecomposition:
    """Extract t path systems of the planned exact sizes from one localized
    slice; the leftover keeps maximum degree at most 13*eps4*D/K^2."""
    eps, eps1 = frac(eps), frac(eps1)
    exceptional = part.A0 if side == "A" else part.B0
    ell_int = plan.floor_a() if side == "A" else plan.floor_b()
    ell_ceil = plan.ceil_a() if side == "A" else plan.ceil_b()
    target = plan.target_edges(side)
    n = h_slice.n
    deg_bound = Fraction(13) * plan.eps4 * plan.D / (plan.K * plan.K)

    if target == 0:
        if h_slice.max_degree() > deg_bound:
            raise PreconditionViolated(
                f"empty plan but leftover degree {h_slice.max_degree()} exceeds "
                f"{deg_bound}"
            )
        return SliceDecomposition(
            [PathSystem(n, [])] * plan.t, h_slice, plan.t_star, 0
        )
    if h_slice.num_edges() < target:
        raise PreconditionViolated(
            f"slice has {h_slice.num_edges()} edges, plan needs {target}"
        )
    gamma = 1 - Fraction(target, h_slice.num_edges())
    if gamma == 0:
        kept, leftover, attempts = h_slice, Graph(n, []), 0
    else:
        alpha = (deg_bound * Fraction(5, 6) / (gamma * n)) if gamma else Fraction(0)
        res = sparsify_split(
            h_slice, gamma, alpha, seed=seed, target_edges=target
        )
        kept, leftover, attempts = res.kept, res.leftover, res.attempts
    if leftover.max_degree() > deg_bound:
        raise PreconditionViolated(
            f"leftover degree {leftover.max_degree()} exceeds {deg_bound}"
        )
    others = sorted(set(range(n)) - set(exceptional))
    want = [ell_ceil] * plan.t_star + [ell_int] * (plan.t - plan.t_star)
    systems = path_system_split(kept, sorted(exceptional), others, plan.t, want)
    sizes = [s.num_edges() for s in systems]
    if sizes != want:
        raise AssertionError(f"system sizes {sizes} do not match the plan {want}")
    cap = rational_ceil(float(eps) ** 0.5) * n
    for s in systems:
        if s.num_edges() > cap:
            raise AssertionError("system exceeds the square-root size cap")
        if not s.internal() <= set(exceptional):
            raise AssertionError("internal vertex outside the exceptional set")
    return SliceDecomposition(systems, leftover, plan.t_star, attempts)


@dataclass
class GlobalDecomposition:
    pairs: list[tuple[PathSystem, PathSystem]]
    q_prime: int
    c_prime: Fraction
    k_star: int


def decompose_global(
    g_glob_a: Graph,
    g_glob_b: Graph,
    k: int,
    part: LabelledPartition,
    eps,
) -> GlobalDecomposition:
    """Decompose the two global leftover graphs into k pairs of path systems
    with pair defect exactly a-b and each inner vertex in at most one edge
    per system."""
    eps = frac(eps)
    a, b = part.a, part.b
    ea, eb = g_glob_a.num_edges(), g_glob_b.num_edges()
    if k == 0:
        if ea or eb:
            raise PreconditionViolated(
                f"no pairs requested but global graphs have {ea}+{eb} edges"
            )
        return GlobalDecomposition([], 0, Fraction(0), 0)
    if ea - eb != (a - b) * k:
        raise PreconditionViolated(
            f"global load identity fails: {ea} - {eb} != (a-b)k = {(a - b) * k}"
        )
    val = Fraction(ea, k) - a
    q_prime = math.floor(val)
    c_prime = val - q_prime
    k_star_frac = c_prime * k
    if k_star_frac.denominator != 1:
        raise AssertionError("fractional large-pair count")
    k_star = int(k_star_frac)
    for g_side, name in ((g_glob_a, "A"), (g_glob_b, "B")):
        if 2 * g_side.max_degree() >= 3 * k:
            raise PreconditionViolated(
                f"global {name} degree {g_side.max_degree()} >= 3k/2"
            )
    n = part.n
    cap = rational_ceil(float(eps) ** 0.5) * n

    want_a = [a + q_prime + 1] * k_star + [a + q_prime] * (k - k_star)
    want_b = [b + q_prime + 1] * k_star + [b + q_prime] * (k - k_star)

    def side_systems(g_side, exceptional, want):
        others = sorted(set(range(n)) - set(exceptional))
        return path_system_split(g_side, sorted(exceptional), others, k, want)

    sys_a = side_systems(g_glob_a, part.A0, want_a)
    sys_b = side_systems(g_glob_b, part.B0, want_b)
    if [s.num_edges() for s in sys_a] != want_a:
        raise AssertionError("A-side global sizes do not match the plan")
    if [s.num_edges() for s in sys_b] != want_b:
        raise AssertionError("B-side global sizes do not match the plan")
    pairs = list(zip(sys_a, sys_b))
    for qa, qb in pairs:
        if qa.num_edges() - qb.num_edges() != a - b:
            raise AssertionError("pair defect is not a-b")
        if qa.num_edges() > cap or qb.num_edges() > cap:
            raise AssertionError("global system exceeds the size cap")
        for v in part.A:
            if qa.degree(v) > 1:
                raise AssertionError(f"inner vertex {v} has two edges in a system")
        for v in part.B:
            if qb.degree(v) > 1:
                raise AssertionError(f"inner vertex {v} has two edges in a system")
    return GlobalDecomposition(pairs, q_prime, c_prime, k_star)


@dataclass
class LocalizedPairFamily:
    """For each cell (i1,i2,i3,i4): t_K pairs (P, P') of path systems,
    A-side localized to clusters (i1,i2) and B-side to (i3,i4)."""

    cells: dict[tuple[int, int, int, int], list[tuple[PathSystem, PathSystem]]]
    t_K: int


def build_localized_pairs(
    slice_systems_a: dict[tuple[int, int], SliceDecomposition],
    slice_systems_b: dict[tuple[int, int], SliceDecomposition],
    part: LabelledPartition,
    plan: SliceDecompositionPlan,
    eps4,
    seed: int = 0,
) -> LocalizedPairFamily:
    """Randomly distribute each slice's systems over the opposite-side cell
    coordinates, preserving the large/small split, and pair them off."""
    K = plan.K
    t, t_star = plan.t, plan.t_star
    if t % (K * K) or t_star % (K * K):
        raise DivisibilityError(
            f"t = {t} and t_star = {t_star} must both be divisible by K^2"
        )
    t_K = t // (K * K)
    rng = random.Random(seed)
    coords = [(i, j) for i in range(1, K + 1) for j in range(1, K + 1)]

    def distribute(decomp: SliceDecomposition):
        large = list(decomp.systems[: decomp.num_large])
        small = list(decomp.systems[decomp.num_large :])
        rng.shuffle(large)
        rng.shuffle(small)
        nl, ns = t_star // (K * K), (t - t_star) // (K * K)
        out = {}
        for idx, cd in enumerate(coords):
            out[cd] = (
                large[idx * nl : (idx + 1) * nl],
                small[idx * ns : (idx + 1) * ns],
            )
        return out

    dist_a = {cd: distribute(dec) for cd, dec in slice_systems_a.items()}
    dist_b = {cd: distribute(dec) for cd, dec in slice_systems_b.items()}
    cells = {}
    for i1, i2 in coords:
        for i3, i4 in coords:
            la, sa = dist_a[(i1, i2)][(i3, i4)]
            lb, sb = dist_b[(i3, i4)][(i1, i2)]
            pairs = list(zip(la, lb)) + list(zip(sa, sb))
            if len(pairs) != t_K:
                raise AssertionError("cell does not hold t_K pairs")
            cells[(i1, i2, i3, i4)] = pairs
    fam = LocalizedPairFamily(cells, t_K)
    verify_localized_pairs(fam, part, plan, eps4)
    return fam


def verify_localized_pairs(
    fam: LocalizedPairFamily, part: LabelledPartition, plan, eps4
) -> None:
    """Structural pair checks: defect, localization, edge-disjointness.
    The exceptional degree floor needs the framework graph and is checked
    separately by exceptional_degree_floor_violations."""
    a, b = part.a, part.b
    all_sets = []
    for cell, pairs in sorted(fam.cells.items()):
        i1, i2, i3, i4 = cell
        for p, p2 in pairs:
            if p.num_edges() - p2.num_edges() != a - b:
                raise AssertionError(f"pair defect in cell {cell}")
            allowed_a = (
                set(part.A0)
                | set(part.clusters_A[i1 - 1])
                | set(part.clusters_A[i2 - 1])
            )
            allowed_b = (
                set(part.B0)
                | set(part.clusters_B[i3 - 1])
                | set(part.clusters_B[i4 - 1])
            )
            if not p.covered() <= allowed_a:
                raise AssertionError(f"A-system of cell {cell} not localized")
            if not p2.covered() <= allowed_b:
                raise AssertionError(f"B-system of cell {cell} not localized")
            all_sets.append(p.edges)
            all_sets.append(p2.edges)
    dup = check_edge_disjoint(all_sets)
    if dup:
        raise AssertionError(dup[0])


def exceptional_degree_floor_violations(
    g: Graph,
    part: LabelledPartition,
    fam: LocalizedPairFamily,
    plan,
    eps4,
) -> list[str]:
    """Per-cell lower bound on how much of each exceptional vertex's side
    degree the cell's systems retain: x in A0 keeps at least
    (d(x, A) - 15 eps4 D) / K^4 edges in every cell, y in B0 likewise with
    d(y, B).  Compared in integers; the floor is built as a Fraction only
    for the message."""
    eps4 = frac(eps4)
    K4 = plan.K**4
    den = eps4.denominator
    slack = 15 * eps4.numerator * plan.D
    rows = g.class_degrees(part.side_labels(), 4)
    side_degree = [(x, rows[x][1]) for x in part.A0]
    side_degree += [(y, rows[y][3]) for y in part.B0]
    problems = []
    for cell, pairs in sorted(fam.cells.items()):
        edges = set()
        for p, p2 in pairs:
            edges |= p.edges | p2.edges
        kept = Counter(chain.from_iterable(edges))
        for x, d in side_degree:
            # kept < (d - 15 eps4 D) / K^4, times K^4 and eps4's denominator
            if kept[x] * K4 * den < d * den - slack:
                floor = (Fraction(d) - 15 * eps4 * plan.D) / K4
                problems.append(
                    f"cell {cell}: exceptional {x} keeps {kept[x]} < {floor}"
                )
    return problems


def extend_to_bes(
    fw: Framework,
    part: LabelledPartition,
    fam: LocalizedPairFamily,
    eps0,
) -> dict[tuple[int, int, int, int], list[PathSystem]]:
    """Extend every localized pair into a balanced exceptional system by
    attaching each uncovered exceptional vertex to the designated opposite
    clusters (A0 to the first B-cluster, B0 to the first A-cluster of the
    cell), lowest free vertex first, edge-disjointly across all systems."""
    eps0 = frac(eps0)
    g = fw.graph
    pool = set(g.edges_between(part.A_prime(), part.B_prime()))
    out: dict[tuple[int, int, int, int], list[PathSystem]] = {}
    for cell in sorted(fam.cells):
        i1, _, i3, _ = cell
        sys_edges = [set(p.edges) | set(p2.edges) for p, p2 in fam.cells[cell]]
        covered = [set(PathSystem(part.n, es).covered()) for es in sys_edges]

        def attach_side(exceptional, cluster):
            # distribute all missing edges of one side over all of the
            # cell's systems at once, as an integral flow: slot demands
            # (vertex, system) route through pool edges (usable once) into
            # per-system copies of the cluster vertices (each system covers
            # a vertex at most once).  Sequential choices can strand the
            # last system when the vertex degrees have no slack.
            _flow_attach(
                exceptional, cluster, sys_edges, covered, pool, cell
            )

        attach_side(part.A0, part.clusters_B[i3 - 1])
        attach_side(part.B0, part.clusters_A[i1 - 1])
        bes_list = []
        for es in sys_edges:
            j = PathSystem(part.n, es)
            problems = check_bes(
                j, part, cell, eps0.numerator, eps0.denominator
            )
            if problems:
                raise AssertionError(f"cell {cell}: {problems[0]}")
            bes_list.append(j)
        out[cell] = bes_list
    all_sets = [j.edges for lst in out.values() for j in lst]
    dup = check_edge_disjoint(all_sets)
    if dup:
        raise AssertionError(dup[0])
    return out


def _flow_attach(exceptional, cluster, sys_edges, covered, pool, cell):
    """Assign every (vertex, system) edge demand of one side at once.

    Constraints: each pool edge is used at most once, each system covers a
    cluster vertex at most once, and every demand is met exactly.  Three
    interleaved partition constraints do not reduce to a single matching or
    flow, but the instances are tiny, so an exact fail-first backtracking
    (always extending the most constrained open slot) settles them, within
    ``ATTACH_NODES`` search nodes; a failure once they are spent is a
    ``Timeout``."""
    slots = []
    for x in sorted(exceptional):
        for i in range(len(sys_edges)):
            need = 2 - sum(1 for e in sys_edges[i] if x in e)
            slots += [(x, i)] * need
    if not slots:
        return
    # the pool does not change during the search: each vertex's pool
    # neighbors in the cluster, in cluster order, are listed once
    reach = {
        x: [(w, (min(x, w), max(x, w))) for w in sorted(set(cluster))
            if (min(x, w), max(x, w)) in pool]
        for x in {x for x, _ in slots}
    }
    used_edge: set = set()
    chosen: list = []
    nodes = [0]

    def candidates(slot):
        x, i = slot
        return [w for w, e in reach[x]
                if e not in used_edge and w not in covered[i]]

    if not _flow_solve(slots, candidates, used_edge, covered, chosen, nodes):
        if nodes[0] > ATTACH_NODES:
            raise Timeout(
                f"attaching the exceptional vertices of cell {cell} spent "
                f"the node cap {ATTACH_NODES}",
                stats={"nodes": ATTACH_NODES},
            )
        worst = min(
            (slot for slot in slots), key=lambda s: len(candidates(s))
        )
        raise InsufficientNeighbors(
            f"exceptional vertex {worst[0]} has no free neighbor in the "
            f"designated cluster of cell {cell}",
            witness=worst[0],
        )
    for x, i, w in chosen:
        e = (min(x, w), max(x, w))
        sys_edges[i].add(e)
        pool.discard(e)


def _flow_solve(open_slots, candidates, used_edge, covered, chosen, nodes) -> bool:
    """One node of ``_flow_attach``'s search: place the most constrained
    open slot, then the rest; module level for the reason
    ``matchings._augment`` gives."""
    if not open_slots:
        return True
    nodes[0] += 1
    if nodes[0] > ATTACH_NODES:
        return False
    # every open slot's candidates, listed once: the first slot with the
    # fewest is placed, trying its candidates in that order
    lists = [candidates(slot) for slot in open_slots]
    pick = min(range(len(open_slots)), key=lambda t: len(lists[t]))
    rest = open_slots[:pick] + open_slots[pick + 1 :]
    x, i = open_slots[pick]
    for w in lists[pick]:
        e = (min(x, w), max(x, w))
        used_edge.add(e)
        covered[i].add(w)
        chosen.append((x, i, w))
        if _flow_solve(rest, candidates, used_edge, covered, chosen, nodes):
            return True
        chosen.pop()
        covered[i].discard(w)
        used_edge.discard(e)
    return False


# -- covering the global leftover by Hamilton cycles -------------------------

@dataclass
class GlobalCoverResult:
    cycles: list[list[int]]
    systems: list[PathSystem]
    diamond: Graph
    checks: list[str] = field(default_factory=list)


def cover_global_by_cycles(
    fw: Framework,
    part: LabelledPartition,
    bes_family: dict,
    global_pairs: list[tuple[PathSystem, PathSystem]],
    budget: SolverBudget = SolverBudget(),
) -> GlobalCoverResult:
    """Extend the global pairs to 2-balanced systems absorbing every edge of
    the reduced graph at the exceptional vertices, then to edge-disjoint
    Hamilton cycles; afterwards the graph minus all systems and cycles is
    bipartite between the two sides with the exceptional set isolated."""
    g, f = fw.graph, fw.host_graph()
    n = g.n
    bes_edges = set()
    for lst in bes_family.values():
        for j in lst:
            bes_edges |= j.edges
    gstar = g.minus_edges(bes_edges)
    k = len(global_pairs)
    checks = []

    addA = _absorb_exceptional(
        gstar, part, [qa.edges for qa, _ in global_pairs],
        [qb.edges for _, qb in global_pairs], side="A", checks=checks,
    )
    q_primeA = [
        PathSystem(n, set(global_pairs[i][0].edges) | addA[i]) for i in range(k)
    ]
    addB = _absorb_exceptional(
        gstar, part, [qb.edges for _, qb in global_pairs],
        [q.edges for q in q_primeA], side="B", checks=checks,
    )
    systems = [
        PathSystem(n, q_primeA[i].edges | set(global_pairs[i][1].edges) | addB[i])
        for i in range(k)
    ]
    root_eps = rational_ceil(float(fw.eps) ** 0.5)
    for q in systems:
        if not is_two_balanced(q, part):
            raise AssertionError("global system is not 2-balanced")
        if q.num_edges() > 3 * root_eps * n:
            raise AssertionError("global system too large")
    target = Graph(
        n,
        gstar.edges - gstar.edges_between(part.A, part.B),
    )
    problems = check_decomposition(target, [q.edges for q in systems])
    if problems:
        raise AssertionError(problems[0])
    checks.append(f"non-cross reduced edges decomposed into {k} systems")

    cycles = peel_hamilton_cycles(f, gstar, part, systems, budget,
                                  excluded=bes_edges)
    diamond = gstar.minus_edges(set().union(*map(cycle_edges, cycles)))
    for v in part.V0():
        if diamond.degree(v):
            raise AssertionError(f"exceptional vertex {v} not isolated afterwards")
    if diamond.e_within(part.A_prime()) or diamond.e_within(part.B_prime()):
        raise AssertionError("internal edges survive the covering stage")
    checks.append("exceptional set isolated and no internal edges remain")
    return GlobalCoverResult(cycles, systems, diamond, checks)


def _absorb_exceptional(gstar, part, own_sets, avoid_sets, side, checks):
    """One side of the absorption: assign, for each exceptional vertex in
    order, its remaining cross edges to the k systems via a perfect matching
    in the auxiliary bipartite graph (neighbors vs system slots)."""
    k = len(own_sets)
    exceptional = part.A0 if side == "A" else part.B0
    inner_opp = part.B if side == "A" else part.A
    opposite = frozenset(inner_opp)
    additions: list[set] = [set() for _ in range(k)]
    for x in sorted(exceptional):
        deg_in = [
            sum(1 for e in own_sets[i] if x in e)
            + sum(1 for e in additions[i] if x in e)
            for i in range(k)
        ]
        slots = [(i, c) for i in range(k) for c in range(2 - deg_in[i])]
        nbrs = sorted(gstar.adj[x] & opposite)
        if len(slots) != len(nbrs):
            raise AuxMatchingFailure(
                f"slot/neighbor identity fails at {x}: {len(slots)} slots vs "
                f"{len(nbrs)} neighbors"
            )
        if not slots:
            continue
        endpointed = []
        for i in range(k):
            used = own_sets[i] | additions[i] | avoid_sets[i]
            pts = {v for e in used for v in e}
            endpointed.append(pts)
        match = kuhn_matching(
            nbrs,
            {w: [s for s in slots if w not in endpointed[s[0]]] for w in nbrs},
        )
        if match is None:
            raise AuxMatchingFailure(
                f"no perfect assignment of the edges at exceptional vertex {x}",
                deficient=x,
            )
        for w, slot in match.items():
            additions[slot[0]].add((min(x, w), max(x, w)))
    checks.append(
        f"{side}-side absorption assigned "
        f"{sum(len(s) for s in additions)} cross edges"
    )
    return additions
