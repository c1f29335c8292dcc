"""Covering and eliminating the edges between the two exceptional sets.

The elimination pipeline turns a weak framework into a full one: decompose
the exceptional-cut edges into balanced matchings, pad each matching with
A'-internal edges so it balances the side sizes, extend each into a
2-balanced path system covering every exceptional vertex, extend each of
those into a Hamilton cycle using cross edges only (one peel,
``peel_hamilton_cycles``), and validate the leftover as a full framework
with the balance degree reduced by twice the cycle count.

Two choices are made from the framework alone, so that one attempt
suffices.  Each system gives every exceptional vertex degree 2, so the cut,
of max degree d, is split into d + 1 matchings (Vizing) when 2(d + 1) <= D
and into d (König: the cut is bipartite) otherwise.  And the extension
attaches exceptional vertices to contested neighbors first, those shared by
the most exceptional vertices of the side, so that what is left of two
hubs' neighborhoods stays apart for the balanced exceptional systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil

from .balance import (
    Framework,
    frac,
    framework_violations,
    is_D_balanced,
    require_kind,
    validate_framework,
)
from .errors import (
    InsufficientNeighbors,
    MatchingShortfall,
    PreconditionViolated,
    SolverFailure,
)
from .generators import near_bipartition
from .graphs import Graph, LabelledPartition, PathSystem, class_labels
from .matchings import balanced_matchings, unit_matching, vizing_balanced
from .schemes import rational_ceil
from .solvers import SolverBudget, peel_through_systems
from .validate import (
    check_a0b0_path_system,
    check_cycle,
    check_edge_disjoint,
    cycle_edges,
    is_two_balanced_counts,
)

# the paper's alpha: a seed has at most ALPHA * n nontrivial paths
ALPHA = Fraction(1, 2)


def is_two_balanced(q: PathSystem, part: LabelledPartition) -> bool:
    """2-balancedness of an exceptional-cover path system, computed both as
    the edge-count identity and as the endpoint-count identity; the two are
    equivalent for valid systems and both are evaluated."""
    problems = check_a0b0_path_system(q, part)
    if problems:
        raise PreconditionViolated(
            f"not a valid exceptional-cover path system: {problems[0]}"
        )
    eA, eB, nA, nB = is_two_balanced_counts(q, part)
    by_edges = eA - eB == part.a - part.b
    by_ends = nA == nB
    if by_edges != by_ends:
        raise AssertionError(
            f"balance criteria disagree: edges {eA}-{eB} vs ends {nA},{nB}"
        )
    return by_edges


def extend_to_two_balanced(
    g: Graph,
    part: LabelledPartition,
    q0: PathSystem,
    choice_seed: int = 0,
) -> PathSystem:
    """Extend a path system satisfying the edge-count identity into a
    2-balanced system covering every exceptional vertex, adding only edges
    from an exceptional vertex to the opposite inner class.

    Per side, an exact matching of the missing edge slots against opposite
    inner vertices not touched by the system so far (so path endpoints stay
    distinct), each slot trying the vertices adjacent to the most of the
    side's exceptional vertices first, then the lowest index (or the
    choice seed's shuffle).
    """
    n = g.n
    eA, eB, _, _ = is_two_balanced_counts(q0, part)
    if eA - eB != part.a - part.b:
        raise PreconditionViolated(
            f"e(A')-e(B') = {eA - eB} != a-b = {part.a - part.b}"
        )
    inner = set(part.A) | set(part.B)
    bad = sorted(q0.internal() & inner)
    if bad:
        raise PreconditionViolated(f"inner vertices internal in the seed: {bad[:3]}")
    if q0.num_nontrivial() > ALPHA * n:
        raise PreconditionViolated(
            f"seed has {q0.num_nontrivial()} nontrivial paths > alpha*n = {ALPHA * n}"
        )
    edges = set(q0.edges)
    touched = set(PathSystem(n, edges).covered())

    def attach_side(exceptional, targets):
        # all missing edges of one side at once: an exact matching of edge
        # slots against untouched opposite-class vertices (a greedy order
        # can strand a later vertex when the slack is zero).  A nonzero
        # choice seed reshuffles the candidate order: which neighbors get
        # consumed here decides what later construction stages have left.
        slots = []
        for v in exceptional:
            need = 2 - sum(1 for e in edges if v in e)
            slots += [(v, c) for c in range(max(0, need))]
        if not slots:
            return
        avail = [w for w in targets if w not in touched]
        if choice_seed:
            import random as _random

            _random.Random((choice_seed, len(avail)).__hash__()).shuffle(avail)
        adj = g.adj
        # contested neighbors first: taking the vertices that several of
        # the side's exceptional vertices share keeps what is left of
        # their neighborhoods apart, which the balanced exceptional
        # systems, attached inside one designated cluster, need.  The sort
        # is stable, so the seed's shuffle still varies the ties.
        side = set(exceptional)
        avail.sort(key=lambda w: -len(adj[w] & side))
        cands = {slot: [w for w in avail if w in adj[slot[0]]] for slot in slots}
        match_r, stuck = unit_matching(slots, cands)
        if match_r is None:
            raise InsufficientNeighbors(
                f"no unused neighbor for exceptional vertex {stuck[0]}",
                witness=stuck[0],
            )
        for w, (v, _) in match_r.items():
            edges.add((min(v, w), max(v, w)))
            touched.add(w)

    attach_side(part.A0, part.B)
    attach_side(part.B0, part.A)
    out = PathSystem(n, edges)
    if not is_two_balanced(out, part):
        raise AssertionError("extension lost 2-balancedness")
    new = out.edges - q0.edges
    a0, b0 = set(part.A0), set(part.B0)
    for u, v in new:
        ok = (u in a0 and v in set(part.B)) or (v in a0 and u in set(part.B))
        ok = ok or (u in b0 and v in set(part.A)) or (v in b0 and u in set(part.A))
        if not ok:
            raise AssertionError(f"illegal added edge ({u},{v})")
    return out


def cover_A0B0_by_path_systems(
    fw: Framework, choice_seed: int = 0
) -> list[PathSystem]:
    """Edge-disjoint 2-balanced path systems that together cover every edge
    between the exceptional sets, none using any edge between the inner
    classes: one per non-empty class of a balanced matching decomposition
    of the cut, into d + 1 classes when 2(d + 1) <= D and d otherwise (d
    the cut's max degree), each extended by ``extend_to_two_balanced``,
    contested neighbors first."""
    require_kind(fw, "weak")
    g = fw.graph
    part = fw.partition
    if part.a < part.b:
        part = part.swapped()
    n = g.n
    # subsets of the validated edges of g need no checks
    cut = Graph._trusted(
        n, g.edges_between(part.A0, part.B0) if part.A0 and part.B0 else ())
    if not cut.edges:
        return []
    # each system gives every exceptional vertex degree 2, and the cut is
    # bipartite, so its max degree of classes always exists (König)
    delta = cut.max_degree()
    classes = delta + 1 if 2 * (delta + 1) <= fw.D else delta
    cut_matchings = [m for m in balanced_matchings(cut, classes) if m]
    r_star = len(cut_matchings)

    imbalance = part.a - part.b
    pads: list[frozenset] = []
    if imbalance > 0:
        inner_a = Graph._trusted(n, g.edges_within(part.A_prime()) - cut.edges)
        big = [m for m in vizing_balanced(inner_a).matchings if len(m) >= imbalance]
        if len(big) < r_star:
            raise MatchingShortfall(
                f"only {len(big)} matchings of size {imbalance} in the A side, "
                f"need {r_star}"
            )
        pads = [frozenset(sorted(m)[:imbalance]) for m in big[:r_star]]
    else:
        pads = [frozenset()] * r_star

    reserved = set()
    for m in cut_matchings:
        reserved |= m
    for m in pads:
        reserved |= m

    systems: list[PathSystem] = []
    used = set()
    for i in range(r_star):
        seed = PathSystem(n, cut_matchings[i] | pads[i])
        pool = Graph._trusted(n, g.edges - used - (reserved - seed.edges))
        q = extend_to_two_balanced(pool, part, seed, choice_seed=choice_seed)
        systems.append(q)
        used |= q.edges
    leftover_cut = cut.edges - {e for q in systems for e in q.edges}
    if leftover_cut:
        raise AssertionError(f"cut edges not covered: {sorted(leftover_cut)[:3]}")
    dup = check_edge_disjoint([q.edges for q in systems])
    if dup:
        raise AssertionError(dup[0])
    side = part.side_labels()  # 1 for A, 3 for B
    for q in systems:
        if any({side[u], side[v]} == {1, 3} for u, v in q.edges):
            raise AssertionError("system uses an edge between the inner classes")
        if not is_two_balanced(q, part):
            raise AssertionError("system is not 2-balanced")
    return systems


def peel_hamilton_cycles(
    f: Graph,
    g: Graph,
    part: LabelledPartition,
    systems: list[PathSystem],
    budget: SolverBudget = SolverBudget(),
    max_paths=None,
    excluded=frozenset(),
) -> list[list[int]]:
    """Extend each 2-balanced exceptional-cover path system in turn into a
    Hamilton cycle of the host ``f`` whose remaining edges all join the two
    inner classes and lie outside the edge set ``excluded``, the cycles
    edge-disjoint: one ``peel_through_systems`` over the cross edges of
    ``f`` outside the systems and ``excluded``, under one node budget,
    which reads ``f``'s edge array under the partition's side labels.

    Level i looks for a cycle through system i, order k under seed
    ``level_seed(budget.seed, i, k)``, capped on the engine's schedule.  A
    level exhausted within its cap backtracks; a spent budget raises
    ``Timeout``.  When every level is exhausted ``SolverFailure`` is raised,
    which proves that no such cycles exist: each level's search yields
    every Hamilton cycle through its paths, and only a search that ends
    within its cap counts as exhausted (``solvers.peel_cycles``).  Every
    cycle is checked to lie in its level's graph and to meet ``g`` in a
    2-balanced graph.
    """
    for q in systems:
        if not is_two_balanced(q, part):
            raise PreconditionViolated("path system is not 2-balanced")
        if max_paths is not None and q.num_nontrivial() > max_paths:
            raise PreconditionViolated(
                f"{q.num_nontrivial()} nontrivial paths exceed the cap {max_paths}"
            )
    sides = class_labels(f.n, (part.A, part.B))
    peel = peel_through_systems(f, systems, budget, sides=sides,
                                excluded=excluded)
    if peel.cycles is None:
        raise SolverFailure(
            "search for edge-disjoint Hamilton cycles through the path "
            f"systems using cross edges exhausted at level {peel.deepest} "
            "(exhaustive for the chosen systems and pool: no such cycles "
            "exist in that pool; not a claim about the host)",
            stats={"nodes": peel.nodes},
        )
    # each cycle's edges outside its system are cross edges of f that no
    # system, no cycle before it and nothing excluded holds; a label sum
    # of 1 is a side-0, side-1 pair
    barred = set(excluded).union(*(q.edges for q in systems))
    for q, cyc in zip(systems, peel.cycles):
        used = cycle_edges(cyc)
        off = [e for e in used - q.edges if e in barred or e not in f.edges
               or sides[e[0]] + sides[e[1]] != 1]
        problems = check_cycle(f.n, cyc) + (
            [f"{len(off)} cycle edges not in graph: {sorted(off)[:3]}"] if off else [])
        if problems:
            raise AssertionError(problems[0])
        barred |= used
        if not is_D_balanced(Graph._trusted(g.n, used & g.edges), part, 2):
            raise AssertionError(
                "cycle's intersection with the graph is not 2-balanced"
            )
    return peel.cycles


@dataclass
class EliminationResult:
    hamilton_cycles: list[list[int]]
    reduced: Framework
    edge_sets: list[frozenset]  # of the cycles, one each


def eliminate_A0B0(
    fw: Framework, budget: SolverBudget = SolverBudget()
) -> EliminationResult:
    """Remove edge-disjoint Hamilton cycles of the host graph covering every
    exceptional-cut edge; the reduced graph is checked to be a full
    framework at balance degree D - 2 r*, r* the number of cycles."""
    require_kind(fw, "weak")
    g, f, part = fw.graph, fw.host_graph(), fw.partition
    systems = cover_A0B0_by_path_systems(fw, choice_seed=budget.seed)
    cycles = peel_hamilton_cycles(f, g, part, systems, budget,
                                  max_paths=fw.eps_prime * g.n)
    edge_sets = [cycle_edges(c) for c in cycles]
    used = set().union(*edge_sets)
    g_cur, f_cur = g.minus_edges(used), f.minus_edges(used)
    d_reduced = fw.D - 2 * len(cycles)
    problems = framework_violations(
        g_cur, part, d_reduced, fw.eps, fw.eps_prime, fw.K, level="full",
        host=f_cur,
    )
    if problems:
        raise AssertionError(f"reduced framework not full: {problems[0].detail}")
    dup = check_edge_disjoint(edge_sets)
    if dup:
        raise AssertionError(dup[0])
    reduced = replace(fw, graph=g_cur, D=d_reduced, kind="full", host=f_cur)
    return EliminationResult(cycles, reduced, edge_sets)


# -- from a nearly-bipartite host to a weak framework -------------------------

def bip_decompose(
    f: Graph,
    g: Graph,
    K: int,
    eps,
    eps_prime,
    hint_split: tuple | None = None,
    demotion_seed: int = 0,
) -> Framework:
    """Partition the vertex set of a nearly-bipartite host into
    (A, A0, B, B0) and validate the framework conditions for the regular
    spanning subgraph g: the framework at the strongest level that holds,
    or ``PreconditionViolated`` naming the first violation when not even
    the weakest level does.

    Starts from the near-bipartition (the hint when given, otherwise a local
    search minimizing internal edges), then repeatedly flips high-internal-
    degree vertices that have more than half their g-degree on their own
    side (the cut size strictly increases, so at most e(g) flips happen),
    and finally moves surplus vertices into the exceptional sets to make
    |A| = |B| divisible by K, taking highest internal host degree first.
    """
    eps, eps_prime = frac(eps), frac(eps_prime)
    n = f.n
    if hint_split is not None:
        s1, s2 = set(hint_split[0]), set(hint_split[1])
    else:
        s1, s2 = near_bipartition(f)
    # d(v, s1) and d(v, s2) in f and g come from class-degree passes over
    # the edges, labelled by side, so the caller's graphs are never indexed
    # by neighbourhood: one pass per graph (one when f is g), then one of g
    # per flip and one of f after the flips
    def split_degrees(h: Graph) -> list[list[int]]:
        return h.class_degrees(
            [0 if v in s1 else 1 if v in s2 else -1 for v in range(n)], 2)

    def own(v: int) -> int:
        return 0 if v in s1 else 1

    # integer degrees against rational bounds: d >= r iff d >= ceil(r),
    # d < r iff d < ceil(r)
    high = ceil(rational_ceil(float(eps) ** 0.5) * n)
    gd = split_degrees(g)
    fd = gd if f is g else split_degrees(f)
    S = {v for v in range(n) if fd[v][own(v)] >= high}

    cut = sum(gd[w][1] for w in s1)
    improved, flipped = True, False
    while improved:
        improved = False
        for v in sorted(S):
            i = own(v)
            if gd[v][i] > gd[v][1 - i]:
                own_side, other = (s1, s2) if i == 0 else (s2, s1)
                own_side.discard(v)
                other.add(v)
                gd = split_degrees(g)
                new_cut = sum(gd[w][1] for w in s1)
                if new_cut <= cut:
                    raise AssertionError("flip did not increase the cut")
                cut = new_cut
                flipped = improved = True

    if len(s1) < len(s2):
        s1, s2 = s2, s1
        fd = [row[::-1] for row in fd]
        gd = [row[::-1] for row in gd]
    if flipped:
        fd = gd if f is g else split_degrees(f)
    low = ceil(eps_prime * n)
    a_core = {v for v in s1 if fd[v][0] < low}
    b_core = {v for v in s2 if fd[v][1] < low}
    a0 = set(s1) - a_core
    b0 = set(s2) - b_core
    target = (min(len(a_core), len(b_core)) // K) * K

    import random as _random

    tiebreak = _random.Random(demotion_seed)

    def demote(core, exc, count):
        # prefer vertices carrying internal subgraph edges: their cross
        # degree is already reduced, which keeps the later covering steps
        # feasible at small scale.  The choice within a priority tie is
        # free; a nonzero demotion seed reshuffles it so callers can retry
        # when a particular pick strands the downstream covering.
        def key(v):
            i = own(v)
            return (-gd[v][i], -fd[v][i])

        by_internal = sorted(core, key=lambda v: (key(v), v))
        if demotion_seed:
            groups: dict = {}
            for v in by_internal:
                groups.setdefault(key(v), []).append(v)
            by_internal = []
            for k in sorted(groups):
                tiebreak.shuffle(groups[k])
                by_internal.extend(groups[k])
        for v in by_internal[:count]:
            core.discard(v)
            exc.add(v)

    demote(a_core, a0, len(a_core) - target)
    demote(b_core, b0, len(b_core) - target)
    part = LabelledPartition(n, a0, a_core, b0, b_core)
    D = g.common_degree()
    if D is None:
        raise PreconditionViolated(
            f"spanning subgraph not regular: degrees {sorted(set(g.degrees()))}")
    result = validate_framework(g, part, D, eps, eps_prime, K, host=f)
    if isinstance(result, list):
        raise PreconditionViolated(f"no weak framework: {result[0].detail}")
    return result


def elimination_bound_holds(fw_before_D: int, reduced_D: int, eps, n: int) -> bool:
    """The reduced balance degree stays within twice the cube-root slack."""
    eps = frac(eps)
    cube = rational_ceil(float(eps) ** (1.0 / 3.0))
    return reduced_D >= fw_before_D - 2 * cube * n
