"""Reference solvers: prescribed-path Hamilton peels, exhaustive
decompositions, densest even-regular subgraphs, chromatic index."""

import random
import time

import pytest

from bipham import search, solvers
from bipham.balancer import peel_hamilton_cycles
from bipham.errors import (
    BadParams,
    PreconditionViolated,
    SolverFailure,
    Timeout,
    WallClockExceeded,
)
from bipham.generators import babai_instance, generate, two_cliques_instance
from bipham.graphs import (
    Graph,
    LabelledPartition,
    PathSystem,
    class_labels,
    complete_bipartite,
    norm_edge,
)
from bipham.search import CycleSearch, Prescribed, SearchStats
from bipham.solvers import (
    LEVEL_UNIT,
    SolverBudget,
    approx_decomposition,
    chromatic_index_regular,
    exhaustive_hamilton_decomposition,
    level_seed,
    luby,
    peel_cycles,
    peel_through_systems,
    reg_even,
)
from bipham.validate import (
    check_cycle,
    check_decomposition,
    check_matching,
    cycle_edges,
)

from conftest import complete_graph


def test_prescribed_hamilton_basaic():
    # a one-level Hamilton peel with an empty system: found, or proven
    # infeasible (a SolverFailure, not a Timeout)
    part = LabelledPartition(8, [], range(4), [], range(4, 8))
    g = complete_bipartite((4, 4))
    [cyc] = peel_hamilton_cycles(g, g, part, [PathSystem(8, [])])
    assert not check_cycle(8, cyc)

    two_squares = Graph(8, [(0, 4), (0, 5), (1, 4), (1, 5),
                            (2, 6), (2, 7), (3, 6), (3, 7)])
    with pytest.raises(SolverFailure, match=r"exhausted at level 0 "
                       r"\(exhaustive for the chosen systems and pool: no "
                       r"such cycles exist in that pool; not a claim about "
                       r"the host\)$") as exc:
        peel_hamilton_cycles(two_squares, two_squares, part, [PathSystem(8, [])])
    assert exc.type is SolverFailure


def test_prescribed_hamilton_with_contracted_path():
    # the path 0-6-1-7 runs through the exceptional vertices 6 and 1
    g = complete_bipartite((6, 6))
    part = LabelledPartition(12, [1], [0, 2, 3, 4, 5], [6], range(7, 12))
    q = PathSystem(12, [(0, 6), (6, 1), (1, 7)])
    [cyc] = peel_hamilton_cycles(g, g, part, [q])
    assert not check_cycle(12, cyc)
    assert set(q.edges) <= cycle_edges(cyc)


def test_exhaustive_decomposition_families():
    cycle = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
    res = exhaustive_hamilton_decomposition(cycle)
    assert res.matching is None and len(res.cycles) == 1

    res4 = exhaustive_hamilton_decomposition(complete_graph(4))
    assert len(res4.cycles) == 1 and len(res4.matching) == 2
    assert not check_matching(4, res4.matching)

    k33 = complete_bipartite((3, 3))
    res33 = exhaustive_hamilton_decomposition(k33)
    assert len(res33.cycles) == 1 and len(res33.matching) == 3
    assert not check_decomposition(
        k33, [cycle_edges(res33.cycles[0]), res33.matching]
    )

    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    res_tt = exhaustive_hamilton_decomposition(two_triangles)
    assert res_tt.cycles is None


def test_exhaustive_decomposition_k66():
    g = complete_bipartite((6, 6))
    res = exhaustive_hamilton_decomposition(g, SolverBudget(max_seconds=120))
    assert len(res.cycles) == 3 and res.matching is None
    assert not check_decomposition(g, [cycle_edges(c) for c in res.cycles])


def test_reg_even_families():
    assert reg_even(complete_graph(5))[0] == 4
    babai, _, _ = babai_instance(1)
    d, witness = reg_even(babai)
    assert d == 2 and set(witness.degrees()) == {2}
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert reg_even(two_k2)[0] == 0


def test_reg_even_monotone_under_edge_addition(rng):
    from conftest import random_graph

    for _ in range(10):
        g = random_graph(rng, 8, 0.5)
        extra = [(i, j) for i in range(8) for j in range(i + 1, 8)
                 if not g.has_edge(i, j)]
        rng.shuffle(extra)
        g2 = Graph(8, g.edges | set(extra[: len(extra) // 2]))
        assert reg_even(g2)[0] >= reg_even(g)[0]


def test_chromatic_index():
    chi, cert = chromatic_index_regular(complete_graph(4))
    assert chi == 3 and len(cert) == 3
    chi, cert = chromatic_index_regular(Graph(4, [(0, 1), (2, 3)]))
    assert chi == 1
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    chi, cert = chromatic_index_regular(two_triangles)
    assert chi == 3
    for m in (2, 3, 4, 5):
        chi, cert = chromatic_index_regular(complete_bipartite((m, m)))
        assert chi == m and len(cert) == m
        assert not check_decomposition(complete_bipartite((m, m)), cert)
    two5, _, _ = two_cliques_instance(10)
    chi, _ = chromatic_index_regular(two5)
    assert chi == 5  # 4-regular but no one-factorization


def test_approx_decomposition_empty_family():
    g = complete_bipartite((4, 4))
    part = LabelledPartition(8, [], range(4), [], range(4, 8),
                             clusters_A=[list(range(4))],
                             clusters_B=[list(range(4, 8))])
    assert approx_decomposition(g, part, []) == []


def test_approx_decomposition_raises_on_infeasible_family():
    # K(4,4) holds two edge-disjoint Hamilton cycles, not three: the search
    # space is exhausted at the third system, index 2
    g = complete_bipartite((4, 4))
    part = LabelledPartition(8, [], range(4), [], range(4, 8),
                             clusters_A=[list(range(4))],
                             clusters_B=[list(range(4, 8))])
    family = [PathSystem(8, [])] * 3
    with pytest.raises(PreconditionViolated,
                       match=r"^approximate decomposition: search exhausted "
                             r"at index 2 \(exhaustive for the chosen "
                             r"systems and pool: no edge-disjoint Hamilton "
                             r"cycles through the systems exist in that "
                             r"pool; not a claim about the host\)$"):
        approx_decomposition(g, part, family)


def test_approx_decomposition_splits_and_switches_an_exact_budget(monkeypatch):
    # K(4,4) through two empty systems: the pool is all 16 edges and the
    # two cycles need 2 * 8 of them, so the engine takes the call and no
    # CycleSearch is made; with an edge excluded, or one system, the
    # budget is not exact, and the kernel peel searches level by level
    from bipham import switches

    made, engine = [], []
    real_init = search.CycleSearch.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        real_init(self, *args, **kwargs)

    def traced(*args):
        engine.append(args)
        return switches.split_and_switch(*args)

    monkeypatch.setattr(search.CycleSearch, "__init__", counting_init)
    monkeypatch.setattr(solvers, "split_and_switch", traced)
    g = complete_bipartite((4, 4))
    part = LabelledPartition(8, [], range(4), [], range(4, 8))
    cycles = approx_decomposition(g, part, [PathSystem(8, [])] * 2,
                                  SolverBudget(seed=4))
    assert not check_decomposition(g, [cycle_edges(c) for c in cycles])
    [(n, A, pool, systems, seed, deadline)] = engine
    assert (n, tuple(A), pool, seed) == (8, tuple(range(4)), g.edges, 4)
    assert systems == [frozenset()] * 2 and not made
    with pytest.raises(PreconditionViolated, match="search exhausted"):
        approx_decomposition(g, part, [PathSystem(8, [])] * 2,
                             excluded={(0, 4)})
    assert len(approx_decomposition(g, part, [PathSystem(8, [])])) == 1
    assert len(engine) == 1 and made


def test_approx_decomposition_engine_failure_is_typed(monkeypatch):
    # a stuck engine is a BackendFailure, which the driver's stage records;
    # no kernel peel runs after it
    from bipham import switches
    from bipham.errors import BackendFailure

    monkeypatch.setattr(switches, "CLOSURE_ATTEMPTS", 0)
    made = []
    real_init = search.CycleSearch.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(search.CycleSearch, "__init__", counting_init)
    g = complete_bipartite((4, 4))
    part = LabelledPartition(8, [], range(4), [], range(4, 8))
    with pytest.raises(BackendFailure, match="^closure: 0 split attempts"):
        approx_decomposition(g, part, [PathSystem(8, [])] * 2)
    assert not made


def _one_system_instance():
    # dense instance with one exceptional vertex per side
    f, part0, props, g = generate(
        "eps_bipartite",
        {"n": 14, "D": 6, "eps": "1/7", "hubs": 1, "hub_degree": 4,
         "extra_internal": 0},
        seed=2,
    )
    s1, s2 = list(part0.A), list(part0.B)
    part = LabelledPartition(
        14, [s1[0]], s1[1:], [s2[0]], s2[1:],
        clusters_A=[s1[1:]], clusters_B=[s2[1:]],
    )
    a0, b0 = s1[0], s2[0]
    j_edges = []
    used = set()
    for v, opp in ((a0, part.B), (b0, part.A)):
        nbrs = [w for w in sorted(f.adj[v]) if w in set(opp) and w not in used][:2]
        j_edges += [(v, w) for w in nbrs]
        used.update(nbrs)
    return f, part, PathSystem(14, j_edges)


def test_approx_decomposition_with_system():
    f, part, j = _one_system_instance()
    [cyc] = approx_decomposition(f, part, [j])
    assert set(j.edges) <= cycle_edges(cyc)
    assert not check_cycle(14, cyc)


def test_approx_decomposition_computes_no_unenforced_gates(monkeypatch):
    # no run acts on the lemma's entry gates, so none is computed: the
    # degree windows into the clusters were the gates' only Graph.d calls
    calls = []
    degree = Graph.d

    def record(self, *args):
        calls.append(args)
        return degree(self, *args)

    monkeypatch.setattr(Graph, "d", record)
    f, part, j = _one_system_instance()
    [cyc] = approx_decomposition(f, part, [j])
    assert not check_cycle(14, cyc)
    assert calls == []


def test_approx_decomposition_counts_and_honours_nodes(monkeypatch):
    # the nodes a run needs, read off the kernel enumerators it starts
    enums = []
    enumerator = search.cycle_enumerator

    def record(*args, **kwargs):
        enums.append(enumerator(*args, **kwargs))
        return enums[-1]

    monkeypatch.setattr(search, "cycle_enumerator", record)
    f, part, j = _one_system_instance()
    cycles = approx_decomposition(f, part, [j])
    need = sum(e.nodes for e in enums)
    assert need > 0
    exact = approx_decomposition(f, part, [j], SolverBudget(max_nodes=need))
    assert exact == cycles
    # one node short is a spent budget, not a system the search got stuck on
    with pytest.raises(Timeout, match=f"node budget {need - 1} spent at level 0"
                       ) as exc:
        approx_decomposition(f, part, [j], SolverBudget(max_nodes=need - 1))
    assert exc.value.stats["nodes"] == need - 1


def test_approx_decomposition_resumed_call_stays_in_budget(monkeypatch):
    # three copies of one system: level 1 fails, and the level 0 call it
    # resumes may spend only what is left of the 86 nodes
    enums = []
    enumerator = search.cycle_enumerator

    def record(*args, **kwargs):
        enums.append(enumerator(*args, **kwargs))
        return enums[-1]

    monkeypatch.setattr(search, "cycle_enumerator", record)
    f, part, j = _one_system_instance()
    with pytest.raises(Timeout, match="node budget 86 spent") as exc:
        approx_decomposition(f, part, [j, j, j], SolverBudget(max_nodes=86))
    assert exc.value.stats["nodes"] == 86
    assert sum(e.nodes for e in enums) <= 86


def test_level_searches_read_the_host_in_place(monkeypatch):
    # each level's CycleSearch reads the host itself, through the one edge
    # array it built, and is handed what its peel frame excludes: the
    # edges the cycles above it took, never a pool.  On K(4,4), two cycles
    # are found and the third level backtracks through every order
    frames, searched = [], []
    peel = solvers.peel_cycles

    def recording_peel(level_search, depth, max_nodes, deadline=None):
        def level(i, taken, order, cap):
            frames.append(frozenset().union(*taken))
            return level_search(i, taken, order, cap)
        return peel(level, depth, max_nodes, deadline)

    class RecordingSearch(search.CycleSearch):
        def __init__(self, allowed, *args, **kwargs):
            super().__init__(allowed, *args, **kwargs)
            gone = iter(self.excluded)
            searched.append((allowed, allowed.edge_ids(),
                             {norm_edge(u, v) for u, v in zip(gone, gone)}))

    monkeypatch.setattr(solvers, "peel_cycles", recording_peel)
    monkeypatch.setattr(solvers, "CycleSearch", RecordingSearch)
    g = complete_bipartite((4, 4))
    ids = g.edge_ids()
    part = LabelledPartition(8, [], range(4), [], range(4, 8),
                             clusters_A=[list(range(4))],
                             clusters_B=[list(range(4, 8))])
    assert len(approx_decomposition(g, part, [PathSystem(8, [])] * 2)) == 2
    with pytest.raises(PreconditionViolated):
        approx_decomposition(g, part, [PathSystem(8, [])] * 3)
    assert len(frames) == len(searched) > 3
    assert any(frames)
    assert all(host is g and arr is ids and gone == taken
               for (host, arr, gone), taken in zip(searched, frames))


def _pool_peel(n, pool, systems, budget):
    """``peel_through_systems`` as it ran on a materialised frozenset pool:
    each level searches a Graph over what the levels above left of
    ``pool``, under the same seeds and caps; ``Timeout`` as its text and
    stats."""
    paths = [[Prescribed(p) for p in q.paths] for q in systems]

    def search(i, taken, order, cap):
        found = CycleSearch(Graph._trusted(n, pool.difference(*taken)), paths[i],
                            max_nodes=cap,
                            seed=level_seed(budget.seed, i, order))
        own = systems[i].edges
        return ((c, cycle_edges(c) - own) for c in found.cycles()), found.stats

    return _outcome(peel_cycles, search, len(systems), budget.max_nodes)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Timeout as exc:
        return str(exc), exc.stats


def _near_bipartite(rng):
    """A random near-bipartite host, its partition with up to one
    exceptional vertex a side, 1 to 3 path systems of the exceptional
    vertices' paths and single cross edges, and excluded edges: some of
    the host's, and a pair that is no edge."""
    half = rng.randint(3, 6)
    n = 2 * half
    s1, s2 = range(half), range(half, n)
    a0 = rng.sample(s1, rng.randint(0, 1))
    b0 = rng.sample(s2, rng.randint(0, 1))
    part = LabelledPartition(n, a0, set(s1) - set(a0), b0, set(s2) - set(b0))
    p = rng.uniform(0.6, 1.0)
    host = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < (p if (u < half) != (v < half) else 0.2)])
    systems = []
    for _ in range(rng.randint(1, 3)):
        edges = [e for x in a0 + b0
                 for e in ((rng.choice(part.A), x), (x, rng.choice(part.B)))]
        if rng.random() < 0.5:
            edges.append((rng.choice(part.A), rng.choice(part.B)))
        try:
            systems.append(PathSystem(n, edges))
        except BadParams:  # a vertex of degree 3, or a cycle
            systems.append(PathSystem(n, []))
    cross = sorted(host.edges_between(part.A, part.B))
    excluded = set(rng.sample(cross, rng.randint(0, len(cross) // 6)))
    excluded.add((0, n - 1) if (0, n - 1) not in host.edges else (0, 1))
    return host, part, systems, excluded


@pytest.mark.parametrize("kernel", ["loaded", "pure"])
def test_host_peels_match_materialised_pool_peels(monkeypatch, kernel):
    # a peel over (host, side labels, excluded) is the peel over the
    # frozenset pool they stand for: the same cycles, taken edges, nodes,
    # deepest level and rest, or the same Timeout; and the degree
    # reduction's peel, whose pool is all of its graph, leaves the same
    # rest in the same iteration order
    from bipham.hamkernel import PureGraphEnum

    if kernel == "pure":
        monkeypatch.setattr(search, "cycle_enumerator", PureGraphEnum)
    rng = random.Random(31)
    seen = {"cycles": 0, "exhausted": 0, "timeout": 0}
    for _ in range(60 if kernel == "loaded" else 15):
        host, part, systems, excluded = _near_bipartite(rng)
        budget = SolverBudget(max_nodes=rng.choice([60, 2_000, 200_000]),
                              seed=rng.randint(0, 9))
        pool = frozenset(host.edges_between(part.A, part.B)).difference(
            excluded, *(q.edges for q in systems))
        want = _pool_peel(host.n, pool, systems, budget)
        got = _outcome(peel_through_systems, host, systems, budget,
                       sides=class_labels(host.n, (part.A, part.B)),
                       excluded=excluded)
        assert got == want
        if isinstance(got, solvers.Peel):
            assert got.rest(pool) == pool.difference(*want.taken)
            seen["cycles" if got.cycles else "exhausted"] += 1
        else:
            seen["timeout"] += 1

        g = Graph(host.n, host.edges)
        budget = SolverBudget(max_nodes=budget.max_nodes)
        k = [PathSystem(g.n, [])] * rng.randint(1, 2)
        want = _pool_peel(g.n, g.edges, k, budget)
        got = _outcome(peel_through_systems, g, k, budget)
        assert got == want
        if isinstance(got, solvers.Peel):
            chain = g.edges
            for used in want.taken:
                chain = chain - used
            assert list(got.rest(g.edges)) == list(chain)
    assert all(seen.values()), seen


def _scripted(plan, calls):
    """A level search replaying ``plan[level, order] = (nodes to exhaust,
    [(node count, cycle), ...])`` under the engine's caps, including a cap
    lowered while it is suspended."""

    def level_search(i, taken, order, cap):
        calls.append((i, order, cap))
        total, yields = plan[i, order]
        stats = SearchStats(max_nodes=cap)

        def run():
            for at, cyc in yields:
                if at > stats.max_nodes:
                    break
                stats.nodes = at
                yield cyc, frozenset()
            stats.nodes = min(total, stats.max_nodes)
            stats.budget_exceeded = total > stats.max_nodes

        return run(), stats

    return level_search


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2,
                                                1, 1, 2, 4, 8]


def test_peel_cycles_budget_rules():
    U = LEVEL_UNIT
    # cap schedule: level 0's orders are capped at U, U, 2U, U; the fourth
    # exhausts itself within its cap, which proves level 0 infeasible: no
    # fifth order although most of the budget is left
    calls = []
    plan = {(0, 0): (10 * U, []), (0, 1): (10 * U, []), (0, 2): (10 * U, []),
            (0, 3): (5, [])}
    peel = peel_cycles(_scripted(plan, calls), 2, 100 * U)
    assert peel.cycles is None and peel.nodes == 4 * U + 5
    assert calls == [(0, 0, U), (0, 1, U), (0, 2, 2 * U), (0, 3, U)]

    # the second order finds a cycle whose level 1 is exhausted within its
    # cap, and then exhausts itself: level 0 is infeasible too
    calls = []
    plan = {(0, 0): (10 * U, []), (0, 1): (50, [(30, [0])]), (1, 0): (20, [])}
    peel = peel_cycles(_scripted(plan, calls), 2, 100 * U)
    assert peel.cycles is None and peel.nodes == U + 70 and peel.deepest == 1
    assert calls == [(0, 0, U), (0, 1, U), (1, 0, U)]

    # orders that hit their caps go on until max_nodes is spent, and only
    # then is it a Timeout; the last order gets what is left
    calls = []
    plan = {(0, k): (10 * U, []) for k in range(3)}
    with pytest.raises(Timeout, match=f"node budget {3 * U + 7} spent at level 0"
                       ) as exc:
        peel_cycles(_scripted(plan, calls), 2, 3 * U + 7)
    assert exc.value.stats["nodes"] == 3 * U + 7
    assert calls == [(0, 0, U), (0, 1, U), (0, 2, U + 7)]

    # a heavy tail is cut at its cap: order 0 would need 10 U nodes, and
    # order 1 finds a cycle in 10
    plan = {(0, 0): (10 * U, []), (0, 1): (20, [(10, [0])])}
    peel = peel_cycles(_scripted(plan, []), 1, 20_000_000)
    assert peel.cycles == [[0]] and peel.nodes == U + 10

    # under a budget below the unit, order 0 gets what is left; spending
    # it is a Timeout
    calls = []
    plan = {(0, 0): (80, [(10, [0])]), (1, 0): (90, [])}
    with pytest.raises(Timeout, match="node budget 50 spent at level 1"):
        peel_cycles(_scripted(plan, calls), 2, 50)
    assert calls == [(0, 0, 50), (1, 0, 40)]

    # a call resumed after a deeper level failed is capped at what is
    # left: 10 + 85 + 5 nodes spend the 100
    plan = {(0, 0): (40, [(10, [0])]), (1, 0): (85, [])}
    with pytest.raises(Timeout, match="spent at level 0") as exc:
        peel_cycles(_scripted(plan, []), 2, 100)
    assert exc.value.stats["nodes"] == 100

    plan = {(0, 0): (40, [(10, [0])]), (1, 0): (20, [(5, [1])])}
    peel = peel_cycles(_scripted(plan, []), 2, 100)
    assert peel.cycles == [[0], [1]] and peel.nodes == 15


def test_orders_of_a_level_keep_distinct_seeds():
    # level_seed is distinct for order < 1009: under the default 20 M nodes
    # no level opens that many orders (the last one opened gets what is
    # left)
    budget, orders = 20_000_000, 0
    while budget > 0:
        budget -= LEVEL_UNIT * luby(orders + 1)
        orders += 1
    assert orders == 92 < 1009


def test_peel_cycles_wall_clock_is_only_a_safety_net():
    plan = {(0, 0): (10, [(5, [0])]), (1, 0): (10, [(5, [1])])}
    with pytest.raises(WallClockExceeded, match="not reproducible"):
        peel_cycles(_scripted(plan, []), 2, 100,
                    deadline=time.monotonic() - 1)
