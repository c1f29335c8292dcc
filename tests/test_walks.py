"""The split-and-switch engine (``bipham.switches``), which closes an
approximate decomposition whose cycles must take their whole pool."""

import random

import pytest

from bipham import switches
from bipham.errors import BackendFailure, BadParams
from bipham.graphs import Graph, complete_bipartite, norm_edge
from bipham.solvers import SolverBudget

from conftest import level_cycles


def test_closure_failure_names_attempts_and_swaps(monkeypatch):
    # each repair makes at most one switch and is then stuck: once the
    # three attempts are spent the failure names them and the switches
    monkeypatch.setattr(switches, "CLOSURE_ATTEMPTS", 3)
    real_find = switches._find_swap
    moves = {}  # the one switch of each repair, by its factors

    def one_per_repair(fx, factors, *rest):
        if id(factors) in moves:
            return None
        move = real_find(fx, factors, *rest)
        if move is not None:
            moves[id(factors)] = factors  # kept alive: ids stay unique
        return move

    monkeypatch.setattr(switches, "_find_swap", one_per_repair)
    g = complete_bipartite((28, 28))
    with pytest.raises(BackendFailure) as exc:
        switches.split_and_switch(g.n, range(28), g.edges, [frozenset()] * 14,
                                  0, float("inf"))
    assert moves
    assert str(exc.value) == (f"closure: 3 split attempts and {len(moves)} "
                              "swaps left a factor that is not a Hamilton "
                              "cycle")


@pytest.mark.parametrize("budget", [{"max_seconds": 0},
                                    {"max_seconds": float("inf")},
                                    {"max_seconds": float("nan")}])
def test_closure_rejects_non_positive_budget(budget):
    # the closure runs no search, so its one limit is the wall clock of the
    # budget ``approx_decomposition`` hands it, which must be finite and
    # positive; a NaN deadline never passes, so the safety net would be
    # silently off
    with pytest.raises(BadParams, match="^budget limits must be positive$"):
        SolverBudget(**budget)


def _small_case(rng, m):
    """A closure on K(m,m): m/2 levels, each with up to three random
    vertex-disjoint paths of one to three edges, no edge on two levels.
    Returns (n, A, pool, path edges per level)."""
    n = 2 * m
    A = list(range(m))
    free = {(a, b) for a in A for b in range(m, n)}
    levels = []
    for _ in range(m // 2):
        on_path, paths = set(), []
        for _ in range(rng.randint(0, 3)):
            starts = [v for v in range(n) if v not in on_path]
            if not starts:
                break
            path = [rng.choice(starts)]
            for _ in range(rng.randint(1, 3)):
                nxt = [w for w in range(n) if w not in on_path
                       and w not in path and norm_edge(path[-1], w) in free]
                if not nxt:
                    break
                path.append(rng.choice(nxt))
            if len(path) > 1:
                on_path.update(path)
                paths.append(tuple(path))
                free -= {norm_edge(u, v) for u, v in zip(path, path[1:])}
        levels.append(paths)
    systems = [frozenset(norm_edge(u, v) for p in paths
                         for u, v in zip(p, p[1:])) for paths in levels]
    return n, A, frozenset(free), systems


def _factor_edges(nbrs):
    return {norm_edge(u, v) for v in range(len(nbrs)) for u in nbrs[v]}


def test_split_levels_hold_their_systems_and_no_other():
    # each level is a 2-factor holding its own path system and, besides
    # it, only pool edges; the levels partition the pool and the systems
    rng = random.Random(20)
    split = 0
    for trial in range(60):
        n, A, pool, systems = _small_case(rng, rng.choice((4, 6, 8)))
        try:
            needs = switches._level_needs(n, pool, systems)
        except BackendFailure:
            continue
        factors = switches._split_levels(n, A, pool, systems, needs,
                                      random.Random(trial), float("inf"))
        if factors is None:
            continue
        split += 1
        seen = set()
        for nbrs, q in zip(factors, systems):
            assert all(len(vs) == 2 for vs in nbrs)
            edges = _factor_edges(nbrs)
            assert q <= edges and edges - q <= pool
            assert not seen & edges
            seen |= edges
        assert seen == pool.union(*systems)
    assert split >= 40


def test_each_switch_joins_two_cycles_and_keeps_the_rest(monkeypatch):
    # every switch the closure makes keeps each vertex's two edges in every
    # factor and each path system in its factor, takes one cycle off F_X,
    # adds none to F_Y and leaves the other factors alone
    real_switch = switches._switch
    made = []

    def checked(factors, cyc, owner, fx, move):
        fy = move[-1]
        before = [_factor_edges(nbrs) for nbrs in factors]
        counts = [len(c[2]) for c in cyc]
        real_switch(factors, cyc, owner, fx, move)
        after = [_factor_edges(nbrs) for nbrs in factors]
        assert all(len(vs) == 2 for nbrs in factors for vs in nbrs)
        assert [c[2] for c in cyc] == [switches._cycles_of(nbrs)[2]
                                       for nbrs in factors]
        assert len(cyc[fx][2]) == counts[fx] - 1
        assert len(cyc[fy][2]) <= counts[fy]
        x, y, c, d, _ = move
        assert after[fx] == before[fx] - {norm_edge(y, c), norm_edge(d, x)} \
            | {norm_edge(x, y), norm_edge(c, d)}
        assert after[fy] == before[fy] - {norm_edge(x, y), norm_edge(c, d)} \
            | {norm_edge(y, c), norm_edge(d, x)}
        assert all(after[i] == before[i] for i in range(len(factors))
                   if i not in (fx, fy))
        assert all(q <= edges for q, edges in zip(systems, after))
        made.append(move)

    monkeypatch.setattr(switches, "_switch", checked)
    rng = random.Random(21)
    for trial in range(40):
        n, A, pool, systems = _small_case(rng, rng.choice((6, 8)))
        try:
            switches.split_and_switch(n, A, pool, systems, trial, float("inf"))
        except BackendFailure:
            pass
    assert len(made) >= 40


def _referee(n, pool, systems):
    """``peel_cycles`` over ``level_cycles``: level i searches for a
    Hamilton cycle through the edges of ``systems[i]``, traversing its
    paths either way, and takes its pool edges.  It shares no code with
    the kernels."""
    from types import SimpleNamespace

    from bipham.solvers import peel_cycles
    from bipham.validate import cycle_edges

    def search(i, taken, order, cap):
        stats = SimpleNamespace(nodes=0, budget_exceeded=False, max_nodes=cap)
        found = level_cycles(n, pool.difference(*taken), systems[i], stats)
        return ((c, cycle_edges(c) - systems[i]) for c in found), stats

    return peel_cycles(search, len(systems), 10_000_000)


def test_closure_agrees_with_search_referee():
    # on small hosts the closure closes exactly when an exhaustive peel
    # finds a decomposition, and what it returns is one
    from bipham.validate import check_decomposition, cycle_edges

    rng = random.Random(22)
    outcomes = []
    for trial in range(60):
        m = (4, 6, 8)[trial % 3]
        n, A, pool, systems = _small_case(rng, m)
        peel = _referee(n, pool, systems)
        try:
            cycles = switches.split_and_switch(n, A, pool, systems, trial,
                                  float("inf"))[0]
        except BackendFailure:
            cycles = None
        outcomes.append((peel.cycles is not None, cycles is not None))
        if cycles is not None:
            assert not check_decomposition(
                Graph(n, pool.union(*systems)),
                [cycle_edges(c) for c in cycles])
            assert all(q <= cycle_edges(c) for q, c in zip(systems, cycles))
    assert all(ref == got for ref, got in outcomes)
    assert 0 < sum(ref for ref, _ in outcomes) < len(outcomes)


def test_referee_yields_the_orientations_the_kernels_miss(monkeypatch):
    # K(6,6) through three paths: the referee yields every Hamilton cycle
    # that contains them, and so does each kernel under every item order;
    # a search over contracted paths that kept one orientation per item
    # cycle yielded 20 of these 40
    from types import SimpleNamespace

    from bipham import hamkernel, search
    from bipham.search import CycleSearch, Prescribed
    from bipham.validate import cycle_edges

    g = complete_bipartite((6, 6))
    paths = [(10, 5, 8, 1), (11, 4), (7, 0, 9)]
    fixed = {norm_edge(u, v) for p in paths for u, v in zip(p, p[1:])}
    every = {cycle_edges(c) for c in CycleSearch(g).cycles()}
    assert len(every) == 43200
    through = {c for c in every if fixed <= c}
    stats = SimpleNamespace(nodes=0, budget_exceeded=False, max_nodes=10**6)
    found = [cycle_edges(c)
             for c in level_cycles(g.n, g.edges - fixed, fixed, stats)]
    assert len(found) == len(set(found)) == 40 and set(found) == through
    allowed = Graph(g.n, g.edges - fixed)
    for kernel in (hamkernel.GraphEnum, hamkernel.PureGraphEnum):
        monkeypatch.setattr(search, "cycle_enumerator", kernel)
        for seed in range(4):
            cycles = [cycle_edges(c) for c in CycleSearch(
                allowed, [Prescribed(p) for p in paths], seed=seed).cycles()]
            assert len(cycles) == len(set(cycles)) == 40, (kernel, seed)
            assert set(cycles) == through, (kernel, seed)
