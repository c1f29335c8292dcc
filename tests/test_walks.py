"""The split-and-switch engine (``bipham.switches``), which closes an
approximate decomposition whose cycles must take their whole pool: the
Python engine, and the C engine against it (also under the address and
undefined-behaviour sanitizers, from ``test_kernel.py``)."""

import random
from array import array

import pytest

from bipham import hamkernel, solvers, switches
from bipham.errors import BackendFailure, BadParams, BiphamError
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
        switches.pure_split_and_switch(g.n, range(28), g.edges,
                                       [frozenset()] * 14, 0, float("inf"))
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
            switches.pure_split_and_switch(n, A, pool, systems, trial,
                                           float("inf"))
        except BackendFailure:
            pass
    assert len(made) >= 40


def _outcomes(n, A, pool, systems, seed, deadline=float("inf")):
    """What the engine that runs and the Python engine return on one input,
    or the type and text of the error each raises."""
    out = []
    for engine in (switches.split_and_switch, switches.pure_split_and_switch):
        try:
            out.append(engine(n, A, pool, systems, seed, deadline))
        except BiphamError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def _circulant_inputs():
    """The engine's inputs in the 1-factorizations of the four K(m,m) +
    circulant hosts of ``test_pipeline.py`` at seed 1."""
    from bipham.pipeline import run_theorem_1factbip

    from test_pipeline import CIRCULANT_HOSTS, TOY_1FACT, _kmm_with_circulants

    calls = []

    def record(*args):
        calls.append(args[:4])
        return switches.split_and_switch(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "split_and_switch", record)
        for m, steps in [*CIRCULANT_HOSTS, (20, (1, 2, 3, 4))]:
            g, hint = _kmm_with_circulants(m, steps)
            assert run_theorem_1factbip(g, TOY_1FACT, seed=1,
                                        hint_split=hint).ok()
    return calls


SEEDS = (0, -7, 2**32 + 5)


def engine_sweep():
    """Both engines on 240 ``_small_case`` draws, K(m,m) for m = 28, 56,
    98, K(28,28) less an edge and the circulant hosts' inputs, at the
    seeds of ``SEEDS``, then with ``CLOSURE_ATTEMPTS`` at 1 and with the
    deadline past; asserts that they agree every time and returns what the
    sweep reached."""
    rng = random.Random(23)
    cases = [_small_case(rng, (4, 6, 8, 10)[k % 4]) for k in range(240)]
    for m in (28, 56, 98):
        g = complete_bipartite((m, m))
        cases.append((g.n, range(m), g.edges, [frozenset()] * (m // 2)))
    # one edge short: vertex 0 has 27 of the 28 edges its cycles need
    short = complete_bipartite((28, 28)).edges - {(0, 28)}
    cases.append((56, range(28), short, [frozenset()] * 14))
    cases += _circulant_inputs()
    seen = dict.fromkeys(["closed", "closed after switches",
                          "closed at a later attempt", "no decomposition",
                          "stuck", "stuck after switches", "late"], 0)
    attempts = switches.CLOSURE_ATTEMPTS
    try:
        for k, case in enumerate(cases):
            big = case[0] > 20
            for seed in SEEDS if big else SEEDS[k % 3:k % 3 + 1]:
                c, pure = _outcomes(*case, seed)
                assert c == pure, (k, seed)
                if isinstance(c[1], int):
                    seen["closed"] += 1
                    seen["closed after switches"] += c[2] > 0
                    seen["closed at a later attempt"] += c[1] > 1
                else:
                    seen["no decomposition"] += "no full" in c[1]
            switches.CLOSURE_ATTEMPTS = 1
            c, pure = _outcomes(*case, k)
            assert c == pure, (k, "one attempt")
            stuck = "split attempts" in str(c[1])
            seen["stuck"] += stuck
            seen["stuck after switches"] += stuck and " 0 swaps" not in c[1]
            switches.CLOSURE_ATTEMPTS = attempts
            c, pure = _outcomes(*case, k, float("-inf"))
            assert c == pure, (k, "late")
            seen["late"] += c[0] == "WallClockExceeded"
    finally:
        switches.CLOSURE_ATTEMPTS = attempts
    return seen


def test_c_engine_agrees_with_pure():
    # the same cycles, attempts and switches, and the same failures, from
    # the C engine as from the Python one
    if hamkernel.KERNEL != "c":
        pytest.skip("the C kernel did not load")
    seen = engine_sweep()
    assert all(seen.values()), seen


def test_c_shuffle_is_random_shuffle():
    # the C engine's stream is Python's: MT19937 seeded as random.seed
    # seeds it from an int, and shuffle's Fisher-Yates over _randbelow
    if hamkernel.KERNEL != "c":
        pytest.skip("the C kernel did not load")
    for seed in (0, 1, -1, 12345, 2**32 - 1, 2**32, -(2**40) - 3, 2**100 + 7):
        key, used = hamkernel.seed_words(seed)
        for length in range(1, 301):
            out = array("i", bytes(4 * length))
            hamkernel._DLL.hk_shuffle(key.buffer_info()[0], used, length,
                                      out.buffer_info()[0])
            expected = list(range(length))
            random.Random(seed).shuffle(expected)
            assert out.tolist() == expected, (seed, length)


# inputs the engines reject, each with the vertex or edge the error names
BAD_INPUTS = [
    # an A-A edge and a B-B edge
    (4, [0, 1], frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}), [frozenset()],
     "first bad"),
    (4, [0, 1], frozenset({(0, 2), (1, 7)}), [frozenset()], "(1, 7)"),
    (4, [0, 1], frozenset({(0, 2), (-1, 3)}), [frozenset()], "(-1, 3)"),
    # past a C int, which the C engine leaves to the Python one
    (4, [0, 1], frozenset({(0, 2), (1, 2**40)}), [frozenset()],
     f"(1, {2**40})"),
    (4, [0, 1], frozenset({(2, 0)}), [frozenset()], "(2, 0)"),
    (4, [0, 4], frozenset({(0, 2)}), [frozenset()], "vertex 4 of A"),
    (4, [0, 1, 0], frozenset({(0, 2)}), [frozenset()], "vertex 0 of A"),
    (4, [0, 1], frozenset({(0, 2)}), [frozenset(), frozenset({(1, 5)})],
     "edge (1, 5) of path system 1"),
    (4, [0, 1], frozenset({(0, 2)}), [frozenset({(2, 0)})],
     "edge (2, 0) of path system 0"),
    (0, [], frozenset(), [frozenset()], "on 0 vertices"),
]


@pytest.mark.parametrize("n, A, pool, systems, names", BAD_INPUTS,
                         ids=[case[-1] for case in BAD_INPUTS])
def test_engines_reject_malformed_input(n, A, pool, systems, names):
    # checked once, before any attempt, by both engines: the first vertex
    # or edge that is not where the engine needs it, named, and never a
    # traceback
    if names == "first bad":
        names = repr(next(e for e in pool if (e[0] in A) == (e[1] in A)))
    c, pure = _outcomes(n, A, pool, systems, 1)
    assert c == pure
    assert c[0] == "BadParams" and names in c[1], c


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
