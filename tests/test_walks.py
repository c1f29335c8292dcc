"""The robust-decomposition contract: parameter arithmetic, absorbers and
the closure."""

import random

import pytest

from bipham import hamkernel, search
from bipham.errors import BackendUnavailable, BadParams, Timeout
from bipham.graphs import Graph, LabelledPartition
from bipham.partitioning import orient_scheme
from bipham.walks import RobustDecomposition, RobustParams


def test_robust_params_identities():
    p = RobustParams(r=1, r1=3, g=2, f=1, L=1, ell_prime=4, K=14, m=16)
    assert p.r2 == 192 * 4 * 4 * 14
    assert p.r3 == 28
    assert p.r_diamond == p.r1 + p.r2 + p.r - 0 * p.r3
    assert p.s_prime == 2 * 14 + 7 * p.r_diamond
    # with the walk parameter equal to g the chord-absorber size is 192 g^3 K r
    assert RobustParams(r=1, r1=1, g=2, f=1, L=1, ell_prime=2, K=14, m=16).r2 \
        == 192 * 2 ** 3 * 14


def _standalone_setup():
    """The robust-decomposition contract on K(28,28) with no remainder,
    before any absorber is built: (host, partition, factor family,
    params, backend)."""
    from bipham.beps import build_bf_family
    from bipham.graphs import PathSystem

    K, m = 7, 4
    nA = K * m
    A = list(range(nA))
    B = list(range(nA, 2 * nA))
    g = Graph(2 * nA, [(a, b) for a in A for b in B])
    part = LabelledPartition(
        2 * nA, [], A, [], B,
        clusters_A=[A[i * m : (i + 1) * m] for i in range(K)],
        clusters_B=[B[i * m : (i + 1) * m] for i in range(K)],
    )
    gdir, _ = orient_scheme(g, part, "1/2", "1/4", seed=3)
    params = RobustParams(r=0, r1=2, g=2, f=1, L=1, ell_prime=4, K=K, m=m)
    assert params.s_prime == 14
    empty = PathSystem(part.n, [])
    bf_prime = build_bf_family(
        gdir, part,
        {(i, 1): [empty, empty] for i in range(1, 8)},
        1, 7, params.r_diamond, min_interval=3,
    )
    return g, part, bf_prime, params, RobustDecomposition(gdir, part, params)


def _standalone_contract():
    """``_standalone_setup`` with both absorbers built around the factor
    family, ready for the closure."""
    g, part, bf_prime, params, rd = _standalone_setup()
    rd.build_chord_absorber([], extra_avoid=bf_prime)
    rd.build_parity_switcher(bf_prime)
    return g, part, bf_prime, params, rd


def test_robust_decomposition_contract_standalone():
    from bipham.validate import check_decomposition, cycle_edges

    g, part, bf_prime, params, rd = _standalone_contract()
    assert set(rd.ca.degrees()) == {2 * params.r1}
    assert set(rd.pca.degrees()) == {10 * params.r_diamond}
    cycles = rd.closure(Graph(part.n, []))
    assert len(cycles) == params.s_prime
    assert not check_decomposition(g, [cycle_edges(c) for c in cycles])
    # each cycle contains one factor path system
    all_beps = [b for bf in bf_prime for b in bf.systems]
    for cyc, beps in zip(cycles, all_beps):
        assert beps.edge_set() <= cycle_edges(cyc)


def test_absorbers_and_closure_run_in_order():
    # the parity switcher is built around the chord absorber, and the
    # closure decomposes both: a step taken early is refused
    g, part, bf_prime, params, rd = _standalone_setup()
    empty = Graph(part.n, [])
    with pytest.raises(BackendUnavailable, match="^chord absorber not built yet$"):
        rd.build_parity_switcher(bf_prime)
    with pytest.raises(BackendUnavailable, match="^absorbers not built yet$"):
        rd.closure(empty)
    rd.build_chord_absorber([], extra_avoid=bf_prime)
    with pytest.raises(BackendUnavailable, match="^absorbers not built yet$"):
        rd.closure(empty)


def test_closure_failure_names_restarts_and_nodes(monkeypatch):
    # restarts get 50, 50, 100 and 50 nodes, too few for any descent: the
    # failure names the four restarts and the 250 nodes they spent
    from bipham import walks

    g, part, bf_prime, params, rd = _standalone_contract()
    monkeypatch.setattr(walks, "RESTART_UNIT", 50)
    with pytest.raises(Timeout, match="closure: 4 restarts spent 250 nodes, "
                       "the last: node budget 50 spent at level ") as exc:
        rd.closure(Graph(part.n, []), max_nodes=250)
    assert exc.value.stats == {"nodes": 250, "restarts": 4}


@pytest.mark.parametrize("budget", [{"max_nodes": 0}, {"max_nodes": -1},
                                    {"max_seconds": 0},
                                    {"max_seconds": float("nan")}])
def test_closure_rejects_non_positive_budget(budget):
    # with no node to spend no restart runs, so a Timeout would have no
    # last restart to name; a NaN deadline never passes, so the wall-clock
    # safety net would be silently off
    g, part, bf_prime, params, rd = _standalone_contract()
    with pytest.raises(BadParams, match="^budget limits must be positive$"):
        rd.closure(Graph(part.n, []), **budget)


def _forced_level_case(rng, kind):
    """(n, pool, paths) for the closure's last level: the cycles of a
    random 2-regular graph, one (kind "closes") or 2-3 ("split"), with
    vertex-disjoint segments prescribed as paths and the rest as the pool;
    "degree 3" moves one end of a pool edge onto a third vertex and
    "count" drops a pool edge or adds one."""
    n = rng.randint(6, 12) if kind == "split" else rng.randint(4, 12)
    order = list(range(n))
    rng.shuffle(order)
    if kind == "split":
        cuts = [0, rng.randint(3, n - 3), n]
        if n >= 9 and rng.random() < 0.5:
            cuts = [0, rng.randint(3, n - 6), n]
            cuts.insert(2, rng.randint(cuts[1] + 3, n - 3))
        cycles = [order[a:b] for a, b in zip(cuts, cuts[1:])]
    else:
        cycles = [order]
    paths, edges = [], set()
    for cyc in cycles:
        edges |= {tuple(sorted((cyc[i - 1], cyc[i]))) for i in range(len(cyc))}
        pos = 0
        while pos < len(cyc) - 1:
            size = rng.randint(2, 4)
            if rng.random() < 0.4 and pos + size <= len(cyc):
                paths.append(tuple(cyc[pos:pos + size]))
                pos += size
            else:
                pos += 1
    path_edges = {tuple(sorted(e)) for p in paths for e in zip(p, p[1:])}
    pool = edges - path_edges
    if kind == "degree 3":
        u, v = rng.choice(sorted(pool))
        w = rng.choice([x for x in range(n) if x not in (u, v)
                        and tuple(sorted((u, x))) not in edges])
        pool = pool - {(u, v)} | {tuple(sorted((u, w)))}
    elif kind == "count":
        absent = [(a, b) for a in range(n) for b in range(a + 1, n)
                  if (a, b) not in edges]
        if rng.random() < 0.5 or not absent:
            pool = pool - {rng.choice(sorted(pool))}
        else:
            pool = pool | {rng.choice(absent)}
    return n, frozenset(pool), [search.Prescribed(p) for p in paths]


@pytest.mark.parametrize("kernel", ["default", "pure"])
def test_forced_level_decision_agrees_with_kernel(monkeypatch, kernel):
    # the closure decides its last level by a walk; the referee is a full
    # search of the same pool and paths, which at the forced level's edge
    # count finds a cycle exactly when the pool closes
    from bipham.validate import cycle_edges
    from bipham.walks import _closes

    if kernel == "pure":
        monkeypatch.setattr(search, "cycle_enumerator", hamkernel.PureGraphEnum)
    rng = random.Random(16)
    for trial in range(240):
        kind = ("closes", "split", "degree 3", "count")[trial % 4]
        n, pool, paths = _forced_level_case(rng, kind)
        path_edges = {tuple(sorted(e)) for p in paths
                      for e in zip(p.vertices, p.vertices[1:])}
        decided = _closes(n, pool, path_edges)
        assert decided == (kind == "closes"), (kind, n, pool, paths)
        found = search.CycleSearch(Graph._trusted(n, pool), paths)
        if len(pool) + len(path_edges) == n:
            assert decided == (found.first() is not None), (kind, n, pool)
        else:
            # more edges than a cycle takes: no cycle takes every one
            assert not any(cycle_edges(c) >= pool for c in found.cycles())


def test_divisibility_report():
    good = RobustParams(r=0, r1=1, g=2, f=1, L=1, ell_prime=4, K=42, m=16)
    assert good.divisibility_report() == []
    bad = RobustParams(r=0, r1=1, g=2, f=1, L=1, ell_prime=4, K=7, m=4)
    report = bad.divisibility_report()
    assert any("K/g" in x for x in report)
    assert any("m/4ell'" in x for x in report)
