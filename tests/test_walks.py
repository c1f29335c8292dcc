"""Chord sequences, parity walks, bi-setups, robust-contract arithmetic."""

import random

import pytest

from bipham import hamkernel, search
from bipham.errors import BadParams, PreconditionViolated, Timeout
from bipham.graphs import Digraph, Graph, LabelledPartition
from bipham.partitioning import orient_scheme
from bipham.walks import (
    BiUniversalWalk,
    NoSequence,
    RobustParams,
    assemble_bisetup,
    build_biuniversal_walk,
    check_biuniversal,
    chord_sequence,
    verify_robust_params,
)


def _chord_digraph(k):
    arcs = set()
    for p in range(k):
        arcs.add((p, (p + 1) % k))
        arcs.add(((p - 1) % k, (p + 2) % k))
    return Digraph(k, arcs), list(range(k))


def test_chord_sequences():
    r, cyc = _chord_digraph(6)
    assert chord_sequence(r, cyc, 2, 2) == []
    assert chord_sequence(r, cyc, 2, 4) == [(1, 4)]
    # two hops when the target is four ahead
    seq = chord_sequence(r, cyc, 0, 4)
    assert len(seq) == 2
    sparse = Digraph(4, {(0, 1), (1, 2), (2, 3), (3, 0)})
    with pytest.raises(NoSequence):
        chord_sequence(sparse, [0, 1, 2, 3], 0, 2)
    # in a complete bipartite reduced digraph every two-ahead pair has the
    # single-arc sequence
    k = 6
    complete_bi = Digraph(
        k, [(p, q) for p in range(k) for q in range(k) if p % 2 != q % 2]
    )
    cyc = list(range(k))
    for i in range(k):
        seq = chord_sequence(complete_bi, cyc, i, (i + 2) % k)
        assert seq == [((i - 1) % k, (i + 2) % k)]


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("ell", [4, 6])
def test_biuniversal_walks(k, ell):
    r, cyc = _chord_digraph(k)
    walk = build_biuniversal_walk(r, cyc, ell)
    assert len(walk.order) == ell * k
    assert not check_biuniversal(walk)
    # parity classes enter and leave each cluster exactly ell/2 times
    odd = set(walk.order) - set(walk.even)
    for v in cyc:
        for cls in (set(walk.even), odd):
            assert sum(1 for i in cls if walk.edges[i].arc[1] == v) == ell // 2
            assert sum(1 for i in cls if walk.edges[i].arc[0] == v) == ell // 2


def test_biuniversal_checker_rejects_corruption():
    r, cyc = _chord_digraph(4)
    walk = build_biuniversal_walk(r, cyc, 4)
    # swapping two non-adjacent steps breaks the closed-walk property
    order = list(walk.order)
    order[0], order[5] = order[5], order[0]
    bad = BiUniversalWalk(walk.cycle, walk.ell_prime, order, walk.edges,
                          walk.even, walk.ecs)
    assert check_biuniversal(bad)


def test_preconditions():
    r, cyc = _chord_digraph(5)
    with pytest.raises(PreconditionViolated):
        build_biuniversal_walk(r, cyc, 4)  # odd cluster count
    r4, cyc4 = _chord_digraph(4)
    with pytest.raises(PreconditionViolated):
        build_biuniversal_walk(r4, cyc4, 5)  # odd walk parameter


def _scheme(K=2, m=4):
    n = 4 * K * m
    A = list(range(2 * K * m))[: K * m]
    B = list(range(K * m, 2 * K * m))
    g = Graph(2 * K * m, [(a, b) for a in A for b in B])
    part = LabelledPartition(
        2 * K * m, [], A, [], B,
        clusters_A=[A[i * m : (i + 1) * m] for i in range(K)],
        clusters_B=[B[i * m : (i + 1) * m] for i in range(K)],
    )
    gdir, _ = orient_scheme(g, part, "1/2", "1/4", seed=1)
    return gdir, part


def test_assemble_bisetup():
    gdir, part = _scheme()
    setup = assemble_bisetup(gdir, part, 4, "1", seed=0, check_pairs=True)
    assert len(setup.clusters) == 2 * part.K
    assert setup.checks["walk-visits"] == "every cluster visited exactly ell' times"
    # the refined walk visits the a-th subcluster on the a-th visit
    seen = {}
    for pos, a in setup.refined_walk:
        seen.setdefault(pos, []).append(a)
    assert all(v == list(range(4)) for v in seen.values())


def test_bisetup_divisibility_gate():
    gdir, part = _scheme(K=2, m=4)
    with pytest.raises(PreconditionViolated):
        assemble_bisetup(gdir, part, 6, "1/2", seed=0)  # 6 does not divide 4


def test_robust_params_identities():
    p = RobustParams(r=1, r1=3, g=2, f=1, L=1, ell_prime=4, K=14, m=16)
    assert p.r2 == 192 * 4 * 4 * 14
    assert p.r3 == 28
    assert p.r_diamond == p.r1 + p.r2 + p.r - 0 * p.r3
    assert p.s_prime == 2 * 14 + 7 * p.r_diamond
    verify_robust_params(p, p.r2, p.r3, p.r_diamond, p.s_prime)
    with pytest.raises(PreconditionViolated):
        verify_robust_params(p, p.r2 + 1, p.r3, p.r_diamond, p.s_prime)
    # with the walk parameter equal to g the chord-absorber size is 192 g^3 K r
    assert RobustParams(r=1, r1=1, g=2, f=1, L=1, ell_prime=2, K=14, m=16).r2 \
        == 192 * 2 ** 3 * 14


def _standalone_contract():
    """The robust-decomposition contract on K(28,28) with no remainder:
    (host, partition, factor family, params, result)."""
    from bipham.beps import build_bf_family
    from bipham.graphs import PathSystem
    from bipham.walks import robust_decomposition

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
    res = robust_decomposition(gdir, part, [], bf_prime, params)
    return g, part, bf_prime, params, res


def test_robust_decomposition_contract_standalone():
    from bipham.validate import check_decomposition, cycle_edges

    g, part, bf_prime, params, res = _standalone_contract()
    assert set(res.chord_absorber.degrees()) == {2 * params.r1}
    assert set(res.parity_switcher.degrees()) == {10 * params.r_diamond}
    cycles = res.closure(Graph(part.n, []))
    assert len(cycles) == params.s_prime
    assert not check_decomposition(g, [cycle_edges(c) for c in cycles])
    # each cycle contains one factor path system
    all_beps = [b for bf in bf_prime for b in bf.systems]
    for cyc, beps in zip(cycles, all_beps):
        assert beps.edge_set() <= cycle_edges(cyc)


def test_closure_failure_names_restarts_and_nodes(monkeypatch):
    # restarts get 50, 50, 100 and 50 nodes, too few for any descent: the
    # failure names the four restarts and the 250 nodes they spent
    from bipham import walks

    g, part, bf_prime, params, res = _standalone_contract()
    monkeypatch.setattr(walks, "RESTART_UNIT", 50)
    with pytest.raises(Timeout, match="closure: 4 restarts spent 250 nodes, "
                       "the last: node budget 50 spent at level ") as exc:
        res.closure(Graph(part.n, []), max_nodes=250)
    assert exc.value.stats == {"nodes": 250, "restarts": 4}


@pytest.mark.parametrize("budget", [{"max_nodes": 0}, {"max_nodes": -1},
                                    {"max_seconds": 0}])
def test_closure_rejects_non_positive_budget(budget):
    # with no node to spend no restart runs, so a Timeout would have no
    # last restart to name
    g, part, bf_prime, params, res = _standalone_contract()
    with pytest.raises(BadParams, match="^budget limits must be positive$"):
        res.closure(Graph(part.n, []), **budget)


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
