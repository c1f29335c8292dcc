"""Differential test of the exact verifiers of the construction layers.

The references below are the rational-arithmetic verifiers that the counting
ones replaced, kept as they were: one Fraction per comparison and one set
scan per count.  On seeded eps-bipartite hosts with random partitions, and
with bounds drawn on the lattice of the instances' own deviations (so that
about half the checks fail, some deviations equal their bound exactly and
some exceed a bound just below it), both versions must give identical
problem lists, certificate conditions and violations.
"""

import random
from fractions import Fraction

import pytest

from bipham.balance import Violation, _check_wf, frac
from bipham.errors import BiphamError
from bipham.generators import eps_bipartite_instance
from bipham.graphs import Graph, LabelledPartition
from bipham.partitioning import (
    Certificate,
    _build_side_slices,
    verify_cluster_partition,
    verify_equipartition,
    verify_slices,
)

SEEDS = range(120)


# -- references: the verifiers as they were, Fraction per comparison ---------

def ref_verify_equipartition(g, f, U, R, parts, eps1, eps2, cert=None):
    eps1, eps2 = frac(eps1), frac(eps2)
    K = len(parts)
    n = g.n
    problems = []
    sizes = {len(p) for p in parts}
    if len(sizes) != 1:
        problems.append(f"(i) part sizes differ: {sorted(sizes)}")
    eU = g.e_within(U)
    slack_edges = eps2 * max(n, eU)

    worst = {"ii": Fraction(0), "iii": Fraction(0), "iv": Fraction(0),
             "v": Fraction(0), "vi": Fraction(0)}
    for v in range(n):
        dU = g.d(v, U)
        dUf = f.d(v, U)
        for i, p in enumerate(parts):
            dev = abs(Fraction(g.d(v, p)) - Fraction(dU, K))
            worst["ii"] = max(worst["ii"], dev)
            if dev > eps1 * n / K:
                problems.append(f"(ii) d({v},part {i}) deviates by {dev}")
            devf = abs(Fraction(f.d(v, p)) - Fraction(dUf, K))
            worst["vi"] = max(worst["vi"], devf)
            if devf > eps1 * n / K:
                problems.append(f"(vi) host degree d({v},part {i}) deviates by {devf}")
    for i in range(K):
        for i2 in range(i + 1, K):
            dev = abs(Fraction(g.e_between(parts[i], parts[i2])) - Fraction(2 * eU, K * K))
            worst["iii"] = max(worst["iii"], dev)
            if dev > 2 * slack_edges / (K * K):
                problems.append(f"(iii) e(part {i},part {i2}) deviates by {dev}")
        dev = abs(Fraction(g.e_within(parts[i])) - Fraction(eU, K * K))
        worst["iv"] = max(worst["iv"], dev)
        if dev > slack_edges / (K * K):
            problems.append(f"(iv) e(part {i}) deviates by {dev}")
    for j, Rj in enumerate(R):
        eUR = g.e_between(U, Rj) if Rj else 0
        for i in range(K):
            dev = abs(Fraction(g.e_between(parts[i], Rj) if Rj else 0) - Fraction(eUR, K))
            worst["v"] = max(worst["v"], dev)
            if dev > eps2 * max(n, eUR) / K:
                problems.append(f"(v) e(part {i}, R_{j}) deviates by {dev}")
    if cert is not None:
        for key, val in worst.items():
            cert.conditions[key] = f"max deviation {val}"
    return problems


def ref_verify_cluster_partition(g, part, eps1, eps2, cert=None, host=None):
    eps1, eps2 = frac(eps1), frac(eps2)
    n = g.n
    K = part.K
    problems = []
    if K is None:
        return ["no clusters"]

    def side_checks(side_name, side, clusters, A0):
        e_side = g.e_within(side)
        slack = eps2 * max(n, e_side)
        e_exc = g.e_between(A0, side) if A0 else 0
        for v in range(n):
            dS = g.d(v, side)
            for i, c in enumerate(clusters):
                dev = abs(Fraction(g.d(v, c)) - Fraction(dS, K))
                if dev > eps1 * n / K:
                    problems.append(
                        f"(P2/{side_name}) d({v},cluster {i + 1}) deviates by {dev}"
                    )
        for i in range(K):
            for j in range(i + 1, K):
                dev = abs(
                    Fraction(g.e_between(clusters[i], clusters[j]))
                    - Fraction(2 * e_side, K * K)
                )
                if dev > 2 * slack / (K * K):
                    problems.append(
                        f"(P3/{side_name}) e(cluster {i + 1},cluster {j + 1}) deviates by {dev}"
                    )
            dev = abs(Fraction(g.e_within(clusters[i])) - Fraction(e_side, K * K))
            if dev > slack / (K * K):
                problems.append(f"(P4/{side_name}) e(cluster {i + 1}) deviates by {dev}")
            devx = abs(
                Fraction(g.e_between(A0, clusters[i]) if A0 else 0)
                - Fraction(e_exc, K)
            )
            if devx > eps2 * max(n, e_exc) / K:
                problems.append(
                    f"(P5/{side_name}) e(exceptional, cluster {i + 1}) deviates by {devx}"
                )

    side_checks("A", part.A, part.clusters_A, part.A0)
    side_checks("B", part.B, part.clusters_B, part.B0)
    eAB = g.e_between(part.A, part.B)
    for i in range(K):
        for j in range(K):
            dev = abs(
                Fraction(g.e_between(part.clusters_A[i], part.clusters_B[j]))
                - Fraction(eAB, K * K)
            )
            if dev > 3 * eps2 * eAB / (K * K):
                problems.append(f"(P6) e(A_{i + 1},B_{j + 1}) deviates by {dev}")
    if host is not None:
        for v in range(n):
            for clusters, side in (
                (part.clusters_A, part.A),
                (part.clusters_B, part.B),
            ):
                dS = host.d(v, side)
                for i, c in enumerate(clusters):
                    dev = abs(Fraction(host.d(v, c)) - Fraction(dS, K))
                    if dev > eps1 * n / K:
                        problems.append(
                            f"(host) d({v},cluster {i + 1}) deviates by {dev}"
                        )
    if cert is not None:
        cert.conditions["P1-P6"] = "pass" if not problems else problems[0]
    return problems


def ref_verify_slices(g, part, slices, side, eps1, eps2):
    eps1, eps2 = frac(eps1), frac(eps2)
    K = part.K
    n = g.n
    A0 = part.A0 if side == "A" else part.B0
    clusters = part.clusters_A if side == "A" else part.clusters_B
    side_set = part.A_prime() if side == "A" else part.B_prime()
    inner = part.A if side == "A" else part.B
    problems = []
    e_prime = g.e_within(side_set)
    e_exc = g.e_between(A0, inner) if A0 else 0
    e_inner = g.e_within(inner)
    union = set()
    total = 0
    for (i, j), edges in sorted(slices.items()):
        allowed = set(A0) | set(clusters[i - 1]) | set(clusters[j - 1])
        for u, v in edges:
            if u not in allowed or v not in allowed:
                problems.append(f"(i) edge ({u},{v}) outside slice ({i},{j}) support")
        total += len(edges)
        if union & edges:
            problems.append(f"(ii) slice ({i},{j}) overlaps earlier slices")
        union |= edges
        dev = abs(Fraction(len(edges)) - Fraction(e_prime, K * K))
        if dev > 9 * eps2 * max(n, e_prime) / (K * K):
            problems.append(f"(iii) e(slice {i},{j}) deviates by {dev}")
        exc_part = sum(1 for u, v in edges if (u in set(A0)) != (v in set(A0)))
        dev = abs(Fraction(exc_part) - Fraction(e_exc, K * K))
        if dev > 2 * eps2 * max(n, e_exc) / (K * K):
            problems.append(f"(iv) exceptional edges of slice ({i},{j}) deviate by {dev}")
        in_part = sum(
            1 for u, v in edges if u not in set(A0) and v not in set(A0)
        )
        dev = abs(Fraction(in_part) - Fraction(e_inner, K * K))
        if dev > 2 * eps2 * max(n, e_inner) / (K * K):
            problems.append(f"(v) inner edges of slice ({i},{j}) deviate by {dev}")
        for v in A0:
            dv = sum(1 for e in edges if v in e)
            dev = abs(Fraction(dv) - Fraction(g.d(v, inner), K * K))
            if dev > 4 * eps1 * n / (K * K):
                problems.append(
                    f"(vi) degree of exceptional {v} in slice ({i},{j}) deviates by {dev}"
                )
    if union != g.edges_within(side_set) or total != e_prime:
        problems.append("(ii) slices do not partition the side's edge set")
    return problems


def ref_internal_degree(g, part, v):
    side = part.A_prime() if v in part.A_prime() else part.B_prime()
    return g.d(v, side)


def ref_balance_defect(g, part, D):
    eA = g.e_within(part.A_prime())
    eB = g.e_within(part.B_prime())
    size_diff = (part.a + len(part.A)) - (part.b + len(part.B))
    bad_deg = {v: g.degree(v) for v in part.A0 + part.B0 if g.degree(v) != D}
    return {
        "edge_identity": 2 * (eA - eB) == size_diff * D,
        "lhs_times_2": 2 * (eA - eB),
        "rhs_times_2": size_diff * D,
        "bad_degrees": bad_deg,
    }


def ref_check_wf(g, f, part, D, eps, eps_prime, K):
    n = g.n
    out = {}

    def add(cond, detail, witness=()):
        out.setdefault(cond, []).append(Violation(cond, detail, tuple(witness)))

    dd = ref_balance_defect(g, part, D)
    if not dd["edge_identity"]:
        add(
            "WF2",
            f"2(e(A')-e(B')) = {dd['lhs_times_2']} != {dd['rhs_times_2']}",
        )
    for v in sorted(dd["bad_degrees"]):
        add("WF2", f"exceptional vertex {v} has degree {dd['bad_degrees'][v]} != {D}", (v,))

    eA = g.e_within(part.A_prime())
    eB = g.e_within(part.B_prime())
    if eA > eps * n * n:
        add("WF3", f"e(A') = {eA} > eps*n^2 = {eps * n * n}")
    if eB > eps * n * n:
        add("WF3", f"e(B') = {eB} > eps*n^2 = {eps * n * n}")

    if len(part.A) != len(part.B):
        add("WF4", f"|A| = {len(part.A)} != |B| = {len(part.B)}")
    if K <= 0 or len(part.A) % K != 0:
        add("WF4", f"|A| = {len(part.A)} not divisible by K = {K}")
    if part.a + part.b > eps * n:
        add("WF4", f"a+b = {part.a + part.b} > eps*n = {eps * n}")

    for v in part.A + part.B:
        dint = ref_internal_degree(f, part, v)
        if dint > eps_prime * n:
            add("WF5", f"internal degree {dint} of {v} in host > eps'*n", (v,))
        dint_self = ref_internal_degree(g, part, v)
        if dint_self > eps_prime * n:
            add("FR5", f"internal degree {dint_self} of {v} > eps'*n", (v,))

    for v in range(n):
        dint = ref_internal_degree(g, part, v)
        if 2 * dint > g.degree(v):
            add("WF6", f"internal degree {dint} of {v} > d(v)/2 = {g.degree(v)}/2", (v,))

    if part.b > part.a:
        add("FR4", f"|B0| = {part.b} > |A0| = {part.a}")
    e_cross = g.e_between(part.A0, part.B0) if part.A0 and part.B0 else 0
    if e_cross != 0:
        add("FR6", f"e(A0,B0) = {e_cross} != 0")
    for v in range(n):
        dint = ref_internal_degree(g, part, v)
        if dint > Fraction(g.degree(v), 2) + eps * n:
            add("FR7", f"internal degree {dint} of {v} > d(v)/2 + eps*n", (v,))
    return out


# -- seeded instances ---------------------------------------------------------

def _instance(seed):
    """An eps-bipartite host f with its D-regular subgraph g, and a random
    clustered partition: a few vertices moved across the planted split, the
    surplus of each side made exceptional so that |A| = |B| is a multiple
    of K, and random clusters."""
    rng = random.Random(seed)
    n = rng.choice([16, 20, 24, 28])
    D = rng.choice([4, 6])
    for gen_seed in range(1000 * seed, 1000 * seed + 50):
        try:
            f, split, _, g = eps_bipartite_instance(
                n=n, D=D, eps="1/8", hubs=rng.choice([1, 2]),
                hub_degree=n // 4 + 1, extra_internal=rng.randint(0, 2),
                seed=gen_seed,
            )
            break
        except BiphamError:
            continue
    s1, s2 = list(split.A), list(split.B)
    for _ in range(rng.randint(0, 2)):
        v = s1.pop(rng.randrange(len(s1)))
        s2.append(s2.pop(rng.randrange(len(s2))))
        s1.append(s2.pop())
        s2.append(v)
    rng.shuffle(s1)
    rng.shuffle(s2)
    K = rng.choice([1, 2, 3])
    size = (min(len(s1), len(s2)) - rng.randint(0, 3)) // K * K
    A0, A = s1[: len(s1) - size], s1[len(s1) - size :]
    B0, B = s2[: len(s2) - size], s2[len(s2) - size :]
    m = size // K
    part = LabelledPartition(
        n, A0, A, B0, B,
        clusters_A=[A[i * m : (i + 1) * m] for i in range(K)],
        clusters_B=[B[i * m : (i + 1) * m] for i in range(K)],
    )
    return rng, f, g, part


def _bound(rng, scale, top):
    """A rational r for conditions that compare an integer deviation with
    r * scale: on the integer lattice (a deviation of t meets it exactly),
    just below a lattice point, or anywhere in between."""
    t = rng.randint(0, top)
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(t, scale)
    if kind == 1:
        return Fraction(t, scale) - Fraction(1, 997 * scale)
    return Fraction(rng.randint(0, 7 * top), 7 * scale)


def _e_slack_scale(rng, n, counts, factors):
    """One of the ``factor * max(n, count)`` scales of an edge condition."""
    return rng.choice(factors) * max(n, rng.choice(counts))


# -- the differential checks --------------------------------------------------

def _outcome_equipartition(seed, uncovered=False):
    """With ``uncovered``, every part drops one or two of its vertices, so
    that the parts leave some of U uncovered, and half the time the parts
    also take the first reference set, which lies outside U."""
    rng, f, g, part = _instance(seed)
    graph = rng.choice([g, f])
    side = rng.choice("AB")
    if side == "A":
        U, R = list(part.A), [part.A0, part.B0, part.B]
    else:
        U, R = list(part.B), [part.B0, part.A0] + list(part.clusters_A)
    K = part.K
    parts = [list(c) for c in (part.clusters_A if side == "A" else part.clusters_B)]
    if rng.random() < 0.1 and len(parts[0]) > 1:
        parts[-1] = parts[-1][:-1]  # unequal sizes: condition (i)
    if uncovered:
        drop = rng.randint(1, 2)
        parts = [sorted(rng.sample(p, max(len(p) - drop, 0))) for p in parts]
        if R[0] and rng.random() < 0.5:
            for t, x in enumerate(R[0]):
                parts[t % K].append(x)
            R = R[1:]
    n = g.n
    eU = graph.e_within(U)
    eUR = [graph.e_between(U, Rj) if Rj else 0 for Rj in R]
    # an uncovered vertex adds its degree to the deviations: wider bounds
    spread = 4 if uncovered else 1
    eps1 = _bound(rng, n, 4 * K * spread)
    eps2 = _bound(rng, _e_slack_scale(rng, n, [eU] + eUR, [1, 2]),
                  3 * K * K * spread)
    cert_ref, cert_new = Certificate(), Certificate()
    ref = ref_verify_equipartition(graph, f, U, R, parts, eps1, eps2, cert_ref)
    new = verify_equipartition(graph, f, U, R, parts, eps1, eps2, cert_new)
    return ref, new, cert_ref.conditions, cert_new.conditions, bool(ref)


def _outcome_cluster_partition(seed):
    rng, f, g, part = _instance(seed)
    graph = rng.choice([g, f])
    host = rng.choice([None, f, graph])
    K, n = part.K, graph.n
    counts = [
        graph.e_within(part.A), graph.e_within(part.B),
        graph.e_between(part.A0, part.A) if part.A0 else 0,
        graph.e_between(part.B0, part.B) if part.B0 else 0,
    ]
    eps1 = _bound(rng, n, 4 * K)
    if rng.random() < 0.25:
        eps2 = _bound(rng, 3 * graph.e_between(part.A, part.B), K * K)
    else:
        eps2 = _bound(rng, _e_slack_scale(rng, n, counts, [1, 2]), 3 * K * K)
    cert_ref, cert_new = Certificate(), Certificate()
    ref = ref_verify_cluster_partition(graph, part, eps1, eps2, cert_ref, host=host)
    new = verify_cluster_partition(graph, part, eps1, eps2, cert_new, host=host)
    return ref, new, cert_ref.conditions, cert_new.conditions, bool(ref)


def _outcome_slices(seed):
    rng, f, g, part = _instance(seed)
    graph = rng.choice([g, f])
    side = rng.choice("AB")
    A0 = part.A0 if side == "A" else part.B0
    clusters = part.clusters_A if side == "A" else part.clusters_B
    slices = dict(_build_side_slices(graph, A0, clusters, part.K, rng))
    keys = sorted(slices)
    if rng.random() < 0.3:
        # move, drop or copy one edge, or add one from outside the side
        src = rng.choice([k for k in keys if slices[k]] or keys)
        edge = rng.choice(sorted(slices[src])) if slices[src] else None
        dst = rng.choice(keys)
        op = rng.randrange(4)
        if edge is not None and op < 3:
            if op < 2:
                slices[src] = slices[src] - {edge}
            if op != 1:
                slices[dst] = slices[dst] | {edge}
        else:
            other = part.B_prime() if side == "A" else part.A_prime()
            outside = sorted(e for e in graph.edges if set(e) & other)
            slices[dst] = slices[dst] | {rng.choice(outside)}
    K, n = part.K, graph.n
    inner = part.A if side == "A" else part.B
    side_set = part.A_prime() if side == "A" else part.B_prime()
    counts = [
        graph.e_within(side_set), graph.e_within(inner),
        graph.e_between(A0, inner) if A0 else 0,
    ]
    eps1 = _bound(rng, 4 * n, 3 * K * K)
    eps2 = _bound(rng, _e_slack_scale(rng, n, counts, [2, 9]), 3 * K * K)
    ref = ref_verify_slices(graph, part, slices, side, eps1, eps2)
    new = verify_slices(graph, part, slices, side, eps1, eps2)
    return ref, new, None, None, bool(ref)


def _outcome_framework(seed):
    rng, f, g, part = _instance(seed)
    graph = rng.choice([g, f])
    host = rng.choice([graph, f])
    n = graph.n
    D = rng.choice([graph.degree(0), graph.degree(0) - 2, n // 4])
    K = rng.choice([part.K, part.K + 1, 0])
    # the lattices of WF3 (eps*n^2), WF4 (eps*n), FR7 (2*eps*n) and
    # WF5/FR5 (eps'*n)
    eps = rng.choice([
        _bound(rng, n * n, n),
        _bound(rng, n, 6),
        _bound(rng, 2 * n, graph.degree(0)),
    ])
    eps_prime = _bound(rng, n, n)
    ref = ref_check_wf(graph, host, part, D, eps, eps_prime, K)
    new = _check_wf(graph, host, part, D, eps, eps_prime, K)
    # WF2, WF6, FR4, FR6 and the size part of WF4 do not depend on eps
    bounded = any(c in ref for c in ("WF3", "WF5", "FR5", "FR7"))
    return list(ref.items()), list(new.items()), None, None, bounded


OUTCOMES = {
    "equipartition": _outcome_equipartition,
    "equipartition-uncovered": lambda seed: _outcome_equipartition(seed, True),
    "cluster_partition": _outcome_cluster_partition,
    "slices": _outcome_slices,
    "framework": _outcome_framework,
}


@pytest.mark.parametrize("verifier", sorted(OUTCOMES))
def test_verifier_matches_rational_reference(verifier):
    failing = 0
    for seed in SEEDS:
        ref, new, cond_ref, cond_new, failed = OUTCOMES[verifier](seed)
        assert new == ref, (verifier, seed)
        assert cond_new == cond_ref, (verifier, seed)
        failing += failed
    # the bounds are tight enough that many instances fail a bounded
    # condition, loose enough that many pass them all
    print(f"\n{verifier}: {failing}/{len(SEEDS)} instances fail")
    assert len(SEEDS) // 5 <= failing <= len(SEEDS) * 4 // 5, failing


def test_deviation_equal_to_its_bound_passes():
    # K(4,4) minus the edge (0,4), two clusters per side: vertices 0 and 4
    # see 3 vertices of the other side, 1 and 2 per cluster, a deviation of
    # 1/2 from 3/2; with eps1 = 1/8 the bound eps1*n/K is exactly 1/2
    g = Graph(8, [(a, b) for a in range(4) for b in range(4, 8) if (a, b) != (0, 4)])
    part = LabelledPartition(
        8, [], range(4), [], range(4, 8),
        clusters_A=[[0, 1], [2, 3]], clusters_B=[[4, 5], [6, 7]],
    )
    for verify in (verify_cluster_partition, ref_verify_cluster_partition):
        assert verify(g, part, Fraction(1, 8), 1) == []
        assert verify(g, part, Fraction(1, 8) - Fraction(1, 10**9), 1) == [
            "(P2/A) d(4,cluster 1) deviates by 1/2",
            "(P2/A) d(4,cluster 2) deviates by 1/2",
            "(P2/B) d(0,cluster 1) deviates by 1/2",
            "(P2/B) d(0,cluster 2) deviates by 1/2",
        ]
