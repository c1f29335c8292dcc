"""Randomized partitions with certified properties.

Every operation here follows the same retry-until-verified pattern: sample
a uniformly random structure, verify every claimed property exhaustively
with exact thresholds, and retry with fresh randomness (``DEFAULT_ATTEMPTS``
times at most) when verification fails.  Certificates record the achieved
deviations so reports can show how much slack was left.

The verifiers count each degree and edge number once, in one pass over the
graph's edges, and stay exact in integers: a condition |x - y/q| > r with
integer counts x, y is decided by cross-multiplying, as |q*x - y| >
floor(q*r).  A Fraction appears only in the text of a failed condition and
in a certificate's worst deviation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import ceil, floor
from typing import Sequence

from .balance import Framework, frac, require_kind
from .errors import BadParams, DivisibilityError, RetryBudgetExceeded
from .graphs import Graph, LabelledPartition, class_labels

DEFAULT_ATTEMPTS = 64


@dataclass
class Certificate:
    """Verification record: per-condition pass/fail with worst deviations."""

    conditions: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    attempts: int = 0
    seed: int = 0

    def as_json(self):
        return {
            "conditions": dict(sorted(self.conditions.items())),
            "warnings": list(self.warnings),
            "attempts": self.attempts,
            "seed": self.seed,
        }


def _chunks(seq: list, k: int) -> list[list]:
    m = len(seq) // k
    return [seq[i * m : (i + 1) * m] for i in range(k)]


# -- random equipartition with degree/edge control ---------------------------

def random_equipartition(
    g: Graph,
    f: Graph,
    U: Sequence[int],
    R: Sequence[Sequence[int]],
    K: int,
    eps,
    eps1,
    eps2,
    seed: int = 0,
) -> tuple[list[list[int]], Certificate]:
    """Partition U into K parts of equal size m so that every vertex degree
    into every part, edge counts inside and between parts, and edge counts
    into each reference set R_j split essentially evenly.

    The degree-dichotomy entry conditions are checked and reported as
    warnings only: at small n the max-based slack terms often absorb
    violations, so runs proceed.  They are counted in one pass over the
    edges of ``g``, so U and the reference sets must be pairwise disjoint
    (BadParams otherwise).
    """
    eps, eps1, eps2 = frac(eps), frac(eps1), frac(eps2)
    U = sorted(U)
    if len(U) % K != 0:
        raise DivisibilityError(f"|U| = {len(U)} not divisible by K = {K}")
    n = g.n
    warnings = []
    # d >= eps*n iff d >= ceil(eps*n); d <= eps*n iff d <= floor(eps*n)
    lo, hi = ceil(eps * n), floor(eps * n)
    # class 0 is U, class j + 1 the reference set R_j
    rows = g.class_degrees(class_labels(n, [U, *R]), 1 + len(R))
    du = [rows[v][0] for v in U]
    if du and not (min(du) >= lo or max(du) <= hi):
        warnings.append(
            f"degree dichotomy fails on U: min {min(du)}, max {max(du)}, eps*n={eps * n}"
        )
    for j, Rj in enumerate(R, 1):
        up = all(rows[u][j] <= hi for u in U)
        down = all(rows[x][0] >= lo for x in Rj)
        if not (up or down):
            warnings.append(f"degree dichotomy fails for reference set {j - 1}")

    last = []
    for attempt in range(DEFAULT_ATTEMPTS):
        rng = random.Random((seed, attempt).__hash__())
        shuffled = list(U)
        rng.shuffle(shuffled)
        parts = [sorted(c) for c in _chunks(shuffled, K)]
        cert = Certificate(warnings=list(warnings), attempts=attempt + 1, seed=seed)
        problems = verify_equipartition(g, f, U, R, parts, eps1, eps2, cert)
        if not problems:
            return parts, cert
        last = problems
    raise RetryBudgetExceeded(
        f"equipartition of {len(U)} vertices into {K} parts failed verification",
        attempts=DEFAULT_ATTEMPTS,
        last_failures=last[:5],
    )


def verify_equipartition(
    g: Graph,
    f: Graph,
    U: Sequence[int],
    R: Sequence[Sequence[int]],
    parts: Sequence[Sequence[int]],
    eps1,
    eps2,
    cert: Certificate | None = None,
) -> list[str]:
    """Exhaustive recount of all six equipartition conditions from the
    graphs' own edges; independent of the sampling code.

    Each condition |x - y/q| > r (x, y integers) is decided as
    |q*x - y| > floor(q*r).  Every degree and edge count comes from one
    pass over each graph's edges."""
    eps1, eps2 = frac(eps1), frac(eps2)
    K = len(parts)
    n = g.n
    problems = []
    sizes = {len(p) for p in parts}
    if len(sizes) != 1:
        problems.append(f"(i) part sizes differ: {sorted(sizes)}")
    in_U = class_labels(n, [U])
    part_of = class_labels(n, parts)
    if any(in_U[x] == 0 or part_of[x] >= 0 for Rj in R for x in Rj):
        raise BadParams("reference sets must be disjoint from U and the parts")
    g_U, g_P = _u_and_part_degrees(g, in_U, part_of, K)
    f_U, f_P = (g_U, g_P) if f is g else _u_and_part_degrees(f, in_U, part_of, K)
    # e(part i, part i2) sums d(x, part i2) over x in part i, which counts
    # each edge inside a part twice; e(U) likewise
    members = [[] for _ in range(K)]
    for v, i in enumerate(part_of):
        if i >= 0:
            members[i].append(v)
    e_P = [[sum(g_P[x][i2] for x in xs) for i2 in range(K)] for xs in members]
    for i in range(K):
        e_P[i][i] //= 2
    eU = sum(d for d, u in zip(g_U, in_U) if u == 0) // 2
    deg_bound = floor(eps1 * n)
    within_bound = floor(eps2 * max(n, eU))
    between_bound = floor(2 * eps2 * max(n, eU))

    # worst |q*x - y| per condition, with its q
    worst = {"ii": 0, "iii": 0, "iv": 0, "v": 0, "vi": 0}
    devs = _degree_deviations(g_P, g_U, K)
    devfs = devs if f is g else _degree_deviations(f_P, f_U, K)
    worst["ii"] = max(map(max, devs), default=0)
    worst["vi"] = max(map(max, devfs), default=0)
    if max(worst["ii"], worst["vi"]) > deg_bound:
        for v in range(n):
            for i in range(K):
                dev, devf = devs[i][v], devfs[i][v]
                if dev > deg_bound:
                    problems.append(
                        f"(ii) d({v},part {i}) deviates by {Fraction(dev, K)}")
                if devf > deg_bound:
                    problems.append(
                        f"(vi) host degree d({v},part {i}) deviates by "
                        f"{Fraction(devf, K)}"
                    )
    for i in range(K):
        for i2 in range(i + 1, K):
            dev = abs(K * K * e_P[i][i2] - 2 * eU)
            worst["iii"] = max(worst["iii"], dev)
            if dev > between_bound:
                problems.append(
                    f"(iii) e(part {i},part {i2}) deviates by {Fraction(dev, K * K)}"
                )
        dev = abs(K * K * e_P[i][i] - eU)
        worst["iv"] = max(worst["iv"], dev)
        if dev > within_bound:
            problems.append(f"(iv) e(part {i}) deviates by {Fraction(dev, K * K)}")
    for j, Rj in enumerate(R):
        Rj = set(Rj)
        eUR = sum(g_U[x] for x in Rj)
        bound = floor(eps2 * max(n, eUR))
        for i in range(K):
            dev = abs(K * sum(g_P[x][i] for x in Rj) - eUR)
            worst["v"] = max(worst["v"], dev)
            if dev > bound:
                problems.append(f"(v) e(part {i}, R_{j}) deviates by {Fraction(dev, K)}")
    if cert is not None:
        q = {"ii": K, "iii": K * K, "iv": K * K, "v": K, "vi": K}
        for key, val in worst.items():
            # val is 0 when there are no parts (q = 0)
            cert.conditions[key] = f"max deviation {Fraction(val, q[key]) if val else 0}"
    return problems


def _u_and_part_degrees(g: Graph, in_U, part_of, K):
    """``(d_U, rows)``: d(v, U) for every vertex v of ``g``, and rows whose
    first K entries are the degrees d(v, part i), from one pass over its
    edges.  A vertex of U in no part is class K, so the counts hold for
    parts that do not cover U; a part vertex outside U is taken back out
    of d(v, U) through its neighbours."""
    label = [K if p < 0 and u == 0 else p for u, p in zip(in_U, part_of)]
    rows = g.class_degrees(label, K + 1)
    d_U = list(map(sum, rows))
    for w, (u, p) in enumerate(zip(in_U, part_of)):
        if p >= 0 and u != 0:
            for v in g.adj[w]:
                d_U[v] -= 1
    return d_U, rows


def _degree_deviations(rows, d_U, K) -> list[list[int]]:
    """``devs[i][v]`` = |K*d(v, part i) - d(v, U)|, a column per part."""
    return [[abs(K * d - u) for d, u in zip(col, d_U)]
            for col in islice(zip(*rows), K)]


# -- partition of a framework into clusters ----------------------------------

def framework_partition(
    fw: Framework,
    f: Graph | None,
    K: int,
    eps1,
    eps2,
    seed: int = 0,
) -> tuple[LabelledPartition, Certificate]:
    """Split A and B of a full framework into K clusters each, certifying
    the six per-cluster degree/edge-count properties for the framework graph
    and the degree property for the host graph f."""
    require_kind(fw, "full")
    g = fw.graph
    part = fw.partition
    f = f if f is not None else g
    warnings = []
    if g.min_degree() < fw.D:
        warnings.append(f"min degree {g.min_degree()} < D = {fw.D}")
    clusters_A, cert_a = random_equipartition(
        g, f, part.A, [part.A0, part.B0, part.B], K,
        fw.eps_prime, eps1, eps2, seed=seed)
    clusters_B, cert_b = random_equipartition(
        g, f, part.B, [part.B0, part.A0] + clusters_A, K,
        fw.eps_prime, eps1, eps2, seed=seed + 1)
    clustered = part.with_clusters(clusters_A, clusters_B)
    cert = Certificate(
        warnings=warnings + cert_a.warnings + cert_b.warnings,
        attempts=cert_a.attempts + cert_b.attempts,
        seed=seed,
    )
    problems = verify_cluster_partition(g, clustered, eps1, eps2, cert, host=f)
    if problems:
        raise RetryBudgetExceeded(
            "cluster partition verification failed", last_failures=problems[:5]
        )
    return clustered, cert


def verify_cluster_partition(
    g: Graph,
    part: LabelledPartition,
    eps1,
    eps2,
    cert: Certificate | None = None,
    host: Graph | None = None,
) -> list[str]:
    """The six cluster-partition properties, recounted from scratch from
    the graphs' own edges, compared as in ``verify_equipartition``."""
    eps1, eps2 = frac(eps1), frac(eps2)
    n = g.n
    K = part.K
    problems = []
    if K is None:
        return ["no clusters"]
    # classes: A-clusters 0..K-1, B-clusters K..2K-1, A0 = 2K, B0 = 2K+1
    label = class_labels(
        n, [*part.clusters_A, *part.clusters_B, part.A0, part.B0]
    )
    rows = g.class_degrees(label, 2 * K + 2)
    e = g.class_edge_counts(label, 2 * K + 2)
    deg_bound = floor(eps1 * n)

    def degree_checks(tag, degrees, v, off):
        row = degrees[v]
        dS = sum(row[off : off + K])
        for i in range(K):
            dev = abs(K * row[off + i] - dS)
            if dev > deg_bound:
                problems.append(
                    f"({tag}) d({v},cluster {i + 1}) deviates by {Fraction(dev, K)}"
                )

    def side_checks(side_name, off, exc):
        cl = range(off, off + K)
        e_side = sum(e[i][j] for i in cl for j in cl if i <= j)
        e_exc = sum(e[exc][i] for i in cl)
        for v in range(n):
            degree_checks(f"P2/{side_name}", rows, v, off)
        between_bound = floor(2 * eps2 * max(n, e_side))
        within_bound = floor(eps2 * max(n, e_side))
        exc_bound = floor(eps2 * max(n, e_exc))
        for i in range(K):
            for j in range(i + 1, K):
                dev = abs(K * K * e[off + i][off + j] - 2 * e_side)
                if dev > between_bound:
                    problems.append(
                        f"(P3/{side_name}) e(cluster {i + 1},cluster {j + 1}) "
                        f"deviates by {Fraction(dev, K * K)}"
                    )
            dev = abs(K * K * e[off + i][off + i] - e_side)
            if dev > within_bound:
                problems.append(
                    f"(P4/{side_name}) e(cluster {i + 1}) deviates by {Fraction(dev, K * K)}"
                )
            devx = abs(K * e[exc][off + i] - e_exc)
            if devx > exc_bound:
                problems.append(
                    f"(P5/{side_name}) e(exceptional, cluster {i + 1}) "
                    f"deviates by {Fraction(devx, K)}"
                )

    side_checks("A", 0, 2 * K)
    side_checks("B", K, 2 * K + 1)
    eAB = sum(e[i][K + j] for i in range(K) for j in range(K))
    cross_bound = floor(3 * eps2 * eAB)
    for i in range(K):
        for j in range(K):
            dev = abs(K * K * e[i][K + j] - eAB)
            if dev > cross_bound:
                problems.append(
                    f"(P6) e(A_{i + 1},B_{j + 1}) deviates by {Fraction(dev, K * K)}"
                )
    if host is not None:
        host_rows = rows if host is g else host.class_degrees(label, 2 * K + 2)
        for v in range(n):
            degree_checks("host", host_rows, v, 0)
            degree_checks("host", host_rows, v, K)
    if cert is not None:
        cert.conditions["P1-P6"] = "pass" if not problems else problems[0]
    return problems


# -- localized slices ---------------------------------------------------------

@dataclass
class LocalizedSlices:
    """Edge sets H[side][(i, j)] over 1 <= i, j <= K partitioning the edges
    inside each augmented side."""

    n: int
    K: int
    slices_A: dict[tuple[int, int], frozenset]
    slices_B: dict[tuple[int, int], frozenset]
    certificate: Certificate

    def graph(self, side: str, i: int, j: int) -> Graph:
        s = self.slices_A if side == "A" else self.slices_B
        return Graph(self.n, s[(i, j)])


def localized_slices(
    fw: Framework,
    part: LabelledPartition,
    eps1,
    eps2,
    seed: int = 0,
) -> LocalizedSlices:
    """Partition the edges inside A' (and B') into K^2 localized slices,
    slice (i,j) living on A0 u A_i u A_j, with certified size and degree
    control."""
    g = fw.graph
    eps1, eps2 = frac(eps1), frac(eps2)
    K = part.K
    last = []
    for attempt in range(DEFAULT_ATTEMPTS):
        rng = random.Random((seed, attempt).__hash__())
        slices_A = _build_side_slices(g, part.A0, part.clusters_A, K, rng)
        slices_B = _build_side_slices(g, part.B0, part.clusters_B, K, rng)
        cert = Certificate(attempts=attempt + 1, seed=seed)
        problems = verify_slices(g, part, slices_A, "A", eps1, eps2)
        problems += verify_slices(g, part, slices_B, "B", eps1, eps2)
        if not problems:
            cert.conditions["slices"] = "pass"
            return LocalizedSlices(g.n, K, slices_A, slices_B, cert)
        last = problems
    raise RetryBudgetExceeded(
        "localized slice verification failed",
        attempts=DEFAULT_ATTEMPTS,
        last_failures=last[:5],
    )


def _build_side_slices(g, A0, clusters, K, rng):
    slices = {(i, j): set() for i in range(1, K + 1) for j in range(1, K + 1)}
    # exceptional-to-cluster edges: random equal split per cluster
    for i in range(1, K + 1):
        edges = sorted(g.edges_between(A0, clusters[i - 1])) if A0 else []
        extra = len(edges) % K
        head, tail = edges[:extra], edges[extra:]
        for j, e in enumerate(head):
            slices[(i, j + 1)].add(e)
        tail = list(tail)
        rng.shuffle(tail)
        share = len(tail) // K
        for j in range(1, K + 1):
            slices[(i, j)].update(tail[(j - 1) * share : j * share])
    # intra-cluster edges
    for i in range(1, K + 1):
        slices[(i, i)].update(g.edges_within(clusters[i - 1]))
    # cluster-to-cluster edges: first half to (i,j), rest to (j,i)
    for i in range(1, K + 1):
        for j in range(i + 1, K + 1):
            edges = sorted(g.edges_between(clusters[i - 1], clusters[j - 1]))
            half = (len(edges) + 1) // 2
            slices[(i, j)].update(edges[:half])
            slices[(j, i)].update(edges[half:])
    # exceptional-internal edges: round robin over all K^2 slices
    cells = [(i, j) for i in range(1, K + 1) for j in range(1, K + 1)]
    for idx, e in enumerate(sorted(g.edges_within(A0)) if A0 else []):
        slices[cells[idx % len(cells)]].add(e)
    return {key: frozenset(val) for key, val in slices.items()}


def verify_slices(g, part, slices, side, eps1, eps2) -> list[str]:
    """The localized-slice properties of one side, recounted from the graph's
    own edges, compared as in ``verify_equipartition``."""
    eps1, eps2 = frac(eps1), frac(eps2)
    K = part.K
    n = g.n
    A0 = part.A0 if side == "A" else part.B0
    clusters = part.clusters_A if side == "A" else part.clusters_B
    side_set = part.A_prime() if side == "A" else part.B_prime()
    problems = []
    # cluster index 0..K-1, EXC for the exceptional set, -1 off the side
    EXC = K
    label = class_labels(n, [*clusters, A0])
    within = g.edges_within(side_set)
    e_prime = len(within)
    e_exc = e_inner = 0
    d_inner = dict.fromkeys(A0, 0)
    for u, v in within:
        exc_u, exc_v = label[u] == EXC, label[v] == EXC
        if exc_u != exc_v:
            e_exc += 1
            d_inner[u if exc_u else v] += 1
        elif not exc_u:
            e_inner += 1
    KK = K * K
    size_bound = floor(9 * eps2 * max(n, e_prime))
    exc_bound = floor(2 * eps2 * max(n, e_exc))
    inner_bound = floor(2 * eps2 * max(n, e_inner))
    deg_bound = floor(4 * eps1 * n)
    union = set()
    total = 0
    for (i, j), edges in sorted(slices.items()):
        allowed = (EXC, i - 1, j - 1)
        exc_part = in_part = 0
        d_slice = dict.fromkeys(A0, 0)
        for u, v in edges:
            lu, lv = label[u], label[v]
            if lu not in allowed or lv not in allowed:
                problems.append(f"(i) edge ({u},{v}) outside slice ({i},{j}) support")
            if lu == EXC:
                d_slice[u] += 1
            if lv == EXC:
                d_slice[v] += 1
            if (lu == EXC) != (lv == EXC):
                exc_part += 1
            elif lu != EXC:
                in_part += 1
        total += len(edges)
        if union & edges:
            problems.append(f"(ii) slice ({i},{j}) overlaps earlier slices")
        union |= edges
        dev = abs(KK * len(edges) - e_prime)
        if dev > size_bound:
            problems.append(f"(iii) e(slice {i},{j}) deviates by {Fraction(dev, KK)}")
        dev = abs(KK * exc_part - e_exc)
        if dev > exc_bound:
            problems.append(
                f"(iv) exceptional edges of slice ({i},{j}) deviate by {Fraction(dev, KK)}"
            )
        dev = abs(KK * in_part - e_inner)
        if dev > inner_bound:
            problems.append(
                f"(v) inner edges of slice ({i},{j}) deviate by {Fraction(dev, KK)}"
            )
        for v in A0:
            dev = abs(KK * d_slice[v] - d_inner[v])
            if dev > deg_bound:
                problems.append(
                    f"(vi) degree of exceptional {v} in slice ({i},{j}) "
                    f"deviates by {Fraction(dev, KK)}"
                )
    if union != within or total != e_prime:
        problems.append("(ii) slices do not partition the side's edge set")
    return problems
