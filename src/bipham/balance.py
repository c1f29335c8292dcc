"""Balancedness and framework validation.

A graph is D-balanced with respect to a split (A, A0, B, B0) when the edge
surplus of the A-side equals (|A'|-|B'|)*D/2 and every exceptional vertex
has degree exactly D.  Frameworks layer degree and sparsity conditions on
top of a balanced split; they come in three strengths (pre < weak < full)
and are the precondition currency of the whole pipeline.

All verdicts are exact: counts are integers, and a rational bound is
compared through its integer floor or ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .errors import PartitionMismatch
from .graphs import Graph, LabelledPartition


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # floats arrive from CLI/json only; convert via repr to keep the
        # user-visible decimal value rather than the binary expansion
        return Fraction(repr(x))
    return Fraction(x)


def side_counts(g: Graph, part: LabelledPartition):
    """One pass over the edges of ``g``: the rows of
    ``g.class_degrees(part.side_labels(), 4)`` (degrees into A0, A, B0, B),
    each vertex's degree and its internal degree (into its own side A' or
    B'), and e(A'), e(B')."""
    labels = part.side_labels()
    rows = g.class_degrees(labels, 4)
    deg = [sum(r) for r in rows]
    dint = [r[0] + r[1] if s < 2 else r[2] + r[3] for r, s in zip(rows, labels)]
    eA = sum(d for d, s in zip(dint, labels) if s < 2) // 2
    eB = sum(d for d, s in zip(dint, labels) if s >= 2) // 2
    return rows, deg, dint, eA, eB


def is_D_balanced(g: Graph, part: LabelledPartition, D: int) -> bool:
    """Exact test of the two balance conditions."""
    _, deg, _, eA, eB = side_counts(g, part)
    size_diff = (part.a + len(part.A)) - (part.b + len(part.B))
    if 2 * (eA - eB) != size_diff * D:
        return False
    return all(deg[v] == D for v in part.A0 + part.B0)


@dataclass(frozen=True)
class Violation:
    condition: str
    detail: str
    witness: tuple = ()


@dataclass(frozen=True)
class Framework:
    """A graph bound to a partition with validated framework conditions.

    ``kind`` is the strongest level that holds: 'full' (all seven framework
    conditions), 'weak' (the six weak conditions), or 'pre' (the first five).
    ``host`` is the supergraph used for the weak-level degree condition; it
    equals ``graph`` when no separate host was supplied.
    """

    graph: Graph
    partition: LabelledPartition
    D: int
    eps: Fraction
    eps_prime: Fraction
    K: int
    kind: str
    host: Graph | None = None

    def host_graph(self) -> Graph:
        return self.host if self.host is not None else self.graph


def _check_wf(g, f, part, D, eps, eps_prime, K) -> dict[str, list[Violation]]:
    """All conditions of all levels at once, keyed by condition id.

    Counts come from one pass over each graph's edges; every rational bound
    is compared through its floor (an integer exceeds a rational r exactly
    when it exceeds floor(r)), and a Fraction is built only for a message."""
    n = g.n
    out: dict[str, list[Violation]] = {}

    def add(cond, detail, witness=()):
        out.setdefault(cond, []).append(Violation(cond, detail, tuple(witness)))

    # partition coverage is enforced by LabelledPartition itself (WF1/FR1)
    if part.n != n:
        raise PartitionMismatch(f"partition over {part.n} vertices, graph has {n}")

    rows, deg, dint, eA, eB = side_counts(g, part)
    fint = dint if f is g else side_counts(f, part)[2]
    eps_n = floor(eps * n)
    eps_prime_n = floor(eps_prime * n)

    size_diff = (part.a + len(part.A)) - (part.b + len(part.B))
    if 2 * (eA - eB) != size_diff * D:
        add("WF2", f"2(e(A')-e(B')) = {2 * (eA - eB)} != {size_diff * D}")
    for v in sorted(part.A0 + part.B0):
        if deg[v] != D:
            add("WF2", f"exceptional vertex {v} has degree {deg[v]} != {D}", (v,))

    eps_nn = floor(eps * n * n)
    if eA > eps_nn:
        add("WF3", f"e(A') = {eA} > eps*n^2 = {eps * n * n}")
    if eB > eps_nn:
        add("WF3", f"e(B') = {eB} > eps*n^2 = {eps * n * n}")

    if len(part.A) != len(part.B):
        add("WF4", f"|A| = {len(part.A)} != |B| = {len(part.B)}")
    if K <= 0 or len(part.A) % K != 0:
        add("WF4", f"|A| = {len(part.A)} not divisible by K = {K}")
    if part.a + part.b > eps_n:
        add("WF4", f"a+b = {part.a + part.b} > eps*n = {eps * n}")

    for v in part.A + part.B:
        if fint[v] > eps_prime_n:
            add("WF5", f"internal degree {fint[v]} of {v} in host > eps'*n", (v,))
        if dint[v] > eps_prime_n:
            add("FR5", f"internal degree {dint[v]} of {v} > eps'*n", (v,))

    for v in range(n):
        if 2 * dint[v] > deg[v]:
            add("WF6", f"internal degree {dint[v]} of {v} > d(v)/2 = {deg[v]}/2", (v,))

    if part.b > part.a:
        add("FR4", f"|B0| = {part.b} > |A0| = {part.a}")
    e_cross = sum(rows[v][2] for v in part.A0)
    if e_cross != 0:
        add("FR6", f"e(A0,B0) = {e_cross} != 0")
    # dint > d(v)/2 + eps*n, doubled
    two_eps_n = floor(2 * eps * n)
    for v in range(n):
        if 2 * dint[v] - deg[v] > two_eps_n:
            add("FR7", f"internal degree {dint[v]} of {v} > d(v)/2 + eps*n", (v,))
    return out


PRE_CONDITIONS = ("WF2", "WF3", "WF4", "WF5")
WEAK_CONDITIONS = PRE_CONDITIONS + ("WF6",)
FULL_CONDITIONS = ("WF2", "WF3", "WF4", "FR4", "FR5", "FR6", "FR7")


def validate_framework(
    g: Graph,
    part: LabelledPartition,
    D: int,
    eps,
    eps_prime,
    K: int,
    host: Graph | None = None,
):
    """Returns a Framework at the strongest level whose conditions all pass,
    or the list of violations of the weakest level otherwise.

    The full level checks the intrinsic conditions of ``g`` alone; the weak
    and pre levels additionally use ``host`` (the supergraph F) for the
    internal-degree condition on non-exceptional vertices.
    """
    eps, eps_prime = frac(eps), frac(eps_prime)
    f = host if host is not None else g
    found = _check_wf(g, f, part, D, eps, eps_prime, K)

    def fails(conds):
        return [v for c in conds for v in found.get(c, [])]

    if not fails(FULL_CONDITIONS):
        return Framework(g, part, D, eps, eps_prime, K, "full", host)
    if not fails(WEAK_CONDITIONS):
        return Framework(g, part, D, eps, eps_prime, K, "weak", host)
    if not fails(PRE_CONDITIONS):
        return Framework(g, part, D, eps, eps_prime, K, "pre", host)
    return fails(PRE_CONDITIONS)


def framework_violations(
    g: Graph,
    part: LabelledPartition,
    D: int,
    eps,
    eps_prime,
    K: int,
    level: str = "full",
    host: Graph | None = None,
) -> list[Violation]:
    """Violations of one specific level ('pre', 'weak' or 'full')."""
    eps, eps_prime = frac(eps), frac(eps_prime)
    f = host if host is not None else g
    found = _check_wf(g, f, part, D, eps, eps_prime, K)
    conds = {
        "pre": PRE_CONDITIONS,
        "weak": WEAK_CONDITIONS,
        "full": FULL_CONDITIONS,
    }[level]
    return [v for c in conds for v in found.get(c, [])]


def require_kind(fw: Framework, minimum: str):
    order = {"pre": 0, "weak": 1, "full": 2}
    if order[fw.kind] < order[minimum]:
        raise PartitionMismatch(
            f"framework of kind {fw.kind!r} where at least {minimum!r} is needed"
        )
