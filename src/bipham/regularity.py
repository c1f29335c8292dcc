"""Density-regularity checking for bipartite pairs.

The regularity test asks whether every sufficiently large sub-rectangle has
density within eps of the pair density.  The exhaustive mode enumerates all
admissible subsets of one class; for a fixed subset and a fixed size on the
other side, the extreme densities are attained by the vertices of largest
(resp. smallest) degree into the subset, so sorted prefix sums replace the
inner subset enumeration.  This is exact and is cross-checked in the tests
against a doubly-exponential brute force.  It runs when both classes have
at most ``EXHAUSTIVE_LIMIT`` vertices; past that a non-vacuous check is
reported as mode ``unverified``, with ``is_eps_regular`` None.  Deciding
eps-regularity is co-NP-complete (Alon, Duke, Lefmann, Rödl and Yuster,
J. Algorithms 1994), so no sample of rectangles could stand in for it.
The degree window is exact at every size, so a degree outside it still
refutes superregularity.

A check that cannot fail is decided without enumeration and reported as
mode ``vacuous``.  A rectangle's density lies in [0, 1], so it deviates from
the pair density d by at most max(d, 1 - d), and by nothing when d is 0 or
1: eps-regularity is vacuous when eps >= 1 or eps > max(d, 1 - d).  The
degree window [(d - eps)|B|, (d + eps)|B|] holds every degree when d <= eps
and d + eps >= 1.  At eps = 1 and d = 1/2, the oriented scheme's threshold
at the desk constants, both are vacuous for every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .balance import frac
from .errors import NotBipartite
from .graphs import Graph

EXHAUSTIVE_LIMIT = 12


@dataclass(frozen=True)
class RegularityReport:
    density: Fraction
    eps: Fraction
    d: Fraction | None
    is_eps_regular: bool | None  # None: unverified
    witness: tuple | None  # (A_sub, B_sub, density) on failure
    is_superregular: bool | None  # None: unverified, but no degree witness
    degree_witness: tuple | None  # (vertex, degree, low, high) on failure
    mode: str  # 'exhaustive', 'unverified' or 'vacuous'


def _min_size(eps: Fraction, size: int) -> int:
    """Smallest integer k with k >= eps*size (and k >= 1)."""
    k = math.ceil(eps * size)
    return max(int(k), 1)


def vacuous_regularity(eps: Fraction, density: Fraction | None = None) -> bool:
    """Whether every pair of the given density is eps-regular because no
    rectangle can deviate from it by eps; with density None, whether that
    holds whatever the density."""
    return eps >= 1 or (density is not None and eps > max(density, 1 - density))


def vacuous_window(eps: Fraction, d: Fraction) -> bool:
    """Whether the degree window of d and eps holds every degree."""
    return d <= eps and d + eps >= 1


def check_regular_pair(
    g: Graph,
    left: Sequence[int],
    right: Sequence[int],
    eps,
    d=None,
) -> RegularityReport:
    """Test eps-regularity (and [eps, d]-superregularity when d is given) of
    the bipartite pair (left, right) in g.

    Edges inside either class are rejected.  Decided at once, as mode
    ``vacuous``, when no rectangle can deviate; exhaustively when both
    classes have at most ``EXHAUSTIVE_LIMIT`` vertices; otherwise mode
    ``unverified``, with ``is_eps_regular`` None, and ``is_superregular``
    None unless a degree witness refutes it.
    """
    eps = frac(eps)
    d = None if d is None else frac(d)
    A = sorted(left)
    B = sorted(right)
    if set(A) & set(B):
        raise NotBipartite("classes overlap")
    if g.e_within(A) or g.e_within(B):
        raise NotBipartite("class contains internal edges")
    p, q = len(A), len(B)
    if p == 0 or q == 0:
        raise NotBipartite("empty class")
    e_total = g.e_between(A, B)
    density = Fraction(e_total, p * q)

    if vacuous_regularity(eps, density):
        ok, witness, mode = True, None, "vacuous"
    elif p <= EXHAUSTIVE_LIMIT and q <= EXHAUSTIVE_LIMIT:
        ok, witness = _exhaustive_check(g, A, B, eps, density)
        mode = "exhaustive"
    else:
        ok, witness, mode = None, None, "unverified"

    deg_witness = None
    if d is not None and not vacuous_window(eps, d):
        deg_witness = _degree_witness(g, A, B, eps, d)
        if deg_witness is None:
            deg_witness = _degree_witness(g, B, A, eps, d)
    return RegularityReport(
        density=density,
        eps=eps,
        d=d,
        is_eps_regular=ok,
        witness=witness,
        is_superregular=deg_witness is None and ok if d is not None else False,
        degree_witness=deg_witness,
        mode=mode,
    )


def _degree_witness(g, side, other, eps, d):
    """The first vertex of ``side`` whose degree into ``other`` leaves the
    window [(d - eps)|other|, (d + eps)|other|], as (vertex, degree, low,
    high), or None.  An integer degree is in the window exactly when it lies
    between the window's integer ceiling and floor, so the window is built
    in Fractions only for the witness."""
    den = d.denominator * eps.denominator
    size = len(other)
    lo_num = (d.numerator * eps.denominator - eps.numerator * d.denominator) * size
    hi_num = (d.numerator * eps.denominator + eps.numerator * d.denominator) * size
    lo, hi = -(-lo_num // den), hi_num // den
    adj, others = g.adj, frozenset(other)
    for v in side:
        dv = len(adj[v] & others)
        if not lo <= dv <= hi:
            return v, dv, Fraction(lo_num, den), Fraction(hi_num, den)
    return None


def _deviates(s: int, k: int, ell: int, density: Fraction, eps: Fraction) -> bool:
    """|s/(k*ell) - density| >= eps, exactly."""
    return abs(Fraction(s, k * ell) - density) >= eps


def _exhaustive_check(g, A, B, eps, density):
    p, q = len(A), len(B)
    ka, kb = _min_size(eps, p), _min_size(eps, q)
    adj = g.adj
    bmask_index = {b: i for i, b in enumerate(B)}
    nbr = []
    for a in A:
        m = 0
        for w in adj[a]:
            i = bmask_index.get(w)
            if i is not None:
                m |= 1 << i
        nbr.append(m)

    for bits in range(1 << p):
        k = bits.bit_count()
        if k < ka:
            continue
        cnt = [0] * q
        rem = bits
        while rem:
            lb = rem & -rem
            i = lb.bit_length() - 1
            rem ^= lb
            m = nbr[i]
            while m:
                b = m & -m
                cnt[b.bit_length() - 1] += 1
                m ^= b
        order = sorted(range(q), key=lambda j: (cnt[j], j))
        pref = [0]
        for j in order:
            pref.append(pref[-1] + cnt[j])
        total = pref[-1]
        for ell in range(kb, q + 1):
            lo = pref[ell]
            hi = total - pref[q - ell]
            for s, pick in ((lo, order[:ell]), (hi, order[q - ell :])):
                if _deviates(s, k, ell, density, eps):
                    A_sub = [A[i] for i in range(p) if bits >> i & 1]
                    B_sub = sorted(B[j] for j in pick)
                    return False, (tuple(A_sub), tuple(B_sub), Fraction(s, k * ell))
    return True, None


def naive_regular_pair(g: Graph, left, right, eps) -> tuple[bool, tuple | None]:
    """Independent brute force over every admissible rectangle; test oracle
    for the exhaustive mode (exponential in both class sizes)."""
    eps = frac(eps)
    A, B = sorted(left), sorted(right)
    p, q = len(A), len(B)
    density = Fraction(g.e_between(A, B), p * q)
    ka, kb = _min_size(eps, p), _min_size(eps, q)
    for k in range(ka, p + 1):
        for A_sub in combinations(A, k):
            for ell in range(kb, q + 1):
                for B_sub in combinations(B, ell):
                    s = g.e_between(A_sub, B_sub)
                    if _deviates(s, k, ell, density, eps):
                        return False, (A_sub, B_sub, Fraction(s, k * ell))
    return True, None
