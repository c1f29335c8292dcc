"""Acceptance criteria.

One test per criterion, each printing a single PASS line on success (pytest
shows the failure otherwise).  Tolerances are exact; time limits are
enforced with a stopwatch assertion inside each test.

The criteria keep their numbers.  Criterion 5, the exact parity counts of
the bi-universal walks, is retired with the walks themselves: no driver
ever built a walk, and the robust decomposition front they served is gone.
Criterion 4, the round trip of a cycle through a system's fictive edges,
is retired with the substitution: every Hamilton search through a system
prescribes the system's own paths.
"""

import itertools
import random
import time

from bipham.balance import is_D_balanced
from bipham.balancer import bip_decompose, eliminate_A0B0
from bipham.errors import BiphamError, PreconditionViolated
from bipham.generators import (
    babai_instance,
    eps_bipartite_instance,
    generate,
    regular_spanning_subgraph,
    two_cliques_instance,
)
from bipham.graphs import Graph, LabelledPartition, PathSystem, complete_bipartite
from bipham.matchings import vizing_balanced
from bipham.pipeline import PipelineConstants, run_theorem_NWbip
from bipham.report import render_report
from bipham.solvers import (
    SolverBudget,
    chromatic_index_regular,
    reg_even,
)
from bipham.validate import (
    check_cycle,
    check_edge_disjoint,
    cycle_edges,
)

from conftest import complete_graph, random_graph


def _stopwatch(limit):
    start = time.monotonic()

    def done(label):
        elapsed = time.monotonic() - start
        assert elapsed < limit, f"{label} took {elapsed:.1f}s > {limit}s"
        return elapsed

    return done


# -- 1: balanced matching decompositions --------------------------------------

def test_acceptance_1_vizing_balance():
    done = _stopwatch(10)
    rng = random.Random(1)
    cases = [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(500)]
    cases += [complete_graph(n) for n in range(2, 9)]
    cases += [complete_bipartite((m, m)) for m in range(1, 6)]
    for g in cases:
        md = vizing_balanced(g)
        assert len(md.matchings) == g.max_degree() + 1
        union = set()
        for m in md.matchings:
            touched = set()
            for u, v in m:
                assert u not in touched and v not in touched
                touched |= {u, v}
            assert not (m & union)
            union |= m
        assert union == g.edges
        sizes = [len(m) for m in md.matchings]
        assert max(sizes) - min(sizes) <= 1
    elapsed = done("criterion 1")
    print(f"\nACCEPTANCE 1 PASS: {len(cases)} graphs, {elapsed:.1f}s")


# -- 2: balance algebra --------------------------------------------------------

def _two_level_instance(rng):
    """Inner classes of equal size with uniform inner degree, exceptional
    vertices of uniform degree joined round-robin to the inner part."""
    m = rng.randint(2, 6)
    a = rng.randint(0, 2)
    b = rng.randint(0, 2)
    n = 2 * m + a + b
    A = list(range(m))
    B = list(range(m, 2 * m))
    exc = list(range(2 * m, n))
    edges = [(i, m + j) for i in range(m) for j in range(m)]
    if exc:
        # each exceptional vertex takes 2m/gcd spread: join vertex t to the
        # inner vertices t, t+1, ..., t+D-1 cyclically so inner degrees stay
        # uniform whenever (a+b)*D is a multiple of 2m
        D = 2 * m // (a + b) if (a + b) and (2 * m) % (a + b) == 0 else 2 * m
        inner = A + B
        for t, v in enumerate(exc):
            for s in range(D):
                edges.append((v, inner[(t * D + s) % (2 * m)]))
    g = Graph(n, edges)
    part = LabelledPartition(n, exc[:a], A, exc[a:], B)
    degs = {g.degree(v) for v in exc}
    return g, part, degs.pop() if degs else 0


def test_acceptance_2_balance_algebra():
    done = _stopwatch(5)
    rng = random.Random(2)
    checked = 0
    while checked < 200:
        g, part, D = _two_level_instance(rng)
        if g.n > 16:
            continue
        inner_degs = {g.degree(v) for v in list(part.A) + list(part.B)}
        if len(inner_degs) != 1:
            continue
        checked += 1
        # degree-homogeneous instances satisfy the edge identity
        assert is_D_balanced(g, part, D)
        # closure under repartition of the exceptional set
        exc = list(part.V0())
        if len(exc) <= 6:
            for mask in range(1 << len(exc)):
                a0 = [exc[i] for i in range(len(exc)) if mask >> i & 1]
                b0 = [v for v in exc if v not in a0]
                part2 = LabelledPartition(g.n, a0, part.A, b0, part.B)
                assert is_D_balanced(g, part2, D)
        # subtraction closure: remove a balanced regular subgraph
        if D >= 2 and not exc:
            sub = regular_spanning_subgraph(
                complete_bipartite((len(part.A), len(part.B))), 1, seed=checked
            )
            inter = Graph(g.n, sub.edges & g.edges)
            if set(inter.degrees()) == {1}:
                assert is_D_balanced(inter, part, 1)
                assert is_D_balanced(g.minus(inter), part, D - 1)
        # symmetry
        assert is_D_balanced(g, part.swapped(), D)
    elapsed = done("criterion 2")
    print(f"\nACCEPTANCE 2 PASS: 200 instances, {elapsed:.1f}s")


# -- 3: endpoint-count criterion, exhaustively ---------------------------------

def _side_sequences(length):
    """All class sequences of a nontrivial path in an exceptional-cover
    system: ends in the inner classes, internals exceptional."""
    for ends in itertools.product("AB", repeat=2):
        for mids in itertools.product("ab", repeat=length - 2):
            yield (ends[0],) + mids + (ends[1],)


def _seq_stats(seq):
    """(e(A')-e(B'), a, b, endpoint in A, endpoint in B) of one path.

    Classes: A/B inner, a/b exceptional.  An edge lies inside a side iff
    both endpoints' classes agree on the side."""
    eA = eB = 0
    for x, y in zip(seq, seq[1:]):
        sx = "A" if x in "Aa" else "B"
        sy = "A" if y in "Aa" else "B"
        if sx == sy == "A":
            eA += 1
        elif sx == sy == "B":
            eB += 1
    a = sum(1 for c in seq[1:-1] if c == "a")
    b = sum(1 for c in seq[1:-1] if c == "b")
    nA = sum(1 for c in (seq[0], seq[-1]) if c == "A")
    return eA - eB, a, b, nA, 2 - nA


def test_acceptance_3_endpoint_criterion_exhaustive():
    """The balance identity of a path system factors through the per-path
    class sequences (vertex labels never enter the counts), so enumerating
    all multisets of class sequences on up to 8 vertices is exhaustive."""
    done = _stopwatch(60)
    per_length = {
        length: [_seq_stats(s) for s in _side_sequences(length)]
        for length in range(2, 9)
    }
    checked = 0

    def rec(budget, min_len, totals):
        nonlocal checked
        # totals: (eA-eB, a, b, nA, nB); evaluate the configuration
        d, a, b, nA, nB = totals
        if a or b or nA or nB:
            assert (d == a - b) == (nA == nB), totals
            checked += 1
        for length in range(min_len, budget + 1):
            for st in per_length[length]:
                rec(
                    budget - length,
                    length,
                    (d + st[0], a + st[1], b + st[2], nA + st[3], nB + st[4]),
                )

    rec(8, 2, (0, 0, 0, 0, 0))
    # labeled spot check: random labeled systems agree with their sequences
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(2, 8)
        sides = [rng.choice("ABab") for _ in range(k)]
        # build a path over vertices 0..k-1 with these classes
        ok_structure = sides[0] in "AB" and sides[-1] in "AB" and all(
            c in "ab" for c in sides[1:-1]
        )
        if not ok_structure:
            continue
        edges = [(i, i + 1) for i in range(k - 1)]
        q = PathSystem(k, edges)
        A0 = [i for i, c in enumerate(sides) if c == "a"]
        B0 = [i for i, c in enumerate(sides) if c == "b"]
        A = [i for i, c in enumerate(sides) if c == "A"]
        B = [i for i, c in enumerate(sides) if c == "B"]
        part = LabelledPartition(k, A0, A, B0, B)
        eA = q.as_graph().e_within(part.A_prime())
        eB = q.as_graph().e_within(part.B_prime())
        nA = len(q.endpoints() & set(A))
        nB = len(q.endpoints() & set(B))
        st = _seq_stats(tuple(sides))
        assert (eA - eB, len(A0), len(B0), nA, nB) == st
    elapsed = done("criterion 3")
    print(f"\nACCEPTANCE 3 PASS: {checked} configurations, {elapsed:.1f}s")


# -- 6: extremal facts ------------------------------------------------------------

def test_acceptance_6_extremal_facts():
    done = _stopwatch(60)
    for k in (1, 2):
        f, part, props = babai_instance(k)
        d, witness = reg_even(f, SolverBudget(max_seconds=50))
        assert d == 2 * k, f"reg_even(babai {k}) = {d}"
    f, part, props = babai_instance(1)
    g = reg_even(f)[1]
    rep = run_theorem_NWbip(f, g, PipelineConstants(), seed=1,
                            hint_split=(list(part.A), list(part.B)))
    assert rep.ok()
    assert len(rep.cycles) == 1
    matching = f.edges_within(part.A)
    inside = cycle_edges(rep.cycles[0]) & matching
    assert len(matching) == 3 and len(inside) == 2
    elapsed = done("criterion 6")
    print(f"\nACCEPTANCE 6 PASS: reg_even 2k, 1 cycle with 2 of 3 side edges, "
          f"{elapsed:.1f}s")


# -- 7: one-factorization boundary -------------------------------------------------

def test_acceptance_7_chromatic_boundary():
    done = _stopwatch(30)
    two5, _, _ = two_cliques_instance(10)
    chi, _ = chromatic_index_regular(two5)
    assert chi == 5  # degree 4 but no one-factorization
    for m in range(1, 6):
        chi, cert = chromatic_index_regular(complete_bipartite((m, m)))
        assert chi == m and len(cert) == m
    elapsed = done("criterion 7")
    print(f"\nACCEPTANCE 7 PASS: boundary cases exact, {elapsed:.1f}s")


# -- 8: elimination pipeline --------------------------------------------------------

def test_acceptance_8_elimination_pipeline():
    done = _stopwatch(300)
    rng = random.Random(8)
    ran = 0
    seed = 0
    while ran < 50:
        seed += 1
        n = rng.choice([16, 18, 20, 22, 24, 26, 28])
        D = rng.choice([d for d in range(6, n // 2 + 1, 2)])
        hubs = rng.choice([1, 1, 2])
        try:
            f, part, props, g = eps_bipartite_instance(
                n=n, D=D, eps="1/8", hubs=hubs, hub_degree=n // 4 + 1,
                extra_internal=rng.randint(0, 2), seed=seed,
            )
        except BiphamError:
            continue
        try:
            fw = bip_decompose(f, g, 1, "1/2", "1/4",
                               hint_split=(list(part.A), list(part.B)))
        except PreconditionViolated as exc:
            assert str(exc).startswith("no weak framework: ")
            continue
        try:
            res = eliminate_A0B0(fw)
        except BiphamError:
            continue
        # postconditions: disjoint cycles covering the cut, full framework at
        # the reduced balance degree, parity preserved (all already verified
        # inside eliminate_A0B0; re-assert the externally visible ones)
        assert not check_edge_disjoint(
            [cycle_edges(c) for c in res.hamilton_cycles]
        )
        cut = fw.graph.edges_between(fw.partition.A0, fw.partition.B0) \
            if fw.partition.A0 and fw.partition.B0 else frozenset()
        covered = set()
        for c in res.hamilton_cycles:
            covered |= cycle_edges(c)
        assert cut <= covered
        assert res.reduced.kind == "full"
        assert res.reduced.D == fw.D - 2 * len(res.hamilton_cycles)
        assert (fw.D - res.reduced.D) % 2 == 0
        ran += 1
    elapsed = done("criterion 8")
    print(f"\nACCEPTANCE 8 PASS: {ran} instances eliminated, {elapsed:.1f}s")


# -- 9: end-to-end packing ------------------------------------------------------------

def test_acceptance_9_end_to_end_nwbip():
    done = _stopwatch(120)
    for m in (4, 5, 6):
        D = m - (m % 2)
        f, part, props = generate("complete_bipartite", {"m": m})
        g = f if D == m else regular_spanning_subgraph(f, D, seed=m)
        rep = run_theorem_NWbip(f, g, PipelineConstants(), seed=m,
                                hint_split=(list(part.A), list(part.B)))
        assert rep.ok(), render_report(rep)
        assert len(rep.cycles) == D // 2
        assert not check_edge_disjoint([cycle_edges(c) for c in rep.cycles])
        for c in rep.cycles:
            assert not check_cycle(f.n, c)
        # the three stage counts add to D/2 exactly
        final = rep.stages[-1]
        identity = [c for c in final.checks if c.ident == "count-identity"]
        assert identity and identity[0].ok
        assert sum(identity[0].witness) == D // 2
    elapsed = done("criterion 9")
    print(f"\nACCEPTANCE 9 PASS: 3 hosts packed exactly, {elapsed:.1f}s")


# -- 10: determinism and accounting ----------------------------------------------------

def test_acceptance_10_determinism_and_accounting():
    done = _stopwatch(120)
    f, part, props = generate("complete_bipartite", {"m": 5})
    g = regular_spanning_subgraph(f, 4, seed=1)
    hint = (list(part.A), list(part.B))
    r1 = run_theorem_NWbip(f, g, PipelineConstants(), seed=5, hint_split=hint)
    r2 = run_theorem_NWbip(f, g, PipelineConstants(), seed=5, hint_split=hint)
    assert render_report(r1) == render_report(r2)
    assert r1.ok()
    assert all(e["conserved"] for e in r1.accounting)

    fb, pb, _ = babai_instance(1)
    gb = reg_even(fb)[1]
    b1 = run_theorem_NWbip(fb, gb, PipelineConstants(), seed=3,
                           hint_split=(list(pb.A), list(pb.B)))
    b2 = run_theorem_NWbip(fb, gb, PipelineConstants(), seed=3,
                           hint_split=(list(pb.A), list(pb.B)))
    assert render_report(b1) == render_report(b2)
    assert all(e["conserved"] for e in b1.accounting)
    elapsed = done("criterion 10")
    print(f"\nACCEPTANCE 10 PASS: byte-identical reports, conservation holds, "
          f"{elapsed:.1f}s")
