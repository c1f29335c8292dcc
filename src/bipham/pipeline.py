"""End-to-end decomposition pipelines.

Two drivers: ``run_theorem_NWbip`` packs half-the-degree many edge-disjoint
Hamilton cycles into a dense nearly-bipartite host around a regular spanning
subgraph; ``run_theorem_1factbip`` fully decomposes an even-regular
nearly-bipartite graph into Hamilton cycles via a robustly decomposable
subgraph, or, when its framework has exceptional vertices, by packing the
whole host as NW-bip does.  Both pack with one routine, ``_pack``: the
1-factorization packs what its robustly decomposable graph leaves with the
same elimination, cluster partition, balanced exceptional systems and
approximate decomposition as NW-bip.  Each driver opens its stages in turn
and has one failure path: a typed error or failed requirement marks the
most recently opened stage failed with the error, and one skipped
``remaining`` stage ends the report.

All numeric thresholds live in PipelineConstants as exact rationals; the
asymptotic separation conditions between them are evaluated and logged as
warnings, never enforced, while exact identities and divisibilities are
checked hard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .balance import Framework, frac, validate_framework
from .balancer import (
    EliminationResult,
    bip_decompose,
    elimination_bound_holds,
    eliminate_A0B0,
)
from .beps import build_bf_family
from .bes import (
    build_localized_pairs,
    decompose_global,
    decompose_slice,
    derive_slice_counts,
    exceptional_degree_floor_violations,
    extend_to_bes,
    plan_slice_decomposition,
    cover_global_by_cycles,
)
from .errors import BadParams, BiphamError, PreconditionViolated
from .graphs import Graph, LabelledPartition, PathSystem
from .partitioning import framework_partition, localized_slices, orient_scheme
from .report import DecompositionReport, Stage
from .schemes import scheme_violations
from .solvers import SolverBudget, approx_decomposition, peel_through_systems
from .validate import (
    check_cycle_in_graph,
    check_decomposition,
    check_edge_disjoint,
    cycle_edges,
)
from .walks import RobustDecomposition, RobustParams

NWBIP_ATTEMPTS = 6


@dataclass(frozen=True)
class PipelineConstants:
    """Every tunable of the two pipelines, as exact rationals / integers.

    The separation ladder between the epsilons is advisory at this scale:
    ratios are reported, runs proceed regardless.
    """

    eps_ex: Fraction = Fraction(1, 10)
    eps_star: Fraction = Fraction(1, 5)
    eps0: Fraction = Fraction(1, 2)
    eps0_prime: Fraction = Fraction(7, 10)
    eps_prime: Fraction = Fraction(1, 4)
    eps1: Fraction = Fraction(1, 2)
    eps2: Fraction = Fraction(9, 10)
    eps3: Fraction = Fraction(1, 25)
    eps4: Fraction = Fraction(0)
    eps4_prime: Fraction = Fraction(0)
    K: int = 1
    K1: int = 7
    K2: int = 1
    L: int = 1
    f: int = 1
    g: int = 2
    gamma: Fraction = Fraction(0)
    gamma1: Fraction = Fraction(0)
    ell_prime: int = 4
    r1_override: int | None = None
    min_interval: int = 10
    max_nodes: int = 4_000_000
    max_seconds: float = 120.0

    def __post_init__(self):
        # the drivers divide by these (cluster sizes, slot counts, 1/K)
        for name in ("K", "K1", "K2", "L", "f", "g", "ell_prime"):
            if getattr(self, name) < 1:
                raise PreconditionViolated(
                    f"constant {name} = {getattr(self, name)} must be at least 1"
                )
        # every stage's budget; written so that NaN fails: a NaN deadline
        # never passes
        if not self.max_nodes > 0:
            raise BadParams(f"constant max_nodes = {self.max_nodes!r} "
                            "must be positive")
        if not (math.isfinite(self.max_seconds) and self.max_seconds > 0):
            raise BadParams(f"constant max_seconds = {self.max_seconds!r} "
                            "must be finite and positive")

    @staticmethod
    def from_json(doc: dict) -> "PipelineConstants":
        unknown = sorted(set(doc) - {fld.name for fld in fields(PipelineConstants)})
        if unknown:
            raise BadParams(f"unknown constants {', '.join(unknown)}")
        kwargs = {}
        for fld in fields(PipelineConstants):
            if fld.name not in doc:
                continue
            val = doc[fld.name]
            if fld.type == "Fraction":
                try:
                    rational = frac(val)
                except (TypeError, ValueError, ZeroDivisionError):
                    rational = None
                # Fraction(True) would read true as 1
                if rational is None or isinstance(val, bool):
                    raise BadParams(f"constant {fld.name} = {val!r} "
                                    "must be a rational")
                kwargs[fld.name] = rational
            elif fld.name == "max_seconds":
                if isinstance(val, bool):
                    raise BadParams(f"constant max_seconds = {val!r} "
                                    "must be a number")
                kwargs[fld.name] = float(val)
            elif fld.name == "r1_override" and val is None:
                kwargs[fld.name] = None
            elif isinstance(val, int) and not isinstance(val, bool):
                kwargs[fld.name] = val
            else:
                # int() would truncate 1.7 to 1 and read true as 1
                raise BadParams(f"constant {fld.name} = {val!r} "
                                "must be an integer")
        return PipelineConstants(**kwargs)

    def as_json(self) -> dict:
        out = {}
        for fld in fields(self):
            val = getattr(self, fld.name)
            if isinstance(val, Fraction):
                out[fld.name] = f"{val.numerator}/{val.denominator}"
            else:
                out[fld.name] = val
        return out

    @cached_property
    def hierarchy_warnings(self) -> tuple[str, ...]:
        """The weak or degenerate separations of the epsilon ladder,
        computed once per constants object."""
        ladder = [
            ("eps_ex", self.eps_ex), ("eps0", self.eps0),
            ("eps0_prime", self.eps0_prime), ("eps_prime", self.eps_prime),
            ("eps1", self.eps1), ("eps2", self.eps2), ("eps3", self.eps3),
            ("eps4", self.eps4), ("1/K", Fraction(1, self.K)),
        ]
        out = []
        for (n1, v1), (n2, v2) in zip(ladder, ladder[1:]):
            if v2 != 0 and v1 > v2 / 4:
                out.append(
                    f"separation {n1} << {n2} is weak at this scale "
                    f"({v1} vs {v2})"
                )
            if v2 == 0 and v1 > 0:
                out.append(f"separation {n1} << {n2} is degenerate ({n2} = 0)")
        return tuple(out)

    def factorization_divisibility_warnings(self) -> list[str]:
        out = []
        for name, num, den in (
            ("K1/28fgL", self.K1, 28 * self.f * self.g * self.L),
            ("K2/4gLK1", self.K2, 4 * self.g * self.L * self.K1),
        ):
            if den == 0 or num % den:
                out.append(f"divisibility {name} fails ({num} vs {den})")
        return out

    def budget(self, seed: int = 0) -> SolverBudget:
        return SolverBudget(self.max_nodes, self.max_seconds, seed)


@dataclass
class BesStageResult:
    j_cells: dict
    cycles: list[list[int]]
    diamond: Graph
    t_K: int

    def family(self) -> list[PathSystem]:
        """Every balanced exceptional system, cell by cell in cell order."""
        return [j for cell in sorted(self.j_cells) for j in self.j_cells[cell]]


def bes_stage(
    fw: Framework,
    part: LabelledPartition,
    constants: PipelineConstants,
    seed: int,
    stage: Stage,
    K: int,
    eps4,
) -> BesStageResult:
    """Localized slices -> per-slice systems -> paired -> balanced
    exceptional systems, then the global leftover is absorbed into Hamilton
    cycles.  Every intermediate postcondition lands in ``stage``."""
    c = constants
    t_K, k, eps4_achieved = derive_slice_counts(fw.D, K, frac(eps4))
    stage.params.update({"t_K": t_K, "k": k, "eps4_achieved": str(eps4_achieved)})
    slices = localized_slices(fw, part, c.eps1, c.eps2, seed=seed)
    stage.check("slices-partition-verified", True)
    plan = plan_slice_decomposition(
        fw, c.eps3, eps4_achieved, K, t=t_K * K * K
    )
    stage.params["plan"] = {
        "case": plan.case, "q": plan.q, "c": str(plan.c),
        "t": plan.t, "t_star": plan.t_star,
        "ell_a": str(plan.ell_a), "ell_b": str(plan.ell_b),
    }
    stage.require(
        "rounded-loads-match-imbalance",
        plan.ceil_a() - plan.ceil_b() == part.a - part.b,
    )
    decomp_a, decomp_b = {}, {}
    for i in range(1, K + 1):
        for j in range(1, K + 1):
            decomp_a[(i, j)] = decompose_slice(
                slices.graph("A", i, j), plan, "A", part, fw.eps, c.eps1,
                seed=seed + i * K + j,
            )
            decomp_b[(i, j)] = decompose_slice(
                slices.graph("B", i, j), plan, "B", part, fw.eps, c.eps1,
                seed=seed + 1000 + i * K + j,
            )
    stage.check("slice-decompositions", True)
    glob_a = Graph(part.n, frozenset().union(*[d.leftover.edges for d in decomp_a.values()]))
    glob_b = Graph(part.n, frozenset().union(*[d.leftover.edges for d in decomp_b.values()]))
    stage.require(
        "global-load-identity",
        glob_a.num_edges() - glob_b.num_edges() == (part.a - part.b) * k
        or k == 0 and glob_a.num_edges() == glob_b.num_edges() == 0,
        witness=(glob_a.num_edges(), glob_b.num_edges()),
    )
    glob = decompose_global(glob_a, glob_b, k, part, fw.eps)
    fam = build_localized_pairs(decomp_a, decomp_b, part, plan, eps4_achieved, seed=seed)
    warnings = exceptional_degree_floor_violations(fw.graph, part, fam, plan, eps4_achieved)
    stage.check("exceptional-degree-floor", not warnings, witness=warnings[:2])
    j_cells = extend_to_bes(fw, part, fam, c.eps0_prime)
    stage.check(
        "bes-count",
        all(len(lst) == t_K for lst in j_cells.values()),
        witness={str(cell): len(lst) for cell, lst in list(j_cells.items())[:3]},
    )
    cover = cover_global_by_cycles(
        fw, part, j_cells, glob.pairs, budget=c.budget(seed)
    )
    stage.check("global-cover", True, witness=cover.checks)
    stage.check("diamond-exceptional-isolated", True)
    return BesStageResult(j_cells, cover.cycles, cover.diamond, t_K)


class _Run:
    """One driver run: its constants and seed, the report, opened with the
    instance, the regular degree ``D`` of the subgraph (-1 when it is not
    regular) and the hierarchy warnings, and the host edges its cycles have
    taken so far."""

    def __init__(self, host: Graph, g: Graph, constants: PipelineConstants,
                 seed: int):
        degs = set(g.degrees())
        self.D = degs.pop() if len(degs) == 1 else -1
        self.irregular = sorted(degs)  # empty when g is regular
        self.constants = constants
        self.seed = seed
        self.host = host
        self.total = host.num_edges()
        self.removed: set = set()
        self.report = DecompositionReport({
            "n": host.n,
            "host_edges": self.total,
            "subgraph_edges": g.num_edges(),
            "D": self.D,
        }, seed)
        self.report.warnings.extend(constants.hierarchy_warnings)

    def take(self, cycles, label: str | None = None) -> None:
        """Add the edges of ``cycles`` to the removed edges; with a label,
        record the edge conservation entry of that stage."""
        for cyc in cycles:
            self.removed |= cycle_edges(cyc)
        if label is not None:
            left = self.total - len(self.removed)
            self.report.account(label, len(self.removed), left, self.total)

    def left(self, *also) -> Graph:
        """The host without the removed edges and the edge sets ``also``."""
        return self.host.minus_edges(self.removed.union(*also))

    def fail(self, exc) -> DecompositionReport:
        """Mark the most recently opened stage failed and skip the rest."""
        st = self.report.stages[-1]
        st.status = "failed"
        st.error = f"{type(exc).__name__}: {exc}"
        self.report.stages.append(Stage("remaining", "skipped", status="skipped"))
        return self.report


def _eliminate(run: _Run, fw: Framework) -> EliminationResult:
    """Eliminate the exceptional cut of ``fw`` under the run's budget, in
    the open stage, and take the cut cycles; the reduced degree is held to
    the reduction bound of ``fw.eps``."""
    st = run.report.stages[-1]
    elim = eliminate_A0B0(fw, budget=run.constants.budget(run.seed))
    st.check("cut-cycles", True, witness=len(elim.hamilton_cycles))
    st.require(
        "reduction-bound",
        elimination_bound_holds(fw.D, elim.reduced.D, fw.eps, fw.graph.n),
        witness=(fw.D, elim.reduced.D),
    )
    st.require("parity-preserved", elim.reduced.D % 2 == 0)
    run.take(elim.hamilton_cycles, "elimination")
    return elim


def _pack(run: _Run, fw: Framework, K: int, eps4, reserved=frozenset()):
    """Pack Hamilton cycles into the weak framework ``fw``: eliminate the
    exceptional cut in the open stage, then, in three stages of their own,
    partition into K clusters, build balanced exceptional systems (slices
    under ``eps4``) and extend each system into a Hamilton cycle of what is
    left of the host outside ``reserved``.  Returns the cut, system-cover
    and system-extension cycles; when the elimination leaves degree 0,
    nothing is left to pack and no stage opens."""
    c, report = run.constants, run.report
    elim = _eliminate(run, fw)
    fw = elim.reduced
    if fw.D == 0:
        return elim.hamilton_cycles, [], []

    st = report.stage("cluster-partition", "partition", K=K)
    part, cert = framework_partition(fw, fw.host_graph(), K, c.eps1, c.eps2,
                                     seed=run.seed)
    st.check("properties-verified", True, witness=cert.as_json()["conditions"])
    fw = replace(fw, partition=part, K=K)

    st = report.stage("balanced-exceptional-systems", "bes-cover")
    bes = bes_stage(fw, part, c, run.seed, st, K, eps4)
    run.take(bes.cycles, "bes-cycles")

    st = report.stage("approximate-decomposition", "approx")
    family = bes.family()
    rest = fw.D - 2 * len(bes.cycles)
    st.require("family-size-identity", rest == 2 * len(family),
               witness=(rest, len(family)))
    approx = approx_decomposition(run.left(reserved), part, family,
                                  budget=c.budget(run.seed))
    for i, cyc in enumerate(approx):
        missing = set(family[i].edges) - cycle_edges(cyc)
        st.require(f"cycle-{i}-contains-system", not missing,
                   witness=sorted(missing)[:3])
    run.take(approx, "approx")
    return elim.hamilton_cycles, bes.cycles, approx


def run_theorem_NWbip(
    f: Graph,
    g: Graph,
    constants: PipelineConstants,
    seed: int = 0,
    hint_split=None,
) -> DecompositionReport:
    """Pack D/2 edge-disjoint Hamilton cycles of the host f around the
    D-regular spanning subgraph g: eliminate the exceptional cut, build
    balanced exceptional systems, extend each into a Hamilton cycle.

    The cut elimination sizes its matching decomposition to D and takes
    contested neighbors first, so neither the benchmark's hosts nor a
    held-out draw of the same generator needs a second attempt.  The
    retries stay as a safety net: a failed run is retried with the free
    choices (which vertices become exceptional, greedy orders) reshuffled,
    deterministically in the seed, up to ``NWBIP_ATTEMPTS`` runs in all.
    The first clean report is returned, annotated with the retry count; if
    all attempts fail, the last report is returned as-is.  A failure at the
    entry gates is returned at once: no reshuffle changes the input.
    """
    for i in range(NWBIP_ATTEMPTS):
        rep = _nwbip_attempt(f, g, constants, seed, hint_split,
                             demotion_seed=i)
        if rep.ok():
            if i:
                rep.warnings.append(
                    f"succeeded after reshuffling free choices {i} time(s)"
                )
            return rep
        if rep.stages[0].status == "failed":
            break
    return rep


def _nwbip_attempt(
    f: Graph,
    g: Graph,
    constants: PipelineConstants,
    seed: int,
    hint_split,
    demotion_seed: int = 0,
) -> DecompositionReport:
    # retries re-roll every free choice, not just the demotion: stage seeds
    # shift deterministically with the attempt index
    seed = seed + 7919 * demotion_seed
    run = _Run(f, g, constants, seed)
    report, D = run.report, run.D
    try:
        st = report.stage("input", "entry-gates", D=D)
        st.require("subgraph-regular", D >= 0, witness=run.irregular[:3])
        st.require("degree-even", D % 2 == 0, witness=D)
        st.require("spanning-subgraph", g.edges <= f.edges)
        st.check("degree-at-least-n-over-100", D * 100 >= f.n, witness=D)

        st = report.stage("eliminate-exceptional-cut", "elimination", K=constants.K)
        fw = bip_decompose(
            f, g, constants.K, constants.eps0, constants.eps_prime,
            hint_split=hint_split, demotion_seed=demotion_seed,
        )
        st.check("weak-framework", fw.kind in ("weak", "full"), witness=fw.kind)
        c1, c2, c3 = _pack(run, fw, constants.K, constants.eps4)

        st = report.stage("final-validation", "totals")
        cycles = c1 + c2 + c3
        st.require("cycle-count", len(cycles) == D // 2, witness=(len(cycles), D // 2))
        st.check(
            "count-identity",
            len(c1) + len(c2) + len(c3) == D // 2,
            witness=[len(c1), len(c2), len(c3)],
        )
        for cyc in cycles:
            for p in check_cycle_in_graph(f, cyc):
                st.require("cycle-valid", False, witness=p)
        dup = check_edge_disjoint([cycle_edges(c) for c in cycles])
        st.require("edge-disjoint", not dup, witness=dup[:1])
    except (BiphamError, AssertionError) as exc:
        return run.fail(exc)
    report.cycles = cycles
    return report


# -- the full decomposition pipeline ------------------------------------------

def run_theorem_1factbip(
    g: Graph,
    constants: PipelineConstants,
    seed: int = 0,
    hint_split=None,
) -> DecompositionReport:
    """Complete Hamilton decomposition of an even-regular nearly-bipartite
    graph.  After the degree reduction, the framework stage takes one of two
    routes.  A framework with exceptional vertices, or none found at all,
    packs the whole input host with NW-bip (``_pack_host``): the robust
    front closes no such run, and the reduction's cycles are dropped, since
    packing what they leave fails where packing g does not.  A framework
    without them keeps the robust front, the paper's construction: carve
    out a robustly decomposable graph, approximately decompose the rest,
    absorb the leftover via the robust closure."""
    c = constants
    run = _Run(g, g, c, seed)
    report, D = run.report, run.D
    report.warnings.extend(c.factorization_divisibility_warnings())
    try:
        st = report.stage("input", "entry-gates", D=D)
        st.require("regular", D >= 0)
        st.require("degree-even", D % 2 == 0, witness=D)
        pre_cycles = []
        g_work = g
        if 2 * D > g.n:
            # peel the fewest Hamilton cycles that bring the degree to at
            # most half the order (substitution: a direct search does the
            # removal), in one peel through empty systems under the run's
            # node budget, level 0, order 0 unshuffled.  k cycles leave
            # degree D - 2k: the least k with 2(D-2k) <= n
            k = (2 * D - g.n + 3) // 4
            peel = peel_through_systems(g.n, g.edges, [PathSystem(g.n, [])] * k,
                                        c.budget(0))
            if peel.cycles is None:
                raise PreconditionViolated(
                    "cannot reduce the degree below half the order"
                )
            pre_cycles = peel.cycles
            g_work = Graph._trusted(g.n, peel.rest)
            report.warnings.append(
                f"degree reduced from {D} by removing {len(pre_cycles)} "
                "Hamilton cycles before the pipeline"
            )
            st.check("degree-reduced", True, witness=len(pre_cycles))
            run.take(pre_cycles)
        D_work = D - 2 * len(pre_cycles)
        st.check("degree-at-most-half", 2 * D_work <= g.n, witness=D_work)

        st = report.stage("framework", "elimination", K=c.K1 * c.L)
        try:
            fw = bip_decompose(
                g_work, g_work, c.K1 * c.L, c.eps_star, c.eps0,
                hint_split=hint_split,
            )
        except PreconditionViolated as exc:
            why = {"framework": str(exc)}
        else:
            why = ({"exceptional": len(fw.partition.V0())}
                   if fw.partition.V0() else None)
        if why:
            st.check("route", True, witness={
                "route": "packing", **why,
                "peeled_cycles_dropped": len(pre_cycles)})
            return _pack_host(run, g, hint_split)
        elim = _eliminate(run, fw)
        c1, fw1 = elim.hamilton_cycles, elim.reduced

        st = report.stage("robust-parameters", "robust-contract")
        m1 = len(fw1.partition.A) // c.K1
        r = int(round(c.gamma * m1))
        r1 = c.r1_override if c.r1_override is not None else max(int(round(c.gamma1 * m1)), 1)
        params = RobustParams(
            r=r, r1=r1, g=c.g, f=c.f, L=c.L, ell_prime=c.ell_prime, K=c.K1, m=m1
        )
        derived = {
            "r2": params.r2, "r3": params.r3,
            "r_diamond": params.r_diamond, "s_prime": params.s_prime,
        }
        st.params.update(r=r, r1=r1, **derived)
        st.check("identities", True, witness=derived)
        div = params.divisibility_report()
        # the full divisibility list cannot hold at this scale; failures are
        # recorded as warnings, and the check notes what was waived
        st.check("divisibility-recorded", True, witness=div)
        report.warnings.extend(div)

        st = report.stage("robust-partition", "partition", K1=c.K1, L=c.L)
        part_fine, cert = framework_partition(
            fw1, fw1.graph, c.K1 * c.L, c.eps1, c.eps2, seed=seed
        )
        # regroup K1*L fine clusters into K1 clusters with L-part refinement
        refined_a, refined_b = (
            [fine[i * c.L : (i + 1) * c.L] for i in range(c.K1)]
            for fine in (part_fine.clusters_A, part_fine.clusters_B)
        )
        part1 = part_fine.with_clusters(
            [chain.from_iterable(parts) for parts in refined_a],
            [chain.from_iterable(parts) for parts in refined_b],
        ).with_refinement(refined_a, refined_b)
        st.check("partition-certified", True, witness=cert.attempts)
        fw1 = replace(fw1, partition=part1, K=c.K1)

        st = report.stage("robust-bes", "bes-cover")
        st.check("empty-exceptional-set", True,
                 witness="no exceptional vertices: empty systems padded")
        st.check("ca-slots", True, witness=c.L * c.f * params.r3)
        st.check("pca-slots", True, witness=7 * params.r_diamond)

        st = report.stage("robust-graph", "robust-contract")
        g2 = Graph(
            fw1.graph.n,
            fw1.graph.edges_between(part1.A, part1.B),
        )
        sch = scheme_violations(g2, part1, c.eps0, c.eps_prime)
        st.check("scheme", not sch, witness=sch[:2])
        parities, rd, bf_ca, bf_pca, ca, pca = _build_absorbers(
            g2, part1, params, c, seed
        )
        st.check("orientation-verified", True, witness=parities)
        st.check("chord-absorber-regular",
                 set(Graph(g.n, ca.edges).degrees()) <= {2 * (params.r1 + params.r2)},
                 witness=2 * (params.r1 + params.r2))
        st.check("parity-switcher-regular",
                 set(Graph(g.n, pca.edges).degrees()) <= {10 * params.r_diamond},
                 witness=10 * params.r_diamond)
        rob_edges = set(ca.edges) | set(pca.edges)
        for bf in bf_ca + bf_pca:
            rob_edges |= set(bf.edge_multiset())
        r0_rob = 2 * (c.L * c.f * params.r3 + 7 * params.r_diamond)
        r_rob = 2 * (params.r1 + params.r2 + params.r3 + 6 * params.r_diamond)
        st.require("exceptional-robust-degree-identity", r0_rob - r_rob == 2 * r,
                   witness=(r0_rob, r_rob))
        rob = Graph(g.n, rob_edges)
        st.require("robust-degrees", set(rob.degrees()) == {r_rob},
                   witness=(r0_rob, r_rob))
        st.check("robust-degree-bounds", 7 * params.r1 <= r0_rob <= 30 * params.r1,
                 witness=r0_rob)

        st = report.stage("repartition", "approx", K2=c.K2)
        g4 = fw1.graph.minus_edges(rob_edges)
        d4 = fw1.D - r0_rob
        st.require("degree-law-after-robust", set(g4.degrees()) == {d4 + 2 * r},
                   witness=d4)
        part_star = LabelledPartition(g.n, [], part1.A, [], part1.B)
        fw4 = validate_framework(
            g4, part_star, d4, c.eps0, c.eps_prime, c.K2, host=g4
        )
        if isinstance(fw4, list):
            raise PreconditionViolated(f"repartitioned graph: {fw4[0].detail}")
        c2, c3, c4 = _pack(run, fw4, c.K2, c.eps4_prime, reserved=rob_edges)

        st = report.stage("robust-closure", "robust-contract")
        h_prime = run.left(rob_edges)
        st.require("leftover-regular", set(h_prime.degrees()) == {2 * r},
                   witness=2 * r)
        st.require(
            "leftover-bipartite",
            not h_prime.e_within(part1.A_prime())
            and not h_prime.e_within(part1.B_prime()),
        )
        h = Graph(g.n, h_prime.edges_between(part1.A, part1.B))
        c5 = rd.closure(h, max_seconds=c.max_seconds, seed=seed)
        st.check("closure-cycles", len(c5) == params.s_prime,
                 witness=(len(c5), params.s_prime))
        st.check("split-attempts", True, witness=rd.split_attempts)
        st.check("switches", True, witness=rd.swaps)

        st = report.stage("final-validation", "totals")
        cycles = pre_cycles + c1 + c2 + c3 + c4 + c5
        st.require("cycle-count", len(cycles) == D // 2, witness=(len(cycles), D // 2))
        problems = check_decomposition(g, [cycle_edges(cy) for cy in cycles])
        st.require("exact-decomposition", not problems, witness=problems[:1])
        for cyc in cycles:
            for p in check_cycle_in_graph(g, cyc):
                st.require("cycle-valid", False, witness=p)
    except (BiphamError, AssertionError) as exc:
        return run.fail(exc)
    report.cycles = cycles
    return report


def _pack_host(run: _Run, g: Graph, hint_split) -> DecompositionReport:
    """The packing route of the 1-factorization: D/2 edge-disjoint Hamilton
    cycles of the D-regular g are a Hamilton decomposition of g, so NW-bip
    packs g around itself, reshuffles included, and its stages follow the
    run's own.  An ok packing gains the exact-decomposition check."""
    packed = run_theorem_NWbip(g, g, run.constants, run.seed, hint_split)
    report = run.report
    # NW-bip's entry gates repeat the ones g has passed
    report.stages += packed.stages[1:]
    report.accounting = packed.accounting
    report.warnings += [w for w in packed.warnings if w not in report.warnings]
    if packed.ok():
        problems = check_decomposition(g, [cycle_edges(cy) for cy in packed.cycles])
        report.stages[-1].require("exact-decomposition", not problems,
                                  witness=problems[:1])
        report.cycles = packed.cycles
    return report


def _build_absorbers(g2, part1, params, c, seed):
    """Orient the scheme, build both balanced-factor families on it and the
    two absorbers from them: r3 factors of L*f path systems for the chord
    absorber, then r_diamond factors of 7 path systems on the arcs those
    leave for the parity switcher (a count of 0 builds no family).  Both
    families are built before the absorbers, which are then peeled from
    the regular remainder (the stated construction order interleaves
    these; the postconditions checked by the caller are
    order-independent).  The alternating orientation is
    tried with the parities of ``seed`` and ``seed + 1``, in that order,
    and the number of parities tried is returned first; the last failure is
    raised when both fail."""
    part1_coarse = part1.with_clusters(part1.clusters_A, part1.clusters_B)
    last_exc = None
    for attempt in range(2):
        try:
            g2dir, _ = orient_scheme(
                g2, part1, c.eps0, c.eps_prime, seed=seed + attempt,
            )
            rd = RobustDecomposition(g2dir, part1, params)
            bf_ca = build_bf_family(
                g2dir, part1, c.L, c.f, params.r3, min_interval=c.min_interval,
            )
            used_bf: set = set()
            for bf in bf_ca:
                used_bf |= set(bf.edge_multiset())
            g3dir = g2dir.minus_arcs(
                {a for a in g2dir.arcs if (min(a), max(a)) in used_bf}
            )
            bf_pca = build_bf_family(
                g3dir, part1_coarse, 1, 7, params.r_diamond,
                min_interval=c.min_interval,
            )
            ca = rd.build_chord_absorber(bf_ca, extra_avoid=bf_pca)
            pca = rd.build_parity_switcher(bf_pca)
            return attempt + 1, rd, bf_ca, bf_pca, ca, pca
        except BiphamError as exc:
            # no traceback: it would tie this frame to itself, and the cycle
            # would hold the failed attempt until a full garbage collection
            last_exc = exc.with_traceback(None)
    raise last_exc
