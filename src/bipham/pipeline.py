"""End-to-end decomposition pipelines.

Two drivers: ``run_theorem_NWbip`` packs half-the-degree many edge-disjoint
Hamilton cycles into a dense nearly-bipartite host around a regular spanning
subgraph; ``run_theorem_1factbip`` fully decomposes an even-regular
nearly-bipartite graph into Hamilton cycles by packing it around itself.
NW-bip packs with one routine, ``_pack``: the exceptional cut's
elimination, the cluster partition, the balanced exceptional systems and
the approximate decomposition.  The driver opens its stages in turn and
has one failure path: a typed error or failed requirement marks the most
recently opened stage failed with the error, and one skipped
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

from .balance import Framework, frac
from .balancer import (
    EliminationResult,
    bip_decompose,
    elimination_bound_holds,
    eliminate_A0B0,
)
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
from .partitioning import framework_partition, localized_slices
from .report import DecompositionReport, Stage
from .solvers import SolverBudget, approx_decomposition
from .validate import (
    check_cycle_in_graph,
    check_decomposition,
    check_edge_disjoint,
    cycle_edges,
)

NWBIP_ATTEMPTS = 6


@dataclass(frozen=True)
class PipelineConstants:
    """Every tunable of the two pipelines, as exact rationals / integers.

    The separation ladder between the epsilons is advisory at this scale:
    ratios are reported, runs proceed regardless.
    """

    eps_ex: Fraction = Fraction(1, 10)
    eps0: Fraction = Fraction(1, 2)
    eps0_prime: Fraction = Fraction(7, 10)
    eps_prime: Fraction = Fraction(1, 4)
    eps1: Fraction = Fraction(1, 2)
    eps2: Fraction = Fraction(9, 10)
    eps3: Fraction = Fraction(1, 25)
    eps4: Fraction = Fraction(0)
    K: int = 1
    K1: int = 7
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
        # NW-bip divides by K (cluster sizes, 1/K); the others belonged to
        # the robust decomposition front, which is gone, and are kept, with
        # their checks, because the benchmark's constants still name them
        for name in ("K", "K1", "L", "f", "g", "ell_prime"):
            if getattr(self, name) < 1:
                raise PreconditionViolated(
                    f"constant {name} = {getattr(self, name)} must be at least 1"
                )
        if self.r1_override is not None and self.r1_override < 0:
            raise PreconditionViolated(
                f"constant r1_override = {self.r1_override} must be at least 0"
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
) -> BesStageResult:
    """Localized slices -> per-slice systems -> paired -> balanced
    exceptional systems, then the global leftover is absorbed into Hamilton
    cycles, on K clusters with slices under ``eps4`` of ``constants``.
    Every intermediate postcondition lands in ``stage``."""
    c = constants
    K, eps4 = c.K, c.eps4
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
    taken so far, as one edge set per cycle in the order taken and as
    their union."""

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
        self.taken: list[frozenset] = []
        self.report = DecompositionReport({
            "n": host.n,
            "host_edges": self.total,
            "subgraph_edges": g.num_edges(),
            "D": self.D,
        }, seed)
        self.report.warnings.extend(constants.hierarchy_warnings)

    def take(self, edge_sets: list[frozenset], label: str) -> None:
        """Add ``edge_sets``, the edge sets of the cycles a stage took, to
        the removed edges, and record the edge conservation entry of that
        stage under ``label``."""
        self.taken += edge_sets
        self.removed.update(*edge_sets)
        left = self.total - len(self.removed)
        self.report.account(label, len(self.removed), left, self.total)

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
    run.take(elim.edge_sets, "elimination")
    return elim


def _pack(run: _Run, fw: Framework):
    """Pack Hamilton cycles into the weak framework ``fw``: eliminate the
    exceptional cut in the open stage, then, in three stages of their own,
    partition into the constants' K clusters, build balanced exceptional
    systems (slices under their ``eps4``) and extend each system into a
    Hamilton cycle of what is left of the host.  Returns the cut, system-cover and system-extension
    cycles; when the elimination leaves degree 0, nothing is left to pack
    and no stage opens."""
    c, report = run.constants, run.report
    elim = _eliminate(run, fw)
    fw = elim.reduced
    if fw.D == 0:
        return elim.hamilton_cycles, [], []

    st = report.stage("cluster-partition", "partition", K=c.K)
    part, cert = framework_partition(fw, fw.host_graph(), c.K, c.eps1, c.eps2,
                                     seed=run.seed)
    st.check("properties-verified", True, witness=cert.as_json()["conditions"])
    fw = replace(fw, partition=part, K=c.K)

    st = report.stage("balanced-exceptional-systems", "bes-cover")
    bes = bes_stage(fw, part, c, run.seed, st)
    run.take([cycle_edges(c) for c in bes.cycles], "bes-cycles")

    st = report.stage("approximate-decomposition", "approx")
    family = bes.family()
    rest = fw.D - 2 * len(bes.cycles)
    st.require("family-size-identity", rest == 2 * len(family),
               witness=(rest, len(family)))
    approx = approx_decomposition(run.host, part, family,
                                  budget=c.budget(run.seed),
                                  excluded=run.removed)
    sets = [cycle_edges(c) for c in approx]
    for i, edges in enumerate(sets):
        missing = set(family[i].edges) - edges
        st.require(f"cycle-{i}-contains-system", not missing,
                   witness=sorted(missing)[:3])
    run.take(sets, "approx")
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
        c1, c2, c3 = _pack(run, fw)

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
        # the run took each of them, in this order
        dup = check_edge_disjoint(run.taken)
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
    graph: D/2 edge-disjoint Hamilton cycles of the D-regular g are a
    Hamilton decomposition of g, so NW-bip packs g around itself,
    reshuffles included, and an ok packing gains the exact-decomposition
    check.  Packed around itself, g leaves its approximate decomposition
    an exact budget, every pool edge on some cycle, which
    ``solvers.approx_decomposition`` closes by split and switch with no
    search; at D > n/2 no degree is reduced first."""
    report = run_theorem_NWbip(g, g, constants, seed, hint_split)
    if report.ok():
        problems = check_decomposition(g, [cycle_edges(c) for c in report.cycles])
        report.stages[-1].check("exact-decomposition", not problems,
                                witness=problems[:1])
    return report
