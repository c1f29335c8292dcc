"""Spans and counts taken around the public entry points of bipham's layers.

Nothing under ``src/`` is instrumented: ``Tracer.install`` replaces each entry
point listed in ``ENTRY_POINTS`` by a wrapper, in every ``bipham`` module that
imported it by name.  A span records name, start, end and parent span; spans
stay in memory until ``Tracer.take`` hands them out with their per-layer
aggregates.  A layer's self time is its spans' duration minus the part
covered by their child spans.  Generators and the kernel enumerator are
timed per ``next()`` call, so a consumer's own work between two yields is
charged to the consumer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute, kind); kind is "call" for a function or
# method whose call is one span, "iter" for one that returns an iterator
# (a generator, the kernel enumerator) timed per ``next()``.  Dotted
# attributes name a method on a class.
ENTRY_POINTS = [
    ("pipeline", "bipham.pipeline", "run_theorem_NWbip", "call"),
    ("pipeline", "bipham.pipeline", "run_theorem_1factbip", "call"),
    ("balancer.decompose", "bipham.balancer", "bip_decompose", "call"),
    ("balancer.eliminate", "bipham.balancer", "eliminate_A0B0", "call"),
    ("partitioning.framework", "bipham.partitioning", "framework_partition", "call"),
    ("partitioning.slices", "bipham.partitioning", "localized_slices", "call"),
    ("partitioning.orient", "bipham.partitioning", "orient_scheme", "call"),
    ("bes", "bipham.bes", "plan_slice_decomposition", "call"),
    ("bes", "bipham.bes", "decompose_slice", "call"),
    ("bes", "bipham.bes", "decompose_global", "call"),
    ("bes", "bipham.bes", "build_localized_pairs", "call"),
    ("bes", "bipham.bes", "exceptional_degree_floor_violations", "call"),
    ("bes", "bipham.bes", "extend_to_bes", "call"),
    ("bes", "bipham.bes", "cover_global_by_cycles", "call"),
    ("fictive", "bipham.fictive", "build_fictive", "call"),
    ("fictive", "bipham.fictive", "substitute", "call"),
    ("fictive.search", "bipham.fictive", "consistent_cycle_search", "iter"),
    ("solvers.approx", "bipham.solvers", "approx_decomposition", "call"),
    ("solvers.prescribed", "bipham.solvers", "bip_hamilton_with_prescribed", "call"),
    ("beps", "bipham.beps", "build_bf_family", "call"),
    ("walks.absorbers", "bipham.walks", "RobustDecomposition.build_chord_absorber", "call"),
    ("walks.absorbers", "bipham.walks", "RobustDecomposition.build_parity_switcher", "call"),
    ("walks.closure", "bipham.walks", "RobustDecomposition.closure", "call"),
    ("search", "bipham.search", "CycleSearch.cycles", "iter"),
    ("hamkernel", "bipham.hamkernel", "cycle_enumerator", "iter"),
    ("validate", "bipham.validate", "check_cycle", "call"),
    ("validate", "bipham.validate", "check_cycle_in_graph", "call"),
    ("validate", "bipham.validate", "check_edge_disjoint", "call"),
    ("validate", "bipham.validate", "check_decomposition", "call"),
    ("validate", "bipham.validate", "check_bes", "call"),
    ("validate", "bipham.validate", "check_a0b0_path_system", "call"),
]

# counted but not spanned: NW-bip reshuffle attempts
COUNTED = [("pipeline.attempts", "bipham.pipeline", "_nwbip_attempt")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.paused = False
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------
    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def take(self) -> tuple[list, dict]:
        """Hand out the spans and counts recorded so far and start afresh.
        Spans still open (an instance stopped from outside) end now."""
        now = time.perf_counter()
        spans = [[n, s, now if e is None else e, p] for n, s, e, p in self.spans]
        counts = dict(self.counts)
        self.spans, self.stack = [], []
        self.counts = defaultdict(int)
        return spans, aggregate(spans, counts)

    # -- wrappers ------------------------------------------------------------
    def _call(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            idx = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return wrapper

    def _iter(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if self.paused:
                return it
            self.counts[f"{name}.calls"] += 1
            count = counter(self, name, args, it) if counter else None
            return _Traced(self, name, it, count)

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every entry point; an entry point that no longer exists is
        recorded in ``missing`` and its layer reads zero."""
        for name, modname, attr, kind in ENTRY_POINTS:
            wrap = self._call if kind == "call" else self._iter
            self._patch(modname, attr, functools.partial(wrap, name, counter=COUNTERS.get(attr)))
        for name, modname, attr in COUNTED:
            self._patch(modname, attr, functools.partial(self._counted, name))

    def _patch(self, modname, attr, make_wrapper) -> None:
        mod = importlib.import_module(modname)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = getattr(owner, leaf, None)
        if orig is None:
            self.missing.append(f"{modname}.{attr}")
            return
        wrapper = make_wrapper(orig)
        if owner_name:
            setattr(owner, leaf, wrapper)
            return
        # rebind every module-level name that refers to the original
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "bipham" or mname.startswith("bipham.")):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)


def _switcher_built(tracer, args, kwargs, out):
    # the parity switcher is the last piece of one orientation attempt
    tracer.counts["walks.orientations_completed"] += 1


def _systems_requested(tracer, args, kwargs, out):
    family = args[2] if len(args) > 2 else kwargs["family"]
    tracer.counts["solvers.approx.systems"] += len(family)


def _search_counts(tracer, name, args, it):
    """Candidates and decoder rejections of a ``CycleSearch``, per call."""
    stats = args[0].stats
    seen = [stats.candidates, stats.rejected]

    def count():
        tracer.counts[f"{name}.candidates"] += stats.candidates - seen[0]
        tracer.counts[f"{name}.rejected"] += stats.rejected - seen[1]
        seen[:] = [stats.candidates, stats.rejected]

    return count


def _kernel_nodes(tracer, name, args, enum):
    """Search nodes the kernel enumerator expands, per call."""
    seen = [0]

    def count():
        tracer.counts[f"{name}.nodes"] += enum.nodes - seen[0]
        seen[0] = enum.nodes

    return count


# extra counts taken after a wrapped call returns, or after each next()
COUNTERS = {
    "RobustDecomposition.build_parity_switcher": _switcher_built,
    "approx_decomposition": _systems_requested,
    "CycleSearch.cycles": _search_counts,
    "cycle_enumerator": _kernel_nodes,
}


class _Traced:
    """An iterator seen through per-``next()`` spans; ``count`` runs after
    each call.  Other attributes (the kernel's ``nodes``) pass through."""

    def __init__(self, tracer, name, it, count):
        self._tracer, self._name, self._it, self._count = tracer, name, it, count

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.enter(self._name)
        try:
            return next(self._it)
        finally:
            self._tracer.exit(idx)
            if self._count is not None:
                self._count()

    def __getattr__(self, attr):
        return getattr(self._it, attr)


def aggregate(spans: list, counts: dict) -> dict:
    """Per-layer self time (``<layer>.busy_s``) and every count."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    total = 0.0
    for (name, start, end, parent), covered in zip(spans, child):
        own = (end - start) - covered
        out[f"{name}.busy_s"] += own
        total += own
    out["self_s"] = total
    out.update(counts)
    return dict(out)
