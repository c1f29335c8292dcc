#!/usr/bin/env python3
"""Benchmark worker: loads one workload's frozen inputs and runs its
instances on request.

``run.py`` starts it as ``python3 perfbench/worker.py <workload> [--trace
FILE]`` with the checkout's ``src`` on ``PYTHONPATH``.  It speaks JSON lines:
once the inputs are loaded and their sha256 digests checked it writes
``{"ready": ...}``, then answers each request line with one result line.

  {"op": "run", "index": i}   run instance i, referee its report
  {"op": "micro"}             time the three kernel micro-cases

A watchdog thread stops an instance that outlives the workload's limit: it
writes ``{"overrun": ...}`` and ends the process, so no half-finished
search state survives into the next instance.  ``run.py`` kills the worker
itself if even that message does not arrive.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_inputs(workload: str):
    """The workload spec and its graphs, each file checked against the
    manifest's sha256."""
    from bipham.graphs import Graph

    manifest = json.loads((HERE / "inputs" / "MANIFEST.json").read_bytes())
    digests = manifest["sha256"]

    def read(name: str):
        rel = f"{workload}/{name}"
        data = (HERE / "inputs" / rel).read_bytes()
        if hashlib.sha256(data).hexdigest() != digests.get(rel):
            raise SystemExit(f"worker: sha256 mismatch for inputs/{rel}")
        return json.loads(data)

    spec = read("instances.json")
    graphs = {}
    for inst in spec["instances"]:
        name = inst["graph"]
        if name not in graphs:
            doc = read(f"{name}.json")
            host = Graph(doc["n"], doc["edges"])
            sub = Graph(doc["n"], doc["sub_edges"]) if "sub_edges" in doc else host
            graphs[name] = (host, sub, (doc["split"][0], doc["split"][1]))
    return spec, graphs


def referee(driver: str, host, sub, rep) -> list[str]:
    """Re-check a successful report: D/2 Hamilton cycles of the host,
    pairwise edge-disjoint, and for the 1-factorization an exact
    decomposition of the whole graph."""
    from bipham.validate import (
        check_cycle_in_graph,
        check_decomposition,
        check_edge_disjoint,
        cycle_edges,
    )

    D = sub.degree(0)
    problems = []
    if len(rep.cycles) != D // 2:
        problems.append(f"{len(rep.cycles)} cycles, expected {D // 2}")
    for cyc in rep.cycles:
        problems += check_cycle_in_graph(host, cyc)
    sets = [cycle_edges(c) for c in rep.cycles]
    problems += check_edge_disjoint(sets)
    if driver == "onefact":
        problems += check_decomposition(host, sets)
    return problems


def micro_cases() -> dict:
    """The three kernel cases formerly timed by benchmarks/bench_hamilton.py,
    each checked: all 43200 Hamilton cycles of K(6,6); first cycle through a
    prescribed path system in K(9,9) under ten item orders; greedy peeling
    of K(9,9).  Returns seconds and kernel nodes per case."""
    from bipham.graphs import PathSystem, complete_bipartite
    from bipham.search import CycleSearch, Prescribed
    from bipham.validate import check_cycle_in_graph, check_edge_disjoint, cycle_edges

    out, problems = {}, []

    def timed(case, fn):
        t0 = time.perf_counter()
        nodes = fn()
        out[case] = {"s": time.perf_counter() - t0, "nodes": nodes}

    def enumerate_k66():
        search = CycleSearch(complete_bipartite((6, 6)))
        count = sum(1 for _ in search.cycles())
        if count != 43200:
            problems.append(f"K(6,6) has 43200 Hamilton cycles, enumerated {count}")
        return search.stats.nodes

    def prescribed_k99():
        g = complete_bipartite((9, 9))
        q = PathSystem(18, [(0, 9), (9, 1), (2, 11), (11, 3)])
        nodes = 0
        for seed in range(10):
            search = CycleSearch(
                g.minus_edges(q.edges), [Prescribed(p) for p in q.paths], seed=seed
            )
            cyc = search.first()
            nodes += search.stats.nodes
            if cyc is None or check_cycle_in_graph(g, cyc) or not q.edges <= cycle_edges(cyc):
                problems.append(f"prescribed K(9,9), order {seed}: no valid cycle")
        return nodes

    def peel_k99():
        g = cur = complete_bipartite((9, 9))
        cycles, nodes = [], 0
        while True:
            search = CycleSearch(cur)
            cyc = search.first()
            nodes += search.stats.nodes
            if cyc is None:
                break
            problems.extend(check_cycle_in_graph(g, cyc))
            cycles.append(cycle_edges(cyc))
            cur = cur.minus_edges(cycles[-1])
        problems.extend(check_edge_disjoint(cycles))
        if not cycles:
            problems.append("peel K(9,9): no cycle found")
        return nodes

    timed("enumerate", enumerate_k66)
    timed("prescribed", prescribed_k99)
    timed("peel", peel_k99)
    return {"micro": out, "problems": problems}


class Worker:
    def __init__(self, workload: str, trace_path: str | None):
        from bipham import pipeline
        from bipham.pipeline import PipelineConstants

        self.pipeline = pipeline
        self.spec, self.graphs = load_inputs(workload)
        self.constants = PipelineConstants.from_json(self.spec["constants"])
        self.tracer = None
        self.trace_path = trace_path
        if trace_path:
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        # the protocol owns fd 1; anything the program prints goes to stderr
        self.out = os.fdopen(os.dup(1), "w")
        os.dup2(2, 1)
        sys.stdout = sys.stderr
        self.lock = threading.Lock()

    def send(self, msg: dict) -> None:
        self.out.write(json.dumps(msg) + "\n")
        self.out.flush()

    def _take_trace(self, inst_id: str):
        if self.tracer is None:
            return None
        spans, agg = self.tracer.take()
        with open(self.trace_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"instance": inst_id, "spans": spans}) + "\n")
        return agg

    def run(self, index: int) -> dict:
        inst = self.spec["instances"][index]
        host, sub, split = self.graphs[inst["graph"]]
        driver = self.spec["driver"]
        hint = (list(split[0]), list(split[1]))
        done = [False]

        def overrun():
            with self.lock:
                if done[0]:
                    return
                self.send({"index": index, "overrun": True,
                           "trace": self._take_trace(inst["id"])})
                os._exit(3)

        timer = threading.Timer(self.spec["limit_s"], overrun)
        timer.daemon = True
        rep, error = None, None
        timer.start()
        t0 = time.perf_counter()
        try:
            if driver == "nwbip":
                rep = self.pipeline.run_theorem_NWbip(
                    host, sub, self.constants, seed=inst["seed"], hint_split=hint
                )
            else:
                rep = self.pipeline.run_theorem_1factbip(
                    host, self.constants, seed=inst["seed"], hint_split=hint
                )
        except Exception:  # an untyped failure is a result to report
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        with self.lock:
            done[0] = True
            timer.cancel()
        trace = self._take_trace(inst["id"])
        msg = {"index": index, "time_s": elapsed, "error": error, "trace": trace}
        if rep is not None:
            from bipham.report import render_report

            msg["ok"] = rep.ok()
            msg["digest"] = hashlib.sha256(render_report(rep).encode()).hexdigest()
            with self.untraced():
                msg["problems"] = referee(driver, host, sub, rep)[:3] if rep.ok() else []
        return msg

    @contextlib.contextmanager
    def untraced(self):
        """Calls into bipham that are the benchmark's own work, not the
        workload's, leave no spans."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def serve(self) -> None:
        import bipham
        from bipham.hamkernel import KERNEL

        self.send({
            "ready": True,
            "kernel": KERNEL,
            "bipham": str(Path(bipham.__file__).resolve().parent),
            "missing_entry_points": self.tracer.missing if self.tracer else [],
        })
        for line in sys.stdin:
            req = json.loads(line)
            if req["op"] == "run":
                self.send(self.run(req["index"]))
            elif req["op"] == "micro":
                with self.untraced():
                    self.send(micro_cases())


def main() -> None:
    import argparse

    ap = argparse.ArgumentParser(description="bipham benchmark worker")
    ap.add_argument("workload")
    ap.add_argument("--trace", default=None, help="append spans to this file")
    args = ap.parse_args()
    Worker(args.workload, args.trace).serve()


if __name__ == "__main__":
    main()
