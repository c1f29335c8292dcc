#!/usr/bin/env python3
"""The bipham benchmark: one workload through one of the two public drivers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see README.md for why each):
``nwbip-exceptional``, ``nwbip-dense``, ``onefact-robust``.  The inputs are
the frozen files under ``perfbench/inputs``; ``--seed`` fixes the order in
which the instances run.  Each instance runs in a worker process
(``worker.py``) under the workload's per-instance time limit; an instance
that overruns it is stopped from outside, counted as failed and charged the
limit.  Every successful report is refereed outside the timed region.

With ``--trace 0`` the run makes a first pass over every instance, reruns
the instances that finished until their time adds up to ``--seconds``, and
prints the end-to-end metrics from each instance's median time; with
``--trace 1`` it runs one pass with spans around every layer's entry points
(``tracing.py``), then the kernel micro-cases, and prints per-layer metrics.
The last line of standard output is the result as one JSON object; the line
before it holds the run's metadata.  A referee failure makes the exit code 1;
an input or start-up problem exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nwbip-exceptional", "nwbip-dense", "onefact-robust")
SETUP_SAMPLES = 5
START_TIMEOUT_S = 60.0
KILL_GRACE_S = 10.0  # past the limit, before the worker itself is killed
TRACE_DIR = ROOT / ".bench_trace"


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


class WorkerProcess:
    """One ``worker.py`` process and the line pump reading its answers."""

    def __init__(self, workload: str, trace_path: Path | None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, str(HERE / "worker.py"), workload]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        ready = self.receive(START_TIMEOUT_S)
        self.setup_s = time.perf_counter() - t0
        if not ready or not ready.get("ready"):
            self.stop()
            raise BenchError(f"worker for {workload} did not start")
        if Path(ready["bipham"]) != ROOT / "src" / "bipham":
            self.stop()
            raise BenchError(f"bipham imported from {ready['bipham']}, not src/")
        self.info = ready

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def receive(self, timeout: float) -> dict | None:
        """The next answer; None on timeout, ``{"exited": True}`` when the
        worker ended without one."""
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            return None
        return {"exited": True} if line is None else json.loads(line)

    def request(self, msg: dict, timeout: float) -> dict | None:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return {"exited": True}
        return self.receive(timeout)

    def stop(self) -> None:
        """End the process and wait for it; kill it if it does not leave."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=KILL_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def load_spec(workload: str) -> dict:
    path = HERE / "inputs" / workload / "instances.json"
    if not path.is_file() or not (ROOT / "src" / "bipham").is_dir():
        raise BenchError(f"missing inputs for {workload} or src/bipham")
    return json.loads(path.read_bytes())


def run_pass(workload, spec, order, state, trace_path):
    """Each instance in ``order`` once; returns one outcome per instance."""
    limit = spec["limit_s"]
    outcomes = []
    for index in order:
        if state.get("worker") is None:
            state["worker"] = WorkerProcess(workload, trace_path)
            state["info"] = state["worker"].info
        worker = state["worker"]
        msg = worker.request({"op": "run", "index": index}, limit + KILL_GRACE_S)
        if msg is None or "time_s" not in msg:
            # overrun (the watchdog's message, or silence), or a crash
            worker.stop()
            state["worker"] = None
            crashed = bool(msg and msg.get("exited"))
            msg = {"index": index, "trace": (msg or {}).get("trace"),
                   "overrun": not crashed, "crashed": crashed, "time_s": limit}
        outcomes.append(msg)
    return outcomes


def measure(workload, spec, order, state, seconds, trace_path):
    """Passes over the workload.  The first runs every instance; later ones
    rerun the instances that finished until their run time adds up to
    ``seconds``.  An instance stopped once is not run again: its time is the
    limit.  A traced run makes one pass."""
    outcomes, stopped, busy = [], set(), 0.0
    while True:
        todo = [i for i in order if i not in stopped]
        for o in run_pass(workload, spec, todo, state, trace_path):
            outcomes.append(o)
            if "digest" in o or o.get("error"):
                busy += o["time_s"]
            else:
                stopped.add(o["index"])
        if trace_path is not None or busy >= seconds or len(stopped) == len(order):
            return outcomes


def summarize(spec, outcomes):
    """Per instance: its median time over the passes (the limit once it was
    stopped), whether it failed, and its report digest."""
    limit = spec["limit_s"]
    by_index: dict[int, list] = {}
    for o in outcomes:
        by_index.setdefault(o["index"], []).append(o)
    rows = []
    for index in sorted(by_index):
        runs = by_index[index]
        stopped = any(o.get("overrun") or o.get("crashed") for o in runs)
        digests = {o.get("digest") or ("overrun" if o.get("overrun") else "error")
                   for o in runs}
        rows.append({
            "time_s": limit if stopped else statistics.median(o["time_s"] for o in runs),
            "finished": not stopped and all("digest" in o for o in runs),
            "failed": stopped or not all(o.get("ok") and not o.get("problems") for o in runs),
            "digests": digests,
        })
    return rows


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_id() -> dict:
    """The commit, when the checkout has git metadata, and a digest over
    the program's sources, which identifies the code either way."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def layer_metrics(outcomes: list, wall_s: float, micro: dict) -> dict:
    """Per-layer metrics of one traced pass.  Times cover every instance,
    so self times add up to the traced wall time.  Counts, and the ratios
    built from them, cover the instances that finished: how far an overrun
    instance got before it was stopped depends on the machine's speed."""
    times: dict[str, float] = {}
    done: dict[str, float] = {}
    for o in outcomes:
        for key, val in (o["trace"] or {}).items():
            if key.endswith("_s"):
                times[key] = times.get(key, 0) + val
            if not o.get("overrun"):
                done[key] = done.get(key, 0) + val

    def get(key):
        return times.get(key, 0) if key.endswith("_s") else done.get(key, 0)

    def ratio(num, den):
        return done.get(num, 0) / done[den] if done.get(den) else 0.0

    m = {
        "hamkernel.nodes": (get("hamkernel.nodes"), "count"),
        "hamkernel.calls": (get("hamkernel.calls"), "count"),
        "hamkernel.busy_s": (get("hamkernel.busy_s"), "s"),
        "hamkernel.nodes_per_s": (ratio("hamkernel.nodes", "hamkernel.busy_s"), "1/s"),
        "search.calls": (get("search.calls"), "count"),
        "search.candidates": (get("search.candidates"), "count"),
        "search.rejected": (get("search.rejected"), "count"),
        "search.accept_ratio": (
            1 - ratio("search.rejected", "search.candidates") if get("search.candidates") else 0.0,
            "ratio"),
        "search.busy_s": (get("search.busy_s"), "s"),
        "solvers.approx.busy_s": (get("solvers.approx.busy_s"), "s"),
        "solvers.approx.searches_per_system": (
            ratio("fictive.search.calls", "solvers.approx.systems"), "ratio"),
        "solvers.prescribed.calls": (get("solvers.prescribed.calls"), "count"),
        "solvers.prescribed.busy_s": (get("solvers.prescribed.busy_s"), "s"),
        "balancer.decompose.busy_s": (get("balancer.decompose.busy_s"), "s"),
        "balancer.eliminate.busy_s": (get("balancer.eliminate.busy_s"), "s"),
        "partitioning.framework.busy_s": (get("partitioning.framework.busy_s"), "s"),
        "partitioning.slices.busy_s": (get("partitioning.slices.busy_s"), "s"),
        "partitioning.orient.busy_s": (get("partitioning.orient.busy_s"), "s"),
        "partitioning.orient.attempts_per_success": (
            ratio("partitioning.orient.calls", "walks.orientations_completed"), "ratio"),
        "bes.busy_s": (get("bes.busy_s"), "s"),
        "fictive.busy_s": (get("fictive.busy_s") + get("fictive.search.busy_s"), "s"),
        "beps.busy_s": (get("beps.busy_s"), "s"),
        "walks.absorbers.busy_s": (get("walks.absorbers.busy_s"), "s"),
        "walks.closure.busy_s": (get("walks.closure.busy_s"), "s"),
        "validate.busy_s": (get("validate.busy_s"), "s"),
        "pipeline.busy_s": (get("pipeline.busy_s"), "s"),
        "pipeline.attempts_per_instance": (ratio("pipeline.attempts", "pipeline.calls"), "ratio"),
        "traced.wall_s": (wall_s, "s"),
        "traced.self_s": (get("self_s"), "s"),
    }
    nodes = sum(case["nodes"] for case in micro.values())
    secs = sum(case["s"] for case in micro.values())
    for case, vals in micro.items():
        m[f"hamkernel.micro.{case}_s"] = (vals["s"], "s")
    m["hamkernel.micro.nodes_per_s"] = (nodes / secs, "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="bipham benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    state: dict = {}
    try:
        spec = load_spec(args.workload)
        n = len(spec["instances"])
        order = list(range(n))
        random.Random(args.seed).shuffle(order)

        # set-up: interpreter start, import, input load and digest check
        setup = []
        for _ in range(SETUP_SAMPLES):
            worker = WorkerProcess(args.workload, None)
            setup.append(worker.setup_s)
            worker.stop()
        kernel = worker.info["kernel"]

        trace_path = None
        if args.trace:
            TRACE_DIR.mkdir(exist_ok=True)
            trace_path = TRACE_DIR / f"{args.workload}.jsonl"
            trace_path.unlink(missing_ok=True)
        outcomes = measure(args.workload, spec, order, state, args.seconds, trace_path)
        micro = None
        if args.trace:
            if state.get("worker") is None:
                state["worker"] = WorkerProcess(args.workload, trace_path)
            micro = state["worker"].request({"op": "micro"}, 120.0)
            if not micro or "micro" not in micro:
                raise BenchError("kernel micro-cases did not complete")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        if state.get("worker") is not None:
            state["worker"].stop()

    rows = summarize(spec, outcomes)
    wall_s = sum(r["time_s"] for r in rows)
    finished = sorted(r["time_s"] for r in rows if r["finished"]) or [spec["limit_s"]]
    digest = hashlib.sha256(
        " ".join("|".join(sorted(r["digests"])) for r in rows).encode()
    ).hexdigest()
    problems = [(spec["instances"][o["index"]]["id"], o["problems"])
                for o in outcomes if o.get("problems")]
    if micro and micro["problems"]:
        problems.append(("kernel micro-cases", micro["problems"]))

    if args.trace:
        metrics = layer_metrics(outcomes, wall_s, micro["micro"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "failed_share": {"value": sum(r["failed"] for r in rows) / n, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                "unit": "MB"},
        }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "kernel": kernel,
        "instances": n,
        # the compiled kernel takes at most 64 items; these run pure anyway
        "instances_over_64_vertices": sum(1 for i in spec["instances"] if i["n"] > 64),
        "instance_runs": len(outcomes),
        # per-instance percentiles, reported but not gated: see README.md
        "instance_p50_s": {"value": statistics.median(finished), "unit": "s"},
        "instance_p95_s": {"value": quantile(finished, 95), "unit": "s"},
        "report_digest": digest,
        "report_digest_stable": all(len(r["digests"]) == 1 for r in rows),
        "overruns": sum(1 for o in outcomes if o.get("overrun")),
        "referee_problems": problems[:5],
        "missing_entry_points": state["info"]["missing_entry_points"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **source_id(),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes
                      if o.get("crashed") or o.get("error") or o.get("problems")),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
