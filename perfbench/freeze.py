#!/usr/bin/env python3
"""Generate the benchmark's inputs once, from a seed, and freeze them.

Writes one JSON graph file per instance under ``perfbench/inputs/<workload>/``,
an ``instances.json`` per workload (which driver runs which graph with which
constants, seed and per-instance time limit), and ``inputs/MANIFEST.json``
with the sha256 of every file.  ``run.py`` checks those digests at load.

The inputs are committed because generating them is neither cheap nor
reproducible: ``regular_spanning_subgraph`` can take minutes on dense hosts,
and ``eps_bipartite_instance`` returns a different subgraph under each
``PYTHONHASHSEED`` (see README.md).

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/freeze.py --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
from pathlib import Path

from bipham.errors import BiphamError
from bipham.generators import (
    complete_bipartite_instance,
    eps_bipartite_instance,
    regular_spanning_subgraph,
)

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

# the toy constants of the smallest documented full 1-factorization run
TOY_1FACT = {
    "K1": 7, "L": 1, "f": 1, "g": 2, "ell_prime": 4, "gamma": "0",
    "gamma1": "0", "r1_override": 2, "min_interval": 3,
    "max_seconds": 300.0, "max_nodes": 20_000_000,
}


def _graph_doc(f, part, sub=None) -> dict:
    doc = {
        "n": f.n,
        "edges": sorted(f.edges),
        "split": [sorted(part.A), sorted(part.B)],
    }
    if sub is not None:
        doc["sub_edges"] = sorted(sub.edges)
    return doc


def exceptional(seed: int):
    """NW-bip on eps-bipartite hosts with planted hubs: the generator draw
    of the elimination acceptance criterion, at n = 24..64 and D = 4..8."""
    rng = random.Random(seed)
    graphs, instances = {}, []
    gen_seed = 1000 * seed
    while len(instances) < 200:
        gen_seed += 1
        n = rng.choice([24, 32, 40, 48, 56, 64])
        D = rng.choice([4, 6, 8])
        hubs = rng.choice([1, 1, 2])
        extra = rng.randint(0, 2)
        try:
            f, part, _props, g = eps_bipartite_instance(
                n=n, D=D, eps="1/8", hubs=hubs, hub_degree=n // 4 + 1,
                extra_internal=extra, seed=gen_seed,
            )
        except BiphamError:
            continue
        name = f"n{n}-D{D}-h{hubs}-x{extra}-s{gen_seed}"
        graphs[name] = _graph_doc(f, part, g)
        instances.append({"id": name, "graph": name, "n": n, "seed": gen_seed})
    return graphs, instances


def dense(seed: int):
    """NW-bip on complete bipartite hosts at D close to m.  K(12,12) at
    D = 12 is the D ~ m cliff; K(34,34) has 68 vertices, past the compiled
    kernel's 64-item limit."""
    graphs, instances = {}, []
    for m, D in ((12, 10), (14, 10), (16, 10), (34, 10), (12, 12)):
        f, part, _props = complete_bipartite_instance(m)
        if D == m:
            g = f
        else:
            g = regular_spanning_subgraph(
                f, D, seed=seed + m, split=(list(part.A), list(part.B))
            )
        name = f"K{m}-D{D}"
        graphs[name] = _graph_doc(f, part, g)
        instances.append({"id": name, "graph": name, "n": 2 * m, "seed": m})
    return graphs, instances


def robust(seed: int):
    """The full 1-factorization of K(28,28) with the toy constants, under
    four pipeline seeds (the seed picks the random orientations, item
    orders and restarts; the graph is fixed)."""
    f, part, _props = complete_bipartite_instance(28)
    graphs = {"K28": _graph_doc(f, part)}
    instances = [{"id": f"K28-seed{s}", "graph": "K28", "n": 56, "seed": s}
                 for s in (1, 2, 3, 4)]
    return graphs, instances


# name -> (instance generator, pipeline driver, constants, per-instance limit in s)
WORKLOADS = {
    "nwbip-exceptional": (exceptional, "nwbip", {}, 10.0),
    "nwbip-dense": (dense, "nwbip", {}, 20.0),
    "onefact-robust": (robust, "onefact", TOY_1FACT, 15.0),
}


def _write(path: Path, doc) -> str:
    data = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    path.write_bytes(data + b"\n")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    digests = {}
    for workload, (build, driver, constants, limit) in WORKLOADS.items():
        wdir = INPUTS / workload
        wdir.mkdir(parents=True)
        graphs, instances = build(args.seed)
        for name, doc in graphs.items():
            digests[f"{workload}/{name}.json"] = _write(wdir / f"{name}.json", doc)
        spec = {
            "driver": driver,
            "constants": constants,
            "limit_s": limit,
            "instances": instances,
        }
        digests[f"{workload}/instances.json"] = _write(wdir / "instances.json", spec)
        print(f"{workload}: {len(instances)} instances, {len(graphs)} graphs")
    _write(INPUTS / "MANIFEST.json", {"seed": args.seed, "sha256": digests})


if __name__ == "__main__":
    main()
