"""Kernel behavior: exactness against a permutation brute force and a
full-scan reference search, pinned runs, the C kernel against the pure one
(also under the address and undefined-behaviour sanitizers), the C kernel's
build and its fallback, and prescribed paths."""

import gc
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from bipham import hamkernel, search
from bipham.graphs import Graph, complete_bipartite
from bipham.hamkernel import PureGraphEnum, cycle_enumerator
from bipham.hamkernel._pure import CycleEnum as PureCycleEnum
from bipham.search import CycleSearch, Prescribed
from bipham.validate import check_cycle_in_graph, cycle_edges

from conftest import complete_graph, random_graph


def brute_force_cycles(g: Graph):
    """All Hamilton cycles as canonical edge sets, via permutations."""
    n = g.n
    out = set()
    if n < 3:
        return out
    for perm in itertools.permutations(range(1, n)):
        cyc = (0,) + perm
        if all(
            g.has_edge(cyc[i], cyc[(i + 1) % n]) for i in range(n)
        ):
            out.add(cycle_edges(cyc))
    return out


def test_known_counts():
    assert len(list(CycleSearch(complete_graph(4)).cycles())) == 3
    assert len(list(CycleSearch(complete_graph(5)).cycles())) == 12
    assert len(list(CycleSearch(complete_bipartite((3, 3))).cycles())) == 6


@pytest.mark.parametrize("seed", range(30))
def test_enumeration_matches_brute_force(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.9))
    expect = brute_force_cycles(g)
    got = [cycle_edges(c) for c in CycleSearch(g).cycles()]
    assert len(got) == len(set(got)), "duplicate cycles"
    assert set(got) == expect


def _ports(seed, n, p, ported=0, bipartite=False):
    """Port masks of a seeded random instance.  The first ``ported`` vertices
    get two different port masks, like contracted paths, whose union is
    still the vertex's neighbourhood, so the union masks are symmetric."""
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if bipartite and i % 2 == j % 2:
                continue
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    pa, pb = list(adj), list(adj)
    for i in range(ported):
        pa[i] = adj[i] & rng.getrandbits(n)
        pb[i] = (adj[i] & ~pa[i]) | (adj[i] & rng.getrandbits(n))
    return pa, pb


def _pinned_instances():
    out = {}
    pa, pb = _ports(1, 10, 0.6)
    out["plain-mirror"] = dict(port_a=pa, port_b=pb)
    pa, pb = _ports(6, 16, 0.8, ported=2)
    out["budget-trip"] = dict(port_a=pa, port_b=pb, max_nodes=3000)
    pa, pb = _ports(7, 9, 0.8)
    # one neighbour, vertex 0: every root child prunes
    for w in range(1, 9):
        pa[w] &= ~(1 << 6)
        pb[w] &= ~(1 << 6)
    pa[6] = pb[6] = 1
    out["single-bit"] = dict(port_a=pa, port_b=pb)
    pa, pb = _ports(8, 72, 0.5, ported=6, bipartite=True)
    out["large-72"] = dict(port_a=pa, port_b=pb, max_nodes=20000)
    return out


# (nodes, budget_exceeded, sha256 of the JSON list of yielded cycles)
PINNED = {
    "plain-mirror": (23576, False, "c830459eb57cfb73d2c266ebeddbf7208be6ccdc4abc7d36723b754e48ff5eff"),
    "budget-trip": (3000, True, "a3112f90e75703443a42c155bfd9a2d2717a3859d657c4591dcab828c2a8b30f"),
    "single-bit": (8, False, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "large-72": (20000, True, "c75770262514533f6cb43a49d5c1eb1097990105c2cc86715b0cc05fffbfac1f"),
}


def _digest(cycles):
    return hashlib.sha256(json.dumps(cycles).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pure_kernel_pinned(name):
    """The pure kernel's cycles, node count and budget flag on fixed
    port-constrained instances, and the full-scan search's."""
    instance = _pinned_instances()[name]
    enum = PureCycleEnum(**instance)
    cycles = list(enum)
    assert (enum.nodes, enum.budget_exceeded, _digest(cycles)) == PINNED[name]
    cycles, nodes, tripped = _full_scan_search(**instance)
    assert (nodes, tripped, _digest(cycles)) == PINNED[name]


def test_pure_kernel_dropped_early_is_freed_at_once():
    # callers often take the first cycle and drop the enumerator; its
    # search state must not wait for the cycle collector
    gc.collect()
    gc.disable()
    try:
        enum = PureCycleEnum(**_pinned_instances()["plain-mirror"])
        next(enum)
        alive = weakref.ref(enum)
        del enum
        assert alive() is None
    finally:
        gc.enable()


@pytest.fixture
def c_kernel():
    """The C kernel's graph enumerator class; it must have been built
    wherever there is a C compiler."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    assert hamkernel.KERNEL == "c"
    return hamkernel.GraphEnum


def _agree(c, pure, lower_cap):
    """Run a C and a pure graph enumerator of one instance in lock step: the
    same cycle and the same nodes, candidates and rejections after every
    ``next()``, the same end and budget flag.  ``lower_cap(nodes)`` returns
    a cap (or ``False`` for none) that both get by ``set_cap`` after each
    cycle.  Returns (cycles, budget_exceeded)."""

    def tally(enum):
        return enum.nodes, enum.candidates, enum.rejected

    cycles = 0
    while True:
        got, want = next(c, None), next(pure, None)
        assert got == want, f"cycle {cycles}"
        assert tally(c) == tally(pure), f"counts after cycle {cycles}"
        if want is None:
            break
        cycles += 1
        cap = lower_cap(pure.nodes)
        if cap is not False:
            c.set_cap(cap)
            pure.set_cap(cap)
    assert c.budget_exceeded == pure.budget_exceeded
    assert next(c, None) is None and tally(c) == tally(pure)
    return cycles, pure.budget_exceeded


# item counts at the ends of one, two and three 64-bit words
WORD_BOUNDARIES = (63, 64, 65, 127, 128, 129)


def _graph_instance(seed, items=None):
    """A seeded random graph search as ``GraphEnum`` keyword arguments:
    about half of the vertices on prescribed paths of 2 to 5 vertices,
    items in a shuffled order, and a cap from 0 up.  Without ``items``,
    seeds 0, 1 and 2 mod 3 give 5 to 14, 15 to 40 and 60 to 90 vertices;
    with it, the search has exactly ``items`` items."""
    rng = random.Random(seed)
    sizes = []
    if items is None:
        n = rng.randint(*((5, 14), (15, 40), (60, 90))[seed % 3])
        while sum(sizes) < n // 2:
            sizes.append(rng.randint(2, 5))
    else:
        while 2 * sum(sizes) < items + sum(sizes) - len(sizes):
            sizes.append(rng.randint(2, 5))
        n = items + sum(sizes) - len(sizes)
    p = rng.uniform(0.2, 0.9)
    edges = [x for u in range(n) for v in range(u + 1, n) if rng.random() < p
             for x in (u, v)]
    order = rng.sample(range(n), n)
    at = sum(sizes)
    paths = [tuple(order[end - size:end])
             for size, end in zip(sizes, itertools.accumulate(sizes))]
    items = paths + [(v,) for v in order[at:]]
    rng.shuffle(items)
    return dict(
        n=n,
        edges=edges,
        items=items,
        max_nodes=rng.choice([0, 1, 5, 40, 400, 3000, 20000]
                             + ([None] if n <= 9 else [])),
    )


def _graph_sweep(graph_enum, seeds, wide=False):
    """Hold ``graph_enum`` to ``PureGraphEnum`` on the ``_graph_instance`` of
    each seed: the same cycles, nodes, candidates and rejections after
    every next(), and the same budget trips, also under a cap lowered
    between two cycles.  With ``wide``, seed ``s`` gives a search of
    ``WORD_BOUNDARIES[s % 6]`` items, each size once in any 6 consecutive
    seeds.  Returns what the sweep reached."""
    seen = dict.fromkeys(
        ["cycles", "rejections", "trips", "over 64 items", "over 128 items",
         "cycles over 64 items", "trips over 64 items"]
        + [f"{k} items" for k in WORD_BOUNDARIES], 0)
    for seed in seeds:
        kw = _graph_instance(
            seed, WORD_BOUNDARIES[seed % len(WORD_BOUNDARIES)] if wide else None)
        k = len(kw["items"])
        rng = random.Random(seed)

        def lower_cap(nodes):
            return nodes + rng.randint(-2, 30) if rng.random() < 0.3 else False

        pure = PureGraphEnum(**kw)
        try:
            cycles, tripped = _agree(graph_enum(**kw), pure, lower_cap)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}, {k} items: {exc}") from exc
        seen["cycles"] += cycles
        seen["rejections"] += pure.rejected
        seen["trips"] += tripped
        seen["over 64 items"] += k > 64
        seen["over 128 items"] += k > 128
        seen["cycles over 64 items"] += k > 64 and cycles > 0
        seen["trips over 64 items"] += k > 64 and tripped
        if k in WORD_BOUNDARIES:
            seen[f"{k} items"] += 1
    return seen


@pytest.mark.parametrize("chunk", range(4))
def test_c_kernel_agrees_on_graph_instances(c_kernel, chunk):
    # the C builder, search and decoder against _ports, _search and _decode
    # on searches of 5 to 90 vertices
    seen = _graph_sweep(c_kernel, range(150 * chunk, 150 * (chunk + 1)))
    assert seen["cycles"] and seen["rejections"] and seen["trips"], seen


@pytest.mark.parametrize("chunk", range(8))
def test_c_kernel_agrees_on_random_instances(c_kernel, chunk):
    # the same on searches whose item counts end one, two and three words
    seen = _graph_sweep(c_kernel, range(50 * chunk, 50 * (chunk + 1)),
                        wide=True)
    assert all(seen.values()), seen


# found by a random sweep: the search's fourth candidate is a cycle of the
# contracted items that no orientation of the two paths closes
REJECTING = dict(
    n=9,
    edges=[(0, 2), (0, 3), (0, 6), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5),
           (3, 6), (3, 8), (4, 5), (4, 7), (5, 6), (5, 7), (6, 8), (7, 8)],
    prescribed=[(5, 2), (7, 1)],
    seed=10,
)


@pytest.mark.parametrize("kernel", ["pure", "c"])
def test_rejected_candidate_pinned(request, monkeypatch, kernel):
    monkeypatch.setattr(search, "cycle_enumerator", _kernel(request, kernel))
    s = CycleSearch(Graph(REJECTING["n"], REJECTING["edges"]),
                    [Prescribed(p) for p in REJECTING["prescribed"]],
                    seed=REJECTING["seed"])
    assert list(s.cycles()) == [
        [1, 7, 8, 6, 0, 3, 4, 5, 2],
        [1, 7, 8, 6, 0, 2, 5, 4, 3],
        [7, 1, 3, 8, 6, 0, 2, 5, 4],
    ]
    assert (s.stats.nodes, s.stats.candidates, s.stats.rejected) == (140, 4, 1)


def _kernel(request, name):
    """The graph enumerator of one kernel; the entry point is
    ``cycle_enumerator``, on the kernel that loaded."""
    if name == "c":
        return request.getfixturevalue("c_kernel")
    return {"pure": PureGraphEnum, "entry point": cycle_enumerator}[name]


# the 4-cycle 0-1-2-3 as a flat edge list, and its vertices as items
CYCLE4 = [0, 1, 1, 2, 2, 3, 3, 0]
FREE4 = [(0,), (1,), (2,), (3,)]


@pytest.mark.parametrize("bad", [1 << 5, -1,
                                 pytest.param(1 << 2, id="one-way")])
def test_pure_port_search_rejects_bad_instances(bad):
    # a 4-cycle whose vertex 0 has a bit past n = 4: the pure search used
    # to fail on it with an IndexError partway through; or that offers
    # vertex 2, which does not offer vertex 0
    masks = [0b1010, 0b0101, 0b1010, 0b0101]
    masks[0] |= bad
    match = ("vertex 0 offers vertex 2, which does not offer it back"
             if bad == 1 << 2 else "past vertex count 4")
    with pytest.raises(ValueError, match=match):
        PureCycleEnum(masks, masks)


@pytest.mark.parametrize("kernel", ["pure", "c", "entry point"])
@pytest.mark.parametrize("bad", [1 << 5, -1])
def test_kernels_reject_masks_past_the_vertex_count(request, kernel, bad):
    # an edge from vertex 0 to 5, or to -1, would set a port bit past n = 4
    far = 5 if bad > 0 else -1
    with pytest.raises(ValueError, match=r"edge has an end outside 0\.\.3"):
        _kernel(request, kernel)(4, CYCLE4 + [0, far], FREE4)


@pytest.mark.parametrize("kernel", ["pure", "c", "entry point"])
@pytest.mark.parametrize("edges, items, match", [
    (CYCLE4 + [3], FREE4, "odd number of vertex ids"),
    (CYCLE4, [(0,), (1,), (2,), (4,)], r"item has a vertex outside 0\.\.3"),
    (CYCLE4, [(0,), (1,), (-1, 2), (3,)], r"item has a vertex outside 0\.\.3"),
    (CYCLE4, [(0, 1), (1, 2), (3,)], "on two items"),
    (CYCLE4, [(0, 1, 0), (2,), (3,)], "twice on one"),
    (CYCLE4, [(0,), (1,), (), (2, 3)], "item has no vertex"),
], ids=["odd edge list", "item past n", "negative item vertex",
        "vertex on two items", "vertex twice on an item", "empty item"])
def test_kernels_reject_bad_graph_instances(request, kernel, edges, items,
                                            match):
    # checked before either kernel builds its ports: the C builder indexes
    # its arrays by these ids, and Python lists take -1 silently
    with pytest.raises(ValueError, match=match):
        _kernel(request, kernel)(4, edges, items)


def test_c_kernel_state_freed_at_end_and_when_dropped(c_kernel, monkeypatch):
    freed = []
    free = c_kernel._free
    monkeypatch.setattr(c_kernel, "_free", staticmethod(
        lambda state: (freed.append(state), free(state))
    ))
    # K7 to its end, and K10 to a budget trip
    searches = {
        n: dict(n=n, edges=[x for e in itertools.combinations(range(n), 2)
                            for x in e],
                items=[(v,) for v in range(n)], max_nodes=cap)
        for n, cap in ((7, None), (10, 3000))
    }
    for n, kw in searches.items():
        enum = c_kernel(**kw)
        state = enum._state
        list(enum)
        assert freed == [state] and enum._state is None
        assert enum.budget_exceeded == (n == 10)
        del enum
        assert freed == [state]
        freed.clear()
    # the C twin of test_pure_kernel_dropped_early_is_freed_at_once
    gc.collect()
    gc.disable()
    try:
        enum = c_kernel(**searches[7])
        next(enum)
        state, alive = enum._state, weakref.ref(enum)
        del enum
        assert alive() is None
        assert freed == [state]
    finally:
        gc.enable()


def test_c_kernel_compiles_without_warnings(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    done = subprocess.run(
        [cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-O2", "-shared",
         "-fPIC", "-o", str(tmp_path / "hamkernel.so"), str(hamkernel._SOURCE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


# run in a fresh interpreter that has the sanitizer runtimes preloaded
SANITIZED_SWEEP = """
import sys
from pathlib import Path
from bipham import hamkernel
from test_kernel import _graph_sweep

graph_enum, kernel = hamkernel._load(Path(sys.argv[1]), "bipham-no-such-cc")
assert kernel == "c", kernel
print(_graph_sweep(graph_enum, range(150)))
print(_graph_sweep(graph_enum, range(50), wide=True))
"""


def test_c_kernel_clean_under_sanitizers(tmp_path):
    # the graph sweeps on a build with AddressSanitizer and
    # UndefinedBehaviorSanitizer, which stop the process at the first
    # out-of-bounds access or undefined operation in the kernel
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    runtimes = []
    for name in ("libasan.so", "libubsan.so"):
        path = subprocess.run([cc, f"-print-file-name={name}"],
                              capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(path):
            pytest.skip(f"{cc} has no {name}")
        runtimes.append(path)
    source = hamkernel._SOURCE
    lib = tmp_path / f"{hashlib.sha256(source.read_bytes()).hexdigest()}.so"
    done = subprocess.run(
        [cc, *hamkernel._CFLAGS, "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-g", "-o", str(lib), str(source)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    tests = Path(__file__).resolve().parent
    env = dict(
        os.environ,
        LD_PRELOAD=" ".join(runtimes),
        ASAN_OPTIONS="detect_leaks=0",
        PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests),
             os.environ.get("PYTHONPATH", "")]),
    )
    done = subprocess.run([sys.executable, "-c", SANITIZED_SWEEP, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]


@pytest.mark.parametrize("fault", [
    "no compiler", "unwritable directory", "source does not compile",
    "no source",
])
def test_kernel_loader_falls_back_to_pure(tmp_path, fault):
    build, compiler, source = tmp_path / "build", "cc", hamkernel._SOURCE
    if fault == "no compiler":
        compiler = "bipham-no-such-cc"
    elif fault == "unwritable directory":
        # a file where a directory must be: neither permission bits, which
        # do not stop root, nor a read-only mount
        (tmp_path / "file").write_text("")
        build = tmp_path / "file" / "build"
    elif fault == "source does not compile":
        source = tmp_path / "broken.c"
        source.write_text("this is not C\n")
    else:
        source = tmp_path / "missing.c"
    graph_enum, kernel = hamkernel._load(build, compiler, source)
    assert graph_enum is PureGraphEnum
    assert kernel.startswith("pure: ")
    # no library, not even a partial one, is left behind
    assert not build.is_dir() or not any(build.iterdir())


def test_kernel_loader_reuses_a_filled_cache(tmp_path, monkeypatch):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    graph_enum, kernel = hamkernel._load(tmp_path, "cc")
    assert kernel == "c"
    digest = hashlib.sha256(hamkernel._SOURCE.read_bytes()).hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == [f"{digest}.so"]

    def run(*args, **kwargs):
        raise AssertionError("a compiler was started")

    monkeypatch.setattr(subprocess, "run", run)
    graph_enum, kernel = hamkernel._load(tmp_path, "bipham-no-such-cc")
    assert kernel == "c"
    assert [p.name for p in tmp_path.iterdir()] == [f"{digest}.so"]
    instance = _graph_instance(1)
    assert list(graph_enum(**instance)) == list(PureGraphEnum(**instance))


def _full_scan_search(port_a, port_b, max_nodes=None):
    """Reference for the kernel's search, written recursively with the full
    prune scan over every unvisited vertex at every node.  Returns (cycles,
    nodes, budget_exceeded)."""
    n = len(port_a)
    umask = [a | b for a, b in zip(port_a, port_b)]
    full = (1 << n) - 1
    cycles = []
    nodes = 0

    def exits(v, came_from):
        fb = 1 << came_from
        return ((port_b[v] if port_a[v] & fb else 0)
                | (port_a[v] if port_b[v] & fb else 0))

    def starved(cur, visited):
        avail = ~visited | (1 << cur) | 1
        return any(
            not visited >> w & 1 and (umask[w] & avail).bit_count() < 2
            for w in range(n)
        )

    def extend(path, visited, cands, close_mask):
        """False once the node budget is exhausted."""
        nonlocal nodes
        for v in range(n):
            if not cands >> v & 1:
                continue
            if max_nodes is not None and nodes >= max_nodes:
                return False
            nodes += 1
            if len(path) == 1:
                close_mask = exits(0, v)
            out = exits(v, path[-1])
            seen = visited | 1 << v
            if seen == full:
                if out & 1 and close_mask >> v & 1 and path[1] < v:
                    cycles.append(path + [v])
                continue
            out &= ~seen
            if out and not starved(v, seen):
                if not extend(path + [v], seen, out, close_mask):
                    return False
        return True

    if n < 3:
        return cycles, 0, False
    finished = extend([0], 1, umask[0] & ~1, 0)
    return cycles, nodes, not finished


@pytest.mark.parametrize("seed", range(60))
def test_pure_kernel_matches_full_scan(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 11)
    pa, pb = _ports(seed, n, rng.uniform(0.3, 1.0), ported=rng.randint(0, n))
    kw = dict(
        port_a=pa,
        port_b=pb,
        max_nodes=rng.choice([None, 1, 40, 400, 4000]),
    )
    enum = PureCycleEnum(**kw)
    got = list(enum)
    assert (got, enum.nodes, enum.budget_exceeded) == _full_scan_search(**kw)


def test_prescribed_paths_respected():
    g = complete_graph(6)
    pre = [Prescribed((0, 1, 2)), Prescribed((3, 4))]
    for cyc in CycleSearch(g, pre).cycles():
        es = cycle_edges(cyc)
        assert {(0, 1), (1, 2), (3, 4)} <= es
        assert not check_cycle_in_graph(g, cyc)


def test_prescribed_path_blocks_when_infeasible():
    g = complete_bipartite((3, 3))
    assert CycleSearch(g, [Prescribed((0, 3, 1, 4, 2))]).first() is not None
    # prescribed edges may come from outside the allowed graph; here the
    # allowed graph leaves vertex 1 with no second connection
    sparse = Graph(4, [(0, 2), (0, 3), (2, 3)])
    res = CycleSearch(sparse, [Prescribed((1, 2))], max_nodes=10000).first()
    assert res is None


def test_budget_reported():
    g = complete_graph(9)
    search = CycleSearch(g, max_nodes=50)
    list(search.cycles())
    assert search.stats.budget_exceeded


def test_two_item_instances():
    # one prescribed path plus one free vertex
    g = Graph(4, [(0, 3), (2, 3)])
    res = CycleSearch(g, [Prescribed((0, 1, 2))]).first()
    assert res is not None and len(res) == 4
    # single prescribed path closing on itself
    g2 = Graph(3, [(0, 2)])
    res2 = CycleSearch(g2, [Prescribed((0, 1, 2))]).first()
    assert res2 == [0, 1, 2]
