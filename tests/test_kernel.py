"""Kernel behavior: exactness against a permutation brute force, the
vertex-level referee and a full-scan reference search, pinned runs, the C
kernel against the pure one (also under the address and undefined-behaviour
sanitizers), the C kernel's build and its fallback, and prescribed
paths."""

import gc
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import types
import weakref
from pathlib import Path

import pytest

from bipham import hamkernel
from bipham.graphs import Graph, complete_bipartite, norm_edge
from bipham.hamkernel import PureGraphEnum, cycle_enumerator
from bipham.search import CycleSearch, Prescribed
from bipham.validate import check_cycle_in_graph, cycle_edges

from conftest import complete_graph, level_cycles, random_graph


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


def _random_search(seed, n, p, paths=0):
    """A seeded random graph search as ``GraphEnum`` keyword arguments:
    edges of probability ``p``, and up to ``paths`` prescribed paths of 2
    to 4 random vertices, before the free vertices in ascending order."""
    rng = random.Random(seed)
    edges = [x for i in range(n) for j in range(i + 1, n) if rng.random() < p
             for x in (i, j)]
    order = rng.sample(range(n), n)
    items, at = [], 0
    for _ in range(paths):
        size = rng.randint(2, 4)
        if at + size <= n:
            items.append(tuple(order[at:at + size]))
            at += size
    items += [(v,) for v in sorted(order[at:])]
    return dict(n=n, edges=edges, items=items)


def _pinned_instances():
    out = {}
    out["plain-mirror"] = _random_search(1, 10, 0.6)
    # the instance's vertex 0 is a path end
    out["budget-trip"] = dict(_random_search(6, 16, 0.8, paths=2),
                              max_nodes=3000)
    # one neighbour, vertex 0: every root child prunes
    single = _random_search(7, 9, 0.8)
    pairs = zip(single["edges"][::2], single["edges"][1::2])
    single["edges"] = [x for e in pairs if 6 not in e for x in e] + [0, 6]
    out["single-bit"] = single
    # 67 instance vertices: two words
    out["large-72"] = dict(_random_search(8, 72, 0.5, paths=6), max_nodes=20000)
    return out


# (nodes, budget_exceeded, sha256 of the JSON list of yielded cycles)
PINNED = {
    "plain-mirror": (23576, False, "c830459eb57cfb73d2c266ebeddbf7208be6ccdc4abc7d36723b754e48ff5eff"),
    "budget-trip": (3000, True, "149fc7b39a9502fa065da2263ab43999c3b666c8212c81b470a02b1ac62897c5"),
    "single-bit": (8, False, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "large-72": (20000, True, "89bbf602a88a95b950c7a136af9bb0ab71f94e58a58c63740b203116b3a1b481"),
}


def _digest(cycles):
    return hashlib.sha256(json.dumps(cycles).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pure_kernel_pinned(name):
    """The pure kernel's cycles, node count and budget flag on fixed
    graph searches, and the full-scan search's."""
    instance = _pinned_instances()[name]
    enum = PureGraphEnum(**instance)
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
        enum = PureGraphEnum(**_pinned_instances()["plain-mirror"])
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
    same cycle and the same node count after every ``next()``, the same end
    and budget flag.  ``lower_cap(nodes)`` returns a cap (or ``False`` for
    none) that both get by ``set_cap`` after each cycle.  Returns (cycles,
    budget_exceeded)."""
    cycles = 0
    while True:
        got, want = next(c, None), next(pure, None)
        assert got == want, f"cycle {cycles}"
        assert c.nodes == pure.nodes, f"nodes after cycle {cycles}"
        if want is None:
            break
        cycles += 1
        cap = lower_cap(pure.nodes)
        if cap is not False:
            c.set_cap(cap)
            pure.set_cap(cap)
    assert c.budget_exceeded == pure.budget_exceeded
    assert next(c, None) is None and c.nodes == pure.nodes
    return cycles, pure.budget_exceeded


# instance sizes at the ends of one, two and three 64-bit words
WORD_BOUNDARIES = (63, 64, 65, 127, 128, 129)


def _graph_instance(seed, size=None):
    """A seeded random graph search as ``GraphEnum`` keyword arguments:
    about half of the vertices on prescribed paths of 2 to 5 vertices,
    items in a shuffled order, and a cap from 0 up.  Without ``size``,
    seeds 0, 1 and 2 mod 3 give 5 to 14, 15 to 40 and 60 to 90 vertices;
    with it, the search's instance has exactly ``size`` vertices: a free
    vertex counts one, a path its two ends."""
    rng = random.Random(seed)
    sizes = []
    if size is None:
        n = rng.randint(*((5, 14), (15, 40), (60, 90))[seed % 3])
        while sum(sizes) < n // 2:
            sizes.append(rng.randint(2, 5))
    else:
        while sum(sizes) < size - 2 * len(sizes):
            sizes.append(rng.randint(2, 5))
        n = size + sum(sizes) - 2 * len(sizes)
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


def _labelled(kw, seed):
    """The graph search ``kw`` with side labels and excluded edges.  In
    three searches of four, path interiors get random labels, -1 for
    neither side, and the items' ends get sides that a cycle through the
    items in a random order can alternate between; in the fourth, no
    labels.  A quarter of the edges or fewer are excluded, either end
    first, with a few pairs that are no edge."""
    rng = random.Random(seed)
    n = kw["n"]
    sides = [rng.choice((-1, 0, 1)) for _ in range(n)]
    order = rng.sample(kw["items"], len(kw["items"]))
    side = 0
    for item in order:
        sides[item[0]] = side
        sides[item[-1]] = rng.randint(0, 1) if len(item) > 1 else side
        side = 1 - sides[item[-1]]
    if len(order[-1]) > 1:
        sides[order[-1][-1]] = 1  # back to side 0 at order[0]
    if rng.random() < 0.25:
        sides = None
    pairs = list(zip(kw["edges"][::2], kw["edges"][1::2]))
    gone = rng.sample(pairs, rng.randint(0, len(pairs) // 4))
    gone += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
    excluded = [x for e in gone for x in (e if rng.random() < 0.5 else e[::-1])]
    return dict(kw, sides=sides, excluded=excluded)


def _graph_sweep(graph_enum, seeds, wide=False, labelled=False):
    """Hold ``graph_enum`` to ``PureGraphEnum`` on the ``_graph_instance`` of
    each seed: the same cycles and node counts after every next(), and the
    same budget trips, also under a cap lowered between two cycles.  With
    ``wide``, seed ``s`` gives an instance of ``WORD_BOUNDARIES[s % 6]``
    vertices, each size once in any 6 consecutive seeds; with
    ``labelled``, the instance gets side labels and excluded edges
    (``_labelled``).  Returns what the sweep reached."""
    seen = dict.fromkeys(
        ["cycles", "trips", "single-edge paths", "vertex 0 on a path",
         "over 64 vertices", "over 128 vertices", "cycles over 64 vertices",
         "trips over 64 vertices"]
        + [f"{k} vertices" for k in WORD_BOUNDARIES], 0)
    if labelled:
        seen.update(dict.fromkeys(["cycles with side labels",
                                   "cycles with exclusions"], 0))
    for seed in seeds:
        kw = _graph_instance(
            seed, WORD_BOUNDARIES[seed % len(WORD_BOUNDARIES)] if wide else None)
        if labelled:
            kw = _labelled(kw, seed)
        k = sum(min(len(v), 2) for v in kw["items"])
        rng = random.Random(seed)

        def lower_cap(nodes):
            return nodes + rng.randint(-2, 30) if rng.random() < 0.3 else False

        pure = PureGraphEnum(**kw)
        try:
            cycles, tripped = _agree(graph_enum(**kw), pure, lower_cap)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}, {k} vertices: {exc}") from exc
        seen["cycles"] += cycles
        seen["trips"] += tripped
        seen["single-edge paths"] += any(len(v) == 2 for v in kw["items"])
        seen["vertex 0 on a path"] += cycles > 0 and len(kw["items"][0]) > 1
        seen["over 64 vertices"] += k > 64
        seen["over 128 vertices"] += k > 128
        seen["cycles over 64 vertices"] += k > 64 and cycles > 0
        seen["trips over 64 vertices"] += k > 64 and tripped
        if k in WORD_BOUNDARIES:
            seen[f"{k} vertices"] += 1
        if labelled and cycles:
            seen["cycles with side labels"] += kw["sides"] is not None
            seen["cycles with exclusions"] += bool(kw["excluded"])
    return seen


@pytest.mark.parametrize("chunk", range(4))
def test_c_kernel_agrees_on_graph_instances(c_kernel, chunk):
    # the C instance builder and search against _instance and _search on
    # searches of 5 to 90 vertices
    seen = _graph_sweep(c_kernel, range(150 * chunk, 150 * (chunk + 1)))
    assert all(seen[key] for key in ("cycles", "trips", "single-edge paths",
                                     "vertex 0 on a path")), seen


@pytest.mark.parametrize("chunk", range(8))
def test_c_kernel_agrees_on_random_instances(c_kernel, chunk):
    # the same on instances whose sizes end one, two and three words
    seen = _graph_sweep(c_kernel, range(50 * chunk, 50 * (chunk + 1)),
                        wide=True)
    assert all(seen.values()), seen


@pytest.mark.parametrize("chunk", range(4))
def test_c_kernel_agrees_with_side_labels_and_exclusions(c_kernel, chunk):
    # the same on searches of 5 to 90 vertices whose allowed edges are a
    # host's edges between two sides, less excluded ones
    seen = _graph_sweep(c_kernel, range(150 * chunk, 150 * (chunk + 1)),
                        labelled=True)
    assert all(seen[key] for key in (
        "cycles", "trips", "single-edge paths", "vertex 0 on a path",
        "cycles with side labels", "cycles with exclusions")), seen


@pytest.mark.parametrize("chunk", range(4))
@pytest.mark.parametrize("kernel", ["pure", "c"])
def test_kernels_yield_the_referee_cycles(request, kernel, chunk):
    # every Hamilton cycle through the paths, once, and no other: the
    # vertex-level referee's set, with vertex 0 free and on a path
    graph_enum = _kernel(request, kernel)
    starts = {"free": 0, "path": 0}
    for seed in range(50 * chunk, 50 * (chunk + 1)):
        rng = random.Random(seed)
        kw = _random_search(seed, rng.randint(3, 9), rng.uniform(0.3, 1.0),
                            paths=rng.randint(0, 2))
        rng.shuffle(kw["items"])
        items = kw["items"]
        if len(items) == 1:
            continue  # a path closing on itself: ``CycleSearch`` decides it
        fixed = {norm_edge(u, v) for p in items for u, v in zip(p, p[1:])}
        pairs = zip(kw["edges"][::2], kw["edges"][1::2])
        pool = {norm_edge(u, v) for u, v in pairs} - fixed
        stats = types.SimpleNamespace(nodes=0, budget_exceeded=False,
                                      max_nodes=10**7)
        want = {cycle_edges(c) for c in level_cycles(kw["n"], pool, fixed,
                                                     stats)}
        got = [cycle_edges(c) for c in graph_enum(**kw)]
        assert len(got) == len(set(got)) and set(got) == want, seed
        starts["path" if len(items[0]) > 1 else "free"] += bool(want)
    assert all(starts.values()), starts


def _kernel(request, name):
    """The graph enumerator of one kernel; the entry point is
    ``cycle_enumerator``, on the kernel that loaded."""
    if name == "c":
        return request.getfixturevalue("c_kernel")
    return {"pure": PureGraphEnum, "entry point": cycle_enumerator}[name]


# the 4-cycle 0-1-2-3 as a flat edge list, and its vertices as items
CYCLE4 = [0, 1, 1, 2, 2, 3, 3, 0]
FREE4 = [(0,), (1,), (2,), (3,)]


@pytest.mark.parametrize("kernel", ["pure", "c", "entry point"])
@pytest.mark.parametrize("bad", [1 << 5, -1])
def test_kernels_reject_masks_past_the_vertex_count(request, kernel, bad):
    # an edge from vertex 0 to 5, or to -1, would set a mask bit past n = 4
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
    # checked before either kernel builds its instance: the C builder
    # indexes its arrays by these ids, and Python lists take -1 silently
    with pytest.raises(ValueError, match=match):
        _kernel(request, kernel)(4, edges, items)


@pytest.mark.parametrize("kernel", ["pure", "c", "entry point"])
@pytest.mark.parametrize("kw, match", [
    (dict(excluded=[0, 5]), r"excluded edge has an end outside 0\.\.3"),
    (dict(excluded=[-1, 2]), r"excluded edge has an end outside 0\.\.3"),
    (dict(excluded=[0, 1, 2]), "excluded edge list holds an odd number"),
    (dict(sides=[0, 1, 0]), r"side labels are not 4 values"),
    (dict(sides=[0, 1, 0, 1, 0]), r"side labels are not 4 values"),
    (dict(sides=[0, 1, 2, 1]), r"side labels are not 4 values"),
], ids=["excluded past n", "negative excluded vertex", "odd excluded list",
        "three side labels", "five side labels", "side label 2"])
def test_kernels_reject_bad_exclusions_and_side_labels(request, kernel, kw,
                                                       match):
    # the C builder indexes the side labels and the instance by these ids
    with pytest.raises(ValueError, match=match):
        _kernel(request, kernel)(4, CYCLE4, FREE4, **kw)


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
print(_graph_sweep(graph_enum, range(150), labelled=True))
hamkernel._DLL = graph_enum.dll  # the split-and-switch engine of this build
from test_walks import engine_sweep
print(engine_sweep())
"""


def test_c_kernel_clean_under_sanitizers(tmp_path):
    # the graph sweeps, with side labels and exclusions too, and the
    # split-and-switch agreement sweep on a build with AddressSanitizer and
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


def _full_scan_search(n, edges, items, max_nodes=None):
    """Reference for the pure kernel's search, written recursively over its
    own build of the vertex instance, with the full prune scan over every
    unvisited vertex at every node.  Returns (cycles, nodes,
    budget_exceeded)."""
    ids, mate, walk = {}, [], []
    for verts in items:
        ends = dict.fromkeys((verts[0], verts[-1]))
        for end in ends:
            ids[end] = len(ids)
            walk.append(tuple(verts) if end == verts[0] else tuple(verts[::-1]))
        mate += [ids[verts[-1]], ids[verts[0]]][2 - len(ends):]
    size = len(ids)
    adj = [set() for _ in range(size)]
    for u, v in zip(edges[::2], edges[1::2]):
        if u in ids and v in ids and ids[v] not in (ids[u], mate[ids[u]]):
            adj[ids[u]].add(ids[v])
            adj[ids[v]].add(ids[u])
    cycles, nodes = [], 0

    def starved(cur, seen):
        # a path end needs one available neighbour, a free vertex two
        avail = set(range(size)) - seen | {cur, 0}
        return any(w not in seen and len(adj[w] & avail) < 1 + (mate[w] == w)
                   for w in range(size))

    def extend(path, seen):
        """False once the node budget is exhausted."""
        nonlocal nodes
        for v in sorted(adj[mate[path[-1]]] - seen):
            if max_nodes is not None and nodes >= max_nodes:
                return False
            nodes += 1
            last, now = mate[v], seen | {v, mate[v]}
            if len(now) == size:
                # from 0 across its required edge, or entering a lower
                # vertex first than the one the cycle closes from
                if 0 in adj[last] and (mate[0] != 0 or (path + [v])[1] < last):
                    cycles.append([x for y in path + [v] for x in walk[y]])
            elif adj[last] - now and not starved(last, now):
                if not extend(path + [v], now):
                    return False
        return True

    if size < 3:
        return cycles, 0, False
    finished = extend([0], {0, mate[0]})
    return cycles, nodes, not finished


@pytest.mark.parametrize("seed", range(60))
def test_pure_kernel_matches_full_scan(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 11)
    kw = dict(
        _random_search(seed, n, rng.uniform(0.3, 1.0), paths=rng.randint(0, 3)),
        max_nodes=rng.choice([None, 1, 40, 400, 4000]),
    )
    rng.shuffle(kw["items"])
    enum = PureGraphEnum(**kw)
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
