"""Hamilton-search kernel: a resumable enumerator of the Hamilton cycles of
a graph through prescribed paths, by required-edge backtracking.

A search instance is a graph, its allowed edges, and the items that cover
its vertices: free vertices and prescribed paths, which a cycle may
traverse either way.  The allowed edges come as a host's flat edge array,
optional side labels that keep only the host edges between two sides, and
the edges a level excludes, so a caller hands over the array its host
already holds (``Graph.edge_ids``).  The kernel replaces each path by its
two ends joined by a required edge, leaving its interior out, and searches
that vertex instance from its vertex 0; it yields every Hamilton cycle
through the paths once, with the interiors put back (``_pure`` documents
the instance, the search and its prune).

One search has two kernels.  The C kernel, ``csrc/hamkernel.c`` in the
source tree, is compiled on the first import with the system C compiler
into ``build/hamkernel/<sha256 of the source>.so`` in the same tree; later
imports only load that file, through ``ctypes``.  The pure-Python kernel
(``_pure``) is the reference the C kernel is tested against, and runs in
its place when the source is missing (an installed package), the build
directory is not writable, there is no compiler or the build fails.  Both
yield the same cycles in the same order and count the same nodes, so a
report does not depend on the kernel.

``cycle_enumerator`` is the one entry point of the search; ``KERNEL``
names the kernel that runs: ``"c"``, or ``"pure: <why not c>"``.  The C
kernel also serves ``graphs.Graph``'s edge arrays: ``minus_ids`` derives a
subgraph's array from its parent's (None on the pure kernel: the subgraph
builds its own when it needs one), and ``class_degree_rows`` counts
degrees into labelled classes over one (the graph counts in Python on
the pure kernel).  And it runs the split-and-switch engine of
``bipham.switches``: ``split_and_switch`` here hands an engine call to
``hk_split_and_switch``, which returns what the Python engine
(``switches.pure_split_and_switch``, its reference, and what runs on the
pure kernel) returns.
"""

import contextlib
import ctypes
import hashlib
import os
import sys
from array import array
from itertools import accumulate, chain
from pathlib import Path

from ._pure import GraphEnum as PureGraphEnum
from ._pure import check_graph, check_items

_ROOT = Path(__file__).resolve().parents[3]
_SOURCE = _ROOT / "csrc" / "hamkernel.c"
_BUILD_DIR = _ROOT / "build" / "hamkernel"
_CFLAGS = ("-std=c99", "-O2", "-shared", "-fPIC")
_NO_CAP = 1 << 62  # more nodes than any search expands


def _load(build_dir=_BUILD_DIR, compiler="cc", source=_SOURCE):
    """``(graph enumerator class, KERNEL)``: the C kernel, compiled into
    ``build_dir`` unless a build of this source is there already, or the
    pure kernel and why."""
    try:
        code = source.read_bytes()
    except OSError:
        return PureGraphEnum, f"pure: no C source {source}"
    lib = build_dir / f"{hashlib.sha256(code).hexdigest()}.so"
    if not lib.exists():
        why = _build(source, lib, compiler)
        if why is not None:
            return PureGraphEnum, f"pure: {why}"
    try:
        dll = ctypes.CDLL(str(lib))
    except OSError as exc:
        return PureGraphEnum, f"pure: cannot load {lib}: {exc}"
    return _c_kernel(dll), "c"


def _build(source, lib, compiler):
    """Compile ``source`` into ``lib``; None, or why it was not built.  The
    compiler writes a temporary file that then replaces ``lib`` in one
    step, so no process loads a partial library."""
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which(compiler)
    if cc is None:
        return f"no C compiler {compiler!r}"
    try:
        lib.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=lib.parent)
    except OSError:
        return f"build directory {lib.parent} is not writable"
    os.close(fd)
    try:
        done = subprocess.run([cc, *_CFLAGS, "-o", tmp, str(source)],
                              capture_output=True, timeout=120)
        if done.returncode != 0:
            return f"{compiler} failed on {source.name}"
        os.replace(tmp, lib)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"{compiler} failed on {source.name}: {exc}"
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return None


def _c_kernel(dll):
    """The graph enumerator class over the C kernel loaded as ``dll``; its
    ``dll`` attribute holds the library."""
    ptr, c_int = ctypes.c_void_p, ctypes.c_int
    dll.hk_new_graph.argtypes = [c_int, c_int, ptr, ptr, c_int, ptr, c_int,
                                 ptr, ptr, ptr]
    dll.hk_new_graph.restype = c_int
    dll.hk_next_cycle.argtypes = [ptr, ctypes.c_int64, ptr, ptr]
    dll.hk_next_cycle.restype = c_int
    dll.hk_free.argtypes = [ptr]
    dll.hk_free.restype = None
    dll.hk_minus.argtypes = [c_int, c_int, ptr, c_int, ptr]
    dll.hk_minus.restype = c_int
    dll.hk_class_degrees.argtypes = [c_int, ptr, ptr, c_int, ptr]
    dll.hk_class_degrees.restype = None
    dll.hk_split_and_switch.argtypes = [c_int, c_int, ptr, c_int, ptr, c_int,
                                        ptr, ptr, ptr, c_int, c_int, c_int,
                                        ctypes.c_double, ptr, ptr]
    dll.hk_split_and_switch.restype = c_int
    dll.hk_shuffle.argtypes = [ptr, c_int, c_int, ptr]
    dll.hk_shuffle.restype = None

    class CGraphEnum:
        """``PureGraphEnum`` on the C kernel: the same arguments, cycles,
        node counts and budget trips; the vertex instance is built and
        searched in C, which reads the host array in place.  The search
        state lives in C and is freed when the search ends or the
        enumerator is dropped."""

        _free = dll.hk_free
        _state = None

        def __init__(self, n, edges, items, max_nodes=None, sides=None,
                     excluded=()):
            self.nodes = 0
            self.budget_exceeded = False
            self._cap = max_nodes
            if len(items) < 3 and sum(min(len(v), 2) for v in items) < 3:
                # fewer than three instance vertices: no cycle, and no
                # builder to check the edges
                check_graph(n, edges, items, sides, excluded)
                return
            seq = check_items(n, edges, items, sides, excluded)
            edges, excluded = _ints(edges), _ints(excluded)
            sides = None if sides is None else _ints(sides)
            offsets = array("i", accumulate(map(len, items), initial=0))
            self._nodes = array("q", [0])
            self._nodes_at = self._nodes.buffer_info()[0]
            self._cycle = array("i", [0]) * len(seq)
            self._cycle_at = self._cycle.buffer_info()[0]
            state = ctypes.c_void_p()
            status = dll.hk_new_graph(
                n,
                len(edges) // 2,
                edges.buffer_info()[0],
                None if sides is None else sides.buffer_info()[0],
                len(excluded) // 2,
                excluded.buffer_info()[0],
                len(items),
                seq.buffer_info()[0],
                offsets.buffer_info()[0],
                ctypes.byref(state),
            )
            if status < 0:
                raise MemoryError("no memory for the kernel's search state")
            if status > 0:
                what = "an edge" if status == 1 else "an excluded edge"
                raise ValueError(f"{what} has an end outside 0..{n - 1}")
            self._state = state.value

        def set_cap(self, max_nodes):
            """Cap the search at ``max_nodes`` nodes in all from the next
            ``next()`` on (None: no cap)."""
            self._cap = max_nodes

        def __iter__(self):
            return self

        def __next__(self):
            if self._state is None:
                raise StopIteration
            cap = _NO_CAP if self._cap is None else min(max(self._cap, 0), _NO_CAP)
            found = dll.hk_next_cycle(self._state, cap, self._cycle_at,
                                      self._nodes_at)
            self.nodes = self._nodes[0]
            if found > 0:
                return self._cycle.tolist()
            self.budget_exceeded = found < 0
            self._release()
            raise StopIteration

        def _release(self):
            self._free(self._state)
            self._state = None

        def __del__(self):
            if self._state is not None:
                self._release()

    CGraphEnum.dll = dll
    return CGraphEnum


def _ints(ids):
    """``ids`` as an ``array("i")``: itself when it is one, else a copy."""
    return ids if isinstance(ids, array) and ids.typecode == "i" else array("i", ids)


GraphEnum, KERNEL = _load()
_DLL = getattr(GraphEnum, "dll", None)  # None on the pure kernel


def cycle_enumerator(n, edges, items, max_nodes=None, sides=None,
                     excluded=()):
    """The Hamilton cycles of a graph on vertices 0..n-1 through ``items``
    (vertex sequences), on the kernel that runs; the allowed edges are the
    host's ``edges`` (2m vertex ids, a flat ``array("i")`` or list) between
    side 0 and side 1 of ``sides`` (None: all of them), less ``excluded``;
    see ``PureGraphEnum``."""
    return GraphEnum(n, edges, items, max_nodes, sides, excluded)


def minus_ids(n, ids, gone):
    """A copy of ``ids``, the flat edge array of a graph on 0..n-1, without
    the edges of ``gone``, an iterable of vertex pairs, derived in the C
    kernel in the order of ``ids``; None on the pure kernel, or when a
    vertex of ``gone`` is not a C int (no edge of ``ids`` has one)."""
    if _DLL is None:
        return None
    try:
        drop = array("i", chain.from_iterable(gone))
    except (TypeError, OverflowError):
        return None
    out = ids[:]
    kept = _DLL.hk_minus(n, len(out) // 2, out.buffer_info()[0],
                         len(drop) // 2, drop.buffer_info()[0])
    if kept < 0:
        raise MemoryError("no memory to derive an edge array")
    del out[2 * kept:]
    return out


def class_degree_rows(n, ids, label, k):
    """``rows[v][c]``, the neighbours of v in class c over the flat edge
    array ``ids`` of a graph on 0..n-1, counted in the C kernel, which must
    have loaded, where ``label[w]`` is the class 0..k-1 of w or negative
    for none; None for labels it cannot take (fewer than n, or one past
    k - 1)."""
    label = array("i", label[:n])
    if len(label) < n or (n and max(label) >= k):
        return None
    rows = array("i", bytes(4 * n * k))
    _DLL.hk_class_degrees(len(ids) // 2, ids.buffer_info()[0],
                          label.buffer_info()[0], k, rows.buffer_info()[0])
    flat = rows.tolist()
    return [flat[i:i + k] for i in range(0, n * k, k)]


def seed_words(seed):
    """``(words, used)``: the 32-bit words of ``abs(seed)``, least
    significant first, as ``random.seed`` takes an int, in an
    ``array("I")`` with room for one more word; ``used`` of them count
    (one for 0)."""
    mag = abs(seed)
    used = max(1, -(-mag.bit_length() // 32))
    return array("I", mag.to_bytes(4 * used + 4, sys.byteorder)), used


def split_and_switch(n, A, pool, systems, seed, deadline, attempts):
    """``switches.split_and_switch`` on the C kernel, which must have
    loaded, with at most ``attempts`` attempts: ``(status, a, b, cycles)``
    with ``hk_split_and_switch``'s status and its two details, and the
    cycles when the status is 0; None for input the C engine does not take
    (a vertex that is not a C int, a seed that is not an int, an edge that
    is not a pair), which the Python engine decides."""
    try:
        verts = array("i", A)
        ends = array("i", chain.from_iterable(pool))
        offsets = array("i", accumulate(map(len, systems), initial=0))
        paths = array("i", chain.from_iterable(chain.from_iterable(systems)))
    except (TypeError, OverflowError):
        return None
    if not isinstance(seed, int) or len(ends) != 2 * len(pool) or (
            len(paths) != 2 * offsets[-1]):
        return None
    key, used = seed_words(seed)
    cycles = array("i", bytes(4 * max(n, 0) * len(systems)))
    info = array("q", [0, 0])
    status = _DLL.hk_split_and_switch(
        n, len(verts), verts.buffer_info()[0], len(pool), ends.buffer_info()[0],
        len(systems), offsets.buffer_info()[0], paths.buffer_info()[0],
        key.buffer_info()[0], used, seed < 0, attempts, deadline,
        cycles.buffer_info()[0], info.buffer_info()[0])
    if status == -1:
        raise MemoryError("no memory for the split-and-switch engine")
    if status != 0:
        return status, info[0], info[1], None
    flat = cycles.tolist()
    return status, info[0], info[1], [flat[i:i + n] for i in range(0, len(flat), n)]
