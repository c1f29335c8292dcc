"""Hamilton-search kernel: a resumable enumerator of the Hamilton cycles of
a graph through prescribed paths, by required-edge backtracking.

A search instance is a graph, its allowed edges, and the items that cover
its vertices: free vertices and prescribed paths, which a cycle may
traverse either way.  The kernel replaces each path by its two ends joined
by a required edge, leaving its interior out, and searches that vertex
instance from its vertex 0; it yields every Hamilton cycle through the
paths once, with the interiors put back (``_pure`` documents the instance,
the search and its prune).

One search has two kernels.  The C kernel, ``csrc/hamkernel.c`` in the
source tree, is compiled on the first import with the system C compiler
into ``build/hamkernel/<sha256 of the source>.so`` in the same tree; later
imports only load that file, through ``ctypes``.  The pure-Python kernel
(``_pure``) is the reference the C kernel is tested against, and runs in
its place when the source is missing (an installed package), the build
directory is not writable, there is no compiler or the build fails.  Both
yield the same cycles in the same order and count the same nodes, so a
report does not depend on the kernel.

``cycle_enumerator`` is the one entry point; ``KERNEL`` names the kernel
that runs: ``"c"``, or ``"pure: <why not c>"``.
"""

import contextlib
import ctypes
import hashlib
import os
from array import array
from itertools import accumulate
from pathlib import Path

from ._pure import GraphEnum as PureGraphEnum
from ._pure import check_graph

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
    """The graph enumerator class over the C kernel loaded as ``dll``."""
    ptr, c_int = ctypes.c_void_p, ctypes.c_int
    dll.hk_new_graph.argtypes = [c_int, c_int, ptr, c_int, ptr, ptr]
    dll.hk_new_graph.restype = ptr
    dll.hk_next_cycle.argtypes = [ptr, ctypes.c_int64, ptr, ptr]
    dll.hk_next_cycle.restype = c_int
    dll.hk_free.argtypes = [ptr]
    dll.hk_free.restype = None

    class CGraphEnum:
        """``PureGraphEnum`` on the C kernel: the same arguments, cycles,
        node counts and budget trips; the vertex instance is built and
        searched in C.  The search state lives in C and is freed when the
        search ends or the enumerator is dropped."""

        _free = dll.hk_free
        _state = None

        def __init__(self, n, edges, items, max_nodes=None):
            seq = check_graph(n, edges, items)
            self.nodes = 0
            self.budget_exceeded = False
            self._cap = max_nodes
            if len(items) < 3 and sum(min(len(v), 2) for v in items) < 3:
                return  # fewer than three instance vertices: no cycle
            edges = array("i", edges)
            offsets = array("i", accumulate(map(len, items), initial=0))
            self._nodes = array("q", [0])
            self._nodes_at = self._nodes.buffer_info()[0]
            self._cycle = array("i", [0]) * len(seq)
            self._cycle_at = self._cycle.buffer_info()[0]
            state = dll.hk_new_graph(
                n,
                len(edges) // 2,
                edges.buffer_info()[0],
                len(items),
                seq.buffer_info()[0],
                offsets.buffer_info()[0],
            )
            if state is None:
                raise MemoryError("no memory for the kernel's search state")
            self._state = state

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

    return CGraphEnum


GraphEnum, KERNEL = _load()


def cycle_enumerator(n, edges, items, max_nodes=None):
    """The Hamilton cycles of a graph on vertices 0..n-1 with allowed
    ``edges`` (2m vertex ids, a flat ``array("i")`` or list) through
    ``items`` (vertex sequences), on the kernel that runs; see
    ``PureGraphEnum``."""
    return GraphEnum(n, edges, items, max_nodes)
