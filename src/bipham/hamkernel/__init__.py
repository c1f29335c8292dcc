"""Hamilton-search kernel: a resumable enumerator of Hamilton cycles over
port-constrained vertices.

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
from pathlib import Path

from ._pure import CycleEnum as PureCycleEnum
from ._pure import check_instance

_ROOT = Path(__file__).resolve().parents[3]
_SOURCE = _ROOT / "csrc" / "hamkernel.c"
_BUILD_DIR = _ROOT / "build" / "hamkernel"
_CFLAGS = ("-std=c99", "-O2", "-shared", "-fPIC")
_NO_CAP = 1 << 62  # more nodes than any search expands


def _load(build_dir=_BUILD_DIR, compiler="cc", source=_SOURCE):
    """``(enumerator class, KERNEL)``: the C kernel, compiled into
    ``build_dir`` unless a build of this source is there already, or the
    pure kernel and why."""
    try:
        code = source.read_bytes()
    except OSError:
        return PureCycleEnum, f"pure: no C source {source}"
    lib = build_dir / f"{hashlib.sha256(code).hexdigest()}.so"
    if not lib.exists():
        why = _build(source, lib, compiler)
        if why is not None:
            return PureCycleEnum, f"pure: {why}"
    try:
        dll = ctypes.CDLL(str(lib))
    except OSError as exc:
        return PureCycleEnum, f"pure: cannot load {lib}: {exc}"
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
    """The enumerator class over the C kernel loaded as ``dll``."""
    ptr, c_int, c_bytes = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
    dll.hk_new.argtypes = [c_int, c_bytes, c_bytes, c_bytes, ptr, c_int, c_int]
    dll.hk_new.restype = ptr
    dll.hk_next.argtypes = [ptr, ctypes.c_int64, ptr]
    dll.hk_next.restype = c_int
    dll.hk_nodes.argtypes = [ptr]
    dll.hk_nodes.restype = ctypes.c_int64
    dll.hk_free.argtypes = [ptr]
    dll.hk_free.restype = None

    class CCycleEnum:
        """``PureCycleEnum`` on the C kernel: the same arguments, cycles,
        node counts and budget trips.  The C state is freed when the search
        ends or the enumerator is dropped."""

        _free = dll.hk_free
        _state = None

        def __init__(self, port_a, port_b, directed, start=0,
                     waypoint_ranks=None, max_nodes=None, break_mirror=False):
            n = check_instance(port_a, port_b, directed, start, waypoint_ranks)
            self.nodes = 0
            self.budget_exceeded = False
            self._cap = max_nodes
            if n < 3:
                return
            size = 8 * ((n + 63) // 64)
            ranks = None if waypoint_ranks is None else array("i", waypoint_ranks)
            self._cycle = array("i", [0]) * n
            self._cycle_at = self._cycle.buffer_info()[0]
            self._state = dll.hk_new(
                n,
                b"".join(m.to_bytes(size, "little") for m in port_a),
                b"".join(m.to_bytes(size, "little") for m in port_b),
                bytes(map(bool, directed)),
                None if ranks is None else ranks.buffer_info()[0],
                start,
                bool(break_mirror),
            )
            if self._state is None:
                raise MemoryError("no memory for the kernel's search state")

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
            found = dll.hk_next(self._state, cap, self._cycle_at)
            self.nodes = dll.hk_nodes(self._state)
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

    return CCycleEnum


CycleEnum, KERNEL = _load()


def cycle_enumerator(
    port_a,
    port_b,
    directed,
    start=0,
    waypoint_ranks=None,
    max_nodes=None,
    break_mirror=False,
):
    return CycleEnum(
        port_a,
        port_b,
        directed,
        start,
        waypoint_ranks,
        max_nodes,
        break_mirror,
    )
