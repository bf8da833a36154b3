"""The compiled kernels of ``_kernel.c`` (the ascent loop, the iterate
scorer with its lane-parallel d x d flow solves and one softmax per iterate
and state, the next-state search, and the per-next-state feature sums),
built on first use, never at import, and loaded once per process.

Callers pass the loop's phi, W and work arrays 64-byte aligned (``empty``):
misaligned, its vectors straddle cache lines, and a run measured up to 1.5x
slower. The kernel assumes no alignment, so a misaligned array is only slower.

Under glibc, the first load also sets malloc's mmap threshold to 32 MiB and
its trim threshold to 64 MiB, once per process. By default an array of
128 KiB or more is mapped on its own and unmapped when freed, until a larger
one has been freed, and the heap top is returned to the OS past twice that
size; so each sweep cell first-touched zeroed pages again for the arrays the
cell before it had freed (about 600 minor faults per n=20000 collection).
32 MiB is glibc's own ceiling for its dynamic threshold on 64-bit, and the
trim threshold is twice it, the ratio of glibc's dynamic rule. Arrays up to
32 MiB are then reused from the heap, and at most 64 MiB of freed heap top
stays resident. Other C libraries are left as they are.
"""

import ctypes
import math
import os
import tempfile
from pathlib import Path

import numpy as np

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_COMPILER = "cc"
# Plain -O3: -ffast-math would let the compiler drop the loop's isfinite test
# and reorder its sums, and -march=native would tie a cached build to one CPU.
# The loop and the scorer are built per instruction set instead (target_clones
# in _kernel.c), picked at load time; -ffp-contract=off keeps every clone from
# fusing a multiply-add, so each rounds every product and sum as the default
# build does.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-fopenmp-simd", "-ffp-contract=off")
# VECTOR_PAD of _kernel.c: the loop's sites and the scorer's lanes come in
# multiples of it, a full vector of the widest build (8 doubles).
VECTOR_PAD = 8
_kernel_handle = None  # the loaded library
# glibc's mallopt parameters (malloc.h) and the values _kernel sets them to.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def empty(shape: tuple) -> np.ndarray:
    """An uninitialized C-contiguous float64 array of ``shape`` whose data start
    at a multiple of 64 bytes: a slice of a buffer 8 floats longer."""
    size = math.prod(shape)
    buffer = np.empty(size + VECTOR_PAD)
    start = (-buffer.ctypes.data % 64) // 8
    return buffer[start:start + size].reshape(shape)


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):  # a C library without the name
        return False


def _kernel_path(source: bytes, directory: Path) -> Path:
    """The build of ``source`` in ``directory``, named by a hash of the source
    and the compiler command."""
    import hashlib  # here and in _build_kernel: at import they would add ~8 ms

    key = hashlib.sha256(repr((_COMPILER, _CFLAGS)).encode() + source)
    return directory / f"_kernel-{key.hexdigest()[:16]}.so"


def _build_kernel(source: bytes, path: Path) -> None:
    """Compile ``source`` to a temporary name next to ``path``, then move it
    into place, so no process sees a partial file. Once it is in place, the
    directory's other ``_kernel-*.so`` builds, of older sources or compiler
    commands, are removed."""
    import subprocess

    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    # On x86-64 glibc, libm.so is a linker script that also links the vector
    # exp (libmvec) that _kernel.c declares there, where the loop calls it.
    command = [_COMPILER, *_CFLAGS, "-x", "c", "-", "-o", str(partial), "-lm"]
    try:
        done = subprocess.run(command, input=source, capture_output=True)
    except OSError as e:
        raise RuntimeError(f"the C kernel is built on first use by `{' '.join(command)}`, "
                           f"but the C compiler {_COMPILER!r} could not be run: {e}") from e
    if done.returncode:
        partial.unlink(missing_ok=True)
        raise RuntimeError(f"`{' '.join(command)}` failed building the C kernel:\n"
                           + done.stderr.decode(errors="replace"))
    os.replace(partial, path)
    for stale in path.parent.glob("_kernel-*.so"):
        if stale != path:
            stale.unlink(missing_ok=True)


def _kernel() -> ctypes.CDLL:
    """The library, with the signatures of its entries (``fogas_ascend``,
    ``fogas_score_iterates`` with ``fogas_score_lane_floats``,
    ``fogas_next_states`` and ``fogas_group_next_states``) set, kept for the
    process. Under glibc, loading it sets malloc's thresholds (see above).

    The build goes to the package's ``__pycache__``, named by ``_kernel_path``;
    a process that finds it there starts no compiler. Where that directory
    cannot be written, the build goes to a private temporary directory.
    """
    global _kernel_handle
    if _kernel_handle is None:
        source = _KERNEL_SOURCE.read_bytes()
        cache = _KERNEL_SOURCE.with_name("__pycache__")
        path = _kernel_path(source, cache)
        if not path.exists():
            try:
                cache.mkdir(exist_ok=True)
            except OSError:
                pass
            if not os.access(cache, os.W_OK):
                path = _kernel_path(source, Path(tempfile.mkdtemp(prefix="fogas-")))
            _build_kernel(source, path)
        lib = ctypes.CDLL(str(path))
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        lib.fogas_ascend.argtypes = [i64] * 4 + [ptr] * 4 + [f64] * 6 + [i64] * 2 + [ptr] * 4
        lib.fogas_ascend.restype = i64
        lib.fogas_score_iterates.argtypes = [i64] * 5 + [ptr] * 3 + [f64, i64] + [ptr] * 7
        lib.fogas_score_iterates.restype = i64
        lib.fogas_score_lane_floats.argtypes = [i64] * 2
        lib.fogas_score_lane_floats.restype = i64
        lib.fogas_next_states.argtypes = [i64] * 3 + [ptr] * 4
        lib.fogas_next_states.restype = None
        lib.fogas_group_next_states.argtypes = [i64] * 3 + [ptr] * 4
        lib.fogas_group_next_states.restype = None
        if _on_glibc():  # the library links libc, so its handle finds mallopt
            lib.mallopt.argtypes = [ctypes.c_int] * 2
            lib.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
            lib.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        _kernel_handle = lib
    return _kernel_handle
