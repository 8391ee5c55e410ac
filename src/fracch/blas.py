"""One BLAS thread while a sample path is computed.

OpenBLAS splits large matrix products between its threads, and the split
changes the order of the floating-point sums: the far-history and noise
GEMMs of a path differ in the last digits between one thread and two.
So tables would depend on ``OPENBLAS_NUM_THREADS`` and on the number of
cores, and with ``workers > 1`` the BLAS threads of the worker processes
would compete for the same cores.  :func:`one_blas_thread` sets every
loaded OpenBLAS library (numpy's and scipy's each bundle one) to a single
thread and restores the previous count on exit.

The libraries are found among the shared objects mapped into this
process on first use, never at import.  Where a library or its thread
symbols cannot be found, nothing is changed.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import lru_cache

# numpy bundles the 64-bit-integer build, scipy the 32-bit one; their
# exported names differ by this suffix
_SUFFIXES = ("64_", "")


@lru_cache(maxsize=1)
def _thread_controls() -> tuple:
    """(get, set) thread-count functions of each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split()[-1] for line in maps if "libscipy_openblas" in line}
            )
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in _SUFFIXES:
            try:
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread."""
    controls = _thread_controls()
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)
