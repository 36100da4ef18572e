"""One BLAS thread per process.

Every BLAS call this package makes is small: per-sample convolution GEMMs,
classifier heads, the gradient pass of the bit search.  On such shapes
OpenBLAS's extra threads spin instead of helping, and a second busy process
on the same cores makes them far slower (docs/ENGINES.md, "BLAS threads").
:func:`pin_blas_threads` therefore sets numpy's bundled OpenBLAS to one
thread.  It runs at execution entry (``ExperimentRunner.run``, the
process-pool initializer, distributed-worker start-up), never at import,
so a cold interpreter that only imports the package does not pay for it.
``python -m repro`` gets the same policy earlier, by exporting
``OPENBLAS_NUM_THREADS=1`` before numpy loads.

The standard OpenBLAS variables still decide: when ``OPENBLAS_NUM_THREADS``
or ``OMP_NUM_THREADS`` is exported the thread count is left alone.  A BLAS
that is not numpy's bundled OpenBLAS is left alone too.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, List, Optional

#: Exported by the user, either variable overrides the one-thread policy.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_pinned = False


def _library_paths() -> List[str]:
    """The OpenBLAS a numpy wheel bundles in ``numpy.libs``."""
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    return sorted(glob.glob(os.path.join(libs, "*openblas*")))


@functools.lru_cache(maxsize=None)
def _openblas_function(name: str) -> Optional[Callable]:
    """OpenBLAS's ``openblas_<name>`` under any of its symbol spellings, or ``None``."""
    for path in _library_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            function = getattr(library, symbol, None)
            if function is not None:
                return function
    return None


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count; ``None`` when it cannot be asked."""
    getter = _openblas_function("get_num_threads")
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())


def pin_blas_threads() -> None:
    """Set OpenBLAS to one thread, once per process (see the module docstring).

    A no-op after the first call, when a thread variable of
    :data:`THREAD_ENV` is exported, and when the library or its symbol is
    missing.
    """
    global _pinned
    if _pinned:
        return
    _pinned = True
    if any(name in os.environ for name in THREAD_ENV):
        return
    setter = _openblas_function("set_num_threads")
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
