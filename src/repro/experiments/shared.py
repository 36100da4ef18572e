"""Zero-copy victim shipping over POSIX shared memory.

Training a surrogate victim dominates the cost of the DNN experiments, and
the process-pool backend used to pay it once *per worker*: every worker's
:class:`~repro.experiments.cache.VictimCache` retrained the same
``(model_key, seed, training_epochs)`` combination from scratch.  This
module ships the trained clean state instead: the parent process exports
each victim's state-dict arrays into one
:class:`multiprocessing.shared_memory.SharedMemory` segment, workers attach
read-only numpy views **zero-copy** (the views alias the shared pages — no
pickling, no per-task serialisation) and materialise the victim by building
the untrained model and loading the shared state, which is bit-identical to
training locally because training is deterministic in the key.

Handle lifecycle (fork-safe):

* The **parent** owns every segment: :func:`export_state` creates it (the
  stdlib registers it with the resource tracker, so even a crashed parent
  is cleaned up at tracker shutdown) and the backend unlinks it in a
  ``finally`` block after the pool drains, with an :mod:`atexit` backstop
  for anything never released.
* **Workers** only ever attach — on POSIX by mmap-ing the ``/dev/shm``
  file read-only, which involves no tracker bookkeeping at all (the
  stdlib's attach-side registration is refcount-free, so concurrent
  workers would race it and its shutdown cleanup could destroy segments
  the parent still serves).  :class:`SharedStateHandle.close` detaches the
  mapping and is idempotent (double-detach safe); a worker that dies
  without detaching merely drops its mapping with the process — the
  segment itself survives until the parent unlinks it, so a worker crash
  can never strand or destroy shared state.
"""

from __future__ import annotations

import atexit
import mmap
import os
import secrets
import signal
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.testing import chaos

#: Prefix of every segment this module creates (useful for test cleanup
#: assertions against ``/dev/shm``).
SEGMENT_PREFIX = "repro_victim_"

#: Where POSIX shared memory appears as plain files; workers attach by
#: mmap-ing these read-only, which keeps :mod:`multiprocessing`'s resource
#: tracker entirely out of the attach path (its attach-side registration
#: is refcount-free, so concurrent workers attaching one segment would
#: race its books and its shutdown cleanup could destroy live segments).
_SHM_DIR = Path("/dev/shm")

#: Name of the victim registry's liveness manifest (owner pid + owned
#: segment names) inside a daemon's queue directory.
REGISTRY_MANIFEST_FILE = "registry.json"


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # e.g. EPERM: the process exists, just not ours
    return True

#: Segments created by this process that are still linked; the atexit hook
#: unlinks them so an aborted run cannot leak ``/dev/shm`` space.
_OWNED: Dict[str, shared_memory.SharedMemory] = {}


def _untrack(name: str) -> None:
    """Drop a fallback attach's tracker registration (non-POSIX path only)."""
    try:
        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except (KeyError, FileNotFoundError):  # pragma: no cover - tracker quirks
        pass


@atexit.register
def _unlink_owned() -> None:
    """Backstop: unlink any segment the owning process never released."""
    for name in list(_OWNED):
        segment = _OWNED.pop(name)
        try:
            segment.close()
        except BufferError:  # pragma: no cover - views outlive the run
            pass
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


#: Whether the SIGTERM/SIGINT unlink backstop is installed (main thread only).
_SIGNALS_INSTALLED = False


def _install_signal_backstop() -> None:
    """Run the atexit unlink backstop on SIGTERM/SIGINT too.

    ``atexit`` never fires when the owning process is killed by an
    unhandled SIGTERM, so a terminated daemon would strand its segments in
    ``/dev/shm`` until reboot.  The first :func:`export_state` call from
    the main thread therefore wraps the existing SIGTERM/SIGINT
    disposition: the wrapper unlinks every owned segment, then defers to
    the previous handler — re-raising with the default disposition when
    there was none, so exit codes and signal semantics are preserved.  A
    signal explicitly ignored (``SIG_IGN``) stays ignored: the process is
    not dying, so its segments must stay linked.
    """
    global _SIGNALS_INSTALLED
    if _SIGNALS_INSTALLED or threading.current_thread() is not threading.main_thread():
        return
    _SIGNALS_INSTALLED = True
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous = signal.getsignal(signum)
        if previous is signal.SIG_IGN:
            continue

        def _handler(num, frame, previous=previous):
            _unlink_owned()
            if callable(previous):
                previous(num, frame)
            else:
                signal.signal(num, signal.SIG_DFL)
                os.kill(os.getpid(), num)

        try:
            signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic embedding
            _SIGNALS_INSTALLED = False


@dataclass(frozen=True)
class SharedArrayManifest:
    """Addressing metadata for one state dict packed into one segment.

    ``arrays`` maps each state-dict key to its ``(offset, shape, dtype)``
    inside the segment; the manifest is plain picklable data, so it travels
    to workers through the pool initializer without copying any weights.
    """

    shm_name: str
    total_bytes: int
    arrays: Tuple[Tuple[str, int, Tuple[int, ...], str], ...]


@dataclass(frozen=True)
class SharedVictimManifest:
    """A :class:`SharedArrayManifest` tagged with its victim-cache key."""

    model_key: str
    seed: int
    training_epochs: Optional[int]
    state: SharedArrayManifest


class SharedStateHandle:
    """An attached (or owned) segment plus its zero-copy array views.

    ``arrays`` are read-only numpy views aliasing the shared pages.
    :meth:`close` detaches the mapping and is safe to call repeatedly;
    :meth:`unlink` additionally removes the segment from the system (owner
    side only) and tolerates the segment being gone already.
    """

    def __init__(
        self,
        name: str,
        arrays: Dict[str, np.ndarray],
        close: Callable[[], None],
        segment: Optional[shared_memory.SharedMemory] = None,
    ):
        self.name = name
        self.arrays = arrays
        self._close = close
        self._segment = segment
        self._closed = False

    def close(self) -> None:
        """Detach the mapping (idempotent — double-detach is a no-op)."""
        if self._closed:
            return
        self._closed = True
        self.arrays = {}
        try:
            self._close()
        except BufferError:
            # Zero-copy views of the segment are still alive somewhere (a
            # long-lived worker cache, say); the mapping simply drops with
            # the process instead — unlinking by the owner is unaffected.
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner side); missing segments are tolerated."""
        self.close()
        _OWNED.pop(self.name, None)
        if self._segment is not None:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass


def export_state(state: Mapping[str, np.ndarray]) -> Tuple[SharedStateHandle, SharedArrayManifest]:
    """Pack a state dict into one fresh shared-memory segment.

    Returns the owning handle (caller must :meth:`~SharedStateHandle.unlink`
    it when every consumer is done) and the manifest workers attach with.
    """
    _install_signal_backstop()
    items: List[Tuple[str, np.ndarray]] = [
        (key, np.ascontiguousarray(value)) for key, value in state.items()
    ]
    offset = 0
    layout: List[Tuple[str, int, Tuple[int, ...], str]] = []
    for key, value in items:
        # 8-byte alignment keeps float64 views natively aligned.
        offset = (offset + 7) & ~7
        layout.append((key, offset, value.shape, value.dtype.str))
        offset += value.nbytes
    total = max(offset, 1)
    shm = shared_memory.SharedMemory(
        create=True, size=total, name=f"{SEGMENT_PREFIX}{secrets.token_hex(8)}"
    )
    _OWNED[shm.name] = shm
    arrays: Dict[str, np.ndarray] = {}
    for (key, value), (_, start, shape, dtype) in zip(items, layout):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=start)
        view[...] = value
        view.flags.writeable = False
        arrays[key] = view
    manifest = SharedArrayManifest(
        shm_name=shm.name, total_bytes=total, arrays=tuple(layout)
    )
    return SharedStateHandle(shm.name, arrays, close=shm.close, segment=shm), manifest


def attach_state(manifest: SharedArrayManifest) -> SharedStateHandle:
    """Attach a segment and return zero-copy read-only views of its arrays.

    On POSIX the segment file is mmap-ed read-only straight out of
    ``/dev/shm``, which keeps :mod:`multiprocessing`'s resource tracker out
    of the attach path entirely (see :data:`_SHM_DIR`); elsewhere the
    stdlib attach is used and immediately untracked.

    The ``shared.attach`` fault point models a torn or vanished segment;
    callers (:meth:`VictimCache._from_manifest`) treat any ``OSError``
    here as "segment unusable" and fall back to deterministic local
    retraining, so an injected failure degrades instead of crashing.
    """
    chaos.fault_point("shared.attach")
    path = _SHM_DIR / manifest.shm_name
    if path.is_file():
        fd = os.open(path, os.O_RDONLY)
        try:
            mapping = mmap.mmap(fd, 0, prot=mmap.PROT_READ)
        finally:
            os.close(fd)
        arrays = {
            key: np.ndarray(shape, dtype=dtype, buffer=mapping, offset=offset)
            for key, offset, shape, dtype in manifest.arrays
        }
        return SharedStateHandle(manifest.shm_name, arrays, close=mapping.close)
    shm = shared_memory.SharedMemory(name=manifest.shm_name)  # pragma: no cover
    _untrack(shm.name)
    arrays = {}
    for key, offset, shape, dtype in manifest.arrays:
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        arrays[key] = view
    return SharedStateHandle(shm.name, arrays, close=shm.close)


def export_victim(
    model_key: str,
    seed: int,
    training_epochs: Optional[int],
    clean_state: Mapping[str, np.ndarray],
) -> Tuple[SharedStateHandle, SharedVictimManifest]:
    """Export one trained victim's clean state for worker-side attachment."""
    handle, state_manifest = export_state(clean_state)
    return handle, SharedVictimManifest(
        model_key=model_key,
        seed=seed,
        training_epochs=training_epochs,
        state=state_manifest,
    )
