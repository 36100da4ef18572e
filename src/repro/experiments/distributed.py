"""Multi-host execution backend: workers pull unit chunks over TCP.

The local backends top out at one machine.  :class:`DistributedBackend`
keeps the exact :class:`~repro.experiments.runner.ExecutionBackend`
contract — same work units in, same ordered outputs out, bit-identical to
:class:`~repro.experiments.runner.SerialBackend` — but executes the units
in worker *processes that connect over TCP*, so they can live on other
hosts.  By default the backend spawns its workers locally
(``python -m repro worker``), which doubles as the daemon's in-host pool;
pointing external ``repro worker`` processes at the same address scales
the same run across machines with no code changes.

Protocol (length-prefixed pickle frames, trusted-cluster only — pickle
executes arbitrary code, never expose the port beyond hosts you control):

1. worker connects; backend sends a handshake ``{spec, manifests}``;
2. backend streams ``{units: [...]}`` task frames, one chunk at a time,
   and the worker answers each with ``{outputs: [...]}``; while connected
   the worker also emits ``{heartbeat: true}`` frames every
   ``heartbeat_interval`` seconds, which the backend consumes as liveness
   evidence and never answers;
3. ``{done: true}`` releases the worker back to its connect loop.

Workers keep one :class:`~repro.experiments.cache.ExperimentContext`
across all chunks of a run, seeded with the handshake's shared-memory
manifests: a same-host worker attaches the exported clean states
zero-copy, while a remote host (where the exporter's ``/dev/shm`` does
not exist) transparently falls back to deterministic local retraining —
bit-identical either way, which is what keeps the backend's results equal
to serial.

Fault model (every policy below comes from one
:class:`~repro.utils.resilience.ResilienceConfig`, overridable via
``REPRO_*`` environment variables and the ``--chunk-timeout`` /
``--max-chunk-retries`` / ``--fallback-backend`` CLI flags):

* a connection that drops mid-chunk — or goes silent past the heartbeat
  timeout, or exceeds the absolute per-chunk execution timeout — has its
  chunk requeued for any other live worker; chunk execution is
  deterministic, so a re-run yields the identical outputs;
* a chunk requeued more than ``max_chunk_retries`` times is quarantined:
  the run fails with a :class:`PoisonChunkError` carrying per-chunk
  failure diagnostics instead of cycling the chunk through the fleet
  forever;
* a peer host whose connections keep dying mid-chunk trips a
  :class:`~repro.utils.resilience.CircuitBreaker` and is refused until
  the breaker's reset timeout passes;
* a run in which **no** worker connects within ``connect_timeout``
  degrades gracefully down the backend ladder (``fallback_backend`` →
  ``thread`` → ``serial``) when a fallback is configured — results stay
  bit-identical because every backend obeys the serial-equality contract
  — and raises otherwise.

Chaos hooks: the send path declares ``distributed.handshake`` and
``distributed.send_chunk`` fault points, and workers declare
``worker.chunk`` before executing each chunk, so the whole fault model is
exercised deterministically by :mod:`repro.testing.chaos` plans.
"""

from __future__ import annotations

import pickle
import socket
import struct
import subprocess
import sys
import threading
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.cache import ExperimentContext
from repro.experiments.runner import ExecutionBackend, _chunk, _stage_victims
from repro.experiments.specs import ExperimentSpec, spec_from_dict
from repro.testing import chaos
from repro.utils.blas import pin_blas_threads
from repro.utils.resilience import CircuitBreaker, Deadline, ResilienceConfig

#: Frame header: unsigned 64-bit big-endian payload length.
_HEADER = struct.Struct("!Q")

#: Default port the daemon offers to distributed workers.
DEFAULT_WORKER_PORT = 7422


class PoisonChunkError(RuntimeError):
    """A chunk exhausted its requeue budget; carries per-chunk diagnostics.

    ``diagnostics`` maps each failed chunk index to the list of failure
    reasons observed across its attempts, so a quarantined run reports
    *why* every retry died instead of a bare "giving up".
    """

    def __init__(self, index: int, attempts: int, diagnostics: Dict[int, List[str]]):
        self.index = index
        self.attempts = attempts
        self.diagnostics = {key: list(value) for key, value in diagnostics.items()}
        reasons = "; ".join(self.diagnostics.get(index, ())) or "no diagnostics recorded"
        super().__init__(
            f"chunk {index} quarantined after {attempts} failed attempts "
            f"({reasons})"
        )


class ChunkTimeoutError(ConnectionError):
    """A worker went silent (heartbeat timeout) or overran its chunk budget."""


class StallError(RuntimeError):
    """No worker connected within the deadline while work remains."""


def send_frame(sock: socket.socket, payload: Any) -> None:
    """Pickle ``payload`` and send it as one length-prefixed frame."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def _send_frame_chaos(sock: socket.socket, payload: Any, point: str) -> None:
    """:func:`send_frame` behind a named fault point.

    The cooperative kinds are implemented here: ``drop`` swallows the
    frame (the peer sees silence, exactly like a lost packet a broken NIC
    never retransmits), ``partial_write`` transmits half the frame and
    reports the connection broken (the peer sees a mid-frame close).
    """
    action = chaos.fault_point(point)
    if action == "drop":
        return
    if action == "partial_write":
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _HEADER.pack(len(blob)) + blob
        sock.sendall(frame[: max(1, len(frame) // 2)])
        raise ConnectionError(f"chaos[{point}]: frame truncated mid-send")
    send_frame(sock, payload)


def recv_frame(sock: socket.socket) -> Any:
    """Receive one length-prefixed pickle frame (raises on a closed peer)."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    return pickle.loads(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        block = sock.recv(min(remaining, 1 << 20))
        if not block:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(block)
        remaining -= len(block)
    return b"".join(chunks)


class _RunState:
    """Shared bookkeeping for one distributed run (tasks, results, liveness)."""

    def __init__(
        self,
        chunks: Sequence[Sequence[Mapping[str, Any]]],
        max_retries: int = ResilienceConfig.max_chunk_retries,
    ):
        self.tasks = deque(enumerate(chunks))
        self.results: Dict[int, List[Any]] = {}
        self.requeues: Dict[int, int] = {}
        self.failures: Dict[int, List[str]] = {}
        self.max_retries = max_retries
        self.expected = len(chunks)
        self.active_handlers = 0
        self.error: Optional[BaseException] = None
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.lock = threading.Lock()
        self.done = threading.Condition(self.lock)

    def finished(self) -> bool:
        """Whether the run is over (all results in, or a fatal error set)."""
        return self.error is not None or len(self.results) >= self.expected

    def requeue(self, index: int, chunk, reason: str = "worker lost") -> None:
        """Give a chunk back to the fleet, quarantining it past the budget."""
        with self.lock:
            if index in self.results:
                return
            self.failures.setdefault(index, []).append(reason)
            self.requeues[index] = self.requeues.get(index, 0) + 1
            if self.requeues[index] > self.max_retries:
                self.error = PoisonChunkError(
                    index, self.requeues[index], self.failures
                )
            else:
                self.tasks.appendleft((index, chunk))
            self.done.notify_all()

    def breaker_for(self, host: str, config: ResilienceConfig) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one peer host."""
        with self.lock:
            breaker = self.breakers.get(host)
            if breaker is None:
                breaker = self.breakers[host] = config.breaker()
            return breaker

    def pending_chunks(self) -> List[int]:
        """Chunk indices still lacking a result, in chunk order."""
        with self.lock:
            return [index for index in range(self.expected) if index not in self.results]


class DistributedBackend(ExecutionBackend):
    """Execute work units in worker processes connected over TCP.

    ``num_workers`` local workers are spawned by default (set
    ``spawn_workers=False`` to rely purely on externally started
    ``python -m repro worker`` processes).  ``host``/``port`` choose the
    listening address; port ``0`` picks an ephemeral port, which suits the
    spawn-local mode.  An attached
    :class:`~repro.experiments.registry.VictimRegistry` stages victims
    warm instead of exporting per run, exactly like
    :class:`~repro.experiments.runner.ProcessPoolBackend`.

    Every timeout and retry bound comes from ``resilience`` (defaulting to
    :meth:`ResilienceConfig.from_env`).
    """

    name = "distributed"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: bool = True,
        chunk_size: Optional[int] = None,
        share_victims: bool = True,
        registry=None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.num_workers = num_workers
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.chunk_size = chunk_size
        self.share_victims = share_victims
        self.registry = registry
        self.resilience = resilience or ResilienceConfig.from_env()
        #: How the last run finished: ``"distributed"`` or the name of the
        #: fallback backend that completed the leftover work.
        self.last_execution_path = "distributed"

    def run_units(
        self,
        spec: ExperimentSpec,
        units: Sequence[Mapping[str, Any]],
        context: ExperimentContext,
    ) -> List[Any]:
        """Fan unit chunks out to connected workers; outputs in unit order."""
        if not units:
            return []
        payload = spec.to_dict()
        workers = self.num_workers or 2
        handles: List[Any] = []
        manifests: List[Any] = []
        processes: List[subprocess.Popen] = []
        self.last_execution_path = "distributed"
        try:
            if self.share_victims:
                handles, manifests = _stage_victims(spec, context, self.registry)
            chunks = _chunk(units, self.chunk_size, workers)
            state = _RunState(chunks, max_retries=self.resilience.max_chunk_retries)
            handshake = {"spec": payload, "manifests": tuple(manifests)}
            with socket.create_server((self.host, self.port)) as server:
                server.settimeout(self.resilience.accept_poll)
                port = server.getsockname()[1]
                if self.spawn_workers:
                    processes = [self._spawn_worker(port) for _ in range(workers)]
                self._serve(server, handshake, state, processes)
            if isinstance(state.error, StallError):
                return self._degrade(spec, units, context, chunks, state)
            if state.error is not None:
                raise state.error
            outputs: List[Any] = []
            for index in range(len(chunks)):
                outputs.extend(state.results[index])
            return outputs
        finally:
            for process in processes:
                if process.poll() is None:
                    process.terminate()
            for process in processes:
                try:
                    process.wait(timeout=self.resilience.shutdown_grace)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                    process.kill()
            for handle in handles:
                handle.unlink()

    def _degrade(
        self,
        spec: ExperimentSpec,
        units: Sequence[Mapping[str, Any]],
        context: ExperimentContext,
        chunks: Sequence[Sequence[Mapping[str, Any]]],
        state: _RunState,
    ) -> List[Any]:
        """Finish a stalled run on the fallback ladder (or raise the stall).

        Only the chunks without results are re-executed; the fallback
        ladder starts at ``fallback_backend`` and falls through ``thread``
        to ``serial``.  Unit-level determinism makes the merged outputs
        bit-identical to an all-distributed (or all-serial) run.
        """
        if self.resilience.fallback_backend is None:
            raise state.error
        pending = state.pending_chunks()
        leftover: List[Mapping[str, Any]] = []
        for index in pending:
            leftover.extend(chunks[index])
        ladder = ["thread", "serial"]
        first = self.resilience.fallback_backend
        if first in ladder:
            ladder = ladder[ladder.index(first):]
        else:
            ladder = [first] + ladder
        last_error: Optional[BaseException] = state.error
        for name in ladder:
            backend = self._fallback_backend(name)
            if backend is None:
                continue
            print(
                f"warning: distributed run stalled ({state.error}); degrading "
                f"{len(leftover)} remaining unit(s) to the {name!r} backend",
                file=sys.stderr,
            )
            try:
                outputs = backend.run_units(spec, leftover, context)
            except Exception as error:  # noqa: BLE001 - try the next rung
                last_error = error
                continue
            self.last_execution_path = name
            position = 0
            for index in pending:
                state.results[index] = outputs[position:position + len(chunks[index])]
                position += len(chunks[index])
            merged: List[Any] = []
            for index in range(len(chunks)):
                merged.extend(state.results[index])
            return merged
        raise RuntimeError(
            f"distributed run stalled and every fallback rung failed"
        ) from last_error

    def _fallback_backend(self, name: str) -> Optional[ExecutionBackend]:
        """Build one rung of the degradation ladder (``None`` skips it)."""
        from repro.experiments.runner import (
            ProcessPoolBackend,
            SerialBackend,
            ThreadPoolBackend,
        )

        if name == "serial":
            return SerialBackend()
        if name == "thread":
            return ThreadPoolBackend(max_workers=self.num_workers)
        if name == "process":
            backend = ProcessPoolBackend(
                max_workers=self.num_workers, share_victims=self.share_victims
            )
            backend.registry = self.registry
            return backend
        return None

    def _spawn_worker(self, port: int) -> subprocess.Popen:
        """Start one local ``python -m repro worker`` pointed at ``port``."""
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--host",
                self.host,
                "--port",
                str(port),
                "--once",
            ],
        )

    def _serve(
        self,
        server: socket.socket,
        handshake: Dict[str, Any],
        state: _RunState,
        processes: List[subprocess.Popen],
    ) -> None:
        """Accept workers and feed them until every chunk has a result."""
        deadline = Deadline(self.resilience.connect_timeout)
        respawns = 0
        threads: List[threading.Thread] = []
        while True:
            with state.lock:
                if state.finished():
                    break
                idle_fleet = not processes or all(p.poll() is not None for p in processes)
                needs_worker = bool(state.tasks) and state.active_handlers == 0
                can_respawn = respawns < self.resilience.worker_respawns
                if self.spawn_workers and idle_fleet and needs_worker and can_respawn:
                    # Requeued work outlived the fleet (e.g. every --once
                    # worker finished before a crash handed a chunk back):
                    # replace one worker so the run can complete.
                    processes.append(self._spawn_worker(server.getsockname()[1]))
                    respawns += 1
                    deadline = Deadline(self.resilience.connect_timeout)
                    idle_fleet = False
                stalled = (
                    state.active_handlers == 0 and idle_fleet and deadline.expired()
                )
                if stalled:
                    state.error = StallError(
                        "distributed run stalled: no workers connected "
                        f"within {self.resilience.connect_timeout:.0f}s and work remains"
                    )
                    break
            try:
                connection, address = server.accept()
            except socket.timeout:
                continue
            breaker = state.breaker_for(address[0], self.resilience)
            if not breaker.allow():
                # This host's connections keep dying mid-chunk; refuse it
                # until the breaker's reset timeout passes.
                connection.close()
                continue
            with state.lock:
                state.active_handlers += 1
            thread = threading.Thread(
                target=self._handle_worker,
                args=(connection, handshake, state, breaker),
                daemon=True,
            )
            thread.start()
            threads.append(thread)
            deadline = Deadline(self.resilience.connect_timeout)
        for thread in threads:
            thread.join(timeout=self.resilience.shutdown_grace)

    def _await_reply(self, connection: socket.socket) -> Any:
        """Receive the next non-heartbeat frame, enforcing both timeouts.

        The socket timeout bounds *silence* (a worker that stops
        heartbeating is dead); the :class:`Deadline` bounds the chunk's
        total wall clock (a worker that heartbeats forever while hung
        still gets cut off).
        """
        config = self.resilience
        deadline = Deadline(config.chunk_timeout)
        while True:
            wait = config.heartbeat_timeout
            remaining = deadline.remaining()
            if remaining != float("inf"):
                if remaining <= 0:
                    raise ChunkTimeoutError(
                        f"chunk exceeded its {config.chunk_timeout:.0f}s execution timeout"
                    )
                wait = min(wait, remaining)
            connection.settimeout(max(wait, 0.001))
            try:
                reply = recv_frame(connection)
            except socket.timeout as exc:
                raise ChunkTimeoutError(
                    f"worker silent for {wait:.1f}s (no heartbeat)"
                ) from exc
            if isinstance(reply, dict) and reply.get("heartbeat"):
                continue
            return reply

    def _handle_worker(
        self,
        connection: socket.socket,
        handshake: Dict[str, Any],
        state: _RunState,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        """Per-connection pump: handshake, then task/answer round trips."""
        current: Optional[Tuple[int, Any]] = None
        try:
            with connection:
                _send_frame_chaos(connection, handshake, "distributed.handshake")
                while True:
                    with state.lock:
                        if state.error is not None or not state.tasks:
                            break
                        current = state.tasks.popleft()
                    index, chunk = current
                    _send_frame_chaos(
                        connection, {"units": list(chunk)}, "distributed.send_chunk"
                    )
                    reply = self._await_reply(connection)
                    if "error" in reply:
                        raise RuntimeError(f"worker failed: {reply['error']}")
                    with state.lock:
                        state.results[index] = reply["outputs"]
                        current = None
                        state.done.notify_all()
                    if breaker is not None:
                        breaker.record_success()
                send_frame(connection, {"done": True})
        except RuntimeError as exc:
            # A worker-side execution error is deterministic — rerunning the
            # chunk elsewhere would fail identically, so fail the run.
            with state.lock:
                state.error = exc
                state.done.notify_all()
        except (ConnectionError, OSError, EOFError, pickle.UnpicklingError) as exc:
            # Lost the worker mid-chunk: give the chunk back to the fleet.
            if breaker is not None:
                breaker.record_failure()
            if current is not None:
                state.requeue(*current, reason=f"{type(exc).__name__}: {exc}")
        finally:
            with state.lock:
                state.active_handlers -= 1
                state.done.notify_all()


class _WorkerHeartbeat:
    """Background liveness beacon a worker runs per connection.

    Sends ``{heartbeat: true}`` every ``interval`` seconds under the
    connection's send lock (frames must never interleave with the main
    thread's replies).  A send failure just ends the beacon — the main
    thread will observe the broken connection itself.  ``interval <= 0``
    disables the beacon entirely.
    """

    def __init__(self, connection: socket.socket, interval: float, lock: threading.Lock):
        self._connection = connection
        self._interval = interval
        self._lock = lock
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Begin emitting heartbeats (no-op when the interval disables them)."""
        if self._interval <= 0:
            return
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    send_frame(self._connection, {"heartbeat": True})
            except OSError:
                return

    def stop(self) -> None:
        """Stop the beacon (idempotent; joins the thread briefly)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None


def run_worker(
    host: str,
    port: int,
    once: bool = False,
    resilience: Optional[ResilienceConfig] = None,
) -> int:
    """Worker loop for ``python -m repro worker``: pull chunks, push outputs.

    Connects to a :class:`DistributedBackend` (retrying with the config's
    seeded backoff while the backend is still binding), executes the
    chunks it is handed with one long-lived
    :class:`~repro.experiments.cache.ExperimentContext`, heartbeats while
    connected, and — unless ``once`` — reconnects for the next run, so a
    standing fleet of workers can serve many runs.  A connection that
    breaks mid-run is survivable: the backend requeues the chunk and this
    loop dials again (a reconnect-failure circuit breaker bounds how long
    a dead backend is retried).  Returns a process exit status.
    """
    pin_blas_threads()
    config = resilience or ResilienceConfig.from_env()
    breaker = config.breaker()
    while True:
        if not breaker.allow():
            return 1
        try:
            connection = _connect(host, port, config)
        except ConnectionError:
            return 1
        send_lock = threading.Lock()
        heartbeat = _WorkerHeartbeat(connection, config.heartbeat_interval, send_lock)
        clean_exit = False
        try:
            with connection:
                handshake = recv_frame(connection)
                spec = spec_from_dict(handshake["spec"])
                context = ExperimentContext()
                if handshake.get("manifests"):
                    context.victims.seed_shared(handshake["manifests"])
                heartbeat.start()
                while True:
                    message = recv_frame(connection)
                    if message.get("done"):
                        clean_exit = True
                        break
                    chaos.fault_point("worker.chunk")
                    try:
                        outputs = [
                            spec.run_unit(unit, context) for unit in message["units"]
                        ]
                    except Exception as exc:  # noqa: BLE001 - reported to the backend
                        with send_lock:
                            send_frame(
                                connection,
                                {"error": f"{type(exc).__name__}: {exc}"},
                            )
                        return 1
                    with send_lock:
                        send_frame(connection, {"outputs": outputs})
        except (ConnectionError, OSError, EOFError, pickle.UnpicklingError):
            # The backend vanished (or chaos broke the link) mid-run: the
            # chunk is requeued on the backend side, so simply reconnect.
            breaker.record_failure()
            clean_exit = False
        finally:
            heartbeat.stop()
        if clean_exit:
            breaker.record_success()
            if once:
                return 0
        elif once:
            return 1


def _connect(host: str, port: int, config: ResilienceConfig) -> socket.socket:
    """Dial the backend, retrying with seeded backoff while it binds."""
    policy = config.retry_policy()
    try:
        return policy.call(
            lambda: socket.create_connection(
                (host, port), timeout=config.dial_timeout
            ),
            retry_on=(OSError,),
        )
    except OSError as exc:
        raise ConnectionError(f"could not reach {host}:{port}") from exc
