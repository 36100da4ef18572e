"""Long-lived experiment daemon: submit specs, poll status, fetch results.

``python -m repro serve`` turns the one-shot CLI into a persistent
service.  The daemon composes the pieces this package already has —
:class:`~repro.experiments.queue.JobQueue` (persistent, crash-safe job
state), :class:`~repro.experiments.registry.VictimRegistry` (warm
shared-memory victims spanning jobs),
:class:`~repro.experiments.store.ShardedResultStore` (name-sharded
results) and :class:`~repro.experiments.runner.ExperimentRunner` — behind
a line-oriented JSON protocol on a TCP socket:

    {"op": "submit", "spec": {...ExperimentSpec payload...}}
    {"ok": true, "job_id": "6fb0...", "state": "pending", ...}

One executor thread drains the queue (jobs run strictly one at a time, in
submission order, so daemon results are reproducible), while any number
of client connections submit, poll, cancel and fetch concurrently.  On
startup the daemon replays the queue directory: pending jobs resume,
jobs interrupted mid-run are requeued exactly once — a restart loses no
work.  The listening address is published to ``endpoint.json`` in the
queue directory so clients (``python -m repro submit`` and friends) need
no configuration.

Execution stays bit-identical to a direct
:class:`~repro.experiments.runner.ExperimentRunner` run of the same spec:
the spec carries every seed, the backend contract guarantees
serial-equality, and warm registry victims equal freshly trained ones.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.experiments.cache import VictimCache
from repro.experiments.checkpoint import CheckpointedBackend, ChunkCheckpoint
from repro.experiments.queue import JobQueue, Job, QueueFullError
from repro.experiments.registry import VictimRegistry
from repro.experiments.runner import ExperimentRunner, make_backend
from repro.experiments.shared import REGISTRY_MANIFEST_FILE, pid_alive
from repro.experiments.specs import spec_from_dict
from repro.experiments.store import open_store
from repro.nn import kernels
from repro.testing import chaos
from repro.utils.blas import blas_threads
from repro.utils.resilience import Deadline, ResilienceConfig, RetryPolicy
from repro.utils.validation import default_engine

PathLike = Union[str, Path]

#: Default TCP port of the experiment service.
DEFAULT_PORT = 7421

#: Name of the discovery file the daemon writes into its queue directory.
ENDPOINT_FILE = "endpoint.json"


class ServiceUnavailableError(ConnectionError):
    """No live daemon behind the discovered endpoint.

    Raised by :class:`ServiceClient` when ``endpoint.json`` is missing —
    or present but written by a process that is no longer alive (a daemon
    that died without cleanup), so dialing it could only burn a connect
    timeout.
    """


class ServiceOverloadError(RuntimeError):
    """The daemon shed this submission: its pending queue is at capacity.

    ``retry_after`` is the daemon's estimate (seconds) of when capacity
    frees up; :meth:`ServiceClient.submit` honours it when given a
    :class:`~repro.utils.resilience.RetryPolicy`.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class WatchdogTimeout(RuntimeError):
    """The execution backend wedged: a job exceeded the watchdog budget."""


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: JSON object per line in, JSON line out."""

    def handle(self):  # noqa: D102 - socketserver plumbing, not public API
        while True:
            line = self.rfile.readline()
            if not line:
                return
            request: Dict[str, Any] = {}
            try:
                request = json.loads(line)
                response = self.server.service._dispatch(request)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            shutdown = request.get("op") == "shutdown"
            try:
                self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
                self.wfile.flush()
            finally:
                if shutdown:
                    # Stop once the reply is on the wire (a stop begun earlier
                    # could let the process exit before it is written), or
                    # once writing it failed because the client has gone.
                    threading.Thread(target=self.server.service.stop, daemon=True).start()
            if shutdown:
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ExperimentService:
    """The daemon: a job queue, a warm victim registry and a runner.

    ``queue_dir`` holds job state (and the ``endpoint.json`` discovery
    file); ``store_dir`` is the sharded result store jobs save into.
    ``backend`` names the execution backend jobs run under (``serial``,
    ``thread``, ``process`` or ``distributed``); backends with a
    ``registry`` attribute get the service's
    :class:`~repro.experiments.registry.VictimRegistry` attached, so
    consecutive jobs share exported victims.  ``registry_max_bytes`` /
    ``registry_max_entries`` bound that registry.

    Use :meth:`start` + :meth:`stop` (or :meth:`serve_forever`) for the
    network daemon; tests drive the same object deterministically with
    :meth:`process_once` / :meth:`drain` and no socket at all.

    Jobs execute through a
    :class:`~repro.experiments.checkpoint.CheckpointedBackend` (unless
    ``checkpoint=False``): each job's completed chunks are persisted under
    ``<queue_dir>/checkpoints/<job_id>/`` as they finish, so a daemon
    killed mid-job and restarted resumes the requeued job from its
    checkpoints instead of rerunning completed chunks.  ``resilience``
    parameterises the failure model of the execution backend (and defaults
    to the ``REPRO_*`` environment).

    Overload protection: ``max_pending`` bounds the pending queue depth —
    a submission past the bound is *shed* with an ``overloaded`` response
    carrying a ``retry_after`` estimate instead of being accepted and
    starved.  ``watchdog_timeout`` bounds a single job's wall-clock; a
    wedged backend fails the job (checkpoints kept) rather than hanging
    the daemon forever.  Submissions may carry a priority (claimed first)
    and a deadline (seconds of useful life: expired queued jobs fail
    fast, a running job's backend gets the remaining budget as a
    :class:`~repro.utils.resilience.Deadline`).
    """

    def __init__(
        self,
        queue_dir: PathLike,
        store_dir: PathLike,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        registry_max_bytes: Optional[int] = None,
        registry_max_entries: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        resilience: Optional[ResilienceConfig] = None,
        checkpoint: bool = True,
        max_pending: Optional[int] = None,
        watchdog_timeout: Optional[float] = None,
    ):
        self.queue = JobQueue(queue_dir, max_pending=max_pending)
        self.recovery = self.queue.recover()
        self.store = open_store(store_dir, sharded=True)
        self.resilience = resilience or ResilienceConfig.from_env()
        self.watchdog_timeout = watchdog_timeout
        self.registry = VictimRegistry(
            max_bytes=registry_max_bytes,
            max_entries=registry_max_entries,
            manifest_path=self.queue.directory / REGISTRY_MANIFEST_FILE,
        )
        cache = VictimCache()
        cache.attach_registry(self.registry)
        execution = make_backend(
            backend, max_workers=max_workers, resilience=self.resilience
        )
        if hasattr(execution, "registry"):
            execution.registry = self.registry
        #: Where per-job chunk checkpoints live (one subdirectory per job).
        self.checkpoint_root = self.queue.directory / "checkpoints"
        #: The checkpointing wrapper jobs execute through; ``None`` when
        #: checkpointing is disabled.
        self.checkpointed: Optional[CheckpointedBackend] = None
        if checkpoint:
            self.checkpointed = CheckpointedBackend(execution)
            execution = self.checkpointed
        self.runner = ExperimentRunner(
            backend=execution, store=self.store, victim_cache=cache
        )
        self.host = host
        self.port = port
        self._server: Optional[_Server] = None
        self._executor: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._started_at = time.time()
        #: Exponential moving average of completed-job wall-clock seconds
        #: (None until the first job finishes) — feeds ``retry_after``.
        self._avg_job_seconds: Optional[float] = None
        self._active_job: Optional[str] = None
        #: Watchdog-abandoned worker threads (slow-but-alive jobs); pruned
        #: of finished threads by :meth:`abandoned_workers`.
        self._abandoned: List[threading.Thread] = []

    # -- job execution -------------------------------------------------
    def _run_job(
        self,
        job: Job,
        checkpoint: Optional[ChunkCheckpoint] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Execute one claimed job through the runner (raises on failure).

        The job's checkpoint and deadline are bound to the *calling*
        thread (the bindings on
        :class:`~repro.experiments.checkpoint.CheckpointedBackend` are
        thread-local): under the watchdog this runs on the job's own
        worker thread, so an abandoned slow-but-alive job keeps writing
        into its own checkpoint directory and can never touch the
        binding of whatever job the daemon claims next.
        """
        # The claim fault point sits inside the caller's try: an injected
        # error fails the job cleanly, while an injected crash leaves it
        # RUNNING — exactly what a daemon death mid-job looks like — so
        # the next start's queue recovery requeues it and the kept
        # checkpoints resume it.
        chaos.fault_point("service.claim")
        if self.checkpointed is not None:
            self.checkpointed.checkpoint = checkpoint
            self.checkpointed.deadline = deadline
        try:
            spec = spec_from_dict(job.spec)
            self.runner.run(spec, save_as=job.name)
        finally:
            if self.checkpointed is not None:
                self.checkpointed.checkpoint = None
                self.checkpointed.deadline = None

    def process_once(self) -> Optional[Job]:
        """Claim and run one pending job; ``None`` when the queue is idle.

        The synchronous core of the executor thread, exposed so tests (and
        embedders) can drain the queue deterministically without sockets.
        A job with a deadline hands its remaining budget to the
        checkpointed backend (checked at every chunk boundary); with
        ``watchdog_timeout`` set, the job runs on a watched thread and a
        backend that stops making progress fails the job instead of
        wedging the daemon.
        """
        job = self.queue.claim()
        if job is None:
            return None
        started = time.monotonic()
        self._active_job = job.job_id
        checkpoint: Optional[ChunkCheckpoint] = None
        deadline: Optional[Deadline] = None
        if self.checkpointed is not None:
            # The owner tag means a chunk written by any other job —
            # including one a previous watchdog abandoned — is rejected
            # on resume rather than combined into this job's result.
            checkpoint = ChunkCheckpoint(
                self.checkpoint_root / job.job_id, owner=job.job_id
            )
            if job.deadline is not None:
                deadline = Deadline(max(0.0, job.deadline - time.time()))
        try:
            if self.watchdog_timeout is None:
                self._run_job(job, checkpoint, deadline)
            else:
                self._run_watched(job, checkpoint, deadline)
        except Exception as exc:  # noqa: BLE001 - job-level isolation
            # Checkpoints are kept on failure: completed chunks are valid
            # (execution is deterministic), so a resubmission resumes them.
            return self.queue.fail(job.job_id, f"{type(exc).__name__}: {exc}")
        finally:
            self._active_job = None
        self._record_duration(time.monotonic() - started)
        if checkpoint is not None:
            checkpoint.clear()
        return self.queue.complete(job.job_id)

    def _run_watched(
        self,
        job: Job,
        checkpoint: Optional[ChunkCheckpoint] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Run a job on a watched thread; raise if the backend wedges.

        The watchdog bounds *wall-clock per job*: a backend that blocks
        indefinitely (deadlocked pool, unreachable peer with no timeout)
        is detected here, the job is failed with a clear error, and the
        daemon moves on.  The wedged thread is a daemon thread, so a
        never-returning backend cannot block process exit either.  An
        abandoned thread that turns out to be slow rather than dead is
        harmless: its checkpoint binding is thread-local and points at
        its *own* job's directory, so it cannot contaminate later jobs —
        it is tracked in :meth:`abandoned_workers` (surfaced by
        ``health``) until it finishes.
        """
        outcome: Dict[str, Any] = {}

        def target() -> None:
            # Bind checkpoint/deadline *here*, on the worker thread: the
            # binding must belong to the thread that executes the job.
            try:
                self._run_job(job, checkpoint, deadline)
                outcome["done"] = True
            except BaseException as exc:  # noqa: BLE001 - carried to watcher
                outcome["error"] = exc

        worker = threading.Thread(
            target=target, name=f"job-{job.job_id[:8]}", daemon=True
        )
        worker.start()
        worker.join(timeout=self.watchdog_timeout)
        if worker.is_alive():
            self._abandoned.append(worker)
            raise WatchdogTimeout(
                f"job {job.job_id} exceeded the {self.watchdog_timeout}s "
                "watchdog budget; backend presumed wedged"
            )
        if "error" in outcome:
            raise outcome["error"]

    def abandoned_workers(self) -> int:
        """Watchdog-abandoned job threads that are still alive."""
        self._abandoned = [t for t in self._abandoned if t.is_alive()]
        return len(self._abandoned)

    def _record_duration(self, seconds: float) -> None:
        """Fold one completed job's wall-clock into the EMA."""
        if self._avg_job_seconds is None:
            self._avg_job_seconds = seconds
        else:
            self._avg_job_seconds = 0.7 * self._avg_job_seconds + 0.3 * seconds

    def retry_after_hint(self) -> float:
        """Seconds a shed client should wait before resubmitting.

        The pending depth times the average job duration (1s until the
        first job completes), floored at half a second so a hint is never
        a busy-loop invitation.
        """
        avg = self._avg_job_seconds if self._avg_job_seconds else 1.0
        return max(0.5, self.queue.pending_count() * avg)

    def drain(self) -> int:
        """Run queued jobs until none are pending; returns the count run."""
        ran = 0
        while self.process_once() is not None:
            ran += 1
        return ran

    def _execute_loop(self) -> None:
        while not self._stopping.is_set():
            if self.process_once() is None:
                self._wake.wait(timeout=0.05)
                self._wake.clear()

    # -- protocol ------------------------------------------------------
    def _dispatch(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Serve one protocol request (already JSON-decoded)."""
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid(), "jobs": self.queue.counts()}
        if op == "submit":
            try:
                spec_from_dict(request["spec"])  # reject malformed specs up front
            except (ValueError, TypeError, KeyError) as exc:
                return {"ok": False, "error": f"invalid spec: {exc}"}
            deadline = request.get("deadline")
            try:
                job, created = self.queue.submit(
                    request["spec"],
                    name=request.get("name"),
                    priority=int(request.get("priority", 0)),
                    # The wire carries seconds-of-useful-life; the queue
                    # stores the absolute expiry so a daemon restart
                    # cannot reset the clock.
                    deadline=None if deadline is None else time.time() + float(deadline),
                )
            except QueueFullError as exc:
                return {
                    "ok": False,
                    "error": str(exc),
                    "overloaded": True,
                    "retry_after": self.retry_after_hint(),
                }
            self._wake.set()
            return {
                "ok": True,
                "job_id": job.job_id,
                "name": job.name,
                "state": job.state,
                "created": created,
            }
        if op == "health":
            counts = self.queue.counts()
            return {
                "ok": True,
                "health": {
                    "pid": os.getpid(),
                    "uptime_seconds": time.time() - self._started_at,
                    "queue": counts,
                    "pending": counts["pending"],
                    "max_pending": self.queue.max_pending,
                    "active_job": self._active_job,
                    "avg_job_seconds": self._avg_job_seconds,
                    "abandoned_workers": self.abandoned_workers(),
                    "registry": self.registry.stats(),
                    "blas_threads": blas_threads(),
                    "engine": default_engine(),
                    # None until the first NN op has probed the registry.
                    "kernel_backend": kernels.backend_name(probe=False),
                },
            }
        if op == "status":
            try:
                return {"ok": True, "job": self.queue.get(request["job_id"]).to_dict()}
            except KeyError:
                return {"ok": False, "error": f"unknown job {request['job_id']!r}"}
        if op == "cancel":
            return {"ok": True, "cancelled": self.queue.cancel(request["job_id"])}
        if op == "jobs":
            return {"ok": True, "jobs": [job.to_dict() for job in self.queue.jobs()]}
        if op == "results":
            return {"ok": True, "names": self.store.names()}
        if op == "result":
            path = self.store.path_for(request["name"])
            if not path.is_file():
                return {"ok": False, "error": f"no result named {request['name']!r}"}
            return {"ok": True, "envelope": json.loads(path.read_text())}
        if op == "registry":
            return {"ok": True, "stats": self.registry.stats()}
        if op == "shutdown":
            # The connection handler calls stop() after sending this reply.
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- daemon lifecycle ----------------------------------------------
    @property
    def endpoint_path(self) -> Path:
        """Where the daemon publishes (and clients discover) its address."""
        return self.queue.directory / ENDPOINT_FILE

    def start(self) -> None:
        """Bind the socket, publish ``endpoint.json``, start the executor."""
        self._server = _Server((self.host, self.port), _Handler)
        self._server.service = self
        self.port = self._server.server_address[1]
        # Atomic publish: a client discovering the endpoint mid-write must
        # never read a truncated JSON file.
        tmp = self.endpoint_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps({"host": self.host, "port": self.port, "pid": os.getpid()})
        )
        os.replace(tmp, self.endpoint_path)
        self._executor = threading.Thread(target=self._execute_loop, daemon=True)
        self._executor.start()
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        )
        self._serve_thread.start()

    def wait_until_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon stops; ``False`` when ``timeout`` expires."""
        return self._stopping.wait(timeout=timeout)

    def serve_forever(self) -> None:
        """Run the daemon until :meth:`stop` (or a shutdown request)."""
        self.start()
        try:
            self.wait_until_stopped()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop serving, finish the in-flight job, release the registry.

        Idempotent: a second caller returns once the first caller's stop
        has finished, so a process that stops from its main thread never
        exits while a ``shutdown`` request's stop is still running.  A job
        actually mid-run when the daemon dies instead of stopping cleanly
        is requeued by the next start's queue recovery.
        """
        if self._stopping.is_set():
            self._stopped.wait()
            return
        self._stopping.set()
        self._wake.set()
        try:
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
                self._server = None
            if self._executor is not None:
                self._executor.join(timeout=60)
                self._executor = None
            try:
                self.endpoint_path.unlink()
            except OSError:
                pass
            self.registry.close()
        finally:
            self._stopped.set()


class ServiceClient:
    """Talk to a running :class:`ExperimentService` over its JSON protocol.

    Address resolution: pass ``host``/``port`` explicitly, or a
    ``queue_dir`` whose ``endpoint.json`` (written by the daemon) is read
    instead.  A discovered endpoint is checked for **liveness** first:
    the daemon records its pid in the file, and an endpoint whose owner
    is dead (a daemon that crashed without cleanup) raises
    :class:`ServiceUnavailableError` immediately instead of burning a
    connect timeout on a port nobody listens on.  Every method opens a
    short-lived connection, so a client object is cheap and stateless.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        queue_dir: Optional[PathLike] = None,
    ):
        if host is None or port is None:
            if queue_dir is None:
                raise ValueError("need host+port or a queue_dir with endpoint.json")
            endpoint_path = Path(queue_dir) / ENDPOINT_FILE
            try:
                endpoint = json.loads(endpoint_path.read_text())
            except OSError as exc:
                raise ServiceUnavailableError(
                    f"no service endpoint at {endpoint_path} — is the daemon running?"
                ) from exc
            pid = endpoint.get("pid")
            if pid is not None and not pid_alive(int(pid)):
                raise ServiceUnavailableError(
                    f"endpoint {endpoint_path} is stale: daemon pid {pid} is dead"
                )
            host = host or endpoint["host"]
            port = port or endpoint["port"]
        self.host = host
        self.port = port

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with socket.create_connection((self.host, self.port), timeout=30) as conn:
            conn.sendall((json.dumps(request) + "\n").encode("utf-8"))
            reader = conn.makefile("r", encoding="utf-8")
            line = reader.readline()
        if not line:
            raise ConnectionError("service closed the connection without replying")
        response = json.loads(line)
        if not response.get("ok"):
            if response.get("overloaded"):
                raise ServiceOverloadError(
                    response.get("error", "service overloaded"),
                    retry_after=float(response.get("retry_after", 1.0)),
                )
            raise RuntimeError(response.get("error", "service request failed"))
        return response

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns the daemon pid and per-state job counts."""
        return self._call({"op": "ping"})

    def submit(
        self,
        spec_payload: Mapping[str, Any],
        name: Optional[str] = None,
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
        retries: Optional[RetryPolicy] = None,
        sleep: Any = time.sleep,
    ) -> Dict[str, Any]:
        """Submit a spec payload; returns job id/name/state and dedup flag.

        ``priority`` orders the daemon's queue (higher first); ``deadline``
        is seconds of useful life from now.  With ``retries`` (a
        :class:`~repro.utils.resilience.RetryPolicy`), an overloaded
        daemon's shed response is retried, sleeping at least the daemon's
        ``retry_after`` hint between attempts; without it,
        :class:`ServiceOverloadError` propagates to the caller.
        """
        request: Dict[str, Any] = {"op": "submit", "spec": dict(spec_payload)}
        if name is not None:
            request["name"] = name
        if priority is not None:
            request["priority"] = priority
        if deadline is not None:
            request["deadline"] = deadline
        if retries is None:
            return self._call(request)
        delays = list(retries.delays()) + [None]
        for backoff in delays:
            try:
                return self._call(request)
            except ServiceOverloadError as exc:
                if backoff is None:
                    raise
                sleep(max(backoff, exc.retry_after))
        raise RuntimeError("unreachable")  # pragma: no cover

    def health(self) -> Dict[str, Any]:
        """The daemon's health snapshot (queue depth, active job, registry)."""
        return self._call({"op": "health"})["health"]

    def status(self, job_id: str) -> Dict[str, Any]:
        """Full job record (state, attempts, error) for ``job_id``."""
        return self._call({"op": "status", "job_id": job_id})["job"]

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending job; ``False`` when it already left the queue."""
        return self._call({"op": "cancel", "job_id": job_id})["cancelled"]

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job the daemon knows, in submission order."""
        return self._call({"op": "jobs"})["jobs"]

    def results(self) -> List[str]:
        """Names of every result in the daemon's store."""
        return self._call({"op": "results"})["names"]

    def result(self, name: str) -> Dict[str, Any]:
        """The raw stored envelope (schema/kind/spec/payload) of a result."""
        return self._call({"op": "result", "name": name})["envelope"]

    def registry_stats(self) -> Dict[str, Any]:
        """Victim-registry counters (hits/misses/evictions/entries/bytes)."""
        return self._call({"op": "registry"})["stats"]

    def shutdown(self) -> None:
        """Ask the daemon to stop (it finishes the in-flight job first)."""
        self._call({"op": "shutdown"})

    def wait(self, job_id: str, timeout: float = 300.0, poll: float = 0.05) -> Dict[str, Any]:
        """Poll until ``job_id`` reaches a terminal state; returns the job.

        Raises ``TimeoutError`` if the job is still pending/running after
        ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {job['state']} after {timeout}s")
            time.sleep(poll)
