"""Persistent, crash-safe job queue for the experiment service.

Jobs are :class:`ExperimentSpec` payloads queued for asynchronous
execution.  Every job is persisted as one JSON file under the queue
directory (written atomically via ``tmp`` + ``rename``), so the queue
survives a daemon restart: pending jobs resume exactly where they were,
and a job that was *running* when the daemon died is requeued — exactly
once — by :meth:`JobQueue.recover`.

Semantics:

* **Dedup** — a job's id is the :func:`~repro.experiments.specs.spec_hash`
  of its spec payload, so submitting the same spec twice returns the same
  job instead of queueing duplicate work.  Submitting a spec whose previous
  job failed or was cancelled re-activates that job.
* **FIFO** — :meth:`JobQueue.claim` hands out pending jobs in submission
  order (a monotonic per-queue sequence number, persisted with the job).
* **Requeue exactly once** — a claimed job carries ``attempts`` and a
  ``requeued`` flag; :meth:`JobQueue.recover` returns an interrupted
  running job to the pending state the first time and fails it the second,
  so a job that crashes the daemon cannot crash-loop forever.
* **Priorities and deadlines** — :meth:`JobQueue.claim` serves the
  highest ``priority`` first (FIFO within a priority band), and a pending
  job whose absolute ``deadline`` has passed is failed fast instead of
  being claimed — queued work that can no longer be useful never occupies
  the executor.
* **Admission control** — a queue constructed with ``max_pending`` rejects
  submissions that would exceed that many pending jobs with
  :class:`QueueFullError`, the load-shedding signal the service turns
  into a ``retry-after`` response.
* **Integrity** — every job file embeds a sha256 checksum of its content;
  a file whose checksum is missing or no longer verifies (disk rot,
  injected corruption) is skipped on load and recorded in
  :attr:`JobQueue.corrupt_files` for ``repro fsck`` to report.

The queue is thread-safe (one lock guards all state) but single-writer:
exactly one daemon process owns a queue directory at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.specs import spec_hash
from repro.testing import chaos
from repro.utils.codec import Codec

PathLike = Union[str, Path]


class QueueFullError(RuntimeError):
    """Submission rejected: the queue already holds ``max_pending`` jobs.

    Carries ``pending`` (the depth at rejection time) so callers — the
    service's load-shedding response in particular — can derive a
    meaningful retry-after hint.
    """

    def __init__(self, pending: int, max_pending: int):
        super().__init__(
            f"queue full: {pending} pending jobs (limit {max_pending})"
        )
        self.pending = pending
        self.max_pending = max_pending


def _job_checksum(payload: Mapping[str, Any]) -> str:
    """sha256 over the canonical JSON of a job's checksummed fields."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a duplicate submission deduplicates against (anything still
#: queued, in flight or already successfully completed).
_ACTIVE_STATES = (PENDING, RUNNING, DONE)

_JOB_PREFIX = "job-"


@dataclass
class Job(Codec):
    """One queued experiment: a spec payload plus its execution state.

    ``job_id`` is the spec-hash content address (deduplication key),
    ``name`` the result-store entry the output is saved under, and
    ``sequence`` the FIFO submission order.  ``attempts`` counts claims and
    ``requeued`` records whether the crash-recovery path already gave the
    job its one retry.  ``priority`` orders claims (higher first, FIFO
    within a band) and ``deadline`` is an absolute Unix timestamp after
    which the job is useless: expired pending jobs fail fast, and the
    service hands the remaining budget of a claimed job to its backend as
    a :class:`~repro.utils.resilience.Deadline`.
    """

    job_id: str
    name: str
    spec: Dict[str, Any]
    state: str = PENDING
    sequence: int = 0
    attempts: int = 0
    requeued: bool = False
    error: Optional[str] = None
    priority: int = 0
    deadline: Optional[float] = None


class JobQueue:
    """Directory-backed FIFO queue of experiment jobs.

    Construction loads every persisted job from ``directory``; call
    :meth:`recover` afterwards (the daemon does) to requeue work that was
    interrupted mid-run.  ``max_pending`` bounds the number of pending
    jobs a :meth:`submit` may create (``None`` = unbounded); ``clock`` is
    the time source deadline expiry is judged against (injectable for
    tests).
    """

    def __init__(
        self,
        directory: PathLike,
        max_pending: Optional[int] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_pending = max_pending
        self.clock = clock
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._sequence = 0
        #: Job files skipped at load time because their embedded checksum
        #: was missing or no longer verified — ``repro fsck`` reports these.
        self.corrupt_files: List[Path] = []
        for path in sorted(self.directory.glob(f"{_JOB_PREFIX}*.json")):
            try:
                payload = json.loads(path.read_text())
                if payload.pop("sha256", None) != _job_checksum(payload):
                    self.corrupt_files.append(path)
                    continue
                job = Job.from_dict(payload)
            except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue  # foreign or truncated file: never block the queue
            self._jobs[job.job_id] = job
            self._sequence = max(self._sequence, job.sequence)

    # -- persistence ---------------------------------------------------
    def _path_for(self, job_id: str) -> Path:
        return self.directory / f"{_JOB_PREFIX}{job_id}.json"

    def _persist(self, job: Job) -> None:
        """Atomically write one job file (tmp + rename survives crashes).

        The ``queue.persist`` fault point sits before the write: an
        injected ``partial_write`` tears the temp file, and the load path's
        truncated-file tolerance plus the untouched previous job file are
        what keep the queue consistent.  An injected ``corrupt`` flips one
        bit of the committed file silently — the checksum verification at
        load time (and ``repro fsck``) is what catches it.  Every file
        embeds a ``sha256`` of its canonical content for exactly that.
        """
        path = self._path_for(job.job_id)
        tmp = path.with_suffix(".json.tmp")
        payload = job.to_dict()
        payload["sha256"] = _job_checksum(payload)
        text = json.dumps(payload, indent=2)
        action = chaos.fault_point("queue.persist")
        if action == "partial_write":
            tmp.write_text(text[: max(1, len(text) // 2)])
            raise OSError(f"chaos[queue.persist]: job file write torn for {job.job_id}")
        if action == "corrupt":
            tmp.write_bytes(chaos.corrupt_bytes(text.encode("utf-8"), "queue.persist"))
            os.replace(tmp, path)
            return
        tmp.write_text(text)
        os.replace(tmp, path)

    # -- submission and lifecycle --------------------------------------
    def submit(
        self,
        spec_payload: Mapping[str, Any],
        name: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> Tuple[Job, bool]:
        """Queue a spec payload; returns ``(job, created)``.

        ``created`` is ``False`` when an active job for the same spec
        already exists — duplicate submissions never queue duplicate
        work, but the new submission's ``priority``/``deadline`` still
        replace the existing job's (last writer wins, matching the
        reactivation path), so resubmitting is how an operator raises a
        queued job's priority or attaches a deadline.  A previous job that
        failed or was cancelled is re-activated with fresh attempt
        counters.  ``name`` defaults to ``<kind>-<job id prefix>``.
        ``priority`` orders claims (higher first) and ``deadline`` is the
        absolute Unix time after which the job should not run.  When the
        queue is bounded and already holds ``max_pending`` pending jobs, a
        submission that would *create* work raises :class:`QueueFullError`
        (deduplicating resubmissions always succeed — they add no load).
        """
        payload = dict(spec_payload)
        job_id = spec_hash(payload)[:16]
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None and existing.state in _ACTIVE_STATES:
                # Deduplicated, not ignored: the resubmission's QoS fields
                # win.  A new deadline on an already-running job bounds its
                # *next* claim (the running attempt's budget was fixed at
                # claim time).
                if existing.priority != priority or existing.deadline != deadline:
                    existing.priority = priority
                    existing.deadline = deadline
                    self._persist(existing)
                return existing, False
            self._check_admission()
            if existing is not None:
                existing.state = PENDING
                existing.attempts = 0
                existing.requeued = False
                existing.error = None
                existing.priority = priority
                existing.deadline = deadline
                self._persist(existing)
                return existing, True
            self._sequence += 1
            job = Job(
                job_id=job_id,
                name=name or f"{payload.get('kind', 'job')}-{job_id[:8]}",
                spec=payload,
                sequence=self._sequence,
                priority=priority,
                deadline=deadline,
            )
            self._jobs[job_id] = job
            self._persist(job)
            return job, True

    def _check_admission(self) -> None:
        """Raise :class:`QueueFullError` when the pending depth is at cap."""
        if self.max_pending is None:
            return
        pending = sum(1 for job in self._jobs.values() if job.state == PENDING)
        if pending >= self.max_pending:
            raise QueueFullError(pending, self.max_pending)

    def claim(self) -> Optional[Job]:
        """Move the best pending job to ``running`` and return it.

        "Best" is highest priority first, submission order within a
        priority band.  Pending jobs whose deadline has already passed are
        failed fast here (never claimed): by the time the executor could
        start them their result would be useless.
        """
        with self._lock:
            now = self.clock()
            pending = []
            for job in self._jobs.values():
                if job.state != PENDING:
                    continue
                if job.deadline is not None and now >= job.deadline:
                    job.state = FAILED
                    job.error = "deadline expired before the job could start"
                    self._persist(job)
                    continue
                pending.append(job)
            if not pending:
                return None
            job = min(pending, key=lambda entry: (-entry.priority, entry.sequence))
            job.state = RUNNING
            job.attempts += 1
            self._persist(job)
            return job

    def pending_count(self) -> int:
        """Number of jobs currently waiting to run."""
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state == PENDING)

    def complete(self, job_id: str) -> Job:
        """Mark a running job as successfully done."""
        return self._transition(job_id, DONE)

    def fail(self, job_id: str, error: str) -> Job:
        """Mark a job as failed with a human-readable error."""
        return self._transition(job_id, FAILED, error=error)

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending job; running/finished jobs are not cancellable."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != PENDING:
                return False
            job.state = CANCELLED
            self._persist(job)
            return True

    def _transition(self, job_id: str, state: str, error: Optional[str] = None) -> Job:
        with self._lock:
            job = self._jobs[job_id]
            job.state = state
            job.error = error
            self._persist(job)
            return job

    # -- recovery ------------------------------------------------------
    def recover(self) -> Dict[str, List[str]]:
        """Requeue work interrupted by a daemon crash or restart.

        Every job found in the ``running`` state was in flight when the
        previous owner died.  The first recovery returns it to ``pending``
        (and sets the ``requeued`` flag); a job recovered *again* — i.e.
        one whose execution has now taken the daemon down twice — is
        failed instead, so a poisonous job cannot crash-loop the service.
        Returns ``{"requeued": [...ids...], "failed": [...ids...]}``.
        """
        report: Dict[str, List[str]] = {"requeued": [], "failed": []}
        with self._lock:
            for job in self._jobs.values():
                if job.state != RUNNING:
                    continue
                if not job.requeued:
                    job.state = PENDING
                    job.requeued = True
                    report["requeued"].append(job.job_id)
                else:
                    job.state = FAILED
                    job.error = "interrupted again after its one crash requeue"
                    report["failed"].append(job.job_id)
                self._persist(job)
        return report

    # -- introspection -------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job with this id (raises ``KeyError`` when unknown)."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.sequence)

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (states with zero jobs included)."""
        tally = {state: 0 for state in (PENDING, RUNNING, DONE, FAILED, CANCELLED)}
        with self._lock:
            for job in self._jobs.values():
                tally[job.state] = tally.get(job.state, 0) + 1
        return tally

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
