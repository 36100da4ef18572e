"""Unified experiment API: declarative specs, cached victims, one runner.

This package is the single front door for every experiment the
reproduction defines:

* :mod:`~repro.experiments.specs` — JSON-serialisable
  :class:`ExperimentSpec` variants describing each paper artefact
  (Table I / Fig. 7 comparisons, the defense-bypass matrix, Fig. 6
  budget sweeps, Fig. 4 profiling, the profile-density ablation);
* :mod:`~repro.experiments.runner` — :class:`ExperimentRunner` with
  pluggable serial / thread-pool / process-pool backends that produce
  identical, seed-determined results (the process pool ships trained
  victims to workers zero-copy through
  :mod:`~repro.experiments.shared`);
* :mod:`~repro.experiments.cache` — :class:`VictimCache`, training each
  surrogate victim once and sharing clean-state snapshots across
  experiments;
* :mod:`~repro.experiments.store` — :class:`ResultStore` (and its
  name-hash-sharded sibling :class:`ShardedResultStore`), persisting
  every result type as schema-versioned JSON envelopes;
* :mod:`~repro.experiments.service` — :class:`ExperimentService`, the
  persistent daemon behind ``python -m repro serve``: an async
  :class:`JobQueue` (:mod:`~repro.experiments.queue`), a warm
  :class:`VictimRegistry` (:mod:`~repro.experiments.registry`) and a
  :class:`ServiceClient` for submit/status/cancel/results;
* :mod:`~repro.experiments.distributed` — :class:`DistributedBackend`,
  executing work units in TCP-connected worker processes (same-host or
  multi-host) with serial-identical results;
* :mod:`~repro.experiments.fsck` — offline integrity checking behind
  ``python -m repro fsck``: :func:`fsck_store` / :func:`fsck_queue`
  verify every checksummed file and quarantine corruption,
  :func:`sweep_shm` reclaims shared-memory segments orphaned by dead
  daemons;
* :mod:`~repro.experiments.cli` — the ``python -m repro`` command line.

Quick start::

    from repro.experiments import ComparisonSpec, ExperimentRunner, ResultStore

    runner = ExperimentRunner(store=ResultStore("benchmarks/results"))
    result = runner.run(ComparisonSpec(model_keys=("resnet20",), repetitions=1))
    for comparison in result.payload:
        print(comparison.as_row())
"""

from repro.core.objective import ObjectiveConfig
from repro.experiments.cache import ExperimentContext, VictimCache, VictimKey
from repro.experiments.checkpoint import (
    CheckpointedBackend,
    ChunkCheckpoint,
    checkpoint_chunks,
)
from repro.experiments.distributed import DistributedBackend
from repro.experiments.fsck import (
    FsckIssue,
    FsckReport,
    fsck_queue,
    fsck_store,
    sweep_shm,
)
from repro.experiments.queue import Job, JobQueue, QueueFullError
from repro.experiments.registry import VictimRegistry
from repro.experiments.runner import (
    BACKENDS,
    ExecutionBackend,
    ExperimentResult,
    ExperimentRunner,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
)
from repro.experiments.service import (
    ExperimentService,
    ServiceClient,
    ServiceOverloadError,
    ServiceUnavailableError,
    WatchdogTimeout,
)
from repro.experiments.shared import SharedStateHandle, SharedVictimManifest
from repro.experiments.specs import (
    MECHANISMS,
    SPEC_KINDS,
    ChipProfileOutcome,
    ChipProfileSpec,
    ComparisonSpec,
    DefenseConfig,
    DefenseMatrixSpec,
    ExperimentSpec,
    FlipSweepOutcome,
    FlipSweepSpec,
    ProfileDensityOutcome,
    ProfileDensitySpec,
    RefsyncOutcome,
    RefsyncSweepSpec,
    TrrSamplingOutcome,
    TrrSamplingSpec,
    canonical_spec_json,
    default_defense_roster,
    register_spec,
    spec_from_dict,
    spec_hash,
)
from repro.experiments.store import (
    SCHEMA_VERSION,
    IntegrityError,
    ResultStore,
    ShardedResultStore,
    open_store,
    verify_envelope,
)

__all__ = [
    "BACKENDS",
    "MECHANISMS",
    "SCHEMA_VERSION",
    "SPEC_KINDS",
    "CheckpointedBackend",
    "ChipProfileOutcome",
    "ChipProfileSpec",
    "ChunkCheckpoint",
    "ComparisonSpec",
    "DefenseConfig",
    "DefenseMatrixSpec",
    "DistributedBackend",
    "ExecutionBackend",
    "ExperimentContext",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentService",
    "ExperimentSpec",
    "FlipSweepOutcome",
    "FlipSweepSpec",
    "FsckIssue",
    "FsckReport",
    "IntegrityError",
    "Job",
    "JobQueue",
    "ObjectiveConfig",
    "QueueFullError",
    "ProcessPoolBackend",
    "ProfileDensityOutcome",
    "ProfileDensitySpec",
    "RefsyncOutcome",
    "RefsyncSweepSpec",
    "TrrSamplingOutcome",
    "TrrSamplingSpec",
    "ResultStore",
    "SerialBackend",
    "ServiceClient",
    "ServiceOverloadError",
    "ServiceUnavailableError",
    "SharedStateHandle",
    "SharedVictimManifest",
    "ShardedResultStore",
    "ThreadPoolBackend",
    "VictimCache",
    "VictimKey",
    "VictimRegistry",
    "WatchdogTimeout",
    "canonical_spec_json",
    "checkpoint_chunks",
    "default_defense_roster",
    "fsck_queue",
    "fsck_store",
    "make_backend",
    "open_store",
    "register_spec",
    "spec_from_dict",
    "spec_hash",
    "sweep_shm",
    "verify_envelope",
]
