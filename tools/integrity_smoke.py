#!/usr/bin/env python
"""Integrity smoke: fixed-seed corruption through the daemon (CI `integrity-smoke` job).

Runs a small-geometry defense matrix through the experiment daemon while a
deterministic :class:`~repro.testing.chaos.FaultPlan` flips a single bit at
each durable-write site (``corrupt`` kind), then checks the end-to-end
integrity guarantee: **every injected corruption is detected — never
silently served — and `repro fsck` converges the tree back to a state whose
surviving results are byte-identical to the fault-free serial run**.

Scenarios:

1. a clean daemon run produces zero fsck findings (no false positives —
   checksummed envelopes, job files and the health snapshot all verify);
2. a bit flipped in a committed result envelope fails the load-time digest,
   is quarantined by fsck, and the post-repair rerun restores serial bytes;
3. a bit flipped in a chunk checkpoint is dropped at resume (the intact
   chunk still resumes) and the finished envelope matches serial exactly;
4. a bit flipped in a persisted job file is refused by a reloading queue
   and pinned by fsck;
5. shared-memory segments claimed by a dead daemon's registry manifest are
   swept; a live manifest and foreign segment names are left alone.

Runs in well under a minute; exits non-zero on the first violated
invariant.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)
# Spawned worker subprocesses import repro too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)

from repro.dram.geometry import DramGeometry
from repro.experiments import (
    DefenseMatrixSpec,
    ExperimentRunner,
    ExperimentService,
    IntegrityError,
    JobQueue,
    ResultStore,
    fsck_queue,
    fsck_store,
    sweep_shm,
)
from repro.experiments.shared import SEGMENT_PREFIX
from repro.testing import chaos
from repro.testing.chaos import FaultPlan, FaultSpec

#: One fixed seed per scenario: the spec (and therefore every expected
#: byte) is a pure function of the scenario's row in this matrix.
SCENARIO_SEEDS = {
    "clean-baseline": 31,
    "store-corrupt": 32,
    "checkpoint-corrupt": 33,
    "queue-corrupt": 34,
}


def _spec(seed):
    return DefenseMatrixSpec(
        geometry=DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128),
        chip_seed=seed,
    )


def _serial_bytes(root, seed):
    store = ResultStore(root / f"serial-{seed}")
    ExperimentRunner(store=store).run(_spec(seed), save_as="exp")
    return store.path_for("exp").read_text()


def main() -> int:
    failures = []

    def check(condition, label):
        print(("ok   " if condition else "FAIL ") + label)
        if not condition:
            failures.append(label)

    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)

        # 1. Clean daemon run: the verifier must report zero findings on an
        # undamaged tree — detection without false positives.
        seed = SCENARIO_SEEDS["clean-baseline"]
        service = ExperimentService(queue_dir=root / "q1", store_dir=root / "s1")
        service._dispatch({"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"})
        check(service.drain() == 1, "clean daemon run drains the job")
        health = service._dispatch({"op": "health"})
        snapshot = health.get("health", {})
        check(
            health.get("ok")
            and snapshot.get("queue", {}).get("pending") == 0
            and snapshot.get("queue", {}).get("done") == 1,
            "health snapshot reports an idle, reachable daemon",
        )
        service.registry.close()
        store_report = fsck_store(root / "s1")
        queue_report = fsck_queue(root / "q1")
        check(
            store_report.clean and store_report.verified >= 1,
            "clean store fscks with zero findings",
        )
        check(
            queue_report.clean and queue_report.verified >= 1,
            "clean queue fscks with zero findings",
        )

        # 2. Corrupt store write through the daemon: the flipped bit commits
        # "successfully", so detection is the checksum's whole job.
        seed = SCENARIO_SEEDS["store-corrupt"]
        expected = _serial_bytes(root, seed)
        service = ExperimentService(queue_dir=root / "q2", store_dir=root / "s2")
        with chaos.active_plan(FaultPlan.single("store.write", "corrupt")) as scope:
            service._dispatch(
                {"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"}
            )
            service.drain()
        service.registry.close()
        check(("store.write", "corrupt") in scope.fired, "store corrupt fault fired")
        try:
            service.store.load("exp")
            check(False, "corrupted envelope fails its load-time digest")
        except IntegrityError:
            check(True, "corrupted envelope fails its load-time digest")
        report = fsck_store(root / "s2", quarantine=True)
        check(
            [(i.problem, i.quarantined) for i in report.issues]
            == [("digest-mismatch", True)],
            "fsck quarantines exactly the damaged envelope",
        )
        check(
            "exp" not in service.store.names(),
            "the quarantined envelope is no longer listed",
        )
        check(fsck_store(root / "s2").clean, "store is clean after quarantine")
        fresh = ResultStore(root / "s2")
        ExperimentRunner(store=fresh).run(_spec(seed), save_as="exp")
        check(
            fresh.path_for("exp").read_text() == expected,
            "post-repair rerun is byte-identical to serial",
        )

        # 3. Corrupt chunk checkpoint: the resume must drop the damaged
        # frame (resuming only the intact chunk) — a flipped bit can never
        # smuggle wrong values into a resumed job.
        seed = SCENARIO_SEEDS["checkpoint-corrupt"]
        expected = _serial_bytes(root, seed)
        service = ExperimentService(queue_dir=root / "q3", store_dir=root / "s3")
        plan = FaultPlan(
            faults=(
                FaultSpec(point="checkpoint.write", kind="corrupt", after=1, count=1),
                FaultSpec(point="service.chunk", kind="error", after=3, count=1),
            )
        )
        with chaos.active_plan(plan):
            service._dispatch(
                {"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"}
            )
            failed = service.process_once()
        check(
            failed is not None and failed.state == "failed",
            "injected chunk error fails the job",
        )
        kept = list((root / "q3" / "checkpoints").glob("*/chunk-*.pkl"))
        check(len(kept) == 2, "both completed chunks stay checkpointed")
        service._dispatch({"op": "submit", "spec": _spec(seed).to_dict(), "name": "exp"})
        check(service.drain() == 1, "resubmitted job runs")
        check(
            service.checkpointed.last_resumed == 1,
            "resume keeps the intact chunk and drops the corrupted one",
        )
        check(
            service.store.path_for("exp").read_text() == expected,
            "resumed job result is byte-identical to serial",
        )
        service.registry.close()

        # 4. Corrupt queue persist: the damaged job file must never
        # resurrect as runnable work.
        seed = SCENARIO_SEEDS["queue-corrupt"]
        queue = JobQueue(root / "q4")
        with chaos.active_plan(FaultPlan.single("queue.persist", "corrupt")) as scope:
            queue.submit(_spec(seed).to_dict())
        check(("queue.persist", "corrupt") in scope.fired, "queue corrupt fault fired")
        check(
            JobQueue(root / "q4").jobs() == [],
            "reloading queue refuses the corrupted job file",
        )
        report = fsck_queue(root / "q4", quarantine=True)
        check(
            len(report.issues) == 1
            and report.issues[0].problem in ("digest-mismatch", "unreadable"),
            "fsck pins exactly the damaged job file",
        )
        check(fsck_queue(root / "q4").clean, "queue is clean after quarantine")

        # 5. Registry sweep: only segments a dead daemon's manifest claims
        # are provably orphaned; live claims, *unclaimed* strays (another
        # queue dir's live daemon may own them) and foreign names are
        # untouchable — strays go only under an explicit force_unclaimed.
        shm = root / "shm"
        shm.mkdir()
        for name in ("repro_victim_dead", "repro_victim_live", "repro_victim_stray",
                     "someone_elses_segment"):
            (shm / name).write_bytes(b"\0" * 16)
        dead_dir, live_dir = root / "q5-dead", root / "q5-live"
        dead_dir.mkdir()
        live_dir.mkdir()
        probe = subprocess.Popen(["sleep", "0"])
        probe.wait()
        (dead_dir / "registry.json").write_text(
            json.dumps({"pid": probe.pid, "segments": ["repro_victim_dead"]})
        )
        (live_dir / "registry.json").write_text(
            json.dumps({"pid": os.getpid(), "segments": ["repro_victim_live"]})
        )
        swept = sweep_shm(queue_dirs=[dead_dir, live_dir], shm_dir=shm)
        check(
            swept["removed"] == ["repro_victim_dead"],
            "only dead-owner segments are swept by default",
        )
        check(
            sorted(swept["kept"]) == ["repro_victim_live", "repro_victim_stray"]
            and (shm / "repro_victim_stray").exists(),
            "live-owner and unclaimed segments are kept",
        )
        forced = sweep_shm(
            queue_dirs=[live_dir], shm_dir=shm, force_unclaimed=True
        )
        check(
            forced["removed"] == ["repro_victim_stray"],
            "unclaimed stray is removed only under force_unclaimed",
        )
        check(
            (shm / "repro_victim_live").exists(),
            "live-owner segment survives even a forced sweep",
        )
        check(
            (shm / "someone_elses_segment").exists(),
            "foreign segment names are never touched",
        )
        check(
            not (dead_dir / "registry.json").exists()
            and (live_dir / "registry.json").exists(),
            "stale manifest removed, live manifest kept",
        )

        check(
            not glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"),
            "no shared-memory segments leaked",
        )

    if failures:
        print(f"integrity smoke FAILED ({len(failures)} problem(s))")
        return 1
    print(
        "integrity smoke passed: every injected corruption detected, "
        "fsck converged back to serial bytes"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
