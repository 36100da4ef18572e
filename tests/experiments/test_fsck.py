"""repro fsck: checksum verification, shard placement, quarantine, shm sweep."""

import json
import os
import subprocess

from repro.core.comparison import MechanismOutcome, ModelComparisonResult
from repro.core.results import AttackEvent, AttackResult
from repro.experiments import (
    ComparisonSpec,
    ExperimentResult,
    JobQueue,
    ResultStore,
    ShardedResultStore,
    fsck_queue,
    fsck_store,
    sweep_shm,
)
from repro.experiments.cli import main


def _attack_result(flips=1, mechanism="rowpress"):
    events = [
        AttackEvent(
            iteration=0, tensor_name="layer.weight", weight_index=3, bit_position=7,
            int_before=5, int_after=-123, loss_after=1.5, accuracy_after=50.0,
        )
    ]
    return AttackResult(
        model_name="ResNet-20", mechanism=mechanism, accuracy_before=88.5,
        accuracy_after=50.0, target_accuracy=12.0, num_flips=flips, converged=False,
        events=events, accuracy_curve=[88.5, 50.0], loss_curve=[0.5, 1.5],
        candidate_bits=64,
    )


def _result(seed=0):
    rowhammer = MechanismOutcome("rowhammer")
    rowhammer.results = [_attack_result(mechanism="rowhammer")]
    rowpress = MechanismOutcome("rowpress")
    rowpress.results = [_attack_result()]
    payload = [
        ModelComparisonResult(
            model_key="resnet20", display_name="ResNet-20", dataset_name="CIFAR-10",
            num_parameters=271_098, clean_accuracy=88.5, random_guess_accuracy=10.0,
            rowhammer=rowhammer, rowpress=rowpress,
        )
    ]
    return ExperimentResult(spec=ComparisonSpec(seed=seed), payload=payload)


def _flip_byte(path, offset=100):
    raw = bytearray(path.read_bytes())
    raw[offset % len(raw)] ^= 1
    path.write_bytes(bytes(raw))


class TestStoreFsck:
    def test_clean_store_reports_zero_issues(self, tmp_path):
        store = ResultStore(tmp_path)
        for seed in range(3):
            store.save(f"r{seed}", _result(seed=seed))
        # A foreign JSON file must not be flagged.
        (tmp_path / "notes.json").write_text(json.dumps({"rows": []}))
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.scanned == 4 and report.verified == 3

    def test_checksum_less_envelopes_are_flagged(self, tmp_path):
        store = ResultStore(tmp_path)
        for name in ("stripped", "v1"):
            store.save(name, _result())
            envelope = json.loads(store.path_for(name).read_text())
            del envelope["integrity"]
            if name == "v1":
                envelope["schema_version"] = 1
            store.path_for(name).write_text(json.dumps(envelope, indent=2))
        report = fsck_store(tmp_path, quarantine=True)
        problems = {issue.path.name: issue.problem for issue in report.issues}
        assert problems == {"stripped.json": "digest-mismatch", "v1.json": "unreadable"}
        assert all(issue.quarantined for issue in report.issues)
        assert fsck_store(tmp_path).clean

    def test_bit_flip_is_detected_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("good", _result(seed=1))
        store.save("bad", _result(seed=2))
        _flip_byte(store.path_for("bad"))
        report = fsck_store(tmp_path, quarantine=True)
        assert [issue.problem for issue in report.issues] == ["digest-mismatch"]
        assert report.issues[0].quarantined
        assert (tmp_path / "quarantine" / "bad.json").is_file()
        assert not store.path_for("bad").exists()
        # The repaired tree is clean and the good result untouched.
        after = fsck_store(tmp_path)
        assert after.clean and after.verified == 1

    def test_whitespace_flip_is_detected(self, tmp_path):
        # A flip in formatting passes the content digest; the byte-exact
        # canonical-serialisation check still catches it.
        store = ResultStore(tmp_path)
        store.save("r", _result())
        path = store.path_for("r")
        raw = path.read_text()
        path.write_text(raw.replace('\n  "', '\n   "', 1))
        report = fsck_store(tmp_path)
        assert [issue.problem for issue in report.issues] == ["digest-mismatch"]
        assert "canonical serialisation" in report.issues[0].detail

    def test_truncated_file_is_unreadable(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("r", _result())
        path = store.path_for("r")
        path.write_bytes(path.read_bytes()[:40])  # torn write
        report = fsck_store(tmp_path, quarantine=True)
        assert [issue.problem for issue in report.issues] == ["unreadable"]
        assert fsck_store(tmp_path).clean

    def test_sharded_corruption_is_quarantined(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        store.save("a", _result(seed=1))
        store.save("b", _result(seed=2))
        _flip_byte(store.path_for("a"))
        report = fsck_store(tmp_path, quarantine=True)
        assert [issue.problem for issue in report.issues] == ["digest-mismatch"]
        assert fsck_store(tmp_path).clean
        # The surviving result is still loadable; the corrupt one is gone.
        fresh = ShardedResultStore(tmp_path)
        assert fresh.names() == ["b"]
        assert fresh.load("b").spec.seed == 2

    def test_misplaced_shard_file_is_unreadable(self, tmp_path):
        # What a store sharded by another rule (spec hash) looks like:
        # an intact envelope no store will ever look for.
        store = ShardedResultStore(tmp_path)
        store.save("good", _result(seed=1))
        home = store.path_for("stray").parent.name
        wrong = tmp_path / "shards" / ("00" if home != "00" else "01")
        ResultStore(wrong).save("stray", _result(seed=2))
        report = fsck_store(tmp_path)
        assert [(i.path, i.problem) for i in report.issues] == [
            (wrong / "stray.json", "unreadable")
        ]
        assert "away from its name's path" in report.issues[0].detail
        report = fsck_store(tmp_path, quarantine=True)
        assert report.issues[0].quarantined
        assert (tmp_path / "quarantine" / "stray.json").is_file()
        after = fsck_store(tmp_path)
        assert after.clean and after.verified == 1
        assert store.names() == ["good"]

    def test_missing_directory_is_empty_report(self, tmp_path):
        report = fsck_store(tmp_path / "nope")
        assert report.clean and report.scanned == 0


class TestQueueFsck:
    def test_clean_queue_reports_zero_issues(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(ComparisonSpec(seed=1).to_dict())
        queue.submit(ComparisonSpec(seed=2).to_dict())
        report = fsck_queue(tmp_path)
        assert report.clean and report.verified == 2

    def test_tampered_job_is_detected_and_quarantined(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(ComparisonSpec(seed=1).to_dict())
        path = tmp_path / f"job-{job.job_id}.json"
        payload = json.loads(path.read_text())
        payload["name"] = "tampered"
        path.write_text(json.dumps(payload, indent=2))
        report = fsck_queue(tmp_path, quarantine=True)
        assert [issue.problem for issue in report.issues] == ["digest-mismatch"]
        assert (tmp_path / "quarantine" / path.name).is_file()
        assert fsck_queue(tmp_path).clean
        assert len(JobQueue(tmp_path)) == 0  # the corrupt job never reloads

    def test_checksum_less_job_file_is_flagged(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(ComparisonSpec(seed=1).to_dict())
        path = tmp_path / f"job-{job.job_id}.json"
        payload = json.loads(path.read_text())
        del payload["sha256"]
        path.write_text(json.dumps(payload, indent=2))
        report = fsck_queue(tmp_path)
        assert [issue.problem for issue in report.issues] == ["digest-mismatch"]
        assert "missing its sha256" in report.issues[0].detail


class TestShmSweep:
    def _segment(self, shm, name):
        (shm / name).write_bytes(b"\0" * 16)
        return name

    def test_dead_owner_segments_are_swept(self, tmp_path):
        shm = tmp_path / "shm"
        shm.mkdir()
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        orphan = self._segment(shm, "repro_victim_orphan")
        probe = subprocess.Popen(["sleep", "0"])
        probe.wait()  # dead pid
        (queue_dir / "registry.json").write_text(json.dumps({
            "pid": probe.pid, "segments": [orphan],
        }))
        swept = sweep_shm(queue_dirs=[queue_dir], shm_dir=shm)
        assert swept["removed"] == [orphan]
        assert not (shm / orphan).exists()
        assert not (queue_dir / "registry.json").exists()  # stale manifest gone
        assert swept["stale_manifests"] == [str(queue_dir / "registry.json")]

    def test_live_owner_segments_are_kept(self, tmp_path):
        shm = tmp_path / "shm"
        shm.mkdir()
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        mine = self._segment(shm, "repro_victim_mine")
        (queue_dir / "registry.json").write_text(json.dumps({
            "pid": os.getpid(), "segments": [mine],
        }))
        swept = sweep_shm(queue_dirs=[queue_dir], shm_dir=shm)
        assert swept["kept"] == [mine] and swept["removed"] == []
        assert (shm / mine).exists()
        assert (queue_dir / "registry.json").exists()  # live manifest kept

    def test_unclaimed_segments_are_kept_by_default(self, tmp_path):
        # "Claimed by no manifest *we were shown*" is not proof of
        # orphanhood: a live daemon serving another queue dir may own the
        # segment, and sweeping it would yank its shared memory away.
        shm = tmp_path / "shm"
        shm.mkdir()
        unclaimed = self._segment(shm, "repro_victim_unclaimed")
        swept = sweep_shm(shm_dir=shm)
        assert swept["removed"] == [] and swept["kept"] == [unclaimed]
        assert (shm / unclaimed).exists()

    def test_unclaimed_segments_removed_only_when_forced(self, tmp_path):
        shm = tmp_path / "shm"
        shm.mkdir()
        unclaimed = self._segment(shm, "repro_victim_unclaimed")
        foreign = self._segment(shm, "someone_elses_segment")
        swept = sweep_shm(shm_dir=shm, force_unclaimed=True)
        assert swept["removed"] == [unclaimed]
        assert (shm / foreign).exists()  # never touch foreign names

    def test_other_queues_live_segments_survive_a_forced_sweep(self, tmp_path):
        # Even under --force-unclaimed, a manifest that IS visible and
        # alive protects its segments.
        shm = tmp_path / "shm"
        shm.mkdir()
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        mine = self._segment(shm, "repro_victim_mine")
        (queue_dir / "registry.json").write_text(json.dumps({
            "pid": os.getpid(), "segments": [mine],
        }))
        swept = sweep_shm(
            queue_dirs=[queue_dir], shm_dir=shm, force_unclaimed=True
        )
        assert swept["kept"] == [mine] and (shm / mine).exists()


class TestFsckCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        queue_dir = tmp_path / "queue"
        ResultStore(store_dir).save("r", _result())
        JobQueue(queue_dir).submit(ComparisonSpec().to_dict())
        rc = main(["fsck", "--store", str(store_dir), "--queue", str(queue_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 scanned, 1 verified" in out

    def test_corruption_without_quarantine_exits_one(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store = ResultStore(store_dir)
        store.save("r", _result())
        _flip_byte(store.path_for("r"))
        rc = main(["fsck", "--store", str(store_dir), "--queue", str(tmp_path / "q")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "found digest-mismatch" in captured.out
        assert "corrupt file(s) remain" in captured.err

    def test_quarantine_repairs_and_exits_zero(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store = ResultStore(store_dir)
        store.save("r", _result())
        _flip_byte(store.path_for("r"))
        rc = main([
            "fsck", "--store", str(store_dir), "--queue", str(tmp_path / "q"),
            "--quarantine",
        ])
        assert rc == 0
        assert "quarantined digest-mismatch" in capsys.readouterr().out
        assert (store_dir / "quarantine" / "r.json").is_file()

    def test_quarantine_of_sharded_file_exits_zero(self, tmp_path, capsys):
        # Once the damaged shard file is moved aside nothing remains to
        # repair, so the exit code must not tell the operator to rerun.
        store_dir = tmp_path / "store"
        store = ShardedResultStore(store_dir)
        store.save("a", _result(seed=1))
        store.save("b", _result(seed=2))
        _flip_byte(store.path_for("a"))
        rc = main([
            "fsck", "--store", str(store_dir), "--queue", str(tmp_path / "q"),
            "--quarantine",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "quarantined digest-mismatch" in captured.out
        assert "corrupt file(s) remain" not in captured.err

    def test_shm_flag_sweeps(self, tmp_path, capsys):
        rc = main([
            "fsck", "--store", str(tmp_path / "s"), "--queue", str(tmp_path / "q"),
            "--shm",
        ])
        assert rc == 0
        assert "shm: removed" in capsys.readouterr().out
