"""ShardedResultStore: layout, legacy migration, and streaming reports."""

import json

from repro.core.comparison import MechanismOutcome, ModelComparisonResult
from repro.core.results import AttackEvent, AttackResult
from repro.experiments import (
    ComparisonSpec,
    ExperimentResult,
    ResultStore,
    ShardedResultStore,
    open_store,
    spec_hash,
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


def _comparison_payload():
    rowhammer = MechanismOutcome("rowhammer")
    rowhammer.results = [_attack_result(mechanism="rowhammer")]
    rowpress = MechanismOutcome("rowpress")
    rowpress.results = [_attack_result()]
    return [
        ModelComparisonResult(
            model_key="resnet20", display_name="ResNet-20", dataset_name="CIFAR-10",
            num_parameters=271_098, clean_accuracy=88.5, random_guess_accuracy=10.0,
            rowhammer=rowhammer, rowpress=rowpress,
        )
    ]


def _result(seed=0):
    return ExperimentResult(spec=ComparisonSpec(seed=seed), payload=_comparison_payload())


class TestShardedLayout:
    def test_save_places_file_under_spec_hash_shard(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        result = _result(seed=3)
        path = store.save("exp", result)
        prefix = spec_hash(result.spec.to_dict())[:2]
        assert path == tmp_path / "shards" / prefix / "exp.json"
        index = json.loads((path.parent / "_index.json").read_text())
        assert index["entries"]["exp"]["kind"] == "comparison"
        assert index["entries"]["exp"]["spec_hash"].startswith(prefix)

    def test_round_trip_and_contains(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        result = _result()
        store.save("exp", result)
        loaded = store.load("exp")
        assert loaded.spec == result.spec
        assert loaded.payload == result.payload
        assert "exp" in store and "missing" not in store

    def test_names_come_from_indexes_without_parsing_results(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        for seed in range(5):
            store.save(f"exp{seed}", _result(seed=seed))
        cold = ShardedResultStore(tmp_path)
        assert cold.names() == [f"exp{seed}" for seed in range(5)]
        assert cold.files_parsed == 0  # only the shard indexes were read

    def test_fresh_instance_sees_saved_results(self, tmp_path):
        ShardedResultStore(tmp_path).save("exp", _result())
        assert ShardedResultStore(tmp_path).load("exp").payload == _comparison_payload()

    def test_load_does_not_retain_envelopes(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        store.save("exp", _result())
        reader = ShardedResultStore(tmp_path)
        reader.load("exp")
        reader.load("exp")
        assert reader.files_parsed == 2  # parsed per call...
        assert reader._index == {}  # ...and never cached in memory


class TestLegacyMigration:
    def test_flat_files_read_through(self, tmp_path):
        ResultStore(tmp_path).save("legacy", _result(seed=1))
        store = ShardedResultStore(tmp_path)
        store.save("fresh", _result(seed=2))
        assert store.names() == ["fresh", "legacy"]
        assert store.load("legacy").payload == _comparison_payload()

    def test_migrate_moves_flat_files_into_shards(self, tmp_path):
        flat = ResultStore(tmp_path)
        flat.save("a", _result(seed=1))
        flat.save("b", _result(seed=2))
        store = ShardedResultStore(tmp_path)
        store.save("c", _result(seed=3))
        moved = store.migrate()
        assert sorted(moved) == ["a", "b"]
        assert not (tmp_path / "a.json").exists()
        assert store.names() == ["a", "b", "c"]
        # Round trip on the mixed-then-migrated tree is lossless.
        for name in store.names():
            assert store.load(name).payload == _comparison_payload()
        # Migration is idempotent.
        assert store.migrate() == []

    def test_saving_existing_name_supersedes_flat_copy(self, tmp_path):
        ResultStore(tmp_path).save("exp", _result(seed=1))
        store = ShardedResultStore(tmp_path)
        store.save("exp", _result(seed=9))
        assert not (tmp_path / "exp.json").exists()
        assert store.names() == ["exp"]
        assert store.load("exp").spec.seed == 9

    def test_migrate_store_cli(self, tmp_path, capsys):
        flat = ResultStore(tmp_path)
        flat.save("a", _result(seed=1))
        assert main(["migrate-store", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "migrated 1 result file(s)" in out
        assert "verified 1 checksummed result file(s)" in out
        # open_store now auto-detects the sharded layout.
        assert isinstance(open_store(tmp_path), ShardedResultStore)
        assert open_store(tmp_path).load("a").spec.seed == 1

    def test_shard_index_records_content_digest(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        path = store.save("exp", _result(seed=3))
        index = json.loads((path.parent / "_index.json").read_text())
        envelope = json.loads(path.read_text())
        assert index["entries"]["exp"]["sha256"] == envelope["integrity"]["digest"]


class TestOpenStore:
    def test_auto_detection(self, tmp_path):
        assert isinstance(open_store(tmp_path), ResultStore)
        assert not isinstance(open_store(tmp_path), ShardedResultStore)
        ShardedResultStore(tmp_path).save("exp", _result())
        assert isinstance(open_store(tmp_path), ShardedResultStore)

    def test_forced_flavours(self, tmp_path):
        assert isinstance(open_store(tmp_path, sharded=True), ShardedResultStore)
        assert not isinstance(open_store(tmp_path, sharded=False), ShardedResultStore)


class TestStreamingReport:
    """Acceptance: 1000-file sharded report streams and matches unsharded."""

    NUM_FILES = 1000

    def _populate(self, store, tmp_path_factory=None):
        payload = _comparison_payload()
        for seed in range(self.NUM_FILES):
            store.save(
                f"exp{seed:04d}",
                ExperimentResult(spec=ComparisonSpec(seed=seed), payload=payload),
            )

    def test_thousand_file_report_streams_and_matches_flat(self, tmp_path, capsys):
        sharded_dir = tmp_path / "sharded"
        flat_dir = tmp_path / "flat"
        self._populate(ShardedResultStore(sharded_dir))
        self._populate(ResultStore(flat_dir))
        # The files really are spread over many shards.
        shards = list((sharded_dir / "shards").iterdir())
        assert len(shards) > 100

        assert main(["report", "--all", "--store", str(sharded_dir)]) == 0
        sharded_out = capsys.readouterr().out
        assert main(["report", "--all", "--store", str(flat_dir)]) == 0
        flat_out = capsys.readouterr().out
        assert sharded_out == flat_out
        assert sharded_out.count("## exp") == self.NUM_FILES

    def test_streaming_does_not_hold_all_envelopes(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        self._populate(store)
        reader = ShardedResultStore(tmp_path)
        names = reader.names()
        assert len(names) == self.NUM_FILES
        assert reader.files_parsed == 0  # listing cost: shard indexes only
        seen = 0
        for _, result in reader.iter_results():
            seen += 1
            assert reader._index == {}  # nothing retained while streaming
        assert seen == self.NUM_FILES
        assert reader.files_parsed == self.NUM_FILES  # each file parsed once
