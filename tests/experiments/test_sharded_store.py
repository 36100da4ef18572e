"""ShardedResultStore: the name-to-path layout, reading both layouts, streaming reports."""

import hashlib
import json

import pytest

from repro.core.comparison import MechanismOutcome, ModelComparisonResult
from repro.core.results import AttackEvent, AttackResult
from repro.experiments import (
    ComparisonSpec,
    ExperimentResult,
    ResultStore,
    ShardedResultStore,
    open_store,
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
    def test_save_places_file_under_name_hash_shard(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        path = store.save("exp", _result(seed=3))
        prefix = hashlib.sha256(b"exp").hexdigest()[:2]
        assert path == tmp_path / "shards" / prefix / "exp.json" == store.path_for("exp")
        assert json.loads(path.read_text())["kind"] == "comparison"
        # The path is a function of the name: no index is written.
        assert sorted(tmp_path.rglob("*.json")) == [path]

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
        assert cold.files_parsed == 0  # listed by path alone

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

    def test_sharded_save_keeps_the_flat_copy(self, tmp_path):
        # A daemon's sharded store shares its directory with committed flat
        # envelopes; saving the same name must not delete the flat one.
        flat = ResultStore(tmp_path)
        flat_path = flat.save("exp", _result(seed=1))
        before = flat_path.read_bytes()
        sharded = open_store(tmp_path, sharded=True)
        sharded.save("exp", _result(seed=9))
        assert flat_path.read_bytes() == before
        assert sharded.load("exp").spec.seed == 9
        assert ResultStore(tmp_path).load("exp").spec.seed == 1
        assert sharded.names() == flat.names() == ["exp"]


class TestOneLayoutFunction:
    """Both store classes read both layouts; only ``path_for`` differs."""

    def _shard_tree(self, root):
        ShardedResultStore(root).save("sharded", _result(seed=2))
        # An envelope in the wrong shard directory: no store looks there.
        home = ShardedResultStore(root).path_for("stray")
        wrong = "00" if home.parent.name != "00" else "01"
        stray = ResultStore(root / "shards" / wrong).save("stray", _result(seed=3))
        (stray.parent / "sharded.json.tmp").write_text("{")  # torn write

    def _mixed_tree(self, root):
        self._shard_tree(root)
        ResultStore(root).save("flat", _result(seed=1))
        (root / "fig7_series.json").write_text(json.dumps({"series": [1, 2]}))

    @pytest.mark.parametrize("flavour", [ResultStore, ShardedResultStore])
    def test_names_lists_exactly_what_load_returns(self, tmp_path, flavour):
        self._mixed_tree(tmp_path)
        store = flavour(tmp_path)
        assert store.names() == ["flat", "sharded"]
        assert store.load("flat").spec.seed == 1
        assert store.load("sharded").spec.seed == 2
        assert "flat" in store and "sharded" in store and "stray" not in store
        with pytest.raises(OSError):
            store.load("stray")
        with pytest.raises(ValueError):
            store.load("fig7_series")

    def test_cold_listing_parses_no_shard_file(self, tmp_path):
        self._shard_tree(tmp_path)
        cold = ShardedResultStore(tmp_path)
        assert cold.names() == ["sharded"]
        assert cold.files_parsed == 0


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
        assert reader.files_parsed == 0  # listing parses no shard file
        seen = 0
        for _, result in reader.iter_results():
            seen += 1
            assert reader._index == {}  # nothing retained while streaming
        assert seen == self.NUM_FILES
        assert reader.files_parsed == self.NUM_FILES  # each file parsed once
