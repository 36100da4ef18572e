"""DistributedBackend: framing, task bookkeeping, and serial equivalence."""

import socket

import pytest

from repro.dram.geometry import DramGeometry
from repro.experiments import (
    DefenseMatrixSpec,
    ExperimentRunner,
    ResultStore,
    make_backend,
)
from repro.experiments.distributed import (
    DistributedBackend,
    _RunState,
    recv_frame,
    send_frame,
)
from repro.utils.resilience import ResilienceConfig

SMALL_GEOMETRY = DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128)


class TestFraming:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            payload = {"op": "task", "units": [{"seed": 1}], "blob": b"\x00" * 4096}
            send_frame(left, payload)
            send_frame(left, "second")
            assert recv_frame(right) == payload
            assert recv_frame(right) == "second"
        finally:
            left.close()
            right.close()

    def test_recv_frame_raises_on_closed_peer(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(right)
        finally:
            right.close()


class TestRunState:
    def test_requeue_bounds(self):
        state = _RunState([["u0"], ["u1"]])
        index, chunk = state.tasks.popleft()
        for _ in range(ResilienceConfig().max_chunk_retries):
            state.requeue(index, chunk)
            assert state.error is None
            assert state.tasks.popleft() == (index, chunk)
        state.requeue(index, chunk)  # one past the limit
        assert isinstance(state.error, RuntimeError)
        assert state.finished()

    def test_requeue_after_result_is_a_noop(self):
        state = _RunState([["u0"]])
        index, chunk = state.tasks.popleft()
        state.results[index] = ["done"]
        state.requeue(index, chunk)
        assert not state.tasks and state.error is None
        assert state.finished()


class TestFactory:
    def test_make_backend_distributed(self):
        backend = make_backend("distributed", max_workers=3)
        assert isinstance(backend, DistributedBackend)
        assert backend.num_workers == 3

    def test_unknown_backend_mentions_distributed(self):
        with pytest.raises(ValueError, match="distributed"):
            make_backend("carrier-pigeon")


@pytest.mark.slow
class TestSerialEquivalence:
    def test_distributed_matches_serial(self, tmp_path):
        spec = DefenseMatrixSpec(geometry=SMALL_GEOMETRY)
        serial_store = ResultStore(tmp_path / "serial")
        ExperimentRunner(store=serial_store).run(spec, save_as="exp")

        dist_store = ResultStore(tmp_path / "dist")
        runner = ExperimentRunner(
            store=dist_store, backend=DistributedBackend(num_workers=2)
        )
        runner.run(spec, save_as="exp")

        assert (
            dist_store.path_for("exp").read_text()
            == serial_store.path_for("exp").read_text()
        )
