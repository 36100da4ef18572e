"""Kernel registry tests: dispatch, bit-identity, fallback, scratch, memo.

The compiled tier's whole contract is "same bits, less time" — these tests
pin the registry mechanics (closed kernel set, per-kernel fallback,
thread-local activation, the compiled process default), byte-level
agreement between every backend kernel and its reference, the silent
default fallback and exactly-one-warning explicit fallback without a
toolchain, lazy probing, and the correctness guards of the scratch pool
and the im2col memo used by the stacked suffix cascade.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.nn import kernels
from repro.nn.kernels import reference

BACKEND = kernels.available()
needs_backend = pytest.mark.skipif(
    not BACKEND, reason="no compiled kernel backend on this machine"
)


@pytest.fixture
def fresh_registry(monkeypatch):
    """Reset registry state around a test that reconfigures backends."""
    kernels._reset_for_tests()
    yield monkeypatch
    monkeypatch.undo()
    kernels._reset_for_tests()


def rich_inputs(seed=0):
    """A batch with signed zeros, NaN and denormals mixed into the data."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 3, 7, 6))
    x[0, 0, 0, 0] = -0.0
    x[1, 2, 3, 4] = np.nan
    x[2, 1, 0, 5] = 5e-324
    return x


class TestRegistry:
    def test_kernel_names_match_reference(self):
        assert set(kernels.KERNEL_NAMES) == set(reference.KERNELS)
        assert len(kernels.KERNEL_NAMES) == 8

    def test_get_kernel_returns_callable_for_every_name(self):
        for name in kernels.KERNEL_NAMES:
            assert callable(kernels.get_kernel(name))

    def test_get_kernel_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            kernels.get_kernel("batched_gemm")

    def test_backend_name_consistent_with_available(self):
        if kernels.available():
            assert kernels.backend_name() in kernels.BACKEND_ORDER
        else:
            assert kernels.backend_name() is None

    def test_warmup_idempotent_and_returns_validated_names(self):
        first = kernels.warmup()
        second = kernels.warmup()
        assert first == second
        assert set(first) <= set(kernels.KERNEL_NAMES)

    @pytest.mark.parametrize(
        "diverges",
        [
            lambda out, weight_matrix: out.shape[2] == 1,
            lambda out, weight_matrix: weight_matrix.shape[0] == 1,
        ],
        ids=["1x1-output-plane", "single-filter"],
    )
    def test_warmup_drops_conv_that_diverges_on_gemv_shapes(self, fresh_registry, diverges):
        """A conv kernel off by one ulp only where np.matmul uses gemv."""

        def conv2d_forward(x, weight_matrix, bias, kernel, stride, padding, cols_out=None):
            out, cols = reference.conv2d_forward(
                x, weight_matrix, bias, kernel, stride, padding, cols_out
            )
            if diverges(out, weight_matrix):
                out = np.nextafter(out, np.inf)
            return out, cols

        kernels._state.update(
            probed=True, name="fake", kernels={"conv2d_forward": conv2d_forward}
        )
        assert kernels.warmup() == ()
        assert kernels.backend_name() is None

    def test_dram_only_run_never_probes_the_registry(self):
        """A run without a neural network neither builds nor loads kernels."""
        code = (
            "from repro.dram.geometry import DramGeometry\n"
            "from repro.experiments import DefenseMatrixSpec, ExperimentRunner\n"
            "from repro.nn import kernels\n"
            "geometry = DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128)\n"
            "ExperimentRunner().run(DefenseMatrixSpec(geometry=geometry, chip_seed=1))\n"
            "print(kernels._state['probed'], kernels.backend_name(probe=False))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(os.environ)
        env.pop("REPRO_DEFAULT_ENGINE", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert completed.stdout.split()[-2:] == ["False", "None"]


class TestActivation:
    @needs_backend
    def test_active_by_default(self, fresh_registry):
        fresh_registry.delenv("REPRO_DEFAULT_ENGINE", raising=False)
        assert kernels.compiled_active()
        assert kernels.active("im2col") is not None

    def test_default_engine_env_vectorized_pins_process_wide(self, fresh_registry):
        fresh_registry.setenv("REPRO_DEFAULT_ENGINE", "vectorized")
        assert not kernels.compiled_active()
        assert kernels.active("im2col") is None
        with kernels.use("compiled") as enabled:
            assert kernels.compiled_active() == enabled == BACKEND

    @needs_backend
    def test_use_compiled_activates_in_scope_only(self):
        with kernels.use("vectorized"):
            with kernels.use("compiled") as enabled:
                assert enabled
                assert kernels.compiled_active()
                assert kernels.active("im2col") is not None
            assert not kernels.compiled_active()

    def test_use_vectorized_pins_reference_tier(self):
        with kernels.use("vectorized") as enabled:
            assert not enabled
            assert kernels.active("im2col") is None

    @needs_backend
    def test_nested_scopes_restore_outer_state(self):
        with kernels.use("compiled"):
            with kernels.use("vectorized"):
                assert not kernels.compiled_active()
            assert kernels.compiled_active()

    @needs_backend
    def test_default_engine_env_enables_process_wide(self, fresh_registry):
        fresh_registry.setenv("REPRO_DEFAULT_ENGINE", "compiled")
        assert kernels.compiled_active()
        with kernels.use("vectorized"):
            assert not kernels.compiled_active()


@needs_backend
class TestBitIdentity:
    """Every backend kernel must agree with reference to the last byte."""

    @staticmethod
    def assert_bytes_equal(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2), (2, 0)])
    def test_im2col(self, stride, padding):
        x = rich_inputs()
        self.assert_bytes_equal(
            kernels.get_kernel("im2col")(x, (3, 3), stride, padding),
            reference.im2col(x, (3, 3), stride, padding),
        )

    @pytest.mark.parametrize("size", [2, 4, 8, 16, 32])
    def test_im2col_specialized_square_planes(self, size):
        """The 3x3/s1/p1 fast paths cover these plane sizes explicitly."""
        rng = np.random.default_rng(size)
        x = rng.standard_normal((3, 5, size, size))
        self.assert_bytes_equal(
            kernels.get_kernel("im2col")(x, (3, 3), 1, 1),
            reference.im2col(x, (3, 3), 1, 1),
        )

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_col2im(self, stride, padding):
        shape = (4, 3, 7, 6)
        out_h, out_w = reference.conv2d_output_size(7, 6, (3, 3), stride, padding)
        rng = np.random.default_rng(1)
        cols = rng.standard_normal((4, 3 * 9, out_h * out_w))
        self.assert_bytes_equal(
            kernels.get_kernel("col2im")(cols, shape, (3, 3), stride, padding),
            reference.col2im(cols, shape, (3, 3), stride, padding),
        )

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_conv2d_forward(self, with_bias):
        x = rich_inputs()
        rng = np.random.default_rng(2)
        weight_matrix = rng.standard_normal((5, 3 * 9))
        bias = rng.standard_normal(5) if with_bias else None
        got_out, got_cols = kernels.get_kernel("conv2d_forward")(
            x, weight_matrix, bias, (3, 3), 1, 1
        )
        want_out, want_cols = reference.conv2d_forward(
            x, weight_matrix, bias, (3, 3), 1, 1
        )
        self.assert_bytes_equal(got_out, want_out)
        self.assert_bytes_equal(got_cols, want_cols)

    @pytest.mark.parametrize(
        "input_shape,filters,kernel,stride,padding",
        [
            # 1x1 output planes: np.matmul multiplies by a single column.
            ((3, 2, 2, 2), 5, (1, 1), 2, 0),
            ((3, 2, 3, 3), 5, (3, 3), 1, 0),
            ((2, 4, 3, 3), 8, (3, 3), 2, 0),
            # A single filter: np.matmul multiplies a single row.
            ((3, 3, 7, 6), 1, (3, 3), 1, 1),
            # Asymmetric (0, p) padding: M11's conv1d as a 1-row conv2d.
            ((3, 4, 1, 17), 5, (1, 3), 1, (0, 1)),
            ((3, 4, 1, 17), 5, (1, 5), 2, (0, 2)),
            ((2, 3, 4, 9), 5, (3, 3), 1, (0, 2)),
        ],
    )
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_conv2d_forward_matmul_special_shapes(
        self, input_shape, filters, kernel, stride, padding, with_bias
    ):
        """Shapes where np.matmul calls gemv, and asymmetric padding."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal(input_shape)
        taps = input_shape[1] * kernel[0] * kernel[1]
        weight_matrix = rng.standard_normal((filters, taps))
        bias = rng.standard_normal(filters) if with_bias else None
        got_out, got_cols = kernels.get_kernel("conv2d_forward")(
            x, weight_matrix, bias, kernel, stride, padding
        )
        want_out, want_cols = reference.conv2d_forward(
            x, weight_matrix, bias, kernel, stride, padding
        )
        self.assert_bytes_equal(got_out, want_out)
        self.assert_bytes_equal(got_cols, want_cols)

    @pytest.mark.parametrize("kernel,stride,padding", [((1, 3), 1, (0, 1)), ((3, 3), 2, (0, 2))])
    def test_asymmetric_padding_im2col_col2im(self, kernel, stride, padding):
        x = rich_inputs()
        self.assert_bytes_equal(
            kernels.get_kernel("im2col")(x, kernel, stride, padding),
            reference.im2col(x, kernel, stride, padding),
        )
        out_h, out_w = reference.conv2d_output_size(7, 6, kernel, stride, padding)
        cols = np.random.default_rng(12).standard_normal(
            (4, 3 * kernel[0] * kernel[1], out_h * out_w)
        )
        self.assert_bytes_equal(
            kernels.get_kernel("col2im")(cols, x.shape, kernel, stride, padding),
            reference.col2im(cols, x.shape, kernel, stride, padding),
        )

    def test_bn_fold(self):
        x = rich_inputs()
        rng = np.random.default_rng(3)
        scale, shift = rng.standard_normal(3), rng.standard_normal(3)
        self.assert_bytes_equal(
            kernels.get_kernel("bn_fold")(x, scale, shift),
            reference.bn_fold(x, scale, shift),
        )

    def test_bn_infer(self):
        x = rich_inputs()
        rng = np.random.default_rng(4)
        weight, bias = rng.standard_normal(3), rng.standard_normal(3)
        mean, var = rng.standard_normal(3), rng.random(3) + 0.1
        self.assert_bytes_equal(
            kernels.get_kernel("bn_infer")(x, weight, bias, mean, var, 1e-5),
            reference.bn_infer(x, weight, bias, mean, var, 1e-5),
        )

    def test_relu_preserves_signed_zero_and_nan(self):
        x = rich_inputs()
        got = kernels.get_kernel("relu")(x)
        want = reference.relu(x)
        self.assert_bytes_equal(got, want)
        # The mask-multiply contract, stated explicitly:
        assert np.signbit(got[0, 0, 0, 0])  # -0.0 -> -0.0 (negative maps to -0.0)
        assert np.isnan(got[1, 2, 3, 4])  # NaN propagates

    @pytest.mark.parametrize("num_bits", [2, 4, 8])
    def test_delta_table(self, num_bits):
        rng = np.random.default_rng(num_bits)
        low, high = -(1 << (num_bits - 1)), (1 << (num_bits - 1)) - 1
        values = rng.integers(low, high + 1, size=53).astype(np.int64)
        self.assert_bytes_equal(
            kernels.get_kernel("delta_table")(values, num_bits),
            reference.delta_table(values, num_bits),
        )

    def test_delta_column(self):
        for value in (-128, -1, 0, 1, 127):
            self.assert_bytes_equal(
                kernels.get_kernel("delta_column")(value, 8),
                reference.delta_column(value, 8),
            )


class TestFallback:
    """No toolchain: the default falls back silently, an explicit request
    warns once, and results stay bit-identical."""

    def _disable_backends(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")
        monkeypatch.delenv("REPRO_DEFAULT_ENGINE", raising=False)

    def test_default_resolution_is_silent_explicit_request_warns_once(
        self, fresh_registry
    ):
        self._disable_backends(fresh_registry)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not kernels.compiled_active()
            assert not kernels.enabled_for(None)
            assert not caught
            assert not kernels.enabled_for("compiled")
            with kernels.use("compiled") as enabled:
                assert not enabled
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 1
        assert "falling back" in str(fallback[0].message)

    def test_explicit_default_engine_env_warns(self, fresh_registry):
        self._disable_backends(fresh_registry)
        fresh_registry.setenv("REPRO_DEFAULT_ENGINE", "compiled")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not kernels.compiled_active()
        assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1

    def test_backend_absent_reports_unavailable(self, fresh_registry):
        self._disable_backends(fresh_registry)
        assert not kernels.available()
        assert kernels.backend_name() is None

    def test_requesting_compiled_warns_exactly_once(self, fresh_registry):
        self._disable_backends(fresh_registry)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with kernels.use("compiled") as enabled:
                assert not enabled
            with kernels.use("compiled") as enabled:
                assert not enabled
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 1
        assert "falling back" in str(fallback[0].message)

    def test_fallback_results_are_reference_bit_identical(self, fresh_registry):
        self._disable_backends(fresh_registry)
        x = rich_inputs()
        rng = np.random.default_rng(7)
        weight_matrix = rng.standard_normal((5, 3 * 9))
        bias = rng.standard_normal(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with kernels.use("compiled"):
                got_out, got_cols = kernels.conv2d_forward(
                    x, weight_matrix, bias, (3, 3), 1, 1
                )
                got_bn = kernels.bn_infer(
                    x, bias[:3], bias[:3], bias[:3], np.abs(bias[:3]) + 0.1, 1e-5
                )
                got_relu = kernels.relu(x)
                got_table = kernels.delta_table(
                    np.arange(-8, 8, dtype=np.int64), 4
                )
        want_out, want_cols = reference.conv2d_forward(
            x, weight_matrix, bias, (3, 3), 1, 1
        )
        assert got_out.tobytes() == want_out.tobytes()
        assert got_cols.tobytes() == want_cols.tobytes()
        assert got_bn.tobytes() == reference.bn_infer(
            x, bias[:3], bias[:3], bias[:3], np.abs(bias[:3]) + 0.1, 1e-5
        ).tobytes()
        assert got_relu.tobytes() == reference.relu(x).tobytes()
        assert np.array_equal(
            got_table, reference.delta_table(np.arange(-8, 8, dtype=np.int64), 4)
        )

    def test_unknown_forced_backend_falls_back(self, fresh_registry):
        fresh_registry.setenv("REPRO_KERNEL_BACKEND", "cuda")
        assert not kernels.available()


class TestScratch:
    def test_same_shape_reuses_buffer(self):
        kernels.clear_scratch()
        first = kernels.scratch_buffer("im2col", (2, 18, 9))
        second = kernels.scratch_buffer("im2col", (2, 18, 9))
        assert first is second
        assert first.shape == (2, 18, 9) and first.dtype == np.float64

    def test_distinct_shapes_and_names_get_distinct_buffers(self):
        kernels.clear_scratch()
        a = kernels.scratch_buffer("im2col", (2, 18, 9))
        b = kernels.scratch_buffer("im2col", (3, 18, 9))
        c = kernels.scratch_buffer("other", (2, 18, 9))
        assert a is not b and a is not c

    def test_clear_scratch_drops_buffers(self):
        before = kernels.scratch_buffer("im2col", (4, 4, 4))
        kernels.clear_scratch()
        after = kernels.scratch_buffer("im2col", (4, 4, 4))
        assert before is not after


class TestIm2colMemo:
    @needs_backend
    def test_repeat_forward_same_input_is_bit_identical(self):
        x = rich_inputs()
        rng = np.random.default_rng(8)
        weights = [rng.standard_normal((5, 3 * 9)) for _ in range(3)]
        want = [reference.conv2d_forward(x, w, None, (3, 3), 1, 1)[0] for w in weights]
        with kernels.use("compiled"):
            with kernels.im2col_memo() as scope:
                assert scope == {}
                got = [
                    kernels.conv2d_forward(x, w, None, (3, 3), 1, 1)[0]
                    for w in weights
                ]
                assert len(scope) == 1  # one entry per conv signature
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @needs_backend
    def test_different_input_object_is_not_served_stale_columns(self):
        """Same shape, different array: the memo must miss, not corrupt."""
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal((2, 3, 5, 5))
        x2 = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3 * 9))
        with kernels.use("compiled"):
            with kernels.im2col_memo():
                first = kernels.conv2d_forward(x1, w, None, (3, 3), 1, 1)[0]
                second = kernels.conv2d_forward(x2, w, None, (3, 3), 1, 1)[0]
        assert first.tobytes() == reference.conv2d_forward(
            x1, w, None, (3, 3), 1, 1
        )[0].tobytes()
        assert second.tobytes() == reference.conv2d_forward(
            x2, w, None, (3, 3), 1, 1
        )[0].tobytes()

    @needs_backend
    def test_memo_bypasses_scratch_pool(self):
        """Memoised columns must not live in the clobberable scratch buffer.

        Inside a memo scope a second same-shape conv on a different input
        would overwrite a shared scratch buffer holding the first input's
        memoised columns; the dispatcher therefore allocates fresh columns
        whenever the memo is active, even with ``reuse_scratch=True``.
        """
        rng = np.random.default_rng(10)
        x1 = rng.standard_normal((2, 3, 5, 5))
        x2 = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3 * 9))
        with kernels.use("compiled"):
            with kernels.im2col_memo():
                kernels.conv2d_forward(x1, w, None, (3, 3), 1, 1, reuse_scratch=True)
                kernels.conv2d_forward(x2, w, None, (3, 3), 1, 1, reuse_scratch=True)
                # x1 hits its memo entry again; its columns must still be x1's.
                replay = kernels.conv2d_forward(x1, w, None, (3, 3), 1, 1)[0]
        assert replay.tobytes() == reference.conv2d_forward(
            x1, w, None, (3, 3), 1, 1
        )[0].tobytes()

    def test_noop_outside_compiled_tier(self):
        with kernels.use("vectorized"):
            with kernels.im2col_memo() as scope:
                assert scope is None

    @needs_backend
    def test_nested_scope_keeps_outer_memo(self):
        with kernels.use("compiled"):
            with kernels.im2col_memo() as outer:
                with kernels.im2col_memo() as inner:
                    assert inner is outer
