"""Tests for convolution / pooling operations, with gradient checks."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.autograd import Tensor, no_grad
from tests.nn.test_autograd import check_gradient

rng = np.random.default_rng(1)


class TestConv2d:
    def test_output_shape(self):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        out = F.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (2, 5, 8, 8)
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 5, 4, 4)

    def test_matches_direct_computation(self):
        # 1x1 input channel, 1 filter: convolution reduces to a dot product.
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        w = np.ones((1, 1, 2, 2))
        out = F.conv2d(Tensor(x), Tensor(w), stride=2)
        expected = np.array([[0 + 1 + 4 + 5, 2 + 3 + 6 + 7], [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]])
        assert np.allclose(out.data[0, 0], expected)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv2d(x, w, b, padding=1)
        assert np.allclose(out.data[0, 0], 1.5)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_empty_output_rejected(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_gradients_wrt_input_weight_bias(self):
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=(3,))
        check_gradient(lambda t: F.conv2d(t, Tensor(w), Tensor(b), stride=1, padding=1), x, rtol=1e-3)
        check_gradient(lambda t: F.conv2d(Tensor(x), t, Tensor(b), stride=2, padding=1), w, rtol=1e-3)
        check_gradient(lambda t: F.conv2d(Tensor(x), Tensor(w), t, stride=1, padding=0), b, rtol=1e-3)


class TestConv1d:
    def test_output_shape_and_padding(self):
        x = Tensor(rng.normal(size=(2, 3, 16)))
        w = Tensor(rng.normal(size=(4, 3, 5)))
        assert F.conv1d(x, w, padding=2).shape == (2, 4, 16)
        assert F.conv1d(x, w, stride=2, padding=2).shape == (2, 4, 8)

    def test_gradients(self):
        x = rng.normal(size=(2, 2, 10))
        w = rng.normal(size=(3, 2, 3))
        check_gradient(lambda t: F.conv1d(t, Tensor(w), padding=1), x, rtol=1e-3)
        check_gradient(lambda t: F.conv1d(Tensor(x), t, stride=2, padding=1), w, rtol=1e-3)


class TestPooling:
    def test_max_pool2d_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel=2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool2d_gradient(self):
        x = rng.normal(size=(2, 3, 4, 4))
        check_gradient(lambda t: F.max_pool2d(t, 2), x, rtol=1e-3)

    def test_max_pool2d_requires_divisible_dims(self):
        with pytest.raises(ValueError):
            F.max_pool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)

    def test_max_pool1d_values_and_gradient(self):
        x = np.array([[[1.0, 3.0, 2.0, 0.0]]])
        out = F.max_pool1d(Tensor(x), kernel=2)
        assert np.allclose(out.data, [[[3.0, 2.0]]])
        check_gradient(lambda t: F.max_pool1d(t, 2), rng.normal(size=(2, 2, 8)), rtol=1e-3)

    def test_avg_pool2d(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), kernel=2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])
        check_gradient(lambda t: F.avg_pool2d(t, 2), rng.normal(size=(1, 2, 4, 4)))

    def test_global_pools(self):
        x = rng.normal(size=(2, 3, 4, 4))
        assert F.global_avg_pool2d(Tensor(x)).shape == (2, 3)
        waveform = rng.normal(size=(2, 3, 10))
        assert F.global_avg_pool1d(Tensor(waveform)).shape == (2, 3)


class TestLinearAndMisc:
    def test_linear_2d_and_3d(self):
        x2 = rng.normal(size=(4, 6))
        x3 = rng.normal(size=(2, 5, 6))
        w = rng.normal(size=(3, 6))
        b = rng.normal(size=(3,))
        assert F.linear(Tensor(x2), Tensor(w), Tensor(b)).shape == (4, 3)
        assert F.linear(Tensor(x3), Tensor(w), Tensor(b)).shape == (2, 5, 3)
        check_gradient(lambda t: F.linear(Tensor(x3), t, Tensor(b)), w, rtol=1e-3)

    def test_flatten(self):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert F.flatten(x).shape == (2, 12)

    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3)
        assert np.allclose(encoded, np.eye(3)[[0, 2, 1]])
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([[0, 1]]), 3)


class TestIm2Col:
    def test_roundtrip_adjoint_property(self):
        # <im2col(x), y> == <x, col2im(y)> (adjoint pair).
        x = rng.normal(size=(1, 2, 6, 6))
        cols = F.im2col(x, (3, 3), stride=1, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        x_back = F.col2im(y, x.shape, (3, 3), stride=1, padding=1)
        rhs = float((x * x_back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)


def _with_specials(shape, seed):
    """Normal draws with most entries replaced by ±0.0, NaN, ±inf and ±1."""
    special_rng = np.random.default_rng(seed)
    x = special_rng.normal(size=shape)
    mask = special_rng.random(shape) < 0.6
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])
    x[mask] = special_rng.choice(specials, size=int(mask.sum()))
    return x


def _same_bytes(actual, expected):
    return (
        actual.shape == expected.shape
        and actual.dtype == expected.dtype
        and actual.tobytes() == expected.tobytes()
    )


def _windows_1d(x, kernel):
    batch, channels, length = x.shape
    return x.reshape(batch, channels, length // kernel, kernel)


def _windows_2d(x, kernel):
    batch, channels, height, width = x.shape
    out_h, out_w = height // kernel, width // kernel
    reshaped = x.reshape(batch, channels, out_h, kernel, out_w, kernel)
    return reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
        batch, channels, out_h, out_w, kernel * kernel
    )


def _argmax_gradient_1d(x, kernel, grad):
    """The arg-max scatter of the recorded max_pool1d backward."""
    windows = _windows_1d(x, kernel)
    argmax = windows.argmax(axis=-1)
    grad_windows = np.zeros_like(windows)
    index = np.indices(argmax.shape)
    grad_windows[index[0], index[1], index[2], argmax] = grad
    return grad_windows.reshape(x.shape)


def _argmax_gradient_2d(x, kernel, grad):
    """The arg-max scatter of the recorded max_pool2d backward."""
    batch, channels, height, width = x.shape
    windows = _windows_2d(x, kernel)
    argmax = windows.argmax(axis=-1)
    grad_windows = np.zeros_like(windows)
    index = np.indices(argmax.shape)
    grad_windows[index[0], index[1], index[2], index[3], argmax] = grad
    return (
        grad_windows.reshape(batch, channels, height // kernel, width // kernel, kernel, kernel)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(x.shape)
    )


def _gradient_free(op, x):
    """``op`` on ``x`` both ways no backward closure is recorded."""
    with no_grad():
        under_no_grad = op(Tensor(x, requires_grad=True))
    return under_no_grad, op(Tensor(x))


class TestGradientFreeFastPaths:
    """The no-grad pooling paths against the window reduction, byte for byte."""

    # k=2 takes the elementwise fast path; k=3 the reduction without arg-max.
    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_max_pool1d_matches_the_window_reduction(self, kernel, seed):
        x = _with_specials((3, 5, 24 * kernel), seed)
        expected = _windows_1d(x, kernel).max(axis=-1)
        for out in _gradient_free(lambda t: F.max_pool1d(t, kernel), x):
            assert not out.requires_grad
            assert _same_bytes(out.data, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_max_pool2d_matches_the_window_reduction(self, seed):
        x = _with_specials((2, 4, 24, 24), seed)
        expected = _windows_2d(x, 2).max(axis=-1)
        for out in _gradient_free(lambda t: F.max_pool2d(t, 2), x):
            assert not out.requires_grad
            assert _same_bytes(out.data, expected)

    @pytest.mark.parametrize("kernel", [2, 3])
    def test_recorded_max_pool1d_keeps_values_and_argmax_gradient(self, kernel):
        x = _with_specials((2, 3, 12 * kernel), 11)
        grad = rng.normal(size=(2, 3, 12))
        t = Tensor(x, requires_grad=True)
        out = F.max_pool1d(t, kernel)
        out.backward(grad)
        assert _same_bytes(out.data, _windows_1d(x, kernel).max(axis=-1))
        assert _same_bytes(t.grad, _argmax_gradient_1d(x, kernel, grad))

    def test_recorded_max_pool2d_keeps_values_and_argmax_gradient(self):
        x = _with_specials((2, 3, 8, 8), 12)
        grad = rng.normal(size=(2, 3, 4, 4))
        t = Tensor(x, requires_grad=True)
        out = F.max_pool2d(t, 2)
        out.backward(grad)
        assert _same_bytes(out.data, _windows_2d(x, 2).max(axis=-1))
        assert _same_bytes(t.grad, _argmax_gradient_2d(x, 2, grad))
