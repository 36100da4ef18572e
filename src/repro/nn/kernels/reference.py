"""Pure-NumPy reference implementations of the registered kernels.

Every kernel the compiled backends provide has a reference implementation
here with the same signature and — critically — the same floating-point
accumulation order.  The registry falls back to these per kernel, so a
partially available backend (or no backend at all) degrades gracefully
without changing a single bit of any result.

Accumulation-order contract (see docs/ENGINES.md):

- ``im2col`` / ``conv2d_forward``: patches are gathered per sample and fed
  to one fixed-shape GEMM per sample (``np.matmul`` broadcast semantics),
  so per-sample outputs are independent of how many samples are stacked.
  numpy matmul uses gemv for one-column or one-row operands; backends must
  do the same.
- ``padding`` is an int or a ``(pad_h, pad_w)`` pair of zero rows and
  columns added on each side.
- ``conv2d_forward`` adds the bias *after* the GEMM in a separate pass —
  one extra rounding per element, never fused into the GEMM epilogue.
- ``col2im`` accumulates kernel taps in ``(i, j)`` row-major order; every
  output element sees its contributions in exactly that order.
- ``bn_fold`` computes ``x * scale`` (one rounding) then ``+ shift``
  (a second rounding); compiled versions must not contract this into an
  FMA, which would round once and break bit-identity.
- ``delta_table`` / ``delta_column`` are pure int64 arithmetic — exact by
  construction in any backend.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np


Padding = Union[int, Tuple[int, int]]


def pad_pair(padding: Padding) -> Tuple[int, int]:
    """``(pad_h, pad_w)`` from an int or a pair."""
    return padding if isinstance(padding, tuple) else (padding, padding)


def conv2d_output_size(
    height: int, width: int, kernel: Tuple[int, int], stride: int, padding: Padding
) -> Tuple[int, int]:
    """Spatial output size of a 2-D convolution (raises when empty)."""
    pad_h, pad_w = pad_pair(padding)
    out_h = (height + 2 * pad_h - kernel[0]) // stride + 1
    out_w = (width + 2 * pad_w - kernel[1]) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty: input {height}x{width}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out_h, out_w


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    padding: Padding,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rearrange ``(N, C, H, W)`` patches into ``(N, C*kh*kw, out_h*out_w)``.

    ``out``, when given, must be a C-contiguous float64 buffer of the result
    shape; the columns are written into it instead of a fresh allocation
    (the scratch-pool path for gradient-free forwards).
    """
    batch, channels, height, width = x.shape
    kh, kw = kernel
    out_h, out_w = conv2d_output_size(height, width, kernel, stride, padding)
    pad_h, pad_w = pad_pair(padding)
    if pad_h or pad_w:
        x = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, out_h, out_w, kh, kw),
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride, strides[2], strides[3]),
        writeable=False,
    )
    # (N, C, kh, kw, out_h, out_w) -> (N, C*kh*kw, out_h*out_w)
    patches = windows.transpose(0, 1, 4, 5, 2, 3)
    if out is None:
        return np.ascontiguousarray(patches).reshape(
            batch, channels * kh * kw, out_h * out_w
        )
    np.copyto(out.reshape(batch, channels, kh, kw, out_h, out_w), patches)
    return out


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: Padding,
) -> np.ndarray:
    """Scatter-add columns back into image space (adjoint of :func:`im2col`)."""
    batch, channels, height, width = input_shape
    kh, kw = kernel
    out_h, out_w = conv2d_output_size(height, width, kernel, stride, padding)
    pad_h, pad_w = pad_pair(padding)
    padded = np.zeros((batch, channels, height + 2 * pad_h, width + 2 * pad_w))
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[:, :, i, j]
    if pad_h or pad_w:
        return padded[:, :, pad_h:pad_h + height, pad_w:pad_w + width]
    return padded


def conv2d_forward(
    x: np.ndarray,
    weight_matrix: np.ndarray,
    bias: Optional[np.ndarray],
    kernel: Tuple[int, int],
    stride: int,
    padding: Padding,
    cols_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward convolution: im2col + per-sample GEMM + separate bias pass.

    Returns ``(out, cols)`` where ``out`` has shape ``(N, F, out_h*out_w)``
    and ``cols`` is the im2col matrix (needed by the backward pass; it
    aliases ``cols_out`` when that scratch buffer is provided).
    """
    cols = im2col(x, kernel, stride, padding, out=cols_out)
    # Broadcast GEMM: one (F, K) @ (K, L) product per sample.  BLAS-fast,
    # and — because every sample's GEMM has the same fixed shape no matter
    # how many samples are stacked — per-sample results are independent of
    # the leading dimension, which the stacked trial evaluation
    # (SuffixEvaluator.peek_many) relies on for bit-identical suffixes.
    out = np.matmul(weight_matrix, cols)  # (N, F, L)
    if bias is not None:
        out += bias.reshape(1, -1, 1)
    return out, cols


def bn_fold(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Folded inference batch-norm: ``x * scale + shift`` per channel.

    ``scale`` and ``shift`` are 1-D per-channel vectors broadcast over
    axis 1 of ``x``; the multiply and the add each round separately.
    """
    broadcast = (1, scale.size) + (1,) * (x.ndim - 2)
    out = x * scale.reshape(broadcast)
    out += shift.reshape(broadcast)
    return out


def bn_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Inference batch-norm from raw statistics: fold then apply.

    ``scale``/``shift`` derivation uses the exact elementwise composition
    the batch-norm layer's inference branch performs (add, sqrt, divide,
    multiply, subtract — each correctly rounded), followed by
    :func:`bn_fold`'s multiply-then-add, so a backend implementing the
    same steps is bit-identical end to end.
    """
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = weight * inv_std
    shift = bias - mean * scale
    return bn_fold(x, scale, shift)


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU with multiply-by-mask semantics: ``x * (x > 0)``.

    Negative inputs map to ``-0.0`` and NaN propagates, exactly like the
    autograd mask composition; backends must preserve both.
    """
    return x * (x > 0)


def delta_table(values: np.ndarray, num_bits: int) -> np.ndarray:
    """``(num_bits, size)`` signed value change for every single-bit flip.

    ``values`` must already be flat int64 within the ``num_bits`` range;
    validation lives in :func:`repro.nn.bitops.bit_flip_delta_table`.
    """
    mask = (1 << num_bits) - 1
    patterns = values & mask
    bit_positions = np.arange(num_bits, dtype=np.int64)[:, None]
    bits = (patterns[None, :] >> bit_positions) & 1
    magnitudes = np.int64(1) << bit_positions
    table = np.where(bits == 1, -magnitudes, magnitudes)
    # Sign bit: setting it subtracts 2**bit, clearing it adds 2**bit.
    table[num_bits - 1] = -table[num_bits - 1]
    return table


def delta_column(value: int, num_bits: int) -> np.ndarray:
    """One column of :func:`delta_table` for a single integer value."""
    return delta_table(np.asarray([value], dtype=np.int64), num_bits)[:, 0]


KERNELS = {
    "im2col": im2col,
    "col2im": col2im,
    "conv2d_forward": conv2d_forward,
    "bn_fold": bn_fold,
    "bn_infer": bn_infer,
    "relu": relu,
    "delta_table": delta_table,
    "delta_column": delta_column,
}
