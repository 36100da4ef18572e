"""Normalisation layers: batch norm (CNNs) and layer norm (transformers)."""

from __future__ import annotations

import numpy as np

from repro.nn import init, kernels
from repro.nn.autograd import Tensor, is_grad_enabled
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class _BatchNorm(Module):
    """Shared implementation for 1-D and 2-D batch normalisation."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _reduce_axes(self, x: Tensor) -> tuple:
        raise NotImplementedError

    def _shape_for_broadcast(self, x: Tensor) -> tuple:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        axes = self._reduce_axes(x)
        shape = self._shape_for_broadcast(x)
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            self.running_mean[...] = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean.data.reshape(-1)
            )
            self.running_var[...] = (
                (1 - self.momentum) * self.running_var + self.momentum * var.data.reshape(-1)
            )
            normalised = (x - mean) / ((var + self.eps) ** 0.5)
            weight = self.weight.reshape(shape)
            bias = self.bias.reshape(shape)
            return normalised * weight + bias
        # Inference mode: the statistics are constants, so the whole layer
        # folds to ``x * scale + shift`` — two full-size passes instead of
        # four.  scale/shift are built from *per-channel* tensor ops, so
        # gradients still reach weight and bias through the graph, and the
        # elementwise form is per-sample independent (stacked-evaluation
        # safe).
        if not (
            is_grad_enabled()
            and (x.requires_grad or self.weight.requires_grad or self.bias.requires_grad)
        ):
            fused = kernels.active("bn_infer")
            if fused is not None:
                # Gradient-free forward with the compiled tier active: one
                # C pass folding the raw statistics and applying them,
                # instead of several per-channel NumPy ops plus two Tensor
                # passes.  Same derivation steps, same multiply-then-add
                # rounding order — bit-identical to the composition below.
                return Tensor(fused(
                    x.data, self.weight.data, self.bias.data,
                    self.running_mean, self.running_var, self.eps,
                ))
            fused = kernels.active("bn_fold")
            if fused is not None:
                # Partial backend (bn_infer dropped or absent): still fold
                # scale/shift here and run the big pass compiled.
                inv_std_vec = 1.0 / np.sqrt(self.running_var + self.eps)
                scale_vec = self.weight.data * inv_std_vec
                shift_vec = self.bias.data - self.running_mean * scale_vec
                return Tensor(fused(x.data, scale_vec, shift_vec))
        inv_std = Tensor(
            (1.0 / np.sqrt(self.running_var + self.eps)).reshape(shape)
        )
        scale = self.weight.reshape(shape) * inv_std
        shift = self.bias.reshape(shape) - Tensor(self.running_mean.reshape(shape)) * scale
        return x * scale + shift


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over ``(N, C, H, W)`` feature maps."""

    def _reduce_axes(self, x: Tensor) -> tuple:
        return (0, 2, 3)

    def _shape_for_broadcast(self, x: Tensor) -> tuple:
        return (1, self.num_features, 1, 1)


class BatchNorm1d(_BatchNorm):
    """Batch normalisation over ``(N, C, L)`` feature maps."""

    def _reduce_axes(self, x: Tensor) -> tuple:
        return (0, 2)

    def _shape_for_broadcast(self, x: Tensor) -> tuple:
        return (1, self.num_features, 1)


class LayerNorm(Module):
    """Layer normalisation over the last dimension (transformer style)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        if normalized_shape <= 0:
            raise ValueError("normalized_shape must be positive")
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)), name="weight")
        self.bias = Parameter(init.zeros((normalized_shape,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalised = (x - mean) / ((var + self.eps) ** 0.5)
        return normalised * self.weight + self.bias
