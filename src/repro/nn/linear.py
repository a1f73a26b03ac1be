"""Linear (affine) layers and the MLP head used by TMN (Eq. 4 and Eq. 13)."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..autograd import Tensor
from . import init
from .activations import Activation, LeakyReLU
from .module import Module, Parameter

__all__ = ["Linear", "MLP"]


class Linear(Module):
    """Affine map ``y = x W + b``.

    Weights use PyTorch's default Kaiming-uniform scheme so behaviour is
    comparable with the paper's PyTorch implementation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear features must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((in_features, out_features), rng), name="weight"
        )
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), rng, bound), name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map over the last axis."""
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class MLP(Module):
    """Multi-layer perceptron: Linear → activation → ... → Linear.

    Row-wise, as Linear broadcasts over leading axes: TMN's Eq. 13 head.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activation: Optional[Activation] = None,
        rng: Optional[np.random.Generator] = None,
        final_activation: bool = False,
    ):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.activation = activation if activation is not None else LeakyReLU(0.1)
        self.final_activation = final_activation
        self.linears = []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layer = Linear(n_in, n_out, rng=rng)
            self.linears.append(layer)
            self.register_module(f"linear{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map over the last axis."""
        last = len(self.linears) - 1
        for i, layer in enumerate(self.linears):
            x = layer(x)
            if i < last or self.final_activation:
                x = self.activation(x)
        return x
