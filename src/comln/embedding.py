"""Small fully-connected feature extractor with an explicit reverse pass.

The embedding network maps raw inputs to the d-dimensional features the
linear classifier head operates on.  It is shared across tasks and updated
only by the outer loop, so its backward pass receives the gradient in
every embedded row and returns gradients in the layer parameters, summed
over the rows.  A set of rows goes through each layer as one matrix.

An empty layer list is the identity backbone: features are the raw inputs
and the parameter gradient is empty.  The final layer's activation is
always the identity so embeddings live in an unconstrained linear space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from comln.loss import DimensionMismatchError

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class Layer:
    """One affine layer followed by a pointwise activation."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise DimensionMismatchError("layer weight/bias shapes disagree")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class EmbeddingParams:
    """Ordered layers of the extractor; empty means the identity map.  The
    output dimension is the last layer's width, else ``input_dim``."""

    layers: Tuple[Layer, ...]
    input_dim: int

    def __post_init__(self) -> None:
        dim = self.input_dim
        for layer in self.layers:
            if layer.weight.shape[1] != dim:
                raise DimensionMismatchError(
                    f"layer expects input {layer.weight.shape[1]}, got {dim}"
                )
            dim = layer.weight.shape[0]
        if self.layers and self.layers[-1].activation != "identity":
            raise ValueError("final activation must be identity")

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0] if self.layers else self.input_dim


def init_embedding(
    dims: Sequence[int],
    seed: int,
    hidden_activation: str = "relu",
) -> EmbeddingParams:
    """Build an extractor for the dimension chain ``dims``.

    ``dims = [in]`` yields the identity backbone; ``[in, h, out]`` a
    two-layer net with ``hidden_activation`` between.  Weights are drawn
    uniform in [-a, a] with a = sqrt(6 / (d_in + d_out)); biases are zero.
    """
    dims = list(dims)
    if len(dims) < 1:
        raise ValueError("dims must name at least the input dimension")
    rng = np.random.default_rng(seed)
    layers: List[Layer] = []
    for i in range(len(dims) - 1):
        d_in, d_out = dims[i], dims[i + 1]
        a = np.sqrt(6.0 / (d_in + d_out))
        weight = rng.uniform(-a, a, size=(d_out, d_in))
        act = "identity" if i == len(dims) - 2 else hidden_activation
        layers.append(Layer(weight, np.zeros(d_out), act))
    return EmbeddingParams(tuple(layers), dims[0])


def _apply_activation(name: str, x: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "tanh":
        return np.tanh(x)
    return x


def _activation_derivative(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (pre > 0).astype(np.float64)
    if name == "tanh":
        t = np.tanh(pre)
        return 1.0 - t * t
    return np.ones_like(pre)


def embed_set(
    params: EmbeddingParams, inputs: np.ndarray
) -> tuple[np.ndarray, List[np.ndarray]]:
    """Embed every row of ``inputs`` in one matrix pass per layer.

    Returns the (rows, output_dim) features and the tape: the input
    matrix, then each layer's (rows, width) pre-activation matrix.
    """
    # A copy: with no layers it is also the returned feature matrix.
    x = np.array(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionMismatchError(
            f"inputs of shape {x.shape} do not have input_dim {params.input_dim}"
        )
    tape = [x]
    h = x
    for layer in params.layers:
        pre = h @ layer.weight.T
        pre += layer.bias
        tape.append(pre)
        h = _apply_activation(layer.activation, pre)
    return h, tape


def backward(
    params: EmbeddingParams, tape: List[np.ndarray], grad_phi: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Exact gradient of sum_r <grad_phi[r], f(x_r)> in the layer parameters.

    ``tape`` must come from ``embed_set`` with the same parameters, and
    ``grad_phi`` has one row per embedded row.  Returns one
    (d_weight, d_bias) pair per layer, summed over the rows.
    """
    grad_phi = np.asarray(grad_phi, dtype=np.float64)
    if len(tape) != len(params.layers) + 1:
        raise DimensionMismatchError(
            f"tape has {len(tape)} entries for {len(params.layers)} layers"
        )
    rows = tape[0].shape[0]
    if grad_phi.shape != (rows, params.output_dim):
        raise DimensionMismatchError(
            f"grad shape {grad_phi.shape} does not match {(rows, params.output_dim)}"
        )
    for layer, pre in zip(params.layers, tape[1:]):
        if pre.shape != (rows, layer.weight.shape[0]):
            raise DimensionMismatchError(
                "tape pre-activation shapes disagree with layers"
            )

    grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    up = grad_phi
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        delta = up * _activation_derivative(layer.activation, tape[i + 1])
        inp = tape[i] if i == 0 else _apply_activation(
            params.layers[i - 1].activation, tape[i]
        )
        grads[i] = (delta.T @ inp, delta.sum(axis=0))
        up = delta @ layer.weight
    return grads
