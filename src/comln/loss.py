"""Softmax cross-entropy inner loss and its structured derivatives.

The inner loss on an embedded training set {(phi_m, y_m)} is

    L(W) = -(1/M) sum_m y_m' log softmax(W phi_m) + (lam/2) ||W - W0||_F^2

with lam >= 0 an optional proximal weight tying the adapted classifier to
its initialization.  Its gradient is a sum of M rank-one matrices plus the
proximal term, so the residual vectors (p_m - y_m) carry the whole
gradient; the curvature decomposes into M small blocks

    A_m = (diag(p_m) - p_m p_m') / M

which are symmetric positive semi-definite and annihilate the all-ones
vector.  The outer (test) loss is always plain unregularized cross-entropy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


class DimensionMismatchError(ValueError):
    """Array shapes passed to an operation do not agree."""


def is_kind(value, kind: str) -> bool:
    """Whether a config value is ``kind``, numpy scalars included: a bool is
    an int to Python, but here "a bool" only, never a count or a real."""
    flag = isinstance(value, (bool, np.bool_))
    if kind == "a bool" or flag:
        return flag and kind == "a bool"
    if kind == "an integer":
        return isinstance(value, numbers.Integral)
    return isinstance(value, numbers.Real) and abs(value) < math.inf


def check_kind(kind: str, config, *names: str) -> None:
    """Raise ValueError unless the fields ``names`` of ``config`` are ``kind``."""
    for name in names:
        if not is_kind(getattr(config, name), kind):
            raise ValueError(f"{name} must be {kind}, not {getattr(config, name)!r}")


@dataclass(frozen=True)
class EmbeddedSet:
    """Embedded examples: features (M, d) with one-hot labels (M, N)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "features", np.asarray(self.features, dtype=np.float64)
        )
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.float64))
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise DimensionMismatchError("features and labels must be 2-d")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DimensionMismatchError(
                f"{self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} label rows"
            )
        if self.features.shape[0] < 1:
            raise DimensionMismatchError("need at least one example")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        labels = self.labels
        one_hot = np.all((labels == 0) | (labels == 1)) and np.all(
            labels.sum(axis=1) == 1.0
        )
        if not one_hot:
            raise ValueError("labels must be one-hot rows")

    @property
    def count(self) -> int:
        return self.features.shape[0]

    def split(self, counts: Sequence[int]) -> List["EmbeddedSet"]:
        """Consecutive runs of ``counts`` rows, as sets that are not checked
        again: they are views of this checked one."""
        bounds = np.cumsum([0, *counts])
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            part = object.__new__(EmbeddedSet)
            object.__setattr__(part, "features", self.features[lo:hi])
            object.__setattr__(part, "labels", self.labels[lo:hi])
            parts.append(part)
        return parts

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def way(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class LossConfig:
    """Inner-loss settings; lam = 0 is the plain cross-entropy flow."""

    lam: float = 0.0

    def __post_init__(self) -> None:
        check_kind("a finite real number", self, "lam")
        if self.lam < 0:
            raise ValueError("proximal weight lam must be non-negative")


def _check_W(W: np.ndarray, data: EmbeddedSet) -> np.ndarray:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape != (data.way, data.dim):
        raise DimensionMismatchError(
            f"classifier shape {W.shape} does not match data ({data.way}, {data.dim})"
        )
    return W


def softmax_rows_in_place(
    logits: np.ndarray,
    column: np.ndarray,
    row_max: np.ndarray | None = None,
    row_sum: np.ndarray | None = None,
) -> np.ndarray:
    """Overwrite a float64 (..., M, N) logit array with its row softmax, each
    row divided by the value that fills the (N, 1) ``column``.

    The row totals are one matrix product with the column, which on short
    rows costs half of a reduction along them.  ``row_max`` and ``row_sum``
    are optional (..., M, 1) buffers for the row maxima and totals.
    """
    # Max-subtraction keeps exp() from overflowing on large logits.
    np.subtract(logits, np.maximum.reduce(logits, -1, None, row_max, True), logits)
    np.exp(logits, logits)
    # np.dot on one matrix, as the method ndarray.dot, which skips the
    # function's Python dispatch: on arrays this small it has less call
    # overhead than np.matmul, which a stack of matrices needs to round as
    # np.dot does on each of them.
    if logits.ndim == 2:
        totals = logits.dot(column, row_sum)
    else:
        totals = np.matmul(logits, column, row_sum)
    np.divide(logits, totals, logits)
    return logits


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def inner_loss(
    W: np.ndarray, W0: np.ndarray, data: EmbeddedSet, cfg: LossConfig
) -> float:
    """Mean cross-entropy on ``data`` plus the proximal penalty."""
    W = _check_W(W, data)
    W0 = _check_W(W0, data)
    logp = _log_softmax_rows(data.features @ W.T)
    ce = -float(np.sum(data.labels * logp)) / data.count
    if cfg.lam == 0.0:
        return ce
    diff = W - W0
    return ce + 0.5 * cfg.lam * float(np.sum(diff * diff))


def inner_grad(
    W: np.ndarray, W0: np.ndarray, data: EmbeddedSet, cfg: LossConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the inner loss and its rank-one residual factors.

    Returns (grad, residuals) with grad of shape (N, d) equal to
    (1/M) sum_m residuals[m] phi_m' + lam (W - W0) and residuals[m] the
    unscaled vector p_m - y_m.
    """
    W = _check_W(W, data)
    W0 = _check_W(W0, data)
    probs = softmax_rows_in_place(data.features @ W.T, np.ones((data.way, 1)))
    residuals = probs - data.labels
    grad = residuals.T @ data.features / data.count
    if cfg.lam != 0.0:
        grad = grad + cfg.lam * (W - W0)
    return grad, residuals


def curvature_from_probs(
    q: np.ndarray, out: np.ndarray, diagonal: np.ndarray
) -> np.ndarray:
    """The negated per-example blocks -A_m = (p_m p_m' - diag(p_m)) / M,
    stacked as an (..., M, N, N) array, from the (..., M, N) array q of the
    rows p_m / M of a row-stochastic p.

    In q the blocks are -A_m = M q_m q_m' - diag(q_m): one outer product,
    exactly symmetric, scaled by M, then the diagonal.  The flow multiplies
    by -A_m, so it takes the sign here at no extra pass.  The blocks are
    written into ``out``, a C-ordered array of their shape whose
    ``block_diagonals`` are ``diagonal``, and returned.
    """
    blocks = np.multiply(q[..., None], q[..., None, :], out)
    blocks *= q.shape[-2]
    diagonal -= q
    return blocks


def block_diagonals(blocks: np.ndarray) -> np.ndarray:
    """The diagonals of a C-ordered stack of (N, N) blocks, as one strided
    (..., N) view."""
    n = blocks.shape[-1]
    return blocks.reshape(blocks.shape[:-2] + (n * n,))[..., :: n + 1]


def outer_partials(
    W_T: np.ndarray, test: EmbeddedSet
) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives of the unregularized test loss at W(T).

    Returns (V, G_phi_test): V = dL_test/dW of shape (N, d), and
    G_phi_test whose row m is the direct derivative of the test loss in
    the m-th test embedding, (p_m - y_m)' W_T / M_test.
    """
    W_T = _check_W(W_T, test)
    probs = softmax_rows_in_place(test.features @ W_T.T, np.ones((test.way, 1)))
    residuals = probs - test.labels
    V = residuals.T @ test.features / test.count
    G_phi_test = residuals @ W_T / test.count
    return V, G_phi_test


def outer_loss(W_T: np.ndarray, test: EmbeddedSet) -> float:
    """Unregularized cross-entropy of W(T) on the test set."""
    W_T = _check_W(W_T, test)
    logp = _log_softmax_rows(test.features @ W_T.T)
    return -float(np.sum(test.labels * logp)) / test.count
