"""Augmented adaptation dynamics with constant-memory sensitivities.

The task head follows the gradient flow dW/dt = -grad L(W) of the inner
loss, starting at W0.  Because the cross-entropy gradient is a sum of
rank-one matrices over the training embeddings, the trajectory stays in
the affine subspace W(t) = W0 - sum_m s_m(t) phi_m', so only the (M, N)
coefficients s have to be integrated:

    ds_m/dt = (p_m(t) - y_m) / M - lam s_m(t),         s_m(0) = 0.

The Jacobians of W(T) in W0 and in each training embedding admit the same
compression.  With A_i(t) the per-example curvature blocks and G the Gram
matrix of the embeddings,

    dB[i,j]/dt = 1(i=j) A_i - lam B[i,j] - A_i sum_m G[i,m] B[m,j]
    dz[i,j,m]/dt = -A_i (1(i=j) s_m + 1(i=m) s_j + sum_k G[i,k] z[k,j,m])
                   - lam z[i,j,m]

with B(0) = 0 (M, M blocks of N x N) and z(0) = 0 (M^3 vectors of length
N).  The flat augmented state therefore has M N + M^2 N^2 + M^3 N entries
regardless of the horizon T, and one right-hand-side evaluation costs
O(M^3 N^2 + M^4 N) after the Gram matrix is cached.

The proximal weight lam enters both sensitivity equations as a plain
linear decay term outside the curvature product: the lam I block of the
loss Hessian acts directly on each basis coefficient, exactly as in the
B equation.  All equations reduce to the unregularized ones at lam = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from comln.loss import (
    DimensionMismatchError,
    EmbeddedSet,
    LossConfig,
    _softmax_rows,
    curvature_from_probs,
)
from comln.solver import FlatState, SolverConfig, StepStats, integrate

DEFAULT_T_CAP = 100.0
DEFAULT_M_CAP = 64
DEFAULT_MEMORY_BUDGET = 1 << 30


class MemoryBudgetError(RuntimeError):
    """The augmented state would not fit the configured memory budget."""


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise inner products G[i, j] = phi_i' phi_j of the train set."""

    G: np.ndarray

    @classmethod
    def of(cls, phi: np.ndarray) -> "GramMatrix":
        phi = np.asarray(phi, dtype=np.float64)
        return cls(phi @ phi.T)


@dataclass(frozen=True)
class Horizon:
    """Adaptation time, parametrized on the log scale so T stays positive."""

    log_T: float

    @classmethod
    def from_T(cls, T: float) -> "Horizon":
        if T <= 0:
            raise ValueError("horizon T must be positive")
        return cls(float(np.log(T)))

    @property
    def T(self) -> float:
        return float(np.exp(self.log_T))


@dataclass(frozen=True)
class AugmentedState:
    """Adaptation coefficients s plus, when tracked, sensitivities B and z."""

    s: np.ndarray
    B: np.ndarray | None
    z: np.ndarray | None
    track_sensitivities: bool

    @classmethod
    def zero(cls, m: int, n: int, track: bool) -> "AugmentedState":
        if track:
            return cls(
                np.zeros((m, n)),
                np.zeros((m, m, n, n)),
                np.zeros((m, m, m, n)),
                True,
            )
        return cls(np.zeros((m, n)), None, None, False)

    @property
    def nbytes(self) -> int:
        total = self.s.nbytes
        if self.track_sensitivities:
            total += self.B.nbytes + self.z.nbytes
        return total

    @property
    def flat_size(self) -> int:
        m, n = self.s.shape
        if self.track_sensitivities:
            return m * n + m * m * n * n + m * m * m * n
        return m * n


def reconstruct_W(W0: np.ndarray, s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Classifier weights W = W0 - sum_m s_m phi_m' at the current state."""
    W0 = np.asarray(W0, dtype=np.float64)
    if s.shape[0] != phi.shape[0] or W0.shape != (s.shape[1], phi.shape[1]):
        raise DimensionMismatchError(
            f"cannot combine W0 {W0.shape}, s {s.shape}, phi {phi.shape}"
        )
    return W0 - s.T @ phi


def _probs_and_residual_rate(W0, data, cfg, s):
    """Shared head of both right-hand sides: p, ds/dt at the current s."""
    W = reconstruct_W(W0, s, data.features)
    probs = _softmax_rows(data.features @ W.T)
    ds = (probs - data.labels) / data.count
    if cfg.lam != 0.0:
        ds = ds - cfg.lam * s
    return probs, ds


def rhs_adapt(
    W0: np.ndarray, data: EmbeddedSet, cfg: LossConfig, s: np.ndarray
) -> np.ndarray:
    """Time derivative of the adaptation coefficients s (shape (M, N))."""
    _, ds = _probs_and_residual_rate(W0, data, cfg, s)
    return ds


def rhs_full(
    W0: np.ndarray,
    data: EmbeddedSet,
    cfg: LossConfig,
    state: AugmentedState,
    gram: GramMatrix,
) -> AugmentedState:
    """Time derivative of the full augmented state (s, B, z)."""
    if not state.track_sensitivities:
        raise ValueError("rhs_full requires a tracked state; use rhs_adapt")
    s, B, z = state.s, state.B, state.z
    m = data.count
    if gram.G.shape != (m, m):
        raise DimensionMismatchError("Gram matrix does not match the data")
    probs, ds = _probs_and_residual_rate(W0, data, cfg, s)
    A = curvature_from_probs(probs)
    idx = np.arange(m)

    # dB[i,j] = 1(i=j) A_i - lam B[i,j] - A_i sum_k G[i,k] B[k,j]
    # The products are negated in place and the spent products GB and
    # inner hold lam B and lam z, so no further state-sized array is made.
    GB = np.tensordot(gram.G, B, axes=(1, 0))
    dB = np.matmul(A[:, None, :, :], GB)
    np.negative(dB, out=dB)
    dB[idx, idx] += A
    if cfg.lam != 0.0:
        dB -= np.multiply(B, cfg.lam, out=GB)

    # dz[i,j,m] = -A_i (1(i=j) s_m + 1(i=m) s_j + sum_k G[i,k] z[k,j,m])
    #             - lam z[i,j,m]
    inner = np.tensordot(gram.G, z, axes=(1, 0))
    inner[idx, idx] += s
    inner[idx, :, idx] += s
    n = s.shape[1]
    dz = np.matmul(inner.reshape(m, m * m, n), A.transpose(0, 2, 1)).reshape(
        m, m, m, n
    )
    np.negative(dz, out=dz)
    if cfg.lam != 0.0:
        dz -= np.multiply(z, cfg.lam, out=inner)

    return AugmentedState(ds, dB, dz, True)


def state_to_flat(state: AugmentedState) -> FlatState:
    """Flatten (s, then B row-major, then z row-major) into one vector."""
    if state.track_sensitivities:
        segments = [("s", state.s), ("B", state.B), ("z", state.z)]
    else:
        segments = [("s", state.s)]
    return FlatState.pack(segments)


def flat_to_state(flat: FlatState, track: bool) -> AugmentedState:
    if track:
        return AugmentedState(
            flat.view("s").copy(), flat.view("B").copy(), flat.view("z").copy(), True
        )
    return AugmentedState(flat.view("s").copy(), None, None, False)


def adapt(
    W0: np.ndarray,
    phi_train: np.ndarray,
    labels: np.ndarray,
    cfg: LossConfig,
    horizon: Horizon,
    solver: SolverConfig,
    track: bool,
    t_cap: float = DEFAULT_T_CAP,
    m_cap: int = DEFAULT_M_CAP,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> Tuple[np.ndarray, AugmentedState, StepStats]:
    """Integrate the adaptation flow from 0 to horizon.T.

    Returns the adapted weights W(T), the final augmented state (with B
    and z populated only when ``track``), and the solver statistics.  The
    horizon is capped at ``t_cap`` and the augmented state must fit
    ``memory_budget`` bytes before anything is allocated.
    """
    W0 = np.asarray(W0, dtype=np.float64)
    data = EmbeddedSet(phi_train, labels)
    m, n = data.count, data.way
    T = horizon.T
    if T > t_cap:
        raise ValueError(f"horizon T={T:g} exceeds the hard cap {t_cap:g}")
    if m > m_cap:
        raise MemoryBudgetError(f"M={m} exceeds the example cap {m_cap}")
    flat_entries = m * n + (m * m * n * n + m * m * m * n if track else 0)
    if flat_entries * 8 > memory_budget:
        raise MemoryBudgetError(
            f"augmented state needs {flat_entries * 8} bytes, "
            f"budget is {memory_budget}"
        )

    gram = GramMatrix.of(data.features)
    y0 = state_to_flat(AugmentedState.zero(m, n, track))
    layout = y0.layout
    # Segment bounds of s, B and z in the flat vector, in state_to_flat order.
    s_end = m * n
    B_end = s_end + m * m * n * n

    if track:

        def rhs(flat: FlatState) -> FlatState:
            v = flat.values
            state = AugmentedState(
                v[:s_end].reshape(m, n),
                v[s_end:B_end].reshape(m, m, n, n),
                v[B_end:].reshape(m, m, m, n),
                True,
            )
            d = rhs_full(W0, data, cfg, state, gram)
            values = np.concatenate((d.s.ravel(), d.B.ravel(), d.z.ravel()))
            return FlatState.wrap(values, layout)

    else:

        def rhs(flat: FlatState) -> FlatState:
            ds = rhs_adapt(W0, data, cfg, flat.values.reshape(m, n))
            return FlatState.wrap(ds.ravel(), layout)

    end, stats = integrate(rhs, y0, 0.0, T, solver)
    state_T = flat_to_state(end, track)
    W_T = reconstruct_W(W0, state_T.s, data.features)
    return W_T, state_T, stats
