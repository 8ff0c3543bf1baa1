"""Augmented adaptation dynamics with constant-memory sensitivities.

The task head follows the gradient flow dW/dt = -grad L(W) of the inner
loss, starting at W0.  Because the cross-entropy gradient is a sum of
rank-one matrices over the training embeddings, the trajectory stays in
the affine subspace W(t) = W0 - sum_m s_m(t) phi_m', so only the (M, N)
coefficients s have to be integrated:

    ds_m/dt = (p_m(t) - y_m) / M - lam s_m(t),         s_m(0) = 0.

The logits are phi W(t)' = P0 - G s with P0 = phi W0' and G the Gram
matrix of the embeddings, both fixed per task (``TaskConstants``), so W
itself is rebuilt only once, at T.

The Jacobians of W(T) in W0 and in each training embedding admit the same
compression.  With A_i(t) the per-example curvature blocks and G the Gram
matrix of the embeddings,

    dB[i,j]/dt = 1(i=j) A_i - lam B[i,j] - A_i sum_m G[i,m] B[m,j]
    dz[i,j,m]/dt = -A_i (1(i=j) s_m + 1(i=m) s_j + sum_k G[i,k] z[k,j,m])
                   - lam z[i,j,m]

with B(0) = 0 (M, M blocks of N x N) and z(0) = 0 (M^3 vectors of length
N).

Every column of every B[i,j] and every z[i,j,m] obeys the same linear
operator X -> -A_i sum_k G[i,k] X[k] - lam X; only the forcing differs.
The operator and the forcing are both symmetric in (j, m), so
z[i,j,m] = z[i,m,j] exactly.  The integrated state is therefore s followed
by one tangent block X of shape (M, K, N) with K = M N + M (M + 1) / 2:
row X[i, j N + b] is column b of B[i,j], and the rows after the first M N
hold z[i,j,m] for the pairs j <= m in row-major order.  The flat state has
M N + M^2 N^2 + M^2 (M + 1) N / 2 entries regardless of the horizon T.

Each tangent row X[:, r, :] is the forward-mode derivative of s along one
direction of the two per-task inputs P0 = phi W0' and G: B[:, j] along
each entry of row j of P0 (M N directions), and z[:, j, m] along the
symmetric G direction E_jm + E_mj (M (M + 1) / 2 directions).  K counts
exactly these input directions, so the compact layout is already minimal
for forward mode.

dopri5 integrates the block in chunks of rows (``solver.TangentBlock``),
which rests on two facts.  ds/dt never reads X.  And once s is known,
every row X[:, r, :] evolves on its own: G mixes only across the examples
i and A_i only across the N lanes, and the forcing of a row reads s
alone.  ``tangent_rows`` is the one place the X equation is written; on
all K rows it is one (M x M)(M x K N) Gram product, the forcing added in
place, and one batched product with the A_i: O(M^3 N^2 + M^4 N / 2 +
M^2 N^3) multiply-adds after the Gram matrix is cached.

The proximal weight lam enters both sensitivity equations as a plain
linear decay term outside the curvature product: the lam I block of the
loss Hessian acts directly on each basis coefficient, exactly as in the
B equation.  All equations reduce to the unregularized ones at lam = 0.

``adapt`` hands out s and X as views of the integrator's final vector.
The projections in ``metagrad`` read X as it is, one contraction for both
meta-gradients; B and the full z are built only by the reference code in
``oracles``, for the dense Jacobians that check the projections.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from comln.loss import (
    DimensionMismatchError,
    EmbeddedSet,
    LossConfig,
    curvature_from_probs,
    softmax_rows_in_place,
)
from comln.solver import SolverConfig, StepStats, TangentBlock, integrate

DEFAULT_T_CAP = 100.0
DEFAULT_M_CAP = 64
DEFAULT_MEMORY_BUDGET = 1 << 30


class MemoryBudgetError(RuntimeError):
    """The augmented state would not fit the configured memory budget."""


class TaskConstants:
    """What every right-hand side of one task reads; fixed along the flow.

    Since W(t) = W0 - s' phi, the logits phi W(t)' are P0 - G s with
    P0 = phi W0' and the Gram matrix G[i, j] = phi_i' phi_j, so one
    product per evaluation replaces rebuilding W.  ``target`` is the label
    matrix Y / M and ``lam`` the proximal weight.  ``gram_lam`` stacks G
    over lam I, and G is its top half, so that one product gives G s and
    lam s; ``column`` holds M, so that the softmax divides each row by M.

    The rest is the head's scratch, made once per task and overwritten by
    every evaluation: ``gram_s`` and ``lam_s``, the halves of ``products``;
    ``probs``, the logits and then p / M; the (M, 1) ``row_max`` and
    ``row_sum``.  So one TaskConstants serves one integration at a time,
    and no array an evaluation returns is scratch.
    """

    def __init__(self, W0: np.ndarray, data: EmbeddedSet, cfg: LossConfig) -> None:
        W0 = np.asarray(W0, dtype=np.float64)
        phi = data.features
        if W0.shape != (data.way, data.dim):
            raise DimensionMismatchError(
                f"cannot combine W0 {W0.shape} with phi {phi.shape} "
                f"and {data.way} classes"
            )
        m, n = data.count, data.way
        self.P0, self.target, self.lam = phi @ W0.T, data.labels / m, cfg.lam
        self.gram_lam = np.vstack((phi @ phi.T, cfg.lam * np.eye(m)))
        self.G = self.gram_lam[:m]
        self.column = np.full((n, 1), float(m))
        self.products = np.empty((2 * m, n))
        self.gram_s, self.lam_s = self.products[:m], self.products[m:]
        self.probs = np.empty((m, n))
        self.row_max, self.row_sum = np.empty((m, 1)), np.empty((m, 1))


@dataclass(frozen=True)
class Horizon:
    """Adaptation time, parametrized on the log scale so T stays positive."""

    log_T: float

    @classmethod
    def from_T(cls, T: float) -> "Horizon":
        if not T > 0:
            raise ValueError(f"horizon T must be positive, got {T}")
        return cls(float(np.log(T)))

    @property
    def T(self) -> float:
        return float(np.exp(self.log_T))


def _tangent_rows(m: int, n: int) -> int:
    """Rows of X[i]: M N columns of B[i, :], then M (M + 1) / 2 pairs of z."""
    return m * n + m * (m + 1) // 2


def state_entries(m: int, n: int, track: bool) -> int:
    """Entries of the flat state the solver integrates.

    M N for s alone; with the tangent block M N + M^2 N^2 + M^2 (M + 1) N / 2.
    """
    if not track:
        return m * n
    return m * n + m * _tangent_rows(m, n) * n


@dataclass(frozen=True)
class AugmentedState:
    """Adaptation coefficients s (M, N) and, when tracked, the tangent block X.

    X has shape (M, K, N) in the compact layout of ``CompactLayout``; it is
    None when the sensitivities were not tracked.
    """

    s: np.ndarray
    X: np.ndarray | None

    @property
    def track_sensitivities(self) -> bool:
        return self.X is not None

    @property
    def nbytes(self) -> int:
        """Bytes of the flat state the solver integrated."""
        m, n = self.s.shape
        return 8 * state_entries(m, n, self.track_sensitivities)


class CompactLayout:
    """Where s and the tangent block X sit in the tracked flat vector.

    z[i,j,m] for the pair j <= m sits in row M N + pair of X[i], with the
    pairs in the order of ``pair_j`` and ``pair_m``.
    """

    def __init__(self, m: int, n: int) -> None:
        self.m, self.n = m, n
        self.rows = _tangent_rows(m, n)
        self.size = state_entries(m, n, True)
        self.pair_j, self.pair_m = np.triu_indices(m)
        # compact_layout hands the same arrays to every caller.
        self.pair_j.setflags(write=False)
        self.pair_m.setflags(write=False)


@functools.lru_cache(maxsize=16)
def compact_layout(m: int, n: int) -> CompactLayout:
    """The tracked layout for M examples and N classes, built once per shape."""
    return CompactLayout(m, n)


@functools.lru_cache(maxsize=256)
def _row_forcing(m: int, n: int, lo: int, hi: int) -> Tuple[np.ndarray, ...]:
    """Where the forcing enters rows lo:hi of X, built once per chunk.

    Returns flat indices into an (M, hi - lo, N) array of those rows: the
    entries (i N + b, b) of X[i], which take the identity in dB[i,i], and
    the entries of z[j,j,m] and z[m,j,m]; then the flat indices of s_m and
    s_j, which force the latter two.
    """
    count = hi - lo
    lane = np.arange(n)
    r = np.arange(lo, min(hi, m * n))
    eye = ((r // n * count + r - lo) * n + r % n).ravel()
    pairs = np.arange(max(lo - m * n, 0), max(hi - m * n, 0))
    layout = compact_layout(m, n)
    j = layout.pair_j[pairs][:, None]
    k = layout.pair_m[pairs][:, None]
    row = (m * n + pairs - lo)[:, None]
    at_j = ((j * count + row) * n + lane).ravel()
    at_m = ((k * count + row) * n + lane).ravel()
    indices = (eye, at_j, at_m, (k * n + lane).ravel(), (j * n + lane).ravel())
    for index in indices:
        index.setflags(write=False)
    return indices


def reconstruct_W(W0: np.ndarray, s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Classifier weights W = W0 - sum_m s_m phi_m' at the current state."""
    W0 = np.asarray(W0, dtype=np.float64)
    if s.shape[0] != phi.shape[0] or W0.shape != (s.shape[1], phi.shape[1]):
        raise DimensionMismatchError(
            f"cannot combine W0 {W0.shape}, s {s.shape}, phi {phi.shape}"
        )
    return W0 - s.T @ phi


def _probs_and_rate(c: TaskConstants, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Shared head of both right-hand sides at the current (M, N) s.

    Returns q = softmax(P0 - G s) / M by rows, in the scratch ``c.probs``
    that the next evaluation overwrites, and a new ds/dt = q - Y / M - lam s.
    """
    np.dot(c.gram_lam, s, c.products)
    np.subtract(c.P0, c.gram_s, c.probs)
    q = softmax_rows_in_place(c.probs, c.column, c.row_max, c.row_sum)
    ds = np.subtract(q, c.target)
    ds -= c.lam_s
    return q, ds


def rhs_adapt(c: TaskConstants, flat: np.ndarray) -> np.ndarray:
    """Time derivative of the flat adaptation coefficients s (M N entries)."""
    _, ds = _probs_and_rate(c, flat.reshape(c.P0.shape))
    return ds.reshape(-1)


def _rate_and_curvature(c: TaskConstants, s: np.ndarray):
    """ds/dt at the flat s, and the negated curvature blocks -A_i there."""
    q, ds = _probs_and_rate(c, s.reshape(c.P0.shape))
    return ds.reshape(-1), curvature_from_probs(q)


def tangent_rows(
    c: TaskConstants,
    s: np.ndarray,
    neg_A: np.ndarray,
    X: np.ndarray,
    lo: int,
    hi: int,
    out: np.ndarray,
) -> None:
    """Write dX/dt for the rows X = X[:, lo:hi] of the tangent block to out.

    ``s`` is the flat s and ``neg_A`` holds -A_i at the same state; X and
    out have shape (M, hi - lo, N).  This is the only place the B and z
    equations are written down.
    """
    m = X.shape[0]
    eye, at_j, at_m, s_m, s_j = _row_forcing(m, X.shape[2], lo, hi)
    # dX[i] = Y[i] (-A_i) - lam X[i] with Y[i] = sum_k G[i,k] X[k] + forcing:
    # -I in the B[i,i] rows, s_m at i = j and s_j at i = m in z[i,j,m].
    # The spent Y holds lam X, so no further array of the rows is made.
    Y = c.G @ X.reshape(m, -1)
    forced = Y.reshape(-1)
    # A chunk holds B rows, z rows or both; an empty index still costs.
    if eye.size:
        forced[eye] -= 1.0
    if at_j.size:
        forced[at_j] += s[s_m]
        forced[at_m] += s[s_j]
    Y = Y.reshape(X.shape)
    np.matmul(Y, neg_A, out=out)
    if c.lam != 0.0:
        out -= np.multiply(X, c.lam, out=Y)


def rhs_full(c: TaskConstants, flat: np.ndarray, layout: CompactLayout) -> np.ndarray:
    """Time derivative of the tracked state (s, X) in the compact layout."""
    if flat.shape != (layout.size,):
        raise ValueError("rhs_full requires a tracked state; use rhs_adapt")
    m, n, mn = layout.m, layout.n, layout.m * layout.n
    if c.P0.shape != (m, n) or c.G.shape != (m, m):
        raise DimensionMismatchError("per-task constants do not match the layout")
    shape = (m, layout.rows, n)
    values = np.empty(layout.size)
    values[:mn], neg_A = _rate_and_curvature(c, flat[:mn])
    tangent_rows(
        c,
        flat[:mn],
        neg_A,
        flat[mn:].reshape(shape),
        0,
        layout.rows,
        values[mn:].reshape(shape),
    )
    return values


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

    Returns the adapted weights W(T), the final augmented state (with the
    tangent block X only when ``track``), and the solver statistics.  The
    horizon is capped at ``t_cap`` and the augmented state must fit
    ``memory_budget`` bytes before anything is allocated.  The budget bounds
    the state, not the integrator: dopri5 holds three state-sized vectors
    plus chunk scratch of 15 chunk-sized vectors (about 15 *
    ``solver.CHUNK_BYTES``), or one matrix of 15 state-sized rows for an
    untracked state or one within a chunk.
    """
    W0 = np.asarray(W0, dtype=np.float64)
    data = EmbeddedSet(phi_train, labels)
    m, n = data.count, data.way
    T = horizon.T
    # Written so that a NaN T fails it too.
    if not T <= t_cap:
        raise ValueError(f"horizon T={T:g} is not within the hard cap {t_cap:g}")
    if m > m_cap:
        raise MemoryBudgetError(f"M={m} exceeds the example cap {m_cap}")
    flat_entries = state_entries(m, n, track)
    if flat_entries * 8 > memory_budget:
        raise MemoryBudgetError(
            f"augmented state needs {flat_entries * 8} bytes, "
            f"budget is {memory_budget}"
        )

    consts = TaskConstants(W0, data, cfg)

    if track:
        layout = compact_layout(m, n)

        def rhs(flat: np.ndarray) -> np.ndarray:
            return rhs_full(consts, flat, layout)

        # dopri5 reads the block from the rhs and integrates X in row
        # chunks; euler and rk4 call rhs_full.  As an attribute the block
        # survives wrappers made with functools.wraps, which copy it.  Its
        # kernels are looked up by module name at each call, as rhs_full
        # is, so that rebinding either name reaches the chunked path too.
        rhs.tangent = TangentBlock(
            m * n,
            (m, layout.rows, n),
            lambda s: _rate_and_curvature(consts, s),
            lambda u, neg_A, X, lo, hi, out: tangent_rows(
                consts, u, neg_A, X, lo, hi, out
            ),
        )

    else:

        def rhs(flat: np.ndarray) -> np.ndarray:
            return rhs_adapt(consts, flat)

    end, stats = integrate(rhs, np.zeros(flat_entries), 0.0, T, solver)
    s = end[: m * n].reshape(m, n)
    X = end[m * n :].reshape(m, layout.rows, n) if track else None
    W_T = reconstruct_W(W0, s, data.features)
    return W_T, AugmentedState(s, X), stats
