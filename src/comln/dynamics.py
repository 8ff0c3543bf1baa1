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
alone.  ``tangent_rows`` is the one place the X equation is written, but
for its decay (below); on all K rows it is one (M x M)(M x K N) Gram
product, the forcing added in place, and one batched product with the
A_i: O(M^3 N^2 + M^4 N / 2 + M^2 N^3) multiply-adds after the Gram matrix
is cached.

The proximal weight lam enters every equation as the same plain linear
decay -lam u outside the curvature product: the lam I block of the loss
Hessian acts directly on each basis coefficient.  So a tracked flow
writes it once per kernel, as one pass over the contiguous stage row the
kernel is bound to (``_decay``): s and X of every task on one segment,
the head or one chunk of rows on the chunked path; the head and
``tangent_rows`` leave it out.  The untracked head subtracts the lam s
that the Gram product gives with G s.  Every entry rounds as
fl(fl(g) - fl(lam u)) either way.  All equations reduce to the
unregularized ones at lam = 0, where no decay is bound.

``adapt`` hands out s and X as views of the integrator's final vector.
The projections in ``metagrad`` read X as it is, one contraction for both
meta-gradients; B and the full z are built only by the reference code in
``oracles``, for the dense Jacobians that check the projections.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from comln.loss import (
    DimensionMismatchError,
    EmbeddedSet,
    LossConfig,
    block_diagonals,
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
    """What every right-hand side of a batch of tasks reads; fixed along the flow.

    Since W(t) = W0 - s' phi, the logits phi W(t)' are P0 - G s with
    P0 = phi W0' and the Gram matrix G[i, j] = phi_i' phi_j, so one
    product per evaluation replaces rebuilding W.  ``target`` is the label
    matrix Y / M and ``lam`` the proximal weight.  ``gram_lam`` stacks G
    over lam I, and G is its top half, so that one product gives G s and
    lam s; ``column`` holds M, so that the softmax divides each row by M.

    ``data`` holds ``episodes`` tasks of M rows each, stacked row by row,
    that share W0.  Each array is computed per task as for that task
    alone; with several tasks it gains a leading axis of ``episodes``, and
    ``product(s, out)`` writes the product of ``gram_lam`` and s into out:
    np.matmul over that axis, else the method ``gram_lam.dot``, the product
    np.dot makes without its Python dispatch.

    The rest is the head's scratch, made once per batch and overwritten by
    every evaluation: ``gram_s`` and ``lam_s``, the halves of ``products``;
    ``probs``, the logits and then p / M; the (M, 1) ``row_max`` and
    ``row_sum``.  So one TaskConstants serves one integration at a time,
    and no array an evaluation returns is scratch.
    """

    def __init__(
        self, W0: np.ndarray, data: EmbeddedSet, cfg: LossConfig, episodes: int = 1
    ) -> None:
        W0 = np.asarray(W0, dtype=np.float64)
        phi = data.features
        if W0.shape != (data.way, data.dim):
            raise DimensionMismatchError(
                f"cannot combine W0 {W0.shape} with phi {phi.shape} "
                f"and {data.way} classes"
            )
        m, n = data.count // episodes, data.way
        tasks = phi.reshape(episodes, m, -1)
        self.lam, self.column = cfg.lam, np.full((n, 1), float(m))
        lam_eye = cfg.lam * np.eye(m)
        self._hold(
            np.array([task @ W0.T for task in tasks]),
            data.labels.reshape(episodes, m, n) / m,
            np.array([np.vstack((task @ task.T, lam_eye)) for task in tasks]),
        )

    def _hold(self, P0: np.ndarray, target: np.ndarray, gram_lam: np.ndarray) -> None:
        # The per-task arrays, each with a leading axis of tasks, kept
        # without it for one task; then fresh scratch.
        self.episodes = len(P0)
        if self.episodes == 1:
            P0, target, gram_lam = P0[0], target[0], gram_lam[0]
            self.product = gram_lam.dot
        else:
            self.product = functools.partial(np.matmul, gram_lam)
        m = P0.shape[-2]
        self.P0, self.target, self.gram_lam = P0, target, gram_lam
        self.G = gram_lam[..., :m, :]
        self.products = np.empty(gram_lam.shape[:-1] + P0.shape[-1:])
        self.gram_s, self.lam_s = self.products[..., :m, :], self.products[..., m:, :]
        self.probs = np.empty(P0.shape)
        self.row_max = np.empty(P0.shape[:-1] + (1,))
        self.row_sum = np.empty(P0.shape[:-1] + (1,))

    def take(self, index) -> "TaskConstants":
        """The constants of the tasks at the positions ``index`` of a batch of
        several, in that order."""
        taken = object.__new__(TaskConstants)
        taken.lam, taken.column = self.lam, self.column
        taken._hold(self.P0[index], self.target[index], self.gram_lam[index])
        return taken


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
    None when the sensitivities were not tracked.  The state of a batch of
    tasks has a leading axis of tasks on both.
    """

    s: np.ndarray
    X: np.ndarray | None

    @property
    def track_sensitivities(self) -> bool:
        return self.X is not None

    @property
    def nbytes(self) -> int:
        """Bytes of the flat state the solver integrated, for every task."""
        m, n = self.s.shape[-2:]
        tasks = self.s.size // (m * n)
        return 8 * tasks * state_entries(m, n, self.track_sensitivities)


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
def _row_forcing(
    m: int, n: int, lo: int, hi: int, tasks: int = 1
) -> Tuple[np.ndarray, ...]:
    """Where the forcing enters rows lo:hi of X, built once per chunk.

    Returns flat indices into an (M, hi - lo, N) array of those rows: the
    entries (i N + b, b) of X[i], which take the identity in dB[i,i], and
    the entries of z[j,j,m] and z[m,j,m]; then the flat indices of s_m and
    s_j, which force the latter two, into a tracked state whose first M N
    entries are s.  For a batch of ``tasks`` they index the (tasks, M,
    hi - lo, N) rows and the tracked states of all of them one after
    another.
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
    # Task t's entries follow those of the t tasks before it.
    task = np.arange(tasks)[:, None]
    sizes = (m * count * n,) * 3 + (layout.size,) * 2
    indices = tuple(
        (task * size + index).ravel() for size, index in zip(sizes, indices)
    )
    for index in indices:
        index.setflags(write=False)
    return indices


def reconstruct_W(W0: np.ndarray, s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Classifier weights W = W0 - sum_m s_m phi_m' at the current state.

    s (..., M, N) and phi (..., M, d) may hold a batch of tasks that share
    W0, along a leading axis of both.
    """
    W0 = np.asarray(W0, dtype=np.float64)
    if s.shape[:-1] != phi.shape[:-1] or W0.shape != (s.shape[-1], phi.shape[-1]):
        raise DimensionMismatchError(
            f"cannot combine W0 {W0.shape}, s {s.shape}, phi {phi.shape}"
        )
    return W0 - np.swapaxes(s, -1, -2) @ phi


def _probs_and_rate(c: TaskConstants, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Shared head of both right-hand sides at s, M N entries per task.

    s and out have the shape of ``c.P0``, as the views that the kernels are
    bound to do.  Returns q = softmax(P0 - G s) / M by rows, in the scratch
    ``c.probs`` that the next evaluation overwrites, and writes q - Y / M,
    ds/dt but for the decay -lam s, into out.
    """
    c.product(s, c.products)
    np.subtract(c.P0, c.gram_s, c.probs)
    q = softmax_rows_in_place(c.probs, c.column, c.row_max, c.row_sum)
    np.subtract(q, c.target, out)
    return q


def rhs_adapt(c: TaskConstants, s: np.ndarray, out: np.ndarray) -> None:
    """Time derivative of the adaptation coefficients s, M N entries per task,
    written into ``out``, in the shapes ``_probs_and_rate`` describes: the
    head less the lam s of the Gram product."""
    _probs_and_rate(c, s, out)
    out -= c.lam_s


def _rate_and_curvature(
    c: TaskConstants,
    s: np.ndarray,
    out: np.ndarray,
    neg_A: np.ndarray,
    diagonal: np.ndarray,
) -> None:
    """The tracked head at s: q - Y / M written into out, to which the
    block's decay kernel adds -lam s, and the negated curvature blocks -A_i
    there, written into ``neg_A`` with the view ``diagonal`` of its
    diagonals (see ``curvature_from_probs``)."""
    curvature_from_probs(_probs_and_rate(c, s, out), neg_A, diagonal)


def tangent_rows(
    c: TaskConstants, s, neg_A, X_lanes, Y_lanes, Y, forced, forcing, out
) -> None:
    """Write dX/dt + lam X for rows lo:hi of the tangent block into ``out``.

    ``s`` holds the tracked states of the tasks, or their heads, flat;
    ``neg_A`` holds -A_i there; ``X_lanes`` holds the rows as
    (..., M, (hi - lo) N) and ``out`` their derivatives as (..., M, hi - lo,
    N); ``Y_lanes``, ``Y`` and ``forced`` are one scratch in those shapes and
    flat; ``forcing`` is ``_row_forcing`` of the rows.

    This is the only place the B and z equations are written down; the
    block's ``_decay`` kernel subtracts their decay lam X afterwards.
    """
    eye, at_j, at_m, s_m, s_j = forcing
    # dX[i] = Y[i] (-A_i) - lam X[i] with Y[i] = sum_k G[i,k] X[k] + forcing:
    # -I in the B[i,i] rows, s_m at i = j and s_j at i = m in z[i,j,m].  The
    # decay -lam X[i] is the block's to subtract.
    np.matmul(c.G, X_lanes, out=Y_lanes)
    # Flat, because indexing one axis costs a fraction of indexing two.  A
    # chunk holds B rows, z rows or both; an empty index still costs.
    if eye.size:
        forced[eye] -= 1.0
    if at_j.size:
        forced[at_j] += s[s_m]
        forced[at_m] += s[s_j]
    np.matmul(Y, neg_A, out=out)


def _decay(lam: float, u: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out -= lam u, with lam u formed in ``scratch``: one pass over the
    contiguous stage row of a tracked binding."""
    out -= np.multiply(u, lam, out=scratch)


def rhs_full(c: TaskConstants, flat: np.ndarray, layout: CompactLayout) -> np.ndarray:
    """Time derivative of the tracked state (s, X) in the compact layout, of
    every task of ``c`` one after another: one evaluation of a stage kernel
    of ``_block(c, layout)``."""
    if flat.shape != (c.episodes * layout.size,):
        raise ValueError("rhs_full requires a tracked state; use rhs_adapt")
    m, n = layout.m, layout.n
    if c.P0.shape[-2:] != (m, n) or c.G.shape[-2:] != (m, m):
        raise DimensionMismatchError("per-task constants do not match the layout")
    state = flat.reshape(c.episodes, -1)
    values = np.empty(state.shape)
    bind = _block(c, layout).bind
    bind([state], [values], 0, layout.rows, np.empty(flat.size), None)[0]()
    return values.reshape(-1)


def _in_turn(*kernels: Callable[[], object]) -> None:
    for kernel in kernels:
        kernel()


def _block(c: TaskConstants, layout: CompactLayout | None) -> TangentBlock:
    """The flow of the tasks of ``c`` as the solver integrates it: the head s,
    then the rows of X in ``layout``, or no rows when layout is None.

    Its kernels are looked up by module name at bind time, so that
    rebinding one before integrate runs reaches every method: the head's is
    rhs_adapt with no rows, else _rate_and_curvature.  A tracked block holds
    -A_i at each of the seven stages, which all its bindings share: the
    head's kernels write them and the rows' kernels of the same stage read
    them.  Each stage kernel of a tracked binding at lam != 0 ends in
    _decay over the whole row it is bound to, with ``spare`` as scratch.
    """
    shape = c.P0.shape
    m, n = shape[-2:]
    mn = m * n
    # What each stage's head kernel writes besides ds/dt, and the rows of X.
    curvature, rows = [()] * 7, 0
    if layout is not None:
        neg_A = np.empty((7,) + shape + (n,))
        curvature, rows = list(zip(neg_A, block_diagonals(neg_A))), layout.rows

    def take(index):
        return _block(c.take(index), layout)

    def bind(inputs, derivatives, lo, hi, spare, heads):
        rate, tangent = (_rate_and_curvature if layout else rhs_adapt), tangent_rows
        decay = layout is not None and c.lam != 0.0
        if hi > lo:
            # Made once for every evaluation: the rows' shapes, and their
            # scratch Y at the head of ``spare`` by lanes, by rows and flat.
            rows_shape = shape[:-1] + (hi - lo, n)
            lanes = shape[:-1] + ((hi - lo) * n,)
            forced = spare[: np.prod(rows_shape)]
            Y = (forced.reshape(lanes), forced.reshape(rows_shape), forced)
            forcing = _row_forcing(m, n, lo, hi, c.episodes)
        kernels = []
        for i, (row, d_row) in enumerate(zip(inputs, derivatives)):
            parts, x, dx = [], row, d_row
            if heads is None:
                u, du = x[:, :mn].reshape(shape), dx[:, :mn].reshape(shape)
                parts.append(functools.partial(rate, c, u, du, *curvature[i]))
                x, dx = x[:, mn:], dx[:, mn:]
            if hi > lo:
                # The forcing reads s flat, in the states or the heads.
                s = (inputs if heads is None else heads)[i].reshape(-1)
                parts.append(functools.partial(
                    tangent, c, s, neg_A[i], x.reshape(lanes), *Y, forcing,
                    dx.reshape(rows_shape),
                ))
            if decay:
                scratch = spare[: row.size].reshape(row.shape)
                parts.append(functools.partial(_decay, c.lam, row, d_row, scratch))
            kernel = parts[0]
            if len(parts) > 1:
                kernel = functools.partial(_in_turn, *parts)
            kernels.append(kernel)
        return kernels

    return TangentBlock(mn, (m, rows, n), bind, c.episodes, take)


def adapt(
    W0: np.ndarray,
    phi_train: np.ndarray,
    labels: np.ndarray,
    cfg: LossConfig,
    T: float,
    solver: SolverConfig,
    track: bool,
    t_cap: float = DEFAULT_T_CAP,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    episodes: int | None = None,
) -> Tuple[np.ndarray, AugmentedState, StepStats]:
    """Integrate the adaptation flow from 0 to the end time T.

    Returns the adapted weights W(T), the final augmented state (with the
    tangent block X only when ``track``), and the solver statistics.  T
    must satisfy 0 < T <= ``t_cap``, a task holds at most ``DEFAULT_M_CAP``
    examples, and the augmented state must fit ``memory_budget`` bytes
    before anything is allocated.  The budget bounds the state, not the
    integrator: on a state of several chunks dopri5 holds two state-sized
    vectors plus, for each thread that sweeps chunks, a matrix of 15
    chunk-sized rows (about 15 * ``solver.CHUNK_BYTES``), and it takes seven
    evaluations per step; an untracked state or one within a chunk takes one
    matrix of 15 state-sized rows.

    With ``episodes`` = E, phi_train (E M, d) and labels (E M, N) hold the
    train splits of E tasks of M examples each, stacked row by row, which
    adapt from the same W0 for the same T in one integrate call.  W(T)
    is then (E, N, d), s and X gain a leading axis of E, the budget bounds
    the states of all E tasks, and the StepStats hold the totals over the
    tasks, the largest stiffness and, in ``episodes``, each task's own.
    Under dopri5 each task takes the steps it would take alone; a task whose
    state spans several chunks is integrated one at a time.
    """
    W0 = np.asarray(W0, dtype=np.float64)
    data = EmbeddedSet(phi_train, labels)
    count = 1 if episodes is None else episodes
    if count < 1 or data.count % count:
        raise DimensionMismatchError(
            f"{data.count} rows do not split into {count} tasks of equal size"
        )
    m, n = data.count // count, data.way
    # Written so that a NaN T fails it too.
    if not 0 < T <= t_cap:
        raise ValueError(
            f"horizon T={T:g} is not within (0, {t_cap:g}], the hard cap"
        )
    if m > DEFAULT_M_CAP:
        raise MemoryBudgetError(f"M={m} exceeds the example cap {DEFAULT_M_CAP}")
    flat_entries = count * state_entries(m, n, track)
    if flat_entries * 8 > memory_budget:
        raise MemoryBudgetError(
            f"augmented state needs {flat_entries * 8} bytes, "
            f"budget is {memory_budget}"
        )

    layout = compact_layout(m, n) if track else None
    system = _block(TaskConstants(W0, data, cfg, count), layout)
    end, stats = integrate(system, np.zeros(flat_entries), 0.0, T, solver)
    lead = () if episodes is None else (count,)
    states = end.reshape(count, -1)
    s = states[:, : m * n].reshape(lead + (m, n))
    X = states[:, m * n :].reshape(lead + (m, layout.rows, n)) if track else None
    W_T = reconstruct_W(W0, s, data.features.reshape(lead + (m, -1)))
    return W_T, AugmentedState(s, X), stats
