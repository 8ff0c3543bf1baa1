"""ODE integration on one-dimensional float64 state vectors.

Integrates autonomous systems dy/dt = f(y) from t0 to t1 with either a
fixed-step scheme (explicit Euler, classic fourth-order Runge-Kutta) or the
Dormand-Prince 5(4) embedded pair with adaptive step size.  The state is a
single one-dimensional float64 vector; what its entries mean is the
caller's business, except that the system, a TangentBlock, cuts it into
``episodes`` independent states one after another, each a head u followed
by a block X whose rows evolve independently once u is known.  A plain rhs
is the block of one episode whose head is the whole state.  Every method
hands the block's ``bind`` its stage buffers once, and at each stage calls
the zero-argument kernel bind returned for it, which has every view,
scratch array and index it needs made in advance and writes the
derivative into its stage buffer.

Dormand-Prince has the first-same-as-last property: its seventh stage is
the derivative at the new state, so an accepted step hands it to the next
step as its first stage.  A dopri5 run therefore costs, for each episode
of the state, one evaluation plus six per step, accepted or rejected, plus
one per rejected step of a chunked state (see below).  Every stage input
and the error estimate is a single matrix-vector product over a stage
matrix whose rows are y and the seven stages.

dopri5 starts with the step span/100 and scales the step after every
trial by 0.9 err^(-1/5), kept within [0.2, 5].  Only after a first step
accepted with no rejection before it may the step grow by up to 1e4, as
SUNDIALS allows (eta_max1): on a short horizon that start is far more
accurate than asked, and the next step goes straight to the size accuracy
permits instead of climbing there by factors of 5.

dopri5 binds the rows of its stage matrix.  The size of one episode's state
decides the path:

- An episode state that fits one chunk of CHUNK_BYTES is one row of an
  episode axis.  The stage matrix is stage-major, (15, episodes, size), so
  y, y_new, every stage and the error estimate of all rows are each one
  contiguous (episodes, size) array, and the step controller's ufuncs run
  on them.  Each stage input of all rows is one batched product with
  per-row weights, which rounds as np.dot on that row alone, and the block
  evaluates all rows in one call.  Every row keeps its own t, h,
  error norm, accept/reject decision, first-step growth, evaluation budget
  and stiffness, as an ODE solver under jax.vmap does in diffrax (Kidger,
  2021), not one step for the whole batch: a row takes the steps it would
  take alone, bit for bit.  The kernels are bound once per active set: a
  row that reaches t1 leaves it, and the kernels of the block's ``take``
  for the rows left are bound in their place.
- A larger episode state is integrated one episode at a time.  Each step
  first takes all six stages of u, then, chunk by chunk of rows sized by
  CHUNK_BYTES, all six stages of those rows while they stay in cache,
  adding each chunk's share to the whole-vector error norm.  The state
  then lives in three state-sized vectors: y, the candidate y_new and one
  stage vector k.  k holds the first stage when a step starts; each chunk
  copies its part into its stage matrix and, as the sweep leaves it,
  writes its last stage there.  An accepted step swaps y and y_new by
  reference and finds the next first stage in k.  A rejected step
  evaluates the first stage at y again (Hairer, Norsett & Wanner, Solving
  ODEs I, II.5: only the first-same-as-last stage can be recomputed); the
  rhs is deterministic, so that stage is the one the trial overwrote, bit
  for bit.  Each step reads y and k once and writes y_new and k once, and
  every other pass runs over one chunk.  Each segment, the head alone and
  each chunk of rows, is bound once per integration.

euler and rk4 bind the whole state once per integration, an (episodes,
size) array for several episodes, and step it in place, so every episode
takes the same fixed steps.

A plain rhs receives a vector that the solver reuses for later stages, so
it must not keep references to its input between calls.  It may return a
view of its input: its kernel copies the derivative into the stage buffer.

Every right-hand-side evaluation is counted exactly, and exceeding the
configured evaluation budget is an error rather than a silent partial
result.  Budget and non-finite errors name the time reached and the
accepted and rejected step counts, and for a state of several episodes
the episode row.  A numpy warning made an error by a warnings filter, which
a stage that turned non-finite raises from the next stage product, becomes
the same NonFiniteStateError; a caller's np.errstate still rules inside
the rhs.  All arithmetic is in float64 and fully deterministic: identical
inputs produce bit-identical outputs and step statistics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Tuple

import numpy as np


class BudgetExceededError(RuntimeError):
    """The integration would exceed the configured rhs evaluation budget.

    ``episode`` is the row of a batched state that ran out, else None.
    """

    episode: int | None = None


class NonFiniteStateError(ArithmeticError):
    """A NaN or Inf appeared in the state during integration.

    ``episode`` is the row of a batched state that turned non-finite, else
    None.
    """

    episode: int | None = None


@dataclass(frozen=True)
class SolverConfig:
    """Integration scheme and its parameters.

    ``fixed_step`` is consulted only by euler/rk4; ``rtol``/``atol`` only by
    dopri5.  ``max_evals`` bounds rhs evaluations for every method.
    """

    method: str = "dopri5"
    fixed_step: float | None = None
    rtol: float = 1e-6
    atol: float = 1e-8
    max_evals: int = 10_000_000

    def __post_init__(self) -> None:
        if self.method not in ("euler", "rk4", "dopri5"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method in ("euler", "rk4"):
            if self.fixed_step is None or self.fixed_step <= 0:
                raise ValueError(f"{self.method} requires a positive fixed_step")
        else:
            if self.rtol <= 0 or self.atol <= 0:
                raise ValueError("dopri5 requires positive rtol and atol")
        step = 0.0 if self.fixed_step is None else self.fixed_step
        if not all(math.isfinite(x) for x in (self.rtol, self.atol, step)):
            raise ValueError("fixed_step, rtol and atol must be finite")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")


@dataclass
class StepStats:
    """Exact counts of work done by one integrate() call.

    For a state of several episodes the counts are the sums over the
    episodes, ``stiffness`` is the largest of theirs, and ``episodes``
    holds each episode's own StepStats in order; every integrate() call
    fills it, with one entry for a single state.

    ``stiffness`` is the largest h rho over accepted dopri5 steps, with
    rho = |k_7 - k_6| / |y_7 - y_6| the Hairer-Wanner estimate of the
    dominant eigenvalue from the last two stages (Solving ODEs II, IV.2),
    taken over the head u of a TangentBlock state and over the whole state
    of a plain rhs.  On the tracked flow the head gives the same spectral
    radius: the rows of X, derivatives of u, are forced by u and evolve
    under u's own Jacobian, so the Jacobian of (u, X) is block
    lower-triangular with that of u on every diagonal block.
    Near 3.3, the edge of dopri5's stability region on the negative real
    axis, stability rather than accuracy limits the step.  Once the
    solution is below atol, though, the error test accepts steps beyond
    that edge, so the maximum can exceed it: on y' = -10 y over [0, 50] at
    the default tolerances it reads 4.32.  It stays 0 for euler and rk4.
    """

    rhs_evals: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    stiffness: float = 0.0
    episodes: Tuple["StepStats", ...] = ()


@dataclass(frozen=True)
class TangentBlock:
    """Row structure of ``episodes`` states y = (u, X) one after another.

    Each holds the head u, its first ``head`` entries, followed by X of
    shape ``shape`` = (lanes, rows, width) in C order; du/dt reads u alone,
    and the rows X[:, lo:hi] of dX/dt read u and those rows alone.

    ``bind(inputs, derivatives, lo, hi, spare, heads)`` returns one
    zero-argument kernel per stage, up to seven: kernel i writes the
    derivative at ``inputs[i]`` into ``derivatives[i]``.  Each of these
    buffers holds, for each episode, u followed by the rows lo:hi of X,
    flat: a vector for one episode, a C-ordered (A, entries) array for
    A > 1; inputs may share a buffer.  When ``heads``
    is not None, the rows hold X[:, lo:hi] alone and ``heads`` are the
    stage inputs of u of an earlier binding whose kernel runs first
    at each stage.  ``spare`` is a contiguous vector with room for the
    entries of X in those rows; no stage reads or writes it while a kernel
    runs, so the kernels may use it as scratch.  ``take(index)`` returns the
    block of the episodes at the positions ``index``, in that order; a
    block of one episode need not have it.
    """

    head: int
    shape: Tuple[int, int, int]
    bind: Callable[..., List[Callable[[], object]]]
    episodes: int = 1
    take: Callable[[List[int]], "TangentBlock"] | None = None


# dopri5 forms all six stages of one chunk of tangent rows before the next,
# in chunks whose state-sized vectors take about this many bytes (whole rows,
# so up to one row more), so the chunk's fifteen stage and input vectors
# stay in a core's L2 cache.  On a
# Xeon with 2 MB of L2 per core, 96-256 KiB ran a 10w5s task equally fast
# and 16 KiB about 1.9 times slower.
CHUNK_BYTES = 1 << 17

# Episode rows of at least this many entries share one np.matmul per stage
# input; shorter ones take np.dot row by row.  On the strided rows of one
# episode in the stage-major matrix, np.matmul leaves BLAS below this size
# (measured with numpy 2.4 and OpenBLAS 0.3.31) and rounds unlike np.dot,
# which a row integrated alone uses.
_BATCHED_MIN_SIZE = 4


# Dormand-Prince 5(4) tableau.  b5 is the fifth-order weight row (the
# propagated solution); b4 is the embedded fourth-order row used only for
# the error estimate.  The last row of a equals b5, so the seventh stage is
# evaluated at the new state (first-same-as-last).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))

# The tableau as weights on the rows [y, k0, ..., k6] of the stage matrix:
# row i (1..6) forms the input of stage i, row 7 the error estimate.  Each
# step scales it by h and then sets the weight of y in rows 1..6 to one.
_DP_WEIGHTS = np.array(
    [[0.0] * 8]
    + [[0.0, *row] + [0.0] * (7 - len(row)) for row in _DP_A[1:]]
    + [[0.0, *_DP_ERR]]
)
# The columns a step scales: the weight of y stays one from step to step.
_DP_STAGE_WEIGHTS = _DP_WEIGHTS[:, 1:]

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
# The growth allowed right after a first step accepted with no rejection
# before it, SUNDIALS' eta_max1 (Hindmarsh et al., ACM TOMS 2005): the start
# span/100 is cautious, so the next step may jump to where accuracy limits
# it.  Every later step keeps _FACTOR_MAX.
_FIRST_FACTOR_MAX = 1e4
_ORDER_EXP = -1.0 / 5.0


def _fixed_step_count(span: float, step: float) -> int:
    # ceil(span / step), robust against the quotient landing a few ulp above
    # an integer when span was produced as (integer * step); the slack is
    # relative because an ulp of the quotient grows with it.
    quotient = span / step
    n = math.ceil(quotient * (1.0 - 1e-12))
    return max(n, 1)


def _failure(error, message: str, t: float, stats: StepStats, episode=None):
    """``error`` with the message, the time reached and the step counts.

    ``episode`` is the row of a batched state it happened in, named in the
    message and kept on the exception; None for a single state.
    """
    row = "" if episode is None else f"in episode {episode} "
    exc = error(
        f"{message} {row}at t={t:.6g} after {stats.accepted_steps} accepted "
        f"and {stats.rejected_steps} rejected steps"
    )
    exc.episode = episode
    return exc


class _Misshapen(Exception):
    """A plain rhs returned a derivative of another shape; the method adds where."""


def _budget_error(config: SolverConfig, t: float, stats: StepStats, episode=None):
    message = f"rhs evaluation budget of {config.max_evals} exhausted"
    return _failure(BudgetExceededError, message, t, stats, episode)


def _scale_error(err, ends, both, scale, diff, config: SolverConfig) -> None:
    """Divide the error estimate err by atol + rtol * max(|y|, |y_new|).

    ``ends`` stacks y over y_new; ``both`` stacks scale over diff, two rows
    of the same shape, and the scale is formed in scale.
    """
    np.abs(ends, out=both)
    np.maximum(scale, diff, out=scale)
    scale *= config.rtol
    scale += config.atol
    err /= scale


def _judge(stats: StepStats, h: float, err_sq, n: int, dk_sq, dy_sq):
    """Count a dopri5 trial of step h in ``stats`` and choose the next step.

    ``err_sq`` is the squared scaled error summed over the n entries of the
    state, ``dk_sq`` and ``dy_sq`` the squares |k_6 - k_5|^2 and
    |y_new - u_5|^2 of the stiffness estimate.  Returns whether the trial
    was accepted, and the next step.
    """
    # An empty state has no error; its steps grow until they reach t1.
    err_norm = math.sqrt(err_sq / n) if n else 0.0
    accepted = err_norm <= 1.0
    if accepted:
        stats.accepted_steps += 1
        if dy_sq > 0.0:
            stats.stiffness = max(stats.stiffness, h * math.sqrt(dk_sq / dy_sq))
    else:
        stats.rejected_steps += 1
    # Holds once: right after a first step accepted without a rejection.
    first = stats.accepted_steps == 1 and not stats.rejected_steps
    factor_max = _FIRST_FACTOR_MAX if first else _FACTOR_MAX
    if err_norm == 0.0:
        return accepted, h * factor_max
    factor = min(max(_SAFETY * err_norm**_ORDER_EXP, _FACTOR_MIN), factor_max)
    return accepted, h * factor


def _totals(rows) -> StepStats:
    """The StepStats of a batch of episodes with the StepStats ``rows``."""
    return StepStats(
        sum(row.rhs_evals for row in rows),
        sum(row.accepted_steps for row in rows),
        sum(row.rejected_steps for row in rows),
        max(row.stiffness for row in rows),
        tuple(rows),
    )


def integrate(
    system: TangentBlock | Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t1: float,
    config: SolverConfig,
) -> Tuple[np.ndarray, StepStats]:
    """Integrate dy/dt = f(y) from t0 to t1 and return (y(t1), stats).

    ``y0`` is a one-dimensional float64 vector and is not modified; the
    returned y(t1) is a new vector of the same size.  ``system`` is the
    TangentBlock of f, whose episodes y0 holds one after another, or f
    itself as a plain rhs: a pure function mapping such a vector to the
    vector of its derivatives, which keeps no reference to its input.
    Raises ValueError for a y0 that is not one-dimensional, for non-finite
    or reversed times, for a derivative whose shape is not that of its
    state and for a block that does not fill y0, BudgetExceededError if the
    run would need more evaluations than ``config.max_evals`` for an
    episode and NonFiniteStateError if the initial or any intermediate
    state is not finite.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 1:
        raise ValueError(f"integrate requires a one-dimensional y0, not {y0.shape}")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"integrate requires finite times, got t0={t0} and t1={t1}")
    if t1 < t0:
        raise ValueError("integrate requires t1 >= t0")
    if not np.all(np.isfinite(y0)):
        raise NonFiniteStateError(f"initial state contains NaN or Inf at t={t0:.6g}")

    # A block is told from a plain rhs by its bind, not by its type: a copy
    # of a block made with functools.wraps, as a tracer makes, is a function
    # that carries the block's fields.
    block = system
    if getattr(system, "bind", None) is None:
        block = _plain_block(system, y0.size)
    head, (lanes, rows, width) = block.head, block.shape
    size, episodes = head + lanes * rows * width, block.episodes
    if episodes * size != y0.size:
        raise ValueError(
            f"{episodes} episode(s) of a tangent block {block.shape} after "
            f"{head} entries does not fill a state of shape ({y0.size},)"
        )
    span = t1 - t0
    if span == 0.0:
        return y0.copy(), _totals([StepStats() for _ in range(episodes)])
    run = _run_dopri5 if config.method == "dopri5" else _run_fixed
    return run(block, y0.reshape(episodes, size), t0, span, config)


def _plain_block(rhs, n: int) -> TangentBlock:
    """A plain rhs as the block of one episode: a head of n entries, no rows."""

    def rate(u, out):
        derivative = rhs(u)
        # Refused, not broadcast: a derivative of another size is a bug in rhs.
        if np.shape(derivative) != u.shape:
            message = f"rhs returned shape {np.shape(derivative)} for a state"
            raise _Misshapen(f"{message} of shape {u.shape}")
        # A copy, so a derivative that is a view of its input stays valid.
        out[...] = derivative

    def bind(inputs, derivatives, *_):
        return [functools.partial(rate, *row) for row in zip(inputs, derivatives)]

    return TangentBlock(n, (0, 0, 0), bind)


def _run_fixed(block, states, t0, span, config):
    """euler or rk4 on the rows of states, bound once and stepped in place.

    Returns y(t1) as a vector.  Every episode takes the same steps, so the
    first one names a failure.
    """
    episodes, rk4 = len(states), config.method == "rk4"
    row = 0 if episodes > 1 else None
    stats, step = StepStats(), config.fixed_step
    y = (states if episodes > 1 else states[0]).copy()
    # The stage derivatives k_1..k_4, k_1 alone for euler, and the one input
    # that rk4's later stages share.
    k, u = list(np.empty((4 if rk4 else 1,) + y.shape)), np.empty_like(y)
    inputs = [y, u, u, u] if rk4 else [y]
    kernels = block.bind(inputs, k, 0, block.shape[1], np.empty(y.size), None)

    def evaluate(stage):
        if stats.rhs_evals >= config.max_evals:
            raise _budget_error(config, t, stats, row)
        stats.rhs_evals += 1
        kernels[stage]()

    t, n = t0, _fixed_step_count(span, step)
    try:
        for i in range(n):
            # Final step is shortened to land exactly on the end time.
            h = span - i * step if i == n - 1 else step
            # In place, in the operation order of y + h k for euler, and for
            # rk4 of y + (a h) k for each stage input and of
            # y + (h / 6) (((k1 + 2 k2) + 2 k3) + k4).
            evaluate(0)
            if rk4:
                for stage, weight in enumerate((0.5 * h, 0.5 * h, h), 1):
                    np.multiply(k[stage - 1], weight, out=u)
                    u += y
                    evaluate(stage)
                k[0] += np.multiply(k[1], 2.0, out=k[1])
                k[0] += np.multiply(k[2], 2.0, out=k[2])
                k[0] += k[3]
            k[0] *= h / 6.0 if rk4 else h
            y += k[0]
            if not np.all(np.isfinite(y)):
                finite = np.isfinite(y.reshape(episodes, -1)).all(axis=1)
                message = f"state became non-finite at step {i + 1}"
                bad = int(np.argmin(finite)) if row is not None else None
                raise _failure(NonFiniteStateError, message, t, stats, bad)
            stats.accepted_steps += 1
            t = t0 + stats.accepted_steps * step
    except _Misshapen as error:
        raise _failure(ValueError, str(error), t, stats, row) from None
    return y.reshape(-1), _totals([replace(stats) for _ in range(episodes)])


def _run_dopri5(block, states, t0, span, config):
    head, (lanes, rows, width) = block.head, block.shape
    if len(_segments(head, lanes, rows, width, CHUNK_BYTES)) == 1:
        y, stats = _run_rows(block, states, t0, span, config)
        return y.reshape(-1), _totals(stats)
    # One episode at a time, each in three state-sized vectors.
    stats = [StepStats() for _ in states]
    if len(states) == 1:
        y = _run_chunked(block, states[0], t0, span, config, stats[0])
        return y, _totals(stats)
    y = np.empty(states.shape)
    for episode in range(len(states)):
        one = block.take([episode])
        y[episode] = _run_chunked(
            one, states[episode], t0, span, config, stats[episode], episode
        )
    return y.reshape(-1), _totals(stats)


def _run_rows(block, y0, t0, span, config):
    """dopri5 on the rows of y0, one episode state each, every row in its own
    steps.  Returns y(t1) as an array of y0's shape, and each row's StepStats.
    """
    episodes, size = y0.shape
    head, (_, rows, _) = block.head, block.shape
    named = episodes > 1  # whether an error names its episode
    stats = [StepStats() for _ in range(episodes)]
    out = np.empty_like(y0)
    # The episode each active row integrates, and the rows' times and next
    # steps: floats while one row is active, else lists of one per row.
    order = list(range(episodes))
    t, h = 0.0, min(max(span / 100.0, 1e-8), span)
    if named:
        t, h = [t] * episodes, [h] * episodes
    evals = 0  # evaluations of every active row: they move in lockstep
    # Stage-major: matrix[r] holds row r of the stage matrix of every active
    # episode, contiguous.  Rows 0-7 are y and the derivatives k_0..k_6;
    # rows 8-14 are free, then the inputs of stages 1..6, the last of which
    # is the candidate y_new.  Zeros, so that the warning handler below
    # meets only values a step wrote.
    matrix = np.zeros((15, episodes, size))
    matrix[0] = y0

    def arrange(matrix):
        # The views, products and kernels over the active rows, made once
        # per active set.  Product r forms row 8 + r of every episode: the
        # error estimate for r = 0, the input of stage r after it.
        active = matrix.shape[1]
        weights = np.zeros((active, 8, 8))
        # The weight of y in each stage input; a step scales the others.
        weights[:, 1:7, 0] = 1.0
        terms = [(7, 1, 8)] + [(s, 0, s + 1) for s in range(1, 7)]
        if active > 1 and size >= _BATCHED_MIN_SIZE:
            # One product for all episodes.
            episode = matrix.swapaxes(0, 1)
            products = [
                functools.partial(
                    np.matmul,
                    weights[:, w : w + 1, lo:hi],
                    episode[:, lo:hi],
                    out=episode[:, 8 + r : 9 + r],
                )
                for r, (w, lo, hi) in enumerate(terms)
            ]
        else:
            # np.dot on each episode's rows, which for one row costs less
            # per call than np.matmul.  As the method ndarray.dot, the same
            # product, it skips the Python dispatch of the function np.dot.
            products = [
                [
                    functools.partial(
                        weights[e, w, lo:hi].dot, matrix[lo:hi, e], matrix[8 + r, e]
                    )
                    for e in range(active)
                ]
                for r, (w, lo, hi) in enumerate(terms)
            ]
            products = [
                dots[0] if active == 1 else lambda dots=dots: [dot() for dot in dots]
                for dots in products
            ]
        # Each stage's input and derivative rows, with the episode axis in
        # front for several rows.  Row 8, the error estimate, is written
        # only after the last stage, so the kernels may use it as scratch.
        rows_of = matrix[:, 0] if active == 1 else matrix
        inputs, derivatives = [rows_of[0], *rows_of[9:]], list(rows_of[1:8])
        kernels = block.bind(inputs, derivatives, 0, rows, matrix[8].reshape(-1), None)
        # k_1 and k_2 are spent once the error is formed.  They hold |y|
        # and |y_new|, then the scale atol + rtol * max(|y|, |y_new|), then
        # in their head parts k_6 - k_5 and y_new - u_5 for the stiffness.
        # An accepted step copies y_new and k_6, rows 14 and 7, to y and
        # k_0, rows 0 and 1.
        err, pair = rows_of[8], rows_of[2:4, ..., :head]
        ends, starts = rows_of[7:15:7, ..., :head], rows_of[6:14:7, ..., :head]
        scaling = (rows_of[0:15:14], rows_of[2:4], rows_of[2], rows_of[3])
        scaled = weights[:, :, 1:]

        if active == 1:
            dk, dy, scaled = pair[0], pair[1], scaled[0]

            def set_weights(h):
                np.multiply(_DP_STAGE_WEIGHTS, h, out=scaled)

            def norms():
                np.subtract(ends, starts, out=pair)
                return err.dot(err), dk.dot(dk), dy.dot(dy)

        else:
            column = np.empty((active, 1, 1))
            # Each row's squares as products of (1, n) and (n, 1) views.
            err_rows = (err[:, None, :], err[:, :, None])
            pair_rows = (pair[..., None, :], pair[..., :, None])

            def set_weights(h):
                column[:, 0, 0] = h
                np.multiply(_DP_STAGE_WEIGHTS, column, out=scaled)

            def norms():
                np.subtract(ends, starts, out=pair)
                err_sq = np.matmul(*err_rows).ravel().tolist()
                return (err_sq, *np.matmul(*pair_rows).reshape(2, active).tolist())

        used = (rows_of[14], err, scaling, rows_of[0:2], rows_of[14:0:-7])
        return set_weights, products, norms, kernels, used

    set_weights, products, norms, kernels, used = arrange(matrix)

    def where(i):
        # The time, StepStats and name of active row i, for an error.
        now = t if len(order) == 1 else t[i]
        return t0 + now, stats[order[i]], order[i] if named else None

    def evaluate(stage):
        nonlocal evals
        if evals >= config.max_evals:
            raise _budget_error(config, *where(0))
        evals += 1
        kernels[stage]()

    def non_finite(values):
        # The error for the first active row with a non-finite entry in
        # values, whose axis before the last runs over the active rows.
        finite = np.isfinite(values.reshape(-1, len(order), size)).all(axis=(0, 2))
        message = "state became non-finite during a trial step"
        return _failure(NonFiniteStateError, message, *where(int(np.argmin(finite))))

    try:
        evaluate(0)
        while True:
            if len(order) == 1:
                clipped = h >= span - t
                if clipped:
                    h = span - t
            else:
                clipped = [step >= span - now for now, step in zip(t, h)]
                h = [span - now if c else step for now, step, c in zip(t, h, clipped)]
            set_weights(h)
            for stage in range(1, 7):
                products[stage]()
                evaluate(stage)
            y_new, err, scaling, firsts, lasts = used
            # A finite sum proves every entry finite; only an overflowing sum
            # needs the entry-wise check.  np.add.reduce is the sum that
            # ndarray.sum takes, without its Python wrapper.
            total = np.add.reduce(y_new, None)
            if not math.isfinite(total) and not np.all(np.isfinite(y_new)):
                raise non_finite(y_new)
            products[0]()
            _scale_error(err, *scaling, config)
            err_sq, dk_sq, dy_sq = norms()
            if len(order) == 1:
                row = stats[order[0]]
                ok, next_h = _judge(row, h, err_sq, size, dk_sq, dy_sq)
                if ok:
                    firsts[...] = lasts
                    t = span if clipped else t + h
                    if not t < span:
                        out[order[0]] = y_new
                        row.rhs_evals = evals
                        return out, stats
                h = next_h
                continue
            accepted = []
            for i, taken in enumerate(h):
                row = stats[order[i]]
                ok, h[i] = _judge(row, taken, err_sq[i], size, dk_sq[i], dy_sq[i])
                if ok:
                    t[i] = span if clipped[i] else t[i] + taken
                    accepted.append(i)
            if len(accepted) == len(order):
                firsts[...] = lasts
            else:
                matrix[0:2, accepted] = matrix[14:0:-7, accepted]
            keep = [i for i, now in enumerate(t) if now < span]
            if len(keep) < len(order):
                for i, now in enumerate(t):
                    if not now < span:
                        out[order[i]] = matrix[0, i]
                        stats[order[i]].rhs_evals = evals
                if not keep:
                    return out, stats
                # The rows left, with kernels for their episodes alone.  take
                # copies them C-ordered, as bind needs; matrix[:, keep] would
                # leave each stage row strided.
                matrix, block = matrix.take(keep, axis=1), block.take(keep)
                order, t, h = ([values[i] for i in keep] for values in (order, t, h))
                if len(keep) == 1:
                    (t,), (h,) = t, h
                set_weights, products, norms, kernels, used = arrange(matrix)
    except _Misshapen as error:
        raise _failure(ValueError, str(error), *where(0)) from None
    except RuntimeWarning as warning:
        # Under a filter that makes numpy's warnings errors, a stage that
        # turned non-finite raises from the next product, before the step's
        # own check.  A warning with every stored value finite is not ours.
        if np.all(np.isfinite(matrix)):
            raise
        raise non_finite(matrix) from warning


def _run_chunked(block, y0, t0, span, config, stats, episode=None):
    """dopri5 on one state whose tangent block spans several chunks of rows.

    Returns y(t1); ``episode`` is the row of a batched state y0 came from,
    which errors name.
    """
    n = y0.size
    head, (lanes, rows, width) = block.head, block.shape
    segments = _segments(head, lanes, rows, width, CHUNK_BYTES)
    # Every segment works in a contiguous (15, size) matrix.  Its rows k
    # are y and the derivatives k_0..k_6; its rows u are free, then the
    # inputs of stages 1..6, the last of which is the candidate y_new.
    # The chunks of rows share one matrix.  Zeros, so that the warning
    # handler below meets only values a step wrote.
    shared = np.zeros(15 * max(segment.size for segment in segments[1:]))
    work = []
    for segment in segments:
        size = segment.size
        matrix = np.zeros(15 * size) if segment.head else shared[: 15 * size]
        k, u = matrix[: 8 * size].reshape(8, size), matrix[8 * size :].reshape(7, size)
        # Row views and kernels made once, not per step: the rows, the
        # leading rows each stage input combines, and the kernels of the
        # segment's stages.  A chunk of rows reads the head's stage inputs,
        # and may use its row u_0, free until the error is formed, as
        # scratch.
        inputs = [k[0], *u[1:]]
        if segment.head:
            buffers, heads = (shared, matrix), inputs
        row_heads = None if segment.head else heads
        kernels = block.bind(
            inputs, list(k[1:]), segment.lo, segment.hi, u[0], row_heads
        )
        leading = [k[: stage + 1] for stage in range(8)]
        scaling = (matrix.reshape(15, size)[0:15:14], k[2:4], k[2], k[3])
        work.append((segment, list(k), list(u), leading, scaling, kernels))
    # One stage vector holds the first stage when a step starts; each chunk,
    # once it has copied its part, leaves its last stage there.
    y, y_new, k_first = np.empty(n), np.empty(n), np.empty(n)
    k_last = k_first
    y[:] = y0
    weights = np.zeros((8, 8))
    weights[1:7, 0] = 1.0
    scaled = weights[:, 1:]
    stage_weights = [weights[stage, : stage + 1] for stage in range(7)]
    t = 0.0

    def part(buffer, segment):
        # Where a segment sits in a state-sized vector.
        if segment.head:
            return buffer[:head]
        return buffer[head:].reshape(lanes, rows, width)[:, segment.lo : segment.hi]

    def evaluate(stage, segment, kernels):
        if segment.head:
            if stats.rhs_evals >= config.max_evals:
                raise _budget_error(config, t0 + t, stats, episode)
            stats.rhs_evals += 1
        kernels[stage]()

    def first_stage():
        for segment, k, _, _, _, kernels in work:
            k[0].reshape(part(y, segment).shape)[...] = part(y, segment)
            evaluate(0, segment, kernels)
            part(k_first, segment)[...] = k[1].reshape(part(y, segment).shape)

    def non_finite():
        message = "state became non-finite during a trial step"
        return _failure(NonFiniteStateError, message, t0 + t, stats, episode)

    h = min(max(span / 100.0, 1e-8), span)
    try:
        first_stage()
        while t < span:
            clipped = h >= span - t
            if clipped:
                h = span - t
            np.multiply(_DP_STAGE_WEIGHTS, h, out=scaled)
            # The squared scaled error, summed over the whole state.
            err_sq = 0.0
            for segment, k, u, leading, scaling, kernels in work:
                shape = part(y, segment).shape
                k[0].reshape(shape)[...] = part(y, segment)
                k[1].reshape(shape)[...] = part(k_first, segment)
                for stage in range(1, 7):
                    stage_weights[stage].dot(leading[stage], u[stage])
                    evaluate(stage, segment, kernels)
                # A finite sum proves every entry finite; only an overflowing
                # sum needs the entry-wise check.
                total = np.add.reduce(u[6])
                if not math.isfinite(total) and not np.all(np.isfinite(u[6])):
                    raise non_finite()
                # k_1 and k_2 are spent once the error is formed; they hold
                # |y| and |y_new|, then the scale atol + rtol * max(|y|,
                # |y_new|) and a difference.
                err, diff = u[0], k[3]
                weights[7, 1:].dot(leading[7][1:], err)
                _scale_error(err, *scaling, config)
                err_sq += err.dot(err)
                if segment.head:
                    # The head's |k_6 - k_5|^2 and |y_new - u_5|^2 for the
                    # stiffness estimate.
                    np.subtract(k[7], k[6], out=diff)
                    dk_sq = diff.dot(diff)
                    np.subtract(u[6], u[5], out=diff)
                    dy_sq = diff.dot(diff)
                part(y_new, segment)[...] = u[6].reshape(shape)
                part(k_last, segment)[...] = k[7].reshape(shape)
            accepted, next_h = _judge(stats, h, err_sq, n, dk_sq, dy_sq)
            if accepted:
                y, y_new = y_new, y
                t = span if clipped else t + h
            else:
                # The trial left its last stage where the first stage was.
                # The rhs is deterministic, so this restores it bit for bit.
                first_stage()
            h = next_h
    except RuntimeWarning as warning:
        # As in _run_rows: a stage that turned non-finite, caught by a
        # filter that makes numpy's warnings errors.
        if all(np.isfinite(buffer).all() for buffer in buffers):
            raise
        raise non_finite() from warning
    return y


class _Segment(NamedTuple):
    head: bool  # whether the segment holds the head
    lo: int  # its rows lo:hi of the tangent block
    hi: int
    size: int  # its number of state entries


@functools.lru_cache(maxsize=64)
def _segments(head, lanes, rows, width, chunk_bytes):
    """How one dopri5 step walks the state: a tuple of _Segment.

    A block whose rows fit ``chunk_bytes`` forms one segment with the head.
    A larger one is cut into near-equal chunks of whole rows, each after a
    segment of the head alone, whose six stages come first.
    """
    row_bytes = 8 * lanes * width
    count = min(rows, -(-rows * row_bytes // chunk_bytes)) if row_bytes else 0
    if count <= 1:
        return (_Segment(True, 0, rows, head + rows * lanes * width),)
    bounds = [rows * i // count for i in range(count + 1)]
    return (_Segment(True, 0, 0, head),) + tuple(
        _Segment(False, lo, hi, (hi - lo) * lanes * width)
        for lo, hi in zip(bounds, bounds[1:])
    )
