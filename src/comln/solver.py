"""ODE integration on one-dimensional float64 state vectors.

Integrates autonomous systems dy/dt = f(y) from t0 to t1 with either a
fixed-step scheme (explicit Euler, classic fourth-order Runge-Kutta) or the
Dormand-Prince 5(4) embedded pair with adaptive step size.  The state is a
single one-dimensional float64 vector; what its entries mean is the
caller's business, except that the system, a TangentBlock, cuts it into
``episodes`` independent states one after another, each a head u followed
by a block X, possibly of no rows, whose rows evolve independently once u
is known.  A plain rhs is the block of one episode whose head is the whole
state.  Every method hands the block's ``bind`` its stage buffers once,
one row per episode, and at each stage calls the zero-argument kernel bind
returned for it, which has every view, scratch array and index it needs
made in advance and writes the derivative into its stage buffer.

dopri5 starts with the step span/100 and scales the step after every
trial by 0.9 err^(-1/5), kept within [0.2, 5].  Only after a first step
accepted with no rejection before it may the step grow by up to 1e4, as
SUNDIALS allows (eta_max1): on a short horizon that start is far more
accurate than asked, and the next step goes straight to the size accuracy
permits instead of climbing there by factors of 5.

dopri5 walks a state in segments: a state that fits one chunk of
CHUNK_BYTES is one segment, a larger one the head u alone, whose kernels
write what the rows read, then chunks of whole rows of X.  A step forms
every stage of a segment, while its rows stay in cache, before the next.
Each segment has a stage-major matrix (15, episodes, size), so y, y_new,
every stage and the error estimate of all episodes are each one
contiguous array.  Every stage input and the error estimate is one product
over the rows y, k_0..k_6 with per-episode weights, which rounds as np.dot
on that episode alone.  Every episode keeps its own t, h, error norm,
accept/reject decision, first-step growth, evaluation budget and
stiffness, as an ODE solver under jax.vmap does in diffrax (Kidger, 2021),
not one step for the whole batch: it takes the steps it would take alone,
bit for bit.  The squared scaled errors of the segments are summed in
segment order into the whole-vector norm.  Each batch of episodes is bound
once: an episode that reaches t1 keeps its place with a zero step, so its
stage inputs equal its y, while the others step on.

The segment count decides where y lives.  A state of one segment keeps y
and k_0 of every episode in its matrix.  Dormand-Prince has the
first-same-as-last property: its seventh stage is the derivative at the
new state, so an accepted step hands it to the next step as its first,
and an episode costs one evaluation plus six per step, accepted or
rejected.  A state of several segments is integrated one episode at a
time, bound to the block's ``take`` of that episode, in two state-sized
vectors, y and the candidate y_new: each step reads y once and writes
y_new once, an accepted step swaps them by reference, and every other
pass runs over one chunk.  Its first stage is evaluated anew at every
step, as every step after a rejected one must (Hairer, Norsett & Wanner,
Solving ODEs I, II.5); since the rhs is deterministic, that gives bit
for bit the stage first-same-as-last would have handed on, and the
seventh evaluation of each step saves a third state-sized vector.  The
chunks of a step are cut into one contiguous group per thread, one
thread for each CPU this process may run on (os.sched_getaffinity) and
at most one per chunk: the calling thread sweeps the first group,
threads started for the step the others and end with it, each group in
its own chunk matrix and each thread with its BLAS held to one thread.
Where numpy's OpenBLAS cannot be held so, one thread sweeps them all.

euler and rk4 bind the whole state once per integration and step it in
place, so every episode takes the same fixed steps.

A plain rhs receives a vector that the solver reuses for later stages, so
it must not keep references to its input between calls.  It may return a
view of its input: its kernel copies the derivative into the stage buffer.

Every right-hand-side evaluation is counted exactly, and the budget is
checked once per step, for all its evaluations: exceeding it is an error,
not a silent partial result.  Budget and non-finite errors name the time
and step counts a check at every evaluation would, and for a state of
several episodes the episode row.  Every method turns a numpy warning
made an error by a filter, which the arithmetic after a stage that turned
non-finite raises, into the same NonFiniteStateError; a caller's
np.errstate still rules inside the rhs, on every thread.  All arithmetic
is in float64 and fully deterministic: identical inputs produce
bit-identical outputs and step statistics, whatever the number of threads.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from comln.loss import check_kind


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
        step = () if self.fixed_step is None else ("fixed_step",)
        check_kind("a finite real number", self, "rtol", "atol", *step)
        check_kind("an integer", self, "max_evals")
        if self.method in ("euler", "rk4"):
            if self.fixed_step is None or self.fixed_step <= 0:
                raise ValueError(f"{self.method} requires a positive fixed_step")
        else:
            if self.rtol <= 0 or self.atol <= 0:
                raise ValueError("dopri5 requires positive rtol and atol")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")


@dataclass
class StepStats:
    """Exact counts of work done by one integrate() call.

    For a state of several episodes the counts are the sums over the
    episodes, ``stiffness`` is the largest of theirs, and ``episodes``
    holds each episode's own StepStats in order; every integrate() call
    fills it, with one entry for a single state.

    ``rhs_evals`` counts every evaluation of an episode: a dopri5 step,
    accepted or rejected, takes six after one at the start on a state of
    one segment and seven on a chunked state, and a fixed step one (euler)
    or four (rk4).

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
    derivative at ``inputs[i]`` into ``derivatives[i]``.  Each buffer is a
    C-ordered (episodes, entries) array whose row e holds episode e's u and
    then its rows lo:hi of X; inputs may share a buffer.  When ``heads`` is
    not None, the rows hold X[:, lo:hi] alone and ``heads`` are the stage
    inputs of u, in the same form, of an earlier binding whose kernel runs
    first at each stage.  ``spare`` is a contiguous vector with room for a
    whole bound buffer, every episode's row; no stage reads or writes it
    while a kernel runs, so the kernels may use it as scratch.
    ``take(e)`` returns the block of episode e alone; only a block of
    several episodes whose state spans several chunks needs it.
    """

    head: int
    shape: Tuple[int, int, int]
    bind: Callable[..., List[Callable[[], object]]]
    episodes: int = 1
    take: Callable[[int], "TangentBlock"] | None = None


# dopri5 forms all seven stages of one chunk of tangent rows before the
# next, in chunks whose state-sized vectors take about this many bytes (whole
# rows, so up to one row more), so the chunk's fifteen stage and input
# vectors stay in the L2 cache of the core that sweeps it.  On a Xeon with
# 2 MB of L2 per core, 96-256 KiB ran a 10w5s task equally fast and 16 KiB
# about 1.9 times slower.
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


def _first_step(span: float) -> float:
    # dopri5's first trial step: span/100, at least 1e-8 and at most span.
    return min(max(span / 100.0, 1e-8), span)


def _failure(error, message: str, t: float, stats: StepStats, episode, episodes):
    """``error`` with the message, the time reached and the step counts,
    and ``episode``, its row in a batch of ``episodes`` states: named and
    kept on the exception for a batch of several, else None."""
    episode = episode if episodes > 1 else None
    row = "" if episode is None else f"in episode {episode} "
    exc = error(
        f"{message} {row}at t={t:.6g} after {stats.accepted_steps} accepted "
        f"and {stats.rejected_steps} rejected steps"
    )
    exc.episode = episode
    return exc


def _spend(config: SolverConfig, evals: int, more: int, where, row: int) -> int:
    """``evals`` + ``more``, the evaluations after a step of ``more``, or
    the BudgetExceededError of ``row``, the first row still running, if that
    exceeds the budget."""
    if evals + more > config.max_evals:
        message = f"rhs evaluation budget of {config.max_evals} exhausted"
        raise _failure(BudgetExceededError, message, *where(row))
    return evals + more


class _Misshapen(Exception):
    """A plain rhs returned a derivative of another shape; the method adds where."""


class _NonFinite(Exception):
    """A step's own check found its values not finite; the method adds where."""


def _check_finite(values) -> None:
    """Raise _NonFinite(values) if an entry of ``values`` is NaN or Inf.

    A finite sum, np.add.reduce without ndarray.sum's wrapper, proves every
    entry finite; only an overflowing sum, which a filter may make an
    error, needs the entry-wise check."""
    try:
        total = np.add.reduce(values, None)
    except RuntimeWarning:
        total = math.inf
    if not math.isfinite(total) and not np.isfinite(values).all():
        raise _NonFinite(values)


def _located(caught, message: str, where, stored):
    """The located error for ``caught``, which stopped a method's steps.

    ``where(row)`` is the time, StepStats, episode and batch size of row
    ``row``; ``stored`` holds the method's arrays, rows along the axis
    before the last.  A warning while all are finite is raised again."""
    if isinstance(caught, _Misshapen):
        error = _failure(ValueError, str(caught), *where(0))
    else:
        arrays = caught.args if isinstance(caught, _NonFinite) else stored
        finite = np.logical_and.reduce(
            [np.isfinite(a).all(-1).reshape(-1, a.shape[-2]).all(0) for a in arrays]
        )
        if finite.all():
            raise caught
        error = _failure(NonFiniteStateError, message, *where(int(np.argmin(finite))))
    # Setting the cause also hides the context; only a warning is shown.
    error.__cause__ = caught if isinstance(caught, RuntimeWarning) else None
    return error


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


def _squares(values) -> Tuple[float, float]:
    """The squared norm of ``values`` as (total, scale), the norm being
    scale * sqrt(total).

    The plain sum values.dot(values) with scale 1.0 where it is finite,
    else, as BLAS dnrm2 scales (Blue, ACM TOMS 1978), the sum for
    values / max|v| with that largest magnitude: the squares of a finite
    state near the largest float overflow before the state does.  An
    overflow that a filter or a caller's np.errstate makes an error is met
    as one that only warns."""
    try:
        total = values.dot(values)
    except (RuntimeWarning, FloatingPointError):
        total = math.inf
    if math.isfinite(total):
        return total, 1.0
    scale = float(np.abs(values).max())
    # A NaN or Inf entry is judged as it is.
    if not 0.0 < scale < math.inf:
        return total, 1.0
    with np.errstate(under="ignore"):
        unit = values / scale
    return unit.dot(unit), scale


def _sum_squares(parts) -> Tuple[float, float]:
    """The (total, scale) of ``_squares`` for a vector cut into pieces whose
    own are ``parts``, summed in their order."""
    scale = max(part_scale for _, part_scale in parts)
    total = 0.0
    for part, part_scale in parts:
        total += part if part_scale == scale else part * (part_scale / scale) ** 2
    return total, scale


def _judge(stats: StepStats, h: float, err, n: int, dk, dy):
    """Count a dopri5 trial of step h in ``stats`` and choose the next step.

    ``err`` is the squared scaled error over the n entries of the state,
    ``dk`` and ``dy`` the squares |k_6 - k_5|^2 and |y_new - u_5|^2 of the
    stiffness estimate, each as the (total, scale) of ``_squares``.
    Returns whether the trial was accepted, and the next step.
    """
    (err_sq, err_scale), (dk_sq, dk_scale), (dy_sq, dy_scale) = err, dk, dy
    # An empty state has no error; its steps grow until they reach t1.
    err_norm = err_scale * math.sqrt(err_sq / n) if n else 0.0
    accepted = err_norm <= 1.0
    if accepted:
        stats.accepted_steps += 1
        if dy_sq > 0.0:
            rho = dk_scale / dy_scale * math.sqrt(dk_sq / dy_sq)
            stats.stiffness = max(stats.stiffness, h * rho)
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
    episode, checked before each step for all its evaluations (seven for a
    dopri5 step of a chunked state, see StepStats), and NonFiniteStateError
    if the initial or any intermediate state is not finite, also where a
    warnings filter makes numpy's warning of a non-finite stage an error.
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

    def bind(inputs, outs, *_):
        return [functools.partial(rate, x[0], out[0]) for x, out in zip(inputs, outs)]

    return TangentBlock(n, (0, 0, 0), bind)


def _run_fixed(block, states, t0, span, config):
    """euler or rk4 on the rows of states, bound once and stepped in place.

    Returns y(t1) as a vector.  Every episode takes the same steps, so the
    first one names a budget or shape failure.
    """
    episodes, rk4 = len(states), config.method == "rk4"
    stats, step = StepStats(), config.fixed_step
    y = states.copy()
    # The stage derivatives k_1..k_4, k_1 alone for euler, and the one input
    # that rk4's later stages share.  Zeros, so that a warning meets only
    # values a step wrote.
    k, u = np.zeros((4 if rk4 else 1,) + y.shape), np.zeros_like(y)
    inputs = [y, u, u, u] if rk4 else [y]
    kernels = block.bind(inputs, list(k), 0, block.shape[1], np.empty(y.size), None)
    t, n = t0, _fixed_step_count(span, step)

    def where(row):
        return t, stats, row, episodes

    try:
        for i in range(n):
            stats.rhs_evals = _spend(config, stats.rhs_evals, len(kernels), where, 0)
            # Final step is shortened to land exactly on the end time.
            h = span - i * step if i == n - 1 else step
            # In place, in the operation order of y + h k for euler, and for
            # rk4 of y + (a h) k for each stage input and of
            # y + (h / 6) (((k1 + 2 k2) + 2 k3) + k4).
            kernels[0]()
            if rk4:
                for stage, weight in enumerate((0.5 * h, 0.5 * h, h), 1):
                    np.multiply(k[stage - 1], weight, out=u)
                    u += y
                    kernels[stage]()
                k[0] += np.multiply(k[1], 2.0, out=k[1])
                k[0] += np.multiply(k[2], 2.0, out=k[2])
                k[0] += k[3]
            k[0] *= h / 6.0 if rk4 else h
            y += k[0]
            _check_finite(y)
            stats.accepted_steps += 1
            t = t0 + stats.accepted_steps * step
    except (_Misshapen, _NonFinite, RuntimeWarning) as caught:
        message = f"state became non-finite at step {stats.accepted_steps + 1}"
        raise _located(caught, message, where, (y, u, k))
    return y.reshape(-1), _totals([replace(stats) for _ in range(episodes)])


def _run_dopri5(block, states, t0, span, config):
    """dopri5 on the rows of states, one episode state each, every episode in
    its own steps.  Returns y(t1) as a vector, and the StepStats of the rows.
    """
    episodes, size = states.shape
    head, (lanes, rows, width) = block.head, block.shape
    segments = _segments(head, lanes, rows, width, CHUNK_BYTES)
    chunks = segments[1:]
    # One segment keeps y and k_0 of every episode in its stage matrix;
    # several hold one episode at a time in y and y_new.
    fsal = not chunks
    batches = [list(range(episodes))] if fsal else [[e] for e in range(episodes)]
    # One contiguous group of chunks per thread, in segment order.
    workers = _workers(len(chunks)) if chunks else 0
    bounds = [len(chunks) * g // max(workers, 1) for g in range(workers + 1)]
    # Stage-major: matrix[r] holds row r of a segment of every episode of a
    # batch, contiguous.  Rows 0-7 are y and the derivatives k_0..k_6;
    # rows 8-14 are free, then the inputs of stages 1..6, the last of which
    # is the candidate y_new.  The chunks of a group share one matrix.
    # Zeros, so that a warning meets only values a step wrote.
    matrices = [np.zeros((15, len(batches[0]), segments[0].size))]
    largest = max((segment.size for segment in chunks), default=0)
    for lo, hi in zip(bounds, bounds[1:]):
        shared = np.zeros(15 * largest)
        for chunk in chunks[lo:hi]:
            matrices.append(shared[: 15 * chunk.size].reshape(15, 1, chunk.size))
    stats = [StepStats() for _ in range(episodes)]
    out, spare = np.empty_like(states), np.empty(size if chunks else 0)

    def part(buffer, segment):
        # Where a segment sits in a state-sized vector.
        if segment.head:
            return buffer[:head]
        return buffer[head:].reshape(lanes, rows, width)[:, segment.lo : segment.hi]

    def arrange(active):
        # The views, products and kernels over the rows of a batch, made
        # once per batch.  Product r forms row 8 + r of every episode: the
        # error estimate for r = 0, the input of stage r after it.
        count = len(order)
        weights = np.zeros((count, 8, 8))
        # The weight of y in each stage input; each row's step scales the
        # others.
        weights[:, 1:7, 0] = 1.0
        np.multiply(_DP_STAGE_WEIGHTS, np.reshape(h, (-1, 1, 1)), out=weights[:, :, 1:])
        terms = [(7, 1, 8)] + [(s, 0, s + 1) for s in range(1, 7)]
        work, heads = [], None
        for segment, matrix in zip(segments, matrices):
            if count > 1 and segment.size >= _BATCHED_MIN_SIZE:
                # One product for all episodes.
                episode = matrix.swapaxes(0, 1)
                products = [
                    [
                        functools.partial(
                            np.matmul,
                            weights[:, w : w + 1, lo:hi],
                            episode[:, lo:hi],
                            out=episode[:, 8 + r : 9 + r],
                        )
                    ]
                    for r, (w, lo, hi) in enumerate(terms)
                ]
            else:
                # np.dot on each episode's rows, which for one row costs less
                # per call than np.matmul.  As the method ndarray.dot, the
                # same product, it skips the Python dispatch of np.dot.
                products = [
                    [
                        functools.partial(
                            weights[e, w, lo:hi].dot, matrix[lo:hi, e], matrix[8 + r, e]
                        )
                        for e in range(count)
                    ]
                    for r, (w, lo, hi) in enumerate(terms)
                ]
            # Each stage's input and derivative rows, (episodes, size) arrays.
            # Row 8, the error estimate, is written only after the last
            # stage, so the kernels may use it as scratch.  A chunk of rows
            # reads the stage inputs of the head.
            inputs, scratch = [matrix[0], *matrix[9:]], matrix[8].reshape(-1)
            lo, hi = segment.lo, segment.hi
            kernels = active.bind(inputs, list(matrix[1:8]), lo, hi, scratch, heads)
            heads = inputs if segment.head else heads
            # k_1 and k_2 are spent once the error is formed.  They hold |y|
            # and |y_new|, then the scale atol + rtol * max(|y|, |y_new|).
            scaling = (matrix[8], matrix[0:15:14], matrix[2:4], matrix[2], matrix[3])
            y_rows = (matrix[0], matrix[14])
            work.append((segment, products, kernels, y_rows, scaling, list(matrix[8])))
        # After every sweep, the head parts of k_1 and k_2 in the first
        # segment take k_6 - k_5 and y_new - u_5 for the stiffness.  An
        # accepted step on one segment copies y_new and k_6, rows 14 and 7,
        # to y and k_0, rows 0 and 1.
        first = matrices[0]
        ends, starts = first[7:15:7, :, :head], first[6:14:7, :, :head]
        differences = (ends, starts, first[2:4, :, :head])
        # Each row's StepStats, its weights that a step scales, and the two
        # differences whose squares it is judged by, besides its error.
        views = (weights[:, :, 1:], first[2, :, :head], first[3, :, :head])
        judged = list(zip([stats[episode] for episode in order], *views))
        groups = [work[1 + lo : 1 + hi] for lo, hi in zip(bounds, bounds[1:])]
        return work[:1], groups, differences, judged, (first[0:2], first[14:0:-7])

    def sweep(work, y, y_new):
        # All stages of each segment of work in turn, while its rows stay in
        # cache; returns the squares of each row's scaled error.
        squares = []
        for segment, products, kernels, (start, last), scaling, errors in work:
            if y is not None:
                # The segment's part of y, whose first stage is evaluated anew.
                shape = part(y, segment).shape
                start.reshape(shape)[...] = part(y, segment)
                kernels[0]()
            for stage in range(1, 7):
                for product in products[stage]:
                    product()
                kernels[stage]()
            _check_finite(last)
            for product in products[0]:
                product()
            _scale_error(*scaling, config)
            squares += map(_squares, errors)
            if y is not None:
                part(y_new, segment)[...] = last.reshape(shape)
        return squares

    def where(i):
        return t0 + t[i], stats[order[i]], order[i], episodes

    # Every chunk on one BLAS thread, however many threads sweep: BLAS on
    # several threads may round a product otherwise.  The threads a step
    # starts hold theirs to one as they start.
    setter = _blas_threads_local() if chunks else None
    before = None if setter is None else setter(1)
    try:
        for order in batches:
            active = block if len(order) == episodes else block.take(order[0])
            # The time of each row, and its next step, clipped to land on t1.
            t, h = [0.0] * len(order), [_first_step(span)] * len(order)
            lead, groups, differences, judged, fsal_rows = arrange(active)
            # The rows still running.  A row that reached t1 stays in place
            # with h = 0 and its weights scaled by 0, so its stage inputs
            # equal its y and its result, copied out at t1, cannot change.
            live = list(range(len(order)))
            # evals counts the evaluations of every live row: they move in
            # lockstep.  One segment evaluates its first stage, which every
            # budget allows, once: its kernels are lead[0][2].
            if fsal:
                y = y_new = None
                matrices[0][0] = states
                lead[0][2][0]()
                evals = 1
            else:
                y, y_new, evals = out[order[0]], spare, 0
                y[...] = states[order[0]]
            while True:
                evals = _spend(config, evals, 6 if fsal else 7, where, live[0])
                squares = sweep(lead, y, y_new)
                if groups:
                    squares += _in_parallel(sweep, groups, y, y_new)
                # The squares of several segments are summed in segment
                # order, whatever the threads.
                errors = squares if fsal else [_sum_squares(squares)]
                np.subtract(*differences)
                accepted, done = [], []
                for i in live:
                    row, scaled, dk, dy = judged[i]
                    err, dk, dy = errors[i], _squares(dk), _squares(dy)
                    ok, step = _judge(row, h[i], err, size, dk, dy)
                    if ok:
                        # A step clipped to span - t lands on t1, whatever t + h is.
                        t[i] = span if h[i] == span - t[i] else t[i] + h[i]
                        accepted.append(i)
                        if not t[i] < span:
                            done.append(i)
                    # The next step, clipped to land on t1, scales the weights.
                    h[i] = min(step, span - t[i])
                    np.multiply(_DP_STAGE_WEIGHTS, h[i], out=scaled)
                if not fsal:
                    if accepted:
                        y, y_new = y_new, y
                elif len(accepted) == len(live):
                    fsal_rows[0][...] = fsal_rows[1]
                elif accepted:
                    matrices[0][0:2, accepted] = matrices[0][14:0:-7, accepted]
                if not done:
                    continue
                # The episodes of the rows that reached t1 are done.
                for i in done:
                    stats[order[i]].rhs_evals = evals
                    if fsal:
                        out[order[i]] = matrices[0][0, i]
                    elif y is spare:
                        out[order[i]] = y
                live = [i for i in live if t[i] < span]
                if not live:
                    break
    except (_Misshapen, _NonFinite, RuntimeWarning) as caught:
        message = "state became non-finite during a trial step"
        raise _located(caught, message, where, matrices)
    finally:
        if setter is not None:
            setter(before)
    return out.reshape(-1), _totals(stats)


@functools.lru_cache(maxsize=None)
def _blas_threads_local():
    """OpenBLAS's openblas_set_num_threads_local(n) in the library bundled
    with numpy, which sets the BLAS threads of the calling thread alone and
    returns the count it had; None where numpy bundles no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.restype, setter.argtypes = ctypes.c_int, [ctypes.c_int]
        return setter
    return None


def _workers(chunks: int) -> int:
    """The threads that sweep the ``chunks`` chunks of a step: one per CPU
    this process may run on, at most one per chunk, and one alone where
    BLAS cannot be held to one thread in each or the CPUs are not known."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or _blas_threads_local() is None:
        return 1
    return min(len(affinity(0)), chunks)


def _in_parallel(sweep, groups, *args) -> list:
    """sweep(group, *args) for every group, concatenated in group order: the
    first on the calling thread, each other on a thread of this call's own,
    in a copy of the caller's context, so that its np.errstate holds; a lone
    group starts no thread.  Every sweeping thread's BLAS is held to one
    thread: the new threads' from their start, the caller's by the caller.
    All threads have ended when it returns or raises the first group's error."""
    if len(groups) == 1:
        return sweep(groups[0], *args)
    # Imported here: work that needs no thread does not pay for the import.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(
        len(groups) - 1,
        initializer=_blas_threads_local(),
        initargs=(1,),
        thread_name_prefix="comln-chunks",
    ) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, sweep, group, *args)
            for group in groups[1:]
        ]
        results = sweep(groups[0], *args)
    for future in futures:
        results += future.result()
    return results


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
    segment of the head alone, whose seven stages come first.
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
