"""ODE integration on one-dimensional float64 state vectors.

Integrates autonomous systems dy/dt = rhs(y) from t0 to t1 with either a
fixed-step scheme (explicit Euler, classic fourth-order Runge-Kutta) or the
Dormand-Prince 5(4) embedded pair with adaptive step size.  The state is a
single one-dimensional float64 vector; what its entries mean is the
caller's business.

Dormand-Prince has the first-same-as-last property: its seventh stage is
the derivative at the new state, so an accepted step hands it to the next
step as its first stage.  A dopri5 run therefore costs one evaluation plus
six per step, accepted or rejected, plus one per rejected step of a chunked
state (see below).  Every stage input and the error
estimate is a single matrix-vector product over a stage matrix whose rows
are y and the seven stages.

dopri5 starts with the step span/100 and scales the step after every
trial by 0.9 err^(-1/5), kept within [0.2, 5].  Only after a first step
accepted with no rejection before it may the step grow by up to 1e4, as
SUNDIALS allows (eta_max1): on a short horizon that start is far more
accurate than asked, and the next step goes straight to the size accuracy
permits instead of climbing there by factors of 5.

An rhs may carry a ``tangent`` attribute, a TangentBlock: the state is a
head u followed by a block X whose rows evolve independently once u is
known.  dopri5 then never calls the rhs itself.  Each step first takes
all six stages of u, then, chunk by chunk of rows sized by CHUNK_BYTES,
all six stages of those rows while they stay in cache, adding each
chunk's share to the whole-vector error norm.  The state then lives in
three state-sized vectors: y, the candidate y_new and one stage vector k.
k holds the first stage when a step starts; each chunk copies its part into
its stage matrix and, as the sweep leaves it, writes its last stage there.
An accepted step swaps y and y_new by reference and finds the next first
stage in k.  A rejected step evaluates the first stage at y again (Hairer,
Norsett & Wanner, Solving ODEs I, II.5: only the first-same-as-last stage
can be recomputed); the rhs is deterministic, so that stage is the one the
trial overwrote, bit for bit.  Each step reads y and k once and writes
y_new and k once, and every other pass runs over one chunk.  A block whose
rows fit one chunk is integrated in place in the stage matrix.  euler and
rk4 call the rhs.

The rhs receives a vector that the solver reuses for later stages, so the
rhs must not keep references to its input between calls.  It may return a
view of its input: the solver copies each derivative into its stage
matrix before it writes to that buffer again.

Every right-hand-side evaluation is counted exactly, and exceeding the
configured evaluation budget is an error rather than a silent partial
result.  Budget and non-finite errors name the time reached and the
accepted and rejected step counts.  All arithmetic is in float64 and fully
deterministic: identical inputs produce bit-identical outputs and step
statistics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

import numpy as np


class BudgetExceededError(RuntimeError):
    """The integration would exceed the configured rhs evaluation budget."""


class NonFiniteStateError(ArithmeticError):
    """A NaN or Inf appeared in the state during integration."""


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
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")


@dataclass
class StepStats:
    """Exact counts of work done by one integrate() call.

    ``stiffness`` is the largest h rho over accepted dopri5 steps, with
    rho = |k_7 - k_6| / |y_7 - y_6| the Hairer-Wanner estimate of the
    dominant eigenvalue from the last two stages (Solving ODEs II, IV.2).
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


@dataclass(frozen=True)
class TangentBlock:
    """Row structure of a state y = (u, X) that dopri5 integrates in chunks.

    y is the head u, its first ``head`` entries, followed by X of shape
    ``shape`` = (lanes, rows, width) in C order.  ``rate(u)`` returns
    du/dt, which reads u alone, and coefficients for ``rows``.
    ``rows(u, coefficients, X_part, lo, hi, out)`` writes dX/dt for the
    rows X_part = X[:, lo:hi] into ``out`` of the same shape; it reads
    nothing of X outside those rows.
    """

    head: int
    shape: Tuple[int, int, int]
    rate: Callable[[np.ndarray], Tuple[np.ndarray, object]]
    rows: Callable[..., None]


# dopri5 forms all six stages of one chunk of tangent rows before the next,
# in chunks whose state-sized vectors take about this many bytes (whole rows,
# so up to one row more), so the chunk's fifteen stage and input vectors
# stay in a core's L2 cache.  On a
# Xeon with 2 MB of L2 per core, 96-256 KiB ran a 10w5s task equally fast
# and 16 KiB about 1.9 times slower.
CHUNK_BYTES = 1 << 17


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


def _where(t: float, stats: StepStats) -> str:
    return (
        f"at t={t:.6g} after {stats.accepted_steps} accepted and "
        f"{stats.rejected_steps} rejected steps"
    )


def _shape_error(derivative, n: int, t: float, stats: StepStats) -> ValueError:
    # Refused, not broadcast: a derivative of another size is a bug in rhs.
    return ValueError(
        f"rhs returned shape {np.shape(derivative)} for a state of shape "
        f"({n},) {_where(t, stats)}"
    )


def _budget_error(config: SolverConfig, t: float, stats: StepStats):
    return BudgetExceededError(
        f"rhs evaluation budget of {config.max_evals} exhausted {_where(t, stats)}"
    )


def integrate(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t1: float,
    config: SolverConfig,
) -> Tuple[np.ndarray, StepStats]:
    """Integrate dy/dt = rhs(y) from t0 to t1 and return (y(t1), stats).

    ``y0`` is a one-dimensional float64 vector and is not modified; the
    returned y(t1) is a new vector of the same size.  ``rhs`` must be a pure
    function mapping such a vector to the vector of its derivatives, and
    must not keep references to its input.  An ``rhs.tangent`` TangentBlock
    describing the same derivative lets dopri5 integrate its rows in
    chunks.  Raises ValueError for a y0 that is not one-dimensional, for
    non-finite or reversed times, for a derivative whose shape is not that
    of y0 and for a tangent block that does not fill y0,
    BudgetExceededError if the run would need more rhs evaluations than
    ``config.max_evals`` and NonFiniteStateError if the initial or any
    intermediate state is not finite.
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

    stats = StepStats()
    span = t1 - t0
    if span == 0.0:
        return y0.copy(), stats
    if config.method == "dopri5":
        return _run_dopri5(rhs, y0, t0, span, config, stats), stats

    step = config.fixed_step

    def f(values: np.ndarray) -> np.ndarray:
        if stats.rhs_evals >= config.max_evals:
            raise _budget_error(config, t0 + stats.accepted_steps * step, stats)
        stats.rhs_evals += 1
        derivative = rhs(values)
        if np.shape(derivative) != y0.shape:
            t = t0 + stats.accepted_steps * step
            raise _shape_error(derivative, y0.size, t, stats)
        return derivative

    one_step = _euler_step if config.method == "euler" else _rk4_step
    try:
        y = _run_fixed(f, y0.copy(), span, step, stats, one_step)
    except NonFiniteStateError as exc:
        where = _where(t0 + stats.accepted_steps * step, stats)
        raise NonFiniteStateError(f"{exc} {where}") from None
    return y, stats


def _euler_step(f, y, h):
    return y + h * f(y)


def _rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _run_fixed(f, y, span, step, stats, one_step):
    n = _fixed_step_count(span, step)
    for k in range(n):
        # Final step is shortened to land exactly on the end time.
        h = span - k * step if k == n - 1 else step
        y = one_step(f, y, h)
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError(f"state became non-finite at step {k + 1}")
        stats.accepted_steps += 1
    return y


def _run_dopri5(rhs, y0, t0, span, config, stats):
    n = y0.size
    # A plain rhs is a head of n entries with an empty block.
    block = getattr(rhs, "tangent", None) or TangentBlock(
        n, (0, 0, 0), lambda values: (rhs(values), None), None
    )
    head, (lanes, rows, width) = block.head, block.shape
    if head + lanes * rows * width != n:
        raise ValueError(
            f"tangent block {block.shape} after {head} entries does not "
            f"fill a state of shape ({n},)"
        )
    segments = _segments(head, lanes, rows, width, CHUNK_BYTES)
    single = len(segments) == 1
    # Every segment works in a contiguous (15, size) matrix.  Its rows k
    # are y and the derivatives k_0..k_6; its rows u are free, then the
    # inputs of stages 1..6, the last of which is the candidate y_new.
    # The chunks of rows share one matrix.
    largest = max((segment.size for segment in segments[1:]), default=0)
    shared = np.empty(15 * largest)
    work = []
    for segment in segments:
        size = segment.size
        matrix = shared[: 15 * size] if not segment.head else np.empty(15 * size)
        k, u = matrix[: 8 * size].reshape(8, size), matrix[8 * size :].reshape(7, size)
        # Row views made once, not per step: the rows, the leading rows
        # each stage input combines, and the block's rows of each stage
        # input and derivative as (lanes, rows, width) views.
        views = None
        if segment.hi > segment.lo:
            offset = head if segment.head else 0
            shape = (lanes, segment.hi - segment.lo, width)
            views = [
                [row[offset:].reshape(shape) for row in stage_rows]
                for stage_rows in ([k[0], *u[1:]], k[1:])
            ]
        leading = [k[: stage + 1] for stage in range(8)]
        work.append((segment, list(k), list(u), leading, views))
    # The head's part of each stage input, which every chunk of rows reads,
    # and of each stage derivative.
    _, k, u, _, _ = work[0]
    heads = [k[0][:head]] + [row[:head] for row in u[1:]]
    head_rates = [row[:head] for row in k[1:]]
    coefficients = [None] * 7
    if single:
        # One segment spans the state: its rows are the state's buffers.
        y, k_first, y_new, k_last = k[0], k[1], u[6], k[7]
    else:
        # One stage vector holds the first stage when a step starts; each
        # chunk, once it has copied its part, leaves its last stage there.
        y, y_new, k_first = np.empty(n), np.empty(n), np.empty(n)
        k_last = k_first
    y[:] = y0
    weights = np.empty((8, 8))
    stage_weights = [weights[stage, : stage + 1] for stage in range(7)]
    t = 0.0

    def part(buffer, segment):
        # Where a segment other than the one spanning the state sits.
        if segment.head:
            return buffer[:head]
        return buffer[head:].reshape(lanes, rows, width)[:, segment.lo : segment.hi]

    def evaluate(stage, segment, views):
        if segment.head:
            if stats.rhs_evals >= config.max_evals:
                raise _budget_error(config, t0 + t, stats)
            stats.rhs_evals += 1
            derivative, coefficients[stage] = block.rate(heads[stage])
            if np.shape(derivative) != (head,):
                raise _shape_error(derivative, head, t0 + t, stats)
            # A copy, so a derivative that is a view of its input stays valid.
            head_rates[stage][...] = derivative
        if views is not None:
            block.rows(
                heads[stage],
                coefficients[stage],
                views[0][stage],
                segment.lo,
                segment.hi,
                views[1][stage],
            )

    def first_stage():
        for segment, k, _, _, views in work:
            if not single:
                k[0].reshape(part(y, segment).shape)[...] = part(y, segment)
            evaluate(0, segment, views)
            if not single:
                part(k_first, segment)[...] = k[1].reshape(part(y, segment).shape)

    first_stage()
    h = min(max(span / 100.0, 1e-8), span)
    while t < span:
        clipped = h >= span - t
        if clipped:
            h = span - t
        np.multiply(_DP_WEIGHTS, h, out=weights)
        weights[1:7, 0] = 1.0
        # Sums over the whole state: squared scaled error, |k_6 - k_5|^2
        # and |y_new - u_5|^2 for the stiffness estimate.
        err_sq = dk_sq = dy_sq = 0.0
        for segment, k, u, leading, views in work:
            if not single:
                shape = part(y, segment).shape
                k[0].reshape(shape)[...] = part(y, segment)
                k[1].reshape(shape)[...] = part(k_first, segment)
            for stage in range(1, 7):
                np.dot(stage_weights[stage], leading[stage], out=u[stage])
                evaluate(stage, segment, views)
            # A finite sum proves every entry finite; only an overflowing
            # sum needs the entry-wise check.
            if not math.isfinite(u[6].sum()) and not np.all(np.isfinite(u[6])):
                raise NonFiniteStateError(
                    "state became non-finite during a trial step "
                    f"{_where(t0 + t, stats)}"
                )
            # k_1 and k_2 are spent once the error is formed; they hold the
            # scale atol + rtol * max(|y|, |y_new|) and a difference.
            err, scale, diff = u[0], k[2], k[3]
            np.dot(weights[7, 1:], leading[7][1:], out=err)
            np.abs(k[0], out=scale)
            np.abs(u[6], out=diff)
            np.maximum(scale, diff, out=scale)
            scale *= config.rtol
            scale += config.atol
            err /= scale
            err_sq += np.dot(err, err)
            np.subtract(k[7], k[6], out=diff)
            dk_sq += np.dot(diff, diff)
            np.subtract(u[6], u[5], out=diff)
            dy_sq += np.dot(diff, diff)
            if not single:
                part(y_new, segment)[...] = u[6].reshape(shape)
                part(k_last, segment)[...] = k[7].reshape(shape)
        # An empty state has no error; its steps grow until they reach t1.
        err_norm = math.sqrt(err_sq / n) if n else 0.0
        if err_norm <= 1.0:
            stats.accepted_steps += 1
            if dy_sq > 0.0:
                stats.stiffness = max(stats.stiffness, h * math.sqrt(dk_sq / dy_sq))
            if single:
                y[:] = y_new
                k_first[:] = k_last
            else:
                y, y_new = y_new, y
            t = span if clipped else t + h
        else:
            stats.rejected_steps += 1
            if not single:
                # The trial left its last stage where the first stage was.
                # The rhs is deterministic, so this restores it bit for bit.
                first_stage()
        # Holds once: right after a first step accepted without a rejection.
        first = stats.accepted_steps == 1 and not stats.rejected_steps
        factor_max = _FIRST_FACTOR_MAX if first else _FACTOR_MAX
        if err_norm == 0.0:
            factor = factor_max
        else:
            factor = min(max(_SAFETY * err_norm**_ORDER_EXP, _FACTOR_MIN), factor_max)
        h = h * factor
    return y.copy() if single else y


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
