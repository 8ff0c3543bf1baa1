"""ODE integration on one-dimensional float64 state vectors.

Integrates autonomous systems dy/dt = rhs(y) from t0 to t1 with either a
fixed-step scheme (explicit Euler, classic fourth-order Runge-Kutta) or the
Dormand-Prince 5(4) embedded pair with adaptive step size.  The state is a
single one-dimensional float64 vector; what its entries mean is the
caller's business.

Dormand-Prince has the first-same-as-last property: its seventh stage is
the derivative at the new state, so an accepted step hands it to the next
step as its first stage.  A dopri5 run therefore costs one evaluation plus
six per step, accepted or rejected.  The stages live in one preallocated
matrix, and every stage input and the error estimate is a single
matrix-vector product over it.

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

import math
from dataclasses import dataclass
from typing import Callable, Tuple

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
    """Exact counts of work done by one integrate() call."""

    rhs_evals: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0


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
_ORDER_EXP = -1.0 / 5.0


def _fixed_step_count(span: float, step: float) -> int:
    # ceil(span / step), robust against the quotient landing one ulp above
    # an integer when span was produced as (integer * step).
    quotient = span / step
    n = math.ceil(quotient - 1e-12)
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
    must not keep references to its input.  Raises ValueError for a y0 that
    is not one-dimensional, for non-finite or reversed times and for a
    derivative whose shape is not that of y0,
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
    # Row 0 is the current state y, row 1 + i the stage derivative k_i.
    rows = np.empty((8, n))
    y, k = rows[0], rows[1:]
    y[:] = y0
    y_stage = np.empty(n)  # stage input; after stage 6 the candidate y_new
    err = np.empty(n)
    weights = np.empty((8, 8))
    t = 0.0

    def evaluate(values, stage):
        if stats.rhs_evals >= config.max_evals:
            raise _budget_error(config, t0 + t, stats)
        stats.rhs_evals += 1
        derivative = rhs(values)
        if np.shape(derivative) != (n,):
            raise _shape_error(derivative, n, t0 + t, stats)
        # A copy, so a derivative that is a view of its input stays valid.
        k[stage] = derivative

    h = min(max(span / 100.0, 1e-8), span)
    evaluate(y, 0)
    while t < span:
        clipped = h >= span - t
        if clipped:
            h = span - t
        np.multiply(_DP_WEIGHTS, h, out=weights)
        weights[1:7, 0] = 1.0
        for stage in range(1, 7):
            np.dot(weights[stage, : stage + 1], rows[: stage + 1], out=y_stage)
            evaluate(y_stage, stage)
        y_new = y_stage
        # A finite sum proves every entry finite; only an overflowing sum
        # needs the entry-wise check.
        if not math.isfinite(y_new.sum()) and not np.all(np.isfinite(y_new)):
            raise NonFiniteStateError(
                f"state became non-finite during a trial step {_where(t0 + t, stats)}"
            )
        np.dot(weights[7, 1:], k, out=err)
        # The stages k1..k5 are spent; two of their rows hold the scale
        # atol + rtol * max(|y|, |y_new|).
        scale, scratch = k[1], k[2]
        np.abs(y, out=scale)
        np.abs(y_new, out=scratch)
        np.maximum(scale, scratch, out=scale)
        scale *= config.rtol
        scale += config.atol
        err /= scale
        # An empty state has no error; its steps grow until they reach t1.
        err_norm = math.sqrt(np.dot(err, err) / n) if n else 0.0
        if err_norm <= 1.0:
            stats.accepted_steps += 1
            y[:] = y_new
            k[0] = k[6]
            t = span if clipped else t + h
        else:
            stats.rejected_steps += 1
        if err_norm == 0.0:
            factor = _FACTOR_MAX
        else:
            factor = min(max(_SAFETY * err_norm**_ORDER_EXP, _FACTOR_MIN), _FACTOR_MAX)
        h = h * factor
    return y.copy()
