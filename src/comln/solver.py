"""ODE integration on flat 64-bit state vectors.

Integrates autonomous systems dy/dt = rhs(y) from t0 to t1 with either a
fixed-step scheme (explicit Euler, classic fourth-order Runge-Kutta) or the
Dormand-Prince 5(4) embedded pair with adaptive step size.  The state is a
single flat float64 vector; a layout of named segments lets callers address
multi-dimensional views of it without copies.  Segment offsets are computed
once per layout.

Dormand-Prince has the first-same-as-last property: its seventh stage is
the derivative at the new state, so an accepted step hands it to the next
step as its first stage.  A dopri5 run therefore costs one evaluation plus
six per step, accepted or rejected.  The stages live in one preallocated
matrix, and every stage input and the error estimate is a single
matrix-vector product over it.

The rhs receives a FlatState whose vector the solver reuses for later
stages, so the rhs must not keep references to its input between calls.
It may return a view of its input: the solver copies each derivative into
its stage matrix before it writes to that buffer again.

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
from typing import Callable, Sequence, Tuple

import numpy as np


class BudgetExceededError(RuntimeError):
    """The integration would exceed the configured rhs evaluation budget."""


class NonFiniteStateError(ArithmeticError):
    """A NaN or Inf appeared in the state during integration."""


Layout = Tuple[Tuple[str, Tuple[int, ...]], ...]


@functools.lru_cache(maxsize=256)
def _segment_table(layout: Layout):
    """((name, start, stop, shape) per segment, total size) of a layout.

    Cached, so a layout's names are checked and its offsets summed once.
    """
    segments = []
    names = set()
    offset = 0
    for name, shape in layout:
        if name in names:
            raise ValueError("FlatState segment names must be unique")
        names.add(name)
        size = math.prod(shape)
        segments.append((name, offset, offset + size, tuple(shape)))
        offset += size
    return tuple(segments), offset


@dataclass(frozen=True)
class FlatState:
    """A flat float64 vector with named, shaped views onto its segments.

    ``layout`` is an ordered tuple of (name, shape) pairs; the segments
    tile the vector in order.  ``view`` returns a reshaped view (no copy)
    of one segment.
    """

    values: np.ndarray
    layout: Layout

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("FlatState values must be one-dimensional")
        object.__setattr__(self, "values", values)
        _, total = _segment_table(self.layout)
        if total != values.size:
            raise ValueError(
                f"layout covers {total} entries but values has {values.size}"
            )

    @classmethod
    def wrap(cls, values: np.ndarray, layout: Layout) -> "FlatState":
        """Unchecked constructor for a vector already known to fit ``layout``.

        ``values`` must be a one-dimensional float64 array whose size the
        layout covers; nothing is validated or converted.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "values", values)
        object.__setattr__(state, "layout", layout)
        return state

    @classmethod
    def pack(cls, segments: Sequence[Tuple[str, np.ndarray]]) -> "FlatState":
        """Concatenate named arrays (C order) into a single flat state."""
        layout = tuple((name, tuple(arr.shape)) for name, arr in segments)
        if segments:
            values = np.concatenate(
                [np.asarray(arr, dtype=np.float64).ravel() for _, arr in segments]
            )
        else:
            values = np.zeros(0)
        return cls(values, layout)

    def view(self, name: str) -> np.ndarray:
        """Shaped view of one segment; writes through to ``values``."""
        segments, _ = _segment_table(self.layout)
        for seg_name, start, stop, shape in segments:
            if seg_name == name:
                return self.values[start:stop].reshape(shape)
        raise KeyError(f"no segment named {name!r}")

    def with_values(self, values: np.ndarray) -> "FlatState":
        """Same layout, new underlying vector."""
        return FlatState(values, self.layout)

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


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


def _budget_error(config: SolverConfig, t: float, stats: StepStats):
    return BudgetExceededError(
        f"rhs evaluation budget of {config.max_evals} exhausted {_where(t, stats)}"
    )


def integrate(
    rhs: Callable[[FlatState], FlatState],
    y0: FlatState,
    t0: float,
    t1: float,
    config: SolverConfig,
) -> Tuple[FlatState, StepStats]:
    """Integrate dy/dt = rhs(y) from t0 to t1 and return (y(t1), stats).

    ``rhs`` must be a pure function mapping a FlatState to a FlatState of
    derivatives in the same layout, and must not keep references to its
    input.  Raises BudgetExceededError if the run would need more rhs
    evaluations than ``config.max_evals`` and NonFiniteStateError if any
    intermediate state stops being finite.
    """
    if t1 < t0:
        raise ValueError("integrate requires t1 >= t0")
    if not y0.is_finite():
        raise NonFiniteStateError(f"initial state contains NaN or Inf at t={t0:.6g}")

    stats = StepStats()
    span = t1 - t0
    if span == 0.0:
        return y0.with_values(y0.values.copy()), stats
    if config.method == "dopri5":
        return y0.with_values(_run_dopri5(rhs, y0, t0, span, config, stats)), stats

    layout = y0.layout
    step = config.fixed_step

    def f(values: np.ndarray) -> np.ndarray:
        if stats.rhs_evals >= config.max_evals:
            raise _budget_error(config, t0 + stats.accepted_steps * step, stats)
        stats.rhs_evals += 1
        return rhs(FlatState.wrap(values, layout)).values

    one_step = _euler_step if config.method == "euler" else _rk4_step
    try:
        y = _run_fixed(f, y0.values.copy(), span, step, stats, one_step)
    except NonFiniteStateError as exc:
        where = _where(t0 + stats.accepted_steps * step, stats)
        raise NonFiniteStateError(f"{exc} {where}") from None
    return y0.with_values(y), stats


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
    layout = y0.layout
    n = y0.values.size
    # Row 0 is the current state y, row 1 + i the stage derivative k_i.
    rows = np.empty((8, n))
    y, k = rows[0], rows[1:]
    y[:] = y0.values
    y_stage = np.empty(n)  # stage input; after stage 6 the candidate y_new
    err = np.empty(n)
    weights = np.empty((8, 8))
    t = 0.0

    def evaluate(values, stage):
        if stats.rhs_evals >= config.max_evals:
            raise _budget_error(config, t0 + t, stats)
        stats.rhs_evals += 1
        # A copy, so a derivative that is a view of its input stays valid.
        k[stage] = rhs(FlatState.wrap(values, layout)).values

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
