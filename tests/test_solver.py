"""Tests for the ODE solver on one-dimensional float64 vectors."""

import functools
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import comln.dynamics
import comln.solver
from comln.dynamics import adapt
from comln.embedding import embed_set
from comln.loss import LossConfig
from comln.solver import (
    BudgetExceededError,
    NonFiniteStateError,
    SolverConfig,
    StepStats,
    TangentBlock,
    integrate,
)
from comln.tasks import TaskGenConfig, sample_episode
from comln.trainer import default_meta_params


def _state(values):
    return np.asarray(values, dtype=np.float64)


def _decay(y):
    return -y


def _decay_into(y, out):
    np.negative(y, out=out)


def _row_block(head, shape, rate, rows):
    """A TangentBlock of one episode from a head kernel rate(u, out) and a
    row kernel rows(u, X, lo, hi, out) on (lanes, hi - lo, width) views of
    the (1, entries) buffers bind receives."""
    lanes, _, width = shape

    def bind(inputs, derivatives, lo, hi, spare, heads):
        kernels = []
        for i, (x, dx) in enumerate(zip(inputs, derivatives)):
            calls = []
            x, dx = x[0], dx[0]
            if heads is None:
                u = x[:head]
                calls.append(functools.partial(rate, u, dx[:head]))
                x, dx = x[head:], dx[head:]
            else:
                u = heads[i][0]
            if hi > lo:
                part = (lanes, hi - lo, width)
                X, out = x.reshape(part), dx.reshape(part)
                calls.append(functools.partial(rows, u, X, lo, hi, out))
            kernels.append(lambda calls=calls: [call() for call in calls])
        return kernels

    return TangentBlock(head, shape, bind)


def _rhs_of(system):
    """integrate's first argument as a plain rhs: a plain rhs as it is, and a
    TangentBlock of one episode through one stage bound to fresh (1, entries)
    buffers at each call."""
    if getattr(system, "bind", None) is None:
        return system

    def rhs(y):
        x, out = y.reshape(1, -1), np.empty((1, y.size))
        (kernel,) = system.bind([x], [out], 0, system.shape[1], np.empty(y.size), None)
        kernel()
        return out[0]

    return rhs


def _sweep_with(monkeypatch, workers):
    """Run the chunked dopri5 path as on a host whose affinity mask holds
    ``workers`` CPUs: each step's chunks are then swept by that many threads,
    at most one per chunk."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))


def _count_thread_starts(monkeypatch):
    """The list to which every threading.Thread started from now on adds
    itself."""
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _metagrad_10w5s_adapt_args():
    """adapt's arguments for the metagrad-10w5s benchmark task at T = 2."""
    meta = default_meta_params(10, 16, seed=0, hidden_dims=(64, 32))
    task = TaskGenConfig(way=10, shot=5, test_shots=15, seed=1)
    episode = sample_episode(task, 0)
    phi, _ = embed_set(meta.phi_params, episode.train.features)
    return (
        meta.W0,
        phi,
        episode.train.labels,
        LossConfig(lam=0.5),
        2.0,
        SolverConfig(),
    )


class TestSolverConfig:
    def test_fixed_step_required_for_euler(self):
        with pytest.raises(ValueError):
            SolverConfig(method="euler")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(method="midpoint")

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(method="dopri5", rtol=0.0)


class TestIntegrate:
    def test_zero_field_leaves_state_unchanged(self):
        y0 = _state([3.0, -1.0, 2.5])
        zero = lambda y: np.zeros_like(y)
        y, stats = integrate(zero, y0, 0.0, 7.0, SolverConfig())
        np.testing.assert_array_equal(y, y0)
        assert stats.accepted_steps >= 1

    def test_decay_dopri5_matches_closed_form(self):
        # dz/dt = -z from 1.0 over unit time; closed form exp(-1).
        cfg = SolverConfig(method="dopri5", rtol=1e-8, atol=1e-10)
        y, stats = integrate(_decay, _state([1.0]), 0.0, 1.0, cfg)
        np.testing.assert_allclose(y[0], 0.36787944117144233, atol=1e-6)
        # First-same-as-last: one initial evaluation, then six per step.
        assert stats.rhs_evals == 1 + 6 * (stats.accepted_steps + stats.rejected_steps)

    def test_decay_euler_matches_exact_recurrence(self):
        # Ten explicit steps of 0.01 reproduce (0.99)^10 bit-for-bit up to
        # the shortened final step.
        cfg = SolverConfig(method="euler", fixed_step=0.01)
        y, stats = integrate(_decay, _state([1.0]), 0.0, 0.1, cfg)
        np.testing.assert_allclose(y[0], 0.9043820750088045, atol=1e-12)
        assert stats.accepted_steps == 10
        assert stats.rhs_evals == 10
        assert stats.rejected_steps == 0

    def test_final_step_shortened_to_land_on_t1(self):
        # Span 0.25 with step 0.1 takes 3 steps, the last of length 0.05.
        cfg = SolverConfig(method="euler", fixed_step=0.1)
        y, stats = integrate(_decay, _state([1.0]), 0.0, 0.25, cfg)
        assert stats.accepted_steps == 3
        expected = 1.0 * 0.9 * 0.9 * 0.95
        np.testing.assert_allclose(y[0], expected, rtol=1e-15)

    def test_span_of_many_whole_steps_takes_no_extra_step(self):
        # 25628 * 0.01 / 0.01 lands one ulp above 25628, more than an
        # absolute 1e-12 slack covers; the step count must still be 25628.
        cfg = SolverConfig(method="euler", fixed_step=0.01)
        _, stats = integrate(_decay, _state([1.0]), 0.0, 25628 * 0.01, cfg)
        assert stats.accepted_steps == 25628
        assert stats.rhs_evals == 25628

    def test_zero_span_returns_copy(self):
        y0 = _state([2.0])
        y, stats = integrate(_decay, y0, 1.0, 1.0, SolverConfig())
        assert y[0] == 2.0
        assert stats.rhs_evals == 0
        assert y is not y0

    def test_empty_state_reaches_t1(self):
        # No error, so the first step of 0.01 grows by the first-step bound
        # and the second, clipped to 0.99, ends the run.
        y, stats = integrate(lambda y: y, np.zeros(0), 0.0, 1.0, SolverConfig())
        assert y.size == 0
        assert stats.rejected_steps == 0
        assert stats.accepted_steps == 2

    def test_budget_exceeded(self):
        cfg = SolverConfig(method="rk4", fixed_step=0.1, max_evals=3)
        with pytest.raises(BudgetExceededError):
            integrate(_decay, _state([1.0]), 0.0, 1.0, cfg)

    def test_non_finite_initial_state(self):
        with pytest.raises(NonFiniteStateError):
            integrate(_decay, _state([np.nan]), 0.0, 1.0, SolverConfig())

    def test_non_finite_intermediate_state(self):
        # Explosive growth overflows well before t = 1.  The overflow is the
        # point of the test, so the numpy warning for it is silenced.
        blow_up = lambda y: y * y * 1e6
        cfg = SolverConfig(method="euler", fixed_step=0.05)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError):
            integrate(blow_up, _state([10.0]), 0.0, 1.0, cfg)

    def test_backwards_time_rejected(self):
        with pytest.raises(ValueError):
            integrate(_decay, _state([1.0]), 1.0, 0.0, SolverConfig())

    def test_two_dimensional_initial_state_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            integrate(_decay, np.zeros((2, 2)), 0.0, 1.0, SolverConfig())

    @pytest.mark.parametrize(
        "cfg", [SolverConfig(), SolverConfig(method="euler", fixed_step=0.1)]
    )
    @pytest.mark.parametrize("t1", [np.nan, np.inf])
    def test_non_finite_end_time_rejected_before_any_evaluation(self, cfg, t1):
        calls = []

        def counted(y):
            calls.append(1)
            return -y

        with pytest.raises(ValueError, match="finite times"):
            integrate(counted, _state([1.0]), 0.0, t1, cfg)
        assert calls == []

    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(),
            SolverConfig(method="euler", fixed_step=0.1),
            SolverConfig(method="rk4", fixed_step=0.1),
        ],
    )
    @pytest.mark.parametrize(
        "derivative, shape", [(np.array([1.0]), "(1,)"), (1.0, "()")]
    )
    def test_derivative_of_another_size_rejected(self, cfg, derivative, shape):
        # Broadcasting it over the state would hide a bug in the rhs.
        with pytest.raises(ValueError) as info:
            integrate(lambda y: derivative, np.zeros(3), 0.0, 1.0, cfg)
        assert str(info.value) == (
            f"rhs returned shape {shape} for a state of shape (3,) "
            "at t=0 after 0 accepted and 0 rejected steps"
        )

    def test_linearity_against_series_exponential(self):
        # For a linear field the flow map is the matrix exponential,
        # evaluated here by its power series as an independent reference.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2))
        rhs = lambda y: a @ y
        y0 = rng.normal(size=2)
        cfg = SolverConfig(method="dopri5", rtol=1e-8, atol=1e-12)
        y, _ = integrate(rhs, _state(y0), 0.0, 1.0, cfg)
        expm = np.eye(2)
        term = np.eye(2)
        for k in range(1, 40):
            term = term @ a / k
            expm = expm + term
        np.testing.assert_allclose(y, expm @ y0, rtol=1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        a = -(a @ a.T)
        rhs = lambda y: a @ y
        y0 = _state(rng.normal(size=4))
        cfg = SolverConfig(method="dopri5", rtol=1e-6, atol=1e-9)
        y1, s1 = integrate(rhs, y0, 0.0, 2.0, cfg)
        y2, s2 = integrate(rhs, y0, 0.0, 2.0, cfg)
        assert np.array_equal(y1, y2)
        assert (s1.rhs_evals, s1.accepted_steps, s1.rejected_steps) == (
            s2.rhs_evals,
            s2.accepted_steps,
            s2.rejected_steps,
        )

    @pytest.mark.parametrize(
        "method, steps, expected, tol",
        [("euler", (0.01, 0.005), 2.0, 0.1), ("rk4", (0.1, 0.05), 16.0, 2.0)],
    )
    def test_convergence_order(self, method, steps, expected, tol):
        errs = []
        for h in steps:
            cfg = SolverConfig(method=method, fixed_step=h)
            y, _ = integrate(_decay, _state([1.0]), 0.0, 1.0, cfg)
            errs.append(abs(y[0] - np.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert abs(ratio - expected) <= tol

    def test_dopri5_tolerance_scaling(self):
        # Tighter tolerance must not loosen the achieved accuracy.
        errs = []
        for rtol in (1e-4, 1e-8):
            cfg = SolverConfig(method="dopri5", rtol=rtol, atol=rtol * 1e-2)
            y, _ = integrate(_decay, _state([1.0]), 0.0, 1.0, cfg)
            errs.append(abs(y[0] - np.exp(-1.0)))
        assert errs[1] < errs[0]

    def test_stats_counts_are_consistent(self):
        cfg = SolverConfig(method="rk4", fixed_step=0.01)
        _, stats = integrate(_decay, _state([1.0]), 0.0, 1.0, cfg)
        assert stats.accepted_steps == 100
        assert stats.rhs_evals == 400

    def test_rhs_may_return_a_view_of_its_input(self):
        # dy/dt = y with the derivative handed back as the input's own
        # vector, which the solver reuses for the next stage input.
        y0 = _state([1.0, -2.0])
        cfg = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-12)
        y, _ = integrate(lambda y: y, y0, 0.0, 1.0, cfg)
        np.testing.assert_allclose(y, np.e * np.array([1.0, -2.0]), rtol=1e-8)
        np.testing.assert_array_equal(y0, [1.0, -2.0])

    @pytest.mark.parametrize(
        "cfg, where",
        [
            (SolverConfig(method="rk4", fixed_step=0.1, max_evals=10), "t=0.2 after 2"),
            # On y' = 1 the first step of 0.01 errs by rounding alone (error
            # norm about 1e-11), so the next one grows about 130-fold, within
            # the first-step bound, and is clipped to the 0.99 left.  The
            # first evaluation and the six of the first step spend 7 of the
            # 10, so the second step, which needs six more, is not started:
            # the budget runs out at t=0.01 after one accepted step.
            (SolverConfig(method="dopri5", max_evals=10), "t=0.01 after 1"),
        ],
    )
    def test_budget_error_says_where(self, cfg, where):
        grow = lambda y: np.ones_like(y)
        with pytest.raises(BudgetExceededError) as info:
            integrate(grow, _state([0.0]), 0.0, 1.0, cfg)
        assert str(info.value) == (
            f"rhs evaluation budget of {cfg.max_evals} exhausted "
            f"at {where} accepted and 0 rejected steps"
        )

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (
                SolverConfig(method="euler", fixed_step=0.1),
                "state became non-finite at step 6 at t=0.5 after 5",
            ),
            # The first step of 0.01 is followed by one of 0.99 (see above),
            # whose third stage reads y = 0.01 + 0.8 * 0.99, beyond the cliff.
            (
                SolverConfig(method="dopri5"),
                "state became non-finite during a trial step at t=0.01 after 1",
            ),
        ],
    )
    def test_non_finite_error_says_where(self, cfg, message):
        # The field is finite below y = 0.45 and NaN from there on.
        cliff = lambda y: np.where(y < 0.45, 1.0, np.nan)
        with pytest.raises(NonFiniteStateError) as info:
            integrate(cliff, _state([0.0]), 0.0, 1.0, cfg)
        assert str(info.value) == f"{message} accepted and 0 rejected steps"

    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(),
            SolverConfig(method="euler", fixed_step=0.1),
            SolverConfig(method="rk4", fixed_step=0.1),
        ],
    )
    def test_finite_state_whose_sum_overflows_integrates(self, cfg):
        # The step's check sums the state; three entries of 1e308 overflow
        # that sum, and with numpy's warnings made errors the overflow
        # raised RuntimeWarning out of dopri5.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y, _ = integrate(np.zeros_like, np.full(3, 1e308), 0.0, 1.0, cfg)
        assert np.array_equal(y, np.full(3, 1e308))

    @pytest.mark.parametrize("chunk_bytes", [None, 64])
    def test_state_whose_squares_overflow_takes_the_steps_of_a_smaller_one(
        self, monkeypatch, chunk_bytes
    ):
        # y' = -y from 2^1000 and from 2^500: a power of two scales every
        # stage and error exactly, so both take the same steps.  The squares
        # of the larger state's stiffness differences overflow; with
        # numpy's warnings made errors that raised RuntimeWarning out of
        # dopri5, and else the estimate read inf / inf.  With 64-byte
        # chunks the state is the head and two chunks of rows.
        rows = lambda u, X, lo, hi, out: _decay_into(X, out)
        block = _row_block(1, (1, 8, 2), _decay_into, rows)
        if chunk_bytes is not None:
            monkeypatch.setattr(comln.solver, "CHUNK_BYTES", chunk_bytes)
            assert len(comln.solver._segments(1, 1, 8, 2, chunk_bytes)) == 3
        runs = []
        for start in (2.0**1000, 2.0**500):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error", RuntimeWarning)
                y0 = np.full(17, start)
                runs.append(integrate(block, y0, 0.0, 1.0, SolverConfig()))
        (y_big, big), (y_small, small) = runs
        assert np.array_equal(y_big, y_small * 2.0**500)
        assert (big.rhs_evals, big.accepted_steps, big.rejected_steps) == (
            small.rhs_evals,
            small.accepted_steps,
            small.rejected_steps,
        )
        assert big.stiffness == pytest.approx(small.stiffness, rel=1e-14)

    def test_squares_of_pieces_scale_only_where_they_overflow(self):
        pieces = [np.array([3.0, -4.0]), np.array([1e200, 1e200]), np.array([0.5])]
        # numpy warns of the overflow of the plain sum; made an error, it
        # takes the same path.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            squares = [comln.solver._squares(piece) for piece in pieces]
        # Finite sums are the plain ones, added in order.
        assert squares[0] == (25.0, 1.0) and squares[2] == (0.25, 1.0)
        assert comln.solver._sum_squares([squares[0], squares[2]]) == (25.25, 1.0)
        total, scale = comln.solver._sum_squares(squares)
        assert scale == 1e200
        norm = math.hypot(*np.concatenate(pieces))
        assert scale * math.sqrt(total) == pytest.approx(norm, rel=1e-15)

    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (
                SolverConfig(method="euler", fixed_step=0.013),
                (
                    "0x1.ccf5b249c9d8dp-1",
                    "-0x1.6c794ae3d9ba5p+0",
                    "0x1.d2182c507d8c9p-1",
                ),
            ),
            (
                SolverConfig(method="rk4", fixed_step=0.07),
                (
                    "0x1.ccb284b01f916p-1",
                    "-0x1.6c4da7d98e51cp+0",
                    "0x1.d25da367c4d7ep-1",
                ),
            ),
        ],
    )
    def test_fixed_step_outputs_are_pinned(self, cfg, expected):
        # Bit-exact values of a nonlinear field; any change to the fixed-step
        # arithmetic shows up here.
        rhs = lambda y: np.sin(3.0 * y) - 0.5 * y**2
        y, _ = integrate(rhs, _state([0.3, -1.2, 2.0]), 0.0, 1.5, cfg)
        assert tuple(v.hex() for v in y) == expected


class TestAgainstReference:
    """The solver against a plain Dormand-Prince loop kept here as reference.

    The reference evaluates all seven stages of every step and sums the
    stages term by term.  The solver reuses the last stage and forms the
    sums as matrix products, which rounds differently, so states agree to a
    relative 1e-12 and step decisions agree exactly.
    """

    A = (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
    B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
    B4 = (
        5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40
    )

    @classmethod
    def reference_dopri5(cls, rhs, y0, span, cfg):
        """Returns (y(span), accepted steps, rejected steps)."""
        y = y0.copy()
        t, h = 0.0, min(max(span / 100.0, 1e-8), span)
        accepted = rejected = 0
        while t < span:
            clipped = h >= span - t
            if clipped:
                h = span - t
            k = [rhs(y)]
            for a in cls.A[1:]:
                k.append(rhs(y + h * sum(a_j * k_j for a_j, k_j in zip(a, k))))
            y_new = y + h * sum(b * k_j for b, k_j in zip(cls.B5, k))
            err = h * sum((b5 - b4) * k_j for b5, b4, k_j in zip(cls.B5, cls.B4, k))
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = float(np.sqrt(np.mean(np.square(err / scale))))
            if err_norm <= 1.0:
                accepted += 1
                y = y_new
                t = span if clipped else t + h
            else:
                rejected += 1
            # A first step accepted with no rejection before it may grow by
            # up to 1e4, every other step by up to 5.
            most = 1e4 if (accepted, rejected) == (1, 0) else 5.0
            if err_norm == 0.0:
                h = h * most
            else:
                h = h * min(max(0.9 * err_norm**-0.2, 0.2), most)
        return y, accepted, rejected

    def check_against_reference(self, system, y0, span, cfg):
        rhs = _rhs_of(system)
        y_ref, accepted, rejected = self.reference_dopri5(rhs, y0, span, cfg)
        y, stats = integrate(system, y0, 0.0, span, cfg)
        assert (stats.accepted_steps, stats.rejected_steps) == (accepted, rejected)
        assert stats.rhs_evals == 1 + 6 * (accepted + rejected)
        rel = np.max(np.abs(y - y_ref)) / np.max(np.abs(y_ref))
        assert rel <= 1e-12
        return stats

    def test_stiff_linear_system(self):
        # Eigenvalues from -1 to -1000 over the transient of the stiffest
        # mode, where the controller rejects steps but every error norm
        # stays at least 0.1 away from the acceptance threshold.  Later the
        # step sits at the stability limit, the error estimate is made of
        # rounding noise, and any change in summation order changes the
        # step sequence, so that regime cannot be compared step by step.
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = q @ np.diag(-np.logspace(0.0, 3.0, 6)) @ q.T
        rhs = lambda y: a @ y
        stats = self.check_against_reference(
            rhs, _state(rng.normal(size=6)), 0.05, SolverConfig(rtol=1e-6, atol=1e-8)
        )
        assert (stats.accepted_steps, stats.rejected_steps) == (51, 2)

    @pytest.mark.parametrize("track", [False, True])
    def test_adapt_5w1s(self, monkeypatch, track):
        episode = sample_episode(TaskGenConfig(way=5, shot=1, seed=11), 0)
        W0 = np.random.default_rng(11).normal(size=(5, 16)) * 0.1
        captured = {}

        def capture(system, y0, t0, t1, config):
            captured.update(system=system, y0=y0, span=t1 - t0)
            return integrate(system, y0, t0, t1, config)

        monkeypatch.setattr(comln.dynamics, "integrate", capture)
        cfg = SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8)
        adapt(
            W0,
            episode.train.features,
            episode.train.labels,
            LossConfig(lam=0.5),
            20.0,
            cfg,
            track=track,
        )
        self.check_against_reference(
            captured["system"], captured["y0"], captured["span"], cfg
        )


def matrix_dopri5(rhs, y0, span, cfg):
    """Dormand-Prince with all stages in one (8, n) matrix, kept as reference.

    The solver's loop before it learned to integrate a tangent block in
    row chunks: every stage input and the error estimate is one product
    with the whole stage matrix.  Returns (y(span), accepted steps,
    rejected steps, largest accepted step).
    """
    n = y0.size
    rows = np.empty((8, n))
    y, k = rows[0], rows[1:]
    y[:] = y0
    y_stage = np.empty(n)
    weights = np.empty((8, 8))
    table = [[0.0] * 8]
    table += [[0.0, *a] + [0.0] * (7 - len(a)) for a in TestAgainstReference.A[1:]]
    b5, b4 = TestAgainstReference.B5, TestAgainstReference.B4
    table += [[0.0, *(p - q for p, q in zip(b5, b4))]]
    table = np.array(table)
    t, h = 0.0, min(max(span / 100.0, 1e-8), span)
    accepted = rejected = 0
    largest = 0.0
    k[0] = rhs(y)
    while t < span:
        clipped = h >= span - t
        if clipped:
            h = span - t
        np.multiply(table, h, out=weights)
        weights[1:7, 0] = 1.0
        for stage in range(1, 7):
            np.dot(weights[stage, : stage + 1], rows[: stage + 1], out=y_stage)
            k[stage] = rhs(y_stage)
        err = np.dot(weights[7, 1:], k)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_stage))
        err /= scale
        err_norm = np.sqrt(np.dot(err, err) / n)
        if err_norm <= 1.0:
            accepted += 1
            largest = max(largest, h)
            y[:] = y_stage
            k[0] = k[6]
            t = span if clipped else t + h
        else:
            rejected += 1
        # Growth up to 1e4 right after a first step accepted with no
        # rejection before it, and up to 5 after every other step.
        growth = 5.0 if rejected or accepted != 1 else 1e4
        if err_norm == 0.0:
            h = h * growth
        else:
            h = h * min(max(0.9 * err_norm**-0.2, 0.2), growth)
    return y.copy(), accepted, rejected, largest


class TestTangentBlock:
    """dopri5 on the tracked flow, its tangent block cut into row chunks."""

    @staticmethod
    def captured_block(monkeypatch, *args):
        # The block and y0 that adapt(*args, track=True) hands to integrate.
        captured = {}

        def capture(block, y0, t0, t1, config):
            captured.update(block=block, y0=y0)
            return integrate(block, y0, t0, t1, config)

        with monkeypatch.context() as patch:
            patch.setattr(comln.dynamics, "integrate", capture)
            adapt(*args, track=True)
        return captured["block"], captured["y0"]

    @classmethod
    def tracked_block(cls, monkeypatch, way, shot, T):
        episode = sample_episode(TaskGenConfig(way=way, shot=shot, seed=5), 0)
        W0 = np.random.default_rng(5).normal(size=(way, 16)) * 0.1
        return cls.captured_block(
            monkeypatch,
            W0,
            episode.train.features,
            episode.train.labels,
            LossConfig(lam=0.5),
            T,
            SolverConfig(),
        )

    @pytest.mark.parametrize("way, shot, chunk_bytes", [(5, 1, 1400), (5, 5, 20_000)])
    def test_chunks_take_the_steps_of_the_matrix_loop(
        self, monkeypatch, way, shot, chunk_bytes
    ):
        m, n = way * shot, way
        block, y0 = self.tracked_block(monkeypatch, way, shot, 20.0)
        monkeypatch.setattr(comln.solver, "CHUNK_BYTES", chunk_bytes)
        segments = comln.solver._segments(
            block.head, *block.shape, comln.solver.CHUNK_BYTES
        )
        # Chunk boundaries fall inside the B rows and inside the z rows.
        bounds = [segment.lo for segment in segments[2:]]
        assert any(0 < lo < m * n for lo in bounds)
        assert any(lo > m * n for lo in bounds)

        cfg = SolverConfig()
        y, stats = integrate(block, y0, 0.0, 20.0, cfg)
        y_ref, accepted, rejected, _ = matrix_dopri5(_rhs_of(block), y0, 20.0, cfg)
        assert (stats.accepted_steps, stats.rejected_steps) == (accepted, rejected)
        # Every chunked step, accepted or rejected, evaluates all seven
        # stages, its first at y.  5w1s here takes 24 + 1 steps.
        assert stats.rhs_evals == 7 * (accepted + rejected)
        assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))

    def test_one_chunk_matches_the_matrix_loop_bit_for_bit(self, monkeypatch):
        block, y0 = self.tracked_block(monkeypatch, 5, 1, 20.0)
        segments = comln.solver._segments(
            block.head, *block.shape, comln.solver.CHUNK_BYTES
        )
        assert len(segments) == 1
        y, stats = integrate(block, y0, 0.0, 20.0, SolverConfig())
        y_ref, accepted, rejected, _ = matrix_dopri5(
            _rhs_of(block), y0, 20.0, SolverConfig()
        )
        assert (stats.accepted_steps, stats.rejected_steps) == (accepted, rejected)
        assert np.array_equal(y, y_ref)

    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(),
            SolverConfig(method="euler", fixed_step=0.05),
            SolverConfig(method="rk4", fixed_step=0.1),
        ],
    )
    def test_a_wrapped_copy_of_the_block_integrates_as_the_block(
        self, monkeypatch, cfg
    ):
        # A tracer hands integrate a functools.wraps copy of its first
        # argument: a function, not a TangentBlock, that carries the block's
        # fields.
        block, y0 = self.tracked_block(monkeypatch, 5, 1, 2.0)
        copy = functools.wraps(block)(lambda *args: block(*args))
        assert not isinstance(copy, TangentBlock)
        y, stats = integrate(block, y0, 0.0, 2.0, cfg)
        y_copy, stats_copy = integrate(copy, y0, 0.0, 2.0, cfg)
        assert np.array_equal(y_copy, y)
        assert stats_copy == stats

    def test_block_that_does_not_fill_the_state_rejected(self, monkeypatch):
        block, y0 = self.tracked_block(monkeypatch, 5, 1, 1.0)
        with pytest.raises(ValueError, match="does not fill"):
            integrate(block, np.append(y0, 0.0), 0.0, 1.0, SolverConfig())

    def test_chunked_state_takes_two_state_vectors(self, monkeypatch):
        # The metagrad-10w5s state: 888,000 entries, M = 50 lanes of N = 10,
        # cut into the head and 55 chunks.  y0 is made before tracing
        # starts, so the peak counts what integrate allocates: y and y_new,
        # one 15-row chunk matrix for each thread that sweeps chunks, and
        # per-call temporaries.
        block, y0 = self.captured_block(monkeypatch, *_metagrad_10w5s_adapt_args())
        head, (lanes, rows, width) = block.head, block.shape
        segments = comln.solver._segments(
            head, lanes, rows, width, comln.solver.CHUNK_BYTES
        )
        # Chunks of whole rows, so the largest is up to a row above
        # CHUNK_BYTES: 132,000 bytes here.
        chunk = 8 * max(segment.size for segment in segments[1:])
        assert chunk <= comln.solver.CHUNK_BYTES + 8 * lanes * width
        for workers in (1, 2):
            _sweep_with(monkeypatch, workers)
            temporaries = (
                15 * head * 8  # the head's own stage matrix
                + 7 * lanes * width * width * 8  # -A_i of each of seven stages
                + workers * chunk  # a chunk's Gram product in each thread
                + (1 << 20)  # row views and other bookkeeping, 0.3 MB measured
            )
            bound = 2 * y0.nbytes + workers * 15 * chunk + temporaries
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                integrate(block, y0, 0.0, 2.0, SolverConfig())
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if not tracing:
                    tracemalloc.stop()
            # Measured 17.05 MB with one thread and 19.04 MB with two; a
            # third state vector adds 7.1 MB.
            assert peak <= bound

    def test_non_finite_rows_in_a_later_chunk_say_where(self, monkeypatch):
        # The head is a clock, t' = 1; every row decays, X' = -X, but the
        # rows of the second chunk turn infinite from t = 0.3 on.  Steps of
        # 0.01 and about 0.24 are accepted; the third trial's stage inputs
        # pass t = 0.3.
        def rows(u, X, lo, hi, out):
            np.negative(X, out=out)
            if lo > 0 and u[0] >= 0.3:
                out[...] = np.inf

        block = _row_block(1, (1, 8, 2), lambda u, out: out.fill(1.0), rows)
        monkeypatch.setattr(comln.solver, "CHUNK_BYTES", 64)
        assert len(comln.solver._segments(1, 1, 8, 2, 64)) == 3
        y0 = np.concatenate(([0.0], np.ones(16)))
        # Stage inputs that combine infinities are NaN, and numpy warns of
        # them.  Made errors, those warnings raise from the stage products
        # before the chunk's own check; the caller gets the same error,
        # whether the second chunk runs on the calling thread or another.
        # A caller's np.errstate holds on both threads.
        raised = set()
        for workers in (1, 2):
            _sweep_with(monkeypatch, workers)
            for action in ("ignore", "error"):
                with warnings.catch_warnings():
                    warnings.simplefilter(action, RuntimeWarning)
                    with pytest.raises(NonFiniteStateError) as info:
                        integrate(block, y0, 0.0, 1.0, SolverConfig())
                assert str(info.value) == (
                    "state became non-finite during a trial step "
                    "at t=0.247614 after 2 accepted and 0 rejected steps"
                )
                assert info.value.episode is None
            with np.errstate(all="raise"):
                with pytest.raises(ArithmeticError) as info:
                    integrate(block, y0, 0.0, 1.0, SolverConfig())
            raised.add(type(info.value))
        # One type on both threads: with numpy's OpenBLAS, FloatingPointError
        # from the first stage product after the rows turned infinite.
        assert len(raised) == 1

    @pytest.mark.parametrize(
        "max_evals, where",
        [
            # Mid-run: six steps of seven evaluations each, the first of
            # them rejected, and the seventh step would need 49.
            (42, "t=0.0385616 after 5"),
            # The first trial, of 0.03, is rejected after its seven
            # evaluations, so a budget of 7 runs out before the second.
            (7, "t=0 after 0"),
        ],
    )
    def test_chunked_budget_error_says_where(self, monkeypatch, max_evals, where):
        # The head is a clock, t' = 1, and the rows relax fast towards it,
        # X' = t - 30 X.
        def rows(u, X, lo, hi, out):
            np.multiply(X, -30.0, out=out)
            out += u[0]

        block = _row_block(1, (1, 8, 2), lambda u, out: out.fill(1.0), rows)
        monkeypatch.setattr(comln.solver, "CHUNK_BYTES", 64)
        y0 = np.concatenate(([0.0], np.ones(16)))
        for workers in (1, 2):
            _sweep_with(monkeypatch, workers)
            with pytest.raises(BudgetExceededError) as info:
                integrate(block, y0, 0.0, 3.0, SolverConfig(max_evals=max_evals))
            assert str(info.value) == (
                f"rhs evaluation budget of {max_evals} exhausted "
                f"at {where} accepted and 1 rejected steps"
            )
            assert info.value.episode is None

    def test_the_threads_do_not_change_the_result(self, monkeypatch):
        # The metagrad-10w5s task, its 55 chunks swept by one, two and three
        # threads: three are more than a 2-core host has, and a short
        # switch interval hands the interpreter between them often.
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3):
                _sweep_with(monkeypatch, workers)
                results.append(adapt(*_metagrad_10w5s_adapt_args(), track=True))
        finally:
            sys.setswitchinterval(interval)
        (W1, one, stats), *others = results
        assert stats.rhs_evals == 7 * stats.accepted_steps
        for W_T, state, other in others:
            assert np.array_equal(W_T, W1)
            assert np.array_equal(state.s, one.s)
            assert np.array_equal(state.X, one.X)
            assert other == stats


    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(),
            SolverConfig(method="euler", fixed_step=0.05),
            SolverConfig(method="rk4", fixed_step=0.1),
        ],
        ids=["dopri5", "euler", "rk4"],
    )
    def test_work_that_needs_no_thread_starts_none(self, monkeypatch, cfg):
        # A tracked batch of four 5w1s episodes, each one segment, and a
        # chunked state on a host of one CPU, swept by the calling thread
        # alone: neither starts a thread.
        started = _count_thread_starts(monkeypatch)
        _sweep_with(monkeypatch, 1)
        task = TaskGenConfig(way=5, shot=1, seed=5)
        episodes = [sample_episode(task, i) for i in range(4)]
        features = np.concatenate([e.train.features for e in episodes])
        labels = np.concatenate([e.train.labels for e in episodes])
        W0 = np.random.default_rng(5).normal(size=(5, 16)) * 0.1
        adapt(W0, features, labels, LossConfig(lam=0.5), 2.0, cfg, True, episodes=4)
        assert started == []
        rows = lambda u, X, lo, hi, out: np.negative(X, out=out)
        block = _row_block(1, (1, 8, 2), lambda u, out: out.fill(1.0), rows)
        monkeypatch.setattr(comln.solver, "CHUNK_BYTES", 64)
        assert len(comln.solver._segments(1, 1, 8, 2, 64)) == 3
        integrate(block, np.concatenate(([0.0], np.ones(16))), 0.0, 1.0, cfg)
        assert started == []

    def test_the_threads_of_a_step_end_with_it(self, monkeypatch):
        # A chunked state on a host of two CPUs: each dopri5 step sweeps its
        # second chunk on a thread of its own, and none is left running once
        # integrate returns.
        started = _count_thread_starts(monkeypatch)
        _sweep_with(monkeypatch, 2)
        rows = lambda u, X, lo, hi, out: np.negative(X, out=out)
        block = _row_block(1, (1, 8, 2), lambda u, out: out.fill(1.0), rows)
        monkeypatch.setattr(comln.solver, "CHUNK_BYTES", 64)
        y0 = np.concatenate(([0.0], np.ones(16)))
        threads = threading.active_count()
        _, stats = integrate(block, y0, 0.0, 1.0, SolverConfig())
        assert len(started) == stats.accepted_steps + stats.rejected_steps > 0
        assert threading.active_count() == threads


class TestFirstStep:
    """The growth allowed right after the first step."""

    @staticmethod
    def trial_steps(rate, x0, span):
        """The size of every trial step dopri5 takes on x' = rate(t, x).

        The state carries its own clock t' = 1, whose stage inputs are
        t + h / 5 for the first stage and t + h for the sixth, so each group
        of six evaluations gives the step h.
        """
        clocks = []

        def rhs(y):
            clocks.append(y[0])
            return np.concatenate(([1.0], rate(y[0], y[1:])))

        integrate(rhs, np.concatenate(([0.0], x0)), 0.0, span, SolverConfig())
        stages = np.reshape(clocks[1:], (-1, 6))
        return (stages[:, 5] - stages[:, 0]) / 0.8

    def test_zero_error_first_step_grows_by_the_first_bound(self, monkeypatch):
        # An empty state has no error.  At the true bound the second step,
        # 1e4 times 1, is clipped to the 99 left.  With the bound lowered to
        # 2 the steps are 1, 2 and then 5 times the last, 10, 50 and the 37
        # left.  A budget of 1 + 6 k evaluations runs out before step k + 1,
        # so it names the time after k steps.
        empty = lambda y: y
        _, stats = integrate(empty, np.zeros(0), 0.0, 100.0, SolverConfig())
        assert stats.accepted_steps == 2
        monkeypatch.setattr(comln.solver, "_FIRST_FACTOR_MAX", 2.0)
        _, stats = integrate(empty, np.zeros(0), 0.0, 100.0, SolverConfig())
        assert stats.accepted_steps == 5
        for steps, t in [(1, 1), (2, 3), (3, 13), (4, 63)]:
            with pytest.raises(BudgetExceededError, match=f"at t={t} after {steps} "):
                cfg = SolverConfig(max_evals=1 + 6 * steps)
                integrate(empty, np.zeros(0), 0.0, 100.0, cfg)

    def test_ordinary_first_error_and_later_steps_grow_at_most_five(
        self, monkeypatch
    ):
        # x' = (1 - t)^6 up to t = 1 and 0 after it: the first step of 0.1
        # has an ordinary error and grows by less than 5, and the steps
        # after t = 1 have almost no error and grow by exactly 5.
        rate = lambda t, x: np.array([max(1.0 - t, 0.0) ** 6])
        steps = self.trial_steps(rate, np.zeros(1), 10.0)
        growth = steps[1:] / steps[:-1]
        assert steps[0] == pytest.approx(0.1, rel=1e-12)
        assert 1.0 < growth[0] < 5.0
        assert np.all(growth <= 5.0 * (1.0 + 1e-9))
        assert np.any(np.abs(growth - 5.0) <= 5e-9)
        # The same steps as a controller that bounds every growth by 5.
        monkeypatch.setattr(comln.solver, "_FIRST_FACTOR_MAX", 5.0)
        assert np.array_equal(self.trial_steps(rate, np.zeros(1), 10.0), steps)

    def test_rejection_before_the_first_accepted_step_keeps_the_cap(self):
        # x' jumps from 0 to 1000 at t = 0.005.  The first trial of 0.01
        # crosses the jump and is rejected, its successor of 0.002 stops
        # short of it and has almost no error, and after the rejection that
        # step may grow by 5 only, not up to the first-step bound.
        rate = lambda t, x: np.array([1e3 if t >= 0.005 else 0.0])
        steps = self.trial_steps(rate, np.zeros(1), 1.0)
        np.testing.assert_allclose(steps[:3], [0.01, 0.002, 0.01], rtol=1e-12)

    def test_tracked_10w5s_short_horizon_takes_four_steps(self):
        # The metagrad-10w5s benchmark task at T = 2: the first step of 0.02
        # is accepted with an error norm near 1e-8, the next grows to where
        # accuracy limits it, about 0.8.  The bound of 5 took 5 steps.
        _, _, stats = adapt(*_metagrad_10w5s_adapt_args(), track=True)
        assert (stats.accepted_steps, stats.rejected_steps) == (4, 0)
        assert stats.rhs_evals == 28


class TestStiffness:
    @pytest.mark.parametrize("lam", [0.5, 3.0, 40.0])
    def test_tracks_step_times_decay_rate(self, lam):
        # On y' = -lam y every stage derivative is -lam times its input, so
        # rho = lam and the estimate is lam times the largest accepted step.
        rhs = lambda y: -lam * y
        y0 = _state([1.0, -2.0, 0.5])
        cfg = SolverConfig()
        _, stats = integrate(rhs, y0, 0.0, 2.0, cfg)
        _, _, _, largest = matrix_dopri5(rhs, y0, 2.0, cfg)
        assert stats.stiffness == pytest.approx(lam * largest, rel=1e-9)

    @pytest.mark.parametrize("chunk_bytes", [None, 16])
    @pytest.mark.parametrize("lam", [0.5, 3.0, 40.0])
    def test_tangent_block_reads_the_head_alone(self, monkeypatch, lam, chunk_bytes):
        # Head u' = -lam u and rows X' = -lam X + u, as one row of episodes
        # and, with 16-byte chunks, one row per chunk.  On the head rho =
        # lam, so the estimate is lam times the largest accepted step; on
        # the whole vector the rows' forcing by u would move it.
        def rate(u, out):
            np.multiply(u, -lam, out=out)

        def rows(u, X, lo, hi, out):
            np.multiply(X, -lam, out=out)
            out += u

        block = _row_block(2, (1, 3, 2), rate, rows)
        if chunk_bytes is not None:
            monkeypatch.setattr(comln.solver, "CHUNK_BYTES", chunk_bytes)
            assert len(comln.solver._segments(2, 1, 3, 2, chunk_bytes)) == 4
        # The steps each path accepts, as its controller sees them.
        accepted_steps, judge = [], comln.solver._judge

        def spy(stats, h, *sums):
            accepted, next_h = judge(stats, h, *sums)
            if accepted:
                accepted_steps.append(h)
            return accepted, next_h

        monkeypatch.setattr(comln.solver, "_judge", spy)
        y0 = _state([1.0, -2.0, 0.5, 0.25, -1.0, 2.0, 0.0, 1.5])
        _, stats = integrate(block, y0, 0.0, 2.0, SolverConfig())
        assert len(accepted_steps) == stats.accepted_steps
        assert stats.stiffness == pytest.approx(lam * max(accepted_steps), rel=1e-9)

    def test_passes_the_stability_edge_below_atol(self):
        # The StepStats docstring's example: once y is below atol the error
        # test accepts steps beyond the edge near 3.3.
        rhs = lambda y: -10.0 * y
        _, stats = integrate(rhs, _state([1.0]), 0.0, 50.0, SolverConfig())
        assert stats.stiffness == pytest.approx(4.3206, abs=5e-5)
        assert (stats.accepted_steps, stats.rejected_steps) == (189, 11)

    def test_zero_for_fixed_step_methods(self):
        cfg = SolverConfig(method="rk4", fixed_step=0.1)
        _, stats = integrate(_decay, _state([1.0]), 0.0, 1.0, cfg)
        assert stats.stiffness == 0.0
