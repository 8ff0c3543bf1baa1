"""Tests of the episode axis: several small episodes in one integrate call.

Under dopri5 every episode of a batch keeps its own step control, so each
takes the steps it would take alone, and its results do not depend on which
episodes share its batch or where it sits in it.
"""

import ctypes
import dataclasses
import functools
import hashlib
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import comln.dynamics
import comln.solver
from comln.dynamics import adapt
from comln.embedding import EmbeddingParams, Layer, init_embedding
from comln.loss import LossConfig
from comln.metagrad import TaskFailure, batch_metagrads, task_metagrads
from comln.solver import (
    BudgetExceededError,
    NonFiniteStateError,
    SolverConfig,
    TangentBlock,
    integrate,
)
from comln.tasks import TaskGenConfig, sample_episode
from comln.trainer import MetaParams, TrainConfig, meta_train
from test_solver import _row_block, _sweep_with

LAM = LossConfig(lam=0.5)
CFG = SolverConfig()
EULER = SolverConfig(method="euler", fixed_step=0.1)
RK4 = SolverConfig(method="rk4", fixed_step=0.1)
DOPRI5_WHERE = "during a trial step in episode 1 at t=0.262878 after 2"


def clock_block(episodes, field):
    """A batch of states (c, x), c' = 1 and x' = field(e, c, x) for episode e.

    ``take`` keeps the episode numbers, so a narrowed block evaluates the
    same fields.
    """

    def block(ids):
        def rate(u, out):
            rows = u.reshape(len(ids), 2)
            du = np.ones_like(rows)
            du[:, 1] = [field(e, c, x) for e, (c, x) in zip(ids, rows)]
            out[...] = du.reshape(u.shape)

        def bind(inputs, derivatives, *_):
            return [functools.partial(rate, *row) for row in zip(inputs, derivatives)]

        def take(index):
            return block([ids[i] for i in index])

        return TangentBlock(2, (0, 0, 0), bind, len(ids), take)

    return block(list(episodes))


def chunked_clock_block(episodes, rows):
    """A batch of states (c, X), c' = 1 and X of shape (1, 8, 2) with
    X' = rows(e, c, X, lo, hi, out) on rows lo:hi for episode e.

    Only a block of one episode binds, as a chunked state is integrated
    one episode at a time; ``take`` keeps the episode numbers.
    """
    ids = list(episodes)
    rate = lambda u, out: out.fill(1.0)
    one = _row_block(1, (1, 8, 2), rate, functools.partial(rows, ids[0]))

    def take(index):
        return chunked_clock_block([ids[i] for i in index], rows)

    return dataclasses.replace(one, episodes=len(ids), take=take)


def decay(rates):
    return lambda e, c, x: -rates[e] * x


def start(episodes):
    # Clocks at 0, x at 1 + e, so that no two rows are alike.
    return np.array([[0.0, 1.0 + e] for e in episodes]).ravel()


class TestRows:
    """dopri5 on a batch of synthetic episodes against each one alone."""

    RATES = {0: 0.5, 1: 3.0, 2: 40.0, 3: 7.0}

    def alone(self, e, field):
        return integrate(clock_block([e], field), start([e]), 0.0, 2.0, CFG)

    def test_each_row_takes_the_steps_it_takes_alone(self):
        ids = [0, 1, 2, 3]
        field = decay(self.RATES)
        y, stats = integrate(clock_block(ids, field), start(ids), 0.0, 2.0, CFG)
        rows = y.reshape(4, 2)
        for r, e in enumerate(ids):
            y_e, alone = self.alone(e, field)
            assert stats.episodes[r] == alone.episodes[0]
            assert_array_equal(rows[r], y_e)
        # The rows really differ: the stiff one takes several times the steps.
        steps = [s.accepted_steps for s in stats.episodes]
        assert steps[2] >= 3 * steps[0]
        assert stats.rhs_evals == sum(s.rhs_evals for s in stats.episodes)
        assert stats.accepted_steps == sum(steps)
        assert stats.rejected_steps == sum(s.rejected_steps for s in stats.episodes)
        assert stats.stiffness == max(s.stiffness for s in stats.episodes)

    def test_a_row_does_not_depend_on_its_mates_or_position(self):
        field = decay(self.RATES)
        ids = [0, 1, 3]
        first, _ = integrate(clock_block(ids, field), start(ids), 0.0, 2.0, CFG)
        second, _ = integrate(clock_block([3, 2], field), start([3, 2]), 0.0, 2.0, CFG)
        assert_array_equal(first.reshape(3, 2)[2], second.reshape(2, 2)[0])

    def test_budget_error_names_the_row_that_ran_out(self):
        # Evaluations are counted per row; the stiff row 2 needs the most.
        field = decay(self.RATES)
        counts = [self.alone(e, field)[1].rhs_evals for e in range(4)]
        assert counts[2] > max(counts[:2] + counts[3:])
        cfg = SolverConfig(max_evals=max(counts[:2] + counts[3:]))
        with pytest.raises(BudgetExceededError) as info:
            integrate(clock_block(range(4), field), start(range(4)), 0.0, 2.0, cfg)
        assert info.value.episode == 2
        message = f"budget of {cfg.max_evals} exhausted in episode 2 at t="
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "cfg, where, action",
        [
            (CFG, DOPRI5_WHERE, "ignore"),
            (CFG, DOPRI5_WHERE, "error"),
            (EULER, "at step 5 in episode 1 at t=0.4 after 4", "ignore"),
            (EULER, "at step 5 in episode 1 at t=0.4 after 4", "error"),
            # Stage 2 of the fourth step reads the clock past 0.33 and stage
            # 3 an infinite x, so rk4 sums +inf and -inf.
            (RK4, "at step 4 in episode 1 at t=0.3 after 3", "ignore"),
            (RK4, "at step 4 in episode 1 at t=0.3 after 3", "error"),
        ],
        ids=[
            "ignore",
            "error",
            "euler-ignore",
            "euler-error",
            "rk4-ignore",
            "rk4-error",
        ],
    )
    def test_non_finite_row_is_named_whatever_the_warning_filter(
        self, cfg, where, action
    ):
        # Row 1's x' turns +inf once its clock passes 0.33, and -inf once x
        # is not finite.  With numpy's warnings made errors, the arithmetic
        # that combines them raises first; either way the caller gets the
        # error that names the row.
        def field(e, c, x):
            if e == 1 and c >= 0.33:
                return math.inf if math.isfinite(x) else -math.inf
            return -x

        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(NonFiniteStateError) as info:
                integrate(clock_block(range(3), field), start(range(3)), 0.0, 1.0, cfg)
        assert info.value.episode == 1
        assert str(info.value) == (
            f"state became non-finite {where} accepted and 0 rejected steps"
        )

    def test_a_chunked_batch_names_the_episode_that_turned_non_finite(
        self, monkeypatch
    ):
        # Every row decays, X' = -X, but episode 1's rows of the second chunk
        # turn infinite once its clock reaches 0.3.  Episode 0 reaches t1;
        # episode 1 fails in the trial step whose stage inputs pass 0.3,
        # whether the second chunk runs on the calling thread or another.
        def rows(e, c, X, lo, hi, out):
            np.negative(X, out=out)
            if e == 1 and lo > 0 and c[0] >= 0.3:
                out[...] = np.inf

        monkeypatch.setattr(comln.solver, "CHUNK_BYTES", 64)
        assert len(comln.solver._segments(1, 1, 8, 2, 64)) == 3
        block = chunked_clock_block(range(2), rows)
        y0 = np.tile(np.concatenate(([0.0], np.ones(16))), 2)
        for workers in (1, 2):
            _sweep_with(monkeypatch, workers)
            for action in ("ignore", "error"):
                with warnings.catch_warnings():
                    warnings.simplefilter(action, RuntimeWarning)
                    with pytest.raises(NonFiniteStateError) as info:
                        integrate(block, y0, 0.0, 1.0, CFG)
                assert info.value.episode == 1
                assert str(info.value) == (
                    "state became non-finite during a trial step in episode 1 "
                    "at t=0.247614 after 2 accepted and 0 rejected steps"
                )

    def test_fixed_step_budget_error_names_episode_0(self):
        # Every episode takes the same steps, so the first one names it.
        cfg = SolverConfig(method="euler", fixed_step=0.1, max_evals=4)
        block = clock_block(range(3), decay(self.RATES))
        with pytest.raises(BudgetExceededError) as info:
            integrate(block, start(range(3)), 0.0, 1.0, cfg)
        assert info.value.episode == 0
        assert str(info.value) == (
            "rhs evaluation budget of 4 exhausted in episode 0 "
            "at t=0.4 after 4 accepted and 0 rejected steps"
        )

    def test_fixed_steps_count_every_episode(self):
        def bind(inputs, derivatives, *_):
            return [
                functools.partial(np.negative, x, out=dx)
                for x, dx in zip(inputs, derivatives)
            ]

        block = TangentBlock(2, (0, 0, 0), bind, 3)
        cfg = SolverConfig(method="rk4", fixed_step=0.1)
        y, stats = integrate(block, np.ones(6), 0.0, 1.0, cfg)
        alone, one = integrate(lambda y: -y, np.ones(2), 0.0, 1.0, cfg)
        assert_array_equal(y.reshape(3, 2), np.tile(alone, (3, 1)))
        assert stats.episodes == (one.episodes[0],) * 3
        assert (stats.rhs_evals, stats.accepted_steps) == (3 * 40, 3 * 10)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_fixed_steps_bind_once_per_integrate_call(self, method):
        # Each bind hands over one kernel per stage of a step, bound to
        # buffers of the whole batch that every step reuses.
        ids = [0, 1, 2]
        real, calls = clock_block(ids, decay(self.RATES)), []

        def spy(inputs, derivatives, *rest):
            calls.append((np.shape(inputs[0]), len(inputs)))
            return real.bind(inputs, derivatives, *rest)

        block = TangentBlock(2, (0, 0, 0), spy, 3)
        cfg = SolverConfig(method=method, fixed_step=0.1)
        _, stats = integrate(block, start(ids), 0.0, 1.0, cfg)
        assert stats.accepted_steps == 3 * 10
        assert calls == [((3, 2), 1 if method == "euler" else 4)]

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_fixed_step_batch_equals_each_episode_alone(self, method):
        ids = [0, 1, 2, 3]
        field = decay(self.RATES)
        cfg = SolverConfig(method=method, fixed_step=0.01)
        y, stats = integrate(clock_block(ids, field), start(ids), 0.0, 0.5, cfg)
        for r, e in enumerate(ids):
            y_e, alone = integrate(clock_block([e], field), start([e]), 0.0, 0.5, cfg)
            assert_array_equal(y.reshape(4, 2)[r], y_e)
            assert stats.episodes[r] == alone.episodes[0]


def pinned_episodes(count=4, way=5, shot=1, seed=9):
    task = TaskGenConfig(way=way, shot=shot, seed=seed)
    return [sample_episode(task, i) for i in range(count)]


def stacked(episodes):
    return (
        np.concatenate([e.train.features for e in episodes]),
        np.concatenate([e.train.labels for e in episodes]),
    )


W0 = np.random.default_rng(9).normal(size=(5, 16)) * 0.1


class TestAdapt:
    @pytest.mark.parametrize("track", [False, True])
    def test_each_episode_equals_its_adaptation_alone(self, track):
        episodes = pinned_episodes()
        args = (LAM, 20.0, CFG, track)
        W_T, state, stats = adapt(W0, *stacked(episodes), *args, episodes=4)
        assert W_T.shape == (4, 5, 16) and state.s.shape == (4, 5, 5)
        for e, episode in enumerate(episodes):
            W1, one, alone = adapt(W0, *stacked([episode]), *args)
            assert stats.episodes[e] == alone.episodes[0]
            assert_array_equal(W_T[e], W1)
            assert_array_equal(state.s[e], one.s)
            if track:
                assert_array_equal(state.X[e], one.X)
        # The episodes take different steps, so each row kept its own.
        assert len({s.rhs_evals for s in stats.episodes}) > 1
        assert state.nbytes == 4 * one.nbytes

    def test_episode_output_does_not_depend_on_its_batch(self):
        episodes = pinned_episodes(count=5)
        args = (LAM, 20.0, CFG, True)
        first = adapt(W0, *stacked(episodes[:3]), *args, episodes=3)
        picked = [episodes[2], episodes[4]]
        second = adapt(W0, *stacked(picked), *args, episodes=2)
        (W1, one, _), (W2, two, _) = first, second
        for got, want in zip((W2, two.s, two.X), (W1, one.s, one.X)):
            assert_array_equal(got[0], want[2])
        assert second[2].episodes[0] == first[2].episodes[2]

    def test_a_longer_episode_leaves_the_others_steps_unchanged(self):
        # Scaled-up features make the flow stiffer, so that episode takes
        # more steps; the others' steps are those of the batch without it.
        episodes = pinned_episodes(count=3)
        features, labels = stacked(episodes)
        hard = features.copy()
        hard[5:10] *= 4.0
        args = (LAM, 20.0, CFG, True)
        _, state, stats = adapt(W0, hard, labels, *args, episodes=3)
        keep = np.r_[0:5, 10:15]
        _, easy_state, easy = adapt(W0, features[keep], labels[keep], *args, episodes=2)
        assert stats.episodes[1].rhs_evals > max(s.rhs_evals for s in easy.episodes)
        assert (stats.episodes[0], stats.episodes[2]) == easy.episodes
        assert_array_equal(state.X[[0, 2]], easy_state.X)

    def test_episodes_larger_than_a_chunk_run_one_at_a_time(self):
        # 5w5s states span several chunks, so each episode takes the
        # chunked path alone and the batch only stacks the results.
        episodes = pinned_episodes(count=2, shot=5)
        args = (LAM, 2.0, CFG, True)
        W_T, state, stats = adapt(W0, *stacked(episodes), *args, episodes=2)
        for e, episode in enumerate(episodes):
            W1, one, alone = adapt(W0, *stacked([episode]), *args)
            assert_array_equal(W_T[e], W1)
            assert_array_equal(state.X[e], one.X)
            assert stats.episodes[e] == alone.episodes[0]

    def test_a_chunked_batch_names_the_episode_that_ran_out(self, monkeypatch):
        # Alone, episode 0 takes 42 evaluations and episode 1 takes 49.
        episodes = pinned_episodes(count=2, shot=5)
        cfg = SolverConfig(max_evals=42)
        for workers in (1, 2):
            _sweep_with(monkeypatch, workers)
            with pytest.raises(BudgetExceededError) as info:
                adapt(W0, *stacked(episodes), LAM, 2.0, cfg, True, episodes=2)
            assert info.value.episode == 1
            assert str(info.value) == (
                "rhs evaluation budget of 42 exhausted in episode 1 "
                "at t=1.62246 after 6 accepted and 0 rejected steps"
            )

    def test_a_chunked_batch_does_not_depend_on_the_threads(self, monkeypatch):
        # Each 5w5s episode's chunks swept by one, two and three threads.
        # OpenBLAS on two threads rounds some chunk products of these
        # episodes unlike one thread, so every sweep, even a lone one, holds
        # its BLAS to one thread.
        episodes = pinned_episodes(count=2, shot=5, seed=5)
        results = []
        for workers in (1, 2, 3):
            _sweep_with(monkeypatch, workers)
            args = (LAM, 20.0, CFG, True)
            results.append(adapt(W0, *stacked(episodes), *args, episodes=2))
        (W1, one, stats), *others = results
        for W_T, state, other in others:
            assert_array_equal(W_T, W1)
            assert_array_equal(state.s, one.s)
            assert_array_equal(state.X, one.X)
            assert other == stats

    @staticmethod
    def forcing_calls(monkeypatch):
        """The arguments of every later ``_row_forcing`` call, in order."""
        calls, real = [], comln.dynamics._row_forcing

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(comln.dynamics, "_row_forcing", spy)
        return calls

    def test_kernels_are_bound_once_per_active_set(self, monkeypatch):
        # The four episodes finish after different numbers of evaluations,
        # so the rows leave one at a time: active sets of 4, 3, 2 and 1
        # tasks, each bound once, whose row forcing is built once.
        calls = self.forcing_calls(monkeypatch)
        episodes = pinned_episodes()
        _, _, stats = adapt(W0, *stacked(episodes), LAM, 20.0, CFG, True, episodes=4)
        assert [s.rhs_evals for s in stats.episodes] == [151, 199, 169, 157]
        assert [args[-1] for args in calls] == [4, 3, 2, 1]

    def test_chunked_episode_binds_each_chunk_once(self, monkeypatch):
        # A 5w5s state spans the head and several chunks of rows; each
        # chunk's row forcing is built once, whatever the evaluations.
        calls = self.forcing_calls(monkeypatch)
        episode = pinned_episodes(count=1, shot=5)[0]
        _, _, stats = adapt(W0, *stacked([episode]), LAM, 2.0, CFG, True)
        layout = comln.dynamics.compact_layout(25, 5)
        segments = comln.solver._segments(
            25 * 5, 25, layout.rows, 5, comln.solver.CHUNK_BYTES
        )
        assert len(segments) > 2 and stats.rhs_evals > 6
        assert [args[2:4] for args in calls] == [(s.lo, s.hi) for s in segments[1:]]

    @pytest.mark.parametrize("track", [False, True])
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize(
        "method, shot",
        [("euler", 1), ("rk4", 1), ("dopri5", 1), ("dopri5", 5)],
        ids=["euler", "rk4", "dopri5-rows", "dopri5-5w5s"],
    )
    def test_bind_receives_one_row_per_episode(
        self, monkeypatch, method, shot, count, track
    ):
        # Every binding of the flow, of the whole batch or of a block that
        # take narrowed it to, gets (episodes, entries) buffers; so does a
        # chunk of tangent rows, whose heads are those of its episode.
        calls, real = [], comln.dynamics._block

        def spied(c, layout):
            block = real(c, layout)

            def bind(inputs, derivatives, lo, hi, spare, heads):
                buffers = inputs + derivatives + list(heads or [])
                calls.append((block.episodes, [np.shape(b) for b in buffers], heads))
                return block.bind(inputs, derivatives, lo, hi, spare, heads)

            return dataclasses.replace(block, bind=bind)

        monkeypatch.setattr(comln.dynamics, "_block", spied)
        if method == "dopri5":
            solver, T = CFG, 2.0
        else:
            solver, T = SolverConfig(method=method, fixed_step=0.05), 0.5
        episodes = pinned_episodes(count=count, shot=shot)
        adapt(W0, *stacked(episodes), LAM, T, solver, track, episodes=count)
        for episodes, shapes, _ in calls:
            assert all(len(shape) == 2 and shape[0] == episodes for shape in shapes)
        chunked = any(heads is not None for *_, heads in calls)
        assert chunked == (shot == 5 and track)
        # A chunked batch is integrated one episode at a time.
        assert calls[0][0] == (1 if chunked else count)

    def test_a_split_that_does_not_divide_is_refused(self):
        features, labels = stacked(pinned_episodes(count=2))
        with pytest.raises(ValueError, match="do not split"):
            adapt(W0, features, labels, LAM, 1.0, CFG, True, episodes=3)

    def test_euler_batch_equals_each_episode_alone(self):
        episodes = pinned_episodes(count=3)
        euler = SolverConfig(method="euler", fixed_step=0.05)
        args = (LAM, 1.0, euler, True)
        W_T, state, stats = adapt(W0, *stacked(episodes), *args, episodes=3)
        for e, episode in enumerate(episodes):
            W1, one, alone = adapt(W0, *stacked([episode]), *args)
            assert_array_equal(W_T[e], W1)
            assert_array_equal(state.X[e], one.X)
            assert stats.episodes[e] == alone.episodes[0]


def blas_build():
    """numpy's version and the build and core string of the OpenBLAS it
    bundles, which decide how every product of the flow rounds."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        library = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
            config = getattr(library, name, None)
            if config is not None:
                config.restype, config.argtypes = ctypes.c_char_p, []
                return np.__version__, config().decode()
    return np.__version__, None


# The build the digests of TestPinned were computed with: numpy 2.4.6 on an
# AVX-512 Xeon, one BLAS thread.
PINNED_BUILD = (
    "2.4.6",
    "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX "
    "MAX_THREADS=64",
)


class TestPinned:
    @pytest.mark.parametrize(
        "track, chunk_bytes, digest",
        [
            (True, None, "cc03466fbb5e511ab76f9d628014db6672d6a8dfb42be743a5ad6281dd0abb4e"),
            (True, 1000, "c993e73e7a7f67e47b09ae70559f89d114db64255d45c68cffda9f3b38919b54"),
            (False, None, "73d39d15e3883f0e6756985bd5471baa24aee9e5f2a4e0629207af011adeaff2"),
        ],
        ids=["tracked", "tracked-chunked", "untracked"],
    )
    def test_outputs_and_step_stats_are_pinned(
        self, monkeypatch, track, chunk_bytes, digest
    ):
        # The sha256 of W(T), s, X and the StepStats of three 5w1s episodes
        # at lam = 0.5 and T = 20 under dopri5, on one segment and, with
        # 1000-byte chunks, on the chunked path.  Every entry of the flow
        # rounds as fl(fl(g) - fl(lam u)) whichever kernel subtracts the
        # decay, so a change of where it is written moves no bit.
        if blas_build() != PINNED_BUILD:
            pytest.skip(f"digests computed with numpy and OpenBLAS {PINNED_BUILD}")
        if chunk_bytes is not None:
            monkeypatch.setattr(comln.solver, "CHUNK_BYTES", chunk_bytes)
        episodes = pinned_episodes(count=3)
        W_T, state, stats = adapt(
            W0, *stacked(episodes), LAM, 20.0, CFG, track, episodes=3
        )
        sha = hashlib.sha256()
        for array in (W_T, state.s, state.X):
            if array is not None:
                sha.update(array.tobytes())
        sha.update(repr(stats).encode())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize(
        "chunk_bytes", [None, 1000], ids=["one-segment", "chunked"]
    )
    def test_lam_zero_binds_one_kernel_fewer_per_stage(self, monkeypatch, chunk_bytes):
        # At lam = 0.5 every stage kernel of a tracked binding ends in one
        # decay over its whole row: the head and rows of one segment, or the
        # head alone and each chunk of rows.  At lam = 0 none is bound, and
        # an untracked flow takes lam s from its Gram product instead.
        if chunk_bytes is not None:
            monkeypatch.setattr(comln.solver, "CHUNK_BYTES", chunk_bytes)
        calls = Counter()
        for name in ("_rate_and_curvature", "tangent_rows", "_decay", "rhs_adapt"):
            real = getattr(comln.dynamics, name)

            def spy(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(comln.dynamics, name, spy)
        data = stacked(pinned_episodes(count=3))
        counts = {}
        for lam, track in ((0.5, True), (0.0, True), (0.5, False)):
            calls.clear()
            adapt(W0, *data, LossConfig(lam=lam), 2.0, CFG, track, episodes=3)
            counts[lam, track] = dict(calls)
        decayed = counts[0.5, True]
        heads, rows = decayed["_rate_and_curvature"], decayed["tangent_rows"]
        if chunk_bytes is None:
            assert decayed["_decay"] == heads == rows
        else:
            assert rows > heads and decayed["_decay"] == heads + rows
        assert "_decay" not in counts[0.0, True] and counts[0.0, True]["tangent_rows"]
        assert "_decay" not in counts[0.5, False] and counts[0.5, False]["rhs_adapt"]


def meta_at(T, way=5, dim=16, seed=9):
    W = np.random.default_rng(seed).normal(size=(way, dim)) * 0.1
    return MetaParams(W, init_embedding([dim], seed=0), math.log(T))


def one_step(batch, solver=CFG):
    return TrainConfig(
        meta_batch_size=batch,
        iterations=1,
        lr=0.1,
        momentum=0.0,
        nesterov=False,
        lr_schedule=(),
        lam=LAM.lam,
        solver=solver,
        eval_every=0,
    )


class TestMetaBatch:
    def test_meta_batch_metrics_equal_a_per_episode_run(self):
        episodes = pinned_episodes()
        meta = meta_at(20.0)
        bundles = [task_metagrads(meta, e, LAM, CFG) for e in episodes]
        out, (row,) = meta_train(one_step(4), episodes, initial=meta)
        assert row.rhs_evals == sum(b.rhs_evals for b in bundles)
        assert row.rejected_steps == sum(b.rejected_steps for b in bundles)
        assert row.stiffness == max(b.stiffness for b in bundles)
        mean = sum(b.grad_W0 for b in bundles) / 4
        assert_array_equal(out.W0, meta.W0 - 0.1 * mean)

    def test_train_splits_of_two_sizes_adapt_apart(self):
        one_shot = pinned_episodes(count=2)
        two_shot = pinned_episodes(count=2, shot=2, seed=10)
        episodes = [one_shot[0], two_shot[0], one_shot[1], two_shot[1]]
        meta = meta_at(5.0)
        bundles = batch_metagrads(meta, episodes, LAM, CFG)
        for bundle, episode in zip(bundles, episodes):
            alone = task_metagrads(meta, episode, LAM, CFG)
            assert_array_equal(bundle.grad_W0, alone.grad_W0)
            assert_array_equal(bundle.grad_phi_train, alone.grad_phi_train)
            assert bundle.rhs_evals == alone.rhs_evals

    def test_budget_failure_names_its_task_alone(self):
        episodes = pinned_episodes()
        meta = meta_at(20.0)
        counts = [task_metagrads(meta, e, LAM, CFG).rhs_evals for e in episodes]
        # Put the episode that needs the most evaluations third.
        hardest = int(np.argmax(counts))
        order = [e for e in range(4) if e != hardest]
        order.insert(2, hardest)
        others = [counts[e] for e in order if e != hardest]
        assert counts[hardest] > max(others)
        solver = SolverConfig(max_evals=max(others))
        with pytest.raises(RuntimeError) as info:
            meta_train(one_step(4, solver), [episodes[e] for e in order], initial=meta)
        message = str(info.value)
        assert message.startswith(
            f"meta-training aborted: iteration 0, task 2: rhs evaluation budget of "
            f"{max(others)} exhausted in episode 2 at t="
        )
        assert isinstance(info.value.__cause__, BudgetExceededError)
        for other in (0, 1, 3):
            assert f"task {other}" not in message and f"episode {other}" not in message

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_a_non_finite_embedding_names_its_task(self, split):
        # A network of positive weights sends inputs near the largest float
        # to infinite embeddings; the third episode's split holds such inputs.
        layers = (
            Layer(np.ones((4, 16)), np.zeros(4), "relu"),
            Layer(np.ones((3, 4)), np.zeros(3), "identity"),
        )
        net = EmbeddingParams(layers, 16, 3)
        meta = MetaParams(np.zeros((5, 3)), net, math.log(2.0))
        episodes = pinned_episodes(count=3)
        large = getattr(episodes[2], split)
        large = dataclasses.replace(large, features=np.full_like(large.features, 1e308))
        episodes[2] = dataclasses.replace(episodes[2], **{split: large})
        with np.errstate(over="ignore"):
            with pytest.raises(TaskFailure) as info:
                batch_metagrads(meta, episodes, LAM, CFG)
        assert info.value.task == 2
        assert str(info.value.__cause__) == "features must be finite"
