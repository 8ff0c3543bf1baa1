"""Tests for the brute-force reference implementations."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from comln.dynamics import adapt
from comln.embedding import init_embedding
from comln.loss import (
    EmbeddedSet,
    LossConfig,
    inner_grad,
    outer_loss,
    outer_partials,
)
from comln.metagrad import task_metagrads
from comln.oracles import (
    AdjointReport,
    QuadraticSpec,
    UnrollTape,
    adjoint_instability_demo,
    bptt_metagrads,
    finite_diff_metagrads,
    naive_forward_sensitivity,
    quadratic_sensitivity,
    softmax_probs,
    unroll_gradient_descent,
)
from comln.solver import SolverConfig
from comln.tasks import TaskGenConfig, sample_episode
from comln.trainer import MetaParams
from test_loss import negated_curvature

LAM0 = LossConfig(lam=0.0)
RTOL6 = SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8)


def small_episode(seed=0, way=3, shot=2, test_shots=3, input_dim=8):
    cfg = TaskGenConfig(
        way=way, shot=shot, test_shots=test_shots, input_dim=input_dim, seed=seed
    )
    return sample_episode(cfg, 0)


def identity_meta(seed, way, dim, T, scale=0.3):
    rng = np.random.default_rng(seed)
    W0 = rng.normal(size=(way, dim)) * scale
    return MetaParams(W0, init_embedding([dim], seed=0), math.log(T))


# ---------------------------------------------------------------------------
# the unroll tape


def test_unroll_records_every_iterate_exactly():
    episode = small_episode()
    meta = identity_meta(1, 3, 8, 0.1)
    data = EmbeddedSet(episode.train.features, episode.train.labels)
    tape = unroll_gradient_descent(meta.W0, data, LAM0, 0.01, 7)
    assert tape.steps == 7
    assert tape.iterates.shape == (8, 3, 8)
    W = meta.W0.copy()
    for k in range(7):
        grad, resid = inner_grad(W, meta.W0, data, LAM0)
        assert_array_equal(tape.residuals[k], resid)
        W = W - 0.01 * grad
        assert_array_equal(tape.iterates[k + 1], W)


def test_unroll_rejects_bad_step_and_count():
    episode = small_episode()
    data = EmbeddedSet(episode.train.features, episode.train.labels)
    W0 = np.zeros((3, 8))
    with pytest.raises(ValueError):
        unroll_gradient_descent(W0, data, LAM0, 0.0, 5)
    with pytest.raises(ValueError):
        unroll_gradient_descent(W0, data, LAM0, 0.01, -1)


@pytest.mark.parametrize("steps", [1, 10, 100, 1000])
def test_tape_storage_grows_linearly_while_tracked_state_does_not(steps):
    episode = small_episode()
    data = EmbeddedSet(episode.train.features, episode.train.labels)
    W0 = np.zeros((3, 8))
    tape = unroll_gradient_descent(W0, data, LAM0, 0.01, steps)
    n, d, m = 3, 8, data.count
    assert tape.nbytes == 8 * ((steps + 1) * n * d + steps * m * n)
    # The flow's augmented state has the same size whatever the horizon:
    # s and the tangent block (B and the j <= k half of z), 8 bytes each.
    _, state, stats = adapt(
        W0,
        data.features,
        data.labels,
        LAM0,
        steps * 0.01,
        SolverConfig(method="euler", fixed_step=0.01),
        track=True,
    )
    assert stats.accepted_steps == steps
    assert state.nbytes == 8 * (m * n + m * m * n * n + m * m * (m + 1) * n // 2)


# ---------------------------------------------------------------------------
# reverse mode through the unroll


def test_bptt_zero_steps_returns_outer_partials():
    episode = small_episode(seed=3)
    meta = identity_meta(3, 3, 8, 0.05)
    out = bptt_metagrads(meta, episode, LAM0, 0.01, 0)
    V, g_test = outer_partials(
        meta.W0, EmbeddedSet(episode.test.features, episode.test.labels)
    )
    assert_array_equal(out.grad_W0, V)
    assert_array_equal(out.grad_phi_test, g_test)
    assert_array_equal(out.grad_phi_train, np.zeros((6, 8)))


def test_bptt_single_step_matches_dense_hessian_expansion():
    episode = small_episode(seed=4)
    meta = identity_meta(4, 3, 8, 0.01)
    alpha = 0.01
    out = bptt_metagrads(meta, episode, LAM0, alpha, 1)

    data = EmbeddedSet(episode.train.features, episode.train.labels)
    W1, _ = inner_grad(meta.W0, meta.W0, data, LAM0)
    W1 = meta.W0 - alpha * W1
    V, _ = outer_partials(W1, EmbeddedSet(episode.test.features, episode.test.labels))
    A = -negated_curvature(
        np.stack([softmax_probs(meta.W0, phi) for phi in data.features]) / data.count
    )
    nd = meta.W0.size
    H = np.zeros((nd, nd))
    for i in range(data.count):
        H += np.kron(A[i], np.outer(data.features[i], data.features[i]))
    expected = ((np.eye(nd) - alpha * H) @ V.ravel()).reshape(meta.W0.shape)
    assert_allclose(out.grad_W0, expected, rtol=0, atol=1e-12)


def test_bptt_single_step_matches_finite_differences():
    episode = small_episode(seed=5)
    meta = identity_meta(5, 3, 8, 0.01)
    alpha, eps = 0.01, 1e-6
    out = bptt_metagrads(meta, episode, LAM0, alpha, 1)

    data = EmbeddedSet(episode.train.features, episode.train.labels)
    test = EmbeddedSet(episode.test.features, episode.test.labels)

    def objective(W0):
        grad, _ = inner_grad(W0, W0, data, LAM0)
        return outer_loss(W0 - alpha * grad, test)

    fd = np.zeros_like(meta.W0)
    for idx in np.ndindex(meta.W0.shape):
        probe = meta.W0.copy()
        probe[idx] += eps
        hi = objective(probe)
        probe[idx] -= 2 * eps
        lo = objective(probe)
        fd[idx] = (hi - lo) / (2 * eps)
    err = np.linalg.norm(out.grad_W0 - fd) / np.linalg.norm(fd)
    assert err <= 1e-6


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_bptt_agrees_with_euler_flow_at_matching_discretization(lam):
    episode = small_episode(seed=6)
    alpha, steps = 0.01, 10
    meta = identity_meta(6, 3, 8, steps * alpha)
    cfg = LossConfig(lam=lam)
    oracle = bptt_metagrads(meta, episode, cfg, alpha, steps)
    flow = task_metagrads(
        meta, episode, cfg, SolverConfig(method="euler", fixed_step=alpha)
    )

    def rel(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)

    assert rel(flow.grad_W0, oracle.grad_W0) <= 1e-8
    assert rel(flow.grad_phi_train, oracle.grad_phi_train) <= 1e-8
    assert rel(flow.grad_phi_test, oracle.grad_phi_test) <= 1e-8
    assert rel(flow.grad_T, oracle.grad_T) <= 1e-8


# ---------------------------------------------------------------------------
# dense forward sensitivities


def test_naive_sensitivity_at_vanishing_horizon_is_identity():
    episode = small_episode(seed=7)
    meta = identity_meta(7, 3, 8, 1e-12)
    S_W0, S_phi = naive_forward_sensitivity(meta, episode, LAM0, RTOL6)
    assert_allclose(S_W0, np.eye(24), rtol=0, atol=1e-10)
    assert np.abs(S_phi).max() <= 1e-10


def test_naive_sensitivity_refuses_large_instances():
    episode = small_episode(seed=8, way=5, input_dim=16, shot=1, test_shots=2)
    meta = identity_meta(8, 5, 16, 0.1)
    with pytest.raises(ValueError, match="64"):
        naive_forward_sensitivity(meta, episode, LAM0, RTOL6)


def test_quadratic_sensitivity_matches_matrix_exponential():
    spec = QuadraticSpec(np.array([1.0, 10.0]), np.array([1.0, 1.0]), 5.0)
    tight = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-12)
    w_T, S = quadratic_sensitivity(spec, tight)
    assert_allclose(w_T, spec.exact(5.0), rtol=0, atol=1e-10)
    expected = np.diag(np.exp(-spec.eigenvalues * spec.T))
    assert np.abs(S - expected).max() <= 1e-8


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_near_zero_horizon_recovers_outer_partial():
    episode = small_episode(seed=9)
    meta = identity_meta(9, 3, 8, 1e-12)
    fd = finite_diff_metagrads(
        meta,
        episode,
        LAM0,
        SolverConfig(method="dopri5", rtol=1e-12, atol=1e-14),
        eps=1e-5,
    )
    V, _ = outer_partials(
        meta.W0, EmbeddedSet(episode.test.features, episode.test.labels)
    )
    assert np.abs(fd.grad_W0 - V).max() <= 1e-9


def test_finite_diff_error_shrinks_quadratically():
    episode = small_episode(seed=10, way=2, shot=2, test_shots=2, input_dim=3)
    meta = identity_meta(10, 2, 3, 1.0)
    tight = SolverConfig(method="dopri5", rtol=1e-12, atol=1e-14)
    reference = task_metagrads(meta, episode, LAM0, tight)
    errors = []
    for eps in (2e-2, 1e-2, 5e-3):
        fd = finite_diff_metagrads(meta, episode, LAM0, tight, eps=eps)
        errors.append(
            np.linalg.norm(fd.grad_W0 - reference.grad_W0)
            / np.linalg.norm(reference.grad_W0)
        )
    assert 2.5 <= errors[0] / errors[1] <= 5.5
    assert 2.5 <= errors[1] / errors[2] <= 5.5


def test_finite_diff_rejects_bad_eps():
    episode = small_episode(seed=11)
    meta = identity_meta(11, 3, 8, 0.1)
    with pytest.raises(ValueError):
        finite_diff_metagrads(meta, episode, LAM0, RTOL6, eps=0.0)


# ---------------------------------------------------------------------------
# the reverse-integration instability


def test_quadratic_spec_validation():
    with pytest.raises(ValueError):
        QuadraticSpec(np.array([1.0, -2.0]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        QuadraticSpec(np.array([1.0]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        QuadraticSpec(np.array([1.0]), np.array([1.0]), 0.0)


def test_backward_integration_explodes_on_the_stiff_direction():
    spec = QuadraticSpec(np.array([1.0, 10.0]), np.array([1.0, 1.0]), 5.0)
    report = adjoint_instability_demo(spec, RTOL6)
    assert report.forward_err <= 1e-5
    assert report.backward_err >= 1e3 * report.forward_err
    assert report.ratio == report.backward_err / max(report.forward_err, 1e-16)


def test_backward_integration_is_harmless_near_zero_horizon():
    spec = QuadraticSpec(np.array([1.0, 10.0]), np.array([1.0, 1.0]), 1e-6)
    report = adjoint_instability_demo(spec, RTOL6)
    assert report.backward_err <= 1e-12
    assert report.ratio <= 10.0


def test_backward_integration_fine_when_isotropic_and_short():
    spec = QuadraticSpec(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.5)
    report = adjoint_instability_demo(spec, RTOL6)
    assert report.backward_err <= 1e-6


def test_demo_trajectories_share_the_time_grid():
    spec = QuadraticSpec(np.array([1.0, 10.0]), np.array([1.0, 1.0]), 5.0)
    report = adjoint_instability_demo(spec, RTOL6, samples=20)
    assert report.ts.shape == (21,)
    assert report.ts[0] == 0.0 and report.ts[-1] == 5.0
    assert report.w_forward.shape == (21, 2)
    assert report.w_backward.shape == (21, 2)
    assert report.w_exact.shape == (21, 2)
    assert_array_equal(report.w_forward[0], spec.w0)
    # The backward pass starts from the forward endpoint.
    assert_array_equal(report.w_backward[-1], report.w_forward[-1])
    assert_allclose(report.w_exact[0], spec.w0, rtol=0, atol=0)
    assert report.backward_err >= 1e3 * report.forward_err


def test_demo_without_samples_carries_no_trajectories():
    spec = QuadraticSpec(np.array([1.0]), np.array([1.0]), 1.0)
    report = adjoint_instability_demo(spec, RTOL6)
    assert isinstance(report, AdjointReport)
    assert report.ts is None and report.w_forward is None
