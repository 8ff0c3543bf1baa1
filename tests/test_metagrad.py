"""Tests for the Jacobian-free meta-gradient projections."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from comln.dynamics import adapt, compact_layout
from comln.embedding import embed_set, init_embedding
from comln.loss import (
    DimensionMismatchError,
    EmbeddedSet,
    LossConfig,
    inner_grad,
    outer_loss,
    outer_partials,
)
from comln.metagrad import (
    MetaGradients,
    coupling_matrix,
    grad_T,
    project_W0,
    project_phi,
    task_metagrads,
)
from comln.oracles import (
    dense_jacobians,
    expand_tangent_block,
    finite_diff_metagrads,
    naive_forward_sensitivity,
)
from comln.solver import SolverConfig
from comln.tasks import TaskGenConfig, sample_episode
from comln.trainer import MetaParams

LAM0 = LossConfig(lam=0.0)
TIGHT = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-12)


def small_episode(seed=0, way=2, shot=2, test_shots=2, input_dim=3):
    cfg = TaskGenConfig(
        way=way, shot=shot, test_shots=test_shots, input_dim=input_dim, seed=seed
    )
    return sample_episode(cfg, 0)


def identity_meta(seed, way, dim, T, scale=0.3):
    rng = np.random.default_rng(seed)
    W0 = rng.normal(size=(way, dim)) * scale
    return MetaParams(W0, init_embedding([dim], seed=0), math.log(T))


def block(m, n, rng=None):
    """A tangent block X for M examples and N classes: random, or zeros."""
    shape = (m, compact_layout(m, n).rows, n)
    return np.zeros(shape) if rng is None else rng.normal(size=shape)


def einsum_projections(V, s, B, z, phi, W0):
    """grad_W0 and grad_phi contracted from the expanded B and full z."""
    U = phi @ V.T
    C = np.einsum("ik,ijkl->jl", U, B)
    D = np.einsum("ijmk,ik->mj", z, U)
    return V - C.T @ phi, -(s @ V + C @ W0 + D @ phi)


def relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def tracked_state(meta, episode, cfg, solver):
    return adapt(
        meta.W0,
        episode.train.features,
        episode.train.labels,
        cfg,
        meta.T,
        solver,
        track=True,
    )


# ---------------------------------------------------------------------------
# the projections on hand-checkable inputs


def test_zero_sensitivity_leaves_outer_partial_unchanged():
    rng = np.random.default_rng(0)
    V = rng.normal(size=(2, 4))
    phi = rng.normal(size=(3, 4))
    C, D = coupling_matrix(V, block(3, 2), phi)
    assert_array_equal(C, np.zeros((3, 2)))
    assert_array_equal(D, np.zeros((3, 3)))
    assert_array_equal(project_W0(V, C, phi), V)


def test_single_identity_block_with_orthonormal_features():
    rng = np.random.default_rng(1)
    V = rng.normal(size=(2, 3))
    phi = np.eye(3)
    # B[1, 1] = I: rows 1 N + b of X[1] are the columns of the identity.
    X = block(3, 2)
    X[1, 2:4] = np.eye(2)
    C, _ = coupling_matrix(V, X, phi)
    result = project_W0(V, C, phi)
    expected = V - np.outer(V @ phi[1], phi[1])
    assert_allclose(result, expected, rtol=0, atol=1e-15)


def test_zero_state_projects_embeddings_to_zero():
    rng = np.random.default_rng(2)
    V = rng.normal(size=(2, 3))
    phi = rng.normal(size=(3, 3))
    W0 = rng.normal(size=(2, 3))
    C, D = coupling_matrix(V, block(3, 2), phi)
    out = project_phi(V, np.zeros((3, 2)), C, D, phi, W0)
    assert_array_equal(out, np.zeros((3, 3)))


def test_pure_coefficient_row_picks_negated_partial_row():
    rng = np.random.default_rng(3)
    V = rng.normal(size=(2, 3))
    phi = rng.normal(size=(3, 3))
    W0 = rng.normal(size=(2, 3))
    s = np.zeros((3, 2))
    s[1, 0] = 1.0
    C, D = coupling_matrix(V, block(3, 2), phi)
    out = project_phi(V, s, C, D, phi, W0)
    assert_array_equal(out[0], np.zeros(3))
    assert_array_equal(out[2], np.zeros(3))
    assert_allclose(out[1], -V[0], rtol=0, atol=1e-15)


def test_projection_dimension_checks():
    V = np.zeros((2, 3))
    phi = np.zeros((3, 3))
    X = block(3, 2)
    with pytest.raises(DimensionMismatchError):
        coupling_matrix(V, X, np.zeros((3, 4)))
    # Wrong K: one row short, and the row count of another M.
    with pytest.raises(DimensionMismatchError):
        coupling_matrix(V, X[:, :-1], phi)
    with pytest.raises(DimensionMismatchError):
        coupling_matrix(V, np.zeros((3, compact_layout(2, 2).rows, 2)), phi)
    # Wrong (M, N) with the K of the block.
    with pytest.raises(DimensionMismatchError):
        coupling_matrix(V, block(2, 2), phi)
    with pytest.raises(DimensionMismatchError):
        coupling_matrix(V, block(3, 3), phi)
    C, D = coupling_matrix(V, X, phi)
    with pytest.raises(DimensionMismatchError):
        project_phi(V, np.zeros((3, 2)), C, D, phi, np.zeros((3, 3)))


def test_shared_coupling_matrix_is_bitwise_stable():
    rng = np.random.default_rng(4)
    V = rng.normal(size=(2, 3))
    X = block(3, 2, rng)
    phi = rng.normal(size=(3, 3))
    C1, D1 = coupling_matrix(V, X, phi)
    C2, D2 = coupling_matrix(V, X, phi)
    assert_array_equal(C1, C2)
    assert_array_equal(D1, D2)
    assert_array_equal(D1, D1.T)


def test_first_order_relation_between_projection_and_coupling():
    # project_W0 is V minus the coupled term, so adding it back recovers
    # V to rounding.
    rng = np.random.default_rng(5)
    V = rng.normal(size=(3, 4))
    phi = rng.normal(size=(4, 4))
    C, _ = coupling_matrix(V, block(4, 3, rng), phi)
    assert_allclose(project_W0(V, C, phi) + C.T @ phi, V, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("m, n", [(4, 3), (3, 5)])
def test_compact_projections_match_einsum_on_expanded_block(m, n):
    # The projections read X as it is; the einsums read B and the full z
    # that the oracle expands from the same X.
    rng = np.random.default_rng(40 + m)
    d = 6
    V, phi, W0 = (rng.normal(size=shape) for shape in ((n, d), (m, d), (n, d)))
    s, X = rng.normal(size=(m, n)), block(m, n, rng)
    C, D = coupling_matrix(V, X, phi)
    want_W0, want_phi = einsum_projections(V, s, *expand_tangent_block(X), phi, W0)
    assert relative_gap(project_W0(V, C, phi), want_W0) <= 1e-12
    assert relative_gap(project_phi(V, s, C, D, phi, W0), want_phi) <= 1e-12


def test_compact_projections_match_einsum_on_adapted_5w5s_state():
    episode = sample_episode(TaskGenConfig(way=5, shot=5, seed=2), 0)
    meta = MetaParams(
        np.random.default_rng(2).normal(size=(5, 32)) * 0.1,
        init_embedding([16, 64, 32], seed=0),
        math.log(2.0),
    )
    phi, _ = embed_set(meta.phi_params, episode.train.features)
    phi_test, _ = embed_set(meta.phi_params, episode.test.features)
    cfg = LossConfig(lam=0.5)
    W_T, state, _ = adapt(
        meta.W0,
        phi,
        episode.train.labels,
        cfg,
        meta.T,
        SolverConfig(),
        track=True,
    )
    V, _ = outer_partials(W_T, EmbeddedSet(phi_test, episode.test.labels))
    C, D = coupling_matrix(V, state.X, phi)
    B, z = expand_tangent_block(state.X)
    want_W0, want_phi = einsum_projections(V, state.s, B, z, phi, meta.W0)
    assert relative_gap(project_W0(V, C, phi), want_W0) <= 1e-12
    assert relative_gap(project_phi(V, state.s, C, D, phi, meta.W0), want_phi) <= 1e-12


# ---------------------------------------------------------------------------
# projections versus dense vector-Jacobian products


def dense_vjp(V, J_W0, J_phi, shape):
    g_W0 = (V.ravel() @ J_W0).reshape(shape)
    g_phi = np.stack([V.ravel() @ J_phi[m] for m in range(J_phi.shape[0])])
    return g_W0, g_phi


def test_projections_match_dense_contraction_on_adapted_state():
    episode = small_episode(seed=6)
    meta = identity_meta(6, 2, 3, 1.5)
    for lam in (0.0, 0.5):
        cfg = LossConfig(lam=lam)
        W_T, state, _ = tracked_state(meta, episode, cfg, TIGHT)
        V, _ = outer_partials(
            W_T, EmbeddedSet(episode.test.features, episode.test.labels)
        )
        phi = episode.train.features
        J_W0, J_phi = dense_jacobians(state.s, state.X, phi, meta.W0)
        expect_W0, expect_phi = dense_vjp(V, J_W0, J_phi, meta.W0.shape)
        C, D = coupling_matrix(V, state.X, phi)
        assert np.abs(project_W0(V, C, phi) - expect_W0).max() <= 1e-12
        got_phi = project_phi(V, state.s, C, D, phi, meta.W0)
        assert np.abs(got_phi - expect_phi).max() <= 1e-12


def test_projection_suite_randomized_tensors():
    # The projections are pure multilinear algebra, so random tensors
    # (not necessarily reachable by any flow) probe them exhaustively.
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 64 // n + 1))
        m = int(rng.integers(2, 7))
        V = rng.normal(size=(n, d))
        s = rng.normal(size=(m, n))
        X = block(m, n, rng)
        phi = rng.normal(size=(m, d))
        W0 = rng.normal(size=(n, d))
        J_W0, J_phi = dense_jacobians(s, X, phi, W0)
        expect_W0, expect_phi = dense_vjp(V, J_W0, J_phi, (n, d))
        C, D = coupling_matrix(V, X, phi)
        worst = max(
            worst,
            np.abs(project_W0(V, C, phi) - expect_W0).max(),
            np.abs(project_phi(V, s, C, D, phi, W0) - expect_phi).max(),
        )
    assert worst <= 1e-10


def test_dense_jacobians_refuse_large_instances():
    with pytest.raises(ValueError, match="64"):
        dense_jacobians(
            np.zeros((2, 5)), block(2, 5), np.zeros((2, 16)), np.zeros((5, 16))
        )


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_decomposed_jacobians_match_naive_integration(lam):
    episode = small_episode(seed=7, way=2, shot=2, test_shots=2, input_dim=3)
    meta = identity_meta(7, 2, 3, 1.5)
    cfg = LossConfig(lam=lam)
    _, state, _ = tracked_state(meta, episode, cfg, TIGHT)
    J_W0, J_phi = dense_jacobians(state.s, state.X, episode.train.features, meta.W0)
    S_W0, S_phi = naive_forward_sensitivity(meta, episode, cfg, TIGHT)
    assert np.abs(J_W0 - S_W0).max() <= 1e-6
    assert np.abs(J_phi - S_phi).max() <= 1e-6


# ---------------------------------------------------------------------------
# the horizon gradient


def test_grad_T_zero_at_equilibrium():
    rng = np.random.default_rng(8)
    V = rng.normal(size=(3, 4))
    assert grad_T(V, np.zeros((3, 4))) == 0.0


def test_grad_T_negative_when_gradients_align():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(3, 4))
    assert grad_T(g, g) == pytest.approx(-np.sum(g * g), rel=1e-15)
    with pytest.raises(DimensionMismatchError):
        grad_T(g, np.zeros((2, 2)))


def test_grad_T_matches_finite_differences_in_T():
    episode = small_episode(seed=10, way=3, shot=2, test_shots=3, input_dim=4)
    meta = identity_meta(10, 3, 4, 0.8)
    bundle = task_metagrads(meta, episode, LAM0, TIGHT)
    eps = 1e-4
    test_set = EmbeddedSet(episode.test.features, episode.test.labels)

    def loss_at(T):
        W_T, _, _ = adapt(
            meta.W0,
            episode.train.features,
            episode.train.labels,
            LAM0,
            T,
            TIGHT,
            track=False,
        )
        return outer_loss(W_T, test_set)

    fd = (loss_at(meta.T + eps) - loss_at(meta.T - eps)) / (2 * eps)
    assert abs(bundle.grad_T - fd) / abs(fd) <= 1e-4


# ---------------------------------------------------------------------------
# the per-task bundle


def test_task_bundle_at_vanishing_horizon():
    episode = small_episode(seed=11, way=3, shot=2, test_shots=3, input_dim=4)
    meta = identity_meta(11, 3, 4, 1e-12)
    bundle = task_metagrads(meta, episode, LAM0, TIGHT)
    V, _ = outer_partials(
        meta.W0, EmbeddedSet(episode.test.features, episode.test.labels)
    )
    assert np.abs(bundle.grad_W0 - V).max() <= 1e-9
    assert np.abs(bundle.grad_phi_train).max() <= 1e-9


def test_task_bundle_scalar_identities():
    episode = small_episode(seed=12, way=3, shot=2, test_shots=3, input_dim=4)
    meta = identity_meta(12, 3, 4, 0.6)
    bundle = task_metagrads(meta, episode, LAM0, TIGHT)
    assert bundle.diag_alignment == -bundle.grad_T
    assert bundle.grad_embedding == ()
    assert 0.0 <= bundle.test_accuracy <= 1.0
    assert np.isfinite(bundle.outer_loss)


def test_task_bundle_carries_the_adaptation_solver_counts():
    episode = small_episode(seed=12, way=3, shot=2, test_shots=3, input_dim=4)
    meta = identity_meta(12, 3, 4, 0.6)
    bundle = task_metagrads(meta, episode, LAM0, TIGHT)
    _, _, stats = adapt(
        meta.W0,
        episode.train.features,
        episode.train.labels,
        LAM0,
        meta.T,
        TIGHT,
        track=True,
    )
    assert (bundle.rhs_evals, bundle.rejected_steps) == (
        stats.rhs_evals,
        stats.rejected_steps,
    )
    assert bundle.rhs_evals > 0


def test_task_bundle_matches_finite_differences():
    episode = small_episode(seed=13, way=3, shot=2, test_shots=3, input_dim=5)
    meta = identity_meta(13, 3, 5, 0.7)
    bundle = task_metagrads(meta, episode, LAM0, TIGHT)
    fd = finite_diff_metagrads(
        meta,
        episode,
        LAM0,
        SolverConfig(method="dopri5", rtol=1e-12, atol=1e-14),
        eps=1e-5,
    )

    def rel(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)

    assert rel(bundle.grad_W0, fd.grad_W0) <= 1e-4
    assert rel(bundle.grad_phi_train, fd.grad_phi_train) <= 1e-4
    assert rel(bundle.grad_phi_test, fd.grad_phi_test) <= 1e-4
    assert rel(bundle.grad_T, fd.grad_T) <= 1e-4


def test_task_bundle_dimension_checks():
    episode = small_episode(seed=14, way=3, shot=1, test_shots=2, input_dim=4)
    meta_bad_embed = identity_meta(14, 3, 5, 0.1)
    with pytest.raises(DimensionMismatchError):
        task_metagrads(meta_bad_embed, episode, LAM0, TIGHT)
    rng = np.random.default_rng(14)
    meta_bad_way = MetaParams(
        rng.normal(size=(2, 4)), init_embedding([4], seed=0), math.log(0.1)
    )
    with pytest.raises(DimensionMismatchError):
        task_metagrads(meta_bad_way, episode, LAM0, TIGHT)


def test_bundle_rejects_non_finite_entries():
    good = np.zeros((2, 3))
    with pytest.raises(ValueError):
        MetaGradients(
            grad_W0=np.full((2, 3), np.nan),
            grad_phi_train=good,
            grad_phi_test=good,
            grad_T=0.0,
            grad_embedding=(),
            outer_loss=0.0,
            test_accuracy=0.0,
        )
    with pytest.raises(ValueError):
        MetaGradients(
            grad_W0=good,
            grad_phi_train=good,
            grad_phi_test=good,
            grad_T=float("inf"),
            grad_embedding=(),
            outer_loss=0.0,
            test_accuracy=0.0,
        )


# ---------------------------------------------------------------------------
# accuracy of the default solver settings

# Largest relative error of any gradient below against the tight reference,
# over the four instances of the test.  Measured at 1.15e-5 (the last-layer
# bias gradient at 5w5s with W0 = 0); the bound leaves that a factor of
# 1.7.  The error depends on the episode: other task seeds measured from
# 1e-7 to 1.8e-4, so the bound holds for these instances only.
DEFAULT_SOLVER_GRAD_RTOL = 2e-5


# The same comparison at the benchmark's 10w5s shape and T = 2, where the
# first dopri5 step is accepted with no rejection, so the step may grow by
# up to 1e4 after it (solver._FIRST_FACTOR_MAX).  Measured at 1.09e-4 with
# W0 = 0 and 1.62e-4 with the random W0 (the last-layer bias gradient both
# times); the bound leaves that a factor of 1.85.  Other 10w5s episodes at
# T = 2 measured from 3.2e-5 to 1.8e-4.
SHORT_HORIZON_GRAD_RTOL = 3e-4


# |T grad_T| is at most T ||V|| ||grad L(W(T))||, V the outer partial at W(T)
# and grad L the inner gradient there.  At T = 20 the flow is nearly
# stationary, so T grad_T is about 1e-6 and its error no fraction of itself.
# The default solver's error on T grad_T against the tight reference, over
# the reference's T ||V|| ||grad L(W(T))||, measured 1.4e-2 to 3.9e-2 on the
# twelve 5w1s instances of the test (episodes 0-5, each W0); the bound
# leaves that a factor of 2.  The ratio is no constant of the flow: at 5w5s
# (episodes 0-5) it measured 4.8e-2 to 2.0, and with the identity backbone
# at 5w1s (episodes 0-9) 7.4e-3 to 2.3, where the error of W(T) itself, not
# grad L, sets the error.  So the bound holds for these instances only.
LOG_T_GRAD_RTOL = 8e-2

TIGHT_REFERENCE = SolverConfig(rtol=1e-12, atol=1e-14)


def _instance(way, shot, w0, T, index=0):
    """Meta-parameters with the 16-64-32 backbone and episode ``index``."""
    episode = sample_episode(TaskGenConfig(way=way, shot=shot, seed=3), index)
    W0 = np.zeros((way, 32))
    if w0 == "random":
        W0 = np.random.default_rng(5).normal(size=(way, 32)) * 0.1
    return MetaParams(W0, init_embedding([16, 64, 32], seed=0), math.log(T)), episode


def _default_solver_gradient_errors(way, shot, w0, T):
    """The relative error of each gradient of the default solver against
    rtol 1e-12 / atol 1e-14, and the default solver's bundle."""
    meta, episode = _instance(way, shot, w0, T)
    cfg = LossConfig(lam=0.5)
    got = task_metagrads(meta, episode, cfg, SolverConfig())
    ref = task_metagrads(meta, episode, cfg, TIGHT_REFERENCE)
    pairs = [(got.grad_W0, ref.grad_W0), (got.grad_phi_train, ref.grad_phi_train)]
    for layer, ref_layer in zip(got.grad_embedding, ref.grad_embedding):
        pairs.extend(zip(layer, ref_layer))
    # grad_T is left out: at T = 20 the flow is nearly stationary, and its
    # error has a bound of its own (LOG_T_GRAD_RTOL).
    errors = [
        np.max(np.abs(value - reference)) / np.max(np.abs(reference))
        for value, reference in pairs
    ]
    return errors, got


@pytest.mark.parametrize("shot", [1, 5])
@pytest.mark.parametrize("w0", ["zero", "random"])
def test_default_solver_gradients_match_tight_reference(shot, w0):
    errors, _ = _default_solver_gradient_errors(5, shot, w0, 20.0)
    for error in errors:
        assert error <= DEFAULT_SOLVER_GRAD_RTOL


@pytest.mark.parametrize("w0", ["zero", "random"])
def test_default_solver_gradients_match_tight_reference_at_short_horizon(w0):
    errors, got = _default_solver_gradient_errors(10, 5, w0, 2.0)
    # No trial is rejected, so the first accepted step sets the growth bound.
    assert got.rejected_steps == 0
    for error in errors:
        assert error <= SHORT_HORIZON_GRAD_RTOL


@pytest.mark.parametrize("w0", ["zero", "random"])
def test_default_solver_log_T_gradient_matches_tight_reference(w0):
    cfg = LossConfig(lam=0.5)
    for index in range(6):
        meta, episode = _instance(5, 1, w0, 20.0, index)
        got = task_metagrads(meta, episode, cfg, SolverConfig())
        ref = task_metagrads(meta, episode, cfg, TIGHT_REFERENCE)
        train, _ = embed_set(meta.phi_params, episode.train.features)
        test, _ = embed_set(meta.phi_params, episode.test.features)
        labels = episode.train.labels
        W_T, _, _ = adapt(meta.W0, train, labels, cfg, meta.T, TIGHT_REFERENCE, False)
        V, _ = outer_partials(W_T, EmbeddedSet(test, episode.test.labels))
        g, _ = inner_grad(W_T, meta.W0, EmbeddedSet(train, labels), cfg)
        scale = meta.T * np.linalg.norm(V) * np.linalg.norm(g)
        error = abs(meta.T * got.grad_T - meta.T * ref.grad_T)
        assert error <= LOG_T_GRAD_RTOL * scale
