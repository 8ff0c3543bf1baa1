"""Tests for the adaptation flow and its augmented sensitivity state."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import comln.dynamics
import comln.solver
from comln.dynamics import (
    DEFAULT_M_CAP,
    AugmentedState,
    MemoryBudgetError,
    TaskConstants,
    adapt,
    compact_layout,
    reconstruct_W,
    rhs_full,
)
from comln.loss import (
    DimensionMismatchError,
    EmbeddedSet,
    LossConfig,
    block_diagonals,
    inner_grad,
    inner_loss,
)
from comln.oracles import expand_tangent_block
from comln.solver import SolverConfig, integrate

LAM0 = LossConfig(lam=0.0)
TIGHT = SolverConfig(method="dopri5", rtol=1e-11, atol=1e-13)


def random_set(rng, m=6, n=3, d=4):
    features = rng.normal(size=(m, d))
    labels = np.eye(n)[rng.integers(0, n, size=m)]
    return EmbeddedSet(features, labels)


def weight_flow(W0, data, cfg, T, solver):
    """Reference: integrate dW/dt = -grad L directly in weight space."""

    def rhs(w):
        grad, _ = inner_grad(w.reshape(W0.shape), W0, data, cfg)
        return -grad.ravel()

    end, _ = integrate(rhs, W0.ravel(), 0.0, T, solver)
    return end.reshape(W0.shape)


def head(consts, s):
    """ds/dt as rhs_adapt gives it, and the negated curvature blocks -A_i
    and q = p / M at s that a tracked block's head kernel writes, each a new
    array, with ds/dt in the shape of s."""
    shape = consts.P0.shape
    ds, rate, neg_A = np.empty(shape), np.empty(shape), np.empty(shape + shape[-1:])
    comln.dynamics.rhs_adapt(consts, np.reshape(s, shape), ds)
    comln.dynamics._rate_and_curvature(
        consts, np.reshape(s, shape), rate, neg_A, block_diagonals(neg_A)
    )
    return ds.reshape(np.shape(s)), neg_A, consts.probs.copy()


def state_to_flat(s, B, z):
    """Pack s, B and the j <= m half of a symmetric z in the compact layout."""
    assert np.array_equal(z, z.transpose(0, 2, 1, 3))
    m, n = s.shape
    layout = compact_layout(m, n)
    values = np.empty(layout.size)
    values[: m * n] = s.ravel()
    X = values[m * n :].reshape(m, layout.rows, n)
    X[:, : m * n] = B.transpose(0, 1, 3, 2).reshape(m, m * n, n)
    X[:, m * n :] = z[:, layout.pair_j, layout.pair_m]
    return values


def expand(flat, m, n):
    """s, B and the full z of a flat tracked state, expanded by the oracle."""
    B, z = expand_tangent_block(flat[m * n :].reshape(m, -1, n))
    return flat[: m * n].reshape(m, n), B, z


def full_shape_rhs(W0, phi, labels, lam, s, B, z):
    """The module docstring's ds, dB and dz in full shapes, as plain einsums."""
    m, n = s.shape
    logits = phi @ (W0 - s.T @ phi).T
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    A = (np.einsum("ia,ab->iab", p, np.eye(n)) - np.einsum("ia,ib->iab", p, p)) / m
    G = phi @ phi.T
    eye = np.eye(m)
    ds = (p - labels) / m - lam * s
    dB = (
        np.einsum("ij,iab->ijab", eye, A)
        - lam * B
        - np.einsum("iac,ik,kjcb->ijab", A, G, B)
    )
    inner = (
        np.einsum("ij,kc->ijkc", eye, s)
        + np.einsum("ik,jc->ijkc", eye, s)
        + np.einsum("il,ljkc->ijkc", G, z)
    )
    dz = -np.einsum("iac,ijkc->ijka", A, inner) - lam * z
    return ds, dB, dz


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_zero_coefficients_returns_w0():
    rng = np.random.default_rng(0)
    W0 = rng.normal(size=(3, 5))
    phi = rng.normal(size=(4, 5))
    assert_array_equal(reconstruct_W(W0, np.zeros((4, 3)), phi), W0)


def test_reconstruct_single_example_rank_one():
    W0 = np.zeros((2, 3))
    phi = np.array([[1.0, 2.0, -1.0]])
    s = np.array([[0.5, -0.25]])
    expected = -np.outer(s[0], phi[0])
    assert_array_equal(reconstruct_W(W0, s, phi), expected)


def test_reconstruct_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatchError):
        reconstruct_W(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((5, 3)))
    with pytest.raises(DimensionMismatchError):
        reconstruct_W(np.zeros((3, 3)), np.zeros((4, 2)), np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# right-hand sides at frozen points


def test_rhs_adapt_at_origin_matches_uniform_residuals():
    # With W0 = 0 every softmax is uniform, so the residual rows are
    # (1/N - y) and ds = residual / M exactly.
    data = EmbeddedSet(np.eye(2), np.eye(2))
    ds, _, _ = head(TaskConstants(np.zeros((2, 2)), data, LAM0), np.zeros(4))
    assert_array_equal(ds, [-0.25, 0.25, 0.25, -0.25])


def test_rhs_adapt_saturated_probabilities_decay_is_exactly_proximal():
    # Margins so large that softmax rounds to the labels: the residual
    # vanishes in floating point and ds = -lam * s bitwise.
    phi = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.eye(2)
    W0 = np.array([[1e4, -1e4], [-1e4, 1e4]])
    s = np.array([[1e-3, -2e-3], [5e-4, 0.0]])
    cfg = LossConfig(lam=0.7)
    ds, _, _ = head(TaskConstants(W0, EmbeddedSet(phi, labels), cfg), s.ravel())
    assert_array_equal(ds, -0.7 * s.ravel())


def test_rhs_full_zero_state_seeds_diagonal_curvature():
    # At s = B = z = 0 with W0 = 0 the only nonzero derivative blocks are
    # dB[i, i] = A_i(0) = (I/N - 11'/N^2) / M; dz must vanish.
    data = EmbeddedSet(np.eye(2), np.eye(2))
    layout = compact_layout(2, 2)
    out = rhs_full(
        TaskConstants(np.zeros((2, 2)), data, LAM0), np.zeros(layout.size), layout
    )
    _, dB, dz = expand(out, 2, 2)
    block = np.array([[0.125, -0.125], [-0.125, 0.125]])
    assert_array_equal(dB[0, 0], block)
    assert_array_equal(dB[1, 1], block)
    assert_array_equal(dB[0, 1], np.zeros((2, 2)))
    assert_array_equal(dB[1, 0], np.zeros((2, 2)))
    assert_array_equal(dz, np.zeros((2, 2, 2, 2)))


def test_rhs_full_requires_tracked_state_and_matching_gram():
    rng = np.random.default_rng(1)
    data = random_set(rng, m=3, n=2, d=4)
    W0 = np.zeros((2, 4))
    layout = compact_layout(3, 2)
    consts = TaskConstants(W0, data, LAM0)
    with pytest.raises(ValueError, match="tracked state"):
        rhs_full(consts, np.zeros(3 * 2), layout)
    tracked = np.zeros(layout.size)
    other = TaskConstants(W0, random_set(rng, m=4, n=2, d=4), LAM0)
    with pytest.raises(DimensionMismatchError):
        rhs_full(other, tracked, layout)


def test_task_constants_reject_mismatched_initialization():
    data = random_set(np.random.default_rng(2), m=3, n=2, d=4)
    with pytest.raises(DimensionMismatchError):
        TaskConstants(np.zeros((2, 3)), data, LAM0)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_shared_head_matches_reconstructed_weights(lam):
    # P0 - G s against the logits of the rebuilt W = W0 - s' phi, on
    # random states of both right-hand sides.
    rng = np.random.default_rng(30)
    m, n = 5, 3
    data = random_set(rng, m=m, n=n, d=4)
    W0 = rng.normal(size=(n, 4))
    cfg = LossConfig(lam=lam)
    consts = TaskConstants(W0, data, cfg)
    layout = compact_layout(m, n)
    for _ in range(5):
        s = rng.normal(size=(m, n))
        logits = data.features @ reconstruct_W(W0, s, data.features).T
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expected = ((p - data.labels) / m - lam * s).ravel()
        assert_allclose(head(consts, s.ravel())[0], expected, rtol=0, atol=1e-13)
        flat = np.concatenate([s.ravel(), rng.normal(size=layout.size - m * n)])
        ds = rhs_full(consts, flat, layout)[: m * n]
        assert_allclose(ds, expected, rtol=0, atol=1e-13)


def test_right_hand_sides_stay_finite_at_large_logits():
    # Logits near +800 and -800: exp() of either overflows or underflows
    # to zero unless the row maximum is subtracted first.
    data = EmbeddedSet(np.eye(2), np.eye(2))
    W0 = np.array([[800.0, -800.0], [799.0, -801.0]])
    consts = TaskConstants(W0, data, LossConfig(lam=0.5))
    layout = compact_layout(2, 2)
    top = 1.0 / (1.0 + np.exp(-1.0))
    expected = np.array([top - 1.0, 1.0 - top, top, -top]) / 2
    with np.errstate(all="raise"):
        ds, _, _ = head(consts, np.zeros(4))
        full = rhs_full(consts, np.zeros(layout.size), layout)
    assert_allclose(ds, expected, rtol=0, atol=1e-15)
    assert np.all(np.isfinite(full))
    assert_allclose(full[:4], expected, rtol=0, atol=1e-15)


def flow_task(seed, m=5, n=4, d=3, lam=0.5):
    rng = np.random.default_rng(seed)
    data = random_set(rng, m=m, n=n, d=d)
    W0 = rng.normal(size=(n, d))
    return rng, data, W0, TaskConstants(W0, data, LossConfig(lam=lam))


def test_consecutive_evaluations_return_fresh_arrays():
    # The head works in per-task scratch that every evaluation overwrites;
    # what a bound kernel writes into its stage's buffer must not change
    # when another stage's kernel runs, and must equal what a binding of
    # its own writes, so no kernel reads what an earlier one left behind.
    rng, _, _, consts = flow_task(40)
    for layout in (None, compact_layout(5, 4)):
        block = comln.dynamics._block(consts, layout)
        size, rows = (20, 0) if layout is None else (layout.size, layout.rows)
        inputs = rng.normal(size=(2, size))
        values = np.empty((2, size))
        kernels = block.bind(
            list(inputs[:, None]), list(values[:, None]), 0, rows, np.empty(size), None
        )
        kernels[0]()
        kept = values[0].copy()
        kernels[1]()
        assert_array_equal(values[0], kept)
        alone = np.empty((1, size))
        block.bind([inputs[1:]], [alone], 0, rows, np.empty(size), None)[0]()
        assert_array_equal(values[1], alone[0])


@pytest.mark.parametrize("track", [False, True])
def test_rk4_adapt_equals_a_run_that_copies_every_derivative(track):
    # RK4 keeps k1..k4 alive across evaluations, so each must be its own
    # array: copying every derivative as it is returned changes no bit.
    _, data, W0, consts = flow_task(41, m=4, n=3)
    solver = SolverConfig(method="rk4", fixed_step=0.1)
    _, state, _ = adapt(
        W0, data.features, data.labels, LossConfig(lam=0.5), 1.0, solver, track
    )
    layout = compact_layout(4, 3)
    if track:
        size = layout.size

        def rhs(y):
            return rhs_full(consts, y, layout).copy()

    else:
        size = 12

        def rhs(y):
            return head(consts, y)[0]

    end, _ = integrate(rhs, np.zeros(size), 0.0, 1.0, solver)
    assert_array_equal(state.s.ravel(), end[:12])
    if track:
        assert_array_equal(state.X.ravel(), end[12:])


def test_head_probabilities_match_the_textbook_softmax_at_large_logits():
    # With phi = I and s = 0 the logits are W0' itself: entries near +800
    # and -800, whose exp() overflows unless shifted; the smaller entries of
    # a row underflow to 0, as they should.  The head holds p / M.
    rng = np.random.default_rng(42)
    logits = 800.0 * rng.choice([-1.0, 1.0], size=(5, 4)) + rng.normal(size=(5, 4))
    data = EmbeddedSet(np.eye(5), np.eye(4)[[0, 1, 2, 3, 0]])
    consts = TaskConstants(logits.T, data, LossConfig(lam=0.5))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        _, _, q = head(consts, np.zeros((5, 4)))
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    textbook = shifted / shifted.sum(axis=1, keepdims=True)
    assert np.all(np.isfinite(q))
    assert_allclose(5 * q, textbook, rtol=0, atol=1e-15)


def test_negated_curvature_blocks_are_symmetric_and_annihilate_ones():
    rng, _, _, consts = flow_task(43)
    for _ in range(5):
        _, neg_A, _ = head(consts, rng.normal(size=20))
        assert_array_equal(neg_A, neg_A.transpose(0, 2, 1))
        assert np.abs(neg_A.sum(axis=2)).max() <= 1e-15


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("m, n", [(4, 3), (3, 5)])
def test_rhs_full_matches_full_shape_equations(m, n, lam):
    # Random states with symmetric z; the j = m pairs get both forcing terms.
    rng = np.random.default_rng(20 + m)
    data = random_set(rng, m=m, n=n, d=4)
    W0 = rng.normal(size=(n, 4)) * 0.5
    s = rng.normal(size=(m, n)) * 0.3
    B = rng.normal(size=(m, m, n, n))
    z = rng.normal(size=(m, m, m, n))
    z = z + z.transpose(0, 2, 1, 3)
    cfg = LossConfig(lam=lam)
    out = rhs_full(
        TaskConstants(W0, data, cfg),
        state_to_flat(s, B, z),
        compact_layout(m, n),
    )
    got = expand(out, m, n)
    want = full_shape_rhs(W0, data.features, data.labels, lam, s, B, z)
    for got_part, want_part in zip(got, want):
        assert_allclose(got_part, want_part, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# the flow itself against a dense weight-space reference


@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_adapt_matches_weight_space_flow(lam):
    rng = np.random.default_rng(7)
    data = random_set(rng, m=5, n=3, d=4)
    W0 = rng.normal(size=(3, 4)) * 0.4
    cfg = LossConfig(lam=lam)
    W_T, _, _ = adapt(
        W0, data.features, data.labels, cfg, 2.0, TIGHT, track=False
    )
    W_ref = weight_flow(W0, data, cfg, 2.0, TIGHT)
    assert_allclose(W_T, W_ref, rtol=0, atol=1e-9)


def test_adapt_tiny_horizon_stays_at_initialization():
    rng = np.random.default_rng(2)
    data = random_set(rng)
    W0 = rng.normal(size=(3, 4))
    W_T, state, _ = adapt(
        W0,
        data.features,
        data.labels,
        LAM0,
        1e-12,
        SolverConfig(method="dopri5", rtol=1e-10, atol=1e-12),
        track=False,
    )
    assert np.linalg.norm(W_T - W0) <= 1e-10
    assert np.abs(state.s).max() <= 1e-10


@pytest.mark.parametrize("lam", [0.0, 0.25])
def test_fixed_step_euler_equals_gradient_descent(lam):
    # Forward Euler on the coefficient flow is plain gradient descent on
    # the weights: ten steps of each must agree to rounding.
    rng = np.random.default_rng(3)
    data = random_set(rng, m=6, n=3, d=4)
    W0 = rng.normal(size=(3, 4)) * 0.3
    cfg = LossConfig(lam=lam)
    W = W0.copy()
    for _ in range(10):
        grad, _ = inner_grad(W, W0, data, cfg)
        W = W - 0.01 * grad
    W_T, _, stats = adapt(
        W0,
        data.features,
        data.labels,
        cfg,
        0.1,
        SolverConfig(method="euler", fixed_step=0.01),
        track=False,
    )
    assert stats.accepted_steps == 10
    assert_allclose(W_T, W, rtol=0, atol=1e-12)


def test_adaptive_and_small_step_euler_agree():
    rng = np.random.default_rng(4)
    data = random_set(rng, m=4, n=2, d=3)
    W0 = rng.normal(size=(2, 3)) * 0.5
    args = (W0, data.features, data.labels, LAM0, 1.0)
    W_a, _, _ = adapt(
        *args, SolverConfig(method="dopri5", rtol=1e-10, atol=1e-12), track=False
    )
    W_e, _, _ = adapt(
        *args, SolverConfig(method="euler", fixed_step=1e-4), track=False
    )
    assert_allclose(W_a, W_e, rtol=0, atol=1e-5)


def test_tracking_does_not_perturb_the_adaptation():
    # With a fixed-step method the s block sees identical arithmetic
    # whether or not sensitivities ride along, so W_T matches bitwise.
    rng = np.random.default_rng(5)
    data = random_set(rng, m=4, n=2, d=3)
    W0 = rng.normal(size=(2, 3))
    solver = SolverConfig(method="rk4", fixed_step=0.02)
    args = (W0, data.features, data.labels, LossConfig(lam=0.3), 0.5)
    W_plain, _, _ = adapt(*args, solver, track=False)
    W_tracked, state, _ = adapt(*args, solver, track=True)
    assert_array_equal(W_plain, W_tracked)
    assert state.X.shape == (4, 4 * 2 + 4 * 5 // 2, 2)


# Softmax curvature has the ones vector in its null space (A_i 1 = 0) and
# every label row sums to one, so along the whole flow s 1 = 0, X 1 = 0, and
# for each j the B rows X[:, j N + b, :] sum to 0 over b.  Rounding breaks
# them by at most 4.0e-16 of the largest entry at 10w5s, T = 2 (4 steps),
# and by up to 4.6e-14 on the 5w1s rows at T = 20 (25 to 33 steps).
INVARIANT_RTOL = 1e-12


def assert_flow_invariants(s, X):
    m, _, n = X.shape
    assert np.abs(s.sum(axis=1)).max() <= INVARIANT_RTOL * np.abs(s).max()
    bound = INVARIANT_RTOL * np.abs(X).max()
    assert np.abs(X.sum(axis=2)).max() <= bound
    # X[i, j N + b, c] as B[i, j, b, c], summed over b.
    assert np.abs(X[:, : m * n].reshape(m, m, n, n).sum(axis=2)).max() <= bound


def test_structural_invariants_at_10w5s():
    # The metagrad-10w5s benchmark task at T = 2, on the chunked path.
    from comln.embedding import embed_set
    from comln.tasks import TaskGenConfig, sample_episode
    from comln.trainer import default_meta_params

    meta = default_meta_params(10, 16, seed=0, hidden_dims=(64, 32))
    episode = sample_episode(TaskGenConfig(way=10, shot=5, test_shots=15, seed=1), 0)
    phi, _ = embed_set(meta.phi_params, episode.train.features)
    labels = episode.train.labels
    args = (meta.W0, phi, labels, LossConfig(lam=0.5), 2.0)
    _, state, _ = adapt(*args, SolverConfig(), track=True)
    assert_flow_invariants(state.s, state.X)


def test_structural_invariants_on_every_row_of_a_batch():
    from comln.tasks import TaskGenConfig, sample_episode

    task = TaskGenConfig(way=5, shot=1, seed=9)
    episodes = [sample_episode(task, i) for i in range(4)]
    features = np.concatenate([e.train.features for e in episodes])
    labels = np.concatenate([e.train.labels for e in episodes])
    W0 = np.random.default_rng(9).normal(size=(5, 16)) * 0.1
    args = (W0, features, labels, LossConfig(lam=0.5), 20.0)
    _, state, _ = adapt(*args, SolverConfig(), track=True, episodes=4)
    for s, X in zip(state.s, state.X):
        assert_flow_invariants(s, X)


def test_chunked_path_looks_up_the_kernels_at_call_time(monkeypatch):
    # The kernels are rebound by module name once adapt has built its
    # right-hand side, as a tracer switched on mid-run would.  integrate
    # binds the kernels when it is called, so the chunked dopri5 path
    # reaches the new bindings, and its result does not change.
    rng = np.random.default_rng(7)
    data = random_set(rng, m=5, n=3, d=4)
    W0 = rng.normal(size=(3, 4))
    args = (W0, data.features, data.labels, LossConfig(lam=0.5), 2.0)
    monkeypatch.setattr(comln.solver, "CHUNK_BYTES", 1000)
    W_plain, plain, _ = adapt(*args, SolverConfig(), track=True)
    calls = {"_rate_and_curvature": 0, "tangent_rows": 0}

    def rebind_then_integrate(*arguments):
        for name in calls:
            kernel = getattr(comln.dynamics, name)

            def counting(*a, name=name, kernel=kernel):
                calls[name] += 1
                return kernel(*a)

            monkeypatch.setattr(comln.dynamics, name, counting)
        return integrate(*arguments)

    monkeypatch.setattr(comln.dynamics, "integrate", rebind_then_integrate)
    W_T, state, stats = adapt(*args, SolverConfig(), track=True)
    # Every evaluation takes the rate once and the rows in several chunks.
    assert calls["_rate_and_curvature"] == stats.rhs_evals
    assert calls["tangent_rows"] > stats.rhs_evals
    assert_array_equal(W_T, W_plain)
    assert_array_equal(state.s, plain.s)
    assert_array_equal(state.X, plain.X)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_tracked_euler_path_matches_full_shape_loop(lam):
    # Euler steps do not depend on an error norm, so the compact state must
    # follow a plain full-shape Euler loop step for step.
    rng = np.random.default_rng(12)
    m, n, d = 4, 3, 5
    data = random_set(rng, m=m, n=n, d=d)
    W0 = rng.normal(size=(n, d)) * 0.3
    h, steps = 0.05, 20
    s, B, z = np.zeros((m, n)), np.zeros((m, m, n, n)), np.zeros((m, m, m, n))
    for _ in range(steps):
        ds, dB, dz = full_shape_rhs(W0, data.features, data.labels, lam, s, B, z)
        s, B, z = s + h * ds, B + h * dB, z + h * dz
    _, state, stats = adapt(
        W0,
        data.features,
        data.labels,
        LossConfig(lam=lam),
        h * steps,
        SolverConfig(method="euler", fixed_step=h),
        track=True,
    )
    assert stats.accepted_steps == steps
    for got, want in zip((state.s, *expand_tangent_block(state.X)), (s, B, z)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# qualitative behaviour of the flow


def test_trajectories_from_different_starts_contract():
    # Gradient flow on a convex potential never increases the distance
    # between two solutions started from different initializations.
    solver = SolverConfig(method="dopri5", rtol=1e-8, atol=1e-10)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = random_set(rng, m=6, n=3, d=4)
        Wa = rng.normal(size=(3, 4))
        Wb = rng.normal(size=(3, 4))
        dists = [np.linalg.norm(Wa - Wb)]
        for T in (0.5, 1.0, 2.0, 4.0):
            Wa_T, _, _ = adapt(
                Wa, data.features, data.labels, LAM0, T, solver, track=False
            )
            Wb_T, _, _ = adapt(
                Wb, data.features, data.labels, LAM0, T, solver, track=False
            )
            dists.append(np.linalg.norm(Wa_T - Wb_T))
        for before, after in zip(dists, dists[1:]):
            assert after <= before + 1e-7


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_inner_loss_decreases_along_the_flow(lam):
    rng = np.random.default_rng(6)
    data = random_set(rng, m=6, n=3, d=4)
    W0 = rng.normal(size=(3, 4))
    cfg = LossConfig(lam=lam)
    solver = SolverConfig(method="dopri5", rtol=1e-8, atol=1e-10)
    losses = [inner_loss(W0, W0, data, cfg)]
    for T in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        W_T, _, _ = adapt(
            W0, data.features, data.labels, cfg, T, solver, track=False
        )
        losses.append(inner_loss(W_T, W0, data, cfg))
    for before, after in zip(losses, losses[1:]):
        assert after <= before + 1e-7


def test_regularized_flow_reaches_its_stationary_point():
    # With lam > 0 the potential is strongly convex, so by T = 60 the
    # gradient has decayed to solver accuracy.
    rng = np.random.default_rng(8)
    data = random_set(rng, m=5, n=3, d=4)
    W0 = rng.normal(size=(3, 4))
    cfg = LossConfig(lam=0.4)
    W_T, state, _ = adapt(
        W0,
        data.features,
        data.labels,
        cfg,
        60.0,
        SolverConfig(method="dopri5", rtol=1e-9, atol=1e-11),
        track=False,
    )
    grad, _ = inner_grad(W_T, W0, data, cfg)
    assert np.linalg.norm(grad) <= 1e-6
    ds, _, _ = head(TaskConstants(W0, data, cfg), state.s.ravel())
    assert np.linalg.norm(ds) <= 1e-6


def test_long_horizon_state_stays_bounded():
    solver = SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = random_set(rng, m=6, n=3, d=4)
        W0 = rng.normal(size=(3, 4))
        W_T, state, _ = adapt(
            W0,
            data.features,
            data.labels,
            LAM0,
            50.0,
            solver,
            track=False,
        )
        assert np.isfinite(W_T).all()
        assert np.abs(state.s).max() <= 1e6
        assert np.abs(W_T).max() <= 1e6


# ---------------------------------------------------------------------------
# state layout, size accounting, and guardrails


def test_flat_layout_orders_s_then_b_then_z():
    # s, then per example i the columns of every B[i, j] and the z[i, j, k]
    # with j <= k.
    m, n = 3, 2
    s = np.arange(m * n, dtype=np.float64).reshape(m, n)
    B = np.arange(m * m * n * n, dtype=np.float64).reshape(m, m, n, n) + 100.0
    z = np.arange(m * m * m * n, dtype=np.float64).reshape(m, m, m, n) + 1000.0
    z = z + z.transpose(0, 2, 1, 3)
    rows = []
    for i in range(m):
        rows += [B[i, j][:, b] for j in range(m) for b in range(n)]
        rows += [z[i, j, k] for j in range(m) for k in range(j, m)]
    expected = np.concatenate([s.ravel(), *rows])
    assert expected.size == compact_layout(m, n).size
    assert_array_equal(state_to_flat(s, B, z), expected)
    for got, want in zip(expand(expected, m, n), (s, B, z)):
        assert_array_equal(got, want)
    # The oracle refuses a block whose row count is not M N + M (M + 1) / 2.
    with pytest.raises(ValueError):
        expand_tangent_block(np.zeros((m, compact_layout(m, n).rows - 1, n)))


def test_state_size_accounting():
    m, n = 4, 3
    X = np.zeros((m, compact_layout(m, n).rows, n))
    tracked = AugmentedState(np.zeros((m, n)), X)
    assert tracked.track_sensitivities
    assert tracked.nbytes == 8 * (m * n + m * m * n * n + m * m * (m + 1) * n // 2)
    assert tracked.nbytes == 8 * m * n + X.nbytes
    plain = AugmentedState(np.zeros((m, n)), None)
    assert not plain.track_sensitivities
    assert plain.nbytes == 8 * m * n
    # Constant in the horizon: adapt returns the same bytes at every step count.
    rng = np.random.default_rng(13)
    data = random_set(rng, m=m, n=n, d=4)
    W0 = rng.normal(size=(n, 4))
    for steps in (1, 10, 100):
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
        assert state.nbytes == tracked.nbytes


def test_gram_matrix_is_symmetric_psd():
    rng = np.random.default_rng(9)
    data = random_set(rng, m=5, n=2, d=3)
    G = TaskConstants(np.zeros((2, 3)), data, LAM0).G
    assert_allclose(G, G.T, rtol=0, atol=1e-14)
    assert np.linalg.eigvalsh(G).min() >= -1e-12


def test_adapt_rejects_horizon_beyond_cap():
    rng = np.random.default_rng(10)
    data = random_set(rng, m=3, n=2, d=3)
    W0 = np.zeros((2, 3))
    solver = SolverConfig(method="dopri5")
    with pytest.raises(ValueError, match="cap"):
        adapt(
            W0,
            data.features,
            data.labels,
            LAM0,
            150.0,
            solver,
            track=False,
        )
    with pytest.raises(ValueError, match="cap"):
        adapt(
            W0,
            data.features,
            data.labels,
            LAM0,
            2.0,
            solver,
            track=False,
            t_cap=1.0,
        )


def test_adapt_rejects_non_positive_horizon():
    rng = np.random.default_rng(10)
    data = random_set(rng, m=3, n=2, d=3)
    for T in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"T={T:g} .*cap"):
            adapt(
                np.zeros((2, 3)),
                data.features,
                data.labels,
                LAM0,
                T,
                SolverConfig(),
                track=False,
            )


def test_adapt_rejects_nan_horizon():
    # NaN compares false with any cap; unless it is refused, the solver
    # returns W0 without taking a step.
    rng = np.random.default_rng(10)
    data = random_set(rng, m=3, n=2, d=3)
    with pytest.raises(ValueError, match="T=nan"):
        adapt(
            np.zeros((2, 3)),
            data.features,
            data.labels,
            LAM0,
            float("nan"),
            SolverConfig(),
            track=False,
        )


def test_adapt_rejects_oversized_state_before_allocating(monkeypatch):
    rng = np.random.default_rng(11)
    data = random_set(rng, m=6, n=3, d=3)
    W0 = np.zeros((3, 3))
    solver = SolverConfig(method="dopri5")
    over = random_set(rng, m=DEFAULT_M_CAP + 1, n=3, d=3)
    with monkeypatch.context() as patch:
        # Any per-task setup would mean the cap was checked too late.
        patch.setattr(comln.dynamics, "TaskConstants", None)
        with pytest.raises(MemoryBudgetError, match="cap"):
            adapt(
                W0,
                over.features,
                over.labels,
                LAM0,
                1.0,
                solver,
                track=False,
            )
    with pytest.raises(MemoryBudgetError, match="budget"):
        adapt(
            W0,
            data.features,
            data.labels,
            LAM0,
            1.0,
            solver,
            track=True,
            memory_budget=1000,
        )
    # The plain state fits the same budget.
    W_T, _, _ = adapt(
        W0,
        data.features,
        data.labels,
        LAM0,
        0.1,
        solver,
        track=False,
        memory_budget=1000,
    )
    assert np.isfinite(W_T).all()
