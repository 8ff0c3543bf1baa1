"""Tests for the inner/outer loss, its gradient factors, and curvature."""

import numpy as np
import pytest

from comln.loss import (
    DimensionMismatchError,
    EmbeddedSet,
    LossConfig,
    block_diagonals,
    curvature_from_probs,
    inner_grad,
    inner_loss,
    outer_loss,
    outer_partials,
)
from comln.oracles import softmax_probs

LAM0 = LossConfig(lam=0.0)


def negated_curvature(q):
    """curvature_from_probs of q, written into a new C-ordered array."""
    out = np.empty(q.shape + q.shape[-1:])
    return curvature_from_probs(q, out, block_diagonals(out))


def curvature(W, data):
    """Curvature blocks at W, from per-row reference probabilities."""
    probs = np.stack([softmax_probs(W, phi) for phi in data.features])
    return -negated_curvature(probs / data.count)


def random_set(rng, m=6, n=3, d=5):
    features = rng.normal(size=(m, d))
    labels = np.eye(n)[rng.integers(0, n, size=m)]
    return EmbeddedSet(features, labels)


def central_diff(f, x, eps=1e-6):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.ravel()
    for i in range(x.size):
        probe = x.copy().ravel()
        probe[i] += eps
        hi = f(probe.reshape(x.shape))
        probe[i] -= 2 * eps
        lo = f(probe.reshape(x.shape))
        flat[i] = (hi - lo) / (2 * eps)
    return g


class TestEmbeddedSet:
    def test_rejects_non_onehot_labels(self):
        with pytest.raises(ValueError):
            EmbeddedSet(np.zeros((2, 3)), np.array([[0.5, 0.5], [1.0, 0.0]]))

    @pytest.mark.parametrize("row", [[2.0, -1.0], [np.nan, 1.0], [np.nan, 0.0]])
    def test_rejects_labels_other_than_zero_and_one(self, row):
        # [2, -1] sums to one, so only the entry-wise check refuses it.
        with pytest.raises(ValueError, match="one-hot"):
            EmbeddedSet(np.zeros((2, 3)), np.array([row, [1.0, 0.0]]))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            EmbeddedSet(np.zeros((2, 3)), np.eye(3))

    def test_shape_properties(self):
        data = random_set(np.random.default_rng(0))
        assert (data.count, data.dim, data.way) == (6, 5, 3)


class TestSoftmax:
    def test_zero_logits_are_uniform(self):
        p = softmax_probs(np.zeros((5, 4)), np.ones(4))
        np.testing.assert_allclose(p, np.full(5, 0.2), rtol=0, atol=1e-15)

    def test_closed_form_two_class(self):
        # logits (ln 2, 0) -> probabilities (2/3, 1/3)
        W = np.array([[np.log(2.0)], [0.0]])
        p = softmax_probs(W, np.ones(1))
        np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-12)

    def test_saturated_logits_do_not_overflow(self):
        W = np.array([[1000.0], [0.0]])
        p = softmax_probs(W, np.ones(1))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(4, 6)) * 10
        p = softmax_probs(W, rng.normal(size=6))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0)


class TestInnerLoss:
    def test_zero_weights_give_log_way(self):
        data = random_set(np.random.default_rng(2), n=5)
        val = inner_loss(np.zeros((5, 5)), np.zeros((5, 5)), data, LAM0)
        np.testing.assert_allclose(val, np.log(5.0), atol=1e-12)

    def test_proximal_term_vanishes_at_W0(self):
        rng = np.random.default_rng(3)
        data = random_set(rng)
        W = rng.normal(size=(3, 5))
        for lam in (0.0, 0.7, 10.0):
            val = inner_loss(W, W, data, LossConfig(lam=lam))
            np.testing.assert_allclose(val, inner_loss(W, W, data, LAM0), rtol=0)

    def test_matches_independent_log_sum_exp(self):
        rng = np.random.default_rng(4)
        data = random_set(rng)
        W = rng.normal(size=(3, 5))
        W0 = rng.normal(size=(3, 5))
        lam = 0.3
        total = 0.0
        for m in range(data.count):
            logits = W @ data.features[m]
            lse = np.log(np.sum(np.exp(logits)))
            total -= logits[np.argmax(data.labels[m])] - lse
        expected = total / data.count + 0.5 * lam * np.sum((W - W0) ** 2)
        val = inner_loss(W, W0, data, LossConfig(lam=lam))
        np.testing.assert_allclose(val, expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        data = random_set(np.random.default_rng(5))
        with pytest.raises(DimensionMismatchError):
            inner_loss(np.zeros((3, 4)), np.zeros((3, 4)), data, LAM0)


class TestInnerGrad:
    def test_single_example_uniform_probs(self):
        data = EmbeddedSet(np.eye(1, 4), np.array([[1.0, 0.0]]))
        grad, resid = inner_grad(np.zeros((2, 4)), np.zeros((2, 4)), data, LAM0)
        expected = np.zeros((2, 4))
        expected[0, 0] = -0.5
        expected[1, 0] = 0.5
        np.testing.assert_allclose(grad, expected, atol=1e-15)
        np.testing.assert_allclose(resid, [[-0.5, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.4])
    def test_matches_finite_differences(self, lam):
        rng = np.random.default_rng(6)
        data = random_set(rng)
        W = rng.normal(size=(3, 5))
        W0 = rng.normal(size=(3, 5))
        cfg = LossConfig(lam=lam)
        grad, _ = inner_grad(W, W0, data, cfg)
        fd = central_diff(lambda w: inner_loss(w, W0, data, cfg), W)
        np.testing.assert_allclose(grad, fd, rtol=1e-7, atol=1e-9)

    def test_residuals_reconstruct_gradient_exactly(self):
        rng = np.random.default_rng(7)
        data = random_set(rng)
        W = rng.normal(size=(3, 5))
        W0 = rng.normal(size=(3, 5))
        cfg = LossConfig(lam=0.9)
        grad, resid = inner_grad(W, W0, data, cfg)
        rebuilt = resid.T @ data.features / data.count + cfg.lam * (W - W0)
        np.testing.assert_array_equal(grad, rebuilt)

    def test_regularized_grad_is_plain_grad_plus_proximal(self):
        rng = np.random.default_rng(8)
        data = random_set(rng)
        W = rng.normal(size=(3, 5))
        W0 = rng.normal(size=(3, 5))
        lam = 2.5
        g_reg, _ = inner_grad(W, W0, data, LossConfig(lam=lam))
        g_plain, _ = inner_grad(W, W0, data, LAM0)
        np.testing.assert_array_equal(g_reg, g_plain + lam * (W - W0))

    def test_gradient_vanishes_at_minimizer(self):
        # Locate the regularized minimizer by descent; the proximal term
        # makes the problem strongly convex so the gradient must vanish.
        rng = np.random.default_rng(9)
        data = random_set(rng, m=4, n=2, d=3)
        cfg = LossConfig(lam=0.5)
        W0 = np.zeros((2, 3))
        W = W0.copy()
        for _ in range(4000):
            g, _ = inner_grad(W, W0, data, cfg)
            W = W - 0.5 * g
        g, _ = inner_grad(W, W0, data, cfg)
        assert np.linalg.norm(g) <= 1e-10


class TestCurvature:
    def test_uniform_two_class_block(self):
        data = EmbeddedSet(np.ones((1, 2)), np.array([[1.0, 0.0]]))
        blocks = curvature(np.zeros((2, 2)), data)
        np.testing.assert_allclose(
            blocks[0], [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15
        )

    def test_saturated_block_vanishes(self):
        data = EmbeddedSet(np.ones((1, 1)) * 50, np.array([[1.0, 0.0]]))
        blocks = curvature(np.array([[2.0], [-2.0]]), data)
        np.testing.assert_allclose(blocks[0], np.zeros((2, 2)), atol=1e-12)

    def test_memory_order_of_probs_is_irrelevant(self):
        probs = np.random.default_rng(12).dirichlet(np.ones(4), size=3)
        expected = np.stack([np.diag(p) - np.outer(p, p) for p in probs]) / 3
        for order in "CF":
            blocks = -negated_curvature(np.asarray(probs / 3, order=order))
            np.testing.assert_allclose(blocks, expected, rtol=0, atol=1e-15)

    def test_block_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            data = random_set(rng, m=5, n=4, d=3)
            W = rng.normal(size=(4, 3)) * 2
            A = curvature(W, data)
            asym = np.abs(A - A.transpose(0, 2, 1)).max()
            assert asym <= 1e-14
            for block in A:
                eigs = np.linalg.eigvalsh(block)
                assert eigs.min() >= -1e-12
            row_sums = np.abs(A.sum(axis=2)).max()
            assert row_sums <= 1e-14
            assert np.abs(A).max() <= 1.0 / data.count + 1e-15

    def test_assembled_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        data = random_set(rng, m=3, n=2, d=3)
        W = rng.normal(size=(2, 3))
        W0 = rng.normal(size=(2, 3))
        lam = 0.2
        cfg = LossConfig(lam=lam)
        A = curvature(W, data)
        n, d = W.shape
        hess = lam * np.eye(n * d)
        for m in range(data.count):
            phi = data.features[m]
            hess += np.kron(A[m], np.outer(phi, phi))
        eps = 1e-6
        fd = np.zeros((n * d, n * d))
        for i in range(n * d):
            probe = W.copy().ravel()
            probe[i] += eps
            hi, _ = inner_grad(probe.reshape(n, d), W0, data, cfg)
            probe[i] -= 2 * eps
            lo, _ = inner_grad(probe.reshape(n, d), W0, data, cfg)
            fd[:, i] = ((hi - lo) / (2 * eps)).ravel()
        np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-8)


class TestOuterPartials:
    def test_zero_weights(self):
        rng = np.random.default_rng(12)
        test = random_set(rng, m=6, n=3, d=4)
        V, G = outer_partials(np.zeros((3, 4)), test)
        expected_V = (1.0 / 3 - test.labels).T @ test.features / test.count
        np.testing.assert_allclose(V, expected_V, atol=1e-14)
        np.testing.assert_allclose(G, np.zeros((6, 4)), atol=0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        test = random_set(rng, m=5, n=3, d=4)
        W = rng.normal(size=(3, 4))
        V, G = outer_partials(W, test)
        fd_V = central_diff(lambda w: outer_loss(w, test), W)
        np.testing.assert_allclose(V, fd_V, rtol=1e-7, atol=1e-9)

        def loss_of_features(feats):
            return outer_loss(W, EmbeddedSet(feats, test.labels))

        fd_G = central_diff(loss_of_features, test.features)
        np.testing.assert_allclose(G, fd_G, rtol=1e-7, atol=1e-9)

    def test_perfectly_classified_partials_vanish(self):
        # Hugely separated logits saturate the softmax at the labels.
        features = np.vstack([np.eye(3)] * 2) * 100
        labels = np.vstack([np.eye(3)] * 2)
        test = EmbeddedSet(features, labels)
        V, G = outer_partials(np.eye(3) * 10, test)
        assert np.linalg.norm(V) <= 1e-10
        assert np.linalg.norm(G) <= 1e-10


class TestConvexity:
    def test_convex_combination_witness(self):
        rng = np.random.default_rng(14)
        data = random_set(rng)
        W0 = np.zeros((3, 5))
        for lam in (0.0, 1.3):
            cfg = LossConfig(lam=lam)
            for _ in range(25):
                W1 = rng.normal(size=(3, 5)) * 3
                W2 = rng.normal(size=(3, 5)) * 3
                theta = rng.uniform()
                mix = inner_loss(theta * W1 + (1 - theta) * W2, W0, data, cfg)
                bound = theta * inner_loss(W1, W0, data, cfg) + (
                    1 - theta
                ) * inner_loss(W2, W0, data, cfg)
                assert mix <= bound + 1e-12
