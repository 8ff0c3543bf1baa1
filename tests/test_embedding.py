"""Tests for the feature extractor's forward and reverse passes."""

import numpy as np
import pytest

from comln.embedding import (
    EmbeddingParams,
    Layer,
    backward,
    embed_set,
    init_embedding,
)
from comln.loss import DimensionMismatchError
from comln.trainer import MetaParams, load_checkpoint, save_checkpoint


def forward(params, x):
    """One input through ``embed_set``: its feature row and its tape."""
    features, tape = embed_set(params, np.asarray(x)[None, :])
    return features[0], tape


# Activation and derivative, written out for the per-row references.
ACTS = {
    "relu": (lambda v: np.maximum(v, 0.0), lambda v: (v > 0).astype(float)),
    "tanh": (np.tanh, lambda v: 1.0 - np.tanh(v) ** 2),
    "identity": (lambda v: v, np.ones_like),
}


def reference_forward(params, x):
    """Per-row reference: the input and each pre-activation, one vector each."""
    tape = [np.asarray(x, dtype=np.float64)]
    h = tape[0]
    for layer in params.layers:
        pre = layer.weight @ h + layer.bias
        tape.append(pre)
        h = ACTS[layer.activation][0](pre)
    return h, tape


def reference_backward(params, tape, g):
    """Per-row reference reverse pass: outer products, one row at a time."""
    grads = [None] * len(params.layers)
    up = g
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        delta = up * ACTS[layer.activation][1](tape[i + 1])
        inp = tape[0] if i == 0 else ACTS[params.layers[i - 1].activation][0](tape[i])
        grads[i] = (np.outer(delta, inp), delta)
        up = layer.weight.T @ delta
    return grads


def two_layer_tanh(seed=0):
    rng = np.random.default_rng(seed)
    l1 = Layer(rng.normal(size=(4, 3)), rng.normal(size=4), "tanh")
    l2 = Layer(rng.normal(size=(2, 4)), rng.normal(size=2), "identity")
    return EmbeddingParams((l1, l2), 3)


class TestForward:
    def test_identity_backbone(self):
        params = init_embedding([5], seed=0)
        x = np.arange(5.0)
        phi, tape = forward(params, x)
        np.testing.assert_array_equal(phi, x)

    def test_single_linear_layer(self):
        W = np.array([[1.0, 2.0], [0.0, -1.0]])
        params = EmbeddingParams((Layer(W, np.zeros(2), "identity"),), 2)
        phi, _ = forward(params, np.array([3.0, 4.0]))
        np.testing.assert_array_equal(phi, W @ np.array([3.0, 4.0]))

    def test_matches_independent_reimplementation(self):
        params = two_layer_tanh()
        x = np.array([0.3, -1.2, 0.8])
        phi, _ = forward(params, x)
        h = np.tanh(params.layers[0].weight @ x + params.layers[0].bias)
        expected = params.layers[1].weight @ h + params.layers[1].bias
        np.testing.assert_allclose(phi, expected, atol=1e-12)

    def test_input_dimension_checked(self):
        params = two_layer_tanh()
        with pytest.raises(DimensionMismatchError):
            embed_set(params, np.zeros((2, 4)))
        with pytest.raises(DimensionMismatchError):
            embed_set(params, np.zeros(3))

    def test_relu_positive_homogeneity(self):
        rng = np.random.default_rng(5)
        layers = (
            Layer(rng.normal(size=(6, 4)), np.zeros(6), "relu"),
            Layer(rng.normal(size=(3, 6)), np.zeros(3), "identity"),
        )
        params = EmbeddingParams(layers, 4)
        x = rng.normal(size=4)
        phi, _ = forward(params, x)
        for alpha in (0.5, 2.0, 4.0):
            scaled, _ = forward(params, alpha * x)
            np.testing.assert_array_equal(scaled, alpha * phi)


class TestBackward:
    def test_zero_gradient(self):
        params = two_layer_tanh()
        _, tape = embed_set(params, np.zeros((2, 3)))
        grads = backward(params, tape, np.zeros((2, 2)))
        for dw, db in grads:
            assert not dw.any() and not db.any()

    def test_single_linear_layer_is_outer_product(self):
        W = np.array([[1.0, 2.0], [0.5, -1.0]])
        params = EmbeddingParams((Layer(W, np.zeros(2), "identity"),), 2)
        x = np.array([3.0, -4.0])
        g = np.array([0.7, 0.2])
        _, tape = forward(params, x)
        grads = backward(params, tape, g[None, :])
        np.testing.assert_allclose(grads[0][0], np.outer(g, x), atol=1e-15)
        np.testing.assert_allclose(grads[0][1], g, atol=1e-15)

    @pytest.mark.parametrize(
        "dims, act",
        [([3], "relu"), ([3, 2], "relu"), ([3, 5, 2], "relu"), ([3, 5, 2], "tanh")],
    )
    def test_matches_finite_differences(self, dims, act):
        # Three rows: the gradient of sum_r <g_r, f(x_r)> in one pass.
        params = init_embedding(dims, seed=11, hidden_activation=act)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, dims[0]))
        g = rng.normal(size=(3, dims[-1]))
        phi, tape = embed_set(params, x)
        grads = backward(params, tape, g)
        eps = 1e-6
        for li, layer in enumerate(params.layers):
            for arr_idx, arr in enumerate((layer.weight, layer.bias)):
                fd = np.zeros_like(arr)
                for i in range(arr.size):
                    def probe(delta):
                        bumped = arr.copy().ravel()
                        bumped[i] += delta
                        new_layer = Layer(
                            bumped.reshape(arr.shape) if arr_idx == 0 else layer.weight,
                            layer.bias if arr_idx == 0 else bumped,
                            layer.activation,
                        )
                        layers = list(params.layers)
                        layers[li] = new_layer
                        bumped_params = EmbeddingParams(
                            tuple(layers), params.input_dim
                        )
                        out, _ = embed_set(bumped_params, x)
                        return float(np.sum(g * out))

                    fd.ravel()[i] = (probe(eps) - probe(-eps)) / (2 * eps)
                np.testing.assert_allclose(
                    grads[li][arr_idx], fd, rtol=1e-6, atol=1e-9
                )

    def test_directional_derivative_invariant(self):
        params = two_layer_tanh(seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=3)
        g = rng.normal(size=2)
        _, tape = forward(params, x)
        grads = backward(params, tape, g[None, :])
        direction = [
            (rng.normal(size=l.weight.shape), rng.normal(size=l.bias.shape))
            for l in params.layers
        ]
        inner = sum(
            np.sum(dw * vw) + np.sum(db * vb)
            for (dw, db), (vw, vb) in zip(grads, direction)
        )
        eps = 1e-6

        def value(t):
            layers = tuple(
                Layer(l.weight + t * vw, l.bias + t * vb, l.activation)
                for l, (vw, vb) in zip(params.layers, direction)
            )
            out, _ = forward(EmbeddingParams(layers, 3), x)
            return float(g @ out)

        fd = (value(eps) - value(-eps)) / (2 * eps)
        np.testing.assert_allclose(inner, fd, rtol=1e-6)

    def test_stale_tape_rejected(self):
        params = two_layer_tanh()
        _, tape = embed_set(params, np.zeros((4, 3)))
        with pytest.raises(DimensionMismatchError):
            backward(params, tape[:-1], np.zeros((4, 2)))
        with pytest.raises(DimensionMismatchError):
            backward(params, tape, np.zeros((4, 3)))
        with pytest.raises(DimensionMismatchError):
            backward(params, tape, np.zeros((3, 2)))
        with pytest.raises(DimensionMismatchError):
            backward(init_embedding([3, 5, 2], seed=0), tape, np.zeros((4, 2)))


class TestInit:
    def test_seeded_determinism(self):
        a = init_embedding([4, 8, 3], seed=9)
        b = init_embedding([4, 8, 3], seed=9)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_bounds_and_zero_bias(self):
        params = init_embedding([10, 20, 5], seed=1)
        for layer in params.layers:
            d_out, d_in = layer.weight.shape
            a = np.sqrt(6.0 / (d_in + d_out))
            assert np.abs(layer.weight).max() <= a
            assert not layer.bias.any()

    def test_final_activation_is_identity(self):
        params = init_embedding([4, 8, 3], seed=2, hidden_activation="tanh")
        assert params.layers[-1].activation == "identity"
        assert params.layers[0].activation == "tanh"

    def test_mismatched_chain_rejected(self):
        l1 = Layer(np.zeros((4, 3)), np.zeros(4), "relu")
        l2 = Layer(np.zeros((2, 5)), np.zeros(2), "identity")
        with pytest.raises(DimensionMismatchError):
            EmbeddingParams((l1, l2), 3)


class TestOutputDim:
    """The output dimension is read from the layers, not stored."""

    @pytest.mark.parametrize("dims", [[16], [16, 64, 32]], ids=["identity", "mlp"])
    def test_output_dim_is_the_last_width(self, dims, tmp_path):
        params = init_embedding(dims, seed=0)
        assert (params.input_dim, params.output_dim) == (dims[0], dims[-1])
        features, _ = embed_set(params, np.ones((2, dims[0])))
        assert features.shape == (2, params.output_dim)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(MetaParams(np.zeros((5, dims[-1])), params, 0.0), path)
        back = load_checkpoint(path).phi_params
        assert (back.input_dim, back.output_dim) == (dims[0], dims[-1])


class TestHelpers:
    def test_embed_set_shapes(self):
        params = init_embedding([3, 4], seed=0)
        inputs = np.random.default_rng(0).normal(size=(5, 3))
        feats, tape = embed_set(params, inputs)
        assert feats.shape == (5, 4)
        assert [t.shape for t in tape] == [(5, 3), (5, 4)]
        single, _ = forward(params, inputs[2])
        np.testing.assert_allclose(feats[2], single, rtol=0, atol=1e-15)

    def test_accumulate(self):
        # backward sums over rows: two equal rows give twice one row.
        params = init_embedding([3, 4, 2], seed=0)
        _, tape = forward(params, np.ones(3))
        once = backward(params, tape, np.ones((1, 2)))
        _, tape = embed_set(params, np.ones((2, 3)))
        twice = backward(params, tape, np.ones((2, 2)))
        for (tw, tb), (dw, db) in zip(twice, once):
            np.testing.assert_array_equal(tw, 2 * dw)
            np.testing.assert_array_equal(tb, 2 * db)

    @pytest.mark.parametrize(
        "dims, act",
        [([3], "relu"), ([3, 5, 2], "relu"), ([3, 5, 4, 2], "tanh")],
    )
    def test_matrix_pass_matches_per_row_loop(self, dims, act):
        params = init_embedding(dims, seed=7, hidden_activation=act)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, dims[0]))
        g = rng.normal(size=(6, dims[-1]))
        feats, tape = embed_set(params, x)
        grads = backward(params, tape, g)
        want = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in params.layers]
        for r in range(6):
            row, row_tape = reference_forward(params, x[r])
            np.testing.assert_allclose(feats[r], row, rtol=0, atol=1e-13)
            row_grads = reference_backward(params, row_tape, g[r])
            for (tw, tb), (dw, db) in zip(want, row_grads):
                tw += dw
                tb += db
        assert len(grads) == len(want)
        for (gw, gb), (tw, tb) in zip(grads, want):
            np.testing.assert_allclose(gw, tw, rtol=0, atol=1e-13)
            np.testing.assert_allclose(gb, tb, rtol=0, atol=1e-13)
