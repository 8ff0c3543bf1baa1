"""Brute-force reference implementations of the meta-gradients.

Everything here recomputes what the projection path produces, by a route
that shares none of its mathematics: reverse mode through an explicitly
unrolled gradient-descent loop, dense forward sensitivities integrated
in raw weight space, and central finite differences of the scalar outer
loss.  ``expand_tangent_block`` rebuilds the sensitivities B and the full
z from the tangent block X of the flow, the only place they exist, and
``dense_jacobians`` materializes from them the Jacobians that the
projections contract.  These are quadratic-or-worse in time or memory by
design; they exist to catch errors in the fast path, not to train with.

The module also carries the diagonal-quadratic demonstration of why
meta-gradients are not computed by integrating the flow backward: on a
contracting field the reverse-time pass amplifies componentwise errors
by exp(+lambda T), so the recovered start point is garbage precisely
when the forward solve looks perfect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .embedding import EmbeddingParams, Layer, backward, embed_set
from .loss import (
    EmbeddedSet,
    LossConfig,
    inner_grad,
    outer_loss,
    outer_partials,
)
from .metagrad import MetaGradients
from .solver import SolverConfig, integrate
from .tasks import Episode

if TYPE_CHECKING:
    from .trainer import MetaParams

SENSITIVITY_DIM_CAP = 64


def softmax_probs(W: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Class probabilities softmax(W phi) for a single embedding."""
    logits = np.asarray(W, dtype=np.float64) @ np.asarray(phi, dtype=np.float64)
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _curvature_blocks(probs: np.ndarray) -> np.ndarray:
    """The blocks (diag(p_m) - p_m p_m') / M, one per row p_m of ``probs``."""
    return np.stack([np.diag(p) - np.outer(p, p) for p in probs]) / len(probs)


@dataclass(frozen=True)
class UnrollTape:
    """Every iterate and residual of an explicit gradient-descent unroll.

    Storage grows linearly with the number of steps; ``nbytes`` reports
    exactly 8 * ((K+1) N d + K M N) and is what the benchmark compares
    against the constant-size augmented state of the flow.
    """

    iterates: np.ndarray
    alpha: float
    residuals: np.ndarray

    @property
    def steps(self) -> int:
        return self.iterates.shape[0] - 1

    @property
    def nbytes(self) -> int:
        return self.iterates.nbytes + self.residuals.nbytes


def unroll_gradient_descent(
    W0: np.ndarray,
    data: EmbeddedSet,
    cfg: LossConfig,
    alpha: float,
    steps: int,
) -> UnrollTape:
    """Run W_{k+1} = W_k - alpha * grad L(W_k), keeping the whole path."""
    if alpha <= 0:
        raise ValueError("step size alpha must be positive")
    if steps < 0:
        raise ValueError("step count must be non-negative")
    n, d = W0.shape
    iterates = np.empty((steps + 1, n, d))
    residuals = np.empty((steps, data.count, data.way))
    W = np.array(W0, dtype=np.float64)
    iterates[0] = W
    for k in range(steps):
        grad, resid = inner_grad(W, W0, data, cfg)
        residuals[k] = resid
        W = W - alpha * grad
        iterates[k + 1] = W
    return UnrollTape(iterates, float(alpha), residuals)


def bptt_metagrads(
    meta: "MetaParams",
    episode: Episode,
    cfg: LossConfig,
    alpha: float,
    steps: int,
) -> MetaGradients:
    """Exact reverse-mode gradients through an unrolled descent loop.

    The forward pass is ``unroll_gradient_descent``; the reverse pass
    walks the tape with the cotangent G seeded by the outer partial,
    using the step Jacobian

        G_k = G_{k+1} - alpha * (sum_m A_m (G_{k+1} phi_m) phi_m'
                                 + lam G_{k+1})

    and per-step contributions alpha*lam*G to the initialization and
    -alpha * (q_m' W_k + resid_m' G / M) to embedding row m, where
    q_m = A_m G phi_m.  The horizon gradient is reported as the negated
    inner/outer alignment at W_K so it can be compared directly with
    the continuous path at T = steps * alpha.
    """
    params = meta.phi_params
    phi_train, train_tape = embed_set(params, episode.train.features)
    phi_test, test_tape = embed_set(params, episode.test.features)
    train = EmbeddedSet(phi_train, episode.train.labels)
    test = EmbeddedSet(phi_test, episode.test.labels)
    tape = unroll_gradient_descent(meta.W0, train, cfg, alpha, steps)
    W_K = tape.iterates[-1]

    V, g_phi_test = outer_partials(W_K, test)
    lam = cfg.lam
    m = train.count
    G = V.copy()
    g_W0 = np.zeros_like(meta.W0)
    g_phi = np.zeros_like(phi_train)
    for k in range(steps - 1, -1, -1):
        W_k = tape.iterates[k]
        resid = tape.residuals[k]
        A = _curvature_blocks(resid + train.labels)
        q = np.einsum("mij,mj->mi", A, phi_train @ G.T)
        if lam != 0.0:
            g_W0 += alpha * lam * G
        g_phi -= alpha * (q @ W_k + (resid / m) @ G)
        G = G - alpha * (q.T @ phi_train + lam * G)
    g_W0 += G

    g_inner, _ = inner_grad(W_K, meta.W0, train, cfg)
    g_T = -float(np.sum(V * g_inner))

    emb_grads = [
        (train_w + test_w, train_b + test_b)
        for (train_w, train_b), (test_w, test_b) in zip(
            backward(params, train_tape, g_phi),
            backward(params, test_tape, g_phi_test),
        )
    ]

    predictions = np.argmax(phi_test @ W_K.T, axis=1)
    truth = np.argmax(episode.test.labels, axis=1)
    return MetaGradients(
        grad_W0=g_W0,
        grad_phi_train=g_phi,
        grad_phi_test=g_phi_test,
        grad_T=g_T,
        grad_embedding=tuple(emb_grads),
        outer_loss=float(outer_loss(W_K, test)),
        test_accuracy=float(np.mean(predictions == truth)),
    )


def _descend(
    W0: np.ndarray,
    data: EmbeddedSet,
    cfg: LossConfig,
    T: float,
    solver: SolverConfig,
) -> np.ndarray:
    """Integrate dW/dt = -grad L directly in weight space, return W(T)."""

    def rhs(w: np.ndarray) -> np.ndarray:
        grad, _ = inner_grad(w.reshape(W0.shape), W0, data, cfg)
        return -grad.ravel()

    end, _ = integrate(rhs, W0.ravel(), 0.0, T, solver)
    return end.reshape(W0.shape)


def naive_forward_sensitivity(
    meta: "MetaParams",
    episode: Episode,
    cfg: LossConfig,
    solver: SolverConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense Jacobians dW(T)/dW0 and dW(T)/dphi_m by direct integration.

    Augments the raw weight flow with an Nd x Nd sensitivity matrix and
    one Nd x d block per train example, so each right-hand side costs
    O(N^2 d^2); the instance is capped at N*d <= 64.  Returns the pair
    (S_W0 with shape (Nd, Nd), S_phi with shape (M, Nd, d)) under the
    row-major flattening of W.
    """
    params = meta.phi_params
    phi_train, _ = embed_set(params, episode.train.features)
    train = EmbeddedSet(phi_train, episode.train.labels)
    n, d = meta.W0.shape
    nd = n * d
    if nd > SENSITIVITY_DIM_CAP:
        raise ValueError(
            f"dense sensitivities need N*d <= {SENSITIVITY_DIM_CAP}, got {nd}"
        )
    m = train.count
    T = meta.T
    eye_nd = np.eye(nd)
    eye_d = np.eye(d)

    def unpack(y: np.ndarray):
        """W, S_W0 and S_phi from the flat state, each stored row-major."""
        W, S_W0, S_phi = np.split(y, [nd, nd + nd * nd])
        return W.reshape(n, d), S_W0.reshape(nd, nd), S_phi.reshape(m, nd, d)

    def rhs(y: np.ndarray) -> np.ndarray:
        W, S_W0, S_phi = unpack(y)
        grad, resid = inner_grad(W, meta.W0, train, cfg)
        A = _curvature_blocks(resid + train.labels)
        H = cfg.lam * eye_nd
        for i in range(m):
            H = H + np.kron(A[i], np.outer(phi_train[i], phi_train[i]))
        dS_W0 = -H @ S_W0
        if cfg.lam != 0.0:
            dS_W0 = dS_W0 + cfg.lam * eye_nd
        dS_phi = np.empty_like(S_phi)
        for i in range(m):
            forcing = -(
                np.kron(A[i] @ W, phi_train[i][:, None])
                + np.kron(resid[i][:, None], eye_d) / m
            )
            dS_phi[i] = -H @ S_phi[i] + forcing
        return np.concatenate([-grad.ravel(), dS_W0.ravel(), dS_phi.ravel()])

    y0 = np.concatenate([meta.W0.ravel(), eye_nd.ravel(), np.zeros(m * nd * d)])
    end, _ = integrate(rhs, y0, 0.0, T, solver)
    _, S_W0, S_phi = unpack(end)
    return S_W0, S_phi


def expand_tangent_block(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """B with shape (M, M, N, N) and the full z (M, M, M, N) from X (M, K, N).

    Row j N + b of X[i] is column b of B[i, j]; the K - M N rows after them
    hold z[i, j, m] for the pairs j <= m in row-major order, and z[i, m, j]
    is the same vector.
    """
    m, rows, n = X.shape
    if rows != m * n + m * (m + 1) // 2:
        raise ValueError(f"X has shape {X.shape}, not (M, M N + M (M + 1) / 2, N)")
    B = X[:, : m * n].reshape(m, m, n, n).transpose(0, 1, 3, 2).copy()
    j, k = np.triu_indices(m)
    z = np.empty((m, m, m, n))
    z[:, j, k] = X[:, m * n :]
    z[:, k, j] = X[:, m * n :]
    return B, z


def dense_jacobians(
    s_T: np.ndarray,
    X_T: np.ndarray,
    phi: np.ndarray,
    W0: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize the Jacobians the projections avoid forming.

    Returns (dW/dW0 with shape (Nd, Nd), dW/dphi stacked as (M, Nd, d))
    under row-major flattening, from s and the tangent block X at T.
    Strictly a diagnostic for small instances; refuses N*d beyond
    SENSITIVITY_DIM_CAP, like the dense sensitivities.
    """
    m, n = s_T.shape
    d = phi.shape[1]
    nd = n * d
    if nd > SENSITIVITY_DIM_CAP:
        raise ValueError(
            f"dense Jacobians need N*d <= {SENSITIVITY_DIM_CAP}, got {nd}"
        )
    B_T, z_T = expand_tangent_block(X_T)
    J_W0 = np.eye(nd)
    for i in range(m):
        for j in range(m):
            J_W0 -= np.kron(B_T[i, j], np.outer(phi[i], phi[j]))
    J_phi = np.empty((m, nd, d))
    eye_d = np.eye(d)
    for target in range(m):
        acc = np.kron(s_T[target][:, None], eye_d)
        for i in range(m):
            acc += np.kron(B_T[i, target] @ W0, phi[i][:, None])
            for j in range(m):
                acc += np.kron(
                    np.outer(z_T[i, j, target], phi[j]), phi[i][:, None]
                )
        J_phi[target] = -acc
    return J_W0, J_phi


def _perturbed_params(
    params: EmbeddingParams,
    layer_index: int,
    field: str,
    coord: Tuple[int, ...],
    delta: float,
) -> EmbeddingParams:
    layers = list(params.layers)
    layer = layers[layer_index]
    if field == "weight":
        weight = layer.weight.copy()
        weight[coord] += delta
        layers[layer_index] = Layer(weight, layer.bias, layer.activation)
    else:
        bias = layer.bias.copy()
        bias[coord] += delta
        layers[layer_index] = Layer(layer.weight, bias, layer.activation)
    return EmbeddingParams(tuple(layers), params.input_dim)


def finite_diff_metagrads(
    meta: "MetaParams",
    episode: Episode,
    cfg: LossConfig,
    solver: SolverConfig,
    eps: float,
) -> MetaGradients:
    """Central differences of the outer loss in every meta-parameter.

    Each probe re-runs the adaptation by integrating the raw weight
    flow at the supplied solver settings, so pass tolerances well below
    the difference quotient you intend to resolve.  Embedding-row probes
    perturb the embedded features directly; network probes perturb one
    scalar parameter and re-embed both splits.  The horizon probe turns
    one-sided when T <= eps so it never integrates over a negative span.
    """
    if eps <= 0:
        raise ValueError("finite-difference step eps must be positive")
    params = meta.phi_params
    y_train, y_test = episode.train.labels, episode.test.labels
    phi_train, _ = embed_set(params, episode.train.features)
    phi_test, _ = embed_set(params, episode.test.features)
    T = meta.T

    def adapted(W0, features, horizon):
        return _descend(W0, EmbeddedSet(features, y_train), cfg, horizon, solver)

    def objective(W0, features_train, features_test, horizon):
        W_T = adapted(W0, features_train, horizon)
        return outer_loss(W_T, EmbeddedSet(features_test, y_test))

    base_WT = adapted(meta.W0, phi_train, T)

    g_W0 = np.zeros_like(meta.W0)
    for idx in np.ndindex(meta.W0.shape):
        probe = meta.W0.copy()
        probe[idx] += eps
        hi = objective(probe, phi_train, phi_test, T)
        probe[idx] -= 2 * eps
        lo = objective(probe, phi_train, phi_test, T)
        g_W0[idx] = (hi - lo) / (2 * eps)

    g_phi_train = np.zeros_like(phi_train)
    for idx in np.ndindex(phi_train.shape):
        probe = phi_train.copy()
        probe[idx] += eps
        hi = objective(meta.W0, probe, phi_test, T)
        probe[idx] -= 2 * eps
        lo = objective(meta.W0, probe, phi_test, T)
        g_phi_train[idx] = (hi - lo) / (2 * eps)

    # The adapted weights do not depend on the test embeddings, so these
    # probes only re-evaluate the outer loss.
    g_phi_test = np.zeros_like(phi_test)
    for idx in np.ndindex(phi_test.shape):
        probe = phi_test.copy()
        probe[idx] += eps
        hi = outer_loss(base_WT, EmbeddedSet(probe, y_test))
        probe[idx] -= 2 * eps
        lo = outer_loss(base_WT, EmbeddedSet(probe, y_test))
        g_phi_test[idx] = (hi - lo) / (2 * eps)

    def network_objective(perturbed: EmbeddingParams) -> float:
        f_train, _ = embed_set(perturbed, episode.train.features)
        f_test, _ = embed_set(perturbed, episode.test.features)
        return objective(meta.W0, f_train, f_test, T)

    emb_grads = [
        (np.zeros_like(layer.weight), np.zeros_like(layer.bias))
        for layer in params.layers
    ]
    for li, layer in enumerate(params.layers):
        for field, shape in (("weight", layer.weight.shape), ("bias", layer.bias.shape)):
            target = emb_grads[li][0] if field == "weight" else emb_grads[li][1]
            for idx in np.ndindex(shape):
                hi = network_objective(_perturbed_params(params, li, field, idx, eps))
                lo = network_objective(_perturbed_params(params, li, field, idx, -eps))
                target[idx] = (hi - lo) / (2 * eps)

    hi = objective(meta.W0, phi_train, phi_test, T + eps)
    if T > eps:
        lo = objective(meta.W0, phi_train, phi_test, T - eps)
        g_T = float((hi - lo) / (2 * eps))
    else:
        # A central probe would cross T = 0; fall back to one-sided.
        base = outer_loss(base_WT, EmbeddedSet(phi_test, y_test))
        g_T = float((hi - base) / eps)

    predictions = np.argmax(phi_test @ base_WT.T, axis=1)
    truth = np.argmax(y_test, axis=1)
    return MetaGradients(
        grad_W0=g_W0,
        grad_phi_train=g_phi_train,
        grad_phi_test=g_phi_test,
        grad_T=g_T,
        grad_embedding=tuple(emb_grads),
        outer_loss=float(outer_loss(base_WT, EmbeddedSet(phi_test, y_test))),
        test_accuracy=float(np.mean(predictions == truth)),
    )


@dataclass(frozen=True)
class QuadraticSpec:
    """A diagonal quadratic potential 0.5 * sum_i lambda_i w_i^2."""

    eigenvalues: np.ndarray
    w0: np.ndarray
    T: float

    def __post_init__(self) -> None:
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        w0 = np.asarray(self.w0, dtype=np.float64)
        if eig.ndim != 1 or w0.shape != eig.shape:
            raise ValueError("eigenvalues and w0 must be vectors of equal length")
        if not ((eig > 0) & (eig < np.inf)).all():
            raise ValueError("curvature eigenvalues must be positive and finite")
        if not 0 < self.T < np.inf:
            raise ValueError("horizon T must be positive and finite")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "w0", w0)

    def exact(self, t: float) -> np.ndarray:
        """Closed-form state exp(-lambda t) * w0, componentwise."""
        return np.exp(-self.eigenvalues * t) * self.w0


def quadratic_sensitivity(
    spec: QuadraticSpec, solver: SolverConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate the quadratic flow with its sensitivity dS/dt = -H S.

    Returns (w(T), S(T)); the closed form of S(T) is the matrix
    exponential exp(-H T), diagonal here.
    """
    eig = spec.eigenvalues
    k = eig.size

    # The state is w followed by S (k x k) in row-major order.
    def rhs(y: np.ndarray) -> np.ndarray:
        w, S = y[:k], y[k:].reshape(k, k)
        return np.concatenate([-eig * w, (-eig[:, None] * S).ravel()])

    y0 = np.concatenate([spec.w0, np.eye(k).ravel()])
    end, _ = integrate(rhs, y0, 0.0, spec.T, solver)
    return end[:k], end[k:].reshape(k, k)


@dataclass(frozen=True)
class AdjointReport:
    """Forward/backward reconstruction errors of the quadratic flow."""

    forward_err: float
    backward_err: float
    ratio: float
    ts: np.ndarray | None = None
    w_forward: np.ndarray | None = None
    w_backward: np.ndarray | None = None
    w_exact: np.ndarray | None = None


def _norm(v: np.ndarray) -> float:
    """The 2-norm of v; where its squares overflow, as those of a recovered
    start near the largest float do, math.hypot, which scales them."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    return norm if math.isfinite(norm) else math.hypot(*v)


def adjoint_instability_demo(
    spec: QuadraticSpec, solver: SolverConfig, samples: int = 0
) -> AdjointReport:
    """Measure how badly reverse-time integration loses the start point.

    Integrates dw/dt = -H w from w0 to T (forward_err is the terminal
    error against the closed form), then integrates the same field in
    reverse time from the computed w(T) back to 0.  The contracting
    directions become expanding ones, so the componentwise error grows
    like exp(+lambda T) and the recovered w0 degrades by exactly the
    factor the forward solve gained.  With ``samples`` > 0 both passes
    are recorded on a uniform time grid for plotting.
    """
    eig, w0, T = spec.eigenvalues, spec.w0, spec.T
    # Past log(max float) the backward amplification exp(lambda T) overflows.
    growth, limit = float(eig.max()) * T, np.log(np.finfo(float).max)
    if growth > limit:
        raise ValueError(f"largest eigenvalue x T = {growth:g} exceeds {limit:.2f}")
    pieces = max(int(samples), 1)
    grid = np.linspace(0.0, T, pieces + 1)

    def run(start: np.ndarray, sign: float) -> np.ndarray:
        states = np.empty((pieces + 1, eig.size))
        states[0] = start
        current = start

        def rhs(w: np.ndarray) -> np.ndarray:
            return sign * eig * w

        for j in range(pieces):
            current, _ = integrate(rhs, current, grid[j], grid[j + 1], solver)
            states[j + 1] = current
        return states

    # dopri5's error norms square a state near the largest float; where
    # that overflows, the solver scales them, as _norm does.
    with np.errstate(over="ignore"):
        forward = run(w0, -1.0)
        # Reverse time: tau = T - t flips the sign of the field, so the
        # states visit t = T, ..., 0 as tau runs 0, ..., T.
        backward = run(forward[-1], +1.0)
    forward_err = _norm(forward[-1] - spec.exact(T))
    recovered = backward[-1]
    backward_err = _norm(recovered - w0)
    ratio = backward_err / max(forward_err, 1e-16)

    if samples <= 0:
        return AdjointReport(forward_err, backward_err, ratio)
    return AdjointReport(
        forward_err,
        backward_err,
        ratio,
        ts=grid,
        w_forward=forward,
        w_backward=backward[::-1].copy(),
        w_exact=np.exp(-eig[None, :] * grid[:, None]) * w0[None, :],
    )
