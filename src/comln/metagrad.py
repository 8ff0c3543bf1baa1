"""Meta-gradient projections for the adapted classifier.

The tracked state (s, B, z) of the adaptation flow encodes the Jacobians
of W(T) with respect to the initialization and the train embeddings:

    dW(T)/dW0    = I - sum_ij kron(B[i,j], phi_i phi_j')
    dW(T)/dphi_m = -[kron(s_m, I_d) + sum_i kron(B[i,m] W0, phi_i)
                     + sum_ij kron(z[i,j,m] phi_j', phi_i)]

with row-major vectorization throughout.  Contracting an outer-loss
partial V (an N x d matrix) against these Jacobians never materializes
them.  With U = phi V' and the coupling matrix

    C[j] = sum_i B[i,j]' (V phi_i)          (M x N)

the projections reduce to

    grad_W0       = V - C' phi
    grad_phi[m]   = -(s_m' V + C[m] W0 + D[m] phi)
    D[m, j]       = sum_i z[i,j,m]' (V phi_i)

at cost O(M^2 N^2 + M N d) for the initialization and O(M^3 N + M^2 d)
for the embeddings.  The horizon gradient is the negated alignment
between the outer partial and the inner gradient at W(T): increasing T
helps exactly when the two point the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .dynamics import Horizon, adapt
from .embedding import backward, embed_set
from .loss import (
    DimensionMismatchError,
    EmbeddedSet,
    LossConfig,
    inner_grad,
    outer_loss,
    outer_partials,
)
from .solver import SolverConfig
from .tasks import Episode

if TYPE_CHECKING:
    from .trainer import MetaParams


@dataclass(frozen=True)
class MetaGradients:
    """Per-task gradients of the outer loss, plus scalar diagnostics.

    ``grad_embedding`` holds per-layer (weight, bias) gradients of the
    embedding network; it is empty for an identity backbone.  The
    ``outer_loss`` and ``test_accuracy`` fields record the state of the
    task at the adapted weights so callers logging metrics do not have
    to re-run the adaptation.  ``rhs_evals`` and ``rejected_steps`` are the
    adaptation solver's counts; references that do not integrate leave
    them at zero.
    """

    grad_W0: np.ndarray
    grad_phi_train: np.ndarray
    grad_phi_test: np.ndarray
    grad_T: float
    grad_logT: float
    diag_alignment: float
    grad_embedding: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    outer_loss: float
    test_accuracy: float
    rhs_evals: int = 0
    rejected_steps: int = 0

    def __post_init__(self) -> None:
        arrays = [self.grad_W0, self.grad_phi_train, self.grad_phi_test]
        arrays.extend(a for pair in self.grad_embedding for a in pair)
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("meta-gradient contains non-finite entries")
        scalars = (self.grad_T, self.grad_logT, self.diag_alignment)
        if not all(np.isfinite(x) for x in scalars):
            raise ValueError("meta-gradient scalar is non-finite")


def coupling_matrix(V: np.ndarray, B_T: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """C[j] = sum_i B_T[i,j]' (V phi_i), shared by both projections."""
    m = phi.shape[0]
    if V.ndim != 2 or phi.ndim != 2 or V.shape[1] != phi.shape[1]:
        raise DimensionMismatchError(
            f"cannot couple V {V.shape} with phi {phi.shape}"
        )
    n = V.shape[0]
    if B_T.shape != (m, m, n, n):
        raise DimensionMismatchError(
            f"B has shape {B_T.shape}, expected {(m, m, n, n)}"
        )
    U = phi @ V.T
    return np.einsum("ik,ijkl->jl", U, B_T)


def project_W0(
    V: np.ndarray,
    B_T: np.ndarray,
    phi: np.ndarray,
    C: np.ndarray | None = None,
) -> np.ndarray:
    """Contract V with dW(T)/dW0 without forming the Nd x Nd matrix."""
    if C is None:
        C = coupling_matrix(V, B_T, phi)
    return V - C.T @ phi


def project_phi(
    V: np.ndarray,
    s_T: np.ndarray,
    B_T: np.ndarray,
    z_T: np.ndarray,
    phi: np.ndarray,
    W0: np.ndarray,
    C: np.ndarray | None = None,
) -> np.ndarray:
    """Contract V with every dW(T)/dphi_m; row m is the gradient for phi_m."""
    m, n = s_T.shape
    if z_T.shape != (m, m, m, n):
        raise DimensionMismatchError(
            f"z has shape {z_T.shape}, expected {(m, m, m, n)}"
        )
    if W0.shape != (n, phi.shape[1]):
        raise DimensionMismatchError(
            f"W0 has shape {W0.shape}, expected {(n, phi.shape[1])}"
        )
    if C is None:
        C = coupling_matrix(V, B_T, phi)
    U = phi @ V.T
    D = np.einsum("ijmk,ik->mj", z_T, U)
    return -(s_T @ V + C @ W0 + D @ phi)


def grad_T(V: np.ndarray, inner_grad_at_WT: np.ndarray) -> float:
    """Horizon gradient: minus the alignment of outer and inner gradients."""
    if V.shape != inner_grad_at_WT.shape:
        raise DimensionMismatchError(
            f"outer partial {V.shape} does not match gradient "
            f"{inner_grad_at_WT.shape}"
        )
    return -float(np.sum(V * inner_grad_at_WT))


def task_metagrads(
    meta: "MetaParams",
    episode: Episode,
    cfg: LossConfig,
    solver: SolverConfig,
) -> MetaGradients:
    """Adapt on the episode's train split and bundle every meta-gradient.

    Runs the tracked adaptation flow, projects the outer-loss partial
    onto the (s, B, z) sensitivities, and backpropagates the gradients in
    the embeddings of each split through the network in one pass.  The
    direct outer partial for train embeddings is zero because the two
    splits are disjoint, so ``grad_phi_train`` is the projection alone.
    """
    params = meta.phi_params
    if episode.train.dim != params.input_dim:
        raise DimensionMismatchError(
            f"episode inputs have dim {episode.train.dim}, "
            f"embedding expects {params.input_dim}"
        )
    if meta.W0.shape != (episode.way, params.output_dim):
        raise DimensionMismatchError(
            f"W0 has shape {meta.W0.shape}, expected "
            f"{(episode.way, params.output_dim)}"
        )
    phi_train, train_tape = embed_set(params, episode.train.features)
    phi_test, test_tape = embed_set(params, episode.test.features)
    train_set = EmbeddedSet(phi_train, episode.train.labels)
    test_set = EmbeddedSet(phi_test, episode.test.labels)

    horizon = Horizon(meta.log_T)
    W_T, state, stats = adapt(
        meta.W0,
        phi_train,
        episode.train.labels,
        cfg,
        horizon,
        solver,
        track=True,
    )

    V, g_phi_test = outer_partials(W_T, test_set)
    C = coupling_matrix(V, state.B, phi_train)
    g_W0 = project_W0(V, state.B, phi_train, C=C)
    g_phi_train = project_phi(
        V, state.s, state.B, state.z, phi_train, meta.W0, C=C
    )

    g_inner, _ = inner_grad(W_T, meta.W0, train_set, cfg)
    alignment = float(np.sum(V * g_inner))
    g_T = -alignment
    g_logT = horizon.T * g_T

    emb_grads = [
        (train_w + test_w, train_b + test_b)
        for (train_w, train_b), (test_w, test_b) in zip(
            backward(params, train_tape, g_phi_train),
            backward(params, test_tape, g_phi_test),
        )
    ]

    predictions = np.argmax(phi_test @ W_T.T, axis=1)
    truth = np.argmax(episode.test.labels, axis=1)
    return MetaGradients(
        grad_W0=g_W0,
        grad_phi_train=g_phi_train,
        grad_phi_test=g_phi_test,
        grad_T=g_T,
        grad_logT=g_logT,
        diag_alignment=alignment,
        grad_embedding=tuple(emb_grads),
        outer_loss=float(outer_loss(W_T, test_set)),
        test_accuracy=float(np.mean(predictions == truth)),
        rhs_evals=stats.rhs_evals,
        rejected_steps=stats.rejected_steps,
    )
