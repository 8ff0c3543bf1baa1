"""Meta-gradient projections for the adapted classifier.

The adapted weights are W(T) = W0 - s' phi, and s depends on the
meta-parameters only through the two per-task inputs P0 = phi W0' and
G = phi phi'.  The tracked state (s, X) of ``dynamics.adapt`` holds s and
its forward-mode tangents along every direction of those inputs: row
j N + b of X is the tangent along entry (j, b) of P0, and pair row
M N + p the tangent along the symmetric direction E_jm + E_mj of G, for
the p-th pair j <= m.

The outer-loss partial V = dL/dW(T) (an N x d matrix) pulls back to s as
dL/ds = -U with U = phi V'.  One contraction of X with U gives both input
covectors,

    C = -dL/dP0               (M x N, from the first M N rows)
    D[j, m] = D[m, j] = -(derivative of L along E_jm + E_mj of G)
                              (M x M, from the pair rows)

and the chain rule through dP0 = dphi W0' + phi dW0' and
dG = dphi phi' + phi dphi', with the direct dependence of W(T) on W0 and
on phi through s' phi, gives

    grad_W0  = V - C' phi
    grad_phi = -(s V + C W0 + D phi)

The contraction reads X once: O(M K N) with K = M N + M (M + 1) / 2, and
the products after it cost O(M N d + M^2 d).  No Jacobian of W(T) and no
expanded sensitivity is formed.  The horizon gradient is the negated
alignment between the outer partial and the inner gradient at W(T):
increasing T helps exactly when the two point the same way.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .dynamics import adapt, compact_layout
from .embedding import backward, embed_set
from .loss import (
    DimensionMismatchError,
    EmbeddedSet,
    LossConfig,
    inner_grad,
    outer_loss,
    outer_partials,
)
from .solver import SolverConfig, StepStats
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
    to re-run the adaptation.  ``stats`` is the task's adaptation
    ``StepStats``; references that do not integrate leave ``StepStats()``.

    ``grad_T`` is the one horizon gradient, dL/dT; the trainer, which owns
    the log-T parametrisation, turns it into dL/dlog T = T grad_T.
    """

    grad_W0: np.ndarray
    grad_phi_train: np.ndarray
    grad_phi_test: np.ndarray
    grad_T: float
    grad_embedding: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    outer_loss: float
    test_accuracy: float
    stats: StepStats = field(default_factory=StepStats)

    def __post_init__(self) -> None:
        arrays = [self.grad_W0, self.grad_phi_train, self.grad_phi_test]
        arrays.extend(a for pair in self.grad_embedding for a in pair)
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("meta-gradient contains non-finite entries")
        if not np.isfinite(self.grad_T):
            raise ValueError("meta-gradient scalar is non-finite")

    @property
    def diag_alignment(self) -> float:
        """Alignment of the outer partial with the inner gradient at W(T)."""
        return -self.grad_T


def coupling_matrix(
    V: np.ndarray, X: np.ndarray, phi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """C = -dL/dP0 (M x N) and the symmetric D (M x M) from the tangent block X.

    D[j, m] is minus the derivative of L along E_jm + E_mj of G.
    """
    if V.ndim != 2 or phi.ndim != 2 or V.shape[1] != phi.shape[1]:
        raise DimensionMismatchError(
            f"cannot couple V {V.shape} with phi {phi.shape}"
        )
    m, n = phi.shape[0], V.shape[0]
    layout = compact_layout(m, n)
    if X.shape != (m, layout.rows, n):
        raise DimensionMismatchError(
            f"X has shape {X.shape}, expected {(m, layout.rows, n)}"
        )
    rows = np.einsum("irk,ik->r", X, phi @ V.T)
    D = np.empty((m, m))
    D[layout.pair_j, layout.pair_m] = rows[m * n :]
    D[layout.pair_m, layout.pair_j] = rows[m * n :]
    return rows[: m * n].reshape(m, n), D


def project_W0(V: np.ndarray, C: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Contract V with dW(T)/dW0 without forming the Nd x Nd matrix."""
    return V - C.T @ phi


def project_phi(
    V: np.ndarray,
    s_T: np.ndarray,
    C: np.ndarray,
    D: np.ndarray,
    phi: np.ndarray,
    W0: np.ndarray,
) -> np.ndarray:
    """Contract V with every dW(T)/dphi_m; row m is the gradient for phi_m."""
    if W0.shape != (V.shape[0], phi.shape[1]):
        raise DimensionMismatchError(
            f"W0 has shape {W0.shape}, expected {(V.shape[0], phi.shape[1])}"
        )
    return -(s_T @ V + C @ W0 + D @ phi)


def grad_T(V: np.ndarray, inner_grad_at_WT: np.ndarray) -> float:
    """Horizon gradient: minus the alignment of outer and inner gradients."""
    if V.shape != inner_grad_at_WT.shape:
        raise DimensionMismatchError(
            f"outer partial {V.shape} does not match gradient "
            f"{inner_grad_at_WT.shape}"
        )
    return -float(np.sum(V * inner_grad_at_WT))


class TaskFailure(RuntimeError):
    """Task ``task`` of a meta-batch failed; its exception is the cause."""

    def __init__(self, task: int, cause: BaseException) -> None:
        super().__init__(f"task {task}: {cause}")
        self.task = task


def batch_metagrads(
    meta: "MetaParams",
    episodes: Sequence[Episode],
    cfg: LossConfig,
    solver: SolverConfig,
) -> List[MetaGradients]:
    """The MetaGradients of every episode of a meta-batch, in order.

    For each episode this is what ``task_metagrads`` computes: the tracked
    adaptation flow on its train split, the projection of the outer-loss
    partial onto the tangent block X, and one backward pass of the
    gradients in the embeddings of each split through the network.  The
    direct outer partial for train embeddings is zero because the two
    splits are disjoint, so ``grad_phi_train`` is the projection alone.
    A failing episode raises TaskFailure with its index.
    """
    bundles = []
    for i, head in enumerate(_adapt_episodes(meta, episodes, cfg, solver, True)):
        try:
            bundles.append(_bundle(meta, cfg, *head))
        except Exception as exc:
            raise TaskFailure(i, exc) from exc
    return bundles


_Adapted = namedtuple("_Adapted", "W_T s X stats train test tapes")


def _adapt_episodes(
    meta: "MetaParams",
    episodes: Sequence[Episode],
    cfg: LossConfig,
    solver: SolverConfig,
    track: bool,
) -> List[_Adapted]:
    """Each episode's adapted head, in order: W(T), s, X (None untracked),
    StepStats, the checked train and test sets, and their embed_set tapes.

    The train splits of one size adapt together in one ``adapt`` call, in
    which each episode still takes the solver steps it would take alone.  A
    failing episode raises TaskFailure with its index.
    """
    params = meta.phi_params
    sets, tapes = [], []
    for i, episode in enumerate(episodes):
        try:
            if meta.W0.shape != (episode.way, params.output_dim):
                raise DimensionMismatchError(
                    f"W0 has shape {meta.W0.shape}, expected "
                    f"{(episode.way, params.output_dim)}"
                )
            episode_sets, episode_tapes = [], []
            for split in (episode.train, episode.test):
                phi, tape = embed_set(params, split.features)
                episode_sets.append(EmbeddedSet(phi, split.labels))
                episode_tapes.append(tape)
        except Exception as exc:
            raise TaskFailure(i, exc) from exc
        sets.append(episode_sets)
        tapes.append(episode_tapes)

    sizes: dict = {}
    for i, episode in enumerate(episodes):
        sizes.setdefault(episode.train.count, []).append(i)
    adapted: List[_Adapted] = [None] * len(episodes)
    for tasks in sizes.values():
        try:
            W_T, state, stats = adapt(
                meta.W0,
                np.concatenate([sets[i][0].features for i in tasks]),
                np.concatenate([sets[i][0].labels for i in tasks]),
                cfg, meta.T, solver, track=track, episodes=len(tasks),
            )
        except Exception as exc:
            # A solver error names the row it happened in; others hold for
            # every task of this size, and name the first.
            raise TaskFailure(tasks[getattr(exc, "episode", None) or 0], exc) from exc
        for row, i in enumerate(tasks):
            adapted[i] = _Adapted(
                W_T[row], state.s[row], state.X[row] if track else None,
                stats.episodes[row], *sets[i], tapes[i],
            )
    return adapted


def projections(W_T, s, X, W0, train, test, cfg):
    """(grad_W0, grad_phi_train, grad_phi_test, grad_T) of one episode from
    the outer partial at its W(T) and its tracked state (s, X)."""
    phi_train = train.features
    V, g_phi_test = outer_partials(W_T, test)
    C, D = coupling_matrix(V, X, phi_train)
    g_W0 = project_W0(V, C, phi_train)
    g_phi_train = project_phi(V, s, C, D, phi_train, W0)
    g_inner, _ = inner_grad(W_T, W0, train, cfg)
    return g_W0, g_phi_train, g_phi_test, grad_T(V, g_inner)


def score(W_T: np.ndarray, test: EmbeddedSet) -> Tuple[float, float]:
    """(accuracy, outer loss) of W(T) on the test set; ties go to the lowest class."""
    predictions = np.argmax(test.features @ W_T.T, axis=1)
    truth = np.argmax(test.labels, axis=1)
    return float(np.mean(predictions == truth)), float(outer_loss(W_T, test))


def _bundle(meta, cfg, W_T, s, X, stats, train, test, tapes):
    """One episode's MetaGradients from its adapted head."""
    g_W0, g_phi_train, g_phi_test, g_T = projections(
        W_T, s, X, meta.W0, train, test, cfg
    )
    train_tape, test_tape = tapes
    emb_grads = [
        (train_w + test_w, train_b + test_b)
        for (train_w, train_b), (test_w, test_b) in zip(
            backward(meta.phi_params, train_tape, g_phi_train),
            backward(meta.phi_params, test_tape, g_phi_test),
        )
    ]
    accuracy, loss = score(W_T, test)
    return MetaGradients(
        grad_W0=g_W0,
        grad_phi_train=g_phi_train,
        grad_phi_test=g_phi_test,
        grad_T=g_T,
        grad_embedding=tuple(emb_grads),
        outer_loss=loss,
        test_accuracy=accuracy,
        stats=stats,
    )


def task_metagrads(
    meta: "MetaParams",
    episode: Episode,
    cfg: LossConfig,
    solver: SolverConfig,
) -> MetaGradients:
    """Adapt on the episode's train split and bundle every meta-gradient.

    The meta-batch of one of ``batch_metagrads``; a failure raises the
    episode's own exception.
    """
    try:
        (bundle,) = batch_metagrads(meta, [episode], cfg, solver)
    except TaskFailure as failure:
        raise failure.__cause__ from None
    return bundle
