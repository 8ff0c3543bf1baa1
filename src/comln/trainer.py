"""Outer-loop optimization of the meta-parameters (W0, network, log T).

Each iteration draws a meta-batch of episodes, computes per-task
gradient bundles, averages them arithmetically, and applies one SGD
step with optional Nesterov momentum to every meta-parameter.  The
horizon is trained through its logarithm, which keeps T positive by
construction no matter what the optimizer does.

Checkpoints use the "COMLN-CKPT v1" format: a three-line ASCII header
(magic, dimensions plus the full-precision log-horizon, layer layout)
followed by little-endian float64 blocks for W0 and then each layer's
weight and bias in order.  Momentum buffers are not part of the format,
so resuming is bit-reproducible only for momentum-free configurations.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import DEFAULT_T_CAP, Horizon, adapt
from .embedding import ACTIVATIONS, EmbeddingParams, Layer, embed_set, init_embedding
from .loss import EmbeddedSet, LossConfig, outer_loss
# task_metagrads is looked up here by the benchmark's tracer (bench/tracer.py).
from .metagrad import TaskFailure, batch_metagrads, task_metagrads  # noqa: F401
from .solver import SolverConfig
from .tasks import Episode

INITIAL_T = 0.05

# Largest log-horizon whose exp stays inside the hard cap, so a clamped
# value always constructs a valid MetaParams despite exp/log rounding.
LOG_T_MAX = math.log(DEFAULT_T_CAP)
while math.exp(LOG_T_MAX) > DEFAULT_T_CAP:
    LOG_T_MAX = math.nextafter(LOG_T_MAX, -math.inf)

_CKPT_MAGIC = "COMLN-CKPT v1"


class VersionMismatchError(ValueError):
    """Checkpoint header is not one this code can read."""


class CorruptPayloadError(ValueError):
    """Checkpoint parameters are damaged (wrong size or non-finite)."""


@dataclass(frozen=True)
class MetaParams:
    """Everything the outer loop trains: W0, the network, and log T."""

    W0: np.ndarray
    phi_params: EmbeddingParams
    log_T: float

    def __post_init__(self) -> None:
        W0 = np.asarray(self.W0, dtype=np.float64)
        if W0.ndim != 2:
            raise ValueError("W0 must be a 2-d matrix")
        if not np.isfinite(W0).all():
            raise ValueError("W0 contains non-finite entries")
        if W0.shape[1] != self.phi_params.output_dim:
            raise ValueError(
                f"W0 has {W0.shape[1]} columns but the network emits "
                f"{self.phi_params.output_dim} features"
            )
        if not np.isfinite(self.log_T):
            raise ValueError("log_T must be finite")
        if math.exp(self.log_T) > DEFAULT_T_CAP:
            raise ValueError(
                f"T = exp({self.log_T:g}) exceeds the hard cap {DEFAULT_T_CAP:g}"
            )
        object.__setattr__(self, "W0", W0)

    @property
    def way(self) -> int:
        return self.W0.shape[0]

    @property
    def T(self) -> float:
        return math.exp(self.log_T)


@dataclass(frozen=True)
class TrainConfig:
    """Outer-loop settings; ``lr_schedule`` pairs are (iteration, multiplier)."""

    meta_batch_size: int = 4
    iterations: int = 2000
    lr: float = 0.1
    momentum: float = 0.9
    nesterov: bool = True
    lr_schedule: Optional[Tuple[Tuple[int, float], ...]] = None
    lam: float = 0.0
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    eval_every: int = 100
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.meta_batch_size < 1:
            raise ValueError("meta_batch_size must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.lr_schedule is not None:
            normalized = tuple(
                (int(it), float(mult)) for it, mult in self.lr_schedule
            )
            object.__setattr__(self, "lr_schedule", normalized)


@dataclass
class MetricsRow:
    """One training iteration's diagnostics, appended in order.

    ``rhs_evals`` and ``rejected_steps`` sum the adaptation solver's counts
    over the meta-batch, so they show why one iteration costs more than
    another; ``stiffness`` is the largest ``StepStats.stiffness`` in the
    meta-batch, which nears 3.3 where stability rather than accuracy caps
    the steps.
    """

    iteration: int
    outer_loss: float
    test_accuracy: float
    T: float
    grad_norm_W0: float
    grad_norm_embedding: float
    grad_norm_logT: float
    alignment: float
    stiffness: float
    rhs_evals: int
    rejected_steps: int
    wall_time: float

    FIELDS = (
        "iteration",
        "outer_loss",
        "test_accuracy",
        "T",
        "grad_norm_W0",
        "grad_norm_embedding",
        "grad_norm_logT",
        "alignment",
        "stiffness",
        "rhs_evals",
        "rejected_steps",
        "wall_time",
    )

    def as_row(self) -> List:
        return [getattr(self, name) for name in self.FIELDS]


def default_lr_schedule(iterations: int) -> Tuple[Tuple[int, float], ...]:
    """Decay by 10x at 60% and 85% of the run."""
    return (
        (int(iterations * 0.6), 0.1),
        (int(iterations * 0.85), 0.1),
    )


def default_meta_params(
    way: int,
    input_dim: int,
    seed: int = 0,
    hidden_dims: Sequence[int] = (),
    hidden_activation: str = "relu",
) -> MetaParams:
    """Zero classifier, freshly initialized network, T = 0.05.

    With no hidden dims the network is the identity and the classifier
    works on raw inputs.
    """
    dims = [input_dim, *hidden_dims]
    phi = init_embedding(dims, seed=seed, hidden_activation=hidden_activation)
    W0 = np.zeros((way, phi.output_dim))
    return MetaParams(W0, phi, math.log(INITIAL_T))


def _sgd_step(grad, velocity, momentum: float, nesterov: bool):
    """One momentum update; returns (step_direction, new_velocity)."""
    new_velocity = momentum * velocity + grad
    if nesterov:
        return grad + momentum * new_velocity, new_velocity
    return new_velocity, new_velocity


def _effective_lr(
    base: float, schedule: Tuple[Tuple[int, float], ...], iteration: int
) -> float:
    lr = base
    for milestone, mult in schedule:
        if iteration >= milestone:
            lr *= mult
    return lr


def meta_train(
    cfg: TrainConfig,
    episodes: Iterable[Episode],
    initial: Optional[MetaParams] = None,
) -> Tuple[MetaParams, List[MetricsRow]]:
    """Run the outer loop and return the final parameters plus metrics.

    ``episodes`` is consumed one meta-batch per iteration, whose
    meta-gradients ``batch_metagrads`` computes in one adaptation flow per
    train-split size.  When no ``initial`` parameters are given, the first
    episode fixes the task dimensions and an identity network is used.  A
    failing task aborts the run with the iteration and task index
    attached; it is never silently dropped.

    The log-horizon is projected onto (-inf, LOG_T_MAX] after every
    update.  Without a weight penalty the outer loss on separable tasks
    keeps decreasing in T, so long runs would otherwise push T past its
    hard cap; the projection parks it at the cap instead.
    """
    stream: Iterator[Episode] = iter(episodes)
    if initial is None:
        try:
            first = next(stream)
        except StopIteration:
            raise ValueError("episode stream is empty") from None
        initial = default_meta_params(first.way, first.train.dim, seed=cfg.seed)
        stream = itertools.chain([first], stream)

    meta = initial
    loss_cfg = LossConfig(lam=cfg.lam)
    schedule = (
        cfg.lr_schedule
        if cfg.lr_schedule is not None
        else default_lr_schedule(cfg.iterations)
    )

    vel_W0 = np.zeros_like(meta.W0)
    vel_layers = [
        (np.zeros_like(l.weight), np.zeros_like(l.bias))
        for l in meta.phi_params.layers
    ]
    vel_logT = 0.0

    metrics: List[MetricsRow] = []
    for k in range(cfg.iterations):
        started = time.perf_counter()
        batch: List[Episode] = []
        for _ in range(cfg.meta_batch_size):
            try:
                batch.append(next(stream))
            except StopIteration:
                raise ValueError(
                    f"episode stream exhausted at iteration {k}"
                ) from None

        try:
            bundles = batch_metagrads(meta, batch, loss_cfg, cfg.solver)
        except TaskFailure as failure:
            raise RuntimeError(
                f"meta-training aborted: iteration {k}, {failure}"
            ) from failure.__cause__

        b = len(bundles)
        g_W0 = sum(x.grad_W0 for x in bundles) / b
        g_layers = [
            (
                sum(x.grad_embedding[li][0] for x in bundles) / b,
                sum(x.grad_embedding[li][1] for x in bundles) / b,
            )
            for li in range(len(meta.phi_params.layers))
        ]
        g_logT = sum(x.grad_logT for x in bundles) / b

        lr = _effective_lr(cfg.lr, schedule, k)
        step_W0, vel_W0 = _sgd_step(g_W0, vel_W0, cfg.momentum, cfg.nesterov)
        new_W0 = meta.W0 - lr * step_W0
        new_layers = []
        for li, layer in enumerate(meta.phi_params.layers):
            step_w, vel_w = _sgd_step(
                g_layers[li][0], vel_layers[li][0], cfg.momentum, cfg.nesterov
            )
            step_b, vel_b = _sgd_step(
                g_layers[li][1], vel_layers[li][1], cfg.momentum, cfg.nesterov
            )
            vel_layers[li] = (vel_w, vel_b)
            new_layers.append(
                Layer(
                    layer.weight - lr * step_w,
                    layer.bias - lr * step_b,
                    layer.activation,
                )
            )
        step_logT, vel_logT = _sgd_step(
            g_logT, vel_logT, cfg.momentum, cfg.nesterov
        )
        new_logT = min(meta.log_T - lr * step_logT, LOG_T_MAX)

        meta = MetaParams(
            new_W0,
            EmbeddingParams(
                tuple(new_layers),
                meta.phi_params.input_dim,
                meta.phi_params.output_dim,
            ),
            new_logT,
        )

        emb_sq = sum(
            float(np.sum(gw**2) + np.sum(gb**2)) for gw, gb in g_layers
        )
        metrics.append(
            MetricsRow(
                iteration=k,
                outer_loss=float(np.mean([x.outer_loss for x in bundles])),
                test_accuracy=float(
                    np.mean([x.test_accuracy for x in bundles])
                ),
                T=meta.T,
                grad_norm_W0=float(np.linalg.norm(g_W0)),
                grad_norm_embedding=math.sqrt(emb_sq),
                grad_norm_logT=abs(g_logT),
                alignment=float(np.mean([x.diag_alignment for x in bundles])),
                rhs_evals=sum(x.rhs_evals for x in bundles),
                rejected_steps=sum(x.rejected_steps for x in bundles),
                stiffness=max(x.stiffness for x in bundles),
                wall_time=time.perf_counter() - started,
            )
        )

        if (
            cfg.checkpoint_path is not None
            and cfg.eval_every > 0
            and (k + 1) % cfg.eval_every == 0
        ):
            save_checkpoint(meta, cfg.checkpoint_path)

    return meta, metrics


def meta_test(
    meta: MetaParams,
    episode: Episode,
    cfg: LossConfig,
    solver: SolverConfig,
) -> Tuple[float, float]:
    """Adapt on the train split (no tracking) and score the test split.

    Predictions are the argmax of W(T) phi; ties resolve to the lowest
    class index.  Returns (accuracy, outer loss).
    """
    phi_train, _ = embed_set(meta.phi_params, episode.train.features)
    phi_test, _ = embed_set(meta.phi_params, episode.test.features)
    W_T, _, _ = adapt(
        meta.W0,
        phi_train,
        episode.train.labels,
        cfg,
        Horizon(meta.log_T),
        solver,
        track=False,
    )
    predictions = np.argmax(phi_test @ W_T.T, axis=1)
    truth = np.argmax(episode.test.labels, axis=1)
    accuracy = float(np.mean(predictions == truth))
    loss = float(outer_loss(W_T, EmbeddedSet(phi_test, episode.test.labels)))
    return accuracy, loss


def _layer_token(layer: Layer) -> str:
    d_out, d_in = layer.weight.shape
    return f"{d_in}->{d_out}:{layer.activation}"


def save_checkpoint(meta: MetaParams, path: str) -> None:
    """Write the meta-parameters in the COMLN-CKPT v1 format."""
    way, dim = meta.W0.shape
    tokens = ",".join(_layer_token(l) for l in meta.phi_params.layers)
    header = (
        f"{_CKPT_MAGIC}\n"
        f"N {way} d {dim} log_T {meta.log_T!r}\n"
        f"layers {tokens if tokens else '-'}\n"
    )
    blocks = [np.ascontiguousarray(meta.W0, dtype="<f8").tobytes()]
    for layer in meta.phi_params.layers:
        blocks.append(np.ascontiguousarray(layer.weight, dtype="<f8").tobytes())
        blocks.append(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for block in blocks:
            fh.write(block)


def _parse_layer_token(token: str) -> Tuple[int, int, str]:
    try:
        dims, activation = token.split(":")
        d_in, d_out = dims.split("->")
        d_in, d_out = int(d_in), int(d_out)
    except ValueError as exc:
        raise VersionMismatchError(f"bad layer token {token!r}") from exc
    if d_in < 1 or d_out < 1 or activation not in ACTIVATIONS:
        raise VersionMismatchError(f"bad layer token {token!r}")
    return d_in, d_out, activation


def load_checkpoint(path: str) -> MetaParams:
    """Read a COMLN-CKPT v1 file back into MetaParams."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4:
        raise VersionMismatchError("checkpoint header is truncated")
    magic, dims_line, layers_line, payload = parts
    if magic.decode("ascii", "replace") != _CKPT_MAGIC:
        raise VersionMismatchError(
            f"expected {_CKPT_MAGIC!r}, found {magic[:32]!r}"
        )
    fields = dims_line.decode("ascii", "replace").split()
    if (
        len(fields) != 6
        or fields[0] != "N"
        or fields[2] != "d"
        or fields[4] != "log_T"
    ):
        raise VersionMismatchError(f"bad dimension line {dims_line!r}")
    try:
        way, dim = int(fields[1]), int(fields[3])
        log_T = float(fields[5])
    except ValueError as exc:
        raise VersionMismatchError(f"bad dimension line {dims_line!r}") from exc
    if way < 1 or dim < 1:
        raise VersionMismatchError(f"bad dimensions N={way} d={dim}")
    if not np.isfinite(log_T):
        raise CorruptPayloadError("log_T is non-finite")

    layer_text = layers_line.decode("ascii", "replace").split()
    if len(layer_text) != 2 or layer_text[0] != "layers":
        raise VersionMismatchError(f"bad layer line {layers_line!r}")
    if layer_text[1] == "-":
        shapes: List[Tuple[int, int, str]] = []
    else:
        shapes = [_parse_layer_token(t) for t in layer_text[1].split(",")]
    if shapes and shapes[-1][1] != dim:
        raise VersionMismatchError(
            f"last layer emits {shapes[-1][1]} features, header says {dim}"
        )

    expected = way * dim + sum(di * do + do for di, do, _ in shapes)
    if len(payload) != 8 * expected:
        raise VersionMismatchError(
            f"payload holds {len(payload)} bytes, "
            f"declared dims need {8 * expected}"
        )
    values = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(values).all():
        raise CorruptPayloadError("checkpoint parameters are non-finite")

    offset = way * dim
    W0 = values[:offset].reshape(way, dim).copy()
    layers = []
    for d_in, d_out, activation in shapes:
        weight = values[offset : offset + d_in * d_out].reshape(d_out, d_in)
        offset += d_in * d_out
        bias = values[offset : offset + d_out]
        offset += d_out
        layers.append(Layer(weight.copy(), bias.copy(), activation))
    input_dim = shapes[0][0] if shapes else dim
    try:
        params = EmbeddingParams(tuple(layers), input_dim, dim)
        return MetaParams(W0, params, log_T)
    except ValueError as exc:
        raise VersionMismatchError(f"inconsistent checkpoint: {exc}") from exc
