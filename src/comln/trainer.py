"""Outer-loop optimization of the meta-parameters (W0, network, log T).

Each iteration draws a meta-batch of episodes, computes per-task
gradient bundles, averages them arithmetically, and applies one SGD
step with optional Nesterov momentum to every meta-parameter.  The
horizon is trained through its logarithm, which keeps T positive by
construction no matter what the optimizer does.  That parametrisation
lives here alone: ``MetaParams.T`` is the one place a log T turns into
the T the flow integrates to, and ``meta_train`` applies the chain rule
dL/dlog T = T dL/dT to the bundles' ``grad_T``.

The update runs on one flat float64 vector laid out as W0, then each
layer's weight and bias, then log T; ``_flat`` and ``_unflat`` own that
order, so the gradient mean, the momentum buffer and the step are one
array each.

Checkpoints use the "COMLN-CKPT v1" format: a three-line ASCII header
(magic, dimensions plus the full-precision log-horizon, layer layout)
followed by the flat vector without log T, as little-endian float64.
Momentum buffers are not part of the format, so resuming is
bit-reproducible only for momentum-free configurations.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import DEFAULT_T_CAP
from .embedding import ACTIVATIONS, EmbeddingParams, Layer, init_embedding
from .loss import LossConfig, check_kind, is_kind
from .metagrad import TaskFailure, _adapt_episodes, batch_metagrads, score
# The benchmark's tracer (bench/tracer.py) looks these names up here.
from .metagrad import adapt, embed_set, outer_loss, task_metagrads  # noqa: F401
from .solver import SolverConfig
from .tasks import Episode

INITIAL_T = 0.05

# Largest log-horizon whose exp stays inside the hard cap, so a clamped
# value always constructs a valid MetaParams despite exp/log rounding.
LOG_T_MAX = math.log(DEFAULT_T_CAP)
while np.exp(LOG_T_MAX) > DEFAULT_T_CAP:
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
        # A numpy scalar would write its repr into the checkpoint header.
        object.__setattr__(self, "log_T", float(self.log_T))
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
        # In log space, so that no log_T overflows on its way to the check.
        if self.log_T > LOG_T_MAX:
            raise ValueError(
                f"T = exp({self.log_T:g}) exceeds the hard cap {DEFAULT_T_CAP:g}"
            )
        object.__setattr__(self, "W0", W0)

    @property
    def way(self) -> int:
        return self.W0.shape[0]

    @property
    def T(self) -> float:
        """The end time of the adaptation flow, exp(log_T)."""
        return float(np.exp(self.log_T))


@dataclass(frozen=True)
class TrainConfig:
    """Outer-loop settings; ``lr_schedule`` pairs are (iteration, multiplier)
    and ``eval_every`` is the checkpoint cadence in iterations, 0 for none.
    ``seed`` seeds the default network, the identity, which draws no random
    numbers: today every seed trains the same run."""

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
        counts = ("meta_batch_size", "iterations", "eval_every", "seed")
        check_kind("an integer", self, *counts)
        check_kind("a finite real number", self, "lr", "momentum")
        check_kind("a bool", self, "nesterov")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.meta_batch_size < 1:
            raise ValueError("meta_batch_size must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.eval_every < 0:
            raise ValueError("eval_every must be non-negative")
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        path = self.checkpoint_path
        if path == "" or not isinstance(path, (str, type(None))):
            raise ValueError(f"checkpoint_path must be null or a path, not {path!r}")
        if self.lr_schedule is not None:
            normalized = []
            for it, mult in self.lr_schedule:
                whole = is_kind(it, "an integer") and it >= 0
                if not (whole and is_kind(mult, "a finite real number") and mult >= 0):
                    raise ValueError(
                        f"lr_schedule pair {(it, mult)} needs an integer milestone "
                        ">= 0 and a finite multiplier >= 0"
                    )
                normalized.append((int(it), float(mult)))
            object.__setattr__(self, "lr_schedule", tuple(normalized))


@dataclass
class MetricsRow:
    """One training iteration's diagnostics, appended in order.

    ``rhs_evals`` and ``rejected_steps`` sum the adaptation solver's counts
    over the meta-batch, so they show why one iteration costs more than
    another, and ``max_rhs_evals``, the largest count of one task, shows
    whether one slow task did; ``stiffness`` is the largest
    ``StepStats.stiffness`` in the meta-batch, which nears 3.3 where
    stability rather than accuracy caps the steps.
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
    max_rhs_evals: int
    rejected_steps: int
    wall_time: float

    # The CSV columns: the field names, in declaration order.
    FIELDS: ClassVar[Tuple[str, ...]]

    def as_row(self) -> List:
        return [getattr(self, name) for name in self.FIELDS]


MetricsRow.FIELDS = tuple(f.name for f in dataclasses.fields(MetricsRow))


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
) -> MetaParams:
    """Zero classifier, freshly initialized network, T = 0.05.

    With no hidden dims the network is the identity and the classifier
    works on raw inputs; otherwise relu sits between the layers.
    """
    dims = [input_dim, *hidden_dims]
    phi = init_embedding(dims, seed=seed)
    W0 = np.zeros((way, phi.output_dim))
    return MetaParams(W0, phi, math.log(INITIAL_T))


def _layer_spec(layer: Layer) -> Tuple[int, int, str]:
    d_out, d_in = layer.weight.shape
    return d_in, d_out, layer.activation


def _flat(W0, pairs, log_T) -> np.ndarray:
    """W0, then each (weight, bias) pair in order, then log T, as one vector.

    Takes the parameters or their gradients alike.
    """
    arrays = [W0, *(a for pair in pairs for a in pair), log_T]
    return np.concatenate([np.ravel(a) for a in arrays])


def _unflat(
    theta: np.ndarray,
    way: int,
    input_dim: int,
    specs: Sequence[Tuple[int, int, str]],
) -> MetaParams:
    """Rebuild MetaParams from a ``_flat`` vector and the layers' specs.

    A spec is (d_in, d_out, activation); no specs is the identity backbone.
    """
    dim = specs[-1][1] if specs else input_dim
    sizes = [way * dim]
    for d_in, d_out, _ in specs:
        sizes += [d_in * d_out, d_out]
    pieces = np.split(theta, np.cumsum(sizes))
    layers = tuple(
        Layer(weight.reshape(d_out, d_in), bias, activation)
        for (d_in, d_out, activation), weight, bias in zip(
            specs, pieces[1:-1:2], pieces[2:-1:2]
        )
    )
    params = EmbeddingParams(layers, input_dim)
    return MetaParams(pieces[0].reshape(way, dim), params, theta[-1])


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

    layers = meta.phi_params.layers
    specs = [_layer_spec(l) for l in layers]
    theta = _flat(meta.W0, [(l.weight, l.bias) for l in layers], meta.log_T)
    velocity = np.zeros_like(theta)
    n_W0 = meta.W0.size

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

        # The log-T entry takes the chain rule dL/dlog T = T dL/dT.
        grad = sum(
            _flat(x.grad_W0, x.grad_embedding, meta.T * x.grad_T) for x in bundles
        ) / len(bundles)
        step, velocity = _sgd_step(grad, velocity, cfg.momentum, cfg.nesterov)
        theta = theta - _effective_lr(cfg.lr, schedule, k) * step
        theta[-1] = min(theta[-1], LOG_T_MAX)
        meta = _unflat(theta, meta.way, meta.phi_params.input_dim, specs)

        metrics.append(
            MetricsRow(
                iteration=k,
                outer_loss=float(np.mean([x.outer_loss for x in bundles])),
                test_accuracy=float(
                    np.mean([x.test_accuracy for x in bundles])
                ),
                T=meta.T,
                grad_norm_W0=float(np.linalg.norm(grad[:n_W0])),
                grad_norm_embedding=float(np.linalg.norm(grad[n_W0:-1])),
                grad_norm_logT=abs(float(grad[-1])),
                alignment=float(np.mean([x.diag_alignment for x in bundles])),
                rhs_evals=sum(x.stats.rhs_evals for x in bundles),
                max_rhs_evals=max(x.stats.rhs_evals for x in bundles),
                rejected_steps=sum(x.stats.rejected_steps for x in bundles),
                stiffness=max(x.stats.stiffness for x in bundles),
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

    A meta-batch of one through ``batch_metagrads``' pipeline, untracked; a
    failure raises its own exception.  Returns (accuracy, outer loss); the
    prediction is the argmax of W(T) phi, ties going to the lowest class.
    """
    try:
        (head,) = _adapt_episodes(meta, [episode], cfg, solver, False)
    except TaskFailure as failure:
        raise failure.__cause__ from None
    return score(head.W_T, head.test)


def save_checkpoint(meta: MetaParams, path: str) -> None:
    """Write the meta-parameters in the COMLN-CKPT v1 format."""
    way, dim = meta.W0.shape
    layers = meta.phi_params.layers
    tokens = ",".join(
        f"{d_in}->{d_out}:{activation}"
        for d_in, d_out, activation in map(_layer_spec, layers)
    )
    header = (
        f"{_CKPT_MAGIC}\n"
        f"N {way} d {dim} log_T {meta.log_T!r}\n"
        f"layers {tokens if tokens else '-'}\n"
    )
    payload = _flat(meta.W0, [(l.weight, l.bias) for l in layers], meta.log_T)[:-1]
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload.astype("<f8").tobytes())


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

    input_dim = shapes[0][0] if shapes else dim
    try:
        return _unflat(np.append(values, log_T), way, input_dim, shapes)
    except ValueError as exc:
        raise VersionMismatchError(f"inconsistent checkpoint: {exc}") from exc
