"""Continuous-time meta-learning for few-shot classification.

Adaptation of a linear classifier head is treated as integration of the
gradient vector field of the training loss, from a meta-learned
initialization W0 for a meta-learned amount of time T.  Meta-gradients
with respect to W0, the embedding network, and T are obtained by
integrating a small augmented system (s, B, z) forward in time alongside
the adaptation, with memory cost independent of T.

Modules
-------
solver     generic fixed-step / adaptive ODE integration on float64 vectors,
           with an episode axis for batches of small states
loss       softmax cross-entropy inner loss, curvature blocks, outer partials
dynamics   augmented adaptation ODE and weight reconstruction
metagrad   Jacobian-free projections and the per-task meta-gradient bundles
           of a meta-batch
embedding  small fully-connected feature extractor with explicit backward
oracles    brute-force references: unrolled backprop, dense sensitivities,
           finite differences, and the backward-integration instability demo
tasks      synthetic Gaussian-cluster episodes and the COMLN-EP file format
trainer    outer SGD loop, meta-test evaluation, COMLN-CKPT checkpoints
cli        command-line entry point (train / grad-check / bench / ...)
"""

from comln.dynamics import AugmentedState, adapt
from comln.loss import EmbeddedSet, LossConfig
from comln.metagrad import MetaGradients, batch_metagrads, task_metagrads
from comln.solver import SolverConfig, StepStats, integrate
from comln.tasks import Episode, TaskGenConfig, sample_episode
from comln.trainer import (MetaParams, TrainConfig, default_meta_params,
                           meta_test, meta_train)

__all__ = [
    "SolverConfig",
    "StepStats",
    "integrate",
    "EmbeddedSet",
    "LossConfig",
    "AugmentedState",
    "adapt",
    "MetaGradients",
    "task_metagrads",
    "batch_metagrads",
    "Episode",
    "TaskGenConfig",
    "sample_episode",
    "MetaParams",
    "default_meta_params",
    "TrainConfig",
    "meta_train",
    "meta_test",
]

__version__ = "0.1.0"
