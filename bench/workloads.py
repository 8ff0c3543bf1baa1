"""The benchmark's workloads: inputs built from a seed, one timed op, checks.

Every workload runs as a closed loop: one caller in one process issues the
next op only after the last one returns.  All of them use the acceptance
fixture's inner loss (lambda = 0.5) and solver (dopri5, rtol 1e-6,
atol 1e-8).  The seed chooses the episodes; the networks are part of the
workload and start from a fixed initialization, so seeds vary the tasks,
not the model.

The ops call the public API through its module attribute
(``comln.trainer.meta_train``, ``comln.metagrad.task_metagrads``,
``comln.trainer.meta_test``) so a traced run sees them too.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

import comln.metagrad
import comln.tasks
import comln.trainer
from comln.loss import LossConfig
from comln.oracles import bptt_metagrads
from comln.solver import SolverConfig
from comln.tasks import TaskGenConfig
from comln.trainer import MetaParams, TrainConfig, default_lr_schedule, default_meta_params

LOSS = LossConfig(lam=0.5)
SOLVER = SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8)
NET_SEED = 0
MLP_HIDDEN = (64, 32)  # 16 -> 64 -> 32, relu between
HELD_OUT_START = 10**7  # episode indices never used for training


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


class Workload:
    """One workload; `setup` may run several times, `reset` before each timed run."""

    name = ""
    why = ""
    tasks_per_op = 1
    counter_ops = 1  # ops from `reset` that the exact counters cover
    # Share of the op's time that slows like the interpreter and the array
    # part of the reference kernel (reference.py).
    ref_weights = (1.0, 0.0)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sample_s = 0.0

    def _sample(self, cfg: TaskGenConfig, indices) -> list:
        started = time.perf_counter()
        episodes = [comln.tasks.sample_episode(cfg, i) for i in indices]
        self.sample_s += time.perf_counter() - started
        return episodes

    def setup(self) -> None:
        """Build every input from the seed and warm up; nothing here is timed."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the state the first timed op starts from."""
        self.k = 0

    def op(self):
        """Run one op and return its output for the later checks."""
        raise NotImplementedError

    def check_op(self, output) -> bool:
        raise NotImplementedError

    def check_final(self, outputs) -> str | None:
        """Check the run as a whole; returns an error message or None."""
        raise NotImplementedError


class TrainWorkload(Workload):
    name = "train-5w1s"
    why = (
        "meta_train on the acceptance fixture (5-way 1-shot, identity backbone) "
        "past the T ramp: tiny state, so solver-loop and FlatState overhead dominate"
    )
    tasks_per_op = 4
    counter_ops = 20
    RAMP = 50  # iterations until T has climbed from 0.05 to near its plateau
    POOL = 250  # timed iterations before the episode pool repeats
    HELD_OUT = 100

    def setup(self) -> None:
        self.sample_s = 0.0
        task = TaskGenConfig(seed=self.seed)
        batch = self.tasks_per_op
        ramp = self._sample(task, range(batch * self.RAMP))
        self.pool = self._sample(
            task, range(batch * self.RAMP, batch * (self.RAMP + self.POOL))
        )
        self.held_out = self._sample(
            task, range(HELD_OUT_START, HELD_OUT_START + self.HELD_OUT)
        )
        # The fixture's first RAMP iterations, so the timed iterations run at
        # the horizon where training settles, not on the 10x cheaper ramp.
        fixture = TrainConfig(
            meta_batch_size=batch,
            iterations=self.RAMP,
            lr=0.1,
            momentum=0.9,
            nesterov=True,
            lr_schedule=default_lr_schedule(300),
            lam=LOSS.lam,
            solver=SOLVER,
            seed=NET_SEED,
            eval_every=0,
        )
        self.start, _ = comln.trainer.meta_train(fixture, ramp)
        # The fixture's learning rate stays at 0.1 until its iteration 180.
        self.step_cfg = replace(fixture, iterations=1, lr_schedule=())

    def reset(self) -> None:
        super().reset()
        self.meta = self.start

    def op(self):
        n = self.tasks_per_op
        i = (self.k % self.POOL) * n
        self.meta, rows = comln.trainer.meta_train(
            self.step_cfg, self.pool[i : i + n], initial=self.meta
        )
        self.k += 1
        return rows[0]

    def check_op(self, row) -> bool:
        return _finite(row.outer_loss, row.T, row.grad_norm_W0, row.grad_norm_logT) and (
            0.0 <= row.test_accuracy <= 1.0
        )

    def check_final(self, outputs) -> str | None:
        if not _finite(self.meta.W0, self.meta.log_T):
            return "final meta-parameters are not finite"
        results = [
            comln.trainer.meta_test(self.meta, ep, LOSS, SOLVER) for ep in self.held_out
        ]
        return _above_chance(results, self.meta.way)


class MetagradWorkload(Workload):
    name = "metagrad-10w5s"
    why = (
        "task_metagrads at 10-way 5-shot, MLP 16-64-32, T=2: the 12 MB (s, B, z) "
        "state makes rhs_full and solver stage arithmetic dominate"
    )
    counter_ops = 3
    ref_weights = (0.5, 0.5)
    POOL = 40
    T = 2.0
    ORACLE_STEP = 0.05  # Euler step of the pinned oracle comparison
    ORACLE_SEED = 20220303
    ORACLE_TOL = 1e-8  # acceptance criterion 1

    @staticmethod
    def _task(seed: int) -> TaskGenConfig:
        return TaskGenConfig(way=10, shot=5, test_shots=15, seed=seed)

    def setup(self) -> None:
        self.sample_s = 0.0
        episodes = self._sample(self._task(self.seed), range(self.POOL + 1))
        self.pool, warm = episodes[:-1], episodes[-1]
        base = default_meta_params(10, 16, seed=NET_SEED, hidden_dims=MLP_HIDDEN)
        self.meta = MetaParams(base.W0, base.phi_params, math.log(self.T))
        comln.metagrad.task_metagrads(self.meta, warm, LOSS, SOLVER)

    def op(self):
        episode = self.pool[self.k % self.POOL]
        self.k += 1
        return comln.metagrad.task_metagrads(self.meta, episode, LOSS, SOLVER)

    def check_op(self, grads) -> bool:
        # MetaGradients rejects non-finite entries when it is built.
        return (
            grads.grad_W0.shape == self.meta.W0.shape
            and grads.grad_phi_train.shape == (50, self.meta.W0.shape[1])
            and len(grads.grad_embedding) == len(self.meta.phi_params.layers)
            and grads.grad_T == -grads.diag_alignment
            and _finite(grads.outer_loss)
        )

    def check_final(self, outputs) -> str | None:
        """Euler flow gradients on a pinned instance against unrolled BPTT."""
        episode = comln.tasks.sample_episode(self._task(self.ORACLE_SEED), 0)
        steps = round(self.T / self.ORACLE_STEP)
        meta = MetaParams(
            self.meta.W0, self.meta.phi_params, math.log(steps * self.ORACLE_STEP)
        )
        euler = SolverConfig(method="euler", fixed_step=self.ORACLE_STEP)
        flow = comln.metagrad.task_metagrads(meta, episode, LOSS, euler)
        ref = bptt_metagrads(meta, episode, LOSS, self.ORACLE_STEP, steps)
        pairs = {
            "W0": (flow.grad_W0, ref.grad_W0),
            "phi_train": (flow.grad_phi_train, ref.grad_phi_train),
            "phi_test": (flow.grad_phi_test, ref.grad_phi_test),
            "T": (flow.grad_T, ref.grad_T),
        }
        for li, (got, want) in enumerate(zip(flow.grad_embedding, ref.grad_embedding)):
            pairs[f"layer{li}.weight"] = (got[0], want[0])
            pairs[f"layer{li}.bias"] = (got[1], want[1])
        for name, (got, want) in pairs.items():
            got, want = np.ravel(got), np.ravel(want)
            err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
            if not err <= self.ORACLE_TOL:
                return f"{name} gradient is {err:.3e} from the BPTT oracle"
        return None


class EvalWorkload(Workload):
    name = "eval-5w1s"
    why = (
        "meta_test on held-out 5-way 1-shot episodes, MLP backbone, T=20: untracked "
        "25-entry state and rhs_adapt, no projections or backward pass"
    )
    counter_ops = 200
    POOL = 500
    WARM = 10
    T = 20.0

    def setup(self) -> None:
        self.sample_s = 0.0
        start = HELD_OUT_START
        episodes = self._sample(
            TaskGenConfig(seed=self.seed), range(start, start + self.POOL + self.WARM)
        )
        self.pool, warm = episodes[: self.POOL], episodes[self.POOL :]
        base = default_meta_params(5, 16, seed=NET_SEED, hidden_dims=MLP_HIDDEN)
        self.meta = MetaParams(base.W0, base.phi_params, math.log(self.T))
        for episode in warm:
            comln.trainer.meta_test(self.meta, episode, LOSS, SOLVER)

    def op(self):
        episode = self.pool[self.k % self.POOL]
        self.k += 1
        return comln.trainer.meta_test(self.meta, episode, LOSS, SOLVER)

    def check_op(self, result) -> bool:
        accuracy, loss = result
        return 0.0 <= accuracy <= 1.0 and _finite(loss)

    def check_final(self, outputs) -> str | None:
        return _above_chance(outputs, self.meta.way)


def _above_chance(results, way: int) -> str | None:
    """Mean held-out accuracy of (accuracy, loss) pairs must beat 1/way."""
    if not results:
        return "no held-out results to check"
    if not _finite([loss for _, loss in results]):
        return "held-out loss is not finite"
    accuracy = float(np.mean([acc for acc, _ in results]))
    if not accuracy > 1.0 / way:
        return f"held-out accuracy {accuracy:.4f} is not above chance {1.0 / way:.2f}"
    return None


WORKLOADS = {w.name: w for w in (TrainWorkload, MetagradWorkload, EvalWorkload)}
