"""Acceptance suite: one test and one printed pass line per criterion.

Run with ``pytest -v tests/test_acceptance.py``; each test name carries
the criterion number, and each body ends by printing a single
``criterion N ... PASS`` line with the measured margins (shown with
``-s`` or on failure).
"""

import math
import time

import numpy as np
import pytest

from comln.dynamics import DEFAULT_T_CAP, adapt
from comln.embedding import embed_set, init_embedding
from comln.loss import EmbeddedSet, LossConfig, inner_loss, outer_partials
from comln.metagrad import coupling_matrix, project_W0, project_phi, task_metagrads
from comln.oracles import (
    QuadraticSpec,
    adjoint_instability_demo,
    bptt_metagrads,
    dense_jacobians,
    expand_tangent_block,
    finite_diff_metagrads,
    naive_forward_sensitivity,
    quadratic_sensitivity,
    unroll_gradient_descent,
)
from comln.solver import SolverConfig
from comln.tasks import TaskGenConfig, episode_stream, sample_episode
from comln.trainer import (
    MetaParams,
    TrainConfig,
    meta_test,
    meta_train,
)

LAM0 = LossConfig(lam=0.0)
TIGHT = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-12)
ALPHA = 0.01


def _rel(got, want) -> float:
    got = np.asarray(got, dtype=float).ravel()
    want = np.asarray(want, dtype=float).ravel()
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def _components(bundle) -> dict:
    parts = {
        "W0": bundle.grad_W0,
        "phi_train": bundle.grad_phi_train,
        "phi_test": bundle.grad_phi_test,
        "T": np.array([bundle.grad_T]),
    }
    if bundle.grad_embedding:
        parts["embedding"] = np.concatenate(
            [
                np.concatenate([gw.ravel(), gb.ravel()])
                for gw, gb in bundle.grad_embedding
            ]
        )
    return parts


def test_criterion_1_euler_flow_equals_unrolled_descent():
    started = time.perf_counter()
    task_cfg = TaskGenConfig(way=3, shot=2, test_shots=3, input_dim=8, seed=101)
    episode = sample_episode(task_cfg, 0)  # N=3, M=6, M_test=9, d=8
    net = init_embedding([8, 8], seed=7)
    rng = np.random.default_rng(7)
    W0 = rng.normal(size=(3, net.output_dim)) * 0.3

    worst = 0.0
    for K in (1, 10, 100):
        meta = MetaParams(W0, net, math.log(K * ALPHA))
        euler = SolverConfig(method="euler", fixed_step=ALPHA)
        flow = task_metagrads(meta, episode, LAM0, euler)
        ref = bptt_metagrads(meta, episode, LAM0, ALPHA, K)
        for name, got in _components(flow).items():
            worst = max(worst, _rel(got, _components(ref)[name]))

        phi, _ = embed_set(net, episode.train.features)
        W_T, _, _ = adapt(
            W0,
            phi,
            episode.train.labels,
            LAM0,
            meta.T,
            euler,
            track=False,
        )
        tape = unroll_gradient_descent(
            W0, EmbeddedSet(phi, episode.train.labels), LAM0, ALPHA, K
        )
        worst = max(worst, _rel(W_T, tape.iterates[-1]))

    wall = time.perf_counter() - started
    assert worst <= 1e-8
    assert wall < 10.0
    print(
        f"criterion 1 (euler flow vs unrolled descent, K in 1/10/100): "
        f"PASS, max rel err {worst:.3e} <= 1e-8, wall {wall:.1f}s < 10s"
    )


def test_criterion_2_flow_gradients_match_finite_differences():
    started = time.perf_counter()
    flow_solver = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-12)
    probe_solver = SolverConfig(method="dopri5", rtol=1e-12, atol=1e-14)
    horizons = (0.3, 0.7, 1.2)
    lams = (0.0, 0.3)

    worst = {}
    for seed in range(20):
        way = 2 + seed % 2
        dim = 4 + seed % 3
        cfg = LossConfig(lam=lams[seed % 2])
        task_cfg = TaskGenConfig(
            way=way, shot=2, test_shots=3, input_dim=dim, seed=300 + seed
        )
        episode = sample_episode(task_cfg, 0)
        rng = np.random.default_rng(seed)
        if seed >= 14:
            net = init_embedding([dim, 5, 4], seed=seed, hidden_activation="tanh")
        else:
            net = init_embedding([dim], seed=seed)
        W0 = rng.normal(size=(way, net.output_dim)) * 0.3
        meta = MetaParams(W0, net, math.log(horizons[seed % 3]))

        bundle = task_metagrads(meta, episode, cfg, flow_solver)
        fd = finite_diff_metagrads(meta, episode, cfg, probe_solver, eps=1e-5)
        got, want = _components(bundle), _components(fd)
        for name in ("W0", "phi_train", "phi_test", "T", "embedding"):
            if name not in got:
                continue
            err = _rel(got[name], want[name])
            if err > worst.get(name, (0.0, -1))[0]:
                worst[name] = (err, seed)

    wall = time.perf_counter() - started
    assert set(worst) == {"W0", "phi_train", "phi_test", "T", "embedding"}
    for name, (err, seed) in worst.items():
        assert err <= 1e-4, f"{name} rel err {err:.3e} at seed {seed}"
    assert wall < 120.0
    peak = max(err for err, _ in worst.values())
    print(
        f"criterion 2 (dopri5 rtol 1e-10 vs central differences, 20 seeds): "
        f"PASS, max rel err {peak:.3e} <= 1e-4, wall {wall:.1f}s < 120s"
    )


def test_criterion_3_decomposition_matches_naive_sensitivities():
    cases = (
        (2, 3, 0.0),
        (3, 5, 0.5),
        (2, 8, 0.0),
        (4, 4, 0.5),
        (2, 16, 0.5),
        (4, 16, 0.0),
        (8, 8, 0.5),
    )
    worst_dense = 0.0
    worst_proj = 0.0
    for i, (way, dim, lam) in enumerate(cases):
        assert way * dim <= 64
        cfg = LossConfig(lam=lam)
        task_cfg = TaskGenConfig(
            way=way, shot=2, test_shots=2, input_dim=dim, seed=500 + i
        )
        episode = sample_episode(task_cfg, 0)
        rng = np.random.default_rng(500 + i)
        W0 = rng.normal(size=(way, dim)) * 0.3
        meta = MetaParams(W0, init_embedding([dim], seed=0), math.log(1.2))

        phi = episode.train.features
        W_T, state, _ = adapt(
            W0,
            phi,
            episode.train.labels,
            cfg,
            meta.T,
            TIGHT,
            track=True,
        )
        J_W0, J_phi = dense_jacobians(state.s, state.X, phi, W0)
        S_W0, S_phi = naive_forward_sensitivity(meta, episode, cfg, TIGHT)
        worst_dense = max(
            worst_dense,
            float(np.abs(J_W0 - S_W0).max()),
            float(np.abs(J_phi - S_phi).max()),
        )

        V, _ = outer_partials(
            W_T, EmbeddedSet(episode.test.features, episode.test.labels)
        )
        C, D = coupling_matrix(V, state.X, phi)
        vjp_W0 = (V.ravel() @ J_W0).reshape(W0.shape)
        vjp_phi = np.stack(
            [V.ravel() @ J_phi[m] for m in range(phi.shape[0])]
        )
        worst_proj = max(
            worst_proj,
            float(np.abs(project_W0(V, C, phi) - vjp_W0).max()),
            float(np.abs(project_phi(V, state.s, C, D, phi, W0) - vjp_phi).max()),
        )

    assert worst_dense <= 1e-6
    assert worst_proj <= 1e-10
    print(
        f"criterion 3 (dense Jacobians vs naive oracle, N*d up to 64): "
        f"PASS, max abs err {worst_dense:.3e} <= 1e-6, "
        f"projection err {worst_proj:.3e} <= 1e-10"
    )


def test_criterion_4_adaptation_flow_is_stable():
    solver = SolverConfig(method="dopri5", rtol=1e-8, atol=1e-10)
    slack = 10.0 * (solver.rtol + solver.atol)
    checkpoints = (0.5, 1.0, 1.5, 2.0)

    contraction_seeds = 50
    for seed in range(contraction_seeds):
        rng = np.random.default_rng(400 + seed)
        way = 2 + seed % 2
        dim = 3 + seed % 3
        episode = sample_episode(
            TaskGenConfig(way=way, shot=2, test_shots=2, input_dim=dim, seed=seed),
            0,
        )
        phi, labels = episode.train.features, episode.train.labels
        W0a = rng.normal(size=(way, dim)) * 0.4
        W0b = W0a + 1e-3 * rng.normal(size=(way, dim))
        previous = float(np.linalg.norm(W0a - W0b))
        for T in checkpoints:
            Wa, _, _ = adapt(
                W0a, phi, labels, LAM0, T, solver, track=False
            )
            Wb, _, _ = adapt(
                W0b, phi, labels, LAM0, T, solver, track=False
            )
            distance = float(np.linalg.norm(Wa - Wb))
            assert distance <= previous + slack, f"seed {seed}, T {T}"
            previous = distance

    # augmented state stays finite and bounded out to the horizon cap
    peak_norm = 0.0
    for seed in range(5):
        rng = np.random.default_rng(450 + seed)
        episode = sample_episode(
            TaskGenConfig(way=3, shot=2, test_shots=2, input_dim=4, seed=seed), 0
        )
        W0 = rng.normal(size=(3, 4)) * 0.3
        _, state, _ = adapt(
            W0,
            episode.train.features,
            episode.train.labels,
            LAM0,
            DEFAULT_T_CAP,
            SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8),
            track=True,
        )
        B, z = expand_tangent_block(state.X)
        full = np.concatenate([state.s.ravel(), B.ravel(), z.ravel()])
        assert np.isfinite(full).all()
        peak_norm = max(peak_norm, float(np.linalg.norm(full)))
    assert peak_norm <= 1e6

    # training loss never increases along a trajectory
    grid = np.linspace(0.25, 2.0, 8)
    for seed in range(10):
        lam = 0.0 if seed % 2 == 0 else 0.5
        cfg = LossConfig(lam=lam)
        rng = np.random.default_rng(470 + seed)
        episode = sample_episode(
            TaskGenConfig(way=3, shot=2, test_shots=2, input_dim=5, seed=seed), 0
        )
        data = EmbeddedSet(episode.train.features, episode.train.labels)
        W0 = rng.normal(size=(3, 5)) * 0.4
        losses = [float(inner_loss(W0, W0, data, cfg))]
        for T in grid:
            W, _, _ = adapt(
                W0,
                data.features,
                data.labels,
                cfg,
                T,
                solver,
                track=False,
            )
            losses.append(float(inner_loss(W, W0, data, cfg)))
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9, f"seed {seed}"

    print(
        f"criterion 4 (pair contraction 50 seeds, bounded state to T 100, "
        f"monotone loss): PASS, peak tracked norm {peak_norm:.3e} <= 1e6"
    )


def test_criterion_5_reverse_time_unstable_forward_sensitivity_exact():
    solver = SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8)
    spec = QuadraticSpec(np.array([1.0, 10.0]), np.array([1.0, 1.0]), 5.0)
    report = adjoint_instability_demo(spec, solver)
    assert report.backward_err >= 1e3 * report.forward_err

    _, S = quadratic_sensitivity(spec, solver)
    exact = np.diag(np.exp(-spec.eigenvalues * spec.T))
    sens_err = float(np.abs(S - exact).max())
    assert sens_err <= 1e-6
    print(
        f"criterion 5 (adjoint blow-up vs forward sensitivity): PASS, "
        f"backward/forward ratio {report.ratio:.3e} >= 1e3, "
        f"sensitivity err {sens_err:.3e} <= 1e-6"
    )


def test_criterion_6_constant_memory_versus_linear_unrolling():
    steps_list = (10, 100, 1000, 10000)
    task_cfg = TaskGenConfig(way=3, shot=2, test_shots=3, input_dim=8, seed=601)
    episode = sample_episode(task_cfg, 0)
    phi, labels = episode.train.features, episode.train.labels
    rng = np.random.default_rng(601)
    W0 = rng.normal(size=(3, 8)) * 0.3
    euler = SolverConfig(method="euler", fixed_step=ALPHA)

    flow_bytes = []
    for steps in steps_list:
        T = min(steps * ALPHA, DEFAULT_T_CAP)
        _, state, stats = adapt(W0, phi, labels, LAM0, T, euler, track=True)
        assert stats.accepted_steps == steps
        flow_bytes.append(state.nbytes)
    assert len(set(flow_bytes)) == 1

    data = EmbeddedSet(phi, labels)
    tape_bytes = [
        unroll_gradient_descent(W0, data, LAM0, ALPHA, steps).nbytes
        for steps in steps_list
    ]
    assert all(b2 > b1 for b1, b2 in zip(tape_bytes, tape_bytes[1:]))
    slope = (tape_bytes[-1] - tape_bytes[0]) / (steps_list[-1] - steps_list[0])
    n, d = W0.shape
    predicted = 8 * (n * d + data.count * n)
    assert abs(slope / predicted - 1.0) <= 0.2
    print(
        f"criterion 6 (memory scaling): PASS, flow bytes constant at "
        f"{flow_bytes[0]}, unroll slope {slope:.1f} B/step within 20% of "
        f"{predicted} B/step"
    )


@pytest.fixture(scope="module")
def trained():
    task_cfg = TaskGenConfig()  # 5-way 1-shot, d=16, noise_std 0.5
    train_cfg = TrainConfig(
        meta_batch_size=4,
        iterations=300,
        lr=0.1,
        momentum=0.9,
        nesterov=True,
        lam=0.5,
        solver=SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8),
        seed=0,
        eval_every=0,
    )
    started = time.perf_counter()
    final, metrics = meta_train(train_cfg, episode_stream(task_cfg))
    train_wall = time.perf_counter() - started

    held_out = [sample_episode(task_cfg, 10**7 + i) for i in range(200)]
    loss_cfg = LossConfig(lam=train_cfg.lam)
    started = time.perf_counter()
    acc_dopri = [
        meta_test(final, ep, loss_cfg, train_cfg.solver)[0] for ep in held_out
    ]
    eval_wall = time.perf_counter() - started
    acc_euler = [
        meta_test(
            final, ep, loss_cfg, SolverConfig(method="euler", fixed_step=ALPHA)
        )[0]
        for ep in held_out
    ]
    return {
        "task_cfg": task_cfg,
        "final": final,
        "metrics": metrics,
        "held_out": held_out,
        "acc_dopri": float(np.mean(acc_dopri)),
        "acc_euler": float(np.mean(acc_euler)),
        "train_wall": train_wall,
        "eval_wall": eval_wall,
    }


def test_criterion_7_desk_scale_meta_learning(trained):
    rng = np.random.default_rng(123)
    random_W = rng.normal(size=(5, 16))
    random_acc = float(
        np.mean(
            [
                np.mean(
                    np.argmax(ep.test.features @ random_W.T, axis=1)
                    == np.argmax(ep.test.labels, axis=1)
                )
                for ep in trained["held_out"]
            ]
        )
    )
    assert random_acc < 0.40

    final = trained["final"]
    moved = abs(final.T - 0.05) / 0.05
    wall = trained["train_wall"] + trained["eval_wall"]
    assert len(trained["metrics"]) <= 2000
    assert trained["acc_dopri"] >= 0.90
    assert final.T > 0
    assert moved >= 0.01
    assert wall < 600.0
    print(
        f"criterion 7 (desk-scale 5-way 1-shot learning): PASS, "
        f"held-out accuracy {trained['acc_dopri']:.4f} >= 0.90 over 200 "
        f"episodes in {len(trained['metrics'])} iterations, T 0.05 -> "
        f"{final.T:.3f} ({moved * 100:.0f}% move), random baseline "
        f"{random_acc:.4f} < 0.40, wall {wall:.0f}s < 600s"
    )


def test_criterion_8_solver_choice_does_not_change_accuracy(trained):
    gap = abs(trained["acc_dopri"] - trained["acc_euler"])
    assert gap <= 0.02
    print(
        f"criterion 8 (euler vs dopri5 at meta-test): PASS, accuracies "
        f"{trained['acc_euler']:.4f} vs {trained['acc_dopri']:.4f}, "
        f"gap {gap:.4f} <= 0.02"
    )
