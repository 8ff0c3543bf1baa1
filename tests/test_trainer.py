"""Tests for the outer training loop and the checkpoint format."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import comln.dynamics
import comln.trainer
from comln.embedding import embed_set, init_embedding
from comln.loss import DimensionMismatchError, EmbeddedSet, LossConfig, outer_loss
from comln.metagrad import task_metagrads
from comln.solver import SolverConfig
from comln.tasks import Episode, TaskGenConfig, sample_episode
from comln.trainer import (
    INITIAL_T,
    LOG_T_MAX,
    CorruptPayloadError,
    MetaParams,
    MetricsRow,
    TrainConfig,
    VersionMismatchError,
    _effective_lr,
    _sgd_step,
    default_lr_schedule,
    default_meta_params,
    load_checkpoint,
    meta_test,
    meta_train,
    save_checkpoint,
)

LAM0 = LossConfig(lam=0.0)
EULER = SolverConfig(method="euler", fixed_step=0.01)
RK4 = SolverConfig(method="rk4", fixed_step=0.01)


def episode_batch(count, seed=0, way=2, shot=1, test_shots=2, input_dim=3):
    cfg = TaskGenConfig(
        way=way, shot=shot, test_shots=test_shots, input_dim=input_dim, seed=seed
    )
    return [sample_episode(cfg, i) for i in range(count)]


def flat_train_config(**kwargs):
    defaults = dict(
        meta_batch_size=1,
        iterations=1,
        lr=0.05,
        momentum=0.0,
        nesterov=False,
        lr_schedule=(),
        solver=EULER,
        eval_every=0,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# the SGD step convention


def test_sgd_step_nesterov_hand_computed():
    # Three unit gradients, momentum 0.9: the parameter visits
    # -0.19, -0.461, -0.8049 at lr 0.1.
    p, v = 0.0, 0.0
    visited = []
    for _ in range(3):
        step, v = _sgd_step(1.0, v, momentum=0.9, nesterov=True)
        p -= 0.1 * step
        visited.append(p)
    assert_allclose(visited, [-0.19, -0.461, -0.8049], rtol=0, atol=1e-14)


def test_sgd_step_plain_momentum_hand_computed():
    p, v = 0.0, 0.0
    visited = []
    for _ in range(3):
        step, v = _sgd_step(1.0, v, momentum=0.9, nesterov=False)
        p -= 0.1 * step
        visited.append(p)
    assert_allclose(visited, [-0.1, -0.29, -0.561], rtol=0, atol=1e-14)


def test_sgd_step_without_momentum_is_plain_descent():
    step, v = _sgd_step(0.37, 0.0, momentum=0.0, nesterov=True)
    assert step == 0.37
    assert v == 0.37


def test_effective_lr_applies_milestones_cumulatively():
    schedule = ((10, 0.1), (20, 0.5))
    assert _effective_lr(0.2, schedule, 9) == 0.2
    assert _effective_lr(0.2, schedule, 10) == 0.2 * 0.1
    assert _effective_lr(0.2, schedule, 25) == 0.2 * 0.1 * 0.5
    assert _effective_lr(0.2, (), 1000) == 0.2


def test_default_schedule_hits_60_and_85_percent():
    assert default_lr_schedule(2000) == ((1200, 0.1), (1700, 0.1))


# ---------------------------------------------------------------------------
# configuration and parameter validation


def test_train_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainConfig(meta_batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(iterations=-1)
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="eval_every"):
        TrainConfig(eval_every=-5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("meta_batch_size", float("nan")),
        ("meta_batch_size", 4.0),
        ("iterations", 1.5),
        ("eval_every", "10"),
        ("seed", True),
    ],
)
def test_train_config_requires_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize(
    "schedule, match",
    [
        (((1.7, 0.1),), "pair (1.7, 0.1)"),
        (((True, 0.1),), "pair (True, 0.1)"),
        (((-3, 0.1),), "pair (-3, 0.1)"),
        (((1, math.nan),), "pair (1, nan)"),
        (((1, math.inf),), "pair (1, inf)"),
        (((1, -0.1),), "pair (1, -0.1)"),
        (((1.7, math.nan), (-3, math.inf)), "pair (1.7, nan)"),
    ],
)
def test_train_config_rejects_bad_lr_schedules(schedule, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        TrainConfig(lr_schedule=schedule)


def test_train_config_normalizes_lr_schedules():
    cfg = TrainConfig(lr_schedule=((np.int64(0), 1), (5, 0.0)))
    assert cfg.lr_schedule == ((0, 1.0), (5, 0.0))
    assert all(type(it) is int and type(m) is float for it, m in cfg.lr_schedule)


def test_train_config_takes_numpy_integers():
    cfg = TrainConfig(meta_batch_size=np.int64(2), iterations=np.int32(3))
    assert (cfg.meta_batch_size, cfg.iterations) == (2, 3)


def test_meta_params_validation():
    net = init_embedding([3], seed=0)
    with pytest.raises(ValueError):
        MetaParams(np.zeros((2, 2, 2)), net, 0.0)
    with pytest.raises(ValueError):
        MetaParams(np.zeros((2, 4)), net, 0.0)
    with pytest.raises(ValueError):
        MetaParams(np.zeros((2, 3)), net, float("inf"))
    # exp(1000) overflows a float, so the cap must be checked on log T.
    for log_T in (math.log(101.0), 1000.0, np.nextafter(LOG_T_MAX, np.inf)):
        with pytest.raises(ValueError, match="hard cap 100"):
            MetaParams(np.zeros((2, 3)), net, log_T)
    meta = MetaParams(np.zeros((2, 3)), net, math.log(0.5))
    assert meta.way == 2
    assert meta.T == pytest.approx(0.5, rel=1e-15)


def test_reported_T_is_the_T_the_flow_integrated_to(monkeypatch):
    # A log T at which math.exp and np.exp round differently, so a T taken
    # from another exp than the flow's would show in the last place.
    rng = np.random.default_rng(0)
    candidates = [1.81418496680718, *rng.uniform(-3.0, 2.0, 1000)]
    log_T = next(x for x in candidates if math.exp(x) != np.exp(x))
    assert math.exp(log_T) != float(np.exp(log_T))
    ends = []
    real = comln.dynamics.integrate

    def spy(rhs, y0, t0, t1, solver):
        ends.append(t1)
        return real(rhs, y0, t0, t1, solver)

    monkeypatch.setattr(comln.dynamics, "integrate", spy)
    initial = MetaParams(np.zeros((2, 3)), init_embedding([3], seed=0), log_T)
    out, metrics = meta_train(
        flat_train_config(lr=0.0, solver=SolverConfig()),
        episode_batch(1, seed=4),
        initial=initial,
    )
    assert ends == [initial.T]
    assert metrics[0].T == ends[0] == out.T


def test_default_meta_params_start_state():
    meta = default_meta_params(4, 7, seed=3)
    assert_array_equal(meta.W0, np.zeros((4, 7)))
    assert meta.phi_params.layers == ()
    assert meta.T == pytest.approx(INITIAL_T, rel=1e-15)


# ---------------------------------------------------------------------------
# the outer loop


def test_zero_learning_rate_keeps_parameters_fixed():
    episodes = episode_batch(4)
    initial = default_meta_params(2, 3)
    out, metrics = meta_train(
        flat_train_config(lr=0.0, iterations=2, meta_batch_size=2),
        episodes,
        initial=initial,
    )
    assert_array_equal(out.W0, initial.W0)
    assert out.log_T == initial.log_T
    assert len(metrics) == 2


def test_zero_iterations_return_initial_untouched():
    initial = default_meta_params(2, 3)
    out, metrics = meta_train(flat_train_config(iterations=0), [], initial=initial)
    assert out is initial
    assert metrics == []


def test_single_step_is_exact_descent():
    episodes = episode_batch(1, seed=5)
    rng = np.random.default_rng(5)
    initial = MetaParams(
        rng.normal(size=(2, 3)) * 0.3, init_embedding([3], seed=0), math.log(0.05)
    )
    bundle = task_metagrads(initial, episodes[0], LAM0, EULER)
    out, metrics = meta_train(flat_train_config(lr=0.05), episodes, initial=initial)
    assert_array_equal(out.W0, initial.W0 - 0.05 * bundle.grad_W0)
    # The chain rule through log T: dL/dlog T = T dL/dT.
    grad_logT = initial.T * bundle.grad_T
    expected_logT = initial.log_T - 0.05 * grad_logT
    assert out.log_T == expected_logT
    row = metrics[0]
    assert row.iteration == 0
    assert row.T == float(np.exp(expected_logT))
    assert row.outer_loss == bundle.outer_loss
    assert row.test_accuracy == bundle.test_accuracy
    assert row.grad_norm_W0 == float(np.linalg.norm(bundle.grad_W0))
    assert row.grad_norm_embedding == 0.0
    assert row.grad_norm_logT == abs(grad_logT)
    assert row.alignment == bundle.diag_alignment
    assert row.wall_time >= 0.0


def test_meta_batch_gradients_are_averaged():
    episodes = episode_batch(2, seed=6)
    initial = default_meta_params(2, 3)
    bundles = [task_metagrads(initial, ep, LAM0, EULER) for ep in episodes]
    out, _ = meta_train(
        flat_train_config(lr=0.1, meta_batch_size=2), episodes, initial=initial
    )
    mean_grad = (bundles[0].grad_W0 + bundles[1].grad_W0) / 2
    assert_array_equal(out.W0, initial.W0 - 0.1 * mean_grad)


def test_metrics_sum_solver_counts_over_the_meta_batch():
    episodes = episode_batch(2, seed=6)
    initial = default_meta_params(2, 3)
    cfg = flat_train_config(meta_batch_size=2)
    bundles = [task_metagrads(initial, ep, LAM0, cfg.solver) for ep in episodes]
    _, metrics = meta_train(cfg, episodes, initial=initial)
    # Euler at step 0.01 over T = 0.05: five evaluations per task.
    assert [b.rhs_evals for b in bundles] == [5, 5]
    assert metrics[0].rhs_evals == 10
    assert metrics[0].rejected_steps == 0


def test_metrics_record_the_largest_task_evaluation_count():
    # dopri5 at T = 1: each task of the meta-batch of three takes its own
    # steps, and the row records the largest count beside the sum.
    episodes = episode_batch(3, seed=6)
    start = default_meta_params(2, 3)
    initial = MetaParams(start.W0, start.phi_params, 0.0)
    cfg = flat_train_config(meta_batch_size=3, solver=SolverConfig())
    bundles = [task_metagrads(initial, ep, LAM0, cfg.solver) for ep in episodes]
    _, metrics = meta_train(cfg, episodes, initial=initial)
    assert [b.rhs_evals for b in bundles] == [67, 55, 55]
    assert metrics[0].max_rhs_evals == 67
    assert metrics[0].rhs_evals == 177


def test_metrics_record_the_largest_stiffness_of_the_meta_batch():
    episodes = episode_batch(2, seed=6)
    initial = default_meta_params(2, 3)
    cfg = flat_train_config(meta_batch_size=2, solver=SolverConfig())
    bundles = [task_metagrads(initial, ep, LAM0, cfg.solver) for ep in episodes]
    _, metrics = meta_train(cfg, episodes, initial=initial)
    assert bundles[0].stiffness != bundles[1].stiffness
    assert metrics[0].stiffness == max(b.stiffness for b in bundles)


def test_empty_stream_is_rejected():
    with pytest.raises(ValueError, match="empty"):
        meta_train(flat_train_config(), [])


def test_exhausted_stream_names_the_iteration():
    episodes = episode_batch(1)
    initial = default_meta_params(2, 3)
    with pytest.raises(ValueError, match="exhausted at iteration 0"):
        meta_train(
            flat_train_config(meta_batch_size=2), episodes, initial=initial
        )


def test_failing_task_reports_iteration_and_index():
    good = episode_batch(1, seed=7)[0]
    bad = episode_batch(1, seed=7, input_dim=4)[0]
    initial = default_meta_params(2, 3)
    with pytest.raises(RuntimeError, match=r"iteration 0, task 1"):
        meta_train(
            flat_train_config(meta_batch_size=2),
            [good, bad],
            initial=initial,
        )


def test_log_t_max_constructs_valid_parameters():
    import math

    from comln.dynamics import DEFAULT_T_CAP

    assert math.exp(LOG_T_MAX) <= DEFAULT_T_CAP
    meta = MetaParams(np.zeros((2, 3)), init_embedding([3], seed=0), LOG_T_MAX)
    assert meta.T <= DEFAULT_T_CAP


def test_overshooting_horizon_update_parks_at_the_cap():
    # At T = 0.05 this instance's train and test gradients align, so the
    # horizon gradient pushes T up; a huge learning rate overshoots the
    # cap and the projection lands exactly on LOG_T_MAX.
    cfg = TaskGenConfig(way=3, shot=1, test_shots=2, input_dim=5, seed=21)
    rng = np.random.default_rng(21)
    initial = MetaParams(
        rng.normal(size=(3, 5)) * 0.2, init_embedding([5], seed=0), math.log(0.05)
    )
    out, metrics = meta_train(
        flat_train_config(
            lr=10000.0,
            solver=SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8),
        ),
        [sample_episode(cfg, 0)],
        initial=initial,
    )
    assert metrics[0].alignment > 0
    assert out.log_T == LOG_T_MAX


def test_horizon_stays_positive_through_training():
    episodes = episode_batch(12, seed=8)
    out, metrics = meta_train(
        flat_train_config(
            lr=1.0, momentum=0.9, nesterov=True, iterations=6, meta_batch_size=2
        ),
        episodes,
    )
    assert out.T > 0.0
    assert all(row.T > 0.0 for row in metrics)


def layer_arrays(meta):
    return [a for l in meta.phi_params.layers for a in (l.weight, l.bias)]


def test_nesterov_steps_on_an_mlp_match_a_per_array_reference(monkeypatch):
    seen = []
    real = comln.trainer.batch_metagrads

    def spy(meta, batch, loss_cfg, solver):
        bundles = real(meta, batch, loss_cfg, solver)
        if not seen:
            # Push log T past the cap so that the projection engages: the
            # log-T gradient T grad_T is about -10.
            bundles = [dataclasses.replace(b, grad_T=-10.0 / meta.T) for b in bundles]
        seen.append((meta, bundles))
        return bundles

    monkeypatch.setattr(comln.trainer, "batch_metagrads", spy)
    task_cfg = TaskGenConfig(way=5, shot=1, input_dim=16, seed=12)
    episodes = [sample_episode(task_cfg, i) for i in range(8)]
    initial = default_meta_params(5, 16, seed=12, hidden_dims=(8, 6))
    initial = MetaParams(initial.W0, initial.phi_params, LOG_T_MAX - 0.5)
    cfg = flat_train_config(
        iterations=4,
        meta_batch_size=2,
        momentum=0.9,
        nesterov=True,
        lr_schedule=((2, 0.1),),
        lam=0.5,
        solver=SolverConfig(),
    )
    out, _ = meta_train(cfg, episodes, initial=initial)
    assert len(seen) == cfg.iterations

    # Each array and log T on its own: v = m v + g, then p -= lr (g + m v).
    m = cfg.momentum
    params = [initial.W0, *layer_arrays(initial)]
    velocity = [np.zeros_like(p) for p in params]
    log_T, vel_T = initial.log_T, 0.0
    clamped = 0
    for k, (meta, bundles) in enumerate([*seen, (out, None)]):
        for got, want in zip([meta.W0, *layer_arrays(meta)], params, strict=True):
            assert_array_equal(got, want)
        assert meta.log_T == log_T
        if bundles is None:
            break
        lr = cfg.lr * (0.1 if k >= 2 else 1.0)
        grads = [
            [b.grad_W0, *(a for pair in b.grad_embedding for a in pair)]
            for b in bundles
        ]
        for i in range(len(params)):
            g = sum(gs[i] for gs in grads) / len(bundles)
            velocity[i] = m * velocity[i] + g
            params[i] = params[i] - lr * (g + m * velocity[i])
        g_T = sum(meta.T * b.grad_T for b in bundles) / len(bundles)
        vel_T = m * vel_T + g_T
        log_T = log_T - lr * (g_T + m * vel_T)
        clamped += log_T > LOG_T_MAX
        log_T = min(log_T, LOG_T_MAX)
    assert clamped >= 1
    assert [l.activation for l in out.phi_params.layers] == ["relu", "identity"]


def test_metrics_row_field_order():
    assert MetricsRow.FIELDS[0] == "iteration"
    assert MetricsRow.FIELDS[-1] == "wall_time"
    counts = ("rhs_evals", "max_rhs_evals", "rejected_steps")
    assert MetricsRow.FIELDS[-4:-1] == counts
    values = [3, 0.5, 0.75, 0.05, 1.0, 0.0, 0.1, 0.2, 1.5, 43, 17, 2, 0.01]
    assert MetricsRow(*values).as_row() == values


# ---------------------------------------------------------------------------
# evaluation


def test_meta_test_breaks_ties_toward_the_lowest_class():
    # Zero features freeze adaptation and zero every logit, so argmax
    # falls back to class 0 on all test points.
    train = EmbeddedSet(np.zeros((2, 3)), np.eye(2))
    test = EmbeddedSet(
        np.zeros((4, 3)),
        np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
    )
    episode = Episode(train=train, test=test, way=2, shot=1)
    meta = default_meta_params(2, 3)
    accuracy, loss = meta_test(meta, episode, LAM0, EULER)
    assert accuracy == 0.5
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)


def test_meta_test_agrees_with_tracked_evaluation():
    episode = episode_batch(1, seed=9)[0]
    rng = np.random.default_rng(9)
    meta = MetaParams(
        rng.normal(size=(2, 3)) * 0.3, init_embedding([3], seed=0), math.log(0.3)
    )
    bundle = task_metagrads(meta, episode, LAM0, RK4)
    accuracy, loss = meta_test(meta, episode, LAM0, RK4)
    assert accuracy == bundle.test_accuracy
    assert loss == bundle.outer_loss


def embed_adapt_score(meta, episode, cfg, solver):
    """The reference: embed both splits, adapt one episode alone, untracked,
    then take the argmax accuracy and the outer loss."""
    phi_train, _ = embed_set(meta.phi_params, episode.train.features)
    phi_test, _ = embed_set(meta.phi_params, episode.test.features)
    W_T, _, _ = comln.dynamics.adapt(
        meta.W0, phi_train, episode.train.labels, cfg, meta.T, solver, track=False
    )
    predictions = np.argmax(phi_test @ W_T.T, axis=1)
    accuracy = float(np.mean(predictions == np.argmax(episode.test.labels, axis=1)))
    return accuracy, outer_loss(W_T, EmbeddedSet(phi_test, episode.test.labels))


@pytest.mark.parametrize(
    "solver",
    [
        SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8),
        SolverConfig(method="euler", fixed_step=0.01),
    ],
    ids=["dopri5", "euler"],
)
def test_meta_test_equals_embed_adapt_score(solver):
    base = default_meta_params(5, 16, seed=0, hidden_dims=(64, 32))
    W0 = np.random.default_rng(5).normal(size=base.W0.shape) * 0.1
    meta = MetaParams(W0, base.phi_params, math.log(20.0))
    cfg = LossConfig(lam=0.5)
    for i in range(4):
        episode = sample_episode(TaskGenConfig(seed=6), i)
        expected = embed_adapt_score(meta, episode, cfg, solver)
        assert meta_test(meta, episode, cfg, solver) == expected


def test_meta_test_raises_a_dimension_mismatch_itself():
    episode = episode_batch(1)[0]
    with pytest.raises(DimensionMismatchError, match="do not have input_dim 4"):
        meta_test(default_meta_params(2, 4), episode, LAM0, EULER)
    net = init_embedding([3], seed=0)
    with pytest.raises(DimensionMismatchError, match="W0 has shape"):
        meta_test(MetaParams(np.zeros((3, 3)), net, 0.0), episode, LAM0, EULER)


# ---------------------------------------------------------------------------
# checkpoints


def mlp_meta(seed=11):
    rng = np.random.default_rng(seed)
    net = init_embedding([3, 5, 4], seed=seed, hidden_activation="tanh")
    W0 = rng.normal(size=(2, 4)) * 0.3
    return MetaParams(W0, net, math.log(0.05) * 1.37)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    meta = mlp_meta()
    path = str(tmp_path / "ck.bin")
    save_checkpoint(meta, path)
    back = load_checkpoint(path)
    assert_array_equal(back.W0, meta.W0)
    assert back.log_T == meta.log_T
    assert len(back.phi_params.layers) == 2
    for got, want in zip(back.phi_params.layers, meta.phi_params.layers):
        assert_array_equal(got.weight, want.weight)
        assert_array_equal(got.bias, want.bias)
        assert got.activation == want.activation


def test_numpy_scalar_horizon_survives_the_checkpoint(tmp_path):
    meta = MetaParams(np.zeros((2, 3)), init_embedding([3], seed=0), np.log(0.05))
    assert type(meta.log_T) is float
    path = str(tmp_path / "ck.bin")
    save_checkpoint(meta, path)
    assert load_checkpoint(path).log_T == meta.log_T


def test_checkpoint_header_layout(tmp_path):
    rng = np.random.default_rng(12)
    meta = MetaParams(
        rng.normal(size=(2, 4)) * 0.1,
        init_embedding([3, 4], seed=0),
        math.log(0.05),
    )
    path = str(tmp_path / "ck.bin")
    save_checkpoint(meta, path)
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n", 3)
    assert lines[0] == b"COMLN-CKPT v1"
    assert lines[1].startswith(b"N 2 d 4 log_T ")
    assert lines[2] == b"layers 3->4:identity"
    assert len(lines[3]) == 8 * (2 * 4 + 3 * 4 + 4)


def test_identity_backbone_checkpoint_uses_dash(tmp_path):
    meta = default_meta_params(3, 5)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(meta, path)
    with open(path, "rb") as fh:
        assert fh.read().split(b"\n")[2] == b"layers -"
    back = load_checkpoint(path)
    assert back.phi_params.layers == ()
    assert back.phi_params.input_dim == 5


def write_raw(tmp_path, blob):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


def test_checkpoint_rejects_unknown_magic(tmp_path):
    path = write_raw(tmp_path, b"COMLN-CKPT v2\nN 2 d 3 log_T 0.0\nlayers -\n" + b"\0" * 48)
    with pytest.raises(VersionMismatchError, match="expected"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_header(tmp_path):
    path = write_raw(tmp_path, b"COMLN-CKPT v1\nN 2 d 3")
    with pytest.raises(VersionMismatchError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_payload_size(tmp_path):
    payload = np.zeros(5, dtype="<f8").tobytes()
    path = write_raw(
        tmp_path, b"COMLN-CKPT v1\nN 2 d 3 log_T 0.0\nlayers -\n" + payload
    )
    with pytest.raises(VersionMismatchError, match="payload"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_finite_values(tmp_path):
    values = np.zeros(6)
    values[4] = np.nan
    path = write_raw(
        tmp_path,
        b"COMLN-CKPT v1\nN 2 d 3 log_T 0.0\nlayers -\n"
        + values.astype("<f8").tobytes(),
    )
    with pytest.raises(CorruptPayloadError):
        load_checkpoint(path)


def test_checkpoint_rejects_non_finite_horizon(tmp_path):
    payload = np.zeros(6, dtype="<f8").tobytes()
    path = write_raw(
        tmp_path, b"COMLN-CKPT v1\nN 2 d 3 log_T nan\nlayers -\n" + payload
    )
    with pytest.raises(CorruptPayloadError, match="log_T"):
        load_checkpoint(path)


def test_checkpoint_with_log_T_past_the_cap_is_a_version_mismatch(tmp_path):
    payload = np.zeros(6, dtype="<f8").tobytes()
    path = write_raw(
        tmp_path, b"COMLN-CKPT v1\nN 2 d 3 log_T 1000.0\nlayers -\n" + payload
    )
    with pytest.raises(VersionMismatchError, match="cap"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_layer_tokens(tmp_path):
    payload = np.zeros(6, dtype="<f8").tobytes()
    path = write_raw(
        tmp_path,
        b"COMLN-CKPT v1\nN 2 d 3 log_T 0.0\nlayers 3->x:relu\n" + payload,
    )
    with pytest.raises(VersionMismatchError, match="layer token"):
        load_checkpoint(path)


def test_checkpoint_rejects_layer_dim_conflict(tmp_path):
    payload = np.zeros(100, dtype="<f8").tobytes()
    path = write_raw(
        tmp_path,
        b"COMLN-CKPT v1\nN 2 d 3 log_T 0.0\nlayers 3->5:identity\n" + payload,
    )
    with pytest.raises(VersionMismatchError, match="emits"):
        load_checkpoint(path)


def test_training_writes_checkpoints_on_schedule(tmp_path):
    episodes = episode_batch(4, seed=13)
    path = str(tmp_path / "ck.bin")
    out, _ = meta_train(
        flat_train_config(
            iterations=2,
            meta_batch_size=2,
            eval_every=1,
            checkpoint_path=path,
        ),
        episodes,
    )
    back = load_checkpoint(path)
    assert_array_equal(back.W0, out.W0)
    assert back.log_T == out.log_T


def test_momentum_free_resume_is_bit_identical(tmp_path):
    episodes = episode_batch(16, seed=14)
    initial = default_meta_params(2, 3, hidden_dims=(4,))
    cfg4 = flat_train_config(iterations=4, meta_batch_size=2, lr=0.1)
    straight, _ = meta_train(cfg4, episodes, initial=initial)

    cfg2 = flat_train_config(iterations=2, meta_batch_size=2, lr=0.1)
    half, _ = meta_train(cfg2, episodes[:4], initial=initial)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(half, path)
    resumed, _ = meta_train(cfg2, episodes[4:8], initial=load_checkpoint(path))

    assert_array_equal(resumed.W0, straight.W0)
    assert resumed.log_T == straight.log_T
    for got, want in zip(resumed.phi_params.layers, straight.phi_params.layers):
        assert_array_equal(got.weight, want.weight)
        assert_array_equal(got.bias, want.bias)
