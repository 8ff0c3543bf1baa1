"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import comln.cli as cli
import comln.dynamics
import comln.oracles
from comln.tasks import TaskGenConfig, load_episodes, sample_episode
from comln.trainer import INITIAL_T, load_checkpoint


def write_config(tmp_path, name="config.json", **sections):
    payload = {
        "tasks": {"way": 2, "shot": 1, "test_shots": 2, "input_dim": 3, "seed": 0},
        "solver": {"method": "euler", "fixed_step": 0.01},
        "train": {
            "iterations": 2,
            "meta_batch_size": 2,
            "lr": 0.05,
            "momentum": 0.0,
            "nesterov": False,
            "lr_schedule": [],
            "eval_every": 1,
        },
    }
    payload.update(sections)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# train


def test_train_writes_run_artifacts(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "trained 2 iterations" in stdout

    rows = read_csv(out / "metrics.csv")
    assert rows[0] == list(cli.MetricsRow.FIELDS)
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["0", "1"]

    meta = load_checkpoint(str(out / "checkpoint.bin"))
    assert meta.way == 2
    assert meta.T > 0

    resolved = json.loads((out / "resolved_config.json").read_text())
    assert set(resolved) == {"tasks", "loss", "solver", "train"}
    assert resolved["train"]["iterations"] == 2
    assert resolved["loss"]["lam"] == 0.0
    assert "lam" not in resolved["train"]
    assert "solver" not in resolved["train"]


@pytest.mark.parametrize(
    "solver", [{"method": "euler", "fixed_step": 0.01}, {"method": "dopri5"}]
)
def test_metrics_csv_records_the_stiffness_estimate(tmp_path, solver):
    config = write_config(tmp_path, solver=solver)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
    header, *rows = read_csv(out / "metrics.csv")
    column = [float(row[header.index("stiffness")]) for row in rows]
    # Only dopri5 estimates it; euler leaves it at zero.
    if solver["method"] == "dopri5":
        assert all(value > 0.0 for value in column)
    else:
        assert column == [0.0, 0.0]


def test_train_zero_iterations_writes_initial_state(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    code = cli.main(
        ["train", "--config", config, "--out", str(out), "--iterations", "0"]
    )
    assert code == 0
    rows = read_csv(out / "metrics.csv")
    assert rows == [list(cli.MetricsRow.FIELDS)]
    meta = load_checkpoint(str(out / "checkpoint.bin"))
    assert_array_equal(meta.W0, np.zeros((2, 3)))
    assert meta.T == pytest.approx(INITIAL_T, rel=1e-15)


def test_train_missing_config_names_the_path(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.json")
    assert cli.main(["train", "--config", missing, "--out", str(tmp_path / "r")]) == 2
    assert missing in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, train={"iterations": 1, "bogus": 5})
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 2
    assert "train.bogus" in capsys.readouterr().err


def test_unknown_config_section_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"extras": {}}))
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert "extras" in capsys.readouterr().err


def test_train_section_rejects_loss_and_solver_keys(tmp_path, capsys):
    config = write_config(tmp_path, train={"iterations": 1, "lam": 0.5})
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 2
    assert "train.lam" in capsys.readouterr().err


def test_set_overrides_are_applied_and_echoed(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    code = cli.main(
        [
            "train",
            "--config",
            config,
            "--out",
            str(out),
            "--set",
            "train.lr=0.25",
            "--set",
            "loss.lam=0.1",
            "--set",
            "train.iterations=1",
        ]
    )
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["train"]["lr"] == 0.25
    assert resolved["loss"]["lam"] == 0.1
    assert len(read_csv(out / "metrics.csv")) == 2


def test_malformed_and_unknown_overrides_exit_2(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "r")
    assert cli.main(["train", "--config", config, "--out", out, "--set", "train.lr"]) == 2
    assert cli.main(
        ["train", "--config", config, "--out", out, "--set", "train.nope=1"]
    ) == 2
    err = capsys.readouterr().err
    assert "train.lr" in err
    assert "train.nope" in err


def test_lr_schedule_override_is_normalized_or_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    base = ["train", "--config", config, "--out", str(out), "--set"]
    assert cli.main(base + ["train.lr_schedule=[[1, 1]]"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["train"]["lr_schedule"] == [[1, 1.0]]
    assert cli.main(base + ["train.lr_schedule=[[1]]"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "schedule", ["[[0, NaN]]", "[[1.7, 0.1]]", "[[-3, 0.1]]", "[[1, Infinity]]"]
)
def test_bad_lr_schedule_exits_2_before_training(tmp_path, capsys, schedule):
    out = tmp_path / "run"
    argv = ["train", "--config", write_config(tmp_path), "--out", str(out)]
    assert cli.main(argv + ["--set", f"train.lr_schedule={schedule}"]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("train", ["loss.lam=NaN"]),
        ("train", ["loss.lam=Infinity"]),
        ("train", ['solver.method="euler"', "solver.fixed_step=NaN"]),
        ("train", ["train.lr=NaN"]),
        ("train", ["solver.rtol=Infinity"]),
        ("train", ["solver.atol=NaN"]),
        ("gen-tasks", ["tasks.noise_std=NaN"]),
        ("gen-tasks", ["tasks.class_spread=Infinity"]),
        # Negative seeds ended in a ValueError traceback from numpy's
        # generator, or in "training failed" and exit 1.
        ("train", ["train.seed=-1"]),
        ("train", ["tasks.seed=-1"]),
        ("gen-tasks", ["tasks.seed=-3"]),
        # A bool for a real setting ran it at 1.0 or 0.0, and any string
        # for nesterov, "no" included, turned Nesterov momentum on.
        ("train", ["solver.rtol=true"]),
        ("train", ["loss.lam=true"]),
        ("train", ["train.lr=true"]),
        ("train", ["train.nesterov=no"]),
        ("gen-tasks", ["tasks.noise_std=false"]),
        # Was kept and read as 0, no checkpoints, without a word.
        ("train", ["train.eval_every=-1"]),
    ],
)
def test_non_finite_settings_exit_2(tmp_path, capsys, command, overrides):
    out = str(tmp_path / ("run" if command == "train" else "x.ep"))
    argv = [command, "--config", write_config(tmp_path), "--out", out]
    for pair in overrides:
        argv += ["--set", pair]
    assert cli.main(argv) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        "train.meta_batch_size=NaN",
        "train.iterations=1.5",
        "train.eval_every=2.0",
        "train.seed=true",
        "solver.max_evals=NaN",
        "solver.max_evals=2.5",
        "solver.max_evals=true",
        "tasks.way=2.5",
        "tasks.shot=1.0",
        "tasks.seed=0.5",
    ],
)
def test_non_integer_counts_exit_2(tmp_path, capsys, override):
    # Each passed the old comparisons and died in meta_train with a TypeError,
    # or, for a NaN budget, trained with no budget at all.
    out = str(tmp_path / "run")
    argv = ["train", "--config", write_config(tmp_path), "--out", out]
    assert cli.main(argv + ["--set", override]) == 2
    name = override.split("=")[0].split(".")[1]
    message = f"invalid configuration: {name} must be an integer"
    assert message in capsys.readouterr().err


def test_reruns_are_deterministic_apart_from_wall_time(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", config, "--out", str(out1)]) == 0
    assert cli.main(["train", "--config", config, "--out", str(out2)]) == 0
    lines1 = (out1 / "metrics.csv").read_text().splitlines()
    lines2 = (out2 / "metrics.csv").read_text().splitlines()
    assert len(lines1) == len(lines2)
    for a, b in zip(lines1, lines2):
        assert a.rsplit(",", 1)[0] == b.rsplit(",", 1)[0]
    ck1 = (out1 / "checkpoint.bin").read_bytes()
    ck2 = (out2 / "checkpoint.bin").read_bytes()
    assert ck1 == ck2


def test_resolved_config_is_itself_a_valid_config(tmp_path):
    config = write_config(tmp_path)
    out1 = tmp_path / "a"
    assert cli.main(["train", "--config", config, "--out", str(out1)]) == 0
    out2 = tmp_path / "b"
    code = cli.main(
        [
            "train",
            "--config",
            str(out1 / "resolved_config.json"),
            "--out",
            str(out2),
        ]
    )
    assert code == 0
    first = json.loads((out1 / "resolved_config.json").read_text())
    second = json.loads((out2 / "resolved_config.json").read_text())
    first["train"].pop("checkpoint_path")
    second["train"].pop("checkpoint_path")
    assert first == second


def test_missing_subcommand_is_a_usage_error():
    assert cli.main([]) == 2


# ---------------------------------------------------------------------------
# grad-check


def test_grad_check_single_seed_prints_one_row_per_component(capsys):
    assert cli.main(["grad-check", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    lines = out.splitlines()
    component_rows = [
        l for l in lines if l.split() and l.split()[0] in cli._CHECK_COMPONENTS
    ]
    assert len(component_rows) == len(cli._CHECK_COMPONENTS)
    for row in component_rows:
        assert row.rstrip().endswith("ok")


def test_grad_check_catches_a_planted_sign_error(capsys, monkeypatch):
    # Flips the horizon gradient of the two bundles grad-check takes from
    # task_metagrads, the flow and the stepped one, and none of its oracles.
    exact = cli.task_metagrads

    def flip_horizon_gradient(*args, **kwargs):
        bundle = exact(*args, **kwargs)
        return dataclasses.replace(bundle, grad_T=-bundle.grad_T)

    monkeypatch.setattr(cli, "task_metagrads", flip_horizon_gradient)
    assert cli.main(["grad-check", "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "component T" in out
    assert "seed 0" in out


def test_grad_check_rejects_zero_seeds(capsys):
    assert cli.main(["grad-check", "--seeds", "0"]) == 2
    assert "--seeds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_memory_table(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = cli.main(
        [
            "bench",
            "--mode",
            "memory",
            "--horizons",
            "steps=10,steps=100,T=1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == list(cli._BENCH_HEADER)
    body = rows[1:]
    assert len(body) == 9
    flow_bytes = {
        r[4] for r in body if r[0] in ("comln-euler", "comln-dopri5")
    }
    assert len(flow_bytes) == 1
    bptt = {r[1]: int(r[4]) for r in body if r[0] == "bptt"}
    assert bptt["steps=100"] > 5 * bptt["steps=10"]
    assert bptt["steps=100"] == bptt["T=1"]
    t_for_steps10 = {r[2] for r in body if r[1] == "steps=10"}
    assert t_for_steps10 == {"0.1"}
    assert "state_bytes" in capsys.readouterr().out


def test_bench_memory_rows(tmp_path, monkeypatch):
    # Every column but wall_time; each flow row also projects its state.
    projected = []
    real = cli.projections
    monkeypatch.setattr(
        cli, "projections", lambda *a: projected.append(a) or real(*a)
    )
    out = tmp_path / "bench.csv"
    argv = ["bench", "--mode", "memory", "--horizons", "steps=10,T=1"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert [row[:-1] for row in read_csv(out)[1:]] == [
        ["comln-euler", "steps=10", "0.1", "10", "5760", "10", ""],
        ["comln-dopri5", "steps=10", "0.1", "10", "5760", "13", ""],
        ["bptt", "steps=10", "0.1", "10", "3552", "10", ""],
        ["comln-euler", "T=1", "1.0", "100", "5760", "100", ""],
        ["comln-dopri5", "T=1", "1.0", "100", "5760", "25", ""],
        ["bptt", "T=1", "1.0", "100", "33792", "100", ""],
    ]
    assert len(projected) == 4


def test_bench_integrates_to_the_requested_T(tmp_path, monkeypatch):
    ends = []
    real = comln.dynamics.integrate

    def spy(rhs, y0, t0, t1, solver):
        ends.append(t1)
        return real(rhs, y0, t0, t1, solver)

    monkeypatch.setattr(comln.dynamics, "integrate", spy)
    argv = ["bench", "--mode", "memory", "--horizons", "T=5"]
    assert cli.main(argv + ["--out", str(tmp_path / "bench.csv")]) == 0
    # One euler and one dopri5 flow; 5 round-tripped through its log would
    # end at 4.999999999999999.
    assert ends == [5.0, 5.0]


def test_bench_dopri5_needs_fewer_evaluations_than_euler_here(tmp_path):
    out = tmp_path / "bench.csv"
    assert (
        cli.main(
            ["bench", "--mode", "runtime", "--horizons", "steps=100", "--out", str(out)]
        )
        == 0
    )
    rows = read_csv(out)
    evals = {r[0]: int(r[5]) for r in rows[1:] if r[0].startswith("comln")}
    assert evals["comln-dopri5"] <= evals["comln-euler"]


def test_bench_marks_budget_exceeded_rows(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(
        [
            "bench",
            "--mode",
            "memory",
            "--horizons",
            "steps=10",
            "--budget",
            "5000",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    notes = {r[0]: r[6] for r in rows[1:]}
    assert notes["comln-euler"] == "budget-exceeded"
    assert notes["comln-dopri5"] == "budget-exceeded"
    assert notes["bptt"] == ""


def test_bench_rejects_bad_horizon_tokens(tmp_path, capsys):
    code = cli.main(
        ["bench", "--mode", "memory", "--horizons", "K=10", "--out", str(tmp_path / "b")]
    )
    assert code == 2
    assert "K=10" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["T=nan", "T=inf", "T=-inf", "T=1e308"])
def test_bench_rejects_non_finite_horizons(tmp_path, capsys, token):
    # float() parses these, and each step count would raise converting to int.
    argv = ["bench", "--mode", "memory", "--horizons", token]
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 2
    assert f"horizon {token!r} must be finite" in capsys.readouterr().err


def test_bench_rejects_a_negative_seed(tmp_path, capsys):
    # It ended in a ValueError traceback from numpy's generator.
    argv = ["bench", "--mode", "memory", "--horizons", "steps=10", "--seed", "-1"]
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# adjoint-demo


def test_adjoint_demo_blocks_share_the_time_grid(tmp_path, capsys):
    out = tmp_path / "adjoint.csv"
    code = cli.main(["adjoint-demo", "--samples", "25", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "ratio" in stdout
    rows = read_csv(out)
    assert rows[0] == ["trajectory", "t", "w_0", "w_1"]
    forward = [r for r in rows[1:] if r[0] == "forward"]
    backward = [r for r in rows[1:] if r[0] == "backward"]
    assert len(forward) == len(backward) == 26
    assert [r[1] for r in forward] == [r[1] for r in backward]
    assert forward[0][2:] == ["1.0", "1.0"]


def test_adjoint_demo_near_zero_horizon_is_harmless(tmp_path, capsys):
    out = tmp_path / "adjoint.csv"
    code = cli.main(
        ["adjoint-demo", "--T", "1e-6", "--samples", "5", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    backward = float(stdout.splitlines()[1].split()[-1])
    assert backward <= 1e-9


def test_adjoint_demo_rejects_non_numeric_eigs(tmp_path, capsys):
    code = cli.main(["adjoint-demo", "--eigs", "a,b", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "eigs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--T", "inf"], "horizon T"),
        (["--eigs", "1,inf"], "curvature eigenvalues"),
        # Finite, but the backward run overflows.
        (["--T", "1e308"], "largest eigenvalue x T = inf exceeds 709.78"),
    ],
)
def test_adjoint_demo_rejects_non_finite_settings(tmp_path, capsys, flags, message):
    # Each ended in a traceback from the solver and exit 1.
    out = tmp_path / "x"
    assert cli.main(["adjoint-demo", *flags, "--out", str(out)]) == 2
    assert f"invalid demo settings: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_adjoint_demo_refuses_an_overflowing_run_before_integrating(
    tmp_path, capsys, monkeypatch
):
    # dopri5 crept along at its stability limit for seconds, then overflowed.
    calls = []
    monkeypatch.setattr(comln.oracles, "integrate", lambda *a, **k: calls.append(a))
    out = tmp_path / "x"
    assert cli.main(["adjoint-demo", "--eigs", "1e5,1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid demo settings: largest eigenvalue x T = 500000 exceeds" in err
    assert calls == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# gen-tasks


def test_gen_tasks_round_trip(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "episodes.ep"
    code = cli.main(
        ["gen-tasks", "--config", config, "--out", str(out), "--count", "3"]
    )
    assert code == 0
    assert "wrote 3 episodes" in capsys.readouterr().out
    loaded = list(load_episodes(str(out)))
    cfg = TaskGenConfig(way=2, shot=1, test_shots=2, input_dim=3, seed=0)
    assert len(loaded) == 3
    for i, episode in enumerate(loaded):
        fresh = sample_episode(cfg, i)
        assert_array_equal(episode.train.features, fresh.train.features)
        assert_array_equal(episode.test.labels, fresh.test.labels)


def test_gen_tasks_empty_file_is_valid(tmp_path):
    out = tmp_path / "none.ep"
    assert cli.main(["gen-tasks", "--out", str(out), "--count", "0"]) == 0
    assert list(load_episodes(str(out))) == []


def test_gen_tasks_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.ep", tmp_path / "b.ep"
    for path in (a, b):
        assert cli.main(["gen-tasks", "--out", str(path), "--count", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_tasks_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "no.json")
    code = cli.main(["gen-tasks", "--config", missing, "--out", str(tmp_path / "x.ep")])
    assert code == 2
    assert missing in capsys.readouterr().err
