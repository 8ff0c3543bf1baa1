"""Command-line entry point for training, verification, and benchmarks.

Subcommands:

* ``train``         run the outer loop and write metrics, checkpoints,
                    and the fully-resolved configuration to a run
                    directory.
* ``grad-check``    compare the flow-based meta-gradients against the
                    finite-difference and unrolled-backprop oracles and
                    print a per-component error table.
* ``bench``         record tracked state bytes and wall time for the
                    constant-memory path and the unrolling oracle over a
                    list of horizons, as CSV.
* ``adjoint-demo``  integrate a small quadratic flow forward and then
                    backward in time and report how badly the reversal
                    loses the starting point.
* ``gen-tasks``     materialize synthetic episodes to an episode file.

Configuration files are JSON with up to four sections: ``tasks``,
``loss``, ``solver``, and ``train``.  Keys mirror TaskGenConfig,
LossConfig, SolverConfig, and TrainConfig; ``train.lam`` and
``train.solver`` are owned by the ``loss`` and ``solver`` sections and
are therefore not accepted inside ``train``.  Unknown sections or keys
are rejected.  Any value can be overridden on the command line with
``--set section.key=value`` (the value is parsed as JSON when possible,
else taken as a string).

Exit codes: 0 on success, 1 when a check fails or training aborts, 2 on
usage errors such as a missing config file or an unknown key.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import (
    DEFAULT_MEMORY_BUDGET,
    MemoryBudgetError,
    adapt,
)
from .embedding import init_embedding
from .loss import LossConfig
from .metagrad import MetaGradients, projections, task_metagrads
from .oracles import (
    QuadraticSpec,
    adjoint_instability_demo,
    bptt_metagrads,
    finite_diff_metagrads,
    unroll_gradient_descent,
)
from .solver import SolverConfig
from .tasks import TaskGenConfig, episode_stream, sample_episode, write_episodes
from .trainer import (
    MetaParams,
    MetricsRow,
    TrainConfig,
    default_meta_params,
    meta_train,
    save_checkpoint,
)

_STEPS_PER_UNIT_T = 100  # fixed-step size 0.01

_FD_LIMIT = 1e-4
_BPTT_LIMIT = 1e-8


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration plumbing

_SECTIONS = ("tasks", "loss", "solver", "train")
_SECTION_TYPES = {
    "tasks": TaskGenConfig,
    "loss": LossConfig,
    "solver": SolverConfig,
    "train": TrainConfig,
}
# Owned by the loss/solver sections; rejected inside train to keep every
# setting in exactly one place.
_TRAIN_EXCLUDED = ("lam", "solver")


def _section_keys(section: str) -> Tuple[str, ...]:
    names = tuple(f.name for f in dataclasses.fields(_SECTION_TYPES[section]))
    if section == "train":
        names = tuple(n for n in names if n not in _TRAIN_EXCLUDED)
    return names


def load_config_file(path: Optional[str]) -> Dict[str, dict]:
    """Read a JSON config into {section: {key: value}}, validating keys."""
    merged: Dict[str, dict] = {name: {} for name in _SECTIONS}
    if path is None:
        return merged
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for section, body in raw.items():
        if section not in _SECTIONS:
            raise UsageError(
                f"unknown config section {section!r} "
                f"(expected one of {', '.join(_SECTIONS)})"
            )
        if not isinstance(body, dict):
            raise UsageError(f"config section {section!r} must be an object")
        for key in body:
            if key not in _section_keys(section):
                raise UsageError(f"unknown config key {section}.{key}")
        merged[section].update(body)
    return merged


def apply_overrides(config: Dict[str, dict], pairs: Sequence[str]) -> None:
    """Apply --set section.key=value pairs in order."""
    for text in pairs:
        head, sep, value = text.partition("=")
        if not sep:
            raise UsageError(f"override {text!r} is not of the form section.key=value")
        section, dot, key = head.partition(".")
        if not dot or section not in _SECTIONS or key not in _section_keys(section):
            raise UsageError(f"unknown override target {head!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        config[section][key] = parsed


def build_configs(
    config: Dict[str, dict], default_checkpoint: Optional[str] = None
) -> Tuple[TaskGenConfig, LossConfig, SolverConfig, TrainConfig]:
    """Instantiate the four config objects, surfacing bad values as usage errors."""
    try:
        tasks = TaskGenConfig(**config["tasks"])
        loss = LossConfig(**config["loss"])
        solver = SolverConfig(**config["solver"])
        train_kwargs = dict(config["train"])
        if train_kwargs.get("checkpoint_path") is None:
            train_kwargs["checkpoint_path"] = default_checkpoint
        train = TrainConfig(**train_kwargs, lam=loss.lam, solver=solver)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}")
    return tasks, loss, solver, train


def resolved_config_dict(
    tasks: TaskGenConfig,
    loss: LossConfig,
    solver: SolverConfig,
    train: TrainConfig,
) -> Dict[str, dict]:
    """Full final settings, shaped so the result is itself a valid config."""
    train_dict = dataclasses.asdict(train)
    for name in _TRAIN_EXCLUDED:
        train_dict.pop(name)
    return {
        "tasks": dataclasses.asdict(tasks),
        "loss": dataclasses.asdict(loss),
        "solver": dataclasses.asdict(solver),
        "train": train_dict,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# train


def _cmd_train(args) -> int:
    config = load_config_file(args.config)
    apply_overrides(config, args.set)
    if args.iterations is not None:
        config["train"]["iterations"] = args.iterations
    os.makedirs(args.out, exist_ok=True)
    default_checkpoint = os.path.join(args.out, "checkpoint.bin")
    tasks_cfg, loss_cfg, solver_cfg, train_cfg = build_configs(
        config, default_checkpoint
    )

    resolved_path = os.path.join(args.out, "resolved_config.json")
    _write_json(
        resolved_path, resolved_config_dict(tasks_cfg, loss_cfg, solver_cfg, train_cfg)
    )

    initial = default_meta_params(
        tasks_cfg.way, tasks_cfg.input_dim, seed=train_cfg.seed
    )
    try:
        final, metrics = meta_train(
            train_cfg, episode_stream(tasks_cfg), initial=initial
        )
    except (RuntimeError, ValueError) as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 1

    checkpoint_path = train_cfg.checkpoint_path or default_checkpoint
    save_checkpoint(final, checkpoint_path)
    metrics_path = os.path.join(args.out, "metrics.csv")
    _write_csv(metrics_path, MetricsRow.FIELDS, [row.as_row() for row in metrics])

    print(f"trained {len(metrics)} iterations, final T {final.T:.6g}")
    if metrics:
        last = metrics[-1]
        print(
            f"last batch: outer loss {last.outer_loss:.6f}, "
            f"accuracy {last.test_accuracy:.4f}"
        )
    print(f"wrote {metrics_path}")
    print(f"wrote {checkpoint_path}")
    print(f"wrote {resolved_path}")
    return 0


# ---------------------------------------------------------------------------
# grad-check

_CHECK_COMPONENTS = ("W0", "phi_train", "phi_test", "embedding", "T")


def _bundle_components(bundle: MetaGradients) -> Dict[str, np.ndarray]:
    if bundle.grad_embedding:
        embedding = np.concatenate(
            [
                np.concatenate([gw.ravel(), gb.ravel()])
                for gw, gb in bundle.grad_embedding
            ]
        )
    else:
        embedding = np.zeros(0)
    return {
        "W0": bundle.grad_W0.ravel(),
        "phi_train": bundle.grad_phi_train.ravel(),
        "phi_test": bundle.grad_phi_test.ravel(),
        "embedding": embedding,
        "T": np.array([bundle.grad_T]),
    }


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(got - want) / scale)


def _cmd_grad_check(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    config = load_config_file(args.config)
    apply_overrides(config, args.set)
    task_base = dict(way=3, shot=1, test_shots=2, input_dim=5, seed=0)
    task_base.update(config["tasks"])
    try:
        task_cfg = TaskGenConfig(**task_base)
        loss_cfg = LossConfig(**config["loss"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}")

    T = 0.5
    alpha = 1.0 / _STEPS_PER_UNIT_T
    steps = round(T * _STEPS_PER_UNIT_T)
    flow_solver = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-12)
    probe_solver = SolverConfig(method="dopri5", rtol=1e-12, atol=1e-14)
    euler_solver = SolverConfig(method="euler", fixed_step=alpha)

    # Each component's (error vs FD, error vs BPTT, seed), one per seed.
    found = {name: [] for name in _CHECK_COMPONENTS}
    for s in range(args.seeds):
        episode = sample_episode(
            dataclasses.replace(task_cfg, seed=task_cfg.seed + s), 0
        )
        net = init_embedding(
            [task_cfg.input_dim, 4, 4], seed=1000 + s, hidden_activation="tanh"
        )
        rng = np.random.default_rng(2000 + s)
        meta = MetaParams(
            rng.normal(size=(task_cfg.way, net.output_dim)) * 0.3,
            net,
            math.log(T),
        )

        flow = task_metagrads(meta, episode, loss_cfg, flow_solver)
        stepped = task_metagrads(meta, episode, loss_cfg, euler_solver)
        fd = finite_diff_metagrads(meta, episode, loss_cfg, probe_solver, eps=1e-5)
        bptt = bptt_metagrads(meta, episode, loss_cfg, alpha, steps)

        flow_parts = _bundle_components(flow)
        step_parts = _bundle_components(stepped)
        fd_parts = _bundle_components(fd)
        bptt_parts = _bundle_components(bptt)
        for name in _CHECK_COMPONENTS:
            fd_err = _relative_error(flow_parts[name], fd_parts[name])
            bptt_err = _relative_error(step_parts[name], bptt_parts[name])
            found[name].append((fd_err, bptt_err, s))
    # The seed whose errors come nearest their limits; as a strict > would,
    # max keeps the first of equal scores.
    worst = {
        name: max(rows, key=lambda r: max(r[0] / _FD_LIMIT, r[1] / _BPTT_LIMIT))
        for name, rows in found.items()
    }

    print(
        f"gradient check over {args.seeds} seed(s): "
        f"way {task_cfg.way}, shot {task_cfg.shot}, dim {task_cfg.input_dim}, "
        f"T {T:g}, lam {loss_cfg.lam:g}"
    )
    print(f"{'component':<12} {'vs FD':>12} {'vs BPTT':>12} {'limits':>17} status")
    failures: List[str] = []
    for name in _CHECK_COMPONENTS:
        fd_err, bptt_err, seed = worst[name]
        ok = fd_err <= _FD_LIMIT and bptt_err <= _BPTT_LIMIT
        status = "ok" if ok else "FAIL"
        print(
            f"{name:<12} {fd_err:>12.3e} {bptt_err:>12.3e} "
            f"{_FD_LIMIT:>8.0e} /{_BPTT_LIMIT:>7.0e} {status}"
        )
        if not ok:
            against = "FD" if fd_err > _FD_LIMIT else "BPTT"
            err = fd_err if against == "FD" else bptt_err
            limit = _FD_LIMIT if against == "FD" else _BPTT_LIMIT
            failures.append(
                f"component {name} vs {against} exceeded {limit:.0e} "
                f"at seed {seed} (rel err {err:.3e})"
            )
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print("PASS: all gradient components within limits")
    return 0


# ---------------------------------------------------------------------------
# bench


def _parse_horizons(text: str) -> List[Tuple[str, float, int]]:
    horizons = []
    for token in text.split(","):
        token = token.strip()
        if token.startswith("T="):
            body = token[2:]
            try:
                T = float(body)
            except ValueError:
                raise UsageError(f"bad horizon token {token!r}")
            # Also refuses a T whose step count overflows to infinity.
            if not math.isfinite(T * _STEPS_PER_UNIT_T):
                raise UsageError(f"horizon {token!r} must be finite")
            steps = int(round(T * _STEPS_PER_UNIT_T))
        elif token.startswith("steps="):
            body = token[6:]
            try:
                steps = int(body)
            except ValueError:
                raise UsageError(f"bad horizon token {token!r}")
            T = steps / _STEPS_PER_UNIT_T
        else:
            raise UsageError(
                f"horizon token {token!r} must be T=<value> or steps=<count>"
            )
        if T <= 0 or steps <= 0:
            raise UsageError(f"horizon {token!r} must be positive")
        horizons.append((token, float(T), steps))
    if not horizons:
        raise UsageError("--horizons needs at least one token")
    return horizons


_BENCH_HEADER = (
    "method",
    "horizon",
    "T",
    "steps",
    "state_bytes",
    "rhs_evals",
    "note",
    "wall_time",
)


def _cmd_bench(args) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    horizons = _parse_horizons(args.horizons)
    task_cfg = TaskGenConfig(
        way=3, shot=2, test_shots=3, input_dim=8, seed=args.seed
    )
    episode = sample_episode(task_cfg, 0)
    train_set = episode.train
    test_set = episode.test
    rng = np.random.default_rng(args.seed)
    W0 = rng.normal(size=(task_cfg.way, task_cfg.input_dim)) * 0.3
    loss_cfg = LossConfig(lam=0.0)
    alpha = 1.0 / _STEPS_PER_UNIT_T
    bptt_meta = MetaParams(
        W0, init_embedding([task_cfg.input_dim], seed=0), math.log(0.05)
    )

    def flow_row(method: str, solver: SolverConfig, token, T, steps):
        started = time.perf_counter()
        try:
            W_T, state, stats = adapt(
                W0,
                train_set.features,
                train_set.labels,
                loss_cfg,
                T,
                solver,
                track=True,
                t_cap=math.inf,
                memory_budget=args.budget,
            )
        except MemoryBudgetError:
            return [method, token, T, steps, "", "", "budget-exceeded", ""]
        projections(W_T, state.s, state.X, W0, train_set, test_set, loss_cfg)
        wall = time.perf_counter() - started
        return [method, token, T, steps, state.nbytes, stats.rhs_evals, "", wall]

    def bptt_row(token, T, steps):
        n, d = W0.shape
        m = train_set.count
        predicted = 8 * ((steps + 1) * n * d + steps * m * n)
        if predicted > args.budget:
            return ["bptt", token, T, steps, predicted, "", "budget-exceeded", ""]
        tape = unroll_gradient_descent(W0, train_set, loss_cfg, alpha, steps)
        started = time.perf_counter()
        bptt_metagrads(bptt_meta, episode, loss_cfg, alpha, steps)
        wall = time.perf_counter() - started
        return ["bptt", token, T, steps, tape.nbytes, steps, "", wall]

    euler = SolverConfig(method="euler", fixed_step=alpha)
    dopri = SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8)
    rows = []
    for token, T, steps in horizons:
        rows.append(flow_row("comln-euler", euler, token, T, steps))
        rows.append(flow_row("comln-dopri5", dopri, token, T, steps))
        rows.append(bptt_row(token, T, steps))

    _write_csv(args.out, _BENCH_HEADER, rows)

    metric = "state_bytes" if args.mode == "memory" else "wall_time"
    column = _BENCH_HEADER.index(metric)
    print(f"benchmark mode {args.mode} ({metric})")
    print(f"{'method':<14} {'horizon':>12} {metric:>16} note")
    for row in rows:
        value = row[column]
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"{row[0]:<14} {row[1]:>12} {shown:>16} {row[6]}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# adjoint-demo


def _cmd_adjoint_demo(args) -> int:
    try:
        eigenvalues = np.array([float(x) for x in args.eigs.split(",")])
    except ValueError:
        raise UsageError(f"--eigs {args.eigs!r} must be comma-separated numbers")
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    solver = SolverConfig(method="dopri5", rtol=1e-6, atol=1e-8)
    try:
        spec = QuadraticSpec(eigenvalues, np.ones(eigenvalues.size), args.T)
        report = adjoint_instability_demo(spec, solver, samples=args.samples)
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(f"invalid demo settings: {exc}")

    print(f"forward terminal error   {report.forward_err:.6e}")
    print(f"backward recovery error  {report.backward_err:.6e}")
    print(f"backward/forward ratio   {report.ratio:.6e}")

    header = ["trajectory", "t"] + [f"w_{i}" for i in range(eigenvalues.size)]
    rows = []
    for label, states in (
        ("forward", report.w_forward),
        ("backward", report.w_backward),
    ):
        for t, w in zip(report.ts, states):
            rows.append([label, t, *w])
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# gen-tasks


def _cmd_gen_tasks(args) -> int:
    if args.count < 0:
        raise UsageError("--count must be non-negative")
    config = load_config_file(args.config)
    apply_overrides(config, args.set)
    try:
        task_cfg = TaskGenConfig(**config["tasks"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}")
    episodes = [sample_episode(task_cfg, i) for i in range(args.count)]
    write_episodes(args.out, episodes)
    print(
        f"wrote {args.count} episodes to {args.out}: "
        f"way {task_cfg.way}, shot {task_cfg.shot}, "
        f"test_shots {task_cfg.test_shots}, dim {task_cfg.input_dim}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comln",
        description="Few-shot classifier adaptation as a continuous-time flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_set(p):
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )

    train = sub.add_parser("train", help="run meta-training")
    train.add_argument("--config", help="JSON config file")
    train.add_argument("--out", default="run", help="output directory")
    train.add_argument(
        "--iterations", type=int, default=None, help="override train.iterations"
    )
    add_set(train)
    train.set_defaults(func=_cmd_train)

    check = sub.add_parser(
        "grad-check", help="compare meta-gradients against the oracles"
    )
    check.add_argument("--config", help="JSON config file")
    check.add_argument("--seeds", type=int, default=3, help="instances to check")
    add_set(check)
    check.set_defaults(func=_cmd_grad_check)

    bench = sub.add_parser("bench", help="memory and runtime scaling table")
    bench.add_argument("--mode", choices=("memory", "runtime"), required=True)
    bench.add_argument(
        "--horizons",
        required=True,
        help="comma-separated tokens like T=0.5 or steps=100",
    )
    bench.add_argument("--out", default="bench.csv", help="CSV output path")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_MEMORY_BUDGET,
        help="tracked-state byte budget; exceeding rows are marked",
    )
    bench.set_defaults(func=_cmd_bench)

    demo = sub.add_parser(
        "adjoint-demo", help="show reverse-time reconstruction blow-up"
    )
    demo.add_argument("--eigs", default="1,10", help="curvature eigenvalues")
    demo.add_argument("--T", type=float, default=5.0, help="horizon")
    demo.add_argument("--samples", type=int, default=200, help="grid points")
    demo.add_argument("--out", default="adjoint.csv", help="CSV output path")
    demo.set_defaults(func=_cmd_adjoint_demo)

    gen = sub.add_parser("gen-tasks", help="write synthetic episodes to a file")
    gen.add_argument("--config", help="JSON config file")
    gen.add_argument("--out", required=True, help="episode file path")
    gen.add_argument("--count", type=int, default=100, help="episodes to write")
    add_set(gen)
    gen.set_defaults(func=_cmd_gen_tasks)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
