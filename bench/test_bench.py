"""Tests of the benchmark itself: run with `python -m pytest bench/test_bench.py`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def _result(args, cwd=None):
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    return child, json.loads(child.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    run.import_program()
    import workloads

    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counters_repeat_for_the_same_seed(workload):
    run.import_program()
    from tracer import EXACT_COUNTERS

    counters = []
    for seconds in ("0.5", "1"):
        child, result = _result(
            ["--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", "1"]
        )
        assert child.returncode == 0, child.stderr
        assert result["correct"] and result["failed"] == 0
        assert _units(result) == _names("per_layer")
        counters.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTERS})
    assert counters[0] == counters[1]
    assert counters[0]["solver.rhs_evals"] > 0


def test_a_failed_output_check_fails_the_run(monkeypatch, capsys):
    run.import_program()
    import workloads

    class Broken(workloads.EvalWorkload):
        def check_op(self, result):
            return False

    monkeypatch.setitem(workloads.WORKLOADS, "eval-5w1s", Broken)
    assert run.run_workload("eval-5w1s", 0, 0.2, False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert _units(result) == _names("end_to_end")
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "eval-5w1s", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert child.returncode != 0
    assert child.stdout == ""
