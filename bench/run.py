"""Benchmark of comln's meta-training, per-task meta-gradients and meta-test.

Run from the root of the repository:

    python3 bench/run.py --workload train-5w1s --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen):

    train-5w1s      one op = one meta_train iteration (4 episodes)
    metagrad-10w5s  one op = one task_metagrads call
    eval-5w1s       one op = one meta_test call

Each workload builds its inputs from ``--seed``, sets up several times (the
reported ``setup_s`` is the import time plus the median set-up), then runs
ops back to back for ``--seconds`` and checks every output afterwards.

Times in the result are in reference seconds (see reference.py): each
measured interval is scaled by how fast a fixed kernel, timed between the
ops, ran at that moment, so that the host's own slow and fast periods do
not show up as changes of the program.  With ``--trace 0`` the result holds
``tasks_per_ref_s`` (tasks per reference second), ``peak_rss_mb`` and
``setup_s`` (import time plus the median set-up, in reference seconds).
Text lines above it give the wall-clock ``tasks_per_s``, ``op_p50_ms``,
``op_p90_ms`` (only with ten samples beyond it) and ``fail_ratio``, which
stay out of the result: wall-clock figures swing with the host, and a
healthy run has no failures (``failed`` counts them).  With
``--trace 1`` the run is split in two halves, untraced then traced, and it
prints the per-layer metrics of tracer.py plus the tracing overhead (traced
minus untraced ``tasks_per_s``).  The last line of the output is always one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

``--workload all`` runs each workload in its own process, one after the
other, and exits non-zero if any of them did.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-5w1s", "metagrad-10w5s", "eval-5w1s")
# Set-up runs at least this many times and for at least this long; setup_s
# takes the median run, so a cheap set-up is repeated more often.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# One BLAS thread: no workload got faster with two on a 2-core host, and
# a single thread keeps timings and floating-point results repeatable.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
P90_MIN_BEYOND = 10


@dataclass
class TimedRun:
    latencies: list = field(default_factory=list)
    ref_latencies: list = field(default_factory=list)  # in reference seconds
    outputs: list = field(default_factory=list)
    failed: int = 0
    tasks: int = 0
    errors: list = field(default_factory=list)
    unattributed_s: float = 0.0
    window: Counter = field(default_factory=Counter)

    @property
    def tasks_per_s(self) -> float:
        return self.tasks / sum(self.latencies)

    @property
    def tasks_per_ref_s(self) -> float:
        return self.tasks / sum(self.ref_latencies)


def timed_run(workload, seconds: float, clock, tracer=None) -> TimedRun:
    """Run ops back to back for `seconds`; a traced run also covers the counter window.

    The host clock is sampled before the first op, after the last, and
    between ops at least every REF_EVERY_S; each op's time is converted
    with the two samples around it.
    """
    from reference import REF_EVERY_S

    run = TimedRun()
    min_ops = workload.counter_ops if tracer is not None else 1
    since_sample = []  # index of the clock sample each op follows
    workload.reset()
    clock.sample()
    start = sampled = time.perf_counter()
    while True:
        covered = tracer.attributed_s() if tracer is not None else 0.0
        began = time.perf_counter()
        try:
            output = workload.op()
        except Exception:
            output = None
            run.failed += 1
            run.errors.append(traceback.format_exc())
        ended = time.perf_counter()
        run.latencies.append(ended - began)
        since_sample.append(len(clock.samples) - 1)
        if output is not None:
            run.outputs.append(output)
            run.tasks += workload.tasks_per_op
        if tracer is not None:
            run.unattributed_s += (ended - began) - (tracer.attributed_s() - covered)
            if len(run.latencies) == workload.counter_ops:
                run.window = Counter(tracer.counts)
        if ended - start >= seconds and len(run.latencies) >= min_ops:
            break
        if ended - sampled >= REF_EVERY_S:
            clock.sample()
            sampled = time.perf_counter()
    clock.sample()
    run.ref_latencies = [
        t * clock.factor(i) for t, i in zip(run.latencies, since_sample)
    ]
    return run


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads_in_use() -> str:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def host_lines() -> list:
    import platform

    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# host: nproc {os.cpu_count()}, cpu {cpu}",
        f"# python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}, "
        f"blas threads {blas_threads_in_use()} (OPENBLAS_NUM_THREADS="
        f"{os.environ.get('OPENBLAS_NUM_THREADS')})",
    ]


def import_program():
    """Import comln from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import comln
    except ImportError as exc:
        sys.exit(f"bench: cannot import comln from {SRC}: {exc}")
    if Path(comln.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: comln was imported from {comln.__file__}, not {SRC}")


def end_to_end_metrics(run: TimedRun, setup_s: float) -> dict:
    return {
        "tasks_per_ref_s": (run.tasks_per_ref_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }


def latency_lines(run: TimedRun) -> list:
    n = len(run.latencies)
    lines = [f"op_p50_ms {1e3 * statistics.median(run.latencies):.6g} ms (n={n} ops)"]
    p90 = statistics.quantiles(run.latencies, n=10)[-1] if n >= 2 else run.latencies[0]
    beyond = sum(x > p90 for x in run.latencies)
    if beyond < P90_MIN_BEYOND:
        lines.append(f"# op_p90_ms not reported: {beyond} of {n} ops beyond p90, "
                     f"need {P90_MIN_BEYOND}")
    else:
        lines.append(f"op_p90_ms {1e3 * p90:.6g} ms (n={n} ops, {beyond} beyond)")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    from reference import HostClock
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    imported_s = time.perf_counter() - STARTED

    workload = WORKLOADS[name](seed)
    clock = HostClock(workload.ref_weights)
    clock.sample()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        began = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - began)
        clock.sample()
    ref_setups = [t * clock.factor(i) for i, t in enumerate(setups)]
    ref_imported_s = imported_s / clock.slowdown(0)
    setup_s = ref_imported_s + statistics.median(ref_setups)

    if trace:
        plain = timed_run(workload, seconds / 2, clock)
        with Tracer() as tracer:
            traced = timed_run(workload, seconds / 2, clock, tracer)
        runs = [plain, traced]
    else:
        plain = timed_run(workload, seconds, clock)
        runs = [plain]
        metrics = end_to_end_metrics(plain, setup_s)

    # Output checks, outside the timed region.
    attempted = sum(len(r.latencies) for r in runs)
    failed = 0
    for r in runs:
        bad = sum(not workload.check_op(out) for out in r.outputs)
        failed += r.failed + bad
    try:
        final_error = workload.check_final(runs[-1].outputs)
    except Exception:
        final_error = traceback.format_exc()
    if final_error is not None:
        failed = attempted  # a failed whole-run check puts every op in doubt

    print(f"# workload {name}: {workload.why}")
    print(f"# seed {seed}, seconds {seconds:g}, trace {int(trace)}; {len(setups)} set-ups, "
          f"median {statistics.median(setups):.4f} s, imports {imported_s:.4f} s (wall clock)")
    for line in host_lines():
        print(line)
    for r in runs:
        for error in r.errors[:1]:
            print(error, file=sys.stderr)
    if final_error is not None:
        print(f"# output check failed: {final_error}")

    if trace:
        metrics = layer_metrics(tracer, len(traced.latencies), traced.window)
        metrics.update({
            "tasks.sample_s": (workload.sample_s, "s"),
            "trace.ops": (len(traced.latencies), "count"),
            "trace.overhead_tasks_per_s": (
                traced.tasks_per_ref_s - plain.tasks_per_ref_s, "1/s"
            ),
            "trace.unattributed_s": (traced.unattributed_s / len(traced.latencies), "s/op"),
        })
        print(f"# untraced {plain.tasks_per_ref_s:.4f} tasks/ref-s over {len(plain.latencies)} "
              f"ops, traced {traced.tasks_per_ref_s:.4f} over {len(traced.latencies)} ops; "
              f"exact counters cover the first {workload.counter_ops} traced ops")
    else:
        print(f"# {len(plain.latencies)} ops, {sum(plain.latencies):.3f} s wall clock, "
              f"{sum(plain.ref_latencies):.3f} reference s")
        print(f"tasks_per_s {plain.tasks_per_s:.6g} 1/s (wall clock)")
        for line in latency_lines(plain):
            print(line)
        print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} ops)")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Before numpy is imported anywhere, so its BLAS starts with this count.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)

    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = max(status, child.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
