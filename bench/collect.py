"""Run the benchmark over several seeds and summarize the spread of each metric.

    python3 bench/collect.py --workloads train-5w1s,eval-5w1s --seeds 0-9 \
        --seconds 20 --trace 0 --out results.json

Runs ``run.py`` once per (workload, seed), one at a time, and reports for
every metric the median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
The output file holds every run's result line, with the wall-clock figures
of its text lines under ``wall_clock``, next to that summary and the host
lines of the first run.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WALL_CLOCK = re.compile(r"^(tasks_per_s|op_p50_ms|op_p90_ms|fail_ratio) (\S+)", re.M)


def parse_seeds(text: str) -> list:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summarize(results: list) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (0, 0, 0)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "min": min(values),
            "max": max(values),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    report = {"seconds": float(args.seconds), "trace": int(args.trace), "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            began = time.perf_counter()
            child = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True,
            )
            wall = time.perf_counter() - began
            lines = child.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"], result["wall_s"] = seed, wall
            result["wall_clock"] = {
                k: float(v) for k, v in WALL_CLOCK.findall(child.stdout)
            }
            report.setdefault(
                "host", [l for l in lines if l.startswith(("# host", "# python"))]
            )
            results.append(result)
            status = max(status, child.returncode)
            print(f"{workload} seed {seed}: exit {child.returncode}, wall {wall:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()
                              if k in ("tasks_per_ref_s", "peak_rss_mb", "setup_s")),
                  flush=True)
        summary = summarize(results)
        report["workloads"][workload] = {"summary": summary, "runs": results}
        for name, s in summary.items():
            print(f"  {name}: median {s['median']:.6g} {s['unit']}, IQR/median {s['iqr_share']:.4f}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
