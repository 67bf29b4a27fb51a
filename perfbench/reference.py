"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py [--seeds 1,...,10] [--seconds RUN_SECONDS]

For every workload it runs run.py once per seed untraced and once traced
(first seed), then train-toy on the first five seeds with one and with two
BLAS threads, in reference seconds and in wall seconds. It prints the median
and quartile spread of every end-to-end metric (the spread is (Q3 - Q1) /
median over the seeds, as statistics.quantiles gives the quartiles), the
largest per-layer self times, and the simulated travel times each seed
reported. The run length defaults to run_seconds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int, threads: int = 1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--blas-threads", str(threads)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    quality = [line.strip() for line in lines if "(simulated, not a metric)" in line]
    return json.loads(lines[-1]), quality


def summary(values) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} (spread {(q3 - q1) / median:.3f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.seconds is None:
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = doc["run_seconds"]

    for name in WORKLOADS:
        values: dict = {}
        for seed in seeds:
            result, quality = bench(name, seed, args.seconds, trace=0)
            print(f"{name} seed {seed}: correct {result['correct']}, "
                  f"{result['attempted']} attempted, {result['failed']} failed; "
                  + "; ".join(quality), flush=True)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: " + ", ".join(f"{m} {summary(v)}" for m, v in values.items()))
        traced, _ = bench(name, seeds[0], args.seconds, trace=1)
        layers = traced["metrics"]
        busiest = sorted((m for m in layers if m.endswith(".self_s")),
                         key=lambda m: -layers[m]["value"])[:8]
        total = sum(layers[m]["value"] for m in layers if m.endswith(".self_s"))
        print(f"{name} traced self time, top layers: " + ", ".join(
            f"{m[:-7]} {100 * layers[m]['value'] / total:.0f}%" for m in busiest))
        print(f"{name} env.observe.per_transition "
              f"{layers['env.observe.per_transition']['value']:.3f}, trace.overhead_pct "
              f"{layers['trace.overhead_pct']['value']:.1f}", flush=True)

    # The calibration's numpy products run on the same BLAS threads, so the
    # comparison gives the unscaled median wall time of a call too.
    for threads in (1, 2):
        run_s, wall_s = [], []
        for seed in seeds[:5]:
            result, _ = bench("train-toy", seed, args.seconds, trace=0, threads=threads)
            run_s.append(result["metrics"]["run_s"]["value"])
            saved = HERE.parent / ".perfbench-runs" / f"train-toy-seed{seed}" / "result.json"
            wall_s.append(statistics.median(
                json.loads(saved.read_text(encoding="utf-8"))["durations_wall_s"]))
        print(f"train-toy with {threads} BLAS thread(s): run_s {summary(run_s)}, "
              f"wall median {summary(wall_s)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
