"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it uses the program under `src/`. It
starts one fresh measuring process (child.py) with the BLAS thread count
pinned in that process's environment, and prints a readable report followed
by one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-runs"
CHILD_GRACE_S = 120  # time past --seconds for the last call, the checks and the trace

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_process(argv, timeout, env=None) -> float:
    """Run one Python child to completion; returns its wall time from start to exit.

    A timer kills a child that overruns. The wait itself blocks, because
    subprocess's own timed wait polls in steps of up to 50 ms and would
    round the time it reports.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": (result["setup_s"], "s"),
        "run_s": (result["run_s"], "s"),
        "sim_ticks_per_s": (result["sim_ticks_per_s"], "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def report(workload: str, seed: int, result: dict, metrics: dict) -> None:
    for what, key in (("job call (reference s)", "durations_s"),
                      ("job call (wall s)", "durations_wall_s"),
                      ("set-up (reference s)", "setups_s"),
                      ("set-up (wall s)", "setups_wall_s"),
                      ("host calibration (wall s)", "calibrations_s")):
        times = result[key]
        if times:
            print(f"{what}: n {len(times)}  min {min(times):.4f}  "
                  f"median {statistics.median(times):.4f}  max {max(times):.4f}")
    print(f"workload {workload}  seed {seed}  calls {result['calls']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    if result["problem"]:
        print(f"check failed: {result['problem']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    if result["updates_per_call"] and result["run_s"] > 0:
        print(f"  updates_per_s (derived) {result['updates_per_call'] / result['run_s']:.4f} 1/s")
    for name, value in result["quality"].items():
        print(f"  {name} (simulated, not a metric) {value:.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads of the measuring process (default 1)")
    args = parser.parse_args(argv)

    if not (SRC / "trafficlab" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    run_process([str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
                 "--work", str(work), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--result", str(result_path)],
                timeout=args.seconds + CHILD_GRACE_S, env=child_env(args.blas_threads))
    result = json.loads(result_path.read_text(encoding="utf-8"))

    metrics = result["layers"] if args.trace else end_to_end(result)
    report(args.workload, args.seed, result, metrics)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
