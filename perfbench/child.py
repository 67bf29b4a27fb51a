"""The measuring process of one benchmark run, started fresh by run.py.

    python3 child.py --workload W --seed N --work DIR --seconds S --trace 0|1 --result FILE

It alternates the workload's job call (train or compare) through
`trafficlab.cli.main` with a fresh set-up process until `--seconds` have
passed, scaling each call's and set-up's time by the host-speed calibrations
around it (hostspeed.py). It then checks the outputs outside the timed region
and writes one JSON result. With `--trace 1` it then makes the inputs and calls the job once more
under the tracer.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from trafficlab import agents, baselines, core, qnet, sim

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from make_inputs import make_inputs, run_cli  # noqa: E402
from run import run_process  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_TIMEOUT_S = 60


class TickCounter:
    """Counts simulated seconds by watching `sim.init`, which every episode
    and evaluation calls once; the per-tick path is left untouched.

    A state whose clock has reached its flow's end ticks no more, so it is
    counted and released at the next `sim.init`; the rest are counted when
    the job call returns.
    """

    def __init__(self):
        self._init = sim.init
        self._live: list = []
        self._ticks = 0

    def __enter__(self):
        sim.init = self._counting_init
        return self

    def __exit__(self, *exc):
        sim.init = self._init

    def _counting_init(self, spec, flow):
        running = []
        for state in self._live:
            if state.clock >= state.flow.duration:
                self._ticks += state.clock
            else:
                running.append(state)
        state = self._init(spec, flow)
        running.append(state)
        self._live = running
        return state

    def take(self) -> int:
        ticks = self._ticks + sum(state.clock for state in self._live)
        self._live, self._ticks = [], 0
        return ticks


def job_outputs(workload: Workload, work: Path):
    """What a job call produced, minus the wall-clock column."""
    if workload.job == "train":
        rows = checks.read_csv(work / "run" / "metrics.csv")
        return [{k: v for k, v in row.items() if k != "wall_clock_s"} for row in rows]
    return checks.read_csv(work / "compare.csv")


def quality(workload: Workload, rows) -> dict:
    """Simulated travel times the job reports: the best validation travel
    time it selects and the mean over its output rows. Reported beside the
    metrics; they are exact for a seed but vary widely between seeds."""
    if workload.job == "train":
        values = [float(r["val_avg_travel_time_s"]) for r in rows]
        return {"best_val_travel_time_s": min(values),
                "mean_travel_time_s": statistics.fmean(values)}
    per_controller = {}
    for r in rows:
        if r["split"] == "val":
            per_controller.setdefault(r["controller"], []).append(float(r["avg_travel_time_s"]))
    return {
        "best_val_travel_time_s": min(statistics.fmean(v) for v in per_controller.values()),
        "mean_travel_time_s": statistics.fmean(float(r["avg_travel_time_s"]) for r in rows),
    }


def check_train(workload: Workload, seed: int, work: Path, rows) -> None:
    checks.check_metrics(rows, workload.updates_per_call, workload.warmup)
    agent, meta = agents.load_checkpoint(work / "run" / "best.npz")
    checks.check_finite_parameters(agent.net)
    checks.check_finite_parameters(agent.target)

    spec = core.load_intersection((work / "spec.json").read_text(encoding="utf-8"))
    holdout = workload.flows[workload.config["holdout_index"]]
    flow = core.load_flow((work / f"{holdout.label}.json").read_text(encoding="utf-8"))
    val = checks.split_flow(flow)["val"]
    replayed = checks.greedy_travel_time(agent.net, spec, val, meta, agent.config.gamma)
    best = min(rows, key=lambda r: float(r["val_avg_travel_time_s"]))
    checks.require(checks.same_cell(replayed, best["val_avg_travel_time_s"]),
                   f"greedy replay of best.npz gives {replayed:.6f} s, "
                   f"metrics.csv best is {best['val_avg_travel_time_s']} s")

    # Targets near the net's own values, as TD targets are, keep the loss
    # small enough that rounding does not swamp the finite differences.
    rng = np.random.default_rng(seed)
    n = 32
    states = rng.uniform(0.0, 1.0, size=(n, agent.net.in_dim))
    actions = rng.integers(agent.net.out_dim, size=n)
    targets = qnet.forward(agent.net, states)[np.arange(n), actions] + rng.normal(0.0, 1.0, n)
    _, grad_w, grad_b = qnet.loss_and_grads(agent.net, states, actions, targets)
    checks.check_gradients(agent.net, states, actions, targets, (grad_w, grad_b), rng)


def check_compare(workload: Workload, seed: int, work: Path, rows) -> None:
    spec = core.load_intersection((work / "spec.json").read_text(encoding="utf-8"))
    flows = [core.load_flow((work / f"{f.label}.json").read_text(encoding="utf-8"))
             for f in workload.flows]
    controllers = workload.config["controllers"]
    checks.check_compare_rows(rows, controllers, flows)

    # One saturated pair, re-simulated tick by tick with the invariants checked.
    name, label, split = "sotl2", "saturated1", "val"
    flow = next(f for f in flows if f.label == label)
    part = checks.split_flow(flow)[split]
    recomputed = checks.resimulate(spec, part, baselines.make_controller(name, spec, seed=seed))
    row = next(r for r in rows
               if (r["controller"], r["flow"], r["split"]) == (name, label, split))
    checks.require(checks.same_cell(recomputed, row["avg_travel_time_s"]),
                   f"re-simulated {name}/{label}/{split} gives {recomputed:.6f} s, "
                   f"compare wrote {row['avg_travel_time_s']} s")


def expected_ticks(workload: Workload) -> int | None:
    """A compare call runs every controller over both halves of every flow."""
    if workload.job != "compare":
        return None
    return len(workload.config["controllers"]) * sum(f.duration for f in workload.flows)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads():
    """The thread count the loaded OpenBLAS reports, or the pinned variable if
    the library cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def setup_process(workload: Workload, seed: int, work: Path):
    """A fresh make_inputs.py process per set-up, timed from start to exit."""
    argv = [str(Path(__file__).resolve().parent / "make_inputs.py"),
            "--workload", workload.name, "--seed", str(seed), "--work", str(work)]
    return lambda: run_process(argv, timeout=SETUP_TIMEOUT_S)


def measure(workload: Workload, seed: int, work: Path, seconds: float, trace: bool,
            setup) -> dict:
    """Set up, then alternate one job call and one more set-up until
    `seconds` have passed, so that both samples span the whole run. Every
    call and set-up is timed in wall seconds and scaled to reference seconds
    by the host-speed calibrations on either side of it."""
    argv = workload.job_argv(work)
    speed = HostSpeed()
    walls, setup_walls = [], [setup()]
    setups = [speed.scaled(setup_walls[0])]
    durations, ticks = [], []
    attempted = failed = 0
    first = None
    problem = None
    started = time.perf_counter()
    with TickCounter() as counter:
        while True:
            attempted += 1
            t0 = time.perf_counter()
            try:
                code = run_cli(argv)
            except Exception:  # a failed call is counted, and the run goes on
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - t0
            duration = speed.scaled(wall)
            if code != 0:
                failed += 1
                counter.take()
            else:
                walls.append(wall)
                durations.append(duration)
                ticks.append(counter.take())
                outputs = job_outputs(workload, work)
                if first is None:
                    first = outputs
                elif outputs != first and problem is None:
                    problem = f"{workload.job} output differs between identical calls"
            setup_walls.append(setup())
            setups.append(speed.scaled(setup_walls[-1]))
            if time.perf_counter() - started >= seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        checks.require(problem is None, problem)
        checks.require(first is not None, "no job call succeeded")
        checks.require(len(set(ticks)) == 1, f"simulated seconds differ between calls: {ticks}")
        want = expected_ticks(workload)
        checks.require(want is None or ticks[0] == want,
                       f"compare simulated {ticks[0]} s, expected {want} s")
        if workload.job == "train":
            check_train(workload, seed, work, first)
        else:
            check_compare(workload, seed, work, first)
    except checks.CheckFailed as exc:
        problem = str(exc)

    # Both times are medians of host-speed-scaled samples spread over the run.
    run_s = statistics.median(durations) if durations else float("nan")
    result = {
        "correct": problem is None,
        "problem": problem,
        "attempted": attempted,
        "failed": failed,
        "calls": len(durations),
        "durations_s": durations,
        "durations_wall_s": walls,
        "setups_s": setups,
        "setups_wall_s": setup_walls,
        "calibrations_s": speed.calibrations,
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "sim_ticks_per_s": ticks[0] / run_s if durations else float("nan"),
        "peak_rss_mb": peak_rss_mb,
        "updates_per_call": workload.updates_per_call,
        "quality": quality(workload, first) if first is not None else {},
        "environment": environment(),
    }
    if trace:
        result["layers"] = traced_call(workload, seed, work, run_s, speed)
    return result


def traced_call(workload: Workload, seed: int, work: Path, untraced_run_s: float,
                speed: HostSpeed) -> dict:
    """Set up and call the job once more with every layer wrapped; its time
    is scaled like the untraced calls'."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        make_inputs(workload, seed, work)
        speed.restart()
        t0 = time.perf_counter()
        code = run_cli(workload.job_argv(work))
        traced_run_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    traced_run_s = speed.scaled(traced_run_s)
    if code != 0:
        raise RuntimeError("traced job call failed")
    tracer.write(work / "spans.csv")
    layers = tracer.layer_metrics()
    layers["trace.overhead_pct"] = (100.0 * (traced_run_s / untraced_run_s - 1.0), "%")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workload, work = WORKLOADS[args.workload], Path(args.work)
    result = measure(workload, args.seed, work, args.seconds, bool(args.trace),
                     setup_process(workload, args.seed, work))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
