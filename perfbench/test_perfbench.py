"""Tests of the benchmark itself: every check rejects a corrupted result, and
every workload runs end to end at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from make_inputs import make_inputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from trafficlab import agents, baselines, core, harness, qnet, sim  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tiny(name):
    """A workload with flows a tenth as long and, for training, one epoch."""
    workload = WORKLOADS[name]
    flows = tuple(dataclasses.replace(f, duration=f.duration // 10) for f in workload.flows)
    config = dict(workload.config)
    if workload.job == "train":
        config.update(total_epochs=1, eval_every=1)
    return dataclasses.replace(workload, flows=flows, config=config)


def measure_tiny(name, work, trace=False):
    """child.measure on a tiny copy of a workload, with in-process set-ups."""
    workload = tiny(name)

    def setup():
        t0 = time.perf_counter()
        make_inputs(workload, 2, work)
        return time.perf_counter() - t0

    return workload, child.measure(workload, 2, work, seconds=0.0, trace=trace, setup=setup)


@pytest.fixture(scope="module")
def grid():
    spec = core.default_intersection()
    profile = core.parse_profile("clustered(cluster_size=6,inter_cluster_gap=3,within_gap=1,"
                                 "lane_weights=1:1:1:1:1:1:1:1)")
    flow = core.generate_flow(profile, seed=5, duration=400, label="sat")
    return spec, flow


# --------------------------------------------------------------------------
# BENCHMARK.json agrees with what the code reports
# --------------------------------------------------------------------------

def test_benchmark_json_names_match_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {"setup_s": 1.0, "run_s": 1.0, "sim_ticks_per_s": 1.0, "peak_rss_mb": 1.0}
    reported = run.end_to_end(result)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, unit) for name, (_, unit) in reported.items()]
    layers = Tracer().layer_metrics()
    layers["trace.overhead_pct"] = (0.0, "%")
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, (_, unit) in layers.items()]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)


# --------------------------------------------------------------------------
# compare checks
# --------------------------------------------------------------------------

def compare_rows(flows, controllers, value=10.0):
    return [{"controller": c, "flow": f.label, "split": s, "avg_travel_time_s": f"{value:.6f}"}
            for c in controllers for f in flows for s in checks.SPLITS]


def test_compare_rows_accept_a_complete_table(grid):
    _, flow = grid
    checks.check_compare_rows(compare_rows([flow], ["fixed", "sotl2"]), ["fixed", "sotl2"], [flow])


@pytest.mark.parametrize("corrupt", ["missing", "duplicate", "zero", "nan", "too_long", "label"])
def test_compare_rows_reject_corruption(grid, corrupt):
    _, flow = grid
    rows = compare_rows([flow], ["fixed", "sotl2"])
    if corrupt == "missing":
        rows.pop()
    elif corrupt == "duplicate":
        rows[-1] = dict(rows[0])
    elif corrupt == "zero":
        rows[1]["avg_travel_time_s"] = "0.000000"
    elif corrupt == "nan":
        rows[1]["avg_travel_time_s"] = "nan"
    elif corrupt == "too_long":
        rows[1]["avg_travel_time_s"] = f"{flow.duration // 2 + 1:.6f}"
    else:
        rows[1]["flow"] = "other"
    with pytest.raises(CheckFailed):
        checks.check_compare_rows(rows, ["fixed", "sotl2"], [flow])


def test_resimulation_matches_the_program(grid):
    spec, flow = grid
    controller = baselines.make_controller("sotl2", spec)
    program = harness.evaluate(controller, spec, flow)
    assert checks.same_cell(checks.resimulate(spec, flow, controller), f"{program:.6f}")
    assert not checks.same_cell(program + 1e-5, f"{program:.6f}")


def run_until_exit(spec, flow, controller):
    """Advance until a tick on which some vehicle exits; returns the pre-tick
    snapshot and the state after that tick."""
    state = sim.init(spec, flow)
    while state.clock < flow.duration:
        sim.command_signal(state, controller.decide(state))
        before = checks.snapshot(state)
        sim.tick(state)
        checks.check_tick(spec, before, state)
        if len(state.completed) > before["completed"]:
            return before, state
    raise AssertionError("no vehicle exited")


def test_tick_check_rejects_a_trip_faster_than_free_flow(grid):
    spec, flow = grid
    before, state = run_until_exit(spec, flow, baselines.make_controller("fixed", spec))
    vid, spawn, exit_time = state.completed[-1]
    state.completed[-1] = (vid, exit_time - 2, exit_time)
    with pytest.raises(CheckFailed, match="free-flow"):
        checks.check_tick(spec, before, state)


def test_tick_check_rejects_an_off_by_one_conservation_count(grid):
    spec, flow = grid
    before, state = run_until_exit(spec, flow, baselines.make_controller("fixed", spec))
    state.spawned += 1
    with pytest.raises(CheckFailed, match="spawned"):
        checks.check_tick(spec, before, state)


def test_tick_check_rejects_an_exit_during_yellow(grid):
    spec, flow = grid
    before, state = run_until_exit(spec, flow, baselines.make_controller("fixed", spec))
    before["yellow"] = 1
    with pytest.raises(CheckFailed, match="yellow"):
        checks.check_tick(spec, before, state)


def test_tick_check_rejects_an_exit_on_red(grid):
    spec, flow = grid
    before, state = run_until_exit(spec, flow, baselines.make_controller("fixed", spec))
    lane = before["lane_of"][state.completed[-1][0]]
    before["phase"] = next(p for p in range(spec.n_phases) if lane not in spec.green_lanes(p))
    with pytest.raises(CheckFailed, match="on red"):
        checks.check_tick(spec, before, state)


def test_tick_check_rejects_followers_too_close(grid):
    spec, flow = grid
    before, state = run_until_exit(spec, flow, baselines.make_controller("fixed", spec))
    lane = next(lane for lane in state.lanes if len(lane) >= 2)
    lane[1].position = lane[0].position - lane[0].body_length
    with pytest.raises(CheckFailed, match="apart"):
        checks.check_tick(spec, before, state)


def test_average_travel_time_counts_unfinished_trips_to_the_horizon():
    flow = core.FlowDataset(tuple(core.Vehicle(k, t, 0) for k, t in enumerate((0, 2, 9))), 10)
    assert checks.average_travel_time([(0, 0, 4)], flow, horizon=6) == pytest.approx((4 + 4) / 2)
    with pytest.raises(CheckFailed, match="twice"):
        checks.average_travel_time([(0, 0, 4), (0, 0, 5)], flow, horizon=6)


# --------------------------------------------------------------------------
# train checks
# --------------------------------------------------------------------------

def metrics_rows(updates=(0, 900, 1800), warmup=64):
    return [{"weight_updates": str(u), "transitions": str(u + warmup - 1 if u else 0),
             "val_avg_travel_time_s": "20.000000"} for u in updates]


def test_metrics_check_accepts_the_update_accounting():
    checks.check_metrics(metrics_rows(), total_updates=1800, warmup=64)


@pytest.mark.parametrize("corrupt", ["budget", "off_by_one", "nan", "empty"])
def test_metrics_check_rejects_corruption(corrupt):
    rows = metrics_rows()
    total = 1800
    if corrupt == "budget":
        total = 2700
    elif corrupt == "off_by_one":
        rows[1]["transitions"] = str(int(rows[1]["transitions"]) - 1)
    elif corrupt == "nan":
        rows[2]["val_avg_travel_time_s"] = "nan"
    else:
        rows = []
    with pytest.raises(CheckFailed):
        checks.check_metrics(rows, total_updates=total, warmup=64)


def gradient_case():
    rng = np.random.default_rng(3)
    net = qnet.QNetwork.build(14, 2, rng)
    states = rng.uniform(0.0, 1.0, size=(16, 14))
    actions = rng.integers(2, size=16)
    targets = qnet.forward(net, states)[np.arange(16), actions] + rng.normal(0.0, 1.0, 16)
    _, grad_w, grad_b = qnet.loss_and_grads(net, states, actions, targets)
    return net, states, actions, targets, grad_w, grad_b


def test_gradient_check_accepts_the_analytic_gradient():
    net, states, actions, targets, grad_w, grad_b = gradient_case()
    checks.check_gradients(net, states, actions, targets, (grad_w, grad_b),
                           np.random.default_rng(0))


def test_gradient_check_rejects_a_perturbed_gradient():
    net, states, actions, targets, grad_w, grad_b = gradient_case()
    grad_w = [g * (1.0 + 1e-3) + 1e-4 for g in grad_w]
    grad_b = [g * (1.0 + 1e-3) + 1e-4 for g in grad_b]
    with pytest.raises(CheckFailed, match="gradient"):
        checks.check_gradients(net, states, actions, targets, (grad_w, grad_b),
                               np.random.default_rng(0))


def test_finite_parameter_check_rejects_nan():
    net = gradient_case()[0]
    checks.check_finite_parameters(net)
    net.biases[1][3] = math.nan
    with pytest.raises(CheckFailed):
        checks.check_finite_parameters(net)


# --------------------------------------------------------------------------
# whole workloads at a tiny size
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_checks_and_traces(name, tmp_path):
    workload, result = measure_tiny(name, tmp_path, trace=True)
    assert result["correct"], result["problem"]
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert len(result["setups_s"]) == 2
    # A calibration before the first set-up, after each set-up and call, and
    # two around the traced call.
    assert len(result["calibrations_s"]) == 6
    assert all(result[m] > 0 for m in ("setup_s", "run_s", "sim_ticks_per_s", "peak_rss_mb"))
    layers = result["layers"]
    job = "harness.run_training" if workload.job == "train" else "harness.compare"
    assert layers[f"{job}.calls"][0] == 1
    assert layers["sim.tick.calls"][0] > 0 and layers["sim.vehicle_steps"][0] > 0
    if workload.job == "train":
        assert layers["qnet.loss_and_grads.calls"][0] == workload.updates_per_call
        assert layers["env.observe.per_transition"][0] >= 1.0
    else:
        assert layers["qnet.forward.b1.calls"][0] == 0
    assert (tmp_path / "spans.csv").is_file()
    # The tracer put every original back.
    assert sim.tick.__module__ == "trafficlab.sim" and not hasattr(sim.tick, "__wrapped__")
    assert not hasattr(agents.DQNAgent.observe, "__wrapped__")


def test_host_speed_scales_by_the_calibrations_on_either_side(monkeypatch):
    times = iter([0.08, 0.24, 0.32])
    monkeypatch.setattr(hostspeed, "calibrate", lambda: next(times))
    speed = hostspeed.HostSpeed()
    # Each time is scaled by the mean of the calibrations before and after it.
    assert speed.scaled(1.5) == pytest.approx(1.5 * hostspeed.REFERENCE_S / 0.16)
    assert speed.scaled(1.4) == pytest.approx(1.4 * hostspeed.REFERENCE_S / 0.28)
    assert speed.calibrations == [0.08, 0.24, 0.32]


def test_a_wrong_result_makes_the_run_incorrect(tmp_path, monkeypatch):
    real = checks.resimulate
    monkeypatch.setattr(checks, "resimulate", lambda *a: real(*a) + 1.0)
    _, result = measure_tiny("compare-grid", tmp_path)
    assert not result["correct"] and "re-simulated" in result["problem"]


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

