"""Independent checks of a workload's outputs.

They test properties of the method and recompute results with the
benchmark's own code from the program's public calls; none compares against a
stored copy of earlier output. Each check raises CheckFailed with a message
naming what is wrong.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from trafficlab import core, env, qnet, sim

# The model's jam gap behind a leader (README: 7.5 m effective spacing for the
# default 5 m body), restated here so the spacing check does not read it from
# the code under test.
JAM_GAP_M = 2.5
SPACING_TOLERANCE_M = 1e-9
SPLITS = ("val", "test")


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def same_cell(value: float, cell: str) -> bool:
    """The CSV writer keeps six decimals; compare at that precision."""
    return f"{value:.6f}" == cell


def split_flow(flow: core.FlowDataset) -> dict:
    """First and second time halves of a flow, the second shifted to time 0."""
    half = flow.duration // 2
    first = tuple(v for v in flow.vehicles if v.spawn_time < half)
    second = tuple(
        core.Vehicle(v.id, v.spawn_time - half, v.movement_id, v.body_length)
        for v in flow.vehicles if v.spawn_time >= half
    )
    return {
        "val": core.FlowDataset(first, half, label=f"{flow.label}/val"),
        "test": core.FlowDataset(second, flow.duration - half, label=f"{flow.label}/test"),
    }


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

def check_compare_rows(rows, controllers, flows) -> None:
    """One row per controller x flow x split; every value finite and within
    (0, split duration], since unfinished trips count up to the horizon."""
    require(len(rows) == len(controllers) * len(flows) * len(SPLITS),
            f"compare wrote {len(rows)} rows, expected "
            f"{len(controllers)} x {len(flows)} x {len(SPLITS)}")
    limits = {}
    for flow in flows:
        for split, part in split_flow(flow).items():
            limits[(flow.label, split)] = part.duration
    seen = set()
    for row in rows:
        key = (row["controller"], row["flow"], row["split"])
        require(key not in seen, f"duplicate compare row {key}")
        seen.add(key)
        require(row["controller"] in controllers and (row["flow"], row["split"]) in limits,
                f"unexpected compare row {key}")
        value = float(row["avg_travel_time_s"])
        limit = limits[(row["flow"], row["split"])]
        require(math.isfinite(value) and 0.0 < value <= limit,
                f"travel time {value} of {key} outside (0, {limit}]")


def average_travel_time(completed, flow: core.FlowDataset, horizon: int) -> float:
    """Mean trip time of the vehicles spawned before the horizon; a trip still
    under way counts up to the horizon."""
    exits = {}
    for vid, _, exit_time in completed:
        require(vid not in exits, f"vehicle {vid} completed twice")
        exits[vid] = exit_time
    times = [exits.get(v.id, horizon) - v.spawn_time
             for v in flow.vehicles if v.spawn_time < horizon]
    require(bool(times), "no vehicle spawned before the horizon")
    return sum(times) / len(times)


def snapshot(state: sim.SimState) -> dict:
    """What check_tick needs from the state before a tick."""
    return {
        "yellow": state.signal.yellow_remaining,
        "phase": state.signal.current_phase,
        "lane_of": {veh.id: j for j, lane in enumerate(state.lanes) for veh in lane},
        "completed": len(state.completed),
    }


def check_tick(spec: core.IntersectionSpec, before: dict, state: sim.SimState) -> None:
    """Invariants of one tick: conservation, follower spacing, no exit while
    yellow or red, and no trip faster than free flow."""
    on_network = sum(len(lane) for lane in state.lanes)
    backlog = sum(len(queue) for queue in state.backlog)
    require(state.spawned == on_network + backlog + len(state.completed),
            f"tick {state.clock}: spawned {state.spawned} != on network {on_network}"
            f" + backlog {backlog} + completed {len(state.completed)}")
    for j, lane in enumerate(state.lanes):
        length = spec.lanes[j].length_m
        for lead, follower in zip(lane, lane[1:]):
            gap = lead.position - follower.position
            require(gap >= lead.body_length + JAM_GAP_M - SPACING_TOLERANCE_M,
                    f"tick {state.clock}: lane {j} vehicles {lead.id}/{follower.id} "
                    f"only {gap:.3f} m apart")
        for veh in lane:
            require(0.0 <= veh.position <= length,
                    f"tick {state.clock}: vehicle {veh.id} at {veh.position} m off lane {j}")
    green = spec.green_lanes(before["phase"])
    for vid, spawn, exit_time in state.completed[before["completed"]:]:
        require(before["yellow"] == 0, f"tick {state.clock}: vehicle {vid} exited during yellow")
        lane = before["lane_of"].get(vid)
        require(lane is not None, f"tick {state.clock}: vehicle {vid} exited without being on a lane")
        require(lane in green, f"tick {state.clock}: vehicle {vid} exited lane {lane} on red")
        free_flow = math.ceil(spec.lanes[lane].length_m / spec.lanes[lane].vmax_ms)
        require(exit_time - spawn >= free_flow,
                f"vehicle {vid} took {exit_time - spawn} s, under the free-flow {free_flow} s")


def resimulate(spec: core.IntersectionSpec, flow: core.FlowDataset, controller) -> float:
    """Run one controller episode with the benchmark's own loop over the public
    sim calls, checking every tick; returns the recomputed travel time."""
    state = sim.init(spec, flow)
    controller.reset()
    while state.clock < flow.duration:
        sim.command_signal(state, controller.decide(state))
        before = snapshot(state)
        sim.tick(state)
        check_tick(spec, before, state)
    return average_travel_time(state.completed, flow, state.clock)


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def check_metrics(rows, total_updates: int, warmup: int) -> None:
    """The run reaches its update budget, and once the warmup is stored every
    transition makes exactly one update (the first on the warmup-th one)."""
    require(bool(rows), "metrics.csv has no rows")
    last = int(rows[-1]["weight_updates"])
    require(last == total_updates, f"last weight_updates {last} != {total_updates}")
    for row in rows:
        updates, transitions = int(row["weight_updates"]), int(row["transitions"])
        if updates:
            require(transitions == updates + warmup - 1,
                    f"{transitions} transitions for {updates} updates with warmup {warmup}")
        require(math.isfinite(float(row["val_avg_travel_time_s"])),
                "non-finite validation travel time")


def check_finite_parameters(net: qnet.QNetwork) -> None:
    for k, p in enumerate(net.parameters()):
        require(bool(np.all(np.isfinite(p))), f"checkpoint parameter array {k} is not finite")


def greedy_travel_time(net: qnet.QNetwork, spec, flow, meta: dict, gamma: float) -> float:
    """One greedy episode of the checkpointed network, stepped as it was trained."""
    episode = env.TrafficEnv(spec, flow, variant=meta["variant"],
                             action_mode=meta["action_mode"], gamma=gamma)
    obs = episode.reset()
    step = episode.mdp_step if meta["process"] == "mdp" else episode.smdp_step
    while not episode.terminal:
        obs = step(int(np.argmax(qnet.forward(net, obs)))).next_state
    return average_travel_time(episode.state.completed, flow, episode.state.clock)


def td_loss(net: qnet.QNetwork, states, actions, targets):
    """Mean squared TD error by the benchmark's own forward pass; also returns
    the ReLU masks so a finite-difference step can tell it crossed a kink."""
    h = states
    masks = []
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        if k < last:
            masks.append(z > 0.0)
            z = np.where(masks[-1], z, 0.0)
        h = z
    picked = h[np.arange(len(actions)), actions]
    return float(np.mean((picked - targets) ** 2)), masks


def check_gradients(net: qnet.QNetwork, states, actions, targets, grads,
                    rng: np.random.Generator, n_coords: int = 48,
                    step: float = 1e-4, tolerance: float = 1e-5) -> None:
    """Compare analytic (grad_w, grad_b) against central differences on a
    random sample of parameter coordinates."""
    grad_w, grad_b = grads
    params = list(net.parameters())
    analytic = [g for pair in zip(grad_w, grad_b) for g in pair]
    _, base_masks = td_loss(net, states, actions, targets)
    checked = 0
    for _ in range(20 * n_coords):
        if checked == n_coords:
            break
        k = int(rng.integers(len(params)))
        flat = params[k].reshape(-1)
        i = int(rng.integers(flat.size))
        original = flat[i]
        flat[i] = original + step
        plus, plus_masks = td_loss(net, states, actions, targets)
        flat[i] = original - step
        minus, minus_masks = td_loss(net, states, actions, targets)
        flat[i] = original
        if not all(np.array_equal(a, b) and np.array_equal(a, c)
                   for a, b, c in zip(base_masks, plus_masks, minus_masks)):
            continue  # the step crossed a ReLU kink; the difference is not a derivative
        numeric = (plus - minus) / (2 * step)
        exact = float(analytic[k].reshape(-1)[i])
        require(abs(numeric - exact) <= tolerance * max(1.0, abs(numeric), abs(exact)),
                f"gradient of parameter array {k}[{i}]: analytic {exact}, numeric {numeric}")
        checked += 1
    require(checked == n_coords, f"only {checked} of {n_coords} coordinates were away from kinks")
