"""Experiment orchestration: training loops, evaluation, controller comparison,
the Q-value generalization sweep, and CSV reporting."""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import core, sim
from .agents import DQNAgent, DQNConfig, GreedyController, load_checkpoint, save_checkpoint
from .baselines import CONTROLLER_NAMES, SotlParams, make_controller
from .core import FlowDataset, IntersectionSpec
from .env import ActionSpace, TrafficEnv, lane_capacity, observation_dim, reward

# Figure-of-merit bookkeeping runs on weight updates; one epoch is 900 updates.
UPDATES_PER_EPOCH = 900

METRICS_COLUMNS = (
    "epoch",
    "weight_updates",
    "mean_reward",
    "val_avg_travel_time_s",
    "wall_clock_s",
    "transitions",
)

COMPARE_COLUMNS = ("controller", "flow", "split", "avg_travel_time_s")

# Keys of one `flow_profiles` entry; all but `label` are required.
FLOW_PROFILE_KEYS = ("profile", "seed", "duration", "label")


@dataclass
class ExperimentConfig:
    intersection: str
    flows: list = field(default_factory=list)          # paths to flow documents
    flow_profiles: list = field(default_factory=list)  # [{profile, seed, duration}]
    holdout_index: int = -1
    variant: str = "wad"
    action_mode: str = "acyclic"
    process: str = "smdp"
    dqn: dict = field(default_factory=dict)
    sotl: dict = field(default_factory=dict)
    horizon: int | None = None
    eval_every: int = 50
    total_epochs: int = 200
    seed: int = 0
    out_dir: str = "runs/experiment"
    controllers: list = field(default_factory=lambda: ["fixed", "random", "sotl1", "sotl2"])
    repeats: int = 1

    def __post_init__(self):
        _reject_unknown_keys("dqn", self.dqn, [f.name for f in fields(DQNConfig)])
        _reject_unknown_keys("sotl", self.sotl, [f.name for f in fields(SotlParams)])
        integers = ["eval_every", "total_epochs", "repeats", "holdout_index", "seed"]
        if self.horizon is not None:
            integers.append("horizon")
        core.require_integers(self, *integers)
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        _check_flow_profiles(self.flow_profiles)
        if self.process not in ("mdp", "smdp"):
            raise ValueError("process must be 'mdp' or 'smdp'")
        if not isinstance(self.controllers, list):
            raise ValueError(f"controllers must be a list of names, not {self.controllers!r}")
        for name in self.controllers:
            if name not in CONTROLLER_NAMES and not (
                    isinstance(name, str) and name.startswith("dqn:") and len(name) > 4):
                raise ValueError(f"unknown controllers entry {name!r}; accepted: "
                                 f"{', '.join(CONTROLLER_NAMES)} or dqn:<checkpoint path>")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"config {path} must be a JSON object")
        _reject_unknown_keys("config", doc, [f.name for f in fields(cls)])
        config = cls(**doc)
        base = path.parent
        config.intersection = str(_resolve(base, config.intersection))
        config.flows = [str(_resolve(base, f)) for f in config.flows]
        config.controllers = [
            f"dqn:{_resolve(base, c[4:])}" if c.startswith("dqn:") else c
            for c in config.controllers
        ]
        return config


def _reject_unknown_keys(where: str, doc: dict, accepted: list) -> None:
    unknown = [key for key in doc if key not in accepted]
    if unknown:
        raise ValueError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                         f"accepted keys: {', '.join(accepted)}")


def _check_flow_profiles(entries) -> None:
    """Refuse a `flow_profiles` entry that `load_materials` could not generate
    as written, naming the entry's index and the field."""
    if not isinstance(entries, list):
        raise ValueError(f"flow_profiles must be a list of entries, not {entries!r}")
    for k, item in enumerate(entries):
        where = f"flow_profiles[{k}]"
        if not isinstance(item, dict):
            raise ValueError(f"{where} must be an object with keys "
                             f"{', '.join(FLOW_PROFILE_KEYS)}, not {item!r}")
        _reject_unknown_keys(where, item, FLOW_PROFILE_KEYS)
        for key in ("profile", "seed", "duration"):
            if key not in item:
                raise ValueError(f"{where} lacks the {key!r} key")
        for key in ("seed", "duration"):
            core.require_integer(f"{where}.{key}", item[key])


def _resolve(base: Path, p: str) -> Path:
    p = Path(p)
    return p if p.is_absolute() else base / p


def load_materials(config: ExperimentConfig):
    """Resolve the intersection and flow set named by a config, refusing any
    flow that does not fit the intersection before an episode runs."""
    spec = core.load_intersection(Path(config.intersection).read_text(encoding="utf-8"))
    flows = [core.load_flow(Path(f).read_text(encoding="utf-8")) for f in config.flows]
    for item in config.flow_profiles:
        profile = core.parse_profile(item["profile"])
        flows.append(
            core.generate_flow(
                profile,
                seed=int(item["seed"]),
                duration=int(item["duration"]),
                label=item.get("label", f"{item['profile']}@seed{item['seed']}"),
            )
        )
    if not flows:
        raise ValueError("config names no flows")
    labels = [flow.label or f"flow{k}" for k, flow in enumerate(flows)]  # as compare names them
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"duplicate flow label {label!r}; give each flow its own label")
    for flow in flows:
        core.check_flow(spec, flow)
    return spec, flows


def evaluate(policy, spec: IntersectionSpec, flow: FlowDataset,
             horizon: int | None = None, on_tick=None) -> float:
    """Average travel time of one deterministic episode under `policy`.

    `policy` is any object with `reset()` and `decide(state) -> phase`: a
    baseline controller or a `GreedyController` around a DQN agent. It is
    consulted once per second, before the tick, until the flow's duration or
    `horizon`; `on_tick(state)`, if given, runs after every tick.
    """
    if not flow.vehicles:
        raise ValueError("empty flow")
    state = sim.init(spec, flow)
    policy.reset()
    stop = flow.duration if horizon is None else horizon
    while state.clock < stop:
        sim.command_signal(state, policy.decide(state))
        sim.tick(state)
        if on_tick is not None:
            on_tick(state)
    return sim.avg_travel_time(state, flow)


def greedy_rollout(policy, spec: IntersectionSpec, flow: FlowDataset,
                   horizon: int | None = None) -> tuple[float, float]:
    """`evaluate` that also returns the raw (undiscounted) episode return."""
    rewards = []
    tt = evaluate(policy, spec, flow, horizon, lambda state: rewards.append(reward(state)))
    return tt, sum(rewards, 0.0)


@dataclass
class TrainResult:
    metrics_path: str
    best_checkpoint: str
    best_val_travel_time: float
    rows: list


def run_training(config: ExperimentConfig) -> TrainResult:
    """Train a DQN agent on the train flows, validating every eval_every epochs
    and checkpointing whenever the validation travel time improves."""
    spec, flows = load_materials(config)
    n = len(flows)
    if not -n <= config.holdout_index < n:
        raise ValueError(f"holdout_index {config.holdout_index} is outside [-{n}, {n}) "
                         f"for {n} flows")
    holdout = config.holdout_index % n
    if n >= 2:
        train_flows, val_flow, _ = core.split_dataset(flows, holdout)
    else:
        # Single-flow smoke setups: train on the full flow, validate on its first half.
        train_flows = flows
        val_flow, _ = core.split_halves(flows[0])

    space = ActionSpace(config.action_mode, spec.n_phases)
    in_dim = observation_dim(config.variant, spec.n_lanes, spec.n_phases)
    total_updates = config.total_epochs * UPDATES_PER_EPOCH

    dqn_kwargs = dict(config.dqn)
    dqn_kwargs.setdefault("seed", config.seed)
    if "eps_decay_steps" not in dqn_kwargs:
        probe = DQNConfig(**dqn_kwargs)
        dqn_kwargs["eps_decay_steps"] = max(1, (probe.warmup + total_updates) // 2)
    dqn_config = DQNConfig(**dqn_kwargs)
    agent = DQNAgent(in_dim, space.size, dqn_config)

    meta = {
        "variant": config.variant,
        "action_mode": config.action_mode,
        "process": config.process,
        "intersection": core.intersection_to_document(spec),
    }
    greedy = GreedyController(agent, spec, meta)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    best_path = out_dir / "best.npz"

    envs = [
        TrafficEnv(spec, f, variant=config.variant, action_mode=config.action_mode,
                   gamma=dqn_config.gamma, horizon=config.horizon)
        for f in train_flows
    ]

    rows = []
    best_val = float("inf")
    started = time.perf_counter()

    def run_eval() -> None:
        nonlocal best_val
        val_tt, val_return = greedy_rollout(greedy, spec, val_flow, config.horizon)
        row = {
            "epoch": agent.updates_done // UPDATES_PER_EPOCH,
            "weight_updates": agent.updates_done,
            "mean_reward": val_return,
            "val_avg_travel_time_s": val_tt,
            "wall_clock_s": time.perf_counter() - started,
            "transitions": agent.transitions_seen,
        }
        rows.append(row)
        # Each row is flushed as it is produced, so an interrupted run keeps
        # the validations it finished.
        metrics.writerow([_format_cell(row[c]) for c in METRICS_COLUMNS])
        metrics_file.flush()
        if val_tt < best_val:
            best_val = val_tt
            save_checkpoint(best_path, agent, meta)

    with open(metrics_path, "w", newline="", encoding="utf-8") as metrics_file:
        metrics = csv.writer(metrics_file)
        metrics.writerow(METRICS_COLUMNS)
        run_eval()
        eval_stride = config.eval_every * UPDATES_PER_EPOCH
        next_eval = eval_stride
        env_cycle = itertools.cycle(envs)
        env = next(env_cycle)
        obs = env.reset()
        while agent.updates_done < total_updates:
            action = agent.act(obs)
            transition = env.mdp_step(action) if config.process == "mdp" else env.smdp_step(action)
            agent.observe(transition)
            obs = transition.next_state
            if transition.terminal:
                env = next(env_cycle)
                obs = env.reset()
            if agent.updates_done >= next_eval:
                run_eval()
                next_eval += eval_stride
        if rows[-1]["weight_updates"] != agent.updates_done:
            run_eval()

    return TrainResult(
        metrics_path=str(metrics_path),
        best_checkpoint=str(best_path),
        best_val_travel_time=best_val,
        rows=rows,
    )


def compare(config: ExperimentConfig):
    """Evaluate every configured controller on the val/test halves of every flow.

    Returns rows shaped like the output CSV: controller, flow, split,
    avg_travel_time_s.
    """
    spec, flows = load_materials(config)
    sotl = SotlParams(**config.sotl) if config.sotl else SotlParams()
    repeats = max(1, config.repeats)
    halves = [(flow.label or f"flow{k}", core.split_halves(flow))
              for k, flow in enumerate(flows)]
    rows = []
    for name in config.controllers:
        # A greedy DQN holds no episode state, so its checkpoint loads once.
        greedy = _build_policy(name, spec, sotl, config) if name.startswith("dqn:") else None
        for label, (val, test) in halves:
            for split, part in (("val", val), ("test", test)):
                # Only the random controller is stochastic, so only it runs
                # `repeats` times, its seed offset per repeat, and reports the
                # mean; repeats that all agree report that value bit-exactly.
                tts = []
                for r in range(repeats if name == "random" else 1):
                    policy = greedy or _build_policy(name, spec, sotl, config, seed_offset=r)
                    tts.append(evaluate(policy, spec, part, horizon=config.horizon))
                mean_tt = tts[0] if len(set(tts)) == 1 else sum(tts) / len(tts)
                rows.append(
                    {
                        "controller": name,
                        "flow": label,
                        "split": split,
                        "avg_travel_time_s": mean_tt,
                    }
                )
    return rows


def _build_policy(name: str, spec: IntersectionSpec, sotl: SotlParams,
                  config: ExperimentConfig, seed_offset: int = 0):
    if name.startswith("dqn:"):
        agent, meta = load_checkpoint(name.split(":", 1)[1])
        return GreedyController(agent, spec, meta)
    return make_controller(name, spec, sotl, seed=config.seed + seed_offset)


def qvalue_sweep(checkpoint_path, grid_max: int, lane_pair=None):
    """Q(keep) vs Q(switch) over artificial two-lane queue states.

    For every (n1, n2) in [0, grid_max]^2, build the observation with n1
    vehicles waiting on the first lane of the held phase and n2 on the
    opposing phase's lane, everything else empty, and report the action-value
    gap between switching and keeping. `lane_pair` is (held lane, opposing
    lane); a pair that does not fit the spec is refused with a `ValueError`.
    """
    if grid_max < 1:
        raise ValueError("grid_max must be at least 1")
    agent, meta = load_checkpoint(checkpoint_path)
    spec = core.load_intersection(json.dumps(meta["intersection"]))
    variant = meta["variant"]
    action_mode = meta["action_mode"]
    if spec.n_phases != 2:
        raise ValueError("q-value sweep requires a two-phase checkpoint")
    if agent.n_actions != 2:
        raise ValueError("checkpoint action space does not match a two-phase sweep")
    if lane_pair is None:
        lane_pair = (min(spec.green_lanes(0)), min(spec.green_lanes(1)))
    lane_pair = tuple(lane_pair)
    if len(lane_pair) != 2 or not all(isinstance(k, int) for k in lane_pair):
        raise ValueError(f"lanes must be two lane indices, got {lane_pair}")
    # An index outside [0, n_lanes) is green in no phase, so this refuses it.
    keep_phase = 0 if lane_pair[0] in spec.green_lanes(0) else 1
    switch_phase = 1 - keep_phase
    if (lane_pair[0] not in spec.green_lanes(keep_phase)
            or lane_pair[1] in spec.green_lanes(keep_phase)
            or lane_pair[1] not in spec.green_lanes(switch_phase)):
        raise ValueError(f"lanes {lane_pair}: need a lane of the spec and a lane green only "
                         "in the phase that does not serve it")

    j = spec.n_lanes
    dim = observation_dim(variant, j, spec.n_phases)
    blocks = dim - spec.n_phases
    rows = []
    for n1 in range(grid_max + 1):
        for n2 in range(grid_max + 1):
            obs = np.zeros(dim)
            for lane, n in ((lane_pair[0], n1), (lane_pair[1], n2)):
                cap = lane_capacity(spec.lanes[lane].length_m)
                obs[lane] = min(n / cap, 1.0)  # waiting block is first in every variant
            obs[blocks + keep_phase] = 1.0
            q = agent.q_values(obs)
            if action_mode == "cyclic":
                q_keep, q_switch = float(q[0]), float(q[1])
            else:
                q_keep, q_switch = float(q[keep_phase]), float(q[switch_phase])
            rows.append(
                {
                    "n1": n1,
                    "n2": n2,
                    "q_keep": q_keep,
                    "q_switch": q_switch,
                    "q_switch_minus_q_keep": q_switch - q_keep,
                }
            )
    return rows


def sotl_grid_search(spec: IntersectionSpec, flow: FlowDataset, thresholds,
                     cluster_splits=(1, 3, 5), min_greens=(5,),
                     detection_distances=(80.0,)):
    """Brute tuning helper for the acyclic threshold controller; returns
    (params, avg travel time) pairs sorted best first."""
    results = []
    for th, mu, mg, dd in itertools.product(
        thresholds, cluster_splits, min_greens, detection_distances
    ):
        params = SotlParams(threshold=th, cluster_split=mu, min_green=mg,
                            detection_distance=dd)
        tt = evaluate(make_controller("sotl2", spec, params), spec, flow)
        results.append((params, tt))
    results.sort(key=lambda item: item[1])
    return results


def write_csv(path, columns, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _format_cell(value):
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def pearson(xs, ys) -> float:
    """Correlation between two equal-length sequences."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two paired samples")
    return float(np.corrcoef(x, y)[0, 1])
