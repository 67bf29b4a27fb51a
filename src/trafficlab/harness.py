"""Experiment orchestration: training loops, evaluation, controller comparison,
the Q-value generalization sweep, and CSV reporting."""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import core, sim
from .agents import (STEPPING_KEYS, DQNAgent, DQNConfig, GreedyController, checkpoint_spec,
                     load_checkpoint, save_checkpoint)
from .baselines import CONTROLLER_NAMES, SotlParams, make_controller
from .core import FlowDataset, IntersectionSpec
from .env import (ACTION_MODES, PROCESSES, VARIANTS, ActionSpace, TrafficEnv, decode_action,
                  lane_capacity, observation_dim, observe, reward)

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

SWEEP_COLUMNS = ("n1", "n2", "q_keep", "q_switch", "q_switch_minus_q_keep")

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
    controllers: list = field(default_factory=lambda: list(CONTROLLER_NAMES))
    repeats: int = 1

    def __post_init__(self):
        for key, record in (("dqn", DQNConfig), ("sotl", SotlParams)):
            # The top-level `seed` is the run's one seed, so `dqn` has no `seed` key.
            core.reject_unknown_keys(key, getattr(self, key),
                                     [f.name for f in fields(record) if f.name != "seed"])
            try:
                record(**getattr(self, key))
            except ValueError as exc:  # the record names the field
                raise ValueError(f"{key}.{exc}") from None
        for name, low in (("eval_every", 1), ("total_epochs", 0), ("repeats", 1),
                          ("holdout_index", None), ("seed", None)):
            core.require_integer(name, getattr(self, name), low)
        if self.horizon is not None:
            core.require_integer("horizon", self.horizon, 1, core.MAX_FLOW_DURATION_S)
        for name in ("intersection", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a path string, got {getattr(self, name)!r}")
        if not (isinstance(self.flows, list) and all(isinstance(f, str) for f in self.flows)):
            raise ValueError(f"flows must be a list of flow document paths, got {self.flows!r}")
        _read_flow_profiles(self.flow_profiles)
        for name, accepted in (("variant", VARIANTS), ("action_mode", ACTION_MODES),
                               ("process", PROCESSES)):
            if getattr(self, name) not in accepted:
                raise ValueError(f"{name} must be one of {', '.join(accepted)}, "
                                 f"got {getattr(self, name)!r}")
        if not isinstance(self.controllers, list):
            raise ValueError(f"controllers must be a list of names, not {self.controllers!r}")
        for name in self.controllers:
            if name not in CONTROLLER_NAMES and not (
                    isinstance(name, str) and name.startswith("dqn:") and len(name) > 4):
                raise ValueError(f"unknown controllers entry {name!r}; accepted: "
                                 f"{', '.join(CONTROLLER_NAMES)} or dqn:<checkpoint path>")
            if self.controllers.count(name) > 1:  # compare's rows could not be told apart
                raise ValueError(f"repeated controllers entry {name!r}; name each of "
                                 f"{', '.join(CONTROLLER_NAMES)} or dqn:<checkpoint path> once")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        doc = core.read_document(path, json.loads)
        if not isinstance(doc, dict):
            raise ValueError(f"config {path} must be a JSON object")
        core.reject_unknown_keys("config", doc, [f.name for f in fields(cls)])
        if "intersection" not in doc:
            raise ValueError(f"config {path} lacks the 'intersection' key")
        config = cls(**doc)
        base = path.parent
        config.intersection = str(_resolve(base, config.intersection))
        config.out_dir = str(_resolve(base, config.out_dir))
        config.flows = [str(_resolve(base, f)) for f in config.flows]
        config.controllers = [
            f"dqn:{_resolve(base, c[4:])}" if c.startswith("dqn:") else c
            for c in config.controllers
        ]
        return config


def _read_flow_profiles(entries) -> list[dict]:
    """Each `flow_profiles` entry's `generate_flow` arguments (the label
    defaults to `<profile>@seed<seed>`), refusing an entry that could not be
    generated as written, naming the entry's index and the field."""
    if not isinstance(entries, list):
        raise ValueError(f"flow_profiles must be a list of entries, not {entries!r}")
    arguments = []
    for k, item in enumerate(entries):
        where = f"flow_profiles[{k}]"
        if not isinstance(item, dict):
            raise ValueError(f"{where} must be an object with keys "
                             f"{', '.join(FLOW_PROFILE_KEYS)}, not {item!r}")
        core.reject_unknown_keys(where, item, FLOW_PROFILE_KEYS)
        for key in ("profile", "seed", "duration"):
            if key not in item:
                raise ValueError(f"{where} lacks the {key!r} key")
        core.require_integer(f"{where}.seed", item["seed"], 0)
        core.require_integer(f"{where}.duration", item["duration"], core.MIN_SPLIT_DURATION_S,
                             core.MAX_FLOW_DURATION_S)
        if "label" in item and not isinstance(item["label"], str):
            raise ValueError(f"{where}.label must be a string, got {item['label']!r}")
        if not isinstance(item["profile"], str):
            raise ValueError(f"{where}.profile must be a profile literal such as "
                             f"'uniform(rate_per_lane=0.05,n_lanes=8)', got {item['profile']!r}")
        try:
            profile = core.parse_profile(item["profile"])
            core.check_flow_size(profile, item["duration"])
        except ValueError as exc:
            raise ValueError(f"{where}.profile: {exc}") from None
        arguments.append(dict(profile=profile, seed=item["seed"], duration=item["duration"],
                              label=item.get("label", f"{item['profile']}@seed{item['seed']}")))
    return arguments


def _resolve(base: Path, p: str) -> Path:
    p = Path(p)
    return p if p.is_absolute() else base / p


def load_materials(config: ExperimentConfig):
    """Resolve the intersection and flow set named by a config, naming an
    unlabeled flow `flow<k>` by its index, and refusing any flow that does not
    fit the intersection before an episode runs. A file refused as read is
    named by its path."""
    spec = core.read_document(config.intersection, core.load_intersection)
    flows = [core.read_document(f, core.load_flow) for f in config.flows]
    flows += [core.generate_flow(**args) for args in _read_flow_profiles(config.flow_profiles)]
    if not flows:
        raise ValueError("config names no flows")
    flows = [flow if flow.label else replace(flow, label=f"flow{k}")
             for k, flow in enumerate(flows)]
    labels = [flow.label for flow in flows]
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
    `horizon`; `on_tick(state)`, if given, runs after every tick. An episode
    in which no vehicle spawns is refused, by the flow's label, before it runs.
    """
    stop = _episode_stop(flow, horizon)
    state = sim.init(spec, flow)
    policy.reset()
    while state.clock < stop:
        sim.command_signal(state, policy.decide(state))
        sim.tick(state)
        if on_tick is not None:
            on_tick(state)
    return sim.avg_travel_time(state, flow)


def _episode_stop(flow: FlowDataset, horizon: int | None) -> int:
    """The tick an episode on `flow` stops at, refusing by the flow's label an
    episode with no trip to average: no vehicle spawns before it."""
    stop = flow.duration if horizon is None else horizon
    if not flow.vehicles or flow.vehicles[0].spawn_time >= stop:
        raise ValueError(f"empty flow {flow.label!r}: no vehicle spawns before {stop} s")
    return stop


def greedy_rollout(policy, spec: IntersectionSpec, flow: FlowDataset,
                   horizon: int | None = None) -> tuple[float, float]:
    """`evaluate` that also returns the raw (undiscounted) episode return."""
    rewards = []
    tt = evaluate(policy, spec, flow, horizon, lambda state: rewards.append(reward(state)))
    return tt, sum(rewards, 0.0)


class TrainingRun:
    """One training run, built from its config: the agent, the train envs, the
    greedy controller and the validation flow. `run_training` builds one,
    validates it and trains it, and returns it as the result."""

    def __init__(self, config: ExperimentConfig):
        # What the config alone refuses is refused before any file is read; a
        # config with no flows is refused by `load_materials`.
        core.require_writable("out_dir", config.out_dir, directory=True)
        n = len(config.flows) + len(config.flow_profiles)
        if n and not -n <= config.holdout_index < n:
            raise ValueError(f"holdout_index {config.holdout_index} is outside [-{n}, {n}) "
                             f"for {n} flows")
        self.total_updates = config.total_epochs * UPDATES_PER_EPOCH
        dqn_config = DQNConfig(**config.dqn, seed=config.seed)
        if "eps_decay_steps" not in config.dqn:
            decay = max(1, (dqn_config.warmup + self.total_updates) // 2)
            dqn_config = replace(dqn_config, eps_decay_steps=decay)

        spec, flows = load_materials(config)
        holdout = config.holdout_index % n
        val_flow, _ = core.split_halves(flows[holdout])
        _episode_stop(val_flow, config.horizon)
        self.spec, self.val_flow, self.horizon = spec, val_flow, config.horizon
        # The other flows train; a single flow (a smoke setup) trains on itself.
        train_flows = [f for k, f in enumerate(flows) if k != holdout] or flows

        space = ActionSpace(config.action_mode, spec.n_phases)
        in_dim = observation_dim(config.variant, spec.n_lanes, spec.n_phases)
        self.agent = DQNAgent(in_dim, space.size, dqn_config)
        self.meta = {key: getattr(config, key) for key in STEPPING_KEYS}
        self.meta["intersection"] = core.intersection_to_document(spec)
        self.greedy = GreedyController(self.agent, spec, self.meta)
        self.envs = [TrafficEnv(spec, f, variant=config.variant, action_mode=config.action_mode,
                                gamma=dqn_config.gamma, horizon=config.horizon)
                     for f in train_flows]
        # Read from the class when the run is built, so a wrapper set on it sees every step.
        self.step = TrafficEnv.mdp_step if config.process == "mdp" else TrafficEnv.smdp_step
        self.eval_stride = config.eval_every * UPDATES_PER_EPOCH
        # What a resume would store beside the agent and its replay memory.
        self.rows, self.best_val_travel_time, self.env_index = [], float("inf"), 0
        self.metrics_path = str(Path(config.out_dir) / "metrics.csv")
        self.best_checkpoint = str(Path(config.out_dir) / "best.npz")
        # Last, so that a refused run writes nothing; it makes the run directory too.
        write_csv(self.metrics_path, METRICS_COLUMNS, [])
        self.started = time.perf_counter()

    def validate(self) -> None:
        """Run the greedy validation episode, append its row to `rows` and to
        `metrics.csv`, and save `best.npz` if the travel time improves."""
        agent = self.agent
        val_tt, val_return = greedy_rollout(self.greedy, self.spec, self.val_flow, self.horizon)
        row = {
            "epoch": agent.updates_done // UPDATES_PER_EPOCH,
            "weight_updates": agent.updates_done,
            "mean_reward": val_return,
            "val_avg_travel_time_s": val_tt,
            "wall_clock_s": time.perf_counter() - self.started,
            "transitions": agent.transitions_seen,
        }
        self.rows.append(row)
        # Rewritten whole: an interrupted run leaves no half-written row.
        write_csv(self.metrics_path, METRICS_COLUMNS, self.rows)
        if val_tt < self.best_val_travel_time:
            self.best_val_travel_time = val_tt
            save_checkpoint(self.best_checkpoint, agent, self.meta)

    def train(self, until: int) -> None:
        """Step transitions from a fresh episode of `envs[env_index]` until the
        update count reaches `until`. A validation is due at each multiple of
        the validation stride, and at `until`, that has no row yet."""
        agent, envs, step, rows = self.agent, self.envs, self.step, self.rows
        act, observe, stride = agent.act, agent.observe, self.eval_stride
        env = envs[self.env_index]
        obs = env.reset()
        while agent.updates_done < until:
            transition = step(env, act(obs))
            observe(transition)
            obs = transition.next_state
            if transition.terminal:
                self.env_index = (self.env_index + 1) % len(envs)
                env = envs[self.env_index]
                obs = env.reset()
            # The count stays 0 through the warmup; after it each transition adds one.
            done = agent.updates_done
            if (done % stride == 0 or done == until) and done != rows[-1]["weight_updates"]:
                self.validate()


def run_training(config: ExperimentConfig) -> TrainingRun:
    """Train a DQN agent on the train flows, validating every eval_every epochs
    and checkpointing whenever the validation travel time improves."""
    run = TrainingRun(config)
    run.validate()
    run.train(run.total_updates)
    return run


def compare(config: ExperimentConfig):
    """Evaluate every configured controller on the val/test halves of every flow.

    Returns rows shaped like the output CSV: controller, flow, split,
    avg_travel_time_s.
    """
    # Refused before any file is read, whichever controllers are listed.
    core.require_integer("seed", config.seed, 0)
    if not config.controllers:
        raise ValueError("config names no controllers")
    spec, flows = load_materials(config)
    sotl = SotlParams(**config.sotl)
    halves = [(flow.label, core.split_halves(flow)) for flow in flows]
    del flows  # only the halves run
    for _, parts in halves:
        for part in parts:
            _episode_stop(part, config.horizon)
    # Each policy is built once, before the first episode, so a checkpoint that
    # does not fit fails early; `evaluate` resets it before each episode. Only
    # the random controller is stochastic, so only it gets `repeats` seeds.
    policies = {name: [_build_policy(name, spec, sotl, config, seed_offset=r)
                       for r in range(config.repeats if name == "random" else 1)]
                for name in config.controllers}
    rows = []
    for name in config.controllers:
        for label, (val, test) in halves:
            for split, part in (("val", val), ("test", test)):
                # Repeats that all agree report their value bit-exactly.
                tts = [evaluate(policy, spec, part, horizon=config.horizon)
                       for policy in policies[name]]
                mean_tt = tts[0] if len(set(tts)) == 1 else sum(tts) / len(tts)
                rows.append({"controller": name, "flow": label, "split": split,
                             "avg_travel_time_s": mean_tt})
    return rows


def _build_policy(name: str, spec: IntersectionSpec, sotl: SotlParams,
                  config: ExperimentConfig, seed_offset: int):
    if name.startswith("dqn:"):
        agent, meta = load_checkpoint(name.split(":", 1)[1])
        try:
            return GreedyController(agent, spec, meta)
        except ValueError as exc:
            raise ValueError(f"controllers entry {name!r}: {exc}") from None
    return make_controller(name, spec, sotl, seed=config.seed + seed_offset)


def qvalue_sweep(checkpoint_path, grid_max: int, lane_pair=None):
    """Q(keep) vs Q(switch) over artificial two-lane queue states.

    The checkpoint is read as `eval` reads it: its `GreedyController` refuses
    a meta or a network that does not fit the stored spec. For every (n1, n2)
    in [0, grid_max]^2 the state is an empty network holding the phase that
    serves the first lane, with n1 vehicles standing on that lane and n2 on
    the opposing one. `env.observe` encodes it, and the row reports the
    values of the actions that keep the held phase and switch to the other.
    `lane_pair` is (held lane, opposing lane); a pair that does not fit the
    spec is refused with a `ValueError`, and so is a `grid_max` above the
    larger `env.lane_capacity` of the two lanes: past it the counts clip, and
    every row repeats the capacity row.
    """
    if grid_max < 1:
        raise ValueError("grid_max must be at least 1")
    agent, meta = load_checkpoint(checkpoint_path)
    spec = checkpoint_spec(checkpoint_path, meta)
    if spec.n_phases != 2:
        raise ValueError("q-value sweep requires a two-phase checkpoint")
    greedy = GreedyController(agent, spec, meta)
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
    bound = max(lane_capacity(spec.lanes[k].length_m) for k in lane_pair)
    if grid_max > bound:
        raise ValueError(f"grid_max {grid_max} is above {bound}, the larger lane capacity of "
                         f"lanes {lane_pair}")

    action_to = {decode_action(greedy.space, a, keep_phase): a for a in range(greedy.space.size)}
    # Each lane's queue stands from its stop line back at jam spacing, any
    # vehicle past the lane's entry at 0 m; a cell takes the first n1 or n2.
    ids = itertools.count()
    queues = [[sim.VehicleState(next(ids), lane,
                                max(0.0, spec.lanes[lane].length_m - k * sim.DEFAULT_MIN_SPACING_M),
                                0.0, sim.WAITING, 0, core.DEFAULT_BODY_LENGTH_M)
               for k in range(grid_max)] for lane in lane_pair]
    no_arrivals = FlowDataset((), 1)
    rows = []
    for n1 in range(grid_max + 1):
        for n2 in range(grid_max + 1):
            state = sim.init(spec, no_arrivals)
            state.signal.current_phase = keep_phase
            state.lanes[lane_pair[0]], state.lanes[lane_pair[1]] = queues[0][:n1], queues[1][:n2]
            q = agent.q_values(observe(state, greedy.variant))
            q_keep, q_switch = float(q[action_to[keep_phase]]), float(q[action_to[switch_phase]])
            rows.append(dict(zip(SWEEP_COLUMNS, (n1, n2, q_keep, q_switch, q_switch - q_keep))))
    return rows


def sotl_grid_search(spec: IntersectionSpec, flow: FlowDataset, thresholds,
                     cluster_splits=(1, 3, 5), min_greens=(5,)):
    """Brute tuning helper for the acyclic threshold controller, at the default
    detection distance; returns (params, avg travel time) pairs sorted best
    first."""
    results = []
    for th, mu, mg in itertools.product(thresholds, cluster_splits, min_greens):
        params = SotlParams(threshold=th, cluster_split=mu, min_green=mg)
        tt = evaluate(make_controller("sotl2", spec, params), spec, flow)
        results.append((params, tt))
    results.sort(key=lambda item: item[1])
    return results


def write_csv(path, columns, rows) -> None:
    with core.output_file(path) as fh:
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
