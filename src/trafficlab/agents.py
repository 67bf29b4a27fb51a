"""DQN learner: replay memory, epsilon-greedy behavior, TD fitting, checkpoints."""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import core, qnet
from .core import IntersectionSpec, require_finite, require_integer
from .env import (PROCESSES, ActionSpace, Transition, decode_action, holds_phase,
                  observation_dim, observe)
from .qnet import Adam, QNetwork
from .sim import SimState

REPLAY_CAPACITY = 360_000
# The most replay memory an agent may ask for, in bytes (16 GiB). At the default
# capacity, an 8-lane `wads` state (40 inputs) takes about 240 MB.
MAX_REPLAY_BYTES = 16 * 2**30
# The rows a replay buffer allocates at its first transition, before the one
# jump to its whole capacity. numpy backs an array of 4 MiB or more with huge
# pages, so a run that writes one row past a 2 MiB boundary is charged the whole
# 2 MiB page; at 4,096 rows the 40-input state-pair array is 2.6 MB, under that
# size, and both training workloads of the benchmark fit in this first block.
FIRST_ROWS = 4096


@dataclass
class DQNConfig:
    gamma: float = 0.99
    lr: float = 1e-3
    batch_size: int = 512
    tau: float = 1e-3
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 10_000
    replay_capacity: int = REPLAY_CAPACITY
    seed: int = 0

    def __post_init__(self):
        for name in ("gamma", "tau", "eps_start", "eps_end"):
            if require_finite(name, getattr(self, name), positive=False) > 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)!r}")
        if self.eps_end > self.eps_start:
            raise ValueError(f"eps_end must be at most eps_start, got {self.eps_end!r} > "
                             f"{self.eps_start!r}")
        require_finite("lr", self.lr)
        require_integer("batch_size", self.batch_size, 1)
        require_integer("eps_decay_steps", self.eps_decay_steps, 1)
        require_integer("replay_capacity", self.replay_capacity, 1)
        require_integer("seed", self.seed, 0)  # numpy's generators refuse a negative seed

    @property
    def warmup(self) -> int:
        return 2 * self.batch_size


class ReplayBuffer:
    """Ring buffer of transitions with uniform, with-replacement sampling.

    `state` and `next_state` share one (rows, 2, dim) array, so a sample
    gathers both with one fancy index; the arrays `sample` returns are views
    of that fresh gather, which later calls do not touch. The first
    transition allocates `min(capacity, FIRST_ROWS)` rows; once they are full
    and the capacity is larger, the whole capacity is allocated once and the
    stored rows copied over, so a long run holds one (capacity, 2, dim) array.
    """

    _ARRAYS = ("_state_pairs", "_actions", "_rewards", "_durations", "_terminals")

    def __init__(self, capacity: int = REPLAY_CAPACITY):
        self.capacity = require_integer("capacity", capacity, 1)
        self.count = 0
        self._state_pairs = None
        self._actions = None
        self._rewards = None
        self._durations = None
        self._terminals = None

    def __len__(self) -> int:
        return min(self.count, self.capacity)

    def _reserve(self, rows: int, dim: int) -> None:
        """Give each array `rows` rows, keeping the `count` rows stored so far."""
        arrays = (np.empty((rows, 2, dim), dtype=np.float64), np.empty(rows, dtype=np.int64),
                  np.empty(rows, dtype=np.float64), np.empty(rows, dtype=np.int64),
                  np.empty(rows, dtype=bool))
        for name, new in zip(self._ARRAYS, arrays):
            if self.count:
                new[:self.count] = getattr(self, name)
            setattr(self, name, new)

    def store(self, transition: Transition) -> None:
        """Store one transition; refused unless `state` and `next_state` are
        each of shape (dim,), dim being the first transition's state size."""
        pairs = self._state_pairs
        want = (np.size(transition.state) if pairs is None else pairs.shape[2],)
        for name in ("state", "next_state"):
            shape = np.shape(getattr(transition, name))
            if shape != want:
                raise ValueError(f"{name} has shape {shape}, the replay buffer stores {want}")
        idx = self.count % self.capacity
        if pairs is None:
            self._reserve(min(self.capacity, FIRST_ROWS), want[0])
        elif idx == len(pairs):  # the first block is full: the one jump to capacity
            self._reserve(self.capacity, want[0])
        self._state_pairs[idx, 0] = transition.state
        self._actions[idx] = transition.action
        self._rewards[idx] = transition.reward
        self._state_pairs[idx, 1] = transition.next_state
        self._durations[idx] = transition.duration
        self._terminals[idx] = transition.terminal
        self.count += 1

    def sample(self, n: int, rng: np.random.Generator):
        size = len(self)
        if size < n:
            raise ValueError(f"cannot sample {n} transitions from a buffer of {size}")
        idx = rng.integers(0, size, size=n)
        pairs = self._state_pairs[idx]
        return (
            pairs[:, 0],
            self._actions[idx],
            self._rewards[idx],
            pairs[:, 1],
            self._durations[idx],
            self._terminals[idx],
        )


def select_action(q_values, epsilon: float, rng: np.random.Generator,
                  n_actions: int | None = None) -> int:
    """Epsilon-greedy over the action values; greedy ties go to the lowest index.

    The coin is `rng.random()`, drawn only when epsilon > 0; an exploring step
    then draws its action with `rng.integers(n)`. `q_values` may also be a
    function of no arguments that returns the values, with `n_actions` their
    count: it is called only on a greedy step, so exploring runs no network.
    """
    lazy = callable(q_values)
    n = n_actions if lazy else np.size(q_values)
    if not n:
        raise ValueError("empty action-value vector")
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(n))
    return int(np.asarray(q_values() if lazy else q_values).argmax())


def td_targets(target_net: QNetwork, rewards, next_states, durations, terminals,
               gamma: float) -> np.ndarray:
    """y = r + gamma^duration * max_a' Q_target(s', a'), bootstrap dropped at terminals."""
    next_q = qnet.forward(target_net, next_states)
    # An axis-0 max over the contiguous transpose runs one inner loop per
    # action instead of one per row; max is exact, so the result is the same.
    best_next = np.ascontiguousarray(next_q.T).max(axis=0)
    discount = np.power(gamma, np.asarray(durations, dtype=np.float64))
    return np.asarray(rewards, dtype=np.float64) + discount * best_next * (
        ~np.asarray(terminals, dtype=bool)
    )


def train_step(net: QNetwork, target_net: QNetwork, batch, config: DQNConfig,
               optimizer: Adam) -> float:
    """One Adam step on the live network against targets from the target network."""
    states, actions, rewards, next_states, durations, terminals = batch
    if len(states) == 0:
        raise ValueError("empty batch")
    targets = td_targets(target_net, rewards, next_states, durations, terminals, config.gamma)
    if not np.isfinite(targets).all():
        raise RuntimeError("non-finite TD target; training step aborted")
    loss, grad_w, grad_b = qnet.loss_and_grads(net, states, actions, targets)
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite loss {loss}; training step aborted")
    optimizer.step(net, grad_w, grad_b)
    return loss


@dataclass
class EpsilonSchedule:
    """Linear start -> end over decay_steps collected transitions, then flat."""

    start: float
    end: float
    decay_steps: int

    def value(self, step: int) -> float:
        if step >= self.decay_steps:
            return self.end
        frac = step / self.decay_steps
        return self.start + frac * (self.end - self.start)


class DQNAgent:
    """Value network, its slow target copy, replay memory, and the update rule.

    One gradient update per stored transition once the warmup (two batches)
    has been collected; target parameters are soft-updated after every step.
    """

    def __init__(self, in_dim: int, n_actions: int, config: DQNConfig):
        # The buffer never holds more than its capacity, so below the warmup
        # no update would ever run, and a run waiting for updates would hang.
        if config.replay_capacity < config.warmup:
            raise ValueError(f"replay_capacity {config.replay_capacity} is below the warmup of "
                             f"{config.warmup} transitions (2 x batch_size {config.batch_size}); "
                             "no update would ever run")
        # The cap counts the whole capacity the buffer reserves once its first
        # block is full: per transition two float64 states, an int64 action
        # and duration, a float64 reward and a bool terminal.
        needed = config.replay_capacity * (16 * in_dim + 25)
        if needed > MAX_REPLAY_BYTES:
            raise ValueError(f"replay_capacity {config.replay_capacity} needs {needed / 2**30:.3g} "
                             f"GiB of replay memory for {in_dim} inputs, above the cap of "
                             f"{MAX_REPLAY_BYTES / 2**30:g} GiB")
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.net = QNetwork.build(in_dim, n_actions, self.rng)
        self.target = self.net.copy()
        self.optimizer = Adam(self.net, lr=config.lr)
        self.buffer = ReplayBuffer(config.replay_capacity)
        self.epsilon = EpsilonSchedule(config.eps_start, config.eps_end, config.eps_decay_steps)
        self.transitions_seen = 0
        self.updates_done = 0

    @property
    def n_actions(self) -> int:
        return self.net.out_dim

    def q_values(self, state: np.ndarray) -> np.ndarray:
        return qnet.forward(self.net, state)

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        eps = 0.0 if greedy else self.epsilon.value(self.transitions_seen)
        return select_action(lambda: self.q_values(state), eps, self.rng, self.n_actions)

    def observe(self, transition: Transition) -> float | None:
        """Store a transition; train once the warmup is met. Returns the loss."""
        self.buffer.store(transition)
        self.transitions_seen += 1
        if len(self.buffer) < self.config.warmup:
            return None
        batch = self.buffer.sample(self.config.batch_size, self.rng)
        loss = train_step(self.net, self.target, batch, self.config, self.optimizer)
        qnet.soft_update(self.target, self.net, self.config.tau)
        self.updates_done += 1
        return loss


class GreedyController:
    """A DQN agent acting greedily as a `reset()`/`decide(state)` controller.

    `meta` carries the stepping configuration `run_training` stores with a
    checkpoint: `variant`, `action_mode` and `process`. A network whose input
    or output size does not fit them on `spec` is refused. On the ticks
    `env.holds_phase` names for its process (yellow, and under "smdp" the tick
    the new phase lands) it keeps the current phase without running the
    network, as `TrafficEnv.smdp_step` folds those ticks into one transition.
    """

    def __init__(self, agent: DQNAgent, spec: IntersectionSpec, meta: dict):
        for key in STEPPING_KEYS:
            if key not in meta:
                raise ValueError(f"checkpoint meta lacks {key!r}")
        if meta["process"] not in PROCESSES:
            raise ValueError(f"checkpoint meta has unknown process {meta['process']!r}")
        self.agent = agent
        self.variant = meta["variant"]
        self.space = ActionSpace(meta["action_mode"], spec.n_phases)
        self.smdp = meta["process"] == "smdp"
        in_dim = observation_dim(self.variant, spec.n_lanes, spec.n_phases)
        if (agent.net.in_dim, agent.n_actions) != (in_dim, self.space.size):
            raise ValueError(
                f"checkpoint network takes {agent.net.in_dim} inputs and gives "
                f"{agent.n_actions} action values; the {self.variant!r} state of a "
                f"{spec.n_lanes}-lane, {spec.n_phases}-phase intersection has {in_dim} "
                f"and its {self.space.mode} action space {self.space.size}")

    def reset(self) -> None:
        pass

    def decide(self, state: SimState) -> int:
        if holds_phase(state, self.smdp):
            return state.signal.current_phase
        action = int(self.agent.q_values(observe(state, self.variant)).argmax())
        return decode_action(self.space, action, state.signal.current_phase)


CHECKPOINT_VERSION = 2

# The keys `run_training` stores in a checkpoint's meta, which `eval` and
# `sweep` read back: the config fields a `GreedyController` steps by, and the
# intersection document.
STEPPING_KEYS = ("variant", "action_mode", "process")
META_KEYS = STEPPING_KEYS + ("intersection",)


def save_checkpoint(path, agent: DQNAgent, meta: dict | None = None) -> None:
    """Write a version-2 checkpoint: the agent's four flat vectors (`net`,
    `target`, `adam_m`, `adam_v`) as they live, their `layers`, `adam_t`,
    `counters`, and `config`, `meta` and `rng_state` as JSON objects.

    The round trip through load_checkpoint is bit-exact. The file is
    replaced atomically: a save that fails leaves the previous one in place.
    """
    arrays = {
        "version": np.asarray(CHECKPOINT_VERSION, dtype=np.int64),
        "layers": np.asarray(agent.net.layer_sizes, dtype=np.int64),
        "net": agent.net.flat,
        "target": agent.target.flat,
        "adam_m": agent.optimizer.m,
        "adam_v": agent.optimizer.v,
        "adam_t": np.asarray(agent.optimizer.t, dtype=np.int64),
        "counters": np.asarray([agent.transitions_seen, agent.updates_done], dtype=np.int64),
        "config": np.asarray(json.dumps(asdict(agent.config), sort_keys=True)),
        "meta": np.asarray(json.dumps(meta or {}, sort_keys=True)),
        "rng_state": np.asarray(json.dumps(agent.rng.bit_generator.state, sort_keys=True)),
    }
    with core.output_file(path, binary=True) as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[DQNAgent, dict]:
    """Rebuild an agent (and its experiment metadata) from save_checkpoint output.

    The one reader of checkpoint files. It refuses, with a ValueError naming
    the path and the member, a file that is not a readable npz file, a
    version other than 2, a missing member, an array of another dtype or
    shape, a vector whose length does not fit `layers`, a negative `adam_t`
    or counter, a JSON block that is not an object, a config key `DQNConfig`
    does not know or a value it refuses, and an RNG state the generator
    refuses.
    """
    members = _read_npz(path)

    def refusal(name: str, problem: str) -> ValueError:
        return ValueError(f"checkpoint {path}: member {name!r} {problem}")

    def member(name: str, dtype, ndim: int) -> np.ndarray:
        if name not in members:
            raise refusal(name, "is missing")
        arr = np.asarray(members[name])
        if (arr.dtype.kind != "U" if dtype is str else arr.dtype != dtype) or arr.ndim != ndim:
            want = "string" if dtype is str else np.dtype(dtype).name
            raise refusal(name, f"must be a {ndim}-d {want} array, "
                                f"got a {arr.ndim}-d {arr.dtype} array")
        return arr

    def json_object(name: str) -> dict:
        try:
            value = json.loads(str(member(name, str, 0)))
        except json.JSONDecodeError as exc:
            raise refusal(name, f"is not JSON: {exc}") from None
        if not isinstance(value, dict):
            raise refusal(name, f"must be a JSON object, got {type(value).__name__}")
        return value

    version = int(member("version", np.int64, 0))
    if version != CHECKPOINT_VERSION:
        # Version 1 stored per-layer arrays. No such file is kept, and rerunning
        # a run's config and seed rewrites its checkpoint bit-exactly.
        raise ValueError(f"checkpoint {path} has format version {version}; this program "
                         f"reads version {CHECKPOINT_VERSION} only (retrain to rewrite it)")
    layers = member("layers", np.int64, 1).tolist()
    if len(layers) < 2 or min(layers) < 1:
        raise refusal("layers", f"must hold at least two sizes of at least 1, got {layers}")
    n = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layers, layers[1:]))
    vectors = {name: member(name, np.float64, 1) for name in ("net", "target", "adam_m", "adam_v")}
    for name, vector in vectors.items():
        if vector.size != n:
            raise refusal(name, f"has {vector.size} values, where layers {layers} take {n}")
    adam_t = int(member("adam_t", np.int64, 0))
    if adam_t < 0:
        raise refusal("adam_t", f"must be non-negative, got {adam_t}")
    counters = member("counters", np.int64, 1).tolist()
    if len(counters) != 2 or min(counters) < 0:
        raise refusal("counters", f"must hold two non-negative counts, got {counters}")
    config = json_object("config")
    core.reject_unknown_keys(f"checkpoint {path} config", config,
                             [f.name for f in fields(DQNConfig)])
    rng_state = json_object("rng_state")
    meta = json_object("meta")

    try:
        agent = DQNAgent(layers[0], layers[-1], DQNConfig(**config))
    except (TypeError, ValueError) as exc:
        raise refusal("config", f"is refused: {exc}") from None
    try:
        agent.rng.bit_generator.state = rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise refusal("rng_state", f"is refused by the generator: {exc!r}") from None
    agent.net = QNetwork(layers)
    agent.net.set_flat_parameters(vectors["net"])
    agent.target = QNetwork(layers)
    agent.target.set_flat_parameters(vectors["target"])
    agent.optimizer = Adam(agent.net, lr=agent.config.lr)
    agent.optimizer.m[...] = vectors["adam_m"]
    agent.optimizer.v[...] = vectors["adam_v"]
    agent.optimizer.t = adam_t
    agent.transitions_seen, agent.updates_done = counters
    return agent, meta


def _read_npz(path) -> dict:
    """Every member of the npz file at `path`, read in full."""
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("it holds one array, not an npz archive")
            with data:
                return {name: data[name] for name in data.files}
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"checkpoint {path} is not a readable npz file: {exc}") from None


def checkpoint_spec(path, meta: dict) -> IntersectionSpec:
    """The intersection a checkpoint's meta stores, loaded and checked.

    A meta that lacks one of `META_KEYS`, or an intersection document that
    does not load, is refused with a ValueError naming the path and the key.
    """
    for key in META_KEYS:
        if key not in meta:
            raise ValueError(f"checkpoint {path}: meta lacks {key!r}")
    try:
        return core.load_intersection(json.dumps(meta["intersection"]))
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: meta 'intersection': {exc}") from None
