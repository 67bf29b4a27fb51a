"""RL view of the simulator: state encodings, reward, MDP and SMDP stepping."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import sim
from .core import FlowDataset, IntersectionSpec
from .sim import DEFAULT_MIN_SPACING_M, SimState

# Observation variants and their per-lane blocks. "combined" folds waiting and
# approaching counts into a single per-lane total; the others expose separate
# blocks in the order [waiting | approaching | distance | speed], each followed
# by the phase one-hot.
_BLOCKS = {"combined": 1, "wa": 2, "wad": 3, "wads": 4}
VARIANTS = tuple(_BLOCKS)
ACTION_MODES = ("cyclic", "acyclic")  # see ActionSpace
PROCESSES = ("mdp", "smdp")  # see TrafficEnv


def observation_dim(variant: str, n_lanes: int, n_phases: int) -> int:
    if variant not in _BLOCKS:
        raise ValueError(f"unknown state variant {variant!r}")
    return _BLOCKS[variant] * n_lanes + n_phases


def lane_capacity(length_m: float) -> int:
    """Structural normalizer: how many jam-spaced vehicles fit on the lane."""
    return max(1, int(length_m // DEFAULT_MIN_SPACING_M))


# A one-entry memo: the spec observed last and its per-lane divisors, one row
# per block (capacity, capacity, length, speed limit). Observing another spec
# only rebuilds it.
_scales = (None, None)


def observe(state: SimState, variant: str) -> np.ndarray:
    """Encode the world as a vector in [0, 1]^dim with a trailing phase one-hot.

    Counts normalize by lane capacity, distances by lane length, speeds by the
    lane speed limit; all entries are clamped to [0, 1]. The numbers are the
    clock's memoised `sim.lane_metrics`, divided block by block.
    """
    global _scales
    out = np.zeros(observation_dim(variant, state.spec.n_lanes, state.spec.n_phases))
    spec, scales = _scales
    if spec is not state.spec:
        spec = state.spec
        scales = np.array([(lane_capacity(lane.length_m),) * 2 + (lane.length_m, lane.vmax_ms)
                           for lane in spec.lanes], dtype=np.float64).T
        _scales = (spec, scales)
    j = spec.n_lanes
    blocks = _BLOCKS[variant]
    metrics = np.fromiter(chain.from_iterable(sim.lane_metrics(state)), np.float64,
                          4 * j).reshape(j, 4).T
    if variant == "combined":
        np.divide(metrics[0] + metrics[1], scales[0], out=out[:j])
    else:
        np.divide(metrics[:blocks], scales[:blocks], out=out[: blocks * j].reshape(blocks, j))
    out.clip(0.0, 1.0, out=out)
    out[blocks * j + state.signal.current_phase] = 1.0
    return out


def reward(state: SimState) -> float:
    """Negative total queue length (raw waiting-vehicle count over all lanes)."""
    return -float(sum(m[0] for m in sim.lane_metrics(state)))


@dataclass(frozen=True)
class ActionSpace:
    """cyclic: {keep, advance to next phase}. acyclic: pick any phase directly."""

    mode: str
    n_phases: int

    def __post_init__(self):
        if self.mode not in ACTION_MODES:
            raise ValueError(f"unknown action mode {self.mode!r}")
        if self.size < 2:
            raise ValueError("need at least two actions; acyclic control requires 2+ phases")

    @property
    def size(self) -> int:
        return 2 if self.mode == "cyclic" else self.n_phases


def decode_action(space: ActionSpace, action: int, current_phase: int) -> int:
    if not (0 <= action < space.size):
        raise ValueError(f"action {action} out of range for {space.mode} space")
    if space.mode == "cyclic":
        return current_phase if action == 0 else (current_phase + 1) % space.n_phases
    return action


def holds_phase(state: SimState, smdp: bool) -> bool:
    """Whether a policy does not act now: while yellow runs and, under SMDP, on
    the tick the new phase lands. `TrafficEnv.smdp_step` folds those ticks into
    one transition; `agents.GreedyController` keeps the phase on them."""
    sig = state.signal
    return sig.yellow_remaining > 0 or (smdp and sig.time_in_phase == 0 and state.clock > 0)


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    duration: int
    terminal: bool


class TrafficEnv:
    """One episode is one flow file; the episode ends at the flow horizon.

    mdp_step advances one second per decision; smdp_step folds the whole
    yellow period of a switch into a single variable-duration transition with
    discount-weighted reward.

    `env.state` advances only through `reset` and the steps: a step's
    `Transition.state` is the observation the env last returned (from `reset`
    or as the previous step's `next_state`), not a fresh observe of
    `env.state`, so a change made to `env.state` from outside shows only from
    the next `next_state` on.
    """

    def __init__(
        self,
        spec: IntersectionSpec,
        flow: FlowDataset,
        variant: str = "wads",
        action_mode: str = "acyclic",
        gamma: float = 0.99,
        horizon: int | None = None,
    ):
        if not (0.0 <= gamma <= 1.0):
            raise ValueError("gamma must be in [0, 1]")
        self.spec = spec
        self.flow = flow
        self.variant = variant
        self.action_space = ActionSpace(action_mode, spec.n_phases)
        self.gamma = gamma
        self.horizon = flow.duration if horizon is None else horizon
        if self.horizon < 1:  # an episode that is over at its reset has no step to take
            raise ValueError(f"flow {flow.label!r}: the episode horizon must be at least 1 s, "
                             f"got {self.horizon}")
        self.state: SimState | None = None
        self.raw_return = 0.0  # undiscounted per-tick reward sum this episode
        self._observation: np.ndarray | None = None  # last returned; the next step's state

    def reset(self) -> np.ndarray:
        self.state = sim.init(self.spec, self.flow)
        self.raw_return = 0.0
        self._observation = observe(self.state, self.variant)
        return self._observation

    @property
    def terminal(self) -> bool:
        return self.state is None or self.state.clock >= self.horizon

    def _tick_reward(self) -> float:
        sim.tick(self.state)
        r = reward(self.state)
        self.raw_return += r
        return r

    def _transition(self, action: int, r: float, duration: int) -> Transition:
        """The transition from the observation last returned to a fresh one."""
        before = self._observation
        self._observation = observe(self.state, self.variant)
        return Transition(before, action, r, self._observation, duration, self.terminal)

    def mdp_step(self, action: int) -> Transition:
        if self.terminal:
            raise RuntimeError("cannot step a terminal episode")
        target = decode_action(self.action_space, action, self.state.signal.current_phase)
        sim.command_signal(self.state, target)
        return self._transition(action, self._tick_reward(), 1)

    def smdp_step(self, action: int) -> Transition:
        if self.terminal:
            raise RuntimeError("cannot step a terminal episode")
        if self.state.signal.yellow_remaining > 0:
            raise RuntimeError("smdp_step owns the yellow period; the simulator is mid-yellow")
        target = decode_action(self.action_space, action, self.state.signal.current_phase)
        sim.command_signal(self.state, target)  # a keep is a no-op
        r = self.gamma * self._tick_reward()
        duration = 1
        while not self.terminal and holds_phase(self.state, True):
            duration += 1
            r += (self.gamma ** duration) * self._tick_reward()
        return self._transition(action, r, duration)
