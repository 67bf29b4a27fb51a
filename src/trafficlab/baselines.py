"""Rule-based signal controllers: fixed-time, random, and the two
threshold-integral schemes (cyclic cut-off and acyclic max-pressure variant)."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import IntersectionSpec, require_finite, require_integer
from .sim import APPROACHING, SimState


def fixed_policy(clock: int, n_phases: int, green_seconds: int = 20) -> int:
    """Rotate through phases on a fixed wall-clock schedule."""
    return (clock // green_seconds) % n_phases


def random_policy(rng: random.Random, n_phases: int) -> int:
    """Draw a target phase uniformly."""
    return rng.randrange(n_phases)


@dataclass
class SotlParams:
    threshold: float = 50.0        # vehicle-seconds of integrated demand to trigger
    cluster_split: int = 3         # platoon size above which cutting it off is allowed
    min_green: int = 5             # seconds a phase must hold before switching
    detection_distance: float = 80.0

    def __post_init__(self):
        require_finite("threshold", self.threshold)
        require_integer("cluster_split", self.cluster_split, 0)
        require_integer("min_green", self.min_green, 1)
        require_finite("detection_distance", self.detection_distance)


class FixedTimeController:
    def __init__(self, spec: IntersectionSpec):
        self.n_phases = spec.n_phases

    def reset(self) -> None:
        pass

    def decide(self, state: SimState) -> int:
        return fixed_policy(state.clock, self.n_phases)


class RandomController:
    def __init__(self, spec: IntersectionSpec, seed: int = 0):
        self.n_phases = spec.n_phases
        # random.Random(-s) is random.Random(s), so -s would repeat the run of s
        self.seed = require_integer("seed", seed, 0)
        self.reset()

    def reset(self) -> None:
        self.rng = random.Random(self.seed)

    def decide(self, state: SimState) -> int:
        return random_policy(self.rng, self.n_phases)


class _ThresholdController:
    """What the two threshold schemes share: their parameters, each phase's
    lanes and each lane's phases (the spec's `phase_lanes` and `lane_phases`),
    and the detectors, read in one walk per lane that adds each unserved
    lane's count straight into the controller's integrals (see `_walk`)."""

    def __init__(self, spec: IntersectionSpec, params: SotlParams | None = None):
        self.spec = spec
        self.params = params or SotlParams()
        self._phase_lanes = spec.phase_lanes
        self._lane_phases = spec.lane_phases
        self._edges = _edges(spec, self.params.detection_distance)
        # While yellow runs no lane is served.
        self._unserved = [False] * spec.n_lanes
        self.reset()

    def _detect(self, state: SimState, lane_sums, phase_sums, near_green: bool):
        """Adds the detectors' counts into the sums (see `_walk`); returns the
        approaching vehicles in range of the served lanes and the seconds of
        green."""
        sig = state.signal
        # A decision mid-yellow would be ignored by the environment, so no lane
        # is served and the phase clock reads 0 until the pending phase lands.
        if sig.yellow_remaining > 0:
            served, phase_green = self._unserved, 0
        else:
            served, phase_green = self.spec.lane_green[sig.current_phase], sig.time_in_phase
        approaching = _walk(state.lanes, self._edges, served, self._last, near_green,
                            lane_sums, phase_sums, self._lane_phases)
        return approaching, phase_green

    def reset(self) -> None:
        self._last = [0] * self.spec.n_lanes


class CutoffController(_ThresholdController):
    """Cyclic threshold scheme: integrate red-lane vehicle counts per phase and
    advance to the next phase once its integral exceeds the threshold."""

    def reset(self) -> None:
        super().reset()
        self.phase_integral = [0.0] * self.spec.n_phases

    def step(self, red_lane_counts, current_phase: int, phase_green_seconds: int) -> int:
        """Pure counter logic; red_lane_counts[j] must be 0 for green lanes.

        Each non-zero count is added to every phase that serves its lane, as
        `decide`'s walk adds it; this equals adding each phase's lane sum
        at once."""
        _integrate(red_lane_counts, None, self.phase_integral, self._lane_phases)
        return self._switch(current_phase, phase_green_seconds)

    def decide(self, state: SimState) -> int:
        _, phase_green = self._detect(state, None, self.phase_integral, False)
        return self._switch(state.signal.current_phase, phase_green)

    def _switch(self, current_phase: int, phase_green_seconds: int) -> int:
        integral = self.phase_integral
        nxt = (current_phase + 1) % self.spec.n_phases
        if phase_green_seconds > self.params.min_green and integral[nxt] > self.params.threshold:
            integral[nxt] = 0.0
            return nxt
        return current_phase


class MaxIntegralController(_ThresholdController):
    """Acyclic threshold scheme using per-lane integrals so that serving a lane
    clears its demand from every phase that shares it.

    Each phase's pressure, the sum of its lanes' integrals, is kept current:
    a count is added to its lane's integral and to every phase that serves
    the lane, and a lane zeroed by a switch has its integral taken off every
    such phase. Counts are ints and every value an integer-valued float far
    below 2^53, so the kept pressures are exactly the re-summed ones."""

    def reset(self) -> None:
        super().reset()
        self.lane_integral = [0.0] * self.spec.n_lanes
        self._pressure = [0.0] * self.spec.n_phases

    def phase_integrals(self) -> list[float]:
        """Per phase, the sum of its lanes' integrals: the kept pressures."""
        return list(self._pressure)

    def step(self, lane_counts, vehicles_near_green: int, current_phase: int,
             phase_green_seconds: int) -> int:
        """One controller tick: integrate counts, then maybe pick a new phase.

        The switch gate requires the minimum green to have elapsed, the platoon
        guard to be clear (never cut a crossing group smaller than
        cluster_split), and some phase integral to exceed the threshold. The
        winning phase is the integral argmax (lowest index on ties) and the
        integrals of its lanes reset to zero. Zero counts are not added.
        """
        _integrate(lane_counts, self.lane_integral, self._pressure, self._lane_phases)
        return self._switch(vehicles_near_green, current_phase, phase_green_seconds)

    def decide(self, state: SimState) -> int:
        # Vehicles passing a green light are being served, not waiting; the
        # approaching ones in range are the platoon the guard protects.
        near_green, phase_green = self._detect(state, self.lane_integral, self._pressure, True)
        return self._switch(near_green, state.signal.current_phase, phase_green)

    def _switch(self, vehicles_near_green: int, current_phase: int,
                phase_green_seconds: int) -> int:
        if phase_green_seconds <= self.params.min_green:
            return current_phase
        if 0 < vehicles_near_green < self.params.cluster_split:
            return current_phase
        pressure = self._pressure
        top = max(pressure)
        if top <= self.params.threshold:
            return current_phase
        best = pressure.index(top)
        integral, lane_phases = self.lane_integral, self._lane_phases
        for j in self._phase_lanes[best]:
            for i in lane_phases[j]:
                pressure[i] -= integral[j]
            integral[j] = 0.0
        return best


def _edges(spec: IntersectionSpec, detection_distance: float) -> list[float]:
    """Per lane, the position from which a vehicle is within detection range."""
    return [lane.length_m - detection_distance for lane in spec.lanes]


def _integrate(counts, lane_sums, phase_sums, lane_phases) -> None:
    """`_walk`'s rule for counts given: each non-zero count is added to its
    lane's sum (if `lane_sums` is not None) and to `phase_sums[i]` for every
    phase i in its lane's `lane_phases`. The counts must be one non-negative
    integer per lane, as the detectors give them, so the sums stay exact."""
    if len(counts) != len(lane_phases):
        raise ValueError(f"counts must have {len(lane_phases)} entries, one per lane, "
                         f"got {len(counts)}")
    for j, c in enumerate(counts):  # all checked first, so a refusal adds nothing
        require_integer(f"counts[{j}]", c, 0)
    for j, c in enumerate(counts):
        if c:
            if lane_sums is not None:
                lane_sums[j] += c
            for i in lane_phases[j]:
                phase_sums[i] += c


def _walk(lanes, edges, served, last, near_green: bool, lane_sums, phase_sums,
          lane_phases) -> int:
    """The detectors in one walk per lane, front first up to the detection edge.

    Each unserved lane's count, its vehicles in detection range, is added as
    `_integrate` adds it: to `lane_sums[j]` (if `lane_sums` is not None) and
    to `phase_sums[i]` for every i in `lane_phases[j]`; a served lane counts 0.
    Returns, if `near_green`, the approaching vehicles in range of the served
    lanes, else 0. Lanes are front first with falling positions, so an
    unserved lane's count is the index of its first vehicle behind the edge.
    The lane's count in `last` is reused unwalked when the vehicle before that
    index is in range and the one at it is not (or the lane ends there). That
    test reads only the lane as it is, so edits from outside and other states
    are counted right.
    """
    approaching = 0
    for j, lane in enumerate(lanes):
        if not lane:
            continue
        edge = edges[j]
        if served[j]:
            if near_green:
                for veh in lane:
                    if not veh.position >= edge:
                        break
                    if veh.status == APPROACHING:
                        approaching += 1
            continue
        n = last[j]
        if (n > len(lane) or (n and not lane[n - 1].position >= edge)
                or (n < len(lane) and lane[n].position >= edge)):
            n = 0
            for veh in lane:
                if not veh.position >= edge:
                    break
                n += 1
            last[j] = n
        if n:
            if lane_sums is not None:
                lane_sums[j] += n
            for i in lane_phases[j]:
                phase_sums[i] += n
    return approaching


def _detection_counts(state: SimState, detection_distance: float) -> list[int]:
    """Vehicles (moving or waiting) within detection range of each stop line."""
    n = len(state.lanes)
    counts = [0] * n
    _walk(state.lanes, _edges(state.spec, detection_distance), [False] * n, [0] * n, False,
          counts, None, [()] * n)
    return counts


def _approaching_near_line(state: SimState, lanes, detection_distance: float) -> int:
    """Approaching vehicles within detection range of the stop lines of `lanes`."""
    n = len(state.lanes)
    served = [j in lanes for j in range(n)]
    return _walk(state.lanes, _edges(state.spec, detection_distance), served, [0] * n, True,
                 None, None, [()] * n)


# Each baseline's name and its builder from (spec, sotl, seed).
_BUILDERS = {
    "fixed": lambda spec, sotl, seed: FixedTimeController(spec),
    "random": lambda spec, sotl, seed: RandomController(spec, seed=seed),
    "sotl1": lambda spec, sotl, seed: CutoffController(spec, sotl),
    "sotl2": lambda spec, sotl, seed: MaxIntegralController(spec, sotl),
}
CONTROLLER_NAMES = tuple(_BUILDERS)


def make_controller(name: str, spec: IntersectionSpec, sotl: SotlParams | None = None,
                    seed: int = 0):
    if name not in CONTROLLER_NAMES:  # a tuple test: an unhashable name is refused too
        raise ValueError(f"unknown controller {name!r}")
    return _BUILDERS[name](spec, sotl, seed)
