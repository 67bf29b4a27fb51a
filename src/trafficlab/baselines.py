"""Rule-based signal controllers: fixed-time, random, and the two
threshold-integral schemes (cyclic cut-off and acyclic max-pressure variant)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import IntersectionSpec, require_integers
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
        require_integers(self, "cluster_split", "min_green")
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        if self.min_green < 1:
            raise ValueError("min_green must be at least 1 second")
        if not 0 < self.detection_distance < math.inf:
            raise ValueError("detection_distance must be positive and finite")


class FixedTimeController:
    def __init__(self, spec: IntersectionSpec, green_seconds: int = 20):
        self.n_phases = spec.n_phases
        self.green_seconds = green_seconds

    def reset(self) -> None:
        pass

    def decide(self, state: SimState) -> int:
        return fixed_policy(state.clock, self.n_phases, self.green_seconds)


class RandomController:
    def __init__(self, spec: IntersectionSpec, seed: int = 0):
        self.n_phases = spec.n_phases
        self.seed = seed
        self.rng = random.Random(seed)

    def reset(self) -> None:
        self.rng = random.Random(self.seed)

    def decide(self, state: SimState) -> int:
        return random_policy(self.rng, self.n_phases)


class CutoffController:
    """Cyclic threshold scheme: integrate red-lane vehicle counts per phase and
    advance to the next phase once its integral exceeds the threshold."""

    def __init__(self, spec: IntersectionSpec, params: SotlParams | None = None):
        self.spec = spec
        self.params = params or SotlParams()
        self.phase_integral = [0.0] * spec.n_phases
        self._phase_lanes = [spec.green_lanes(p) for p in range(spec.n_phases)]
        # Per lane, the phases that serve it.
        self._lane_phases = [[i for i, lanes in enumerate(self._phase_lanes) if j in lanes]
                             for j in range(spec.n_lanes)]

    def reset(self) -> None:
        self.phase_integral = [0.0] * self.spec.n_phases

    def step(self, red_lane_counts, current_phase: int, phase_green_seconds: int) -> int:
        """Pure counter logic; red_lane_counts[j] must be 0 for green lanes.

        Each non-zero count is added to every phase that serves its lane; with
        int counts this equals adding each phase's lane sum at once."""
        integral = self.phase_integral
        for c, phases in zip(red_lane_counts, self._lane_phases):
            if c:
                for i in phases:
                    integral[i] += c
        nxt = (current_phase + 1) % self.spec.n_phases
        if phase_green_seconds > self.params.min_green and integral[nxt] > self.params.threshold:
            integral[nxt] = 0.0
            return nxt
        return current_phase

    def decide(self, state: SimState) -> int:
        counts = _detection_counts(state, self.params.detection_distance)
        sig = state.signal
        # A decision mid-yellow would be ignored by the environment, so the
        # phase clock is reported as 0 until the pending phase lands.
        if sig.yellow_remaining > 0:
            return self.step(counts, sig.current_phase, 0)
        for j in self._phase_lanes[sig.current_phase]:
            counts[j] = 0
        return self.step(counts, sig.current_phase, sig.time_in_phase)


class MaxIntegralController:
    """Acyclic threshold scheme using per-lane integrals so that serving a lane
    clears its demand from every phase that shares it."""

    def __init__(self, spec: IntersectionSpec, params: SotlParams | None = None):
        self.spec = spec
        self.params = params or SotlParams()
        self.lane_integral = [0.0] * spec.n_lanes
        self._phase_lanes = [spec.green_lanes(p) for p in range(spec.n_phases)]

    def reset(self) -> None:
        self.lane_integral = [0.0] * self.spec.n_lanes

    def phase_integrals(self) -> list[float]:
        """Per phase, the sum of its lanes' integrals, in frozenset order."""
        get = self.lane_integral.__getitem__
        return [sum(map(get, lanes)) for lanes in self._phase_lanes]

    def step(self, lane_counts, vehicles_near_green: int, current_phase: int,
             phase_green_seconds: int) -> int:
        """One controller tick: integrate counts, then maybe pick a new phase.

        The switch gate requires the minimum green to have elapsed, the platoon
        guard to be clear (never cut a crossing group smaller than
        cluster_split), and some phase integral to exceed the threshold. The
        winning phase is the integral argmax (lowest index on ties) and the
        integrals of its lanes reset to zero. Zero counts are not added.
        """
        integral = self.lane_integral
        for j, c in enumerate(lane_counts):
            if c:
                integral[j] += c
        if phase_green_seconds <= self.params.min_green:
            return current_phase
        if 0 < vehicles_near_green < self.params.cluster_split:
            return current_phase
        kappa = self.phase_integrals()
        best = 0
        for i in range(1, len(kappa)):
            if kappa[i] > kappa[best]:
                best = i
        if kappa[best] <= self.params.threshold:
            return current_phase
        for j in self._phase_lanes[best]:
            integral[j] = 0.0
        return best

    def decide(self, state: SimState) -> int:
        counts = _detection_counts(state, self.params.detection_distance)
        sig = state.signal
        in_yellow = sig.yellow_remaining > 0
        near_green = 0
        if not in_yellow:
            # Vehicles passing a green light are being served, not waiting, so
            # they contribute nothing to the demand integrals.
            for j in self._phase_lanes[sig.current_phase]:
                counts[j] = 0
            near_green = _approaching_near_line(
                state, self._phase_lanes[sig.current_phase], self.params.detection_distance
            )
        phase_green = 0 if in_yellow else sig.time_in_phase
        return self.step(counts, near_green, sig.current_phase, phase_green)


def _detection_counts(state: SimState, detection_distance: float) -> list[int]:
    """Vehicles (moving or waiting) within detection range of each stop line.

    Lanes are front first with falling positions, so counting stops at the
    first vehicle behind the detection edge.
    """
    counts = []
    for lane, lane_spec in zip(state.lanes, state.spec.lanes):
        n = 0
        if lane:
            edge = lane_spec.length_m - detection_distance
            for veh in lane:
                if not veh.position >= edge:
                    break
                n += 1
        counts.append(n)
    return counts


def _approaching_near_line(state: SimState, lanes, detection_distance: float) -> int:
    total = 0
    for j in lanes:
        lane = state.lanes[j]
        if not lane:
            continue
        edge = state.spec.lanes[j].length_m - detection_distance
        for veh in lane:
            if not veh.position >= edge:
                break
            if veh.status == APPROACHING:
                total += 1
    return total


CONTROLLER_NAMES = ("fixed", "random", "sotl1", "sotl2")


def make_controller(name: str, spec: IntersectionSpec, sotl: SotlParams | None = None,
                    seed: int = 0):
    if name == "fixed":
        return FixedTimeController(spec)
    if name == "random":
        return RandomController(spec, seed=seed)
    if name == "sotl1":
        return CutoffController(spec, sotl)
    if name == "sotl2":
        return MaxIntegralController(spec, sotl)
    raise ValueError(f"unknown controller {name!r}")
