"""Fixed, random, and threshold-controller tests with a re-integration oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficlab import core, sim
from trafficlab.baselines import (
    CutoffController,
    MaxIntegralController,
    SotlParams,
    _approaching_near_line,
    _detection_counts,
    fixed_policy,
    make_controller,
    random_policy,
    RandomController,
)
from trafficlab.sim import APPROACHING


class TestFixedPolicy:
    def test_first_window(self):
        assert fixed_policy(0, 8) == 0
        assert fixed_policy(19, 8) == 0

    def test_advances_at_twenty_seconds(self):
        assert fixed_policy(20, 8) == 1

    def test_cycle_closure(self):
        assert fixed_policy(20 * 8, 8) == 0

    def test_custom_green_window(self):
        assert fixed_policy(30, 4, green_seconds=15) == 2


class TestRandomController:
    def test_random_policy_single_phase(self):
        rng = random.Random(0)
        assert all(random_policy(rng, 1) == 0 for _ in range(100))

    def test_random_policy_same_seed_same_sequence(self):
        rng1, rng2 = random.Random(7), random.Random(7)
        assert [random_policy(rng1, 8) for _ in range(50)] == [
            random_policy(rng2, 8) for _ in range(50)
        ]

    def test_single_phase_always_zero(self):
        doc = """{"yellow_duration": 5,
                   "lanes": [{"length_m": 300.0, "vmax_ms": 11.0}],
                   "movements": [{"lane": 0, "approach": "N", "turn": "straight"}],
                   "phases": [[0]]}"""
        spec = core.load_intersection(doc)
        ctrl = RandomController(spec, seed=3)
        state = sim.init(spec, core.FlowDataset((), 10))
        assert all(ctrl.decide(state) == 0 for _ in range(100))

    def test_uniform_within_three_sigma(self, default_spec):
        ctrl = RandomController(default_spec, seed=5)
        state = sim.init(default_spec, core.FlowDataset((), 10))
        n = 10_000
        counts = [0] * default_spec.n_phases
        for _ in range(n):
            counts[ctrl.decide(state)] += 1
        p = 1 / default_spec.n_phases
        sigma = (n * p * (1 - p)) ** 0.5
        assert all(abs(c - n * p) < 3 * sigma for c in counts)

    def test_same_seed_same_sequence(self, default_spec):
        state = sim.init(default_spec, core.FlowDataset((), 10))
        a = RandomController(default_spec, seed=9)
        b = RandomController(default_spec, seed=9)
        assert [a.decide(state) for _ in range(50)] == [b.decide(state) for _ in range(50)]

    def test_reset_restarts_the_stream(self, default_spec):
        state = sim.init(default_spec, core.FlowDataset((), 10))
        ctrl = RandomController(default_spec, seed=9)
        first = [ctrl.decide(state) for _ in range(20)]
        ctrl.reset()
        assert [ctrl.decide(state) for _ in range(20)] == first

    def test_negative_seed_is_refused(self, default_spec):
        # random.Random(-2) is random.Random(2): seed -2 used to replay seed 2's run.
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -2$"):
            RandomController(default_spec, seed=-2)


class TestCutoffController:
    def test_no_vehicles_never_switches(self, two_phase_spec):
        ctrl = CutoffController(two_phase_spec, SotlParams(threshold=10, min_green=5))
        for t in range(1, 200):
            assert ctrl.step([0, 0, 0, 0], 0, t) == 0

    def test_hand_accumulated_switch_at_tick_six(self, two_phase_spec):
        # 2 vehicles per tick on the next phase's lanes, threshold 10,
        # min green 5: integral passes 10 at tick 6 (2*6=12) with the
        # green-time gate just opened.
        ctrl = CutoffController(two_phase_spec, SotlParams(threshold=10, min_green=5))
        decisions = []
        for t in range(1, 10):
            decisions.append(ctrl.step([0, 2, 0, 0], 0, t))
            if decisions[-1] != 0:
                break
        assert decisions == [0, 0, 0, 0, 0, 1]

    def test_counter_of_activated_phase_resets(self, two_phase_spec):
        ctrl = CutoffController(two_phase_spec, SotlParams(threshold=10, min_green=5))
        for t in range(1, 7):
            out = ctrl.step([0, 2, 0, 0], 0, t)
        assert out == 1
        assert ctrl.phase_integral[1] == 0.0

    def test_respects_min_green(self, two_phase_spec):
        ctrl = CutoffController(two_phase_spec, SotlParams(threshold=1, min_green=8))
        for t in range(1, 9):
            assert ctrl.step([0, 5, 0, 5], 0, t) == 0
        assert ctrl.step([0, 5, 0, 5], 0, 9) == 1


class BruteForceIntegrals:
    """Re-integrates lane counts from the full trace, applying per-lane resets
    at the recorded switch ticks. Independent of the controller's counters."""

    def __init__(self, spec):
        self.spec = spec
        self.trace = []          # per tick: lane counts
        self.reset_after = {j: -1 for j in range(spec.n_lanes)}

    def record(self, counts):
        self.trace.append(list(counts))

    def apply_reset(self, phase):
        for j in self.spec.green_lanes(phase):
            self.reset_after[j] = len(self.trace) - 1

    def lane_integral(self, j):
        return float(sum(row[j] for row in self.trace[self.reset_after[j] + 1 :]))

    def phase_integrals(self):
        return [
            sum(self.lane_integral(j) for j in self.spec.green_lanes(p))
            for p in range(self.spec.n_phases)
        ]


def shared_lane_spec():
    """Three phases over three lanes where lane 0 is shared by phases 0 and 1."""
    doc = """{
        "yellow_duration": 5,
        "lanes": [{"length_m": 150.0, "vmax_ms": 11.0},
                  {"length_m": 150.0, "vmax_ms": 11.0},
                  {"length_m": 150.0, "vmax_ms": 11.0}],
        "movements": [{"lane": 0, "approach": "N", "turn": "straight"},
                      {"lane": 1, "approach": "E", "turn": "straight"},
                      {"lane": 2, "approach": "S", "turn": "left"}],
        "conflicts": [[0, 2], [1, 2]],
        "phases": [[0, 1], [0], [2]]
    }"""
    return core.load_intersection(doc)


class TestMaxIntegralController:
    def test_zero_integrals_keep_current(self, two_phase_spec):
        ctrl = MaxIntegralController(two_phase_spec, SotlParams(threshold=8, min_green=2))
        assert ctrl.step([0, 0, 0, 0], 0, 0, 50) == 0

    def test_spec_example_switch_and_reset(self):
        # Four lanes, phases {0: lanes 0+1, 1: lanes 2+3}, integrals [5,0,9,0]:
        # pressures are [5, 9], 9 > 8 triggers a switch to phase 1 and resets
        # the integrals of its lanes, leaving [5, 0, 0, 0].
        doc = """{
            "yellow_duration": 5,
            "lanes": [{"length_m": 150.0, "vmax_ms": 11.0},
                      {"length_m": 150.0, "vmax_ms": 11.0},
                      {"length_m": 150.0, "vmax_ms": 11.0},
                      {"length_m": 150.0, "vmax_ms": 11.0}],
            "movements": [{"lane": 0, "approach": "N", "turn": "straight"},
                          {"lane": 1, "approach": "N", "turn": "left"},
                          {"lane": 2, "approach": "E", "turn": "straight"},
                          {"lane": 3, "approach": "E", "turn": "left"}],
            "conflicts": [[0, 2], [0, 3], [1, 2], [1, 3]],
            "phases": [[0, 1], [2, 3]]
        }"""
        spec = core.load_intersection(doc)
        ctrl = MaxIntegralController(spec, SotlParams(threshold=8, min_green=1, cluster_split=1))
        target = ctrl.step([5, 0, 9, 0], 0, 0, 10)
        assert ctrl.phase_integrals()[0] == 5.0
        assert target == 1
        assert ctrl.lane_integral == [5.0, 0.0, 0.0, 0.0]

    def test_shared_lane_reset_clears_both_pressures(self):
        # Serving the shared lane through phase 1 must remove its integral
        # from phase 0's pressure as well.
        spec = shared_lane_spec()
        ctrl = MaxIntegralController(spec, SotlParams(threshold=100, min_green=1))
        for _ in range(10):
            ctrl.step([4, 1, 0], 2, 0, 0)  # gate shut: accumulate only
        assert ctrl.phase_integrals() == [50.0, 40.0, 0.0]
        target = ctrl.step([4, 1, 0], 2, 2, 10)  # pressures now [54+... > 100? no
        assert target == 2  # threshold not crossed yet
        for _ in range(12):
            ctrl.step([4, 1, 0], 2, 0, 0)
        target = ctrl.step([4, 1, 0], 0, 2, 10)
        assert target == 0  # phase 0 has the max pressure and crossed 100
        assert ctrl.lane_integral[0] == 0.0 and ctrl.lane_integral[1] == 0.0
        # phase 1 shares lane 0, so its pressure dropped to zero too
        assert ctrl.phase_integrals()[1] == 0.0

    def test_platoon_guard_blocks_small_crossing_groups(self, two_phase_spec):
        params = SotlParams(threshold=5, min_green=1, cluster_split=3)
        ctrl = MaxIntegralController(two_phase_spec, params)
        # Big pressure on the other phase, but 2 vehicles (< 3) are mid-crossing.
        assert ctrl.step([0, 99, 0, 0], 2, 0, 10) == 0
        # A crossing group of 3 or more may be cut.
        assert ctrl.step([0, 99, 0, 0], 3, 0, 10) == 1

    def test_never_switches_before_min_green(self, two_phase_spec):
        params = SotlParams(threshold=1, min_green=7, cluster_split=1)
        rng = random.Random(0)
        ctrl = MaxIntegralController(two_phase_spec, params)
        for trial in range(300):
            counts = [rng.randint(0, 5) for _ in range(4)]
            green = rng.randint(0, 7)
            out = ctrl.step(counts, 0, 0, green)
            if green <= 7:
                assert out == 0

    def test_integrals_never_negative(self, two_phase_spec):
        rng = random.Random(4)
        ctrl = MaxIntegralController(two_phase_spec, SotlParams(threshold=20, min_green=2,
                                                                cluster_split=1))
        phase = 0
        for t in range(500):
            counts = [rng.randint(0, 3) for _ in range(4)]
            phase = ctrl.step(counts, 0, phase, rng.randint(0, 30))
            assert all(v >= 0 for v in ctrl.lane_integral)

    def test_matches_brute_force_oracle_on_random_traces(self, two_phase_spec):
        self._oracle_run(two_phase_spec, seeds=range(10))

    def test_matches_brute_force_oracle_with_shared_lanes(self):
        self._oracle_run(shared_lane_spec(), seeds=range(10))

    @staticmethod
    def _oracle_run(spec, seeds, ticks=200):
        for seed in seeds:
            rng = random.Random(seed)
            params = SotlParams(threshold=30, min_green=3, cluster_split=1)
            ctrl = MaxIntegralController(spec, params)
            oracle = BruteForceIntegrals(spec)
            phase = 0
            green_clock = 1
            for t in range(ticks):
                counts = [rng.randint(0, 4) for _ in range(spec.n_lanes)]
                oracle.record(counts)
                target = ctrl.step(counts, 0, phase, green_clock)
                # Oracle decision from re-integrated pressures, same gates.
                kappa = oracle.phase_integrals()
                best = max(range(len(kappa)), key=lambda i: (kappa[i], -i))
                if green_clock > params.min_green and kappa[best] > params.threshold:
                    expected = best
                    oracle.apply_reset(best)
                else:
                    expected = phase
                assert target == expected
                assert ctrl.phase_integrals() == pytest.approx(oracle.phase_integrals())
                if target != phase:
                    phase = target
                    green_clock = 1
                else:
                    green_clock += 1


class TestSotlEquivalence:
    def test_two_phase_four_approach_identical_switch_sequences(self, two_phase_spec):
        params = SotlParams(threshold=50.0, cluster_split=1, min_green=5,
                            detection_distance=80.0)
        profile = core.ClusteredProfile(5, 40, 2, (0.4, 0.1, 0.4, 0.1))
        for seed in range(5):
            flow = core.generate_flow(profile, seed=seed, duration=1200)
            seq1 = self.switch_sequence(CutoffController(two_phase_spec, params),
                                        two_phase_spec, flow)
            seq2 = self.switch_sequence(MaxIntegralController(two_phase_spec, params),
                                        two_phase_spec, flow)
            assert seq1 == seq2
            assert seq1  # the fixture does produce switches

    @staticmethod
    def switch_sequence(controller, spec, flow):
        state = sim.init(spec, flow)
        controller.reset()
        switches = []
        while state.clock < flow.duration:
            target = controller.decide(state)
            before = state.signal.current_phase
            sim.command_signal(state, target)
            if state.signal.yellow_remaining == spec.yellow_duration and target != before:
                switches.append((state.clock, before, target))
            sim.tick(state)
        return switches


class TestMakeController:
    def test_known_names(self, two_phase_spec):
        for name in ("fixed", "random", "sotl1", "sotl2"):
            ctrl = make_controller(name, two_phase_spec)
            assert hasattr(ctrl, "decide")

    def test_unknown_name_rejected(self, two_phase_spec):
        with pytest.raises(ValueError):
            make_controller("lqr", two_phase_spec)


class TestSotlParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SotlParams(threshold=0)
        with pytest.raises(ValueError):
            SotlParams(min_green=0)
        with pytest.raises(ValueError):
            SotlParams(detection_distance=-1)

    @pytest.mark.parametrize("field", ["threshold", "detection_distance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SotlParams(**{field: value})

    @pytest.mark.parametrize("field", ["cluster_split", "min_green"])
    def test_a_value_that_is_not_an_integer_is_refused_by_name(self, field):
        for value in (float("nan"), float("inf"), 2.5, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SotlParams(**{field: value})


# The per-phase controllers and detectors as they were before the per-lane
# integration, kept verbatim (bar names) as references: the controllers above
# must decide and integrate bit for bit as these do.
class ReferenceCutoffController:
    def __init__(self, spec, params=None):
        self.spec = spec
        self.params = params or SotlParams()
        self.phase_integral = [0.0] * spec.n_phases
        self._phase_lanes = [spec.green_lanes(p) for p in range(spec.n_phases)]

    def reset(self) -> None:
        self.phase_integral = [0.0] * self.spec.n_phases

    def step(self, red_lane_counts, current_phase: int, phase_green_seconds: int) -> int:
        for i, lanes in enumerate(self._phase_lanes):
            self.phase_integral[i] += sum(red_lane_counts[j] for j in lanes)
        nxt = (current_phase + 1) % self.spec.n_phases
        if phase_green_seconds > self.params.min_green and self.phase_integral[nxt] > self.params.threshold:
            self.phase_integral[nxt] = 0.0
            return nxt
        return current_phase

    def decide(self, state) -> int:
        counts = reference_detection_counts(state, self.params.detection_distance)
        sig = state.signal
        in_yellow = sig.yellow_remaining > 0
        green_lanes = set() if in_yellow else self._phase_lanes[sig.current_phase]
        red_counts = [0 if j in green_lanes else c for j, c in enumerate(counts)]
        phase_green = 0 if in_yellow else sig.time_in_phase
        return self.step(red_counts, sig.current_phase, phase_green)


class ReferenceMaxIntegralController:
    def __init__(self, spec, params=None):
        self.spec = spec
        self.params = params or SotlParams()
        self.lane_integral = [0.0] * spec.n_lanes
        self._phase_lanes = [spec.green_lanes(p) for p in range(spec.n_phases)]

    def reset(self) -> None:
        self.lane_integral = [0.0] * self.spec.n_lanes

    def phase_integrals(self) -> list[float]:
        return [
            sum(self.lane_integral[j] for j in lanes) for lanes in self._phase_lanes
        ]

    def step(self, lane_counts, vehicles_near_green: int, current_phase: int,
             phase_green_seconds: int) -> int:
        for j, c in enumerate(lane_counts):
            self.lane_integral[j] += c
        if phase_green_seconds <= self.params.min_green:
            return current_phase
        if 0 < vehicles_near_green < self.params.cluster_split:
            return current_phase
        kappa = self.phase_integrals()
        best = max(range(len(kappa)), key=lambda i: (kappa[i], -i))
        if kappa[best] <= self.params.threshold:
            return current_phase
        for j in self._phase_lanes[best]:
            self.lane_integral[j] = 0.0
        return best

    def decide(self, state) -> int:
        counts = reference_detection_counts(state, self.params.detection_distance)
        sig = state.signal
        in_yellow = sig.yellow_remaining > 0
        near_green = 0
        if not in_yellow:
            for j in self._phase_lanes[sig.current_phase]:
                counts[j] = 0
            near_green = reference_approaching_near_line(
                state, self._phase_lanes[sig.current_phase], self.params.detection_distance
            )
        phase_green = 0 if in_yellow else sig.time_in_phase
        return self.step(counts, near_green, sig.current_phase, phase_green)


def reference_detection_counts(state, detection_distance: float) -> list[int]:
    counts = []
    for j, lane in enumerate(state.lanes):
        edge = state.spec.lanes[j].length_m - detection_distance
        n = 0
        for veh in lane:
            if not veh.position >= edge:
                break
            n += 1
        counts.append(n)
    return counts


def reference_approaching_near_line(state, lanes, detection_distance: float) -> int:
    total = 0
    for j in lanes:
        edge = state.spec.lanes[j].length_m - detection_distance
        for veh in state.lanes[j]:
            if not veh.position >= edge:
                break
            if veh.status == APPROACHING:
                total += 1
    return total


SPECS = (core.default_intersection(), core.two_phase_intersection(lane_length_m=150.0),
         shared_lane_spec())
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Mostly zeros, as on a lightly loaded network, so the zero skip is exercised.
COUNTS = st.sampled_from((0, 0, 0, 1, 2, 3, 7, 40))


def exact_state(controller):
    """The controller's integrals as reprs, so types and -0.0 show."""
    if isinstance(controller, (CutoffController, ReferenceCutoffController)):
        return repr(controller.phase_integral)
    return repr((controller.lane_integral, controller.phase_integrals()))


@st.composite
def sotl_params(draw):
    return SotlParams(threshold=draw(st.sampled_from((0.5, 1.0, 7.0, 30.0, 50.0, 200.0))),
                      cluster_split=draw(st.integers(0, 5)),
                      min_green=draw(st.integers(1, 12)),
                      detection_distance=draw(st.sampled_from((5.0, 40.0, 80.0, 150.0, 400.0))))


@st.composite
def episodes(draw):
    spec = draw(st.sampled_from(SPECS))
    duration = draw(st.integers(20, 400))
    spawns = sorted(draw(st.lists(st.integers(0, duration - 1), max_size=150)))
    vehicles = tuple(core.Vehicle(k, t, draw(st.integers(0, len(spec.movements) - 1)))
                     for k, t in enumerate(spawns))
    return spec, core.FlowDataset(vehicles, duration=duration), draw(sotl_params())


@PROPERTY_SETTINGS
@given(episodes(), st.sampled_from(("sotl1", "sotl2")))
def test_sotl_decide_matches_the_per_phase_reference(episode, name):
    spec, flow, params = episode
    new_cls, ref_cls = {"sotl1": (CutoffController, ReferenceCutoffController),
                        "sotl2": (MaxIntegralController, ReferenceMaxIntegralController)}[name]
    ctrl, ref = new_cls(spec, params), ref_cls(spec, params)
    state = sim.init(spec, flow)
    while state.clock < flow.duration:
        if name == "sotl2":
            for lanes in ctrl._phase_lanes:
                assert (_approaching_near_line(state, lanes, params.detection_distance)
                        == reference_approaching_near_line(state, lanes, params.detection_distance))
        assert (_detection_counts(state, params.detection_distance)
                == reference_detection_counts(state, params.detection_distance))
        target = ctrl.decide(state)
        assert target == ref.decide(state)
        assert exact_state(ctrl) == exact_state(ref)
        sim.command_signal(state, target)
        sim.tick(state)


@PROPERTY_SETTINGS
@given(st.sampled_from(SPECS), sotl_params(), st.data())
def test_sotl_step_matches_the_per_phase_reference(spec, params, data):
    pairs = ((CutoffController(spec, params), ReferenceCutoffController(spec, params)),
             (MaxIntegralController(spec, params), ReferenceMaxIntegralController(spec, params)))
    for ctrl, ref in pairs:
        for _ in range(data.draw(st.integers(1, 80))):
            counts = data.draw(st.lists(COUNTS, min_size=spec.n_lanes, max_size=spec.n_lanes))
            phase = data.draw(st.integers(0, spec.n_phases - 1))
            green = data.draw(st.integers(0, 15))
            if isinstance(ctrl, CutoffController):
                args = (counts, phase, green)
            else:
                args = (counts, data.draw(st.integers(0, 6)), phase, green)
            assert ctrl.step(*args) == ref.step(*args)
            assert exact_state(ctrl) == exact_state(ref)


def test_lane_phases_list_every_phase_that_serves_a_lane():
    ctrl = CutoffController(SPECS[0])
    assert all(len(phases) == 2 for phases in ctrl._lane_phases)
    assert CutoffController(shared_lane_spec())._lane_phases == [[0, 1], [0], [2]]


def test_argmax_tie_keeps_the_lowest_phase():
    ctrl = MaxIntegralController(shared_lane_spec(),
                                 SotlParams(threshold=1, min_green=1, cluster_split=1))
    # Lane 0 alone: phases 0 and 1 tie on 9 and phase 0 wins.
    assert ctrl.step([9, 0, 0], 0, 2, 5) == 0
    ctrl.reset()
    assert ctrl.step([0, 0, 9], 0, 2, 5) == 2


# Each malformed count list and its refusal on the 4-lane two-phase spec.
# [3] used to integrate lane 0 alone, a fifth count to end in a bare
# IndexError, -4 to make a lane integral -4.0, True to count as 1, "2" to end
# in a bare TypeError and 0.5 to make the kept pressures drift from re-summed
# ones.
MALFORMED_COUNTS = {
    "short": ([3], r"^counts must have 4 entries, one per lane, got 1$"),
    "long": ([0, 0, 0, 0, 5], r"^counts must have 4 entries, one per lane, got 5$"),
    "negative": ([-4, 0, 0, 0], r"^counts\[0\] must be non-negative, got -4$"),
    "bool": ([True, 0, 0, 0], r"^counts\[0\] must be an integer, got True$"),
    "text": (["2", 0, 0, 0], r"^counts\[0\] must be an integer, got '2'$"),
    "fraction": ([0.5, 0, 0, 0], r"^counts\[0\] must be an integer, got 0\.5$"),
    "after-a-good-count": ([3, -1, 0, 0], r"^counts\[1\] must be non-negative, got -1$"),
}


@pytest.mark.parametrize("name", ["sotl1", "sotl2"])
@pytest.mark.parametrize("case", MALFORMED_COUNTS)
def test_step_refuses_malformed_counts_and_adds_nothing(two_phase_spec, name, case):
    counts, message = MALFORMED_COUNTS[case]
    ctrl = make_controller(name, two_phase_spec)
    rest = (0, 0) if name == "sotl1" else (0, 0, 0)  # phase 0 at 0 s of green: no switch
    ctrl.step([2, 0, 1, 0], *rest)
    before = exact_state(ctrl)
    with pytest.raises(ValueError, match=message):
        ctrl.step(counts, *rest)
    assert exact_state(ctrl) == before != exact_state(make_controller(name, two_phase_spec))
