"""Kinematics, signal dynamics, conservation, and determinism tests."""

import random

import pytest

from trafficlab import core, sim
from trafficlab.core import FlowDataset, UniformProfile, Vehicle
from trafficlab.sim import APPROACHING, WAITING, VehicleState


def place(state, lane, position, speed=0.0, vid=None, spawn=0):
    """Drop a vehicle directly onto a lane (front first ordering preserved)."""
    vid = vid if vid is not None else 1000 + sum(len(l) for l in state.lanes)
    veh = VehicleState(
        id=vid, lane=lane, position=position, speed=speed,
        status=WAITING if speed < sim.WAITING_SPEED_MS else APPROACHING,
        spawn_time=spawn, body_length=5.0,
    )
    state.lanes[lane].append(veh)
    state.lanes[lane].sort(key=lambda v: -v.position)
    return veh


def empty_flow(duration=3600):
    return FlowDataset((), duration=duration)


def counts(state):
    return state.on_network(), state.in_backlog(), len(state.completed)


def conservation_ok(state):
    return state.spawned == sum(counts(state))


def state_digest(state):
    lanes = tuple(
        tuple((v.id, v.position, v.speed, v.status) for v in lane) for lane in state.lanes
    )
    sig = state.signal
    return (state.clock, sig.current_phase, sig.yellow_remaining, sig.pending_phase,
            sig.time_in_phase, lanes, tuple(state.completed))


class TestInit:
    def test_empty_flow_never_completes(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow(100))
        for _ in range(100):
            sim.tick(state)
            assert state.completed == []

    def test_single_vehicle_present_after_first_tick(self, two_phase_spec):
        flow = FlowDataset((Vehicle(0, 0, 0),), duration=60)
        state = sim.init(two_phase_spec, flow)
        sim.tick(state)
        assert state.spawned == 1
        assert state.on_network() + state.in_backlog() == 1
        assert conservation_ok(state)

    @pytest.mark.parametrize("movement", [4, -1])
    def test_movement_outside_spec_rejected(self, two_phase_spec, movement):
        # Used to load and then die mid-episode with an IndexError (or, for
        # -1, silently route to the last lane).
        flow = FlowDataset((Vehicle(0, 0, 0), Vehicle(7, 3, movement)), duration=60)
        with pytest.raises(ValueError, match=rf"vehicle 7: movement {movement} "):
            sim.init(two_phase_spec, flow)

    def test_duplicate_vehicle_id_rejected(self, two_phase_spec):
        flow = FlowDataset((Vehicle(5, 0, 0), Vehicle(6, 1, 1), Vehicle(5, 2, 2)), duration=60)
        with pytest.raises(ValueError, match="vehicle 5: id is used by another vehicle"):
            sim.init(two_phase_spec, flow)

    def test_init_is_pure(self, two_phase_spec, clustered_flow):
        a = sim.init(two_phase_spec, clustered_flow)
        b = sim.init(two_phase_spec, clustered_flow)
        assert a == b
        assert a.clock == 0
        assert a.signal.current_phase == 0
        assert a.signal.yellow_remaining == 0


class TestCommandSignal:
    def test_same_phase_is_noop(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        before = state_digest(state)
        sim.command_signal(state, 0)
        assert state_digest(state) == before

    def test_switch_starts_five_second_yellow(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        sim.command_signal(state, 1)
        assert state.signal.yellow_remaining == 5
        assert state.signal.pending_phase == 1

    def test_commands_during_yellow_are_ignored(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        sim.command_signal(state, 1)
        sim.tick(state)
        sim.command_signal(state, 0)
        assert state.signal.pending_phase == 1
        assert state.signal.yellow_remaining == 4

    def test_invalid_phase_rejected(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        with pytest.raises(ValueError):
            sim.command_signal(state, 2)

    def test_yellow_lands_after_exactly_five_ticks(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        sim.command_signal(state, 1)
        for k in range(5):
            assert state.signal.current_phase == 0
            sim.tick(state)
        assert state.signal.current_phase == 1
        assert state.signal.yellow_remaining == 0
        assert state.signal.time_in_phase == 0


class TestTick:
    def test_unobstructed_green_motion(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        veh = place(state, lane=0, position=0.0)  # lane 0 green in phase 0
        sim.tick(state)
        assert veh.position == 11.0
        assert veh.speed == 11.0
        assert veh.status == APPROACHING

    def test_stop_line_cap_then_waiting(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        veh = place(state, lane=1, position=149.0)  # lane 1 red in phase 0
        sim.tick(state)
        assert veh.position == 150.0
        assert veh.speed == 1.0
        assert veh.status == APPROACHING
        sim.tick(state)
        assert veh.position == 150.0
        assert veh.speed == 0.0
        assert veh.status == WAITING

    def test_queue_of_three_discharge(self, two_phase_spec):
        # Hand simulation of the update rule with L=150, vmax=11, spacing 7.5:
        # tick 1: front target 161 >= 150 exits; second target
        # min(142.5+11, 161-7.5)=153.5 >= 150 exits; third target
        # min(135+11, 153.5-7.5)=146 < 150 moves at 11. tick 2: third exits.
        state = sim.init(two_phase_spec, empty_flow())
        place(state, 0, 150.0, vid=1)
        place(state, 0, 142.5, vid=2)
        place(state, 0, 135.0, vid=3)
        sim.tick(state)
        assert [c[0] for c in state.completed] == [1, 2]
        assert state.lanes[0][0].id == 3
        assert state.lanes[0][0].position == 146.0
        assert state.lanes[0][0].speed == 11.0
        sim.tick(state)
        assert [c[0] for c in state.completed] == [1, 2, 3]

    def test_no_exit_on_red(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        place(state, 1, 150.0)
        for _ in range(10):
            sim.tick(state)
        assert state.completed == []

    def test_no_exit_during_yellow(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        place(state, 0, 150.0)
        sim.command_signal(state, 1)
        for _ in range(5):
            sim.tick(state)
            assert state.completed == []
        sim.tick(state)  # phase 1 green now; lane 0 is red
        assert state.completed == []

    def test_backlog_entry_requires_jam_spacing(self, two_phase_spec):
        flow = FlowDataset((Vehicle(0, 0, 1), Vehicle(1, 0, 1)), duration=60)
        state = sim.init(two_phase_spec, flow)  # lane 1 red under phase 0
        sim.tick(state)
        assert state.on_network() == 1
        assert state.in_backlog() == 1
        sim.tick(state)  # entrant stuck at 0 on red far from line? no: it moves
        # the first vehicle drives until the stop line; the second enters once
        # the first is 7.5 m in
        assert state.on_network() == 2
        assert conservation_ok(state)


class TestLaneMetrics:
    def test_empty_lane(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        assert sim.lane_metrics(state)[0] == (0, 0, 0.0, 0.0)

    def test_single_approaching_vehicle(self):
        spec = core.two_phase_intersection(lane_length_m=300.0)
        state = sim.init(spec, empty_flow())
        place(state, 0, 100.0, speed=11.0)
        w, a, d, s = sim.lane_metrics(state)[0]
        assert (w, a) == (0, 1)
        assert d == 200.0
        assert s == 11.0

    def test_mean_of_two_approaching(self):
        spec = core.two_phase_intersection(lane_length_m=300.0)
        state = sim.init(spec, empty_flow())
        place(state, 0, 250.0, speed=11.0)
        place(state, 0, 150.0, speed=5.0)
        w, a, d, s = sim.lane_metrics(state)[0]
        assert (w, a) == (0, 2)
        assert d == 100.0
        assert s == 8.0

    def test_waiting_not_counted_in_approaching_means(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        place(state, 0, 150.0, speed=0.0)
        place(state, 0, 100.0, speed=11.0)
        w, a, d, s = sim.lane_metrics(state)[0]
        assert (w, a) == (1, 1)
        assert d == 50.0
        assert s == 11.0

    def test_memo_is_refreshed_by_a_tick(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        red = next(j for j in range(two_phase_spec.n_lanes)
                   if j not in two_phase_spec.green_lanes(0))
        place(state, red, 100.0, speed=11.0)
        first = sim.lane_metrics(state)
        assert first[red] == (0, 1, 50.0, 11.0)
        assert sim.lane_metrics(state) is first
        sim.tick(state)
        assert sim.lane_metrics(state)[red] == (0, 1, 39.0, 11.0)
        for _ in range(10):  # it reaches the stop line and settles there
            sim.tick(state)
        assert state._head[red] == 1
        assert sim.lane_metrics(state)[red] == (1, 0, 0.0, 0.0)

    def test_outside_change_shows_from_the_next_clock(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        assert sim.lane_metrics(state)[0] == (0, 0, 0.0, 0.0)
        place(state, 0, 150.0)
        assert sim.lane_metrics(state)[0] == (0, 0, 0.0, 0.0)
        sim.command_signal(state, 1)
        sim.tick(state)
        assert sim.lane_metrics(state)[0] == (1, 0, 0.0, 0.0)

    def test_result_cannot_be_mutated(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        place(state, 0, 150.0)
        metrics = sim.lane_metrics(state)
        with pytest.raises(TypeError):
            metrics[0] = (0, 0, 0.0, 0.0)
        with pytest.raises(TypeError):
            metrics[0][0] = 0
        with pytest.raises(AttributeError):
            metrics.append((0, 0, 0.0, 0.0))
        assert sim.lane_metrics(state)[0] == (1, 0, 0.0, 0.0)


class TestAvgTravelTime:
    def test_mean_of_completed_trips(self, two_phase_spec):
        flow = FlowDataset((Vehicle(0, 0, 0), Vehicle(1, 10, 0)), duration=100)
        state = sim.init(two_phase_spec, flow)
        state.clock = 100
        state.completed = [(0, 0, 30), (1, 10, 60)]
        assert sim.avg_travel_time(state, flow) == pytest.approx(40.0)

    def test_unfinished_trips_truncate_at_horizon(self, two_phase_spec):
        flow = FlowDataset((Vehicle(0, 0, 0), Vehicle(1, 80, 0)), duration=100)
        state = sim.init(two_phase_spec, flow)
        state.clock = 100
        state.completed = [(0, 0, 30)]
        assert sim.avg_travel_time(state, flow) == pytest.approx((30 + 20) / 2)

    def test_empty_flow_is_an_error(self, two_phase_spec):
        flow = empty_flow(100)
        state = sim.init(two_phase_spec, flow)
        state.clock = 100
        with pytest.raises(ValueError, match="empty flow"):
            sim.avg_travel_time(state, flow)

    def test_random_policy_worse_than_green_favoring(self, two_phase_spec):
        flow = core.generate_flow(
            core.ClusteredProfile(4, 20, 2, (1.0,)), seed=3, duration=400, label="one-lane"
        )
        rng = random.Random(0)

        def run(policy):
            state = sim.init(two_phase_spec, flow)
            while state.clock < flow.duration:
                sim.command_signal(state, policy())
                sim.tick(state)
            return sim.avg_travel_time(state, flow)

        favoring = run(lambda: 0)  # lane 0 is green in phase 0
        randomized = run(lambda: rng.randrange(2))
        assert randomized > favoring


class TestInvariants:
    def random_spec(self, rng):
        n_arms = rng.choice([2, 4])
        if n_arms == 2:
            doc = {
                "yellow_duration": rng.randint(2, 6),
                "lanes": [
                    {"length_m": rng.choice([150.0, 300.0]), "vmax_ms": rng.choice([8.0, 11.0])}
                    for _ in range(2)
                ],
                "movements": [
                    {"lane": 0, "approach": "N", "turn": "straight"},
                    {"lane": 1, "approach": "E", "turn": "straight"},
                ],
                "conflicts": [[0, 1]],
                "phases": [[0], [1]],
            }
            import json

            return core.load_intersection(json.dumps(doc))
        return core.two_phase_intersection(
            lane_length_m=rng.choice([150.0, 300.0]), yellow_duration=rng.randint(2, 6)
        )

    def run_random(self, rng, ticks=400):
        spec = self.random_spec(rng)
        flow = core.generate_flow(
            UniformProfile(rng.choice([0.01, 0.03]), spec.n_lanes),
            seed=rng.randint(0, 10_000),
            duration=ticks,
        )
        state = sim.init(spec, flow)
        digests = []
        for t in range(ticks):
            if rng.random() < 0.05:
                sim.command_signal(state, rng.randrange(spec.n_phases))
            sim.tick(state)
            assert conservation_ok(state)
            digests.append(state_digest(state))
        return spec, flow, state, digests

    def test_conservation_and_determinism(self):
        for seed in range(6):
            rng = random.Random(seed)
            spec, flow, state, digests = self.run_random(rng)
            rng2 = random.Random(seed)
            spec2, flow2, state2, digests2 = self.run_random(rng2)
            assert digests == digests2
            assert state == state2

    def test_spacing_speed_bounds_and_yellow_safety(self):
        rng = random.Random(99)
        spec = core.two_phase_intersection(lane_length_m=150.0)
        flow = core.generate_flow(UniformProfile(0.05, 4), seed=5, duration=500)
        state = sim.init(spec, flow)
        completed_sizes = []
        for t in range(500):
            if rng.random() < 0.05:
                sim.command_signal(state, rng.randrange(2))
            exits_before = len(state.completed)
            was_yellow = state.signal.yellow_remaining > 0
            sim.tick(state)
            if was_yellow:
                assert len(state.completed) == exits_before
            for j, lane in enumerate(state.lanes):
                length = spec.lanes[j].length_m
                vmax = spec.lanes[j].vmax_ms
                for front, back in zip(lane, lane[1:]):
                    assert front.position - back.position >= 7.5 - 1e-9
                for veh in lane:
                    assert 0.0 <= veh.position <= length
                    assert 0.0 <= veh.speed <= vmax + 1e-9
            completed_sizes.append(len(state.completed))
            assert state.clock == t + 1
        assert completed_sizes == sorted(completed_sizes)
        assert state.completed  # traffic did get through
