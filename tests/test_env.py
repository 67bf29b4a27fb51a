"""State encodings, reward, action decoding, and MDP/SMDP stepping tests."""

import dataclasses
import random

import numpy as np
import pytest

from trafficlab import core, env, sim
from trafficlab.core import FlowDataset, Vehicle
from trafficlab.env import (_BLOCKS, VARIANTS, ActionSpace, TrafficEnv, decode_action,
                            lane_capacity, observe, reward)
from trafficlab.sim import APPROACHING, WAITING, SimState, VehicleState


def empty_flow(duration=3600):
    return FlowDataset((), duration=duration)


def place(state, lane, position, speed=0.0, vid=None):
    vid = vid if vid is not None else 1000 + sum(len(l) for l in state.lanes)
    veh = VehicleState(
        id=vid, lane=lane, position=position, speed=speed,
        status=WAITING if speed < sim.WAITING_SPEED_MS else APPROACHING,
        spawn_time=0, body_length=5.0,
    )
    state.lanes[lane].append(veh)
    state.lanes[lane].sort(key=lambda v: -v.position)
    return veh


def random_state(spec, rng):
    """A structurally valid random occupancy: jam-spaced vehicles, mixed speeds."""
    state = sim.init(spec, empty_flow())
    for j in range(spec.n_lanes):
        length = spec.lanes[j].length_m
        capacity = int(length // 7.5)
        n = rng.randint(0, capacity)
        pos = length
        for _ in range(n):
            speed = rng.choice([0.0, 0.0, 5.0, 11.0])
            place(state, j, pos, speed=min(speed, spec.lanes[j].vmax_ms))
            pos -= 7.5
    state.signal.current_phase = rng.randrange(spec.n_phases)
    return state


class TestObserve:
    def test_wads_dimension_is_44_at_eight_lanes_twelve_phases(self, twelve_phase_spec):
        state = sim.init(twelve_phase_spec, empty_flow())
        obs = observe(state, "wads")
        assert obs.shape == (44,)
        assert np.count_nonzero(obs[:32]) == 0
        assert obs[32:].sum() == 1.0
        assert obs[32 + state.signal.current_phase] == 1.0

    def test_waiting_normalized_by_capacity(self):
        spec = core.two_phase_intersection(lane_length_m=300.0)  # capacity 40
        state = sim.init(spec, empty_flow())
        pos = 300.0
        for _ in range(4):
            place(state, 0, pos)
            pos -= 7.5
        obs = observe(state, "wa")
        assert obs[0] == pytest.approx(0.1)
        assert np.all(obs[4:8] == 0.0)

    def test_combined_variant_equals_blockwise_sum(self, two_phase_spec):
        rng = random.Random(21)
        for _ in range(100):
            state = random_state(two_phase_spec, rng)
            wa = observe(state, "wa")
            combined = observe(state, "combined")
            j = two_phase_spec.n_lanes
            np.testing.assert_allclose(combined[:j], wa[:j] + wa[j : 2 * j], atol=1e-12)
            np.testing.assert_array_equal(combined[j:], wa[2 * j :])

    def test_entries_bounded_and_one_hot_sums_to_one(self, two_phase_spec):
        rng = random.Random(5)
        for _ in range(50):
            state = random_state(two_phase_spec, rng)
            for variant in env.VARIANTS:
                obs = observe(state, variant)
                assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
                assert obs[-two_phase_spec.n_phases :].sum() == 1.0

    def test_unknown_variant_rejected(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        with pytest.raises(ValueError):
            observe(state, "xyz")


class TestReward:
    def test_empty_is_zero(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        assert reward(state) == 0.0

    def test_counts_waiting_across_lanes(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow())
        pos = 150.0
        for _ in range(3):
            place(state, 0, pos)
            pos -= 7.5
        place(state, 2, 150.0)
        assert reward(state) == -4.0

    def test_never_positive(self, two_phase_spec):
        rng = random.Random(13)
        for _ in range(50):
            state = random_state(two_phase_spec, rng)
            assert reward(state) <= 0.0

    def test_matches_wa_block_times_capacity(self, two_phase_spec):
        capacity = int(two_phase_spec.lanes[0].length_m // 7.5)
        rng = random.Random(3)
        for _ in range(30):
            state = random_state(two_phase_spec, rng)
            obs = observe(state, "wa")
            w_sum = obs[: two_phase_spec.n_lanes].sum()
            assert reward(state) == pytest.approx(-w_sum * capacity)


class TestDecodeAction:
    def test_cyclic_wraparound(self):
        space = ActionSpace("cyclic", 4)
        assert decode_action(space, 1, 3) == 0

    def test_cyclic_keep(self):
        space = ActionSpace("cyclic", 4)
        assert decode_action(space, 0, 2) == 2

    def test_acyclic_direct(self):
        space = ActionSpace("acyclic", 8)
        assert decode_action(space, 7, 0) == 7

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decode_action(ActionSpace("cyclic", 4), 2, 0)
        with pytest.raises(ValueError):
            decode_action(ActionSpace("acyclic", 4), 4, 0)

    def test_sizes(self):
        assert ActionSpace("cyclic", 8).size == 2
        assert ActionSpace("acyclic", 8).size == 8

    def test_at_least_two_actions(self):
        with pytest.raises(ValueError):
            ActionSpace("acyclic", 1)
        assert ActionSpace("cyclic", 1).size == 2


def waiting_fixture(spec, lane, n):
    """Environment over an empty flow with n hand-placed waiting vehicles on a
    lane that no stepped phase serves."""
    e = TrafficEnv(spec, empty_flow(200), variant="wa", action_mode="acyclic", gamma=0.99)
    e.reset()
    pos = spec.lanes[lane].length_m
    for _ in range(n):
        place(e.state, lane, pos)
        pos -= 7.5
    return e


class TestMdpStep:
    def test_keep_on_empty_intersection(self, two_phase_spec):
        e = TrafficEnv(two_phase_spec, empty_flow(100), action_mode="acyclic")
        e.reset()
        t = e.mdp_step(0)
        assert t.reward == 0.0
        assert t.duration == 1
        assert not t.terminal

    def test_actions_during_yellow_have_no_effect(self, two_phase_spec, clustered_flow):
        def run(actions):
            e = TrafficEnv(two_phase_spec, clustered_flow, action_mode="acyclic")
            e.reset()
            phases = []
            e.mdp_step(1)  # start a switch: 5 ticks of yellow follow
            for a in actions:
                e.mdp_step(a)
                phases.append((e.state.signal.current_phase, e.state.signal.yellow_remaining))
            return phases

        # Whatever is commanded during the yellow window, the signal evolves identically.
        assert run([0, 0, 0, 0]) == run([1, 0, 1, 0]) == run([0, 1, 1, 1])

    def test_horizon_reaches_terminal(self, two_phase_spec):
        e = TrafficEnv(two_phase_spec, empty_flow(3), action_mode="acyclic")
        e.reset()
        for k in range(3):
            t = e.mdp_step(0)
        assert t.terminal
        with pytest.raises(RuntimeError):
            e.mdp_step(0)


def test_an_episode_horizon_below_one_second_is_refused_by_the_flow_label(two_phase_spec):
    # Its reset gives an episode that is already over: the first step used to
    # end in a bare RuntimeError, `cannot step a terminal episode`.
    zero = FlowDataset((), duration=0, label="zero")
    with pytest.raises(ValueError, match=r"^flow 'zero': the episode horizon must be at least "
                                         r"1 s, got 0$"):
        TrafficEnv(two_phase_spec, zero)
    with pytest.raises(ValueError, match=r"^flow '': the episode horizon must be at least "
                                         r"1 s, got 0$"):
        TrafficEnv(two_phase_spec, empty_flow(100), horizon=0)
    assert TrafficEnv(two_phase_spec, zero, horizon=1).horizon == 1


class TestSmdpStep:
    def test_switch_undiscounted_sum(self, four_singleton_spec):
        e = waiting_fixture(four_singleton_spec, lane=2, n=2)
        e.gamma = 1.0
        t = e.smdp_step(1)  # phase 0 -> 1; lane 2 stays red and keeps waiting
        assert t.reward == pytest.approx(-12.0)
        assert t.duration == 6

    def test_switch_discounted_geometric_series(self, four_singleton_spec):
        e = waiting_fixture(four_singleton_spec, lane=2, n=2)
        expected = sum(-2.0 * 0.99 ** t for t in range(1, 7))
        t = e.smdp_step(1)
        assert t.reward == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(-11.58692, abs=1e-4)
        assert t.duration == 6

    def test_keep_single_discounted_term(self, four_singleton_spec):
        e = waiting_fixture(four_singleton_spec, lane=2, n=3)
        t = e.smdp_step(0)
        assert t.reward == pytest.approx(-3 * 0.99)
        assert t.duration == 1

    def test_stepping_mid_yellow_rejected(self, two_phase_spec):
        e = TrafficEnv(two_phase_spec, empty_flow(100), action_mode="acyclic")
        e.reset()
        e.mdp_step(1)  # leaves the simulator inside a yellow window
        with pytest.raises(RuntimeError, match="yellow"):
            e.smdp_step(0)

    def test_smdp_owns_yellow_internally(self, two_phase_spec):
        e = TrafficEnv(two_phase_spec, empty_flow(100), action_mode="acyclic")
        e.reset()
        e.smdp_step(1)
        assert e.state.signal.yellow_remaining == 0
        assert e.state.signal.current_phase == 1


class TestHoldsPhase:
    """`env.holds_phase` is the one statement of when a policy does not act."""

    @pytest.mark.parametrize("yellow", [1, 3, 5])
    def test_truth_table_along_a_switch(self, yellow):
        spec = core.two_phase_intersection(lane_length_m=150.0, yellow_duration=yellow)
        e = TrafficEnv(spec, empty_flow(100), action_mode="acyclic")
        e.reset()
        seen = []

        def record(name):
            seen.append((name, env.holds_phase(e.state, False), env.holds_phase(e.state, True)))

        record("clock 0")
        e.mdp_step(1)  # commands the switch; its first yellow tick runs
        for _ in range(yellow - 1):
            record("yellow")
            e.mdp_step(1)
        sig = e.state.signal
        assert (sig.current_phase, sig.yellow_remaining, sig.time_in_phase) == (1, 0, 0)
        record("landing")
        e.mdp_step(1)
        record("mid-green")
        assert seen == ([("clock 0", False, False)] + [("yellow", True, True)] * (yellow - 1)
                        + [("landing", False, True), ("mid-green", False, False)])

    def test_truth_table_on_set_states(self, two_phase_spec):
        state = sim.init(two_phase_spec, empty_flow(100))
        for clock, yellow_remaining, time_in_phase, mdp, smdp in (
                (0, 0, 0, False, False),  # clock 0: the episode's first decision
                (7, 3, 2, True, True),  # yellow
                (7, 0, 0, False, True),  # the new phase lands
                (7, 0, 2, False, False)):  # mid-green
            state.clock = clock
            state.signal.yellow_remaining = yellow_remaining
            state.signal.time_in_phase = time_in_phase
            assert (env.holds_phase(state, False), env.holds_phase(state, True)) == (mdp, smdp)


class TestSmdpStepDuration:
    @pytest.mark.parametrize("yellow", [1, 2, 5])
    def test_a_keep_is_one_tick_and_a_switch_is_yellow_plus_one(self, yellow):
        spec = core.two_phase_intersection(lane_length_m=150.0, yellow_duration=yellow)
        e = TrafficEnv(spec, empty_flow(100), action_mode="acyclic")
        e.reset()
        clocks = [e.state.clock]
        durations = []
        for action in (0, 0, 1, 1, 0, 0):
            durations.append(e.smdp_step(action).duration)
            clocks.append(e.state.clock)
            assert not env.holds_phase(e.state, True)
        assert durations == [1, 1, yellow + 1, 1, yellow + 1, 1]
        assert [b - a for a, b in zip(clocks, clocks[1:])] == durations
        assert e.state.signal.current_phase == 0

    @pytest.mark.parametrize("horizon", [1, 3, 5, 6])
    def test_a_switch_cut_by_the_horizon_stops_at_it(self, two_phase_spec, horizon):
        # The 5 s yellow and the landing tick take 6 ticks; a shorter horizon
        # ends the switch's transition at the horizon, mid-yellow or landing.
        e = TrafficEnv(two_phase_spec, empty_flow(100), action_mode="acyclic", horizon=horizon)
        e.reset()
        t = e.smdp_step(1)
        assert t.terminal and t.duration == horizon == e.state.clock
        assert e.state.signal.yellow_remaining == max(0, 5 - horizon)


def scripted_smdp_episode(spec, flow, hold=10):
    """Switch to the next phase after `hold` green seconds, SMDP stepping."""
    e = TrafficEnv(spec, flow, action_mode="acyclic", gamma=0.99)
    e.reset()
    transitions = []
    digests = []
    switches = 0
    while not e.terminal:
        sig = e.state.signal
        if sig.time_in_phase >= hold:
            action = (sig.current_phase + 1) % spec.n_phases
            switches += 1
        else:
            action = sig.current_phase
        start_clock = e.state.clock
        t = e.smdp_step(action)
        transitions.append(t)
        digests.append((e.state.clock, sig.current_phase, tuple(len(l) for l in e.state.lanes)))
    return transitions, switches, e


def scripted_mdp_episode(spec, flow, hold=10):
    e = TrafficEnv(spec, flow, action_mode="acyclic", gamma=0.99)
    e.reset()
    transitions = []
    per_tick = []
    while not e.terminal:
        sig = e.state.signal
        if sig.yellow_remaining == 0 and sig.time_in_phase >= hold:
            action = (sig.current_phase + 1) % spec.n_phases
        else:
            action = sig.current_phase
        t = e.mdp_step(action)
        transitions.append(t)
        per_tick.append(
            (e.state.clock, e.state.signal.current_phase, e.state.signal.yellow_remaining,
             tuple(tuple((v.id, v.position) for v in lane) for lane in e.state.lanes))
        )
    return transitions, per_tick, e


class TestSmdpVsMdp:
    def test_same_tick_level_trajectory(self, two_phase_spec, clustered_flow):
        # Drive the raw simulator with the same switch policy both ways and
        # compare end states: SMDP stepping is a re-chunking, not new dynamics.
        _, _, e_smdp = scripted_smdp_episode(two_phase_spec, clustered_flow)
        _, _, e_mdp = scripted_mdp_episode(two_phase_spec, clustered_flow)
        assert e_smdp.state == e_mdp.state
        assert e_smdp.raw_return == e_mdp.raw_return

    def test_transition_count_accounting(self, two_phase_spec, clustered_flow):
        smdp_transitions, switches, _ = scripted_smdp_episode(two_phase_spec, clustered_flow)
        mdp_transitions, _, _ = scripted_mdp_episode(two_phase_spec, clustered_flow)
        # Exact identity: every switch transition absorbs duration-1 extra ticks.
        absorbed = sum(t.duration - 1 for t in smdp_transitions)
        assert len(smdp_transitions) == len(mdp_transitions) - absorbed
        assert sum(t.duration for t in smdp_transitions) == len(mdp_transitions)

    def test_transition_count_is_mdp_minus_yellow_times_switches(self, two_phase_spec,
                                                                 clustered_flow):
        # Horizon chosen so the scripted schedule (switch after 10 green
        # seconds, 15-tick cycles after the first 16 ticks) never ends
        # mid-switch: 16 + 15*78 + 4 = 1190.
        flow = core.FlowDataset(
            tuple(v for v in clustered_flow.vehicles if v.spawn_time < 1190), 1190
        )
        smdp_transitions, switches, _ = scripted_smdp_episode(two_phase_spec, flow)
        mdp_transitions, _, _ = scripted_mdp_episode(two_phase_spec, flow)
        assert all(t.duration in (1, 6) for t in smdp_transitions)
        assert switches == 79
        assert len(mdp_transitions) == 1190
        assert len(smdp_transitions) == len(mdp_transitions) - 5 * switches

    def test_episode_return_equals_total_waiting_time(self, two_phase_spec, clustered_flow):
        e = TrafficEnv(two_phase_spec, clustered_flow, action_mode="acyclic", gamma=1.0)
        e.reset()
        waiting_integral = 0
        total_reward = 0.0
        k = 0
        while not e.terminal:
            action = 0 if (k // 20) % 2 == 0 else 1
            t = e.mdp_step(action)
            total_reward += t.reward
            metrics = sim.lane_metrics(e.state)
            waiting_integral += sum(m[0] for m in metrics)
            k += 1
        assert total_reward == e.raw_return
        assert total_reward == -float(waiting_integral)


class TestTransitionInvariants:
    def test_durations(self, two_phase_spec, clustered_flow):
        transitions, _, _ = scripted_smdp_episode(two_phase_spec, clustered_flow)
        for t in transitions:
            if t.duration == 1:
                continue
            assert t.duration == two_phase_spec.yellow_duration + 1 or t.terminal


class TestObservationReuse:
    @pytest.mark.parametrize("process", ["mdp", "smdp"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_transition_state_is_the_pre_step_observation(self, default_spec, process, seed):
        profile = core.UniformProfile(rate_per_lane=0.08, n_lanes=default_spec.n_lanes)
        flow = core.generate_flow(profile, seed=seed, duration=300)
        e = TrafficEnv(default_spec, flow, variant="wads", action_mode="acyclic")
        step = e.mdp_step if process == "mdp" else e.smdp_step
        rng = np.random.default_rng(seed)
        e.reset()
        while not e.terminal:
            fresh = observe(e.state, "wads")
            t = step(int(rng.integers(e.action_space.size)))
            np.testing.assert_array_equal(t.state, fresh)


def reference_observe(state: SimState, variant: str) -> np.ndarray:
    """Encode the world as a vector in [0, 1]^dim with a trailing phase one-hot.

    Counts normalize by lane capacity, distances by lane length, speeds by the
    lane speed limit; all entries are clamped to [0, 1].
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown state variant {variant!r}")
    spec = state.spec
    j = spec.n_lanes
    metrics = sim.lane_metrics(state)
    blocks = _BLOCKS[variant]
    out = np.zeros(blocks * j + spec.n_phases, dtype=np.float64)
    for lane, (w, a, d, s) in enumerate(metrics):
        cap = lane_capacity(spec.lanes[lane].length_m)
        if variant == "combined":
            out[lane] = (w + a) / cap
        else:
            out[lane] = w / cap
            out[j + lane] = a / cap
            if blocks >= 3:
                out[2 * j + lane] = d / spec.lanes[lane].length_m
            if blocks >= 4:
                out[3 * j + lane] = s / spec.lanes[lane].vmax_ms
    np.clip(out, 0.0, 1.0, out=out)
    out[blocks * j + state.signal.current_phase] = 1.0
    return out


def reference_reward(state: SimState) -> float:
    """Negative total queue length (raw waiting-vehicle count over all lanes)."""
    total = 0
    for lane in state.lanes:
        for veh in lane:
            if veh.status == sim.WAITING:
                total += 1
    return -float(total)


def assert_matches_references(state):
    for variant in env.VARIANTS:
        obs, expected = observe(state, variant), reference_observe(state, variant)
        assert obs.dtype == expected.dtype and obs.shape == expected.shape
        assert obs.tobytes() == expected.tobytes(), variant
    assert reward(state).hex() == reference_reward(state).hex()


class TestReferenceEquivalence:
    """`observe` and `reward` against the per-lane loop and the per-vehicle
    count they replaced, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_states(self, two_phase_spec, default_spec, twelve_phase_spec, seed):
        rng = random.Random(seed)
        odd = dataclasses.replace(default_spec, lanes=tuple(
            core.Lane(rng.uniform(8.0, 400.0), rng.uniform(0.5, 20.0))
            for _ in default_spec.lanes))
        for spec in (two_phase_spec, default_spec, twelve_phase_spec, odd):
            for _ in range(25):
                assert_matches_references(random_state(spec, rng))

    def test_values_outside_the_unit_range_are_clamped_alike(self, two_phase_spec):
        # Put from outside: past the stop line, over the speed limit, and more
        # vehicles than the lane's capacity.
        state = sim.init(two_phase_spec, empty_flow())
        place(state, 0, 151.5, speed=12.0)
        place(state, 1, 150.0, speed=-1.0)
        for k in range(25):
            place(state, 2, 150.0 - 5.0 * k, speed=3.0 * (k % 2))
        assert_matches_references(state)
        obs = observe(state, "wads")
        assert obs.min() == 0.0 and obs.max() == 1.0

    @pytest.mark.parametrize("process", ["mdp", "smdp"])
    @pytest.mark.parametrize("layout", ["two-phase", "default"])
    def test_along_episodes(self, monkeypatch, two_phase_spec, default_spec, clustered_flow,
                            process, layout):
        if layout == "two-phase":
            spec, flow = two_phase_spec, clustered_flow
        else:
            spec = default_spec
            flow = core.generate_flow(core.UniformProfile(rate_per_lane=0.1, n_lanes=8),
                                      seed=5, duration=600)
        ticks = []

        def checked_reward(state):
            ticks.append(state.clock)
            r = reward(state)
            assert r.hex() == reference_reward(state).hex(), state.clock
            return r

        monkeypatch.setattr(env, "reward", checked_reward)
        e = TrafficEnv(spec, flow, variant="wads", action_mode="acyclic")
        step = e.mdp_step if process == "mdp" else e.smdp_step
        rng = np.random.default_rng(spec.n_lanes)
        action = 0
        skipped = 0  # vehicles in settled heads, summed over the reads
        e.reset()
        while not e.terminal:
            if rng.random() < 0.05:  # hold phases long enough for queues to settle
                action = int(rng.integers(e.action_space.size))
            t = step(action)
            assert t.next_state.tobytes() == reference_observe(e.state, "wads").tobytes()
            assert_matches_references(e.state)
            skipped += sum(e.state._head)
        assert ticks == list(range(1, flow.duration + 1))
        assert skipped > 0
