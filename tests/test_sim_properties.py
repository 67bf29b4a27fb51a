"""Property tests of the simulator over random specs, flows and phase commands.

`reference_tick` is the plain per-vehicle loop that updates every vehicle on
every tick. `sim.tick` must give bit-identical states after every tick, also
when vehicles are put onto lanes from outside between ticks. Likewise
`reference_lane_metrics` visits every vehicle, and the memoised, head-skipping
`sim.lane_metrics` must equal it bit for bit after every tick. The invariant
tests check conservation, follower spacing, lane order, yellow and red safety
and determinism on the simulator alone.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from trafficlab import core, sim
from trafficlab.baselines import _approaching_near_line, _detection_counts
from trafficlab.core import FlowDataset, Vehicle
from trafficlab.sim import APPROACHING, JAM_GAP_M, WAITING, WAITING_SPEED_MS, VehicleState

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)
BODY_LENGTHS = (5.0, 3.0, 7.25, 12.0)
PLACED_ID_BASE = 100_000


def reference_tick(state: sim.SimState) -> None:
    """One second of the simulator with every vehicle updated in every lane."""
    spec = state.spec
    sig = state.signal
    greens = state._lane_green[sig.current_phase]
    crossing_open = sig.yellow_remaining == 0

    for j, lane in enumerate(state.lanes):
        if not lane:
            continue
        green = crossing_open and greens[j]
        length = spec.lanes[j].length_m
        vmax = spec.lanes[j].vmax_ms
        leader_pos = None
        leader_body = 0.0
        kept = []
        for veh in lane:
            target = veh.position + vmax
            if leader_pos is not None:
                cap = leader_pos - (leader_body + JAM_GAP_M)
                if cap < target:
                    target = cap
            if green and target >= length:
                state.completed.append((veh.id, veh.spawn_time, state.clock + 1))
                leader_pos = target
                leader_body = veh.body_length
                continue
            if target > length:
                target = length
            veh.speed = target - veh.position
            veh.position = target
            veh.status = WAITING if veh.speed < WAITING_SPEED_MS else APPROACHING
            leader_pos = target
            leader_body = veh.body_length
            kept.append(veh)
        state.lanes[j] = kept

    if sig.yellow_remaining > 0:
        sig.yellow_remaining -= 1
        if sig.yellow_remaining == 0:
            sig.current_phase = sig.pending_phase
            sig.time_in_phase = 0
    else:
        sig.time_in_phase += 1

    flow = state.flow
    while state.flow_cursor < len(flow.vehicles) and (
        flow.vehicles[state.flow_cursor].spawn_time <= state.clock
    ):
        vehicle = flow.vehicles[state.flow_cursor]
        state.flow_cursor += 1
        state.backlog[spec.lane_of_movement(vehicle.movement_id)].append(vehicle)
        state.spawned += 1

    for j, queue in enumerate(state.backlog):
        if not queue:
            continue
        lane = state.lanes[j]
        if lane:
            rear = lane[-1]
            if rear.position < rear.body_length + JAM_GAP_M:
                continue
        vehicle = queue.popleft()
        lane.append(
            VehicleState(
                id=vehicle.id,
                lane=j,
                position=0.0,
                speed=0.0,
                status=WAITING,
                spawn_time=vehicle.spawn_time,
                body_length=vehicle.body_length,
            )
        )

    state.clock += 1


def reference_lane_metrics(state: sim.SimState):
    """Per-lane (waiting count, approaching count, mean distance-to-line of
    approaching, mean speed of approaching); means are 0 on empty lanes."""
    out = []
    for j, lane in enumerate(state.lanes):
        length = state.spec.lanes[j].length_m
        waiting = 0
        approaching = 0
        dist_sum = 0.0
        speed_sum = 0.0
        for veh in lane:
            if veh.status == WAITING:
                waiting += 1
            else:
                approaching += 1
                dist_sum += length - veh.position
                speed_sum += veh.speed
        if approaching:
            out.append((waiting, approaching, dist_sum / approaching, speed_sum / approaching))
        else:
            out.append((waiting, 0, 0.0, 0.0))
    return out


def exact_metrics(metrics):
    """Lane metrics with the means as hex, so -0.0 and 0.0 differ."""
    return [(w, a, d.hex(), s.hex()) for w, a, d, s in metrics]


def exact(state: sim.SimState):
    """Everything the tick writes, with floats as hex so -0.0 and 0.0 differ."""
    lanes = tuple(
        tuple((v.id, v.lane, v.position.hex(), v.speed.hex(), v.status, v.spawn_time,
               v.body_length.hex()) for v in lane)
        for lane in state.lanes
    )
    backlog = tuple(tuple(v.id for v in queue) for queue in state.backlog)
    return (state.clock, dataclasses.astuple(state.signal), lanes, backlog,
            tuple(state.completed), state.flow_cursor, state.spawned)


@st.composite
def scenarios(draw, with_edits: bool):
    """A spec with random lane geometry and yellow, a flow on it, phase
    commands held for random runs and, optionally, outside placements."""
    base = draw(st.sampled_from((core.two_phase_intersection(), core.default_intersection())))
    lanes = tuple(
        core.Lane(draw(st.floats(8.0, 200.0)), draw(st.floats(0.5, 20.0)))
        for _ in base.lanes
    )
    spec = dataclasses.replace(base, lanes=lanes, yellow_duration=draw(st.integers(1, 6)))
    duration = draw(st.integers(10, 160))
    spawns = sorted(draw(st.lists(st.integers(0, duration - 1), max_size=80)))
    vehicles = tuple(
        Vehicle(k, t, draw(st.integers(0, spec.n_lanes - 1)), draw(st.sampled_from(BODY_LENGTHS)))
        for k, t in enumerate(spawns)
    )
    flow = FlowDataset(vehicles, duration=duration)
    commands = []
    while len(commands) < duration:
        commands += [draw(st.integers(0, spec.n_phases - 1))] * draw(st.integers(1, 40))
    edits = {}
    if with_edits:
        for _ in range(draw(st.integers(0, 12))):
            tick = draw(st.integers(0, duration - 1))
            edits.setdefault(tick, []).append((
                draw(st.integers(0, spec.n_lanes - 1)),
                draw(st.sampled_from(("stop line", "behind", "at cap", "at moved cap", "anywhere"))),
                draw(st.floats(0.0, 1.0)),
                draw(st.sampled_from((0.0, 3.0))),
                draw(st.sampled_from(BODY_LENGTHS)),
            ))
    return spec, flow, commands[:duration], edits


def place(state, edit, vid):
    """Put a vehicle onto a lane from outside, keeping it sorted front first."""
    j, where, u, speed, body = edit
    lane = state.lanes[j]
    length = state.spec.lanes[j].length_m
    if where == "stop line" or not lane:
        position = length
    elif where == "behind":
        position = u * lane[-1].position
    elif where in ("at cap", "at moved cap"):
        # At the leader's jam cap now, or where that cap will be once the
        # leader moves a full vmax: a stopped vehicle behind a moving one.
        leader = lane[int(u * (len(lane) - 1))]
        moved = state.spec.lanes[j].vmax_ms if where == "at moved cap" else 0.0
        position = (leader.position + moved) - (leader.body_length + JAM_GAP_M)
    else:
        position = u * length
    lane.append(VehicleState(
        id=vid, lane=j, position=position, speed=speed,
        status=WAITING if speed < WAITING_SPEED_MS else APPROACHING,
        spawn_time=state.clock, body_length=body,
    ))
    lane.sort(key=lambda v: -v.position)


@PROPERTY_SETTINGS
@given(scenarios(with_edits=True))
def test_tick_matches_the_per_vehicle_reference(scenario):
    spec, flow, commands, edits = scenario
    fast = sim.init(spec, flow)
    slow = sim.init(spec, flow)
    placed = 0
    for t, phase in enumerate(commands):
        for edit in edits.get(t, ()):
            placed += 1
            place(fast, edit, PLACED_ID_BASE + placed)
            place(slow, edit, PLACED_ID_BASE + placed)
        sim.command_signal(fast, phase)
        sim.command_signal(slow, phase)
        sim.tick(fast)
        reference_tick(slow)
        assert exact(fast) == exact(slow), f"tick {t}"
        assert fast == slow


@PROPERTY_SETTINGS
@given(scenarios(with_edits=True))
def test_lane_metrics_match_the_per_vehicle_reference(scenario):
    spec, flow, commands, edits = scenario
    state = sim.init(spec, flow)
    assert exact_metrics(sim.lane_metrics(state)) == exact_metrics(reference_lane_metrics(state))
    placed = 0
    for t, phase in enumerate(commands):
        sim.command_signal(state, phase)
        sim.tick(state)
        # Placements land after the tick and before the first read at the new
        # clock, so they can break the settled head that tick recorded.
        for edit in edits.get(t, ()):
            placed += 1
            place(state, edit, PLACED_ID_BASE + placed)
        expected = exact_metrics(reference_lane_metrics(state))
        assert exact_metrics(sim.lane_metrics(state)) == expected, f"tick {t}"
        assert exact_metrics(sim.lane_metrics(state)) == expected, f"memo at tick {t}"


def run(spec, flow, commands, on_tick=None):
    state = sim.init(spec, flow)
    for phase in commands:
        sim.command_signal(state, phase)
        before = (state.signal.yellow_remaining, state.signal.current_phase,
                  {v.id: j for j, lane in enumerate(state.lanes) for v in lane},
                  len(state.completed))
        sim.tick(state)
        if on_tick is not None:
            on_tick(state, before)
    return state


@PROPERTY_SETTINGS
@given(scenarios(with_edits=False), st.floats(1.0, 250.0))
def test_tick_invariants(scenario, detection_distance):
    spec, flow, commands, _ = scenario

    def check(state, before):
        yellow, phase, lane_of, n_completed = before
        assert state.spawned == state.on_network() + state.in_backlog() + len(state.completed)
        for j, lane in enumerate(state.lanes):
            length = spec.lanes[j].length_m
            for lead, follower in zip(lane, lane[1:]):
                assert lead.position - follower.position >= lead.body_length + JAM_GAP_M - 1e-9
            for veh in lane:
                assert 0.0 <= veh.position <= length
                assert veh.status == (WAITING if veh.speed < WAITING_SPEED_MS else APPROACHING)
        for vid, _, exit_time in state.completed[n_completed:]:
            assert yellow == 0, "exit during yellow"
            assert lane_of[vid] in spec.green_lanes(phase), "exit on red"
            assert exit_time == state.clock
        # The detectors stop at the first vehicle out of range; lanes are
        # front first, so that equals counting every vehicle.
        full = [sum(1 for v in lane if v.position >= spec.lanes[j].length_m - detection_distance)
                for j, lane in enumerate(state.lanes)]
        assert _detection_counts(state, detection_distance) == full
        lanes = range(spec.n_lanes)
        assert _approaching_near_line(state, lanes, detection_distance) == sum(
            1 for j in lanes for v in state.lanes[j]
            if v.status == APPROACHING and v.position >= spec.lanes[j].length_m - detection_distance
        )

    first = run(spec, flow, commands, check)
    second = run(spec, flow, commands)
    assert exact(first) == exact(second)
    assert first == second


def test_a_vehicle_stopped_behind_an_exit_is_not_a_settled_head():
    # F stands exactly at the jam cap of E's exit target, so it keeps still on
    # the green tick in which E leaves; on the next, red, tick it has no leader
    # and rolls to the stop line.
    spec = dataclasses.replace(core.two_phase_intersection(lane_length_m=150.0, vmax_ms=5.0),
                               yellow_duration=2)
    fast, slow = sim.init(spec, FlowDataset((), 10)), sim.init(spec, FlowDataset((), 10))
    green = next(iter(spec.green_lanes(0)))
    for state in (fast, slow):
        for vid, position in ((1, 148.0), (2, (148.0 + 5.0) - (5.0 + JAM_GAP_M))):
            state.lanes[green].append(VehicleState(vid, green, position, 5.0, APPROACHING, 0, 5.0))
    for phase in (0, 1, 1):
        for state, step in ((fast, sim.tick), (slow, reference_tick)):
            sim.command_signal(state, phase)
            step(state)
        assert exact(fast) == exact(slow)
    assert [v.position for v in fast.lanes[green]] == [150.0]
