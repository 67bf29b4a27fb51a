"""The threshold controllers' detectors against the walk-everything references.

`CutoffController` and `MaxIntegralController` read their detectors in one
walk per lane and reuse a lane's previous count when the vehicles on either
side of the detection edge show it still holds. These tests hold them, and the
`_detection_counts`/`_approaching_near_line` wrappers, to the references of
`test_baselines` on every tick: over random geometry, phase commands and
vehicles put on lanes from outside, with one controller reading two states in
turn, with a settled head broken from outside between two decisions, and
across `reset()`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_baselines import (
    ReferenceCutoffController,
    ReferenceMaxIntegralController,
    exact_state,
    reference_approaching_near_line,
    reference_detection_counts,
)
from test_sim_properties import PLACED_ID_BASE, place, scenarios
from trafficlab import core, harness, sim
from trafficlab.baselines import (
    CutoffController,
    MaxIntegralController,
    SotlParams,
    _approaching_near_line,
    _detection_counts,
)
from trafficlab.core import FlowDataset, Vehicle
from trafficlab.sim import APPROACHING, VehicleState

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def controller_pairs(spec, params):
    return ((CutoffController(spec, params), ReferenceCutoffController(spec, params)),
            (MaxIntegralController(spec, params), ReferenceMaxIntegralController(spec, params)))


def check_reads(state, pairs, detection_distance):
    """Both wrappers equal their references, and every controller decides and
    integrates as its reference on this state."""
    assert (_detection_counts(state, detection_distance)
            == reference_detection_counts(state, detection_distance))
    phase_lanes = [state.spec.green_lanes(p) for p in range(state.spec.n_phases)]
    for lanes in phase_lanes + [range(state.spec.n_lanes)]:
        assert (_approaching_near_line(state, lanes, detection_distance)
                == reference_approaching_near_line(state, lanes, detection_distance))
    for ctrl, ref in pairs:
        assert ctrl.decide(state) == ref.decide(state)
        assert exact_state(ctrl) == exact_state(ref)


@PROPERTY_SETTINGS
@given(scenarios(with_edits=True), st.floats(5.0, 400.0),
       st.sampled_from((0.5, 7.0, 50.0)), st.integers(0, 5), st.integers(1, 8))
def test_every_decision_matches_the_reference(scenario, detection_distance, threshold,
                                              cluster_split, min_green):
    spec, flow, commands, edits = scenario
    params = SotlParams(threshold=threshold, cluster_split=cluster_split, min_green=min_green,
                        detection_distance=detection_distance)
    pairs = controller_pairs(spec, params)
    state = sim.init(spec, flow)
    placed = 0
    for t, phase in enumerate(commands):
        check_reads(state, pairs, detection_distance)
        # The scenario's commands drive the signal, so yellow, served and
        # unserved lanes all occur whatever the controllers would pick.
        sim.command_signal(state, phase)
        sim.tick(state)
        # Placements land between the tick and the next decision, so they can
        # break a settled head and move a lane's first vehicle behind the edge.
        for edit in edits.get(t, ()):
            placed += 1
            place(state, edit, PLACED_ID_BASE + placed)
    check_reads(state, pairs, detection_distance)


def queue_flow(spec, lanes, n, duration):
    """`n` vehicles per lane of `lanes`, one a second, on each lane's movement."""
    movement_of = {m.in_lane: m.id for m in spec.movements}
    spawns = sorted((t, movement_of[j]) for j in lanes for t in range(n))
    return FlowDataset(tuple(Vehicle(k, t, m) for k, (t, m) in enumerate(spawns)), duration)


def test_one_controller_alternated_between_two_states():
    spec = core.default_intersection()
    params = SotlParams(threshold=30.0, min_green=3)
    busy = sim.init(spec, queue_flow(spec, range(spec.n_lanes), 40, 400))
    light = sim.init(spec, core.generate_flow(
        core.UniformProfile(rate_per_lane=0.05, n_lanes=spec.n_lanes), seed=3, duration=400))
    # Each controller reads both states in turn, as does its reference.
    pairs = controller_pairs(spec, params)
    for t in range(400):
        for state in (busy, light):
            check_reads(state, pairs, params.detection_distance)
            sim.command_signal(state, (t // 25) % spec.n_phases)
            sim.tick(state)
    assert busy.completed and light.completed


def standing_queue(spec, lane, n):
    """A state whose `lane` holds a settled red queue of `n` vehicles."""
    green = next(p for p in range(spec.n_phases) if lane not in spec.green_lanes(p))
    state = sim.init(spec, queue_flow(spec, [lane], n, 400))
    state.signal.current_phase = green
    while state.clock < 300 and state._head[lane] < n:
        sim.tick(state)
    assert state._head[lane] == n
    return state


def test_a_head_broken_from_outside_between_two_decisions():
    spec = core.two_phase_intersection(lane_length_m=150.0)
    lane = 0
    params = SotlParams(detection_distance=80.0)
    for ticks_between in (0, 1, 2, 3):
        state = standing_queue(spec, lane, 16)
        pairs = controller_pairs(spec, params)
        check_reads(state, pairs, params.detection_distance)
        before = _detection_counts(state, params.detection_distance)[lane]
        # A 12 m vehicle put just behind the front vehicle: the queue behind it
        # moves back by 7 m within two ticks, and one vehicle leaves the range.
        front = state.lanes[lane][0]
        state.lanes[lane].insert(1, VehicleState(
            PLACED_ID_BASE, lane, front.position - 1.0, 0.0, APPROACHING, state.clock, 12.0))
        for _ in range(ticks_between):
            sim.tick(state)
        check_reads(state, pairs, params.detection_distance)
        for _ in range(3):
            sim.tick(state)
            check_reads(state, pairs, params.detection_distance)
        assert state.lanes[lane][0] is front
        assert state._head[lane] == len(state.lanes[lane])
        assert _detection_counts(state, params.detection_distance)[lane] == before - 1


def test_a_vehicle_taken_out_of_a_standing_head():
    spec = core.two_phase_intersection(lane_length_m=150.0)
    params = SotlParams(detection_distance=40.0)
    state = standing_queue(spec, 1, 12)
    pairs = controller_pairs(spec, params)
    check_reads(state, pairs, params.detection_distance)
    del state.lanes[1][2]
    check_reads(state, pairs, params.detection_distance)
    for _ in range(4):
        sim.tick(state)
        check_reads(state, pairs, params.detection_distance)


def test_reset_returns_a_controller_to_its_fresh_state():
    spec = core.default_intersection()
    params = SotlParams(threshold=20.0, min_green=3)
    busy = queue_flow(spec, range(spec.n_lanes), 60, 600)
    light = core.generate_flow(core.UniformProfile(rate_per_lane=0.04, n_lanes=spec.n_lanes),
                               seed=7, duration=600)
    for cls, ref_cls in ((CutoffController, ReferenceCutoffController),
                         (MaxIntegralController, ReferenceMaxIntegralController)):
        ctrl = cls(spec, params)
        # evaluate resets the controller before each episode; the busy one
        # ends with queues standing in range.
        for flow in (busy, light, busy):
            assert (harness.evaluate(ctrl, spec, flow, horizon=150)
                    == harness.evaluate(ref_cls(spec, params), spec, flow, horizon=150))
        assert any(ctrl._last)
        ctrl.reset()
        assert vars(ctrl) == vars(cls(spec, params))
