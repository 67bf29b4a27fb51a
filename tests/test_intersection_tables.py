"""The lane and phase tables an `IntersectionSpec` derives once, and the two
ready-made intersections built by one four-arm builder.

The tables must equal what the simulator and the threshold controllers used to
derive for themselves, kept here verbatim as references; the ready-made
intersections must equal what the two builders used to build, kept here too.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings

from test_baselines import shared_lane_spec
from test_sim_properties import scenarios
from trafficlab import core, sim
from trafficlab.core import (
    APPROACHES,
    DEFAULT_LANE_LENGTH_M,
    DEFAULT_VMAX_MS,
    DEFAULT_YELLOW_S,
    TURNS,
    IntersectionSpec,
    Lane,
    Movement,
    default_conflicts,
    enumerate_phases,
)

TABLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def reference_green_lanes(spec, phase_id):
    """`IntersectionSpec.green_lanes` as it was, a frozenset built per call."""
    return frozenset(
        spec.movements[m].in_lane for m in spec.phases[phase_id].green_movements
    )


def reference_tables(spec):
    """Each table as its reader used to derive it: `sim.init` (lane green
    flags, lane geometry, movement lanes) and the threshold controllers (phase
    lanes, the served flags and the cut-off controller's lane phases)."""
    phase_lanes = [reference_green_lanes(spec, p) for p in range(spec.n_phases)]
    return {
        "phase_lanes": phase_lanes,
        "lane_green": [
            [j in reference_green_lanes(spec, p) for j in range(spec.n_lanes)]
            for p in range(spec.n_phases)
        ],
        "served": [[j in lanes for j in range(spec.n_lanes)] for lanes in phase_lanes],
        "lane_phases": [[i for i, lanes in enumerate(phase_lanes) if j in lanes]
                        for j in range(spec.n_lanes)],
        "lane_geometry": [(lane.length_m, lane.vmax_ms) for lane in spec.lanes],
        "movement_lane": [m.in_lane for m in spec.movements],
    }


def assert_tables_match(spec):
    ref = reference_tables(spec)
    assert spec.phase_lanes == ref["phase_lanes"]
    # A max-integral phase sum adds its lanes in frozenset order, so the order
    # must be the old one too.
    assert [list(lanes) for lanes in spec.phase_lanes] == [list(l) for l in ref["phase_lanes"]]
    assert spec.lane_green == ref["lane_green"] == ref["served"]
    assert spec.lane_phases == ref["lane_phases"]
    assert spec.lane_geometry == ref["lane_geometry"]
    assert spec.movement_lane == ref["movement_lane"]
    for p in range(spec.n_phases):
        assert spec.green_lanes(p) == reference_green_lanes(spec, p)
    for m in range(len(spec.movements)):
        assert spec.lane_of_movement(m) == spec.movements[m].in_lane


def permuted_lane_spec():
    """The default intersection with its movements on lanes in reverse order,
    so that a movement's lane is not its id."""
    doc = core.intersection_to_document(core.default_intersection())
    for k, movement in enumerate(doc["movements"]):
        movement["lane"] = len(doc["movements"]) - 1 - k
    doc["lanes"] = [{"length_m": 100.0 + 10 * k, "vmax_ms": 5.0 + k}
                    for k in range(len(doc["lanes"]))]
    return core.load_intersection(json.dumps(doc))


@pytest.mark.parametrize("make", [
    core.default_intersection,
    core.two_phase_intersection,
    shared_lane_spec,
    permuted_lane_spec,
])
def test_the_tables_equal_the_old_derivations(make):
    assert_tables_match(make())


def test_the_tables_of_a_twelve_phase_spec(twelve_phase_spec, four_singleton_spec):
    assert_tables_match(twelve_phase_spec)
    assert_tables_match(four_singleton_spec)


@TABLE_SETTINGS
@given(scenarios(with_edits=False))
def test_the_tables_of_drawn_specs_equal_the_old_derivations(scenario):
    spec, _, _, _ = scenario
    assert_tables_match(spec)


def test_a_replaced_spec_derives_its_own_tables():
    spec = core.default_intersection()
    lanes = tuple(Lane(50.0 + k, 3.0 + k) for k in range(spec.n_lanes))
    longer = dataclasses.replace(spec, lanes=lanes)
    assert longer.lane_geometry == [(50.0 + k, 3.0 + k) for k in range(spec.n_lanes)]
    assert spec.lane_geometry == [(DEFAULT_LANE_LENGTH_M, DEFAULT_VMAX_MS)] * spec.n_lanes
    fewer = dataclasses.replace(spec, phases=spec.phases[:3])
    assert len(fewer.phase_lanes) == len(fewer.lane_green) == 3
    assert_tables_match(longer)
    assert_tables_match(fewer)


def test_the_tables_leave_identity_repr_and_document_alone():
    spec = core.default_intersection()
    twin = dataclasses.replace(spec)
    assert twin == spec and hash(twin) == hash(spec)
    assert twin.phase_lanes is not spec.phase_lanes
    for name in ("phase_lanes", "lane_green", "lane_phases", "lane_geometry", "movement_lane"):
        assert name not in repr(spec)
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(spec, **{name: []})
    assert set(core.intersection_to_document(spec)) == set(core.INTERSECTION_KEYS)


# The two ready-made intersections as they were built before the four-arm
# builder, kept verbatim as references.
def reference_default_intersection(
    lane_length_m: float = DEFAULT_LANE_LENGTH_M,
    vmax_ms: float = DEFAULT_VMAX_MS,
    yellow_duration: int = DEFAULT_YELLOW_S,
) -> IntersectionSpec:
    movements = []
    for approach in APPROACHES:
        for turn in TURNS:
            movements.append(
                Movement(
                    id=len(movements),
                    in_lane=len(movements),
                    approach=approach,
                    out_direction=turn,
                )
            )
    movements = tuple(movements)
    matrix = default_conflicts(movements)
    return IntersectionSpec(
        lanes=tuple(Lane(lane_length_m, vmax_ms) for _ in movements),
        movements=movements,
        conflict_matrix=matrix,
        phases=tuple(enumerate_phases(movements, matrix)),
        yellow_duration=yellow_duration,
    )


def reference_two_phase_intersection(
    lane_length_m: float = DEFAULT_LANE_LENGTH_M,
    vmax_ms: float = DEFAULT_VMAX_MS,
    yellow_duration: int = DEFAULT_YELLOW_S,
) -> IntersectionSpec:
    movements = tuple(
        Movement(id=k, in_lane=k, approach=a, out_direction="straight")
        for k, a in enumerate(APPROACHES)
    )
    matrix = default_conflicts(movements)
    return IntersectionSpec(
        lanes=tuple(Lane(lane_length_m, vmax_ms) for _ in movements),
        movements=movements,
        conflict_matrix=matrix,
        phases=tuple(enumerate_phases(movements, matrix)),
        yellow_duration=yellow_duration,
    )


@pytest.mark.parametrize("build, reference", [
    (core.default_intersection, reference_default_intersection),
    (core.two_phase_intersection, reference_two_phase_intersection),
])
@pytest.mark.parametrize("lane_length_m", [150.0, 300.0, 1000.0])
@pytest.mark.parametrize("vmax_ms", [5.0, 11.0])
@pytest.mark.parametrize("yellow_duration", [1, 5])
def test_the_ready_made_intersections_are_built_as_before(build, reference, lane_length_m,
                                                          vmax_ms, yellow_duration):
    spec = build(lane_length_m, vmax_ms, yellow_duration)
    ref = reference(lane_length_m=lane_length_m, vmax_ms=vmax_ms,
                    yellow_duration=yellow_duration)
    assert spec == ref
    assert repr(spec) == repr(ref)
    assert (json.dumps(core.intersection_to_document(spec))
            == json.dumps(core.intersection_to_document(ref)))
    assert_tables_match(spec)


def test_the_ready_made_defaults_are_kept():
    assert core.default_intersection() == reference_default_intersection()
    assert core.two_phase_intersection() == reference_two_phase_intersection()


def test_the_default_spacing_is_the_default_body_plus_the_jam_gap():
    assert sim.DEFAULT_MIN_SPACING_M == 7.5
    assert sim.DEFAULT_MIN_SPACING_M == core.DEFAULT_BODY_LENGTH_M + sim.JAM_GAP_M
