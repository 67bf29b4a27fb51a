"""Topology, phase enumeration, and flow generation tests."""

import itertools
import json
import math
import random
import re
import signal

import pytest

from trafficlab import core
from trafficlab.core import (
    ClusteredProfile,
    ConflictMatrix,
    FlowDataset,
    Movement,
    UniformProfile,
    Vehicle,
)


def brute_force_phases(movements, matrix, pair_size):
    """Independent oracle: filter every subset of the given size."""
    ids = sorted(m.id for m in movements)
    result = []
    for combo in itertools.combinations(ids, pair_size):
        ok = all(not matrix.conflicts(i, j) for i in combo for j in combo if i < j)
        if ok:
            result.append(frozenset(combo))
    return result


def make_movements(n):
    return [
        Movement(id=k, in_lane=k, approach="NESW"[k % 4], out_direction="straight")
        for k in range(n)
    ]


def random_matrix(n, rng):
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    ]
    return ConflictMatrix.from_pairs(n, pairs)


class TestEnumeratePhases:
    def test_two_compatible_movements_single_phase(self):
        movements = make_movements(2)
        matrix = ConflictMatrix.from_pairs(2, [])
        phases = core.enumerate_phases(movements, matrix, 2)
        assert len(phases) == 1
        assert phases[0].green_movements == frozenset({0, 1})
        assert phases[0].id == 0

    def test_two_conflicting_movements_is_an_error(self):
        movements = make_movements(2)
        matrix = ConflictMatrix.from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError, match="no feasible phases"):
            core.enumerate_phases(movements, matrix, 2)

    def test_default_four_arm_matrix_yields_eight_phases(self, default_spec):
        oracle = brute_force_phases(
            default_spec.movements, default_spec.conflict_matrix, 2
        )
        phases = core.enumerate_phases(default_spec.movements, default_spec.conflict_matrix, 2)
        assert len(oracle) == 8
        assert [p.green_movements for p in phases] == oracle

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(2, 10)
            movements = make_movements(n)
            matrix = random_matrix(n, rng)
            pair_size = rng.randint(1, 3)
            oracle = brute_force_phases(movements, matrix, pair_size)
            if not oracle:
                with pytest.raises(ValueError):
                    core.enumerate_phases(movements, matrix, pair_size)
                continue
            phases = core.enumerate_phases(movements, matrix, pair_size)
            assert [p.green_movements for p in phases] == oracle
            assert [p.id for p in phases] == list(range(len(phases)))

    def test_no_emitted_phase_contains_a_conflict(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(3, 9)
            movements = make_movements(n)
            matrix = random_matrix(n, rng)
            try:
                phases = core.enumerate_phases(movements, matrix, 2)
            except ValueError:
                continue
            for phase in phases:
                for i, j in itertools.combinations(sorted(phase.green_movements), 2):
                    assert not matrix.conflicts(i, j)


class TestConflictMatrix:
    def test_rejects_self_conflict(self):
        with pytest.raises(ValueError):
            ConflictMatrix.from_pairs(2, [(1, 1)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            ConflictMatrix(((False, True), (False, False)))

    def test_symmetry(self):
        m = ConflictMatrix.from_pairs(3, [(0, 2)])
        assert m.conflicts(0, 2) and m.conflicts(2, 0)
        assert not m.conflicts(0, 1)


MINIMAL_DOC = {
    "yellow_duration": 5,
    "lanes": [{"length_m": 300.0, "vmax_ms": 11.0}, {"length_m": 300.0, "vmax_ms": 11.0}],
    "movements": [
        {"lane": 0, "approach": "N", "turn": "straight"},
        {"lane": 1, "approach": "E", "turn": "straight"},
    ],
    "conflicts": [[0, 1]],
    "phases": [[0], [1]],
}


class TestLoadIntersection:
    def test_minimal_two_lane_two_phase(self):
        spec = core.load_intersection(json.dumps(MINIMAL_DOC))
        assert spec.n_lanes == 2
        assert spec.n_phases == 2

    def test_zero_yellow_rejected(self):
        doc = dict(MINIMAL_DOC, yellow_duration=0)
        with pytest.raises(ValueError, match="yellow"):
            core.load_intersection(json.dumps(doc))

    def test_default_document_without_phases_enumerates_eight(self, default_spec):
        doc = core.intersection_to_document(default_spec)
        del doc["phases"]
        spec = core.load_intersection(json.dumps(doc))
        assert spec.n_phases == 8
        assert spec.phases == default_spec.phases

    def test_conflicting_phase_definition_rejected(self):
        doc = dict(MINIMAL_DOC, phases=[[0, 1]])
        with pytest.raises(ValueError, match="conflicting"):
            core.load_intersection(json.dumps(doc))

    def test_missing_field_rejected(self):
        doc = {k: v for k, v in MINIMAL_DOC.items() if k != "lanes"}
        with pytest.raises(ValueError):
            core.load_intersection(json.dumps(doc))

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            core.load_intersection("{not json")

    def test_round_trip(self, default_spec):
        doc = core.intersection_to_document(default_spec)
        again = core.load_intersection(json.dumps(doc))
        assert again == default_spec


class TestLaneBounds:
    @pytest.mark.parametrize("field", ["length_m", "vmax_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_lane_rejects_non_positive_or_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            core.Lane(**{field: value})

    @pytest.mark.parametrize("field", ["length_m", "vmax_ms"])
    @pytest.mark.parametrize("text", ['"NaN"', '"Infinity"', "NaN", "Infinity", "-Infinity"])
    def test_load_intersection_rejects_non_finite(self, field, text):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["lanes"][1][field] = "@"
        with pytest.raises(ValueError, match=field):
            core.load_intersection(json.dumps(doc).replace('"@"', text))


class TestGenerateFlow:
    def test_zero_rate_gives_empty_dataset(self):
        flow = core.generate_flow(UniformProfile(0.0, 4), seed=1, duration=100)
        assert flow.vehicles == ()

    def test_clustered_two_platoons_exact_spawns(self):
        profile = ClusteredProfile(
            cluster_size=5, inter_cluster_gap=60, within_gap=2, lane_weights=(1.0,)
        )
        flow = core.generate_flow(profile, seed=9, duration=120)
        assert [v.spawn_time for v in flow.vehicles] == [0, 2, 4, 6, 8, 60, 62, 64, 66, 68]
        assert all(v.movement_id == 0 for v in flow.vehicles)

    def test_deterministic_given_profile_and_seed(self):
        profile = UniformProfile(0.05, 4)
        a = core.generate_flow(profile, seed=11, duration=600)
        b = core.generate_flow(profile, seed=11, duration=600)
        assert a == b
        assert json.dumps(core.flow_to_document(a)) == json.dumps(core.flow_to_document(b))

    def test_different_seeds_differ(self):
        profile = UniformProfile(0.05, 4)
        a = core.generate_flow(profile, seed=11, duration=600)
        b = core.generate_flow(profile, seed=12, duration=600)
        assert a != b

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            UniformProfile(-0.1, 4)

    def test_bad_gaps_rejected(self):
        with pytest.raises(ValueError):
            ClusteredProfile(5, 0, 2, (1.0,))
        with pytest.raises(ValueError):
            ClusteredProfile(5, 60, -1, (1.0,))
        with pytest.raises(ValueError):
            ClusteredProfile(0, 60, 2, (1.0,))
        with pytest.raises(ValueError):
            ClusteredProfile(5, 60, 2, (0.0, 0.0))

    def test_vehicles_sorted_within_duration(self):
        profile = ClusteredProfile(3, 17, 4, (0.3, 0.7))
        flow = core.generate_flow(profile, seed=5, duration=200)
        spawns = [v.spawn_time for v in flow.vehicles]
        assert spawns == sorted(spawns)
        assert all(0 <= s < 200 for s in spawns)


class TestSplitDataset:
    def make_sets(self, n):
        out = []
        for k in range(n):
            vehicles = tuple(Vehicle(id=i, spawn_time=i * 10, movement_id=0) for i in range(10))
            out.append(FlowDataset(vehicles, duration=100, label=f"d{k}"))
        return out

    def test_five_datasets_holdout_four(self):
        data = self.make_sets(5)
        train, val, test = core.split_dataset(data, 4)
        assert train == data[:4]
        assert val.duration == 50
        assert all(v.spawn_time < 50 for v in val.vehicles)
        assert test.duration == 50
        assert all(v.spawn_time < 50 for v in test.vehicles)  # shifted to start at 0
        assert len(val.vehicles) + len(test.vehicles) == 10

    def test_two_datasets(self):
        data = self.make_sets(2)
        train, val, test = core.split_dataset(data, 1)
        assert train == [data[0]]

    def test_single_dataset_rejected(self):
        with pytest.raises(ValueError):
            core.split_dataset(self.make_sets(1), 0)

    def test_val_and_test_disjoint_and_holdout_not_in_train(self):
        data = self.make_sets(3)
        train, val, test = core.split_dataset(data, 1)
        assert data[1] not in train
        val_ids = {v.id for v in val.vehicles}
        test_ids = {v.id for v in test.vehicles}
        assert not (val_ids & test_ids)


class TestVehicleAndFlowInvariants:
    def test_negative_spawn_rejected(self):
        with pytest.raises(ValueError):
            Vehicle(id=0, spawn_time=-1, movement_id=0)

    def test_unsorted_flow_rejected(self):
        vehicles = (Vehicle(0, 50, 0), Vehicle(1, 10, 0))
        with pytest.raises(ValueError, match="sorted"):
            FlowDataset(vehicles, duration=100)

    def test_spawn_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FlowDataset((Vehicle(0, 100, 0),), duration=100)


class TestParseProfile:
    def test_uniform(self):
        p = core.parse_profile("uniform(rate_per_lane=0.05,n_lanes=8)")
        assert p == UniformProfile(0.05, 8)

    def test_clustered(self):
        p = core.parse_profile(
            "clustered(cluster_size=5,inter_cluster_gap=60,within_gap=2,lane_weights=1:0:2)"
        )
        assert p == ClusteredProfile(5, 60.0, 2.0, (1.0, 0.0, 2.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            core.parse_profile("poisson(rate=1)")


class TestCheckFlow:
    def test_accepts_a_flow_that_fits(self, two_phase_spec, clustered_flow):
        core.check_flow(two_phase_spec, clustered_flow)

    def test_names_the_flow_and_the_vehicle(self, two_phase_spec):
        flow = FlowDataset((Vehicle(0, 0, 0), Vehicle(3, 1, 9)), duration=60, label="east")
        with pytest.raises(ValueError, match=r"flow 'east': vehicle 3: movement 9 is not"):
            core.check_flow(two_phase_spec, flow)

    @pytest.mark.parametrize("body", [0.0, -5.0, float("nan")])
    def test_body_length_must_be_positive(self, two_phase_spec, body):
        flow = FlowDataset((Vehicle(4, 0, 1, body_length=body),), duration=60, label="f")
        with pytest.raises(ValueError, match=r"flow 'f': vehicle 4: body length .* not positive"):
            core.check_flow(two_phase_spec, flow)


UNIFORM_NAMES = "uniform takes rate_per_lane, n_lanes"
CLUSTERED_NAMES = "clustered takes cluster_size, inter_cluster_gap, within_gap, lane_weights"


class TestParseProfileRefusals:
    @pytest.mark.parametrize("text, message", [
        # a bare KeyError: 'n_lanes' before
        ("uniform(rate_per_lane=0.05)", f"uniform profile lacks n_lanes; {UNIFORM_NAMES}"),
        ("uniform()", f"uniform profile lacks rate_per_lane, n_lanes; {UNIFORM_NAMES}"),
        ("clustered(cluster_size=5,within_gap=2)",
         f"clustered profile lacks inter_cluster_gap, lane_weights; {CLUSTERED_NAMES}"),
        # silently ignored before
        ("uniform(rate_per_lane=0.05,n_lanes=8,bogus=3)",
         f"unknown uniform parameter 'bogus'; {UNIFORM_NAMES}"),
        ("clustered(cluster_size=5,inter_cluster_gap=60,within_gap=2,lane_weights=1,n_lanes=4)",
         f"unknown clustered parameter 'n_lanes'; {CLUSTERED_NAMES}"),
        # "could not convert string to float: 'abc'" before
        ("uniform(rate_per_lane=abc,n_lanes=8)",
         f"uniform parameter rate_per_lane cannot be read from 'abc'; {UNIFORM_NAMES}"),
        ("uniform(rate_per_lane=0.05,n_lanes=2.5)",
         f"uniform parameter n_lanes cannot be read from '2.5'; {UNIFORM_NAMES}"),
        ("uniform(rate_per_lane,n_lanes=8)",
         f"uniform parameter rate_per_lane cannot be read from ''; {UNIFORM_NAMES}"),
        ("clustered(cluster_size=5,inter_cluster_gap=60,within_gap=2,lane_weights=1::2)",
         f"clustered parameter lane_weights cannot be read from '1::2'; {CLUSTERED_NAMES}"),
        # the last one won before
        ("uniform(rate_per_lane=0.05,n_lanes=8,n_lanes=4)",
         "uniform parameter 'n_lanes' is given twice"),
        ("poisson(rate=1)", "unknown profile kind 'poisson'; accepted: uniform, clustered"),
    ])
    def test_names_the_parameter_and_lists_the_accepted_ones(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            core.parse_profile(text)

    def test_spaces_and_a_trailing_comma_are_still_accepted(self):
        p = core.parse_profile(" uniform( n_lanes = 8 , rate_per_lane = 0.05 , ) ")
        assert p == UniformProfile(0.05, 8)

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_a_non_finite_rate_is_refused_before_any_flow_is_generated(self, value):
        # expovariate(inf) is 0.0, so generate_flow used to loop without end
        with pytest.raises(ValueError, match="^rate_per_lane must be non-negative and finite"):
            core.parse_profile(f"uniform(rate_per_lane={value},n_lanes=8)")
        with pytest.raises(ValueError, match="^rate_per_lane must be non-negative and finite"):
            UniformProfile(float(value), 8)

    @pytest.mark.parametrize("field", ["inter_cluster_gap", "within_gap"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_a_non_finite_gap_is_refused_by_name(self, field, value):
        gaps = {"inter_cluster_gap": 60.0, "within_gap": 2.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got"):
            ClusteredProfile(cluster_size=5, lane_weights=(1.0,), **gaps)
        literal = ",".join(f"{k}={v}" for k, v in gaps.items())
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got"):
            core.parse_profile(f"clustered(cluster_size=5,{literal},lane_weights=1)")

    @pytest.mark.parametrize("weights", [(1.0, math.nan), (math.inf, 1.0), (1.0, -1.0), ()])
    def test_bad_lane_weights_are_refused_by_name(self, weights):
        with pytest.raises(ValueError, match="^lane_weights must be non-negative and finite"):
            ClusteredProfile(5, 60.0, 2.0, weights)


def _flow_text(vehicles, duration=10, **extra):
    return json.dumps({"duration_s": duration, "vehicles": vehicles, **extra})


GOOD_VEHICLE = {"id": 0, "spawn_time_s": 1, "movement": 0}


class TestLoadFlowRefusals:
    @pytest.mark.parametrize("text, message", [
        pytest.param("[]", "a flow document must be a JSON object, got list", id="array"),
        pytest.param('{"vehicles": []}', "flow document lacks duration_s", id="no-duration"),
        pytest.param('{"duration_s": 10}', "flow document lacks vehicles", id="no-vehicles"),
        pytest.param('{"duration_s": 100.9, "vehicles": []}',
                     "duration_s must be an integer, got 100.9", id="fractional-duration"),
        pytest.param('{"duration_s": true, "vehicles": []}',
                     "duration_s must be an integer, got True", id="bool-duration"),
        pytest.param('{"duration_s": 10, "vehicles": {}}', "vehicles must be an array, got dict",
                     id="vehicles-object"),
        pytest.param(_flow_text([5]), "vehicles[0] must be an object, got int",
                     id="vehicle-number"),
        pytest.param(_flow_text([GOOD_VEHICLE] * 17 + [dict(GOOD_VEHICLE, spawn_time_s=2.7)]),
                     "vehicles[17].spawn_time_s must be an integer, got 2.7",
                     id="fractional-spawn"),
        pytest.param(_flow_text([dict(GOOD_VEHICLE, spawn_time_s=3.0)]),
                     "vehicles[0].spawn_time_s must be an integer, got 3.0", id="float-spawn"),
        pytest.param('{"duration_s": 10, "vehicles": '
                     '[{"id": 0, "spawn_time_s": NaN, "movement": 0}]}',
                     "vehicles[0].spawn_time_s must be an integer, got nan", id="nan-spawn"),
        pytest.param(_flow_text([dict(GOOD_VEHICLE, movement=True)]),
                     "vehicles[0].movement must be an integer, got True", id="bool-movement"),
        pytest.param(_flow_text([dict(GOOD_VEHICLE, id=0.5)]),
                     "vehicles[0].id must be an integer, got 0.5", id="fractional-id"),
        pytest.param(_flow_text([dict(GOOD_VEHICLE, id="3")]),
                     "vehicles[0].id must be an integer, got '3'", id="string-id"),
        pytest.param(_flow_text([dict(GOOD_VEHICLE, id=None)]),
                     "vehicles[0].id must be an integer, got None", id="null-id"),
        pytest.param(_flow_text([GOOD_VEHICLE, {"id": 1, "movement": 0}]),
                     "vehicles[1] lacks spawn_time_s", id="missing-spawn"),
    ])
    def test_names_the_path(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            core.load_flow(text)

    def test_a_well_formed_document_loads(self):
        vehicles = [GOOD_VEHICLE, {"id": 7, "spawn_time_s": 9, "movement": 3}]
        flow = core.load_flow(_flow_text(vehicles, label="a"))
        assert flow == FlowDataset((Vehicle(0, 1, 0), Vehicle(7, 9, 3)), 10, "a")


def _vehicle(k, spawn):
    return {"id": k, "spawn_time_s": spawn, "movement": 0}


class TestLoadFlowNamesTheVehicle:
    @pytest.mark.parametrize("text, message", [
        pytest.param(_flow_text([_vehicle(0, 1), _vehicle(1, 2), _vehicle(2, -1)]),
                     "vehicles[2].spawn_time_s must be non-negative, got -1",
                     id="negative-spawn"),
        pytest.param(_flow_text([_vehicle(0, 1), _vehicle(1, 5), _vehicle(2, 3)]),
                     "vehicles[2] spawns at 3 s, before the vehicle ahead of it at 5 s; "
                     "vehicles must be sorted by spawn_time", id="unsorted"),
        pytest.param(_flow_text([_vehicle(0, 1), _vehicle(1, 10)]),
                     "vehicles[1] spawns at 10 s, at or past the end of the 10 s flow; "
                     "spawn times must fall within the flow duration", id="past-duration"),
        pytest.param(_flow_text([], duration=-5), "duration_s must be non-negative, got -5",
                     id="negative-duration"),
        pytest.param(_flow_text([_vehicle(0, 1), dict(_vehicle(1, 2), body_length=12.0)]),
                     "unknown vehicles[1] key(s) 'body_length'; "
                     "accepted keys: id, spawn_time_s, movement", id="vehicle-body-length"),
        pytest.param(_flow_text([_vehicle(0, 1)], durations=10),
                     "unknown flow document key(s) 'durations'; "
                     "accepted keys: duration_s, label, vehicles", id="top-level-key"),
    ])
    def test_refusals_name_the_vehicle_or_the_key(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            core.load_flow(text)

    def test_a_flow_built_in_code_names_the_vehicle(self):
        vehicles = (Vehicle(0, 0, 0), Vehicle(1, 50, 0), Vehicle(2, 10, 0))
        with pytest.raises(ValueError, match=r"^vehicles\[2\] spawns at 10 s"):
            FlowDataset(vehicles, duration=100)

    def test_flow_to_document_refuses_a_body_length_it_cannot_store(self):
        flow = FlowDataset((Vehicle(0, 0, 0), Vehicle(1, 3, 0, body_length=12.0)), 10, "f")
        with pytest.raises(ValueError, match=r"^flow 'f': vehicles\[1\] has a body length of 12"):
            core.flow_to_document(flow)


def reference_clustered_spawns(profile, seed, duration):
    """The clustered generator's (spawn, lane) pairs with every platoon run to
    its full size, as it was before platoons stopped at the duration."""
    rng = random.Random(seed)
    raw = []
    lanes = list(range(len(profile.lane_weights)))
    start = 0.0
    while start < duration:
        lane = rng.choices(lanes, weights=profile.lane_weights)[0]
        for k in range(profile.cluster_size):
            spawn = int(start + k * profile.within_gap)
            if spawn < duration:
                raw.append((spawn, lane))
        start += profile.inter_cluster_gap
    raw.sort(key=lambda item: item[0])
    return raw


class TestPlatoonStopsAtTheDuration:
    def test_same_vehicles_as_full_platoons(self):
        rng = random.Random(4)
        for _ in range(300):
            profile = ClusteredProfile(
                cluster_size=rng.randint(1, 40),
                inter_cluster_gap=rng.choice((0.5, 3.0, 7.3, 60.0)),
                within_gap=rng.choice((0.01, 0.4, 1.0, 2.5, 9.9)),
                lane_weights=tuple(rng.choice((0.0, 0.3, 1.0)) for _ in range(3)) + (1.0,),
            )
            seed, duration = rng.randrange(100), rng.randint(1, 400)
            flow = core.generate_flow(profile, seed=seed, duration=duration)
            assert ([(v.spawn_time, v.movement_id) for v in flow.vehicles]
                    == reference_clustered_spawns(profile, seed, duration))

    def test_a_huge_platoon_costs_only_the_vehicles_it_yields(self):
        profile = core.parse_profile("clustered(cluster_size=100000000,inter_cluster_gap=60,"
                                     "within_gap=1,lane_weights=1:1)")

        def too_slow(signum, frame):
            raise TimeoutError("the platoon ran on past the duration")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(10)
        try:
            flow = core.generate_flow(profile, seed=1, duration=60)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [v.spawn_time for v in flow.vehicles] == list(range(60))


def _intersection_text(**changes):
    """MINIMAL_DOC with `changes` set; a key such as `movements__1__lane` is
    the path `movements[1].lane`."""
    doc = json.loads(json.dumps(MINIMAL_DOC))
    for path, value in changes.items():
        *keys, last = path.split("__")
        target = doc
        for key in keys:
            target = target[int(key) if key.isdigit() else key]
        target[int(last) if last.isdigit() else last] = value
    return json.dumps(doc)


class TestLoadIntersectionRefusals:
    @pytest.mark.parametrize("text, message", [
        pytest.param(_intersection_text(yellow_duration=2.7),
                     "yellow_duration must be an integer, got 2.7", id="fractional-yellow"),
        pytest.param(_intersection_text(yellow_duration=True),
                     "yellow_duration must be an integer, got True", id="bool-yellow"),
        pytest.param(_intersection_text(movements__1__lane=1.9),
                     "movements[1].lane must be an integer, got 1.9", id="fractional-lane"),
        pytest.param(_intersection_text(phases__0__0=0.5),
                     "phases[0][0] must be an integer, got 0.5", id="fractional-member"),
        pytest.param(_intersection_text(phases=[[0, 9], [1]]),
                     "phases[0][1] is movement 9, which the intersection lacks (0..1)",
                     id="member-out-of-range"),
        pytest.param(_intersection_text(phases=[[0], [-1]]),
                     "phases[1][0] is movement -1, which the intersection lacks (0..1)",
                     id="negative-member"),
        pytest.param(_intersection_text(conflicts=[[0, 1.5]]),
                     "conflicts[0][1] must be an integer, got 1.5", id="fractional-conflict"),
        pytest.param(_intersection_text(conflicts=[[0, 1, 1]]),
                     "conflicts[0] must be an array of 2 movement ids, got [0, 1, 1]",
                     id="conflict-triple"),
        pytest.param(_intersection_text(conflicts=5), "conflicts must be an array, got int",
                     id="conflicts-number"),
        pytest.param(_intersection_text(phases=[]), "phases must list at least one phase",
                     id="no-phases"),
        pytest.param(_intersection_text(phases=[[], [1]]),
                     "phases[0] must be an array of one or more movement ids, got []",
                     id="empty-phase"),
        pytest.param(_intersection_text(phases={"0": [0]}), "phases must be an array, got dict",
                     id="phases-object"),
        pytest.param(_intersection_text(colour="red"),
                     "unknown intersection document key(s) 'colour'; accepted keys: "
                     "yellow_duration, lanes, movements, conflicts, phases", id="unknown-key"),
        pytest.param(_intersection_text(lanes=5), "lanes must be an array, got int",
                     id="lanes-number"),
        pytest.param(_intersection_text(movements__0=3), "movements[0] must be an object, got int",
                     id="movement-number"),
        pytest.param(_intersection_text(conflicts=[[0, 1], [1, 1]]),
                     "conflicts[1] pairs movement 1 with itself", id="self-conflict"),
        pytest.param(_intersection_text(movements__1__lane=0),
                     "lane 0 carries movements [0, 1]; each lane must carry exactly one "
                     "movement", id="shared-lane"),
        pytest.param(_intersection_text(lanes=MINIMAL_DOC["lanes"] * 2),
                     "lane 2 carries movements []; each lane must carry exactly one "
                     "movement", id="lane-without-movement"),
        pytest.param(_intersection_text(movements__1__lane=5),
                     "movements[1].lane is 5, which the intersection lacks (0..1)",
                     id="lane-out-of-range"),
        pytest.param(_intersection_text(movements__1={"lane": 1, "turn": "straight"}),
                     "movements[1] lacks 'approach'", id="movement-field-missing"),
        pytest.param(_intersection_text(lanes__0={"length_m": 300.0}),
                     "lanes[0] lacks 'vmax_ms'", id="lane-field-missing"),
    ])
    def test_names_the_path(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            core.load_intersection(text)

    def test_existing_messages_stay(self):
        with pytest.raises(ValueError, match=r"^intersection document missing field: 'lanes'$"):
            core.load_intersection(json.dumps({k: v for k, v in MINIMAL_DOC.items()
                                               if k != "lanes"}))
        with pytest.raises(ValueError, match=r"^conflict pair \(0, 5\) out of range$"):
            core.load_intersection(_intersection_text(conflicts=[[0, 5]]))


class TestLoadFlowLabel:
    @pytest.mark.parametrize("label", ["null", "5", "true", "[1]"])
    def test_a_label_that_is_not_a_string_is_refused(self, label):
        text = '{"duration_s": 10, "vehicles": [], "label": %s}' % label
        with pytest.raises(ValueError, match=r"^label must be a string, got "):
            core.load_flow(text)

    def test_a_missing_label_loads_as_empty(self):
        assert core.load_flow('{"duration_s": 10, "vehicles": []}').label == ""


class TestLaneAndMovementRefusals:
    @pytest.mark.parametrize("text, message", [
        # float() used to read "300" as 300.0
        pytest.param(_intersection_text(lanes__1__length_m="300"),
                     "lanes[1].length_m must be a number, got '300'", id="string-length"),
        # float() used to read true as 1.0
        pytest.param(_intersection_text(lanes__0__vmax_ms=True),
                     "lanes[0].vmax_ms must be a number, got True", id="bool-vmax"),
        pytest.param(_intersection_text(lanes__1__vmax_ms=None),
                     "lanes[1].vmax_ms must be a number, got None", id="null-vmax"),
        # float() used to raise a bare OverflowError
        pytest.param(_intersection_text(lanes__0__length_m=10 ** 400),
                     "lanes[0].length_m must be a number within the float range",
                     id="huge-length"),
        # an unknown key inside a lane or a movement used to be dropped unread
        pytest.param(_intersection_text(lanes__0__width_m=3.5),
                     "unknown lanes[0] key(s) 'width_m'; accepted keys: length_m, vmax_ms",
                     id="unknown-lane-key"),
        pytest.param(_intersection_text(movements__1__speed=9),
                     "unknown movements[1] key(s) 'speed'; accepted keys: lane, approach, turn",
                     id="unknown-movement-key"),
    ])
    def test_names_the_path(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            core.load_intersection(text)

    def test_integers_still_load_as_floats(self):
        spec = core.load_intersection(_intersection_text(lanes__0__length_m=250,
                                                         lanes__1__vmax_ms=9))
        assert spec.lanes[0] == core.Lane(250.0, 11.0) and spec.lanes[1] == core.Lane(300.0, 9.0)
        assert type(spec.lanes[0].length_m) is float and type(spec.lanes[1].vmax_ms) is float
