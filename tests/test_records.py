"""Each record holds its own invariants: a record built in code is refused
exactly as its document would be, with a ValueError naming the field. Also
the bounds on the work one input may ask for: the replay warmup and memory,
the lane count of a uniform profile, the length of a flow and the size of an
intersection."""

import dataclasses
import json
import re
import time

import numpy as np
import pytest

from trafficlab import cli, core
from trafficlab.agents import DQNAgent, DQNConfig
from trafficlab.env import Transition
from trafficlab.core import (MAX_FLOW_DURATION_S, MAX_FLOW_VEHICLES, ClusteredProfile,
                             FlowDataset, Movement, Phase, UniformProfile, Vehicle)
from trafficlab.harness import ExperimentConfig


def two_phase_with(**changes):
    return dataclasses.replace(core.two_phase_intersection(), **changes)


def with_phase_zero(*members):
    spec = core.two_phase_intersection()
    return two_phase_with(phases=(Phase(0, frozenset(members)),) + spec.phases[1:])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Vehicle(0, 1.5, 0), "spawn_time must be an integer, got 1.5",
                 id="fractional-spawn"),
    pytest.param(lambda: Vehicle(True, 1, 0), "id must be an integer, got True", id="bool-id"),
    pytest.param(lambda: FlowDataset((), 2.5), "duration must be an integer, got 2.5",
                 id="fractional-duration"),
    pytest.param(lambda: Movement(0, True, "straight", "N"),
                 "in_lane must be an integer, got True", id="bool-lane"),
    pytest.param(lambda: two_phase_with(yellow_duration=2.5),
                 "yellow_duration must be an integer, got 2.5", id="fractional-yellow"),
    # sim.init used to run on it
    pytest.param(lambda: two_phase_with(phases=()), "phases must list at least one phase",
                 id="no-phases"),
    # served lane 3 of the two-phase spec without a word
    pytest.param(lambda: with_phase_zero(-1),
                 "phases[0] serves movement -1, which the intersection lacks (0..3)",
                 id="member-minus-1"),
    # a bare IndexError
    pytest.param(lambda: with_phase_zero(7),
                 "phases[0] serves movement 7, which the intersection lacks (0..3)", id="member-7"),
    pytest.param(lambda: Phase(0, frozenset()), "green_movements must hold at least one",
                 id="empty-phase"),
    pytest.param(lambda: Phase(0, frozenset({0.5})), "green_movements must be an integer",
                 id="fractional-member"),
    # these two ended in a bare TypeError inside generate_flow
    pytest.param(lambda: UniformProfile(0.1, 2.5), "n_lanes must be an integer, got 2.5",
                 id="fractional-n_lanes"),
    pytest.param(lambda: ClusteredProfile(2.5, 60.0, 2.0, (1.0,)),
                 "cluster_size must be an integer, got 2.5", id="fractional-cluster_size"),
    # numpy's "expected non-negative integer" when the agent was built, naming no field
    pytest.param(lambda: DQNConfig(seed=-1), "seed must be non-negative, got -1",
                 id="negative-seed"),
])
def test_a_record_built_in_code_is_refused_by_its_field(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build()


def test_a_replay_capacity_below_the_warmup_is_refused_naming_both():
    # No update ever ran, so a training run waiting for updates hung.
    config = DQNConfig(batch_size=64, replay_capacity=100)
    with pytest.raises(ValueError, match=r"^replay_capacity 100 is below the warmup of 128 "
                                         r"transitions \(2 x batch_size 64\)"):
        DQNAgent(3, 2, config)
    assert DQNAgent(3, 2, DQNConfig(batch_size=64, replay_capacity=128)).buffer.capacity == 128


def no_generation(monkeypatch):
    def never(seed):
        raise AssertionError("the generator drew random numbers")
    monkeypatch.setattr(core.random, "Random", never)


def test_a_zero_rate_returns_an_empty_flow_without_visiting_a_lane(monkeypatch):
    # generate_flow used to walk every lane, drawing from its RNG
    no_generation(monkeypatch)
    flow = core.generate_flow(UniformProfile(0.0, MAX_FLOW_VEHICLES), seed=1, duration=600)
    assert flow == FlowDataset((), 600)


@pytest.mark.parametrize("rate", [0.0, 1e-12])
def test_a_uniform_profile_with_more_lanes_than_the_vehicle_cap_is_refused(monkeypatch, rate):
    # uniform(rate_per_lane=0,n_lanes=10**12) passed the vehicle cap, then ran for hours
    no_generation(monkeypatch)
    profile = UniformProfile(rate, 10 ** 12)
    message = f"^n_lanes must be at most {MAX_FLOW_VEHICLES}, got {10 ** 12}$"
    with pytest.raises(ValueError, match=message):
        core.check_flow_size(profile, 60)
    with pytest.raises(ValueError, match=message):
        core.generate_flow(profile, seed=1, duration=60)


def flow_text(duration):
    return json.dumps({"duration_s": duration, "label": "long",
                       "vehicles": [{"id": 0, "spawn_time_s": 0, "movement": 0}]})


def test_a_flow_longer_than_the_cap_is_refused_by_name():
    # a 144-byte document like this one made compare tick until killed; the
    # cap sits far above the benchmark's 3,600 s flows
    assert MAX_FLOW_DURATION_S >= 100 * 3600
    message = f"^duration_s must be at most {MAX_FLOW_DURATION_S}, got 1000000000000$"
    with pytest.raises(ValueError, match=message):
        core.load_flow(flow_text(10 ** 12))
    with pytest.raises(ValueError, match="^duration must be at most"):
        FlowDataset((), MAX_FLOW_DURATION_S + 1)
    with pytest.raises(ValueError, match="^duration must be at most"):
        core.generate_flow(UniformProfile(0.0, 8), seed=1, duration=10 ** 12)
    assert core.load_flow(flow_text(MAX_FLOW_DURATION_S)).duration == MAX_FLOW_DURATION_S


def test_compare_over_a_flow_longer_than_the_cap_fails_before_an_episode(tmp_path, monkeypatch,
                                                                       two_phase_spec):
    def never(*args, **kwargs):
        raise AssertionError("an episode ran")
    monkeypatch.setattr(core, "check_flow", never)
    (tmp_path / "spec.json").write_text(json.dumps(core.intersection_to_document(two_phase_spec)))
    (tmp_path / "flow.json").write_text(flow_text(10 ** 12))
    (tmp_path / "config.json").write_text(json.dumps(
        {"intersection": "spec.json", "flows": ["flow.json"], "controllers": ["fixed"]}))
    with pytest.raises(ValueError, match="^duration_s must be at most"):
        cli.main(["compare", "--config", str(tmp_path / "config.json"),
                  "--out", str(tmp_path / "compare.csv")])


@pytest.mark.parametrize("doc, message", [
    pytest.param({"horizon": 10 ** 12}, f"^horizon must be at most {MAX_FLOW_DURATION_S}, got ",
                 id="horizon"),
    pytest.param({"flow_profiles": [{"profile": "uniform(rate_per_lane=0,n_lanes=4)",
                                     "seed": 1, "duration": 10 ** 12}]},
                 r"^flow_profiles\[0\]\.duration must be at most", id="profile-duration"),
])
def test_a_config_asking_for_a_longer_run_than_the_cap_is_refused_by_name(doc, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(intersection="spec.json", **doc)


@pytest.mark.parametrize("doc, message", [
    # these loaded, and failed only when train or compare built the record
    pytest.param({"dqn": {"lr": "fast"}}, "dqn.lr must be a number, got 'fast'", id="dqn-lr"),
    pytest.param({"dqn": {"gamma": 7.0}}, "dqn.gamma must be in [0, 1], got 7.0", id="dqn-gamma"),
    pytest.param({"sotl": {"min_green": 0}}, "sotl.min_green must be at least 1, got 0",
                 id="sotl-min_green"),
])
def test_a_config_block_its_record_refuses_is_refused_at_load_by_path(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(intersection="spec.json", **doc)


def test_a_replay_memory_above_the_byte_cap_is_refused_naming_the_capacity():
    # the first observe used to end in "MemoryError: Unable to allocate 43.7 TiB"
    with pytest.raises(ValueError, match=r"^replay_capacity 1000000000000 needs 6\.8e\+04 GiB "
                                         r"of replay memory for 3 inputs, above the cap of 16 GiB"):
        DQNAgent(3, 2, DQNConfig(replay_capacity=10 ** 12))


def test_the_replay_cap_counts_the_bytes_the_buffer_allocates():
    from trafficlab import agents
    per_transition = 16 * 40 + 25
    largest = agents.MAX_REPLAY_BYTES // per_transition
    DQNAgent(40, 2, DQNConfig(replay_capacity=largest))  # the buffer allocates lazily
    with pytest.raises(ValueError, match=f"^replay_capacity {largest + 1} needs"):
        DQNAgent(40, 2, DQNConfig(replay_capacity=largest + 1))
    agent = DQNAgent(40, 2, DQNConfig(replay_capacity=1000, batch_size=4))
    agent.buffer.store(Transition(np.zeros(40), 0, 0.0, np.zeros(40), 1, False))
    arrays = (agent.buffer._state_pairs, agent.buffer._actions, agent.buffer._rewards,
              agent.buffer._durations, agent.buffer._terminals)
    assert sum(a.nbytes for a in arrays) == 1000 * per_transition


def lanes_document(n_lanes, phases=None):
    """`n_lanes` lanes with one straight movement each and no conflicts."""
    doc = {"yellow_duration": 5, "lanes": [{"length_m": 300.0, "vmax_ms": 11.0}] * n_lanes,
           "movements": [{"lane": k, "approach": "NESW"[k % 4], "turn": "straight"}
                         for k in range(n_lanes)],
           "conflicts": []}
    if phases is not None:
        doc["phases"] = phases
    return json.dumps(doc)


def test_an_intersection_with_400_lanes_is_refused_at_once_by_its_movement_count(monkeypatch):
    # 36 KB; it used to load, after enumerating 79,800 phases
    def never(*args, **kwargs):
        raise AssertionError("the movement count is refused before any phase is enumerated")
    monkeypatch.setattr(core, "enumerate_phases", never)
    text = lanes_document(400)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"^len\(movements\) must be at most 128, got 400$"):
        core.load_intersection(text)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("text, message", [
    pytest.param(lanes_document(8, [[0]] * 1025), r"^len\(phases\) must be at most 1024, got 1025$",
                 id="listed-phases"),
    # no phases listed: one per compatible movement pair, 128 * 127 / 2 of them
    pytest.param(lanes_document(128), r"^len\(phases\) must be at most 1024, got 8128$",
                 id="enumerated-phases"),
])
def test_an_intersection_with_more_phases_than_the_cap_is_refused(text, message):
    with pytest.raises(ValueError, match=message):
        core.load_intersection(text)


def test_an_intersection_at_the_caps_loads():
    phases = [[i, j] for i in range(46) for j in range(i + 1, 46)][:core.MAX_PHASES]
    spec = core.load_intersection(lanes_document(core.MAX_MOVEMENTS, phases))
    assert (spec.n_lanes, spec.n_phases) == (128, 1024)
    assert len(spec.lane_phases) == 128 and len(spec.lane_green) == 1024


def test_a_spec_built_in_code_holds_the_same_caps():
    with pytest.raises(ValueError, match=r"^len\(phases\) must be at most 1024, got 1025$"):
        two_phase_with(phases=tuple(Phase(k, frozenset([0])) for k in range(1025)))
    lanes = (core.Lane(),) * 129
    movements = tuple(Movement(k, k, "straight", "NESW"[k % 4]) for k in range(129))
    with pytest.raises(ValueError, match=r"^len\(movements\) must be at most 128, got 129$"):
        core.IntersectionSpec(lanes, movements, core.ConflictMatrix.from_pairs(129, []),
                              (Phase(0, frozenset([0])),))
