"""Training loop, evaluation, comparison, and sweep tests."""

import csv
import itertools
import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficlab import core, harness, sim
from trafficlab.agents import (DQNAgent, DQNConfig, GreedyController, load_checkpoint,
                               save_checkpoint)
from trafficlab.baselines import CONTROLLER_NAMES, make_controller, SotlParams
from trafficlab.env import ActionSpace, TrafficEnv, lane_capacity, observation_dim
from trafficlab.harness import (ExperimentConfig, METRICS_COLUMNS, COMPARE_COLUMNS,
                                UPDATES_PER_EPOCH, _format_cell, greedy_rollout, load_materials)


def write_toy_config(tmp_path, **overrides) -> Path:
    """Two-phase toy setup with three generated clustered flows."""
    tmp_path = Path(tmp_path)
    tmp_path.mkdir(parents=True, exist_ok=True)
    spec = core.two_phase_intersection(lane_length_m=150.0)
    spec_path = tmp_path / "intersection.json"
    spec_path.write_text(json.dumps(core.intersection_to_document(spec)))
    config = {
        "intersection": "intersection.json",
        "flow_profiles": [
            {
                "profile": "clustered(cluster_size=4,inter_cluster_gap=15,within_gap=2,"
                           "lane_weights=0.5:0.2:0.25:0.05)",
                "seed": s,
                "duration": 600,
                "label": f"toy{s}",
            }
            for s in (1, 2, 3)
        ],
        "holdout_index": 2,
        "variant": "wad",
        "action_mode": "acyclic",
        "process": "smdp",
        "dqn": {"batch_size": 32, "eps_decay_steps": 1500},
        "eval_every": 1,
        "total_epochs": 1,
        "seed": 0,
        "out_dir": str(tmp_path / "run"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunTraining:
    def test_zero_epochs_writes_only_the_initial_row(self, tmp_path):
        config = ExperimentConfig.from_file(write_toy_config(tmp_path, total_epochs=0))
        result = harness.run_training(config)
        rows = read_csv(result.metrics_path)
        assert rows[0] == list(METRICS_COLUMNS)
        assert len(rows) == 2
        assert rows[1][0] == "0" and rows[1][1] == "0"
        assert Path(result.best_checkpoint).exists()

    def test_metrics_deterministic_up_to_wall_clock(self, tmp_path):
        config_a = ExperimentConfig.from_file(
            write_toy_config(tmp_path / "a", out_dir=str(tmp_path / "a/run"))
        )
        config_b = ExperimentConfig.from_file(
            write_toy_config(tmp_path / "b", out_dir=str(tmp_path / "b/run"))
        )
        rows_a = read_csv(harness.run_training(config_a).metrics_path)
        rows_b = read_csv(harness.run_training(config_b).metrics_path)
        drop = METRICS_COLUMNS.index("wall_clock_s")
        strip = lambda rows: [r[:drop] + r[drop + 1 :] for r in rows]
        assert strip(rows_a) == strip(rows_b)

    def test_best_val_is_running_minimum(self, tmp_path):
        config = ExperimentConfig.from_file(write_toy_config(tmp_path, total_epochs=2))
        result = harness.run_training(config)
        vals = [row["val_avg_travel_time_s"] for row in result.rows]
        assert result.best_val_travel_time == pytest.approx(min(vals))

    def test_epoch_and_update_columns_are_monotone(self, tmp_path):
        config = ExperimentConfig.from_file(write_toy_config(tmp_path, total_epochs=2))
        result = harness.run_training(config)
        updates = [row["weight_updates"] for row in result.rows]
        epochs = [row["epoch"] for row in result.rows]
        assert updates == sorted(updates)
        assert epochs == sorted(epochs)
        assert updates[-1] == 1800

    def test_a_last_epoch_off_the_validation_stride_is_validated(self, tmp_path):
        # One epoch at eval_every 2: the stride's validation never comes, so the
        # run validates once more when its updates run out.
        config = ExperimentConfig.from_file(write_toy_config(
            tmp_path, total_epochs=1, eval_every=2, dqn={"batch_size": 8}))
        result = harness.run_training(config)
        assert [row["weight_updates"] for row in result.rows] == [0, UPDATES_PER_EPOCH]
        assert len(read_csv(result.metrics_path)) == 3


class TestEvaluate:
    def test_empty_flow_is_an_error(self, two_phase_spec):
        empty = core.FlowDataset((), duration=100)
        with pytest.raises(ValueError, match="empty flow"):
            harness.evaluate(make_controller("fixed", two_phase_spec), two_phase_spec, empty)

    def test_pure_given_seed(self, two_phase_spec, clustered_flow):
        a = harness.evaluate(make_controller("random", two_phase_spec, seed=3),
                             two_phase_spec, clustered_flow)
        b = harness.evaluate(make_controller("random", two_phase_spec, seed=3),
                             two_phase_spec, clustered_flow)
        assert a == b

    def test_random_no_better_than_max_integral(self, two_phase_spec, clustered_flow):
        random_tt = harness.evaluate(make_controller("random", two_phase_spec, seed=0),
                                     two_phase_spec, clustered_flow)
        sotl_tt = harness.evaluate(make_controller("sotl2", two_phase_spec),
                                   two_phase_spec, clustered_flow)
        assert random_tt >= sotl_tt


class TestCompare:
    def test_one_controller_one_flow_two_rows(self, tmp_path):
        path = write_toy_config(tmp_path, controllers=["fixed"])
        config = ExperimentConfig.from_file(path)
        config.flow_profiles = config.flow_profiles[:1]
        rows = harness.compare(config)
        assert len(rows) == 2
        assert [r["split"] for r in rows] == ["val", "test"]

    def test_column_contract(self, tmp_path):
        path = write_toy_config(tmp_path, controllers=["fixed"])
        config = ExperimentConfig.from_file(path)
        config.flow_profiles = config.flow_profiles[:1]
        out = tmp_path / "compare.csv"
        harness.write_csv(out, COMPARE_COLUMNS, harness.compare(config))
        rows = read_csv(out)
        assert rows[0] == ["controller", "flow", "split", "avg_travel_time_s"]

    def test_full_cross_product(self, tmp_path):
        config = ExperimentConfig.from_file(
            write_toy_config(tmp_path, controllers=["fixed", "random"])
        )
        rows = harness.compare(config)
        combos = {(r["controller"], r["flow"], r["split"]) for r in rows}
        assert len(rows) == 2 * 3 * 2
        assert len(combos) == len(rows)

    def test_repeats_spread_stochastic_controllers_only(self, tmp_path):
        path = write_toy_config(tmp_path, controllers=["fixed", "random"])
        config = ExperimentConfig.from_file(path)
        config.flow_profiles = config.flow_profiles[:1]
        single = {(r["controller"], r["split"]): r["avg_travel_time_s"]
                  for r in harness.compare(config)}
        config.repeats = 3
        averaged = {(r["controller"], r["split"]): r["avg_travel_time_s"]
                    for r in harness.compare(config)}
        for split in ("val", "test"):
            assert averaged[("fixed", split)] == single[("fixed", split)]
        assert any(
            averaged[("random", s)] != single[("random", s)] for s in ("val", "test")
        )

    def test_checkpoint_controllers_join_the_table(self, tmp_path, two_phase_spec):
        checkpoint = zeroed_checkpoint(tmp_path, two_phase_spec)
        path = write_toy_config(tmp_path, controllers=["fixed", f"dqn:{checkpoint}"])
        config = ExperimentConfig.from_file(path)
        config.flow_profiles = config.flow_profiles[:1]
        rows = harness.compare(config)
        assert {r["controller"] for r in rows} == {"fixed", f"dqn:{checkpoint}"}
        assert len(rows) == 4

    def test_checkpoint_loads_once_per_compare(self, tmp_path, two_phase_spec, monkeypatch):
        agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=5))
        checkpoint = tmp_path / "seeded.npz"
        save_checkpoint(checkpoint, agent, {
            "variant": "wad", "action_mode": "acyclic", "process": "mdp",
            "intersection": core.intersection_to_document(two_phase_spec),
        })
        path = write_toy_config(tmp_path, controllers=[f"dqn:{checkpoint}"], repeats=2)
        config = ExperimentConfig.from_file(path)
        spec, flows = harness.load_materials(config)
        expected = []  # one freshly loaded controller per episode, as before
        for flow in flows:
            for split, part in zip(("val", "test"), core.split_halves(flow)):
                loaded, meta = load_checkpoint(checkpoint)
                tt = harness.evaluate(GreedyController(loaded, spec, meta), spec, part)
                expected.append({"controller": f"dqn:{checkpoint}", "flow": flow.label,
                                 "split": split, "avg_travel_time_s": tt})

        loads = []

        def counting_load(p):
            loads.append(p)
            return load_checkpoint(p)

        monkeypatch.setattr(harness, "load_checkpoint", counting_load)
        rows = harness.compare(config)
        assert len(loads) == 1
        harness.write_csv(tmp_path / "got.csv", COMPARE_COLUMNS, rows)
        harness.write_csv(tmp_path / "want.csv", COMPARE_COLUMNS, expected)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_max_integral_beats_cutoff_on_clustered_multiphase(self, tmp_path,
                                                               four_singleton_spec):
        spec_path = tmp_path / "spec4.json"
        spec_path.write_text(json.dumps(core.intersection_to_document(four_singleton_spec)))
        config = ExperimentConfig(
            intersection=str(spec_path),
            flow_profiles=[
                {
                    "profile": "clustered(cluster_size=4,inter_cluster_gap=18,"
                               "within_gap=2,lane_weights=0.4:0.1:0.4:0.1)",
                    "seed": s,
                    "duration": 900,
                    "label": f"c{s}",
                }
                for s in (11, 12)
            ],
            controllers=["sotl1", "sotl2"],
        )
        rows = harness.compare(config)
        by_key = {(r["controller"], r["flow"], r["split"]): r["avg_travel_time_s"] for r in rows}
        for flow in ("c11", "c12"):
            for split in ("val", "test"):
                assert by_key[("sotl2", flow, split)] <= by_key[("sotl1", flow, split)]


def zeroed_checkpoint(tmp_path, spec, variant="wad", action_mode="acyclic"):
    in_dim = observation_dim(variant, spec.n_lanes, spec.n_phases)
    agent = DQNAgent(in_dim, 2, DQNConfig(seed=0))
    for w in agent.net.weights:
        w[:] = 0.0
    for b in agent.net.biases:
        b[:] = 0.0
    path = tmp_path / "zero.npz"
    meta = {
        "variant": variant,
        "action_mode": action_mode,
        "process": "smdp",
        "intersection": core.intersection_to_document(spec),
    }
    save_checkpoint(path, agent, meta)
    return path


def reference_sweep_rows(agent, spec, action_mode, lane_pair, grid_max, variant="wad"):
    """The sweep's grid loop over a pair known to be valid."""
    keep_phase = next(p for p in range(2) if lane_pair[0] in spec.green_lanes(p))
    switch_phase = 1 - keep_phase
    dim = observation_dim(variant, spec.n_lanes, spec.n_phases)
    blocks = dim - spec.n_phases
    rows = []
    for n1 in range(grid_max + 1):
        for n2 in range(grid_max + 1):
            obs = np.zeros(dim)
            for lane, n in ((lane_pair[0], n1), (lane_pair[1], n2)):
                cap = lane_capacity(spec.lanes[lane].length_m)
                obs[lane] = min(n / cap, 1.0)
            obs[blocks + keep_phase] = 1.0
            q = agent.q_values(obs)
            if action_mode == "cyclic":
                q_keep, q_switch = float(q[0]), float(q[1])
            else:
                q_keep, q_switch = float(q[keep_phase]), float(q[switch_phase])
            rows.append({"n1": n1, "n2": n2, "q_keep": q_keep, "q_switch": q_switch,
                         "q_switch_minus_q_keep": q_switch - q_keep})
    return rows


class TestQvalueSweep:
    def test_grid_five_has_36_rows(self, tmp_path, two_phase_spec):
        path = zeroed_checkpoint(tmp_path, two_phase_spec)
        rows = harness.qvalue_sweep(path, grid_max=5)
        assert len(rows) == 36
        assert {(r["n1"], r["n2"]) for r in rows} == {
            (a, b) for a in range(6) for b in range(6)
        }

    def test_zero_network_gives_zero_differences(self, tmp_path, two_phase_spec):
        path = zeroed_checkpoint(tmp_path, two_phase_spec)
        rows = harness.qvalue_sweep(path, grid_max=5)
        assert all(r["q_switch_minus_q_keep"] == 0.0 for r in rows)

    def test_rejects_non_two_phase_checkpoint(self, tmp_path, four_singleton_spec):
        in_dim = observation_dim("wad", 4, 4)
        agent = DQNAgent(in_dim, 4, DQNConfig(seed=0))
        path = tmp_path / "four.npz"
        save_checkpoint(path, agent, {
            "variant": "wad", "action_mode": "acyclic", "process": "smdp",
            "intersection": core.intersection_to_document(four_singleton_spec),
        })
        with pytest.raises(ValueError, match="two-phase"):
            harness.qvalue_sweep(path, grid_max=5)

    def test_rejects_bad_grid(self, tmp_path, two_phase_spec):
        path = zeroed_checkpoint(tmp_path, two_phase_spec)
        with pytest.raises(ValueError):
            harness.qvalue_sweep(path, grid_max=0)

    @pytest.mark.parametrize("pair", [(0, -1), (0, 5), (0,), (0, 1, 2), (0.0, 1)])
    def test_rejects_lanes_outside_the_spec(self, tmp_path, two_phase_spec, pair):
        path = zeroed_checkpoint(tmp_path, two_phase_spec)
        with pytest.raises(ValueError, match=r"lanes .*" + re.escape(str(pair))):
            harness.qvalue_sweep(path, grid_max=2, lane_pair=pair)

    @pytest.mark.parametrize("pair", [(0, 0), (0, 2), (3, 1)])
    def test_rejects_lanes_that_are_not_opposing(self, tmp_path, two_phase_spec, pair):
        path = zeroed_checkpoint(tmp_path, two_phase_spec)
        with pytest.raises(ValueError, match=r"lanes " + re.escape(str(pair))):
            harness.qvalue_sweep(path, grid_max=2, lane_pair=pair)

    def test_rejects_an_opposing_lane_that_the_held_phase_also_serves(self, tmp_path):
        # Lane 1's movement is green in both phases, so holding phase 0
        # already serves it.
        doc = {
            "yellow_duration": 5,
            "lanes": [{"length_m": 150.0, "vmax_ms": 11.0} for _ in range(4)],
            "movements": [{"lane": k, "approach": a, "turn": "straight"}
                          for k, a in enumerate("NESW")],
            "conflicts": [],
            "phases": [[0, 1, 2], [1, 3]],
        }
        spec = core.load_intersection(json.dumps(doc))
        assert spec.green_lanes(0) == {0, 1, 2} and spec.green_lanes(1) == {1, 3}
        path = zeroed_checkpoint(tmp_path, spec)
        with pytest.raises(ValueError, match=re.escape("lanes (0, 1)")):
            harness.qvalue_sweep(path, grid_max=2, lane_pair=(0, 1))
        assert len(harness.qvalue_sweep(path, grid_max=2, lane_pair=(0, 3))) == 9

    def test_rejects_a_grid_past_the_larger_lane_capacity(self, tmp_path):
        # Lanes 0 and 1 are 150 m (capacity 20), lanes 2 and 3 are 300 m (40).
        # Past the larger capacity of the swept pair the counts clip and every
        # row repeats the capacity row, so the grid is refused; it is
        # O(grid_max^2) cells, and a huge one used to run until killed.
        doc = {
            "yellow_duration": 5,
            "lanes": [{"length_m": m, "vmax_ms": 11.0} for m in (150.0, 150.0, 300.0, 300.0)],
            "movements": [{"lane": k, "approach": a, "turn": "straight"}
                          for k, a in enumerate("NESW")],
            "conflicts": [],
            "phases": [[0, 2], [1, 3]],
        }
        spec = core.load_intersection(json.dumps(doc))
        assert [lane_capacity(lane.length_m) for lane in spec.lanes] == [20, 20, 40, 40]
        path = zeroed_checkpoint(tmp_path, spec)
        for pair, bound in (((0, 1), 20), ((0, 3), 40), ((2, 1), 40)):
            for grid_max in (bound + 1, 10**6):
                with pytest.raises(ValueError, match=re.escape(
                        f"grid_max {grid_max} is above {bound}, the larger lane capacity of "
                        f"lanes {pair}")):
                    harness.qvalue_sweep(path, grid_max=grid_max, lane_pair=pair)
        rows = harness.qvalue_sweep(path, grid_max=20, lane_pair=(0, 1))
        assert len(rows) == 21 * 21 and rows[-1]["n1"] == rows[-1]["n2"] == 20
        assert len(harness.qvalue_sweep(path, grid_max=21, lane_pair=(0, 3))) == 22 * 22
        # The earlier refusals keep their messages at any grid size.
        with pytest.raises(ValueError, match="grid_max must be at least 1"):
            harness.qvalue_sweep(path, grid_max=0)
        with pytest.raises(ValueError, match=re.escape("lanes (0, 2)")):
            harness.qvalue_sweep(path, grid_max=10**6, lane_pair=(0, 2))
        with pytest.raises(ValueError, match=re.escape("lanes must be two lane indices, got (0,)")):
            harness.qvalue_sweep(path, grid_max=10**6, lane_pair=(0,))

    @pytest.mark.parametrize("action_mode", ["acyclic", "cyclic"])
    def test_valid_pairs_give_the_reference_rows(self, tmp_path, two_phase_spec, action_mode):
        agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=3))
        path = tmp_path / "random.npz"
        save_checkpoint(path, agent, {
            "variant": "wad", "action_mode": action_mode, "process": "smdp",
            "intersection": core.intersection_to_document(two_phase_spec),
        })
        agent, _ = load_checkpoint(path)
        for pair in ((0, 1), (1, 0), (2, 3), (3, 2), (0, 3)):
            rows = harness.qvalue_sweep(path, grid_max=3, lane_pair=pair)
            assert rows == reference_sweep_rows(agent, two_phase_spec, action_mode, pair, 3)
        assert harness.qvalue_sweep(path, grid_max=3) == harness.qvalue_sweep(
            path, grid_max=3, lane_pair=(0, 1))


class TestSotlGridSearch:
    def test_returns_sorted_results(self, two_phase_spec, clustered_flow):
        results = harness.sotl_grid_search(
            two_phase_spec, clustered_flow, thresholds=(30.0, 50.0),
            cluster_splits=(1,), min_greens=(5,),
        )
        tts = [tt for _, tt in results]
        assert tts == sorted(tts)
        assert isinstance(results[0][0], SotlParams)


class TestPearson:
    def test_perfect_anticorrelation(self):
        assert harness.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            harness.pearson([1], [1])


def seeded_checkpoint(tmp_path, spec):
    agent = DQNAgent(observation_dim("wad", spec.n_lanes, spec.n_phases), 2, DQNConfig(seed=5))
    path = tmp_path / "seeded.npz"
    save_checkpoint(path, agent, {
        "variant": "wad", "action_mode": "acyclic", "process": "mdp",
        "intersection": core.intersection_to_document(spec),
    })
    return path


def test_compare_repeats_only_the_random_controller(tmp_path, two_phase_spec, monkeypatch):
    checkpoint = seeded_checkpoint(tmp_path, two_phase_spec)
    controllers = ["fixed", "random", "sotl1", "sotl2", f"dqn:{checkpoint}"]
    config = ExperimentConfig.from_file(
        write_toy_config(tmp_path, controllers=controllers, repeats=3))
    config.flow_profiles = config.flow_profiles[:1]
    spec, flows = harness.load_materials(config)
    expected = []  # every controller run `repeats` times, equal results collapsed
    for name in controllers:
        for flow in flows:
            for split, part in zip(("val", "test"), core.split_halves(flow)):
                tts = [harness.evaluate(harness._build_policy(name, spec, SotlParams(), config,
                                                              seed_offset=r), spec, part)
                       for r in range(3)]
                expected.append({"controller": name, "flow": flow.label, "split": split,
                                 "avg_travel_time_s": tts[0] if len(set(tts)) == 1
                                 else sum(tts) / len(tts)})

    episodes = []
    evaluate = harness.evaluate

    def counting_evaluate(policy, *args, **kwargs):
        episodes.append(type(policy).__name__)
        return evaluate(policy, *args, **kwargs)

    monkeypatch.setattr(harness, "evaluate", counting_evaluate)
    rows = harness.compare(config)
    assert episodes.count("RandomController") == 3 * 2
    assert len(episodes) == 3 * 2 + 4 * 2
    harness.write_csv(tmp_path / "got.csv", COMPARE_COLUMNS, rows)
    harness.write_csv(tmp_path / "want.csv", COMPARE_COLUMNS, expected)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_compare_builds_each_policy_once_before_the_first_episode(tmp_path, two_phase_spec,
                                                                  monkeypatch):
    checkpoint = seeded_checkpoint(tmp_path, two_phase_spec)
    controllers = ["fixed", "random", "sotl1", "sotl2", f"dqn:{checkpoint}"]
    config = ExperimentConfig.from_file(
        write_toy_config(tmp_path, controllers=controllers, repeats=3))
    config.flow_profiles = config.flow_profiles[:2]
    events = []
    build, evaluate = harness._build_policy, harness.evaluate

    def counting_build(name, *args, **kwargs):
        events.append(("build", name))
        return build(name, *args, **kwargs)

    def counting_evaluate(*args, **kwargs):
        events.append(("episode", None))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "_build_policy", counting_build)
    monkeypatch.setattr(harness, "evaluate", counting_evaluate)
    harness.compare(config)
    builds = [name for kind, name in events if kind == "build"]
    # it used to build one policy per episode: 3 repeats of random, 1 of the others
    assert builds == ["fixed", "random", "random", "random", "sotl1", "sotl2",
                      f"dqn:{checkpoint}"]
    assert events[:len(builds)] == [("build", name) for name in builds]
    assert len(events) == len(builds) + (3 + 4) * 2 * 2


@pytest.mark.parametrize("name", ["fixed", "random", "sotl1", "sotl2", "dqn"])
def test_a_reused_policy_matches_a_fresh_one(tmp_path, two_phase_spec, toy_flows, name):
    # compare reuses one policy for every episode, relying on `reset()`
    checkpoint = seeded_checkpoint(tmp_path, two_phase_spec)

    def fresh():
        if name == "dqn":
            agent, meta = load_checkpoint(checkpoint)
            return GreedyController(agent, two_phase_spec, meta)
        return make_controller(name, two_phase_spec, SotlParams(), seed=3)

    flows = [toy_flows[0], toy_flows[1], toy_flows[0]]
    reused = fresh()
    assert ([harness.evaluate(reused, two_phase_spec, flow) for flow in flows]
            == [harness.evaluate(fresh(), two_phase_spec, flow) for flow in flows])


def test_compare_splits_each_flow_once(tmp_path, monkeypatch):
    controllers = ["fixed", "random", "sotl1", "sotl2"]
    config = ExperimentConfig.from_file(
        write_toy_config(tmp_path, controllers=controllers, repeats=2))
    spec, flows = harness.load_materials(config)
    expected = []  # each controller splitting each flow itself, as compare once did
    for name in controllers:
        for flow in flows:
            for split, part in zip(("val", "test"), core.split_halves(flow)):
                tts = [harness.evaluate(harness._build_policy(name, spec, SotlParams(), config,
                                                              seed_offset=r), spec, part)
                       for r in range(2 if name == "random" else 1)]
                expected.append({"controller": name, "flow": flow.label, "split": split,
                                 "avg_travel_time_s": tts[0] if len(set(tts)) == 1
                                 else sum(tts) / len(tts)})

    splits = []
    split_halves = core.split_halves

    def counting_split_halves(flow):
        splits.append(flow.label)
        return split_halves(flow)

    monkeypatch.setattr(core, "split_halves", counting_split_halves)
    rows = harness.compare(config)
    assert splits == [flow.label for flow in flows]
    assert rows == expected


def test_a_flow_that_does_not_fit_fails_before_any_episode(tmp_path, monkeypatch):
    config = ExperimentConfig.from_file(write_toy_config(tmp_path, controllers=["fixed"]))
    # Five lane weights on the four-lane toy: every vehicle asks for movement 4.
    config.flow_profiles[2] = {
        "profile": "clustered(cluster_size=2,inter_cluster_gap=20,within_gap=2,"
                   "lane_weights=0:0:0:0:1)",
        "seed": 3, "duration": 600, "label": "wide",
    }
    episodes = []
    monkeypatch.setattr(harness, "evaluate", lambda *args, **kwargs: episodes.append(args))
    with pytest.raises(ValueError, match=r"flow 'wide': vehicle 0: movement 4 is not"):
        harness.compare(config)
    with pytest.raises(ValueError, match=r"flow 'wide': vehicle 0: movement 4 is not"):
        harness.run_training(config)
    assert episodes == []


def test_metrics_rows_are_on_disk_as_validations_finish(tmp_path, monkeypatch):
    config = ExperimentConfig.from_file(write_toy_config(tmp_path, total_epochs=1))
    rollout = harness.greedy_rollout
    validations = []

    def interrupted_second_validation(*args, **kwargs):
        validations.append(args)
        if len(validations) == 2:
            raise KeyboardInterrupt
        return rollout(*args, **kwargs)

    monkeypatch.setattr(harness, "greedy_rollout", interrupted_second_validation)
    with pytest.raises(KeyboardInterrupt):
        harness.run_training(config)
    rows = read_csv(Path(config.out_dir) / "metrics.csv")
    assert rows[0] == list(METRICS_COLUMNS)
    assert len(rows) == 2
    assert rows[1][:2] == ["0", "0"]


def test_a_built_run_has_written_the_header_alone_and_each_validation_appends_a_row(tmp_path):
    run = harness.TrainingRun(ExperimentConfig.from_file(write_toy_config(tmp_path)))
    assert read_csv(run.metrics_path) == [list(METRICS_COLUMNS)]
    assert not Path(run.best_checkpoint).exists()
    for k in (1, 2):
        run.validate()
        assert len(run.rows) == k and len(read_csv(run.metrics_path)) == 1 + k
    assert read_csv(run.metrics_path)[1:] == [[str(_format_cell(row[c])) for c in METRICS_COLUMNS]
                                              for row in run.rows]
    assert Path(run.best_checkpoint).exists()


def test_a_zero_length_training_flow_is_refused_by_name_before_anything_is_written(tmp_path):
    # It used to validate once, write that row and end in a bare RuntimeError
    # from the first step of its episode. An unlabeled flow is named by index.
    (tmp_path / "zero.json").write_text(json.dumps({"duration_s": 0, "vehicles": []}))
    config = ExperimentConfig.from_file(write_toy_config(tmp_path, flows=["zero.json"]))
    with pytest.raises(ValueError, match=r"^flow 'flow0': the episode horizon must be at least "
                                         r"1 s, got 0$"):
        harness.run_training(config)
    assert not Path(config.out_dir).exists()


# The training loop before its state moved into `TrainingRun`, kept as the
# reference the new loop must match: same rows, same best.npz, same env resets.


@dataclass
class TrainResult:
    metrics_path: str
    best_checkpoint: str
    best_val_travel_time: float
    rows: list


def reference_run_training(config: ExperimentConfig) -> TrainResult:
    """`harness.run_training` as it was before `TrainingRun`, verbatim but for
    its name: the loop state in locals, a closure and an env cycle."""
    spec, flows = load_materials(config)
    n = len(flows)
    if not -n <= config.holdout_index < n:
        raise ValueError(f"holdout_index {config.holdout_index} is outside [-{n}, {n}) "
                         f"for {n} flows")
    holdout = config.holdout_index % n
    if n >= 2:
        train_flows, val_flow, _ = core.split_dataset(flows, holdout)
    else:
        # Single-flow smoke setups: train on the full flow, validate on its first half.
        train_flows = flows
        val_flow, _ = core.split_halves(flows[0])

    space = ActionSpace(config.action_mode, spec.n_phases)
    in_dim = observation_dim(config.variant, spec.n_lanes, spec.n_phases)
    total_updates = config.total_epochs * UPDATES_PER_EPOCH

    dqn_kwargs = dict(config.dqn)
    dqn_kwargs.setdefault("seed", config.seed)
    if "eps_decay_steps" not in dqn_kwargs:
        probe = DQNConfig(**dqn_kwargs)
        dqn_kwargs["eps_decay_steps"] = max(1, (probe.warmup + total_updates) // 2)
    dqn_config = DQNConfig(**dqn_kwargs)
    agent = DQNAgent(in_dim, space.size, dqn_config)

    meta = {
        "variant": config.variant,
        "action_mode": config.action_mode,
        "process": config.process,
        "intersection": core.intersection_to_document(spec),
    }
    greedy = GreedyController(agent, spec, meta)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    best_path = out_dir / "best.npz"

    envs = [
        TrafficEnv(spec, f, variant=config.variant, action_mode=config.action_mode,
                   gamma=dqn_config.gamma, horizon=config.horizon)
        for f in train_flows
    ]

    rows = []
    best_val = float("inf")
    started = time.perf_counter()

    def run_eval() -> None:
        nonlocal best_val
        val_tt, val_return = greedy_rollout(greedy, spec, val_flow, config.horizon)
        row = {
            "epoch": agent.updates_done // UPDATES_PER_EPOCH,
            "weight_updates": agent.updates_done,
            "mean_reward": val_return,
            "val_avg_travel_time_s": val_tt,
            "wall_clock_s": time.perf_counter() - started,
            "transitions": agent.transitions_seen,
        }
        rows.append(row)
        # Each row is flushed as it is produced, so an interrupted run keeps
        # the validations it finished.
        metrics.writerow([_format_cell(row[c]) for c in METRICS_COLUMNS])
        metrics_file.flush()
        if val_tt < best_val:
            best_val = val_tt
            save_checkpoint(best_path, agent, meta)

    with open(metrics_path, "w", newline="", encoding="utf-8") as metrics_file:
        metrics = csv.writer(metrics_file)
        metrics.writerow(METRICS_COLUMNS)
        run_eval()
        eval_stride = config.eval_every * UPDATES_PER_EPOCH
        next_eval = eval_stride
        env_cycle = itertools.cycle(envs)
        env = next(env_cycle)
        obs = env.reset()
        while agent.updates_done < total_updates:
            action = agent.act(obs)
            transition = env.mdp_step(action) if config.process == "mdp" else env.smdp_step(action)
            agent.observe(transition)
            obs = transition.next_state
            if transition.terminal:
                env = next(env_cycle)
                obs = env.reset()
            if agent.updates_done >= next_eval:
                run_eval()
                next_eval += eval_stride
        if rows[-1]["weight_updates"] != agent.updates_done:
            run_eval()

    return TrainResult(
        metrics_path=str(metrics_path),
        best_checkpoint=str(best_path),
        best_val_travel_time=best_val,
        rows=rows,
    )


def recorded_resets(monkeypatch):
    """Record the flow label of every `TrafficEnv.reset`, in call order."""
    labels = []
    reset = TrafficEnv.reset

    def recording_reset(env):
        labels.append(env.flow.label)
        return reset(env)

    monkeypatch.setattr(TrafficEnv, "reset", recording_reset)
    return labels


def checkpoint_contents(path):
    """Everything a checkpoint holds, its vectors as bytes so equal means bit-equal."""
    agent, meta = load_checkpoint(path)
    return {
        "net": agent.net.flat.tobytes(), "target": agent.target.flat.tobytes(),
        "adam_m": agent.optimizer.m.tobytes(), "adam_v": agent.optimizer.v.tobytes(),
        "adam_t": agent.optimizer.t, "counters": (agent.transitions_seen, agent.updates_done),
        "config": agent.config, "meta": meta, "rng": agent.rng.bit_generator.state,
        "layers": agent.net.layer_sizes,
    }


@pytest.mark.parametrize("process, total_epochs", [("mdp", 3), ("smdp", 3), ("smdp", 0)])
def test_training_run_matches_the_reference_loop(tmp_path, monkeypatch, process, total_epochs):
    # Three 60 s train flows: the loop wraps around them several times, and the
    # validations at 900, 1800 and 2700 updates fall inside episodes.
    profiles = [{"profile": "clustered(cluster_size=4,inter_cluster_gap=15,within_gap=2,"
                            "lane_weights=0.5:0.2:0.25:0.05)",
                 "seed": s, "duration": 600, "label": f"toy{s}"} for s in (1, 2, 3, 4)]
    runs = {}
    for name, train in (("run", harness.run_training), ("reference", reference_run_training)):
        config = ExperimentConfig.from_file(write_toy_config(
            tmp_path / name, flow_profiles=profiles, holdout_index=1, horizon=60,
            process=process, total_epochs=total_epochs, out_dir=str(tmp_path / name / "out")))
        resets = recorded_resets(monkeypatch)
        runs[name] = train(config), resets
        monkeypatch.undo()
    (run, resets), (want, want_resets) = runs["run"], runs["reference"]

    assert resets == want_resets
    if total_epochs:
        assert len(resets) > 3 * 3 and resets[:4] == ["toy1", "toy3", "toy4", "toy1"]
    assert run.env_index == (len(resets) - 1) % 3
    no_clock = lambda rows: [{k: v for k, v in row.items() if k != "wall_clock_s"}
                             for row in rows]
    assert len(run.rows) == 1 + total_epochs
    assert no_clock(run.rows) == no_clock(want.rows)
    drop = METRICS_COLUMNS.index("wall_clock_s")
    strip = lambda rows: [r[:drop] + r[drop + 1:] for r in rows]
    assert strip(read_csv(run.metrics_path)) == strip(read_csv(want.metrics_path))
    assert run.best_val_travel_time == want.best_val_travel_time
    assert checkpoint_contents(run.best_checkpoint) == checkpoint_contents(want.best_checkpoint)


def test_a_tied_validation_keeps_the_earlier_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "greedy_rollout", lambda *args: (50.0, -1.0))
    run = harness.run_training(ExperimentConfig.from_file(write_toy_config(tmp_path)))
    assert [row["val_avg_travel_time_s"] for row in run.rows] == [50.0, 50.0]
    assert run.best_val_travel_time == 50.0
    assert load_checkpoint(run.best_checkpoint)[0].updates_done == 0


def counted_ticks(monkeypatch) -> list:
    """Record the clock before every `sim.tick`, in call order."""
    clocks = []
    tick = sim.tick

    def counting_tick(state):
        clocks.append(state.clock)
        return tick(state)

    monkeypatch.setattr(sim, "tick", counting_tick)
    return clocks


@st.composite
def short_episodes(draw):
    """A flow of 0-5 vehicles on the two-phase spec and a horizon of None or
    1 to its duration + 5 s."""
    duration = draw(st.integers(1, 30))
    spawns = sorted(draw(st.lists(st.integers(0, duration - 1), max_size=5)))
    vehicles = tuple(core.Vehicle(k, t, draw(st.integers(0, 3))) for k, t in enumerate(spawns))
    horizon = draw(st.none() | st.integers(1, duration + 5))
    return core.FlowDataset(vehicles, duration, label="drawn"), horizon


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=short_episodes(), name=st.sampled_from(CONTROLLER_NAMES))
def test_an_episode_with_no_trip_is_refused_by_label_before_its_first_tick(two_phase_spec,
                                                                           drawn, name):
    # It used to tick to the horizon and then end in an unnamed 'empty flow'.
    flow, horizon = drawn
    stop = flow.duration if horizon is None else horizon
    with pytest.MonkeyPatch.context() as monkeypatch:
        ticks = counted_ticks(monkeypatch)
        try:
            tt = harness.evaluate(make_controller(name, two_phase_spec, SotlParams(), seed=1),
                                  two_phase_spec, flow, horizon)
        except ValueError as exc:
            assert str(exc) == f"empty flow 'drawn': no vehicle spawns before {stop} s"
            assert ticks == []
            assert all(v.spawn_time >= stop for v in flow.vehicles)
        else:
            assert math.isfinite(tt) and ticks == list(range(stop))


def test_a_validation_half_with_no_trip_is_refused_by_name_before_the_run_writes(tmp_path):
    # The holdout's vehicles spawn at 60-69 s of 100, so its first half, the
    # validation episode, has none. The run used to be left with a
    # metrics.csv holding only its header, and an unnamed 'empty flow'.
    back = core.FlowDataset(tuple(core.Vehicle(k, 60 + k, k % 4) for k in range(10)), 100,
                            label="back")
    (tmp_path / "back.json").write_text(core.flow_to_json(back))
    config = ExperimentConfig.from_file(write_toy_config(tmp_path, flows=["back.json"],
                                                         holdout_index=0))
    with pytest.raises(ValueError, match=r"^empty flow 'back/val': no vehicle spawns before "
                                         r"50 s$"):
        harness.run_training(config)
    assert not Path(config.out_dir).exists()


def test_compare_refuses_a_half_with_no_trip_by_name_before_any_tick(tmp_path, monkeypatch):
    # The vehicles spawn at 0-9 s of 100, so the test half has none. compare
    # used to run the 50-tick val episode first, then end in an unnamed
    # 'empty flow'.
    front = core.FlowDataset(tuple(core.Vehicle(k, k, k % 4) for k in range(10)), 100,
                             label="front")
    (tmp_path / "front.json").write_text(core.flow_to_json(front))
    config = ExperimentConfig.from_file(write_toy_config(tmp_path, flows=["front.json"],
                                                         controllers=["fixed", "sotl2"]))
    ticks = counted_ticks(monkeypatch)
    with pytest.raises(ValueError, match=r"^empty flow 'front/test': no vehicle spawns before "
                                         r"50 s$"):
        harness.compare(config)
    assert ticks == []


@pytest.mark.parametrize("out_dir, shown", [("taken", "it is a file"),
                                            ("taken/run", "{tmp}/taken is a file")],
                         ids=["a-file", "under-a-file"])
def test_a_run_refuses_an_out_dir_it_cannot_write_before_reading_any_input(
        tmp_path, monkeypatch, out_dir, shown):
    # It used to build the agent, the envs and the flows, then end in a bare
    # FileExistsError as it wrote the metrics header.
    (tmp_path / "taken").write_text("a file")
    config = ExperimentConfig.from_file(
        write_toy_config(tmp_path, out_dir=str(tmp_path / out_dir)))
    before = sorted(tmp_path.rglob("*"))
    read = []
    monkeypatch.setattr(core, "read_document", lambda *args: read.append(args))
    monkeypatch.setattr(core, "generate_flow", lambda **kwargs: read.append(kwargs))
    with pytest.raises(ValueError, match=rf"^out_dir {re.escape(str(tmp_path / out_dir))} "
                                         rf"cannot be written: "
                                         rf"{re.escape(shown.format(tmp=tmp_path))}$"):
        harness.run_training(config)
    assert read == []
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "taken").read_text() == "a file"
