"""End-to-end tests of the command-line surface."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from test_harness import reference_sweep_rows

from trafficlab import cli, core, harness
from trafficlab.agents import (DQNAgent, DQNConfig, GreedyController, load_checkpoint,
                               save_checkpoint)
from trafficlab.env import observation_dim


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture()
def workspace(tmp_path):
    """A two-phase spec, a holdout flow file, and a training config."""
    run_cli(["genspec", "--kind", "two-phase", "--out", str(tmp_path / "intersection.json"),
             "--lane-length", "150"])
    run_cli([
        "genflow",
        "--profile",
        "clustered(cluster_size=4,inter_cluster_gap=15,within_gap=2,"
        "lane_weights=0.5:0.2:0.25:0.05)",
        "--seed", "3", "--out", str(tmp_path / "holdout.json"), "--duration", "600",
    ])
    config = {
        "intersection": "intersection.json",
        "flows": ["holdout.json"],
        "flow_profiles": [
            {
                "profile": "clustered(cluster_size=4,inter_cluster_gap=15,within_gap=2,"
                           "lane_weights=0.5:0.2:0.25:0.05)",
                "seed": 1,
                "duration": 600,
                "label": "train1",
            }
        ],
        "holdout_index": 0,
        "variant": "wad",
        "action_mode": "acyclic",
        "process": "smdp",
        "dqn": {"batch_size": 32, "eps_decay_steps": 500},
        "eval_every": 1,
        "total_epochs": 0,
        "seed": 0,
        "out_dir": "run",
        "controllers": ["fixed", "sotl2"],
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def test_genspec_writes_loadable_documents(tmp_path):
    out = tmp_path / "spec.json"
    assert run_cli(["genspec", "--kind", "default", "--out", str(out)]) == 0
    spec = core.load_intersection(out.read_text())
    assert spec.n_lanes == 8
    assert spec.n_phases == 8


def test_genflow_is_deterministic(tmp_path):
    args = ["genflow", "--profile", "uniform(rate_per_lane=0.02,n_lanes=4)",
            "--seed", "5", "--duration", "300"]
    run_cli(args + ["--out", str(tmp_path / "a.json")])
    run_cli(args + ["--out", str(tmp_path / "b.json")])
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert a["vehicles"] == b["vehicles"]
    assert a["duration_s"] == 300
    flow = core.load_flow((tmp_path / "a.json").read_text())
    assert all(v.spawn_time < 300 for v in flow.vehicles)


def test_train_eval_sweep_round_trip(workspace):
    assert run_cli(["train", "--config", str(workspace / "config.json"),
                    "--out", str(workspace / "run")]) == 0
    checkpoint = workspace / "run" / "best.npz"
    assert checkpoint.exists()
    assert (workspace / "run" / "metrics.csv").exists()

    trace = workspace / "trace.csv"
    assert run_cli(["eval", "--checkpoint", str(checkpoint),
                    "--flow", str(workspace / "holdout.json"),
                    "--split", "val", "--trace", str(trace)]) == 0
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tick", "vehicle", "lane", "position_m", "speed_ms", "status"]
    assert len(rows) > 1

    sweep_out = workspace / "sweep.csv"
    assert run_cli(["sweep", "--checkpoint", str(checkpoint), "--grid-max", "5",
                    "--out", str(sweep_out)]) == 0
    with open(sweep_out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n1", "n2", "q_keep", "q_switch", "q_switch_minus_q_keep"]
    assert len(rows) == 37  # header + 36 cells


def test_eval_test_split(workspace):
    run_cli(["train", "--config", str(workspace / "config.json"),
             "--out", str(workspace / "run")])
    checkpoint = workspace / "run" / "best.npz"
    assert run_cli(["eval", "--checkpoint", str(checkpoint),
                    "--flow", str(workspace / "holdout.json"), "--split", "test"]) == 0


def train_best(workspace, name, argv=(), **changes):
    """Train the workspace config with `changes` applied into the run directory
    `name`, and return the path of its `best.npz`."""
    doc = {**json.loads((workspace / "config.json").read_text()), **changes}
    (workspace / f"{name}.json").write_text(json.dumps(doc))
    assert run_cli(["train", "--config", str(workspace / f"{name}.json"),
                    "--out", str(workspace / name), *argv]) == 0
    return workspace / name / "best.npz"


@pytest.mark.parametrize("via", ["--out", "out_dir"])
def test_train_writes_into_the_working_directory(workspace, monkeypatch, via):
    """`train --out .`, or a config `out_dir` of "." beside the config, in the
    working directory: `.` has no parent, and it is a writable directory."""
    doc = {**json.loads((workspace / "config.json").read_text()), "out_dir": "."}
    (workspace / "here.json").write_text(json.dumps(doc))
    monkeypatch.chdir(workspace)
    argv = ["--out", "."] if via == "--out" else []
    assert run_cli(["train", "--config", "here.json", *argv]) == 0
    assert (workspace / "best.npz").exists()


def test_require_writable_accepts_what_can_be_written(tmp_path, monkeypatch):
    (tmp_path / "old.csv").write_text("old")
    monkeypatch.chdir(tmp_path)
    for path, directory in [(".", True), ("old.csv", False), ("new.csv", False),
                            ("a/b/new.csv", False), ("a/b", True), (tmp_path, True)]:
        cli.require_writable("--out", path, directory)


def test_train_seed_flag_seeds_the_network(workspace):
    with np.load(train_best(workspace, "five", ["--seed", "5"])) as five, \
            np.load(train_best(workspace, "nine", ["--seed", "9"])) as nine:
        assert not np.array_equal(five["net"], nine["net"])


def test_train_seed_flag_is_the_config_seed(workspace):
    five = train_best(workspace, "five", ["--seed", "5"])
    assert load_checkpoint(five)[0].config.seed == 5
    assert train_best(workspace, "config5", seed=5).read_bytes() == five.read_bytes()


def test_compare_csv_contract(workspace):
    out = workspace / "table.csv"
    assert run_cli(["compare", "--config", str(workspace / "config.json"),
                    "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["controller", "flow", "split", "avg_travel_time_s"]
    # 2 controllers x 2 flows x 2 splits
    assert len(rows) == 1 + 8


def test_sweep_lane_pair_flag(workspace):
    run_cli(["train", "--config", str(workspace / "config.json"),
             "--out", str(workspace / "run")])
    out = workspace / "sweep.csv"
    assert run_cli(["sweep", "--checkpoint", str(workspace / "run" / "best.npz"),
                    "--grid-max", "2", "--out", str(out), "--lanes", "0,1"]) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 9


@pytest.fixture()
def sweep_checkpoint(tmp_path):
    """A two-phase `wad` checkpoint (4 lanes, dim 14) with seeded weights."""
    spec = core.two_phase_intersection(lane_length_m=150.0)
    agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=4))
    path = tmp_path / "sweep.npz"
    save_checkpoint(path, agent, {"variant": "wad", "action_mode": "acyclic", "process": "smdp",
                                  "intersection": core.intersection_to_document(spec)})
    return path


def sweep_argv(checkpoint, out, *lanes):
    return ["sweep", "--checkpoint", str(checkpoint), "--grid-max", "3", "--out", str(out),
            *lanes]


@pytest.mark.parametrize("lanes, shown", [
    (["--lanes=0,-1"], "(0, -1)"),  # would write n2 into the phase one-hot
    (["--lanes", "0,0"], "(0, 0)"),  # would overwrite n1 with n2
    (["--lanes", "0,2"], "(0, 2)"),  # both lanes are green in phase 0
    (["--lanes", "0,5"], "(0, 5)"),  # no lane 5 on a 4-lane spec
])
def test_sweep_refuses_an_unusable_lane_pair(tmp_path, sweep_checkpoint, lanes, shown):
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"lanes .*" + re.escape(shown)):
        run_cli(sweep_argv(sweep_checkpoint, out, *lanes))
    assert not out.exists()


@pytest.mark.parametrize("text", ["0", "0,1,2", "a,b", ""])
def test_sweep_refuses_lanes_that_are_not_a_pair(tmp_path, sweep_checkpoint, capsys, text):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(sweep_argv(sweep_checkpoint, tmp_path / "out.csv", f"--lanes={text}"))
    assert excinfo.value.code == 2
    assert f"argument --lanes: lanes must be two lane indices as 'a,b', got {text!r}" in (
        capsys.readouterr().err)


def test_sweep_valid_pair_csv_is_unchanged(tmp_path, sweep_checkpoint):
    out = tmp_path / "out.csv"
    assert run_cli(sweep_argv(sweep_checkpoint, out, "--lanes", "1,0")) == 0
    agent, _ = load_checkpoint(sweep_checkpoint)
    expected = tmp_path / "expected.csv"
    spec = core.two_phase_intersection(lane_length_m=150.0)
    harness.write_csv(expected, ("n1", "n2", "q_keep", "q_switch", "q_switch_minus_q_keep"),
                      reference_sweep_rows(agent, spec, "acyclic", (1, 0), 3))
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("text", ["0", "-3", "2.5", "two"])
def test_compare_refuses_repeats_below_one(workspace, capsys, text):
    # `--repeats -3` used to be assigned after the config's checks, so compare ran once
    out = workspace / "compare.csv"
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["compare", "--config", str(workspace / "config.json"), "--out", str(out),
                 f"--repeats={text}"])
    assert excinfo.value.code == 2
    assert f"argument --repeats: repeats must be an integer of at least 1, got {text!r}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_compare_accepts_repeats_of_one_or_more(workspace):
    out = workspace / "compare.csv"
    assert run_cli(["compare", "--config", str(workspace / "config.json"), "--out", str(out),
                    "--repeats", "2"]) == 0
    assert out.exists()


def test_eval_builds_its_controller_through_the_cli_attribute(workspace, sweep_checkpoint,
                                                              monkeypatch):
    # `cmd_eval` reads `cli.GreedyController` when it runs, so a stand-in set there is used.
    built = []

    class Recording(GreedyController):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cli, "GreedyController", Recording)
    assert run_cli(["eval", "--checkpoint", str(sweep_checkpoint),
                    "--flow", str(workspace / "holdout.json"), "--split", "val"]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("document, name", [
    # The file stem, the label genflow would have written; it used to be ''.
    ({"duration_s": 1, "vehicles": []}, "blip"),
    ({"duration_s": 1, "label": "north", "vehicles": []}, "north"),
])
def test_eval_names_a_flow_by_its_label_or_else_its_file(tmp_path, sweep_checkpoint,
                                                          document, name):
    (tmp_path / "blip.json").write_text(json.dumps(document))
    message = rf"^flow '{name}' lasts 1 s, too short to split into halves of at least 1 s$"
    with pytest.raises(ValueError, match=message):
        run_cli(["eval", "--checkpoint", str(sweep_checkpoint),
                 "--flow", str(tmp_path / "blip.json"), "--split", "val"])


def test_each_call_parses_only_its_own_arguments(workspace, monkeypatch):
    # One parser serves every call in a process; no option of one call may
    # reach the next.
    repeats = []
    monkeypatch.setattr(harness, "compare", lambda config: repeats.append(config.repeats) or [])
    doc = {**json.loads((workspace / "config.json").read_text()), "repeats": 2}
    (workspace / "repeats.json").write_text(json.dumps(doc))
    profile = "uniform(rate_per_lane=0.02,n_lanes=4)"
    calls = [
        ["compare", "--config", str(workspace / "repeats.json"), "--out",
         str(workspace / "a.csv"), "--repeats", "3"],
        ["genflow", "--profile", profile, "--seed", "1", "--duration", "600",
         "--out", str(workspace / "short.json")],
        ["compare", "--config", str(workspace / "repeats.json"), "--out",
         str(workspace / "b.csv")],
        ["genflow", "--profile", profile, "--seed", "1", "--out", str(workspace / "long.json")],
    ]
    for argv in calls:
        assert run_cli(argv) == 0
    assert repeats == [3, 2]
    durations = [json.loads((workspace / f"{stem}.json").read_text())["duration_s"]
                 for stem in ("short", "long")]
    assert durations == [600, 3600]
    assert cli.build_parser() is cli.build_parser()
