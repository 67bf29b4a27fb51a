"""Config boundary: flow labels, holdout range and config-relative paths."""

import json

import pytest

from trafficlab import core, harness
from trafficlab.agents import DQNAgent, DQNConfig, save_checkpoint
from trafficlab.baselines import SotlParams
from trafficlab.env import observation_dim
from trafficlab.harness import ExperimentConfig

UNIFORM = "uniform(rate_per_lane=0.05,n_lanes=4)"


def write_config(tmp_path, spec, **doc):
    (tmp_path / "intersection.json").write_text(json.dumps(core.intersection_to_document(spec)))
    doc = {"intersection": "intersection.json", "controllers": ["fixed"], **doc}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    return ExperimentConfig.from_file(tmp_path / "config.json")


def test_default_labels_tell_seeds_of_one_profile_apart(tmp_path, two_phase_spec):
    config = write_config(tmp_path, two_phase_spec, flow_profiles=[
        {"profile": UNIFORM, "seed": s, "duration": 300} for s in (1, 2)])
    rows = harness.compare(config)
    assert len(rows) == 4
    assert len({(r["flow"], r["split"]) for r in rows}) == 4
    assert {r["flow"] for r in rows} == {f"{UNIFORM}@seed1", f"{UNIFORM}@seed2"}


def test_duplicate_flow_labels_are_rejected(tmp_path, two_phase_spec):
    config = write_config(tmp_path, two_phase_spec, flow_profiles=[
        {"profile": UNIFORM, "seed": s, "duration": 300, "label": "same"} for s in (1, 2)])
    with pytest.raises(ValueError, match="duplicate flow label 'same'"):
        harness.load_materials(config)


@pytest.mark.parametrize("index", [3, -4])
def test_out_of_range_holdout_index_is_rejected(tmp_path, two_phase_spec, index):
    config = write_config(tmp_path, two_phase_spec, holdout_index=index, total_epochs=0,
                          out_dir=str(tmp_path / "run"), flow_profiles=[
                              {"profile": UNIFORM, "seed": s, "duration": 300} for s in (1, 2, 3)])
    with pytest.raises(ValueError, match=rf"holdout_index {index} .*3 flows"):
        harness.run_training(config)


def test_last_flow_holdout_still_works(tmp_path, two_phase_spec):
    config = write_config(tmp_path, two_phase_spec, holdout_index=-1, total_epochs=0,
                          out_dir=str(tmp_path / "run"), flow_profiles=[
                              {"profile": UNIFORM, "seed": s, "duration": 300} for s in (1, 2, 3)])
    assert len(harness.run_training(config).rows) == 1


@pytest.mark.parametrize("doc, message", [
    ({"holdout_index": 5}, r"^holdout_index 5 is outside \[-2, 2\) for 2 flows"),
    ({"seed": -1}, r"^seed must be non-negative, got -1"),
], ids=["holdout_index", "seed"])
def test_a_config_only_refusal_reads_no_file(tmp_path, two_phase_spec, monkeypatch, doc,
                                             message):
    # each of these used to load the spec and generate both flows first
    config = write_config(tmp_path, two_phase_spec, total_epochs=0,
                          out_dir=str(tmp_path / "run"), **doc, flow_profiles=[
                              {"profile": UNIFORM, "seed": s, "duration": 300} for s in (1, 2)])
    calls = []
    for name in ("generate_flow", "load_intersection"):
        monkeypatch.setattr(core, name, lambda *args, name=name, **kw: calls.append(name))
    with pytest.raises(ValueError, match=message):
        harness.run_training(config)
    assert calls == []
    assert not (tmp_path / "run").exists()


def test_no_flows_is_refused_as_such_whatever_the_holdout_index(tmp_path, two_phase_spec):
    config = write_config(tmp_path, two_phase_spec, holdout_index=3, total_epochs=0,
                          out_dir=str(tmp_path / "run"))
    with pytest.raises(ValueError, match="^config names no flows$"):
        harness.run_training(config)


def test_out_dir_is_relative_to_the_config(tmp_path, two_phase_spec, monkeypatch):
    # it used to be relative to the working directory, unlike the other paths
    (tmp_path / "sub").mkdir()
    (tmp_path / "elsewhere").mkdir()
    config = write_config(tmp_path / "sub", two_phase_spec, out_dir="run", total_epochs=0,
                          flow_profiles=[{"profile": UNIFORM, "seed": 1, "duration": 300}])
    assert write_config(tmp_path / "sub", two_phase_spec).out_dir == str(
        tmp_path / "sub" / "runs" / "experiment")
    monkeypatch.chdir(tmp_path / "elsewhere")
    harness.run_training(config)
    assert (tmp_path / "sub" / "run" / "metrics.csv").exists()
    assert list((tmp_path / "elsewhere").iterdir()) == []


def test_checkpoint_controller_path_is_relative_to_the_config(tmp_path, two_phase_spec):
    agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=0))
    (tmp_path / "ckpt").mkdir()
    save_checkpoint(tmp_path / "ckpt" / "best.npz", agent, {
        "variant": "wad", "action_mode": "acyclic", "process": "smdp"})
    config = write_config(tmp_path, two_phase_spec, controllers=["fixed", "dqn:ckpt/best.npz"],
                          flow_profiles=[{"profile": UNIFORM, "seed": 1, "duration": 300}])
    assert config.controllers == ["fixed", f"dqn:{tmp_path / 'ckpt' / 'best.npz'}"]
    rows = harness.compare(config)
    assert {r["controller"] for r in rows} == set(config.controllers)


def test_unknown_config_key_is_rejected_by_name(tmp_path, two_phase_spec):
    with pytest.raises(ValueError, match="'controlers'.*accepted keys: .*controllers"):
        write_config(tmp_path, two_phase_spec, controlers=["fixed"], flows=[])


def test_unknown_dqn_key_is_rejected_by_name(tmp_path, two_phase_spec):
    with pytest.raises(ValueError, match=r"unknown dqn key\(s\) 'batchsize', 'lr_decay'; "
                                         r"accepted keys: .*batch_size"):
        write_config(tmp_path, two_phase_spec, dqn={"batchsize": 64, "lr_decay": 0.5, "lr": 1e-3})


def test_dqn_seed_is_rejected_by_name(tmp_path, two_phase_spec):
    # The top-level `seed` is the one run seed, which `train --seed` sets.
    with pytest.raises(ValueError, match=r"^unknown dqn key\(s\) 'seed'; accepted keys: gamma, lr, "
                                         r"batch_size, tau, eps_start, eps_end, eps_decay_steps, "
                                         r"replay_capacity$"):
        write_config(tmp_path, two_phase_spec, dqn={"seed": 3})


def test_unknown_sotl_key_is_rejected_by_name(tmp_path, two_phase_spec):
    with pytest.raises(ValueError, match=r"unknown sotl key\(s\) 'treshold'; "
                                         r"accepted keys: threshold, "):
        write_config(tmp_path, two_phase_spec, sotl={"treshold": 10.0})


def test_config_that_is_not_an_object_is_rejected(tmp_path):
    (tmp_path / "config.json").write_text("[]")
    with pytest.raises(ValueError, match="must be a JSON object"):
        ExperimentConfig.from_file(tmp_path / "config.json")


@pytest.mark.parametrize("bad", ["sotl3", "dqn:", "DQN:ckpt.npz", "Fixed", "", 3,
                                 pytest.param("fixed", id="repeated")])
def test_unknown_controller_is_refused_before_any_episode(tmp_path, two_phase_spec,
                                                          monkeypatch, bad):
    calls = []
    monkeypatch.setattr(harness, "evaluate", lambda *args, **kw: calls.append(args) or 1.0)
    with pytest.raises(ValueError, match=rf"controllers entry {bad!r}.*fixed, random, sotl1, "
                                         r"sotl2 or dqn:<checkpoint path>"):
        harness.compare(write_config(tmp_path, two_phase_spec, controllers=["fixed", "sotl1", bad],
                                     flow_profiles=[{"profile": UNIFORM, "seed": 1,
                                                     "duration": 300}]))
    assert calls == []


def test_controllers_given_as_one_string_is_refused(tmp_path, two_phase_spec):
    with pytest.raises(ValueError, match="controllers must be a list of names, not 'fixed'"):
        write_config(tmp_path, two_phase_spec, controllers="fixed")


def test_every_accepted_controller_form_loads(tmp_path, two_phase_spec):
    names = ["fixed", "random", "sotl1", "sotl2", "dqn:ckpt/best.npz"]
    config = write_config(tmp_path, two_phase_spec, controllers=names)
    assert config.controllers[:4] == names[:4]


@pytest.mark.parametrize("field", ["eval_every", "total_epochs", "repeats", "holdout_index",
                                   "seed", "horizon"])
def test_a_value_that_is_not_an_integer_is_refused_by_name(tmp_path, two_phase_spec, field):
    # json reads NaN and Infinity, so a config file can carry them.
    for value in (float("nan"), float("inf"), 2.5, True):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            write_config(tmp_path, two_phase_spec, **{field: value})
    assert getattr(write_config(tmp_path, two_phase_spec, **{field: 3}), field) == 3


def test_no_horizon_is_accepted(tmp_path, two_phase_spec):
    assert write_config(tmp_path, two_phase_spec, horizon=None).horizon is None


def profile_entry(**changes):
    entry = {"profile": UNIFORM, "seed": 1, "duration": 300}
    entry.update(changes)
    return {key: value for key, value in entry.items() if value is not None}


@pytest.mark.parametrize("entry, message", [
    # int() used to generate seed 2 under the label ...@seed2.5
    pytest.param(profile_entry(seed=2.5),
                 r"flow_profiles\[1\]\.seed must be an integer, got 2\.5", id="seed-2.5"),
    # int() used to generate seed 1 under the label ...@seedTrue
    pytest.param(profile_entry(seed=True),
                 r"flow_profiles\[1\]\.seed must be an integer, got True", id="seed-true"),
    # random.Random(-5) is random.Random(5), so seed -5 used to give seed 5's flow
    pytest.param(profile_entry(seed=-5),
                 r"flow_profiles\[1\]\.seed must be non-negative, got -5$", id="seed-negative"),
    # int() used to give a 300 s flow
    pytest.param(profile_entry(duration=300.9),
                 r"flow_profiles\[1\]\.duration must be an integer, got 300\.9",
                 id="duration-300.9"),
    # int() used to fail with 'cannot convert float NaN to integer'
    pytest.param(profile_entry(duration=float("nan")),
                 r"flow_profiles\[1\]\.duration must be an integer, got nan", id="duration-nan"),
    pytest.param(profile_entry(duration=False),
                 r"flow_profiles\[1\]\.duration must be an integer", id="duration-false"),
    # a missing key used to fail with a bare KeyError
    pytest.param(profile_entry(seed=None), r"flow_profiles\[1\] lacks the 'seed' key",
                 id="no-seed"),
    pytest.param(profile_entry(duration=None), r"flow_profiles\[1\] lacks the 'duration' key",
                 id="no-duration"),
    pytest.param(profile_entry(profile=None), r"flow_profiles\[1\] lacks the 'profile' key",
                 id="no-profile"),
    pytest.param(profile_entry(sede=2), r"unknown flow_profiles\[1\] key\(s\) 'sede'; "
                                        r"accepted keys: profile, seed, duration, label",
                 id="unknown-key"),
    pytest.param(UNIFORM, r"flow_profiles\[1\] must be an object with keys profile, seed, "
                          r"duration", id="not-an-object"),
])
def test_a_flow_profile_entry_that_cannot_be_generated_as_written_is_refused(
        tmp_path, two_phase_spec, entry, message):
    with pytest.raises(ValueError, match=message):
        write_config(tmp_path, two_phase_spec, flow_profiles=[profile_entry(), entry])


def test_flow_profiles_given_as_one_entry_is_refused(tmp_path, two_phase_spec):
    with pytest.raises(ValueError, match="flow_profiles must be a list of entries"):
        write_config(tmp_path, two_phase_spec, flow_profiles=profile_entry())


def test_a_well_formed_flow_profile_entry_still_generates_its_flow(tmp_path, two_phase_spec):
    config = write_config(tmp_path, two_phase_spec, flow_profiles=[
        profile_entry(), profile_entry(seed=2, duration=200, label="second")])
    _, flows = harness.load_materials(config)
    assert [(f.label, f.duration) for f in flows] == [(f"{UNIFORM}@seed1", 300), ("second", 200)]
    assert flows[0] == core.generate_flow(core.parse_profile(UNIFORM), seed=1, duration=300,
                                          label=f"{UNIFORM}@seed1")


@pytest.mark.parametrize("field, value", [("horizon", 0), ("horizon", -5), ("repeats", 0),
                                          ("repeats", -3)])
def test_a_horizon_or_repeats_below_one_is_refused_by_name(tmp_path, two_phase_spec,
                                                           field, value):
    # a horizon of 0 used to end in 'empty flow'; repeats 0 used to load
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        write_config(tmp_path, two_phase_spec, **{field: value})
    assert getattr(write_config(tmp_path, two_phase_spec, **{field: 1}), field) == 1


@pytest.mark.parametrize("entry, message", [
    # 'int' object has no attribute 'strip' before
    pytest.param(profile_entry(profile=5),
                 r"flow_profiles\[1\]\.profile must be a profile literal such as "
                 r"'uniform\(rate_per_lane=0\.05,n_lanes=8\)', got 5", id="profile-5"),
    pytest.param(profile_entry(profile=["uniform"]),
                 r"flow_profiles\[1\]\.profile must be a profile literal", id="profile-list"),
    # a bare KeyError: 'n_lanes' before, once the flow was generated
    pytest.param(profile_entry(profile="uniform(rate_per_lane=0.05)"),
                 r"flow_profiles\[1\]\.profile: uniform profile lacks n_lanes; "
                 r"uniform takes rate_per_lane, n_lanes", id="missing-parameter"),
    pytest.param(profile_entry(profile="uniform(rate_per_lane=0.05,n_lanes=4,bogus=3)"),
                 r"flow_profiles\[1\]\.profile: unknown uniform parameter 'bogus'",
                 id="unknown-parameter"),
    pytest.param(profile_entry(profile="uniform(rate_per_lane=abc,n_lanes=4)"),
                 r"flow_profiles\[1\]\.profile: uniform parameter rate_per_lane cannot be "
                 r"read from 'abc'", id="unreadable-parameter"),
    pytest.param(profile_entry(profile="uniform(rate_per_lane=inf,n_lanes=4)"),
                 r"flow_profiles\[1\]\.profile: rate_per_lane must be non-negative and finite",
                 id="infinite-rate"),
    pytest.param(profile_entry(profile="poisson(rate=1)"),
                 r"flow_profiles\[1\]\.profile: unknown profile kind 'poisson'", id="kind"),
    # 'dataset too short to split into halves' on compare before
    pytest.param(profile_entry(duration=0),
                 r"flow_profiles\[1\]\.duration must be at least 2, got 0", id="duration-0"),
    pytest.param(profile_entry(duration=1),
                 r"flow_profiles\[1\]\.duration must be at least 2, got 1", id="duration-1"),
    # 'duration must be non-negative' before
    pytest.param(profile_entry(duration=-5),
                 r"flow_profiles\[1\]\.duration must be at least 2, got -5", id="duration-minus-5"),
])
def test_a_flow_profile_that_cannot_be_parsed_or_split_is_refused_at_load(
        tmp_path, two_phase_spec, entry, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("no flow may be generated before the config loads")
    monkeypatch.setattr(core, "generate_flow", never)
    with pytest.raises(ValueError, match=message):
        write_config(tmp_path, two_phase_spec, flow_profiles=[profile_entry(), entry])


def test_a_two_second_flow_profile_is_the_shortest_that_compare_runs(tmp_path, two_phase_spec):
    config = write_config(tmp_path, two_phase_spec, flow_profiles=[
        profile_entry(profile="uniform(rate_per_lane=5,n_lanes=4)", duration=2)])
    rows = harness.compare(config)
    assert [(r["split"], r["controller"]) for r in rows] == [("val", "fixed"), ("test", "fixed")]


def test_a_flow_document_too_short_to_split_is_refused_by_label_before_any_episode(
        tmp_path, two_phase_spec, monkeypatch):
    # A flow_profiles entry this short is refused at load; a flow document is
    # read only when compare runs, and its refusal used to name no flow.
    for name, duration in (("long.json", 60), ("blip.json", 1)):
        (tmp_path / name).write_text(json.dumps({
            "duration_s": duration, "label": name[:-5],
            "vehicles": [{"id": 0, "spawn_time_s": 0, "movement": 0}]}))
    config = write_config(tmp_path, two_phase_spec, flows=["long.json", "blip.json"])

    def never(*args, **kwargs):
        raise AssertionError("no episode may run before every flow is split")
    monkeypatch.setattr(harness, "evaluate", never)
    with pytest.raises(ValueError, match=r"^flow 'blip' lasts 1 s, too short to split into "
                                         r"halves of at least 1 s$"):
        harness.compare(config)


def test_an_unlabeled_flow_is_refused_by_the_name_compare_gives_it(tmp_path, two_phase_spec):
    # `compare` names an unlabeled flow `flow<k>`; its refusal used to call it ''.
    (tmp_path / "blip.json").write_text(json.dumps({"duration_s": 1, "vehicles": []}))
    config = write_config(tmp_path, two_phase_spec, flows=["blip.json"], total_epochs=0,
                          out_dir="run")
    message = r"^flow 'flow0' lasts 1 s, too short to split into halves of at least 1 s$"
    with pytest.raises(ValueError, match=message):
        harness.compare(config)
    with pytest.raises(ValueError, match=message):
        harness.run_training(config)
    assert not (tmp_path / "run").exists()


def test_an_unlabeled_flow_keeps_its_name_in_compare_rows(tmp_path, two_phase_spec):
    (tmp_path / "flow.json").write_text(json.dumps(core.flow_to_document(core.generate_flow(
        core.parse_profile(UNIFORM), seed=1, duration=60))))
    config = write_config(tmp_path, two_phase_spec, flows=["flow.json"], flow_profiles=[
        {"profile": UNIFORM, "seed": 2, "duration": 60, "label": "u"}])
    assert [flow.label for flow in harness.load_materials(config)[1]] == ["flow0", "u"]
    assert [(r["flow"], r["split"]) for r in harness.compare(config)] == [
        ("flow0", "val"), ("flow0", "test"), ("u", "val"), ("u", "test")]


def test_an_eps_end_above_eps_start_is_refused_by_name(tmp_path, two_phase_spec):
    with pytest.raises(ValueError, match=r"^dqn\.eps_end must be at most eps_start, "
                                         r"got 0\.5 > 0\.1$"):
        write_config(tmp_path, two_phase_spec, dqn={"eps_start": 0.1, "eps_end": 0.5})


@pytest.mark.parametrize("label", [0, 5, None, True, ["a"]])
def test_a_flow_profile_label_that_is_not_a_string_is_refused(tmp_path, two_phase_spec, label):
    # 0 and null used to load, and compare named those flows flow0 and flow1
    entry = {**profile_entry(), "label": label}
    with pytest.raises(ValueError, match=r"^flow_profiles\[1\]\.label must be a string, got "):
        write_config(tmp_path, two_phase_spec, flow_profiles=[profile_entry(), entry])


@pytest.mark.parametrize("field, value, message", [
    # a string used to be read one character at a time: train then failed with
    # FileNotFoundError on the flow 'f'
    ("flows", "f1.json", r"flows must be a list of flow document paths, got 'f1.json'"),
    ("flows", ["flow.json", 5], r"flows must be a list of flow document paths"),
    # a bare TypeError inside from_file before
    ("intersection", 5, r"intersection must be a path string, got 5"),
    # loaded, then train ended in a bare TypeError
    ("out_dir", 7, r"out_dir must be a path string, got 7"),
    # loaded, and failed only after the flows were built, naming no field
    ("variant", "bogus", r"variant must be one of combined, wa, wad, wads, got 'bogus'"),
    ("action_mode", "zig", r"action_mode must be one of cyclic, acyclic, got 'zig'"),
    # loaded, ran no update and wrote one row
    ("total_epochs", -5, r"total_epochs must be non-negative, got -5"),
], ids=["flows-string", "flows-entry", "intersection", "out_dir", "variant", "action_mode",
        "total_epochs"])
def test_a_config_field_of_the_wrong_kind_is_refused_at_load_by_name(tmp_path, two_phase_spec,
                                                                    field, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        write_config(tmp_path, two_phase_spec, **{field: value})


def test_a_config_without_an_intersection_is_refused_by_name(tmp_path):
    # a bare TypeError from the constructor before
    (tmp_path / "config.json").write_text(json.dumps({"flows": ["flow.json"]}))
    with pytest.raises(ValueError, match="lacks the 'intersection' key"):
        ExperimentConfig.from_file(tmp_path / "config.json")


def test_a_replay_memory_above_the_cap_is_refused_before_the_first_validation(
        tmp_path, two_phase_spec):
    # the first transition used to end in a bare MemoryError, after the spec,
    # the flows and the first validation
    config = write_config(tmp_path, two_phase_spec, total_epochs=1, out_dir=str(tmp_path / "run"),
                          dqn={"replay_capacity": 10 ** 12},
                          flow_profiles=[{"profile": UNIFORM, "seed": 1, "duration": 300}])
    with pytest.raises(ValueError, match=r"^replay_capacity 1000000000000 needs .* GiB"):
        harness.run_training(config)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("controllers", [["fixed"], ["random"], ["sotl2", "random"]])
def test_compare_refuses_a_negative_seed_before_reading_any_file(tmp_path, two_phase_spec,
                                                                 monkeypatch, controllers):
    # with only deterministic controllers, seed -1 used to run; with `random`
    # listed it was refused only after the spec and every flow had been read
    (tmp_path / "flow.json").write_text(core.flow_to_json(core.generate_flow(
        core.parse_profile(UNIFORM), seed=1, duration=300)))
    config = write_config(tmp_path, two_phase_spec, seed=-1, controllers=controllers,
                          flows=["flow.json"], flow_profiles=[
                              {"profile": UNIFORM, "seed": 2, "duration": 300}])
    calls = []
    for name in ("generate_flow", "load_intersection", "load_flow"):
        monkeypatch.setattr(core, name, lambda *args, name=name, **kw: calls.append(name))
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        harness.compare(config)
    assert calls == []


def test_compare_refuses_a_config_that_names_no_controllers_before_reading_any_file(
        tmp_path, two_phase_spec, monkeypatch):
    # it used to read the spec and every flow, then write a header-only CSV
    (tmp_path / "flow.json").write_text(core.flow_to_json(core.generate_flow(
        core.parse_profile(UNIFORM), seed=1, duration=300)))
    config = write_config(tmp_path, two_phase_spec, controllers=[], flows=["flow.json"],
                          flow_profiles=[{"profile": UNIFORM, "seed": 2, "duration": 300}])
    calls = []
    for name in ("generate_flow", "load_intersection", "load_flow"):
        monkeypatch.setattr(core, name, lambda *args, name=name, **kw: calls.append(name))
    with pytest.raises(ValueError, match=r"^config names no controllers$"):
        harness.compare(config)
    assert calls == []


def test_a_negative_cluster_split_is_refused_by_name(tmp_path, two_phase_spec):
    # SotlParams(cluster_split=-4) used to load and act as 0
    with pytest.raises(ValueError, match=r"^cluster_split must be non-negative, got -4$"):
        SotlParams(cluster_split=-4)
    with pytest.raises(ValueError, match=r"^sotl\.cluster_split must be non-negative, got -1$"):
        write_config(tmp_path, two_phase_spec, sotl={"cluster_split": -1})
    assert SotlParams(cluster_split=0).cluster_split == 0
