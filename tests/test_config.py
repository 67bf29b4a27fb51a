"""Config boundary: flow labels, holdout range and config-relative paths."""

import json

import pytest

from trafficlab import core, harness
from trafficlab.agents import DQNAgent, DQNConfig, save_checkpoint
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


def test_unknown_sotl_key_is_rejected_by_name(tmp_path, two_phase_spec):
    with pytest.raises(ValueError, match=r"unknown sotl key\(s\) 'treshold'; "
                                         r"accepted keys: threshold, "):
        write_config(tmp_path, two_phase_spec, sotl={"treshold": 10.0})


def test_config_that_is_not_an_object_is_rejected(tmp_path):
    (tmp_path / "config.json").write_text("[]")
    with pytest.raises(ValueError, match="must be a JSON object"):
        ExperimentConfig.from_file(tmp_path / "config.json")


@pytest.mark.parametrize("bad", ["sotl3", "dqn:", "DQN:ckpt.npz", "Fixed", "", 3])
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
