"""Checkpoint format version 2 and its one checked reader."""

import json
import re

import numpy as np
import pytest

from trafficlab import cli, core, harness
from trafficlab.agents import DQNAgent, DQNConfig, load_checkpoint, save_checkpoint
from trafficlab.env import Transition, observation_dim

MEMBERS = ("version", "layers", "net", "target", "adam_m", "adam_v", "adam_t", "counters",
           "config", "meta", "rng_state")


def trained_agent(seed=3):
    agent = DQNAgent(5, 2, DQNConfig(batch_size=4, seed=seed, eps_decay_steps=50))
    rng = np.random.default_rng(seed)
    for k in range(12):
        agent.observe(Transition(rng.random(5), k % 2, -1.0, rng.random(5), 1 + k % 3, k == 11))
    return agent


def members_of(path):
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


@pytest.fixture()
def saved(tmp_path):
    agent = trained_agent()
    path = tmp_path / "agent.npz"
    save_checkpoint(path, agent, {"variant": "wad"})
    return agent, path


def rewrite(tmp_path, members, **changes):
    """A copy of the checkpoint `members` with `changes` applied; a change of
    None drops the member."""
    members = dict(members, **changes)
    path = tmp_path / "mutated.npz"
    np.savez(path, **{k: v for k, v in members.items() if v is not None})
    return path


def refused(path, member):
    """The pattern of a refusal that names the path and the member."""
    return re.escape(f"checkpoint {path}") + f".*{member}"


def test_the_four_vectors_are_stored_as_they_live(saved):
    agent, path = saved
    members = members_of(path)
    assert tuple(members) == MEMBERS
    np.testing.assert_array_equal(members["layers"], agent.net.layer_sizes)
    for name, vector in (("net", agent.net.flat), ("target", agent.target.flat),
                         ("adam_m", agent.optimizer.m), ("adam_v", agent.optimizer.v)):
        assert members[name].dtype == np.float64
        np.testing.assert_array_equal(members[name], vector)
    assert int(members["version"]) == 2
    assert int(members["adam_t"]) == agent.optimizer.t
    assert members["counters"].tolist() == [agent.transitions_seen, agent.updates_done]


def test_the_round_trip_restores_every_part(saved):
    agent, path = saved
    loaded, meta = load_checkpoint(path)
    assert meta == {"variant": "wad"}
    np.testing.assert_array_equal(loaded.target.flat, agent.target.flat)
    np.testing.assert_array_equal(loaded.optimizer.m, agent.optimizer.m)
    np.testing.assert_array_equal(loaded.optimizer.v, agent.optimizer.v)
    assert loaded.optimizer.t == agent.optimizer.t
    assert (loaded.transitions_seen, loaded.updates_done) == (
        agent.transitions_seen, agent.updates_done)
    assert loaded.config == agent.config
    assert loaded.rng.bit_generator.state == agent.rng.bit_generator.state


def test_a_version_1_file_is_refused_by_its_version(tmp_path, saved):
    agent, _ = saved
    arrays = {"version": np.asarray(1, dtype=np.int64)}
    for prefix, net in (("net", agent.net), ("target", agent.target)):
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"{prefix}_w{k}"], arrays[f"{prefix}_b{k}"] = w, b
        arrays[f"{prefix}_layers"] = np.asarray(net.layer_sizes, dtype=np.int64)
    path = tmp_path / "v1.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} has format version 1")):
        load_checkpoint(path)


@pytest.mark.parametrize("member", MEMBERS)
def test_a_missing_member_is_refused_by_name(tmp_path, saved, member):
    path = rewrite(tmp_path, members_of(saved[1]), **{member: None})
    with pytest.raises(ValueError, match=refused(path, f"'{member}' is missing")):
        load_checkpoint(path)


@pytest.mark.parametrize("member, change", [
    # these two used to load, the short row broadcast into every row of the
    # moments and the float32 weights cast back to float64
    pytest.param("adam_m", lambda m: m["adam_m"][:-2], id="cut-adam_m"),
    pytest.param("net", lambda m: m["net"].astype(np.float32), id="float32-net"),
    pytest.param("target", lambda m: m["target"].reshape(-1, 1), id="2d-target"),
    pytest.param("adam_v", lambda m: np.append(m["adam_v"], 0.0), id="long-adam_v"),
    pytest.param("net", lambda m: m["net"].astype(">f8"), id="big-endian-net"),
    pytest.param("layers", lambda m: m["layers"][:-1], id="layers-without-output"),
    pytest.param("layers", lambda m: np.asarray([5], dtype=np.int64), id="one-layer"),
    pytest.param("layers", lambda m: np.asarray([5, 0, 2], dtype=np.int64), id="empty-layer"),
    pytest.param("layers", lambda m: m["layers"].astype(np.float64), id="float-layers"),
    pytest.param("adam_t", lambda m: np.asarray(-1, dtype=np.int64), id="negative-adam_t"),
    pytest.param("adam_t", lambda m: np.asarray([3], dtype=np.int64), id="1d-adam_t"),
    pytest.param("adam_t", lambda m: np.asarray(2.0), id="float-adam_t"),
    pytest.param("counters", lambda m: np.asarray([5, -1], dtype=np.int64),
                 id="negative-counter"),
    pytest.param("counters", lambda m: m["counters"][:1], id="one-counter"),
    pytest.param("version", lambda m: np.asarray([2], dtype=np.int64), id="1d-version"),
    pytest.param("config", lambda m: np.asarray(1.0), id="numeric-config"),
    pytest.param("config", lambda m: np.asarray("[1, 2]"), id="config-array"),
    pytest.param("config", lambda m: np.asarray('{"gamma": 7.0}'), id="gamma-out-of-range"),
    pytest.param("config", lambda m: np.asarray('{"lr": "fast"}'), id="string-lr"),
    pytest.param("config", lambda m: np.asarray('{"seed": -1}'), id="negative-seed"),
    pytest.param("config", lambda m: np.asarray('{"gamma": 0.9, "momentum": 0.5}'),
                 id="unknown-config-key"),
    pytest.param("meta", lambda m: np.asarray("not json"), id="meta-not-json"),
    pytest.param("meta", lambda m: np.asarray("null"), id="null-meta"),
    pytest.param("rng_state", lambda m: np.asarray('{"bit_generator": "MT19937"}'),
                 id="other-generator"),
    pytest.param("rng_state", lambda m: np.asarray(
        json.dumps(dict(json.loads(str(m["rng_state"])), state={"state": -1, "inc": 1}))),
        id="negative-rng-state"),
])
def test_a_member_that_does_not_fit_is_refused_by_name(tmp_path, saved, member, change):
    members = members_of(saved[1])
    path = rewrite(tmp_path, members, **{member: change(members)})
    with pytest.raises(ValueError, match=refused(path, member)):
        load_checkpoint(path)


@pytest.mark.parametrize("content", [
    pytest.param(lambda raw: raw[:3000], id="truncated"),
    pytest.param(lambda raw: b"", id="empty"),
    pytest.param(lambda raw: b"not an archive", id="text"),
    pytest.param(lambda raw: None, id="single-array"),
])
def test_a_file_that_is_not_an_npz_archive_is_refused_by_path(tmp_path, saved, content):
    path = tmp_path / "broken.npz"
    data = content(saved[1].read_bytes())
    if data is None:
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} is not a readable npz")):
        load_checkpoint(path)


META = {"variant": "wad", "action_mode": "acyclic", "process": "smdp"}


def two_phase_checkpoint(tmp_path, spec, meta):
    agent = DQNAgent(observation_dim("wad", spec.n_lanes, spec.n_phases), 2, DQNConfig(seed=1))
    path = tmp_path / "two_phase.npz"
    save_checkpoint(path, agent, meta)
    return path


@pytest.mark.parametrize("missing", ["intersection", "variant", "action_mode"])
def test_sweep_refuses_a_meta_without_a_key_it_needs(tmp_path, two_phase_spec, missing):
    meta = dict(META, intersection=core.intersection_to_document(two_phase_spec))
    del meta[missing]
    path = two_phase_checkpoint(tmp_path, two_phase_spec, meta)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: meta lacks '{missing}'")):
        harness.qvalue_sweep(path, grid_max=2)


def test_eval_refuses_a_meta_without_an_intersection(tmp_path, two_phase_spec):
    path = two_phase_checkpoint(tmp_path, two_phase_spec, META)
    flow = core.generate_flow(core.UniformProfile(0.05, 4), seed=1, duration=100)
    (tmp_path / "flow.json").write_text(json.dumps(core.flow_to_document(flow)))
    argv = ["eval", "--checkpoint", str(path), "--flow", str(tmp_path / "flow.json"),
            "--split", "val"]
    lacks = re.escape(f"checkpoint {path}: meta lacks 'intersection'")
    with pytest.raises(ValueError, match=lacks):
        cli.main(argv)
    # With --spec the stored intersection is not needed.
    (tmp_path / "spec.json").write_text(json.dumps(core.intersection_to_document(two_phase_spec)))
    assert cli.main(argv + ["--spec", str(tmp_path / "spec.json")]) == 0


def test_a_stored_intersection_that_does_not_load_is_refused_by_path(tmp_path, two_phase_spec):
    doc = core.intersection_to_document(two_phase_spec)
    del doc["lanes"]
    path = two_phase_checkpoint(tmp_path, two_phase_spec, dict(META, intersection=doc))
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: meta 'intersection'")):
        harness.qvalue_sweep(path, grid_max=2)


@pytest.mark.parametrize("meta_change, net, message", [
    pytest.param({"process": "nonsense"}, ("wad", 2),
                 "checkpoint meta has unknown process 'nonsense'", id="process"),
    pytest.param({"action_mode": "bogus", "process": "nonsense"}, ("wad", 2),
                 "checkpoint meta has unknown process 'nonsense'", id="mode-and-process"),
    pytest.param({"action_mode": "bogus"}, ("wad", 2), "unknown action mode 'bogus'",
                 id="action-mode"),
    pytest.param({"variant": "wads"}, ("wad", 2),
                 "checkpoint network takes 14 inputs and gives 2 action values; the 'wads' "
                 "state of a 4-lane, 2-phase intersection has 18", id="input-size"),
    pytest.param({}, ("wad", 3),
                 "checkpoint network takes 14 inputs and gives 3 action values; the 'wad' "
                 "state of a 4-lane, 2-phase intersection has 14 and its acyclic action "
                 "space 2", id="output-size"),
])
def test_sweep_refuses_a_checkpoint_with_the_message_eval_prints(
        tmp_path, two_phase_spec, meta_change, net, message):
    variant, n_actions = net
    agent = DQNAgent(observation_dim(variant, 4, 2), n_actions, DQNConfig(seed=1))
    path = tmp_path / "misfit.npz"
    save_checkpoint(path, agent, dict(META, intersection=core.intersection_to_document(
        two_phase_spec), **meta_change))
    flow = core.generate_flow(core.UniformProfile(0.05, 4), seed=1, duration=100)
    (tmp_path / "flow.json").write_text(json.dumps(core.flow_to_document(flow)))
    with pytest.raises(ValueError, match="^" + re.escape(message)) as refused_by_eval:
        cli.main(["eval", "--checkpoint", str(path), "--flow", str(tmp_path / "flow.json"),
                  "--split", "val"])
    with pytest.raises(ValueError) as refused_by_sweep:
        harness.qvalue_sweep(path, grid_max=3)
    assert str(refused_by_sweep.value) == str(refused_by_eval.value)
