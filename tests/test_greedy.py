"""The greedy DQN controller: equivalence with env stepping and with the rule it
replaced, meta checks, traces."""

import csv
import json

import numpy as np
import pytest

from trafficlab import cli, core, harness, qnet, sim
from trafficlab.agents import DQNAgent, DQNConfig, GreedyController, save_checkpoint
from trafficlab.env import (VARIANTS, ActionSpace, TrafficEnv, decode_action, observation_dim,
                            observe, reward)

TOY_PROFILE = ("clustered(cluster_size=4,inter_cluster_gap=15,within_gap=2,"
               "lane_weights=0.5:0.2:0.25:0.05)")
META = {"variant": "wad", "action_mode": "acyclic", "process": "smdp"}


def reference_rollout(agent, spec, flow, meta, horizon):
    """Greedy episode stepped through TrafficEnv as an MDP or an SMDP; returns
    (travel time, raw return, number of phase changes)."""
    env = TrafficEnv(spec, flow, variant=meta["variant"], action_mode=meta["action_mode"],
                     gamma=agent.config.gamma, horizon=horizon)
    step = env.mdp_step if meta["process"] == "mdp" else env.smdp_step
    obs = env.reset()
    changes = 0
    while not env.terminal:
        phase = env.state.signal.current_phase
        obs = step(int(np.argmax(agent.q_values(obs)))).next_state
        changes += env.state.signal.current_phase != phase
    return sim.avg_travel_time(env.state, flow), env.raw_return, changes


@pytest.mark.parametrize("process", ["mdp", "smdp"])
@pytest.mark.parametrize("action_mode", ["cyclic", "acyclic"])
@pytest.mark.parametrize("spec_name", ["two_phase_spec", "default_spec"])
def test_greedy_controller_matches_env_stepping(request, spec_name, action_mode, process):
    spec = request.getfixturevalue(spec_name)
    profile = core.parse_profile(f"uniform(rate_per_lane=0.05,n_lanes={spec.n_lanes})")
    flow = core.generate_flow(profile, seed=1, duration=400)
    n_actions = ActionSpace(action_mode, spec.n_phases).size
    changes = 0
    for variant in VARIANTS:
        meta = {"variant": variant, "action_mode": action_mode, "process": process}
        for seed in (0, 1, 2):
            agent = DQNAgent(observation_dim(variant, spec.n_lanes, spec.n_phases), n_actions,
                             DQNConfig(seed=seed))
            for horizon in (None, 233):
                tt, ret, n = reference_rollout(agent, spec, flow, meta, horizon)
                got = harness.greedy_rollout(GreedyController(agent, spec, meta), spec, flow,
                                             horizon)
                assert got == (tt, ret)
                changes += n
    assert changes > 0  # the cases exercise switching, so SMDP gating matters


@pytest.mark.parametrize("missing", ["variant", "action_mode", "process"])
def test_meta_without_a_stepping_field_is_rejected(two_phase_spec, missing):
    agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=0))
    meta = {k: v for k, v in META.items() if k != missing}
    with pytest.raises(ValueError, match=missing):
        GreedyController(agent, two_phase_spec, meta)


def test_meta_with_unknown_process_is_rejected(two_phase_spec):
    agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=0))
    with pytest.raises(ValueError, match="process"):
        GreedyController(agent, two_phase_spec, {**META, "process": "semi"})


def test_compare_rejects_checkpoint_meta_without_process(tmp_path, two_phase_spec):
    agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=0))
    save_checkpoint(tmp_path / "old.npz", agent, {"variant": "wad", "action_mode": "acyclic"})
    (tmp_path / "intersection.json").write_text(
        json.dumps(core.intersection_to_document(two_phase_spec)))
    (tmp_path / "config.json").write_text(json.dumps({
        "intersection": "intersection.json",
        "flow_profiles": [{"profile": TOY_PROFILE, "seed": 1, "duration": 200}],
        "controllers": [f"dqn:{tmp_path / 'old.npz'}"],
    }))
    with pytest.raises(ValueError, match="process"):
        harness.compare(harness.ExperimentConfig.from_file(tmp_path / "config.json"))


def test_eval_trace_of_smdp_checkpoint_covers_every_tick(tmp_path, two_phase_spec, monkeypatch):
    """An always-advance cyclic SMDP network switches at every decision, so
    most ticks are yellow or landing ticks that no transition ends on."""
    meta = {"variant": "wad", "action_mode": "cyclic", "process": "smdp",
            "intersection": core.intersection_to_document(two_phase_spec)}
    agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=0))
    for w in agent.net.weights:
        w[:] = 0.0
    agent.net.biases[-1][:] = (0.0, 1.0)
    save_checkpoint(tmp_path / "advance.npz", agent, meta)
    flow = core.generate_flow(core.parse_profile(TOY_PROFILE), seed=3, duration=600)
    (tmp_path / "flow.json").write_text(json.dumps(core.flow_to_document(flow)))

    assert cli.main(["eval", "--checkpoint", str(tmp_path / "advance.npz"),
                     "--flow", str(tmp_path / "flow.json"), "--split", "val",
                     "--trace", str(tmp_path / "trace.csv")]) == 0
    with open(tmp_path / "trace.csv", newline="") as fh:
        traced = {int(row["tick"]) for row in csv.DictReader(fh)}

    occupied = set()
    real_tick = sim.tick

    def tick(state):
        real_tick(state)
        if state.on_network():
            occupied.add(state.clock)

    monkeypatch.setattr(sim, "tick", tick)
    val, _ = core.split_halves(flow)
    reference_rollout(agent, two_phase_spec, val, meta, None)
    assert len(occupied) > 200
    assert traced == occupied


class ReferenceGreedyController(GreedyController):
    """`GreedyController` with the `decide` it had before the MDP yellow skip,
    kept verbatim as the reference: it ran the network on every tick but the
    SMDP's yellow and landing ticks."""

    def decide(self, state):
        sig = state.signal
        landing = sig.time_in_phase == 0 and state.clock > 0
        if self.smdp and (sig.yellow_remaining > 0 or landing):
            return sig.current_phase
        action = int(np.argmax(self.agent.q_values(observe(state, self.variant))))
        return decode_action(self.space, action, sig.current_phase)


def always_advance_agent(spec):
    """A cyclic agent whose network always picks 'advance', so it switches at
    every decision the signal takes."""
    agent = DQNAgent(observation_dim("wad", spec.n_lanes, spec.n_phases), 2, DQNConfig(seed=0))
    for w in agent.net.weights:
        w[:] = 0.0
    agent.net.biases[-1][:] = (0.0, 1.0)
    return agent


class Recorder:
    """Wraps a controller and logs, per decision, whether yellow runs, the
    phase decided and the `qnet.forward` calls it made."""

    def __init__(self, policy, forward_calls):
        self.policy = policy
        self.forward_calls = forward_calls
        self.log = []

    def reset(self):
        self.policy.reset()

    def decide(self, state):
        calls = len(self.forward_calls)
        yellow = state.signal.yellow_remaining > 0
        phase = self.policy.decide(state)
        self.log.append((yellow, phase, len(self.forward_calls) - calls))
        return phase


@pytest.mark.parametrize("action_mode", ["cyclic", "acyclic"])
@pytest.mark.parametrize("spec_name", ["two_phase_spec", "default_spec"])
def test_mdp_greedy_episode_runs_the_net_once_per_non_yellow_tick(request, monkeypatch,
                                                                 spec_name, action_mode):
    spec = request.getfixturevalue(spec_name)
    profile = core.parse_profile(f"uniform(rate_per_lane=0.05,n_lanes={spec.n_lanes})")
    flow = core.generate_flow(profile, seed=2, duration=400)
    forward_calls = []
    real_forward = qnet.forward

    def counting_forward(net, states):
        forward_calls.append(np.ndim(states))
        return real_forward(net, states)

    monkeypatch.setattr(qnet, "forward", counting_forward)
    n_actions = ActionSpace(action_mode, spec.n_phases).size
    agents = [(v, DQNAgent(observation_dim(v, spec.n_lanes, spec.n_phases), n_actions,
                           DQNConfig(seed=s)))
              for v, s in (("wad", 0), ("wads", 1), ("combined", 2))]
    if action_mode == "cyclic":
        agents.append(("wad", always_advance_agent(spec)))
    yellow_ticks = 0
    for variant, agent in agents:
        meta = {"variant": variant, "action_mode": action_mode, "process": "mdp"}
        runs = []
        for rule in (GreedyController, ReferenceGreedyController):
            recorder = Recorder(rule(agent, spec, meta), forward_calls)
            signals = []
            tt = harness.evaluate(recorder, spec, flow, on_tick=lambda state: signals.append(
                (vars(state.signal).copy(), reward(state))))
            runs.append((tt, signals, recorder.log))
        (tt, signals, log), (ref_tt, ref_signals, ref_log) = runs
        assert tt == ref_tt and signals == ref_signals
        assert len(log) == len(ref_log) == flow.duration
        for (yellow, phase, calls), (_, ref_phase, ref_calls) in zip(log, ref_log):
            assert calls == (0 if yellow else 1) and ref_calls == 1
            if not yellow:
                assert phase == ref_phase
        yellow_ticks += sum(yellow for yellow, _, _ in log)
    assert yellow_ticks > 50  # the cases exercise switching, so the skip matters


@pytest.mark.parametrize("action_mode", ["cyclic", "acyclic"])
def test_eval_trace_of_mdp_checkpoint_matches_the_reference_rule(tmp_path, two_phase_spec,
                                                                 monkeypatch, capsys,
                                                                 action_mode):
    meta = {"variant": "wad", "action_mode": action_mode, "process": "mdp",
            "intersection": core.intersection_to_document(two_phase_spec)}
    agent = (always_advance_agent(two_phase_spec) if action_mode == "cyclic"
             else DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=5)))
    save_checkpoint(tmp_path / "mdp.npz", agent, meta)
    flow = core.generate_flow(core.parse_profile(TOY_PROFILE), seed=3, duration=600)
    (tmp_path / "flow.json").write_text(json.dumps(core.flow_to_document(flow)))
    outputs = []
    for rule in (GreedyController, ReferenceGreedyController):
        monkeypatch.setattr(cli, "GreedyController", rule)
        trace = tmp_path / f"{rule.__name__}.csv"
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "mdp.npz"),
                         "--flow", str(tmp_path / "flow.json"), "--split", "test",
                         "--trace", str(trace)]) == 0
        outputs.append((trace.read_bytes(), capsys.readouterr().out.splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") > 1000


def two_phase_checkpoint(path, spec):
    """A wad/acyclic checkpoint of the two-phase toy: 14 inputs, 2 actions."""
    agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=3))
    save_checkpoint(path, agent, {**META, "intersection": core.intersection_to_document(spec)})
    return path


@pytest.mark.parametrize("meta, message", [
    pytest.param(META, r"network takes 14 inputs and gives 2 action values; the 'wad' state "
                       r"of a 8-lane, 8-phase intersection has 32 and its acyclic action "
                       r"space 8$", id="inputs"),
    pytest.param({**META, "variant": "wads"}, r"takes 14 inputs .* 'wads' state .* has 40 ",
                 id="variant"),
])
def test_a_network_that_does_not_fit_the_spec_is_refused(default_spec, meta, message):
    agent = DQNAgent(observation_dim("wad", 4, 2), 2, DQNConfig(seed=0))
    with pytest.raises(ValueError, match=message):
        GreedyController(agent, default_spec, meta)


def test_a_network_with_the_wrong_action_count_is_refused(default_spec):
    agent = DQNAgent(observation_dim("wad", 8, 8), 8, DQNConfig(seed=0))
    GreedyController(agent, default_spec, META)
    with pytest.raises(ValueError, match=r"gives 8 action values; .* has 32 and its cyclic "
                                         r"action space 2$"):
        GreedyController(agent, default_spec, {**META, "action_mode": "cyclic"})


def test_compare_refuses_an_unfit_checkpoint_before_any_episode(tmp_path, two_phase_spec,
                                                               default_spec, monkeypatch):
    checkpoint = two_phase_checkpoint(tmp_path / "toy.npz", two_phase_spec)
    (tmp_path / "intersection.json").write_text(
        json.dumps(core.intersection_to_document(default_spec)))
    (tmp_path / "config.json").write_text(json.dumps({
        "intersection": "intersection.json",
        "flow_profiles": [{"profile": "uniform(rate_per_lane=0.05,n_lanes=8)", "seed": 1,
                           "duration": 200}],
        "controllers": ["fixed", "sotl1", f"dqn:{checkpoint}"],
    }))
    episodes = []
    evaluate = harness.evaluate
    monkeypatch.setattr(harness, "evaluate",
                        lambda *args, **kwargs: episodes.append(args) or evaluate(*args, **kwargs))
    with pytest.raises(ValueError, match=rf"^controllers entry 'dqn:{checkpoint}': checkpoint "
                                         r"network takes 14 inputs"):
        harness.compare(harness.ExperimentConfig.from_file(tmp_path / "config.json"))
    assert episodes == []


def test_eval_with_a_spec_refuses_an_unfit_checkpoint(tmp_path, two_phase_spec, default_spec):
    checkpoint = two_phase_checkpoint(tmp_path / "toy.npz", two_phase_spec)
    (tmp_path / "intersection.json").write_text(
        json.dumps(core.intersection_to_document(default_spec)))
    flow = core.generate_flow(core.parse_profile("uniform(rate_per_lane=0.05,n_lanes=8)"),
                              seed=1, duration=200)
    (tmp_path / "flow.json").write_text(json.dumps(core.flow_to_document(flow)))
    with pytest.raises(ValueError, match=r"network takes 14 inputs .* has 32"):
        cli.main(["eval", "--checkpoint", str(checkpoint), "--flow", str(tmp_path / "flow.json"),
                  "--split", "val", "--spec", str(tmp_path / "intersection.json")])
