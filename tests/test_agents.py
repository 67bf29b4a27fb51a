"""Replay buffer, action selection, TD targets, and checkpoint tests."""

import numpy as np
import pytest

from trafficlab import qnet
from trafficlab.agents import (
    DQNAgent,
    DQNConfig,
    EpsilonSchedule,
    ReplayBuffer,
    load_checkpoint,
    save_checkpoint,
    select_action,
    td_targets,
    train_step,
)
from trafficlab.env import Transition
from trafficlab.qnet import Adam, QNetwork


def make_transition(dim=4, action=0, reward=-1.0, duration=1, terminal=False, seed=0):
    rng = np.random.default_rng(seed)
    return Transition(
        state=rng.random(dim),
        action=action,
        reward=reward,
        next_state=rng.random(dim),
        duration=duration,
        terminal=terminal,
    )


class TestSelectAction:
    def test_greedy_argmax(self):
        rng = np.random.default_rng(0)
        assert select_action(np.array([1.0, 3.0, 2.0]), 0.0, rng) == 1

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(0)
        assert select_action(np.array([2.0, 2.0]), 0.0, rng) == 0

    def test_fully_random_is_uniform(self):
        rng = np.random.default_rng(5)
        n, k = 10_000, 3
        counts = np.zeros(k)
        for _ in range(n):
            counts[select_action(np.array([9.0, 0.0, 0.0]), 1.0, rng)] += 1
        expected = n / k
        sigma = np.sqrt(n * (1 / k) * (1 - 1 / k))
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_action(np.array([]), 0.0, np.random.default_rng(0))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            select_action(np.array([1.0]), 1.5, np.random.default_rng(0))


def reference_select_action(q_values: np.ndarray, epsilon: float,
                            rng: np.random.Generator) -> int:
    """`select_action` as it was when `act` ran the network before the coin,
    kept verbatim (bar the name) as the reference."""
    q_values = np.asarray(q_values)
    if q_values.size == 0:
        raise ValueError("empty action-value vector")
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q_values.size))
    return int(np.argmax(q_values))


class TestAct:
    EPSILONS = (0.0, 1.0, 0.5, 0.05, 0.95, 1e-9, 0.3)

    def test_same_actions_and_rng_as_the_net_first_rule(self, monkeypatch):
        calls = []
        real_forward = qnet.forward

        def counting_forward(net, states):
            calls.append(np.ndim(states))
            return real_forward(net, states)

        monkeypatch.setattr(qnet, "forward", counting_forward)
        agent = DQNAgent(6, 4, DQNConfig(seed=3))
        ref = DQNAgent(6, 4, DQNConfig(seed=3))
        explored = ran = 0
        for k, state in enumerate(np.random.default_rng(4).random((500, 6))):
            greedy = k % 11 == 0
            eps = 0.0 if greedy else self.EPSILONS[k % len(self.EPSILONS)]
            agent.epsilon = EpsilonSchedule(eps, eps, 1)
            coin = np.random.default_rng()
            coin.bit_generator.state = agent.rng.bit_generator.state
            explores = eps > 0.0 and coin.random() < eps
            calls.clear()
            got = agent.act(state, greedy=greedy)
            assert calls == ([] if explores else [1])
            assert got == reference_select_action(ref.q_values(state), eps, ref.rng)
            assert agent.rng.bit_generator.state == ref.rng.bit_generator.state
            explored += explores
            ran += not explores
        assert explored > 100 and ran > 100


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=2)
        for k in range(3):
            buf.store(make_transition(reward=float(k), seed=k))
        assert len(buf) == 2
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(200):
            _, _, rewards, *_ = buf.sample(2, rng)
            seen.update(rewards.tolist())
        assert seen == {1.0, 2.0}

    def test_uniform_sampling_chi_square(self):
        buf = ReplayBuffer(capacity=16)
        for k in range(10):
            buf.store(make_transition(reward=float(k), seed=k))
        rng = np.random.default_rng(11)
        counts = np.zeros(10)
        for _ in range(10_000):  # 100k draws total, 10 per batch
            _, _, rewards, *_ = buf.sample(10, rng)
            for k in range(10):
                counts[k] += (rewards == float(k)).sum()
        draws = 100_000
        expected = draws / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 9 degrees of freedom: far tail starts around 27 (p ~ 0.001)
        assert chi2 < 27.0

    def test_same_seed_same_batch(self):
        buf = ReplayBuffer(capacity=8)
        for k in range(8):
            buf.store(make_transition(seed=k))
        a = buf.sample(4, np.random.default_rng(3))
        b = buf.sample(4, np.random.default_rng(3))
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_one_gather_matches_per_field_gathers(self):
        capacity, n = 16, 12
        buf = ReplayBuffer(capacity=capacity)
        slots = [None] * capacity
        for k in range(27):  # wraps the ring
            t = make_transition(dim=5, action=k % 3, reward=float(k), duration=k % 4 + 1,
                                terminal=k % 5 == 0, seed=k)
            buf.store(t)
            slots[k % capacity] = t
        fields = ("state", "action", "reward", "next_state", "duration", "terminal")
        columns = [np.array([getattr(t, f) for t in slots]) for f in fields]
        idx = np.random.default_rng(7).integers(0, capacity, size=n)
        batch = buf.sample(n, np.random.default_rng(7))
        for got, column in zip(batch, columns):
            np.testing.assert_array_equal(got, column[idx])
            assert got.dtype == column.dtype

    def test_sample_is_not_changed_by_later_calls(self):
        buf = ReplayBuffer(capacity=8)
        for k in range(8):
            buf.store(make_transition(reward=float(k), seed=k))
        rng = np.random.default_rng(1)
        batch = buf.sample(6, rng)
        kept = [a.copy() for a in batch]
        buf.sample(6, rng)
        for k in range(8, 16):
            buf.store(make_transition(reward=float(k), seed=k))
        for got, want in zip(batch, kept):
            np.testing.assert_array_equal(got, want)

    def test_underfilled_sampling_rejected(self):
        buf = ReplayBuffer(capacity=8)
        buf.store(make_transition())
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))


class TestTdTargets:
    def test_terminal_drops_bootstrap(self):
        net = QNetwork.build(4, 2, np.random.default_rng(0))
        y = td_targets(net, [-4.0], np.zeros((1, 4)), [1], [True], gamma=0.99)
        assert y[0] == pytest.approx(-4.0)

    def test_duration_scales_the_discount(self):
        # Constant target net output: zero weights, bias -10 on both actions.
        net = QNetwork((4, 8, 8, 2))
        net.biases[-1][:] = -10.0
        y = td_targets(net, [-11.58692], np.zeros((1, 4)), [6], [False], gamma=0.99)
        assert y[0] == pytest.approx(-11.58692 + (0.99 ** 6) * (-10.0), abs=1e-4)
        assert y[0] == pytest.approx(-21.00171, abs=1e-3)

    def test_keep_duration_one(self):
        net = QNetwork((4, 8, 8, 2))
        net.biases[-1][:] = 5.0
        y = td_targets(net, [1.0], np.zeros((1, 4)), [1], [False], gamma=0.9)
        assert y[0] == pytest.approx(1.0 + 0.9 * 5.0)

    @pytest.mark.parametrize("shape", [(1, 8), (32, 8), (512, 2)])
    def test_best_next_value_is_the_row_max_bit_for_bit(self, monkeypatch, shape):
        n, k = shape
        rng = np.random.default_rng(n * k)
        next_q = rng.standard_normal(shape) * 100.0
        next_q[rng.random(shape) < 0.2] = 0.0
        next_q[-1, k // 2] = np.nan  # a NaN row: its target must be NaN too
        monkeypatch.setattr(qnet, "forward", lambda net, states: next_q.copy())
        rewards = rng.standard_normal(n)
        durations = rng.integers(1, 7, n)
        terminals = rng.random(n) < 0.3
        y = td_targets(None, rewards, np.zeros((n, 3)), durations, terminals, gamma=0.99)
        expected = rewards + np.power(0.99, durations.astype(np.float64)) * next_q.max(
            axis=1) * ~terminals
        assert np.isnan(y[-1])
        assert y.tobytes() == expected.tobytes()


class TestTrainStep:
    def batch_of(self, transitions):
        return (
            np.stack([t.state for t in transitions]),
            np.array([t.action for t in transitions]),
            np.array([t.reward for t in transitions]),
            np.stack([t.next_state for t in transitions]),
            np.array([t.duration for t in transitions]),
            np.array([t.terminal for t in transitions]),
        )

    def test_returns_finite_loss_and_moves_parameters(self):
        rng = np.random.default_rng(0)
        net = QNetwork.build(4, 2, rng)
        target = net.copy()
        opt = Adam(net, lr=1e-3)
        batch = self.batch_of([make_transition(seed=k) for k in range(8)])
        before = net.flat_parameters().copy()
        loss = train_step(net, target, batch, DQNConfig(), opt)
        assert np.isfinite(loss)
        assert not np.array_equal(net.flat_parameters(), before)

    def test_non_finite_loss_aborts(self):
        net = QNetwork.build(4, 2, np.random.default_rng(0))
        target = net.copy()
        opt = Adam(net)
        bad = make_transition(reward=float("inf"))
        batch = self.batch_of([bad])
        before = net.flat_parameters().copy()
        with pytest.raises(RuntimeError, match="non-finite"):
            train_step(net, target, batch, DQNConfig(), opt)
        np.testing.assert_array_equal(net.flat_parameters(), before)

    def test_empty_batch_rejected(self):
        net = QNetwork.build(4, 2, np.random.default_rng(0))
        batch = (np.zeros((0, 4)), np.zeros(0, int), np.zeros(0), np.zeros((0, 4)),
                 np.zeros(0, int), np.zeros(0, bool))
        with pytest.raises(ValueError):
            train_step(net, net.copy(), batch, DQNConfig(), Adam(net))

    def test_target_network_untouched(self):
        rng = np.random.default_rng(1)
        net = QNetwork.build(4, 2, rng)
        target = QNetwork.build(4, 2, np.random.default_rng(2))
        frozen = target.flat_parameters().copy()
        opt = Adam(net)
        batch = self.batch_of([make_transition(seed=k) for k in range(4)])
        train_step(net, target, batch, DQNConfig(), opt)
        np.testing.assert_array_equal(target.flat_parameters(), frozen)


class TestDQNAgent:
    def test_same_seed_identical_networks(self):
        a = DQNAgent(6, 2, DQNConfig(seed=4))
        b = DQNAgent(6, 2, DQNConfig(seed=4))
        np.testing.assert_array_equal(a.net.flat_parameters(), b.net.flat_parameters())
        np.testing.assert_array_equal(a.target.flat_parameters(), a.net.flat_parameters())

    def test_trains_once_warm(self):
        config = DQNConfig(batch_size=4, seed=0, eps_decay_steps=100)
        agent = DQNAgent(4, 2, config)
        losses = [agent.observe(make_transition(seed=k)) for k in range(10)]
        assert all(l is None for l in losses[: config.warmup - 1])
        assert all(l is not None for l in losses[config.warmup - 1 :])
        assert agent.updates_done == 10 - config.warmup + 1

    def test_epsilon_schedule_linear_then_flat(self):
        agent = DQNAgent(4, 2, DQNConfig(eps_start=1.0, eps_end=0.1, eps_decay_steps=100))
        assert agent.epsilon.value(0) == 1.0
        assert agent.epsilon.value(50) == pytest.approx(0.55)
        assert agent.epsilon.value(100) == pytest.approx(0.1)
        assert agent.epsilon.value(10_000) == pytest.approx(0.1)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        config = DQNConfig(batch_size=4, seed=7, eps_decay_steps=50)
        agent = DQNAgent(5, 3, config)
        for k in range(12):
            agent.observe(make_transition(dim=5, action=k % 3, seed=k))
        path = tmp_path / "agent.npz"
        save_checkpoint(path, agent, meta={"variant": "wad", "note": "test"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"variant": "wad", "note": "test"}
        np.testing.assert_array_equal(
            loaded.net.flat_parameters(), agent.net.flat_parameters()
        )
        np.testing.assert_array_equal(
            loaded.target.flat_parameters(), agent.target.flat_parameters()
        )
        for ma, mb in zip(loaded.optimizer.m, agent.optimizer.m):
            np.testing.assert_array_equal(ma, mb)
        assert loaded.optimizer.t == agent.optimizer.t
        assert loaded.transitions_seen == agent.transitions_seen
        assert loaded.rng.bit_generator.state == agent.rng.bit_generator.state
        x = np.random.default_rng(0).random(5)
        np.testing.assert_array_equal(loaded.q_values(x), agent.q_values(x))

    def test_loaded_agent_continues_identically(self, tmp_path):
        # Checkpoints carry parameters, optimizer moments, and the RNG stream
        # but not the replay memory; refilling it reproduces training exactly.
        config = DQNConfig(batch_size=4, seed=1, eps_decay_steps=50)
        a = DQNAgent(4, 2, config)
        for k in range(10):
            a.observe(make_transition(seed=k))
        path = tmp_path / "agent.npz"
        save_checkpoint(path, a, {})
        b, _ = load_checkpoint(path)
        for k in range(10):
            b.buffer.store(make_transition(seed=k))
        for k in range(10, 16):
            t = make_transition(seed=k)
            la = a.observe(t)
            lb = b.observe(t)
            assert la == lb
        np.testing.assert_array_equal(a.net.flat_parameters(), b.net.flat_parameters())

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path, monkeypatch):
        config = DQNConfig(batch_size=4, seed=2, eps_decay_steps=50)
        agent = DQNAgent(4, 2, config)
        path = tmp_path / "best.npz"
        save_checkpoint(path, agent, {"round": 1})
        before = path.read_bytes()
        for k in range(10):
            agent.observe(make_transition(seed=k))

        def savez_that_fails(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_that_fails)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, agent, {"round": 2})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.npz"]
        _, meta = load_checkpoint(path)
        assert meta == {"round": 1}

    def test_overwriting_save_keeps_the_same_bytes(self, tmp_path):
        agent = DQNAgent(4, 2, DQNConfig(batch_size=4, seed=2))
        for k in range(10):
            agent.observe(make_transition(seed=k))
        save_checkpoint(tmp_path / "fresh.npz", agent, {"a": 1})
        path = tmp_path / "best.npz"
        save_checkpoint(path, DQNAgent(4, 2, DQNConfig(seed=9)), {})
        save_checkpoint(path, agent, {"a": 1})
        assert path.read_bytes() == (tmp_path / "fresh.npz").read_bytes()


class TestDQNConfigBounds:
    @pytest.mark.parametrize("tau", [float("nan"), -1.0, 5.0])
    def test_tau_outside_the_unit_interval_is_refused(self, tau):
        with pytest.raises(ValueError, match="tau"):
            DQNConfig(tau=tau)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_tau_at_the_interval_ends_is_accepted(self, tau):
        assert DQNConfig(tau=tau).tau == tau

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_is_refused(self, lr):
        with pytest.raises(ValueError, match="lr"):
            DQNConfig(lr=lr)

    @pytest.mark.parametrize("field", ["batch_size", "replay_capacity", "eps_decay_steps", "seed"])
    def test_a_value_that_is_not_an_integer_is_refused_by_name(self, field):
        for value in (float("nan"), float("inf"), 2.5, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                DQNConfig(**{field: value})
        assert getattr(DQNConfig(**{field: np.int64(3)}), field) == 3
