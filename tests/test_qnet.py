"""Network forward/backward, Adam, and soft-update tests."""

import tracemalloc

import numpy as np
import pytest

from trafficlab import qnet
from trafficlab.agents import DQNAgent, DQNConfig, load_checkpoint, save_checkpoint
from trafficlab.qnet import Adam, QNetwork, forward, loss_and_grads, soft_update


def tiny_net():
    """1-1-1-1 net with hand-picked weights for a closed-form check."""
    net = QNetwork((1, 1, 1, 1))
    net.weights[0][:] = [[2.0]]
    net.biases[0][:] = [1.0]
    net.weights[1][:] = [[-3.0]]
    net.biases[1][:] = [0.5]
    net.weights[2][:] = [[4.0]]
    net.biases[2][:] = [-1.0]
    return net


class TestForward:
    def test_zero_net_maps_everything_to_zero(self):
        net = QNetwork((6, 64, 64, 3))
        x = np.linspace(-1, 1, 6)
        assert np.all(forward(net, x) == 0.0)

    def test_hand_computed_composition(self):
        # x=1: z1 = 2*1+1 = 3, relu 3; z2 = -3*3+0.5 = -8.5, relu 0;
        # out = 4*0 - 1 = -1.
        net = tiny_net()
        assert forward(net, np.array([1.0]))[0] == pytest.approx(-1.0)
        # x=-2: z1 = -3, relu 0; z2 = 0.5, relu 0.5; out = 4*0.5 - 1 = 1.
        assert forward(net, np.array([-2.0]))[0] == pytest.approx(1.0)

    def test_pure(self):
        rng = np.random.default_rng(0)
        net = QNetwork.build(5, 3, rng)
        x = rng.normal(size=5)
        np.testing.assert_array_equal(forward(net, x), forward(net, x))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        net = QNetwork.build(4, 2, rng)
        xs = rng.normal(size=(7, 4))
        batch = forward(net, xs)
        for k in range(7):
            np.testing.assert_allclose(batch[k], forward(net, xs[k]), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        net = QNetwork((4, 8, 8, 2))
        with pytest.raises(ValueError):
            forward(net, np.zeros(5))

    def test_seeded_init_reproducible(self):
        a = QNetwork.build(6, 2, np.random.default_rng(42))
        b = QNetwork.build(6, 2, np.random.default_rng(42))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)


def numerical_gradient(net, states, actions, targets, h=1e-6):
    """Central finite differences of the batch loss in every parameter."""
    flat = net.flat_parameters()
    grad = np.zeros_like(flat)
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] += h
        net.set_flat_parameters(bumped)
        up, _, _ = loss_and_grads(net, states, actions, targets)
        bumped[k] -= 2 * h
        net.set_flat_parameters(bumped)
        down, _, _ = loss_and_grads(net, states, actions, targets)
        grad[k] = (up - down) / (2 * h)
    net.set_flat_parameters(flat)
    return grad


def flat_grads(grad_w, grad_b):
    parts = []
    for gw, gb in zip(grad_w, grad_b):
        parts.append(gw.ravel())
        parts.append(gb.ravel())
    return np.concatenate(parts)


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            in_dim = int(rng.integers(2, 7))
            width = int(rng.integers(3, 9))
            k = int(rng.integers(2, 4))
            net = QNetwork((in_dim, width, width, k), rng)
            n = int(rng.integers(2, 6))
            states = rng.normal(size=(n, in_dim))
            actions = rng.integers(0, k, size=n)
            targets = rng.normal(size=n)
            _, gw, gb = loss_and_grads(net, states, actions, targets)
            analytic = flat_grads(gw, gb)
            numeric = numerical_gradient(net, states, actions, targets)
            denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4

    def test_loss_value(self):
        net = tiny_net()
        # q(1) = -1, target 2 -> (q - y)^2 = 9
        loss, _, _ = loss_and_grads(net, np.array([[1.0]]), np.array([0]), np.array([2.0]))
        assert loss == pytest.approx(9.0)


class TestAdam:
    def test_overfit_one_batch_decreases_loss(self):
        rng = np.random.default_rng(3)
        net = QNetwork((4, 16, 16, 2), rng)
        opt = Adam(net, lr=1e-4)
        states = rng.normal(size=(16, 4))
        actions = rng.integers(0, 2, size=16)
        targets = rng.normal(size=16)
        losses = []
        for _ in range(10):
            loss, gw, gb = loss_and_grads(net, states, actions, targets)
            losses.append(loss)
            opt.step(net, gw, gb)
        final, _, _ = loss_and_grads(net, states, actions, targets)
        losses.append(final)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_step_counter_advances(self):
        net = QNetwork((2, 4, 4, 2), np.random.default_rng(0))
        opt = Adam(net)
        _, gw, gb = loss_and_grads(net, np.zeros((1, 2)), np.array([0]), np.array([1.0]))
        opt.step(net, gw, gb)
        assert opt.t == 1


class TestSoftUpdate:
    def test_tau_one_copies(self):
        rng = np.random.default_rng(0)
        net = QNetwork.build(4, 2, rng)
        target = QNetwork.build(4, 2, np.random.default_rng(1))
        soft_update(target, net, 1.0)
        for t, p in zip(target.parameters(), net.parameters()):
            np.testing.assert_array_equal(t, p)

    def test_tau_zero_is_identity(self):
        rng = np.random.default_rng(0)
        net = QNetwork.build(4, 2, rng)
        target = QNetwork.build(4, 2, np.random.default_rng(1))
        before = target.flat_parameters()
        soft_update(target, net, 0.0)
        np.testing.assert_array_equal(target.flat_parameters(), before)

    def test_midpoint(self):
        net = QNetwork((1, 1))
        target = QNetwork((1, 1))
        net.weights[0][:] = 2.0
        target.weights[0][:] = 0.0
        soft_update(target, net, 0.5)
        assert target.weights[0][0, 0] == 1.0

    def test_contraction_toward_live_parameters(self):
        net = QNetwork((1, 1))
        target = QNetwork((1, 1))
        net.weights[0][:] = 2.0
        target.weights[0][:] = 0.0
        tau = 0.25
        for _ in range(5):
            gap_before = abs(target.weights[0][0, 0] - 2.0)
            soft_update(target, net, tau)
            gap_after = abs(target.weights[0][0, 0] - 2.0)
            assert gap_after == pytest.approx((1 - tau) * gap_before, rel=1e-12)

    def test_architecture_mismatch_rejected(self):
        with pytest.raises(ValueError):
            soft_update(QNetwork((2, 2)), QNetwork((3, 2)), 0.5)


class TestFlatParameters:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        net = QNetwork.build(5, 3, rng)
        flat = net.flat_parameters()
        other = QNetwork((5,) + qnet.HIDDEN + (3,))
        other.set_flat_parameters(flat)
        np.testing.assert_array_equal(other.flat_parameters(), flat)

    def test_wrong_length_rejected(self):
        net = QNetwork((2, 2))
        with pytest.raises(ValueError):
            net.set_flat_parameters(np.zeros(99))


def reference_adam_step(params, grads, m, v, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as one loop over per-layer arrays: the reference for the flat update."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, mk, vk in zip(params, grads, m, v):
        mk += (1.0 - beta1) * (g - mk)
        vk += (1.0 - beta2) * (g * g - vk)
        p -= lr * (mk / c1) / (np.sqrt(vk / c2) + eps)


def reference_soft_update(target_params, params, tau):
    for t, p in zip(target_params, params):
        t *= 1.0 - tau
        t += tau * p


def assert_views_of_flat(net):
    for p in net.parameters():
        assert np.shares_memory(p, net.flat)
    assert sum(p.size for p in net.parameters()) == net.flat.size


class TestFlatLayout:
    def test_flat_update_matches_per_layer_reference_bit_for_bit(self):
        rng = np.random.default_rng(11)
        net = QNetwork.build(6, 3, rng)
        target = net.copy()
        opt = Adam(net, lr=1e-3)
        ref = [p.copy() for p in net.parameters()]
        ref_target = [p.copy() for p in target.parameters()]
        ref_m = [np.zeros_like(p) for p in ref]
        ref_v = [np.zeros_like(p) for p in ref]
        states = rng.normal(size=(32, 6))
        actions = rng.integers(0, 3, size=32)
        targets = rng.normal(size=32)
        for t in range(1, 201):
            _, gw, gb = loss_and_grads(net, states, actions, targets)
            reference_adam_step(ref, [g for pair in zip(gw, gb) for g in pair],
                                ref_m, ref_v, t)
            opt.step(net, gw, gb)
            reference_soft_update(ref_target, ref, 1e-2)
            soft_update(target, net, 1e-2)
        for got, want in zip(net.parameters(), ref):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(target.parameters(), ref_target):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(opt.m, np.concatenate([m.ravel() for m in ref_m]))
        np.testing.assert_array_equal(opt.v, np.concatenate([v.ravel() for v in ref_v]))

    def test_parameters_are_views_of_flat(self, tmp_path):
        net = QNetwork.build(5, 2, np.random.default_rng(0))
        assert_views_of_flat(net)
        clone = net.copy()
        assert_views_of_flat(clone)
        assert not np.shares_memory(clone.flat, net.flat)
        clone.set_flat_parameters(np.arange(net.flat.size, dtype=float))
        assert_views_of_flat(clone)
        assert clone.weights[0][0, 1] == 1.0
        agent = DQNAgent(5, 2, DQNConfig(seed=3))
        save_checkpoint(tmp_path / "a.npz", agent, {})
        loaded, _ = load_checkpoint(tmp_path / "a.npz")
        assert_views_of_flat(loaded.net)
        assert_views_of_flat(loaded.target)

    def test_gradients_are_views_of_one_vector(self):
        net = QNetwork.build(4, 2, np.random.default_rng(1))
        _, gw, gb = loss_and_grads(net, np.ones((3, 4)), np.array([0, 1, 0]), np.zeros(3))
        flat = gw[0].base
        assert flat.shape == net.flat.shape
        for g in (*gw, *gb):
            assert g.base is flat

    def test_step_rejects_gradients_from_elsewhere(self):
        net = QNetwork.build(4, 2, np.random.default_rng(1))
        opt = Adam(net)
        _, gw, gb = loss_and_grads(net, np.ones((3, 4)), np.array([0, 1, 0]), np.zeros(3))
        before = net.flat_parameters()
        with pytest.raises(ValueError, match="loss_and_grads"):
            opt.step(net, [g.copy() for g in gw], gb)
        np.testing.assert_array_equal(net.flat, before)
        assert opt.t == 0


def reference_forward(net: QNetwork, states: np.ndarray) -> np.ndarray:
    """Q values for one state vector or a batch of them."""
    x = np.asarray(states, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != net.in_dim:
        raise ValueError(f"state dimension {x.shape[1]} does not match network input {net.in_dim}")
    h = x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if k < last:
            np.maximum(h, 0.0, out=h)
    return h[0] if single else h


def _reference_forward_cached(net: QNetwork, x: np.ndarray):
    activations = [x]
    pre = []
    h = x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if k < last else z
        activations.append(h)
    return pre, activations


def reference_loss_and_grads(net: QNetwork, states, actions, targets):
    """Mean squared TD error over the batch and its gradient in net parameters.

    Returns (loss, grad_weights, grad_biases) with grads shaped like the net:
    views into one flat gradient vector laid out like `net.flat`.
    """
    x = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.float64)
    n = x.shape[0]
    pre, acts = _reference_forward_cached(net, x)
    q = acts[-1]
    picked = q[np.arange(n), actions]
    err = picked - targets
    loss = float(np.mean(err ** 2))

    dq = np.zeros_like(q)
    dq[np.arange(n), actions] = 2.0 * err / n
    grads = net.split(np.empty_like(net.flat))
    grad_w = grads[0::2]
    grad_b = grads[1::2]
    delta = dq
    for k in range(len(net.weights) - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=grad_w[k])
        delta.sum(axis=0, out=grad_b[k])
        if k > 0:
            delta = (delta @ net.weights[k].T) * (pre[k - 1] > 0.0)
    return loss, grad_w, grad_b


class TestWorkspace:
    """The workspace forward and backward against the allocating reference
    above (the implementation they replaced), bit for bit."""

    LAYERS = [(16,) + qnet.HIDDEN + (3,), (5, 9, 4)]

    def assert_matches_reference(self, net, states, actions, targets):
        np.testing.assert_array_equal(forward(net, states), reference_forward(net, states))
        for row in states[:2]:
            np.testing.assert_array_equal(forward(net, row), reference_forward(net, row))
        loss, gw, gb = loss_and_grads(net, states, actions, targets)
        ref_loss, ref_gw, ref_gb = reference_loss_and_grads(net, states, actions, targets)
        np.testing.assert_array_equal(loss, ref_loss)  # NaN equals NaN here
        for got, want in zip((*gw, *gb), (*ref_gw, *ref_gb)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("layers", LAYERS)
    def test_live_and_target_match_reference_over_interleaved_batch_sizes(self, layers):
        rng = np.random.default_rng(5)
        live = QNetwork(layers, rng)
        target = live.copy()
        opt = Adam(live, lr=1e-2)
        for step, n in enumerate((1, 3, 32, 512, 3, 1, 512, 32) * 2):
            states = rng.normal(size=(n, layers[0]))
            actions = rng.integers(0, layers[-1], size=n)
            targets = rng.normal(size=n)
            # Replay hands over strided views of a (n, 2, dim) gather.
            pairs = rng.normal(size=(n, 2, layers[0]))
            for net in (target, live):
                self.assert_matches_reference(net, states, actions, targets)
                self.assert_matches_reference(net, pairs[:, 1], actions, targets)
            _, gw, gb = loss_and_grads(live, states, actions, targets)
            opt.step(live, gw, gb)
            soft_update(target, live, 0.1)

    def test_nan_activations_mask_like_reference(self):
        net = QNetwork((4, 8, 8, 2), np.random.default_rng(2))
        states = np.random.default_rng(3).normal(size=(6, 4))
        states[2, 1] = np.nan
        net.weights[1][0, 3] = np.inf
        with np.errstate(invalid="ignore"):
            self.assert_matches_reference(net, states, np.array([0, 1, 0, 1, 1, 0]), np.zeros(6))

    def test_results_do_not_change_on_later_calls(self):
        rng = np.random.default_rng(4)
        net = QNetwork.build(6, 3, rng)
        opt = Adam(net)
        states = rng.normal(size=(32, 6))
        actions = rng.integers(0, 3, size=32)
        q_batch = forward(net, states)
        q_single = forward(net, states[0])
        loss, gw, gb = loss_and_grads(net, states, actions, np.zeros(32))
        kept = [a.copy() for a in (q_batch, q_single, *gw, *gb)]
        other = rng.normal(size=(32, 6))
        forward(net, other)
        forward(net, other[0])
        _, gw2, gb2 = loss_and_grads(net, other, actions, np.ones(32))
        opt.step(net, gw2, gb2)
        for got, want in zip((q_batch, q_single, *gw, *gb), kept):
            np.testing.assert_array_equal(got, want)

    def test_copy_has_its_own_workspace(self):
        net = QNetwork.build(6, 3, np.random.default_rng(6))
        states = np.random.default_rng(7).normal(size=(32, 6))
        forward(net, states)
        clone = net.copy()
        forward(clone, states)
        a, b = net.workspace(32), clone.workspace(32)
        for x, y in zip((*a.outputs, *a.deltas, *a.masks), (*b.outputs, *b.deltas, *b.masks)):
            assert not np.shares_memory(x, y)
        np.testing.assert_array_equal(forward(clone, states), forward(net, states))

    def test_batch_512_update_allocates_under_0_85_mib(self):
        # A batch-512 workspace of the 14-64-64-2 toy net holds 520 KiB of
        # float buffers when each delta is written over its layer's output,
        # and 1,040 KiB with a delta buffer beside each output (1.20 MiB peak).
        net = QNetwork.build(14, 2, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        states = rng.normal(size=(512, 14))
        actions = rng.integers(0, 2, size=512)
        targets = rng.normal(size=512)
        tracemalloc.start()
        try:
            loss_and_grads(net, states, actions, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.85 * 2 ** 20

    def test_one_workspace_per_batch_size(self):
        net = QNetwork.build(6, 3, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        made = {n: net.workspace(n) for n in (1, 32)}
        assert made[1] is not made[32]
        for n in (1, 32, 1, 32):
            q = forward(net, rng.normal(size=(n, 6)))
            assert net.workspace(n) is made[n]
            np.testing.assert_array_equal(made[n].outputs[-1], q)


def workspace_forward(net: QNetwork, states: np.ndarray) -> np.ndarray:
    """The reference forward, kept verbatim (bar the name and the `qnet.`
    prefix) from before `forward` had a separate 1-D path: one state runs as a
    batch of one through the workspace, as `forward` itself now runs it."""
    x = np.asarray(states, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != net.in_dim:
        raise ValueError(f"state dimension {x.shape[1]} does not match network input {net.in_dim}")
    q = qnet._run(net, x).outputs[-1]
    return q[0].copy() if single else q.copy()


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSingleStateForward:
    """One state vector, contiguous, strided or a list, runs as a batch of
    one: bit for bit as the reference `workspace_forward`, and into a result
    that later calls leave alone."""

    LAYERS = [(40,) + qnet.HIDDEN + (8,), (14,) + qnet.HIDDEN + (2,), (5, 9, 4), (1, 1, 1, 1),
              (3, 7)]

    @pytest.mark.parametrize("layers", LAYERS)
    def test_bit_equal_to_the_workspace_forward(self, layers):
        rng = np.random.default_rng(sum(layers))
        n = layers[0]
        for trial in range(60):
            net = QNetwork(layers, rng)
            scale = 10.0 ** rng.integers(-3, 4)
            pairs = rng.normal(size=(5, 2, n)) * scale
            columns = rng.normal(size=(n, 3)) * scale
            long = rng.normal(size=3 * n + 1) * scale
            if trial % 4 == 3:
                pairs[1, 0, rng.integers(n)] = np.nan
                pairs[2, 1, rng.integers(n)] = rng.choice([np.inf, -np.inf])
                net.weights[-1][rng.integers(layers[-2]), rng.integers(layers[-1])] = np.inf
            # Contiguous rows, the strided replay-pair views, a column, forward
            # and backward strides, and a list.
            states = (pairs[0, 0], pairs[1, 0], pairs[2, 1], pairs[:, 1][3], columns[:, 1],
                      long[1::3], long[::-3][:n], list(pairs[4, 0]))
            with np.errstate(invalid="ignore", over="ignore"):
                for x in states:
                    assert_same_bits(forward(net, x), workspace_forward(net, x))

    def test_result_does_not_change_on_later_calls(self):
        rng = np.random.default_rng(12)
        net = QNetwork.build(6, 3, rng)
        opt = Adam(net)
        x = rng.normal(size=6)
        q = forward(net, x)
        kept = q.copy()
        assert not any(np.shares_memory(q, a) for a in (x, net.flat))
        forward(net, rng.normal(size=6))
        forward(net, rng.normal(size=(1, 6)))
        forward(net, rng.normal(size=(32, 6)))
        _, gw, gb = loss_and_grads(net, rng.normal(size=(32, 6)), rng.integers(0, 3, size=32),
                                   np.ones(32))
        opt.step(net, gw, gb)
        x[:] = 0.0
        assert_same_bits(q, kept)


def test_adam_sets_a_dead_first_moment_to_zero_and_moves_nothing_else():
    # Coordinate 0's gradient is 1 at step 1 and 0 after, so its first moment
    # is 0.1 * 0.9 ** (t - 1): subnormal from step 6,701 until the flush at
    # step 7,000. The per-layer reference never flushes.
    net = QNetwork((2, 2), np.random.default_rng(5))
    opt = Adam(net)
    ref = [p.copy() for p in net.parameters()]
    ref_m = [np.zeros_like(p) for p in ref]
    ref_v = [np.zeros_like(p) for p in ref]
    flat_grad = np.random.default_rng(6).normal(size=net.flat.size)
    flat_grad[0] = 1.0
    grads = net.split(flat_grad)
    for t in range(1, 7001):
        reference_adam_step(ref, grads, ref_m, ref_v, t)
        opt.step(net, grads[0::2], grads[1::2])
        flat_grad[0] = 0.0
    tiny = np.finfo(np.float64).tiny
    ref_m = np.concatenate([m.ravel() for m in ref_m])
    assert 0 < ref_m[0] < tiny
    assert opt.m[0] == 0.0
    assert not np.any((opt.m != 0) & (np.abs(opt.m) < tiny))
    np.testing.assert_array_equal(opt.m[1:], ref_m[1:])
    np.testing.assert_array_equal(opt.v, np.concatenate([v.ravel() for v in ref_v]))
    np.testing.assert_array_equal(net.flat, np.concatenate([p.ravel() for p in ref]))
