"""Action-value network: a small numpy MLP with analytic gradients and Adam.

`forward` and `loss_and_grads` share one forward routine, which writes into
the network's workspace: one float buffer per layer and a ReLU-mask buffer
per hidden layer, one set per batch size, made the first time that size is
used and reused by every later call of that size. The backward pass of
`loss_and_grads` writes each layer's delta over that layer's output once it
has read the output for the last time. One state vector runs as a batch of
one. What the functions return is never workspace memory (Q values are
copied out, gradients are views of a fresh vector), so a result stays valid
across later calls. A workspace belongs to one network: `copy` makes the
clone its own, checkpoints do not store it, and two threads must not run one
network at once.
"""

from __future__ import annotations

import numpy as np

HIDDEN = (64, 64)
# Adam's moment decay rates and denominator floor.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Every FLUSH_EVERY steps Adam sets the first moments below the smallest normal
# float64 to 0. The moment of a coordinate whose gradient stays 0 (a dead ReLU
# unit) turns subnormal after about 6,700 steps, and arithmetic on subnormals
# is several times slower; by then it moves its parameter by less than 1e-302.
FLUSH_EVERY = 1000


class Workspace:
    """Buffers for a batch of n states: `outputs[k]` is (n, layer_sizes[k + 1]),
    `masks[k]` is the bool ReLU mask of hidden layer k. `deltas` is the same
    list as `outputs`: after `_run` the buffers hold the layer outputs, and
    after `loss_and_grads` the buffers hold the deltas."""

    def __init__(self, layer_sizes: tuple, n: int):
        self.outputs = [np.empty((n, s)) for s in layer_sizes[1:]]
        self.deltas = self.outputs
        self.masks = [np.empty((n, s), dtype=bool) for s in layer_sizes[1:-1]]
        self.rows = np.arange(n)


class QNetwork:
    """Affine-ReLU-affine-ReLU-affine map from a state vector to K action values.

    All parameters live in one contiguous float64 vector, `flat`, laid out as
    w0, b0, w1, b1, ...; `weights[k]` and `biases[k]` are views into it. Write
    into them (`w[...] = ...`); rebinding one detaches it from `flat`.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        self._layout = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                size = int(np.prod(shape))
                self._layout.append((offset, offset + size, shape))
                offset += size
        self.flat = np.zeros(offset)
        self._workspaces: dict[int, Workspace] = {}
        views = self.split(self.flat)
        self.weights = views[0::2]
        self.biases = views[1::2]
        if rng is not None:
            for w, b in zip(self.weights, self.biases):
                bound = 1.0 / np.sqrt(w.shape[0])
                w[...] = rng.uniform(-bound, bound, size=w.shape)
                b[...] = rng.uniform(-bound, bound, size=b.shape)

    @classmethod
    def build(cls, in_dim: int, n_actions: int, rng: np.random.Generator) -> "QNetwork":
        return cls((in_dim,) + HIDDEN + (n_actions,), rng)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def split(self, flat: np.ndarray) -> list:
        """Per-parameter views (w0, b0, w1, b1, ...) into a vector laid out like `flat`."""
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]

    def workspace(self, n: int) -> Workspace:
        """The buffers for batch size n, made on first use."""
        ws = self._workspaces.get(n)
        if ws is None:
            ws = self._workspaces[n] = Workspace(self.layer_sizes, n)
        return ws

    def copy(self) -> "QNetwork":
        clone = QNetwork(self.layer_sizes)
        clone.flat[...] = self.flat
        return clone

    def parameters(self):
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b

    def flat_parameters(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        if np.shape(flat) != self.flat.shape:
            raise ValueError("flat parameter vector has the wrong length")
        self.flat[...] = flat


def _run(net: QNetwork, x: np.ndarray) -> Workspace:
    """The forward pass of an (n, in_dim) batch, written into the net's
    workspace for n: `outputs[k]` is layer k's output, ReLU'd for hidden layers."""
    ws = net.workspace(x.shape[0])
    h = x
    last = len(net.weights) - 1
    for k, (w, b, z) in enumerate(zip(net.weights, net.biases, ws.outputs)):
        np.matmul(h, w, out=z)
        np.add(z, b, out=z)
        if k < last:
            np.maximum(z, 0.0, out=z)
        h = z
    return ws


def forward(net: QNetwork, states: np.ndarray) -> np.ndarray:
    """Q values for one state vector or a batch of them, as a fresh array."""
    x = np.asarray(states, dtype=np.float64)
    if x.shape[-1] != net.in_dim:
        raise ValueError(f"state dimension {x.shape[-1]} does not match network input {net.in_dim}")
    if x.ndim == 1:
        return _run(net, x[None, :]).outputs[-1][0].copy()
    return _run(net, x).outputs[-1].copy()


def loss_and_grads(net: QNetwork, states, actions, targets):
    """Mean squared TD error over the batch and its gradient in net parameters.

    Returns (loss, grad_weights, grad_biases) with grads shaped like the net:
    views into one fresh flat gradient vector laid out like `net.flat`.
    """
    x = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.float64)
    n = x.shape[0]
    ws = _run(net, x)
    acts = [x] + ws.outputs
    q = acts[-1]
    picked = q[ws.rows, actions]
    err = picked - targets
    # The sum and the division that np.mean makes, without its Python wrapper.
    loss = float((err ** 2).sum() / n)

    # The picked values are taken, so Q's buffer takes its delta.
    dq = ws.deltas[-1]
    dq.fill(0.0)
    dq[ws.rows, actions] = 2.0 * err / n
    grads = net.split(np.empty_like(net.flat))
    grad_w = grads[0::2]
    grad_b = grads[1::2]
    for k in range(len(net.weights) - 1, -1, -1):
        delta = ws.deltas[k]
        np.matmul(acts[k].T, delta, out=grad_w[k])
        delta.sum(axis=0, out=grad_b[k])
        if k > 0:
            # ReLU'(z) as relu(z) > 0, which holds exactly when z > 0 (NaN included).
            # `below` is `acts[k]`'s buffer: the mask is taken before the
            # product overwrites the activation with its delta.
            below, mask = ws.deltas[k - 1], ws.masks[k - 1]
            np.greater(acts[k], 0.0, out=mask)
            np.matmul(delta, net.weights[k].T, out=below)
            np.multiply(below, mask, out=below)
    return loss, grad_w, grad_b


class Adam:
    """Adam optimizer state for one QNetwork; moments are flat like `net.flat`."""

    def __init__(self, net: QNetwork, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)
        self._step = np.empty_like(net.flat)
        self._scale = np.empty_like(net.flat)

    def step(self, net: QNetwork, grad_w, grad_b) -> None:
        """One update from the gradients `loss_and_grads` returns, which are
        views into one flat gradient vector; it reads that vector directly."""
        g = grad_w[0].base
        if g is None or g.shape != net.flat.shape or any(
            a.base is not g for a in (*grad_w, *grad_b)
        ):
            raise ValueError("gradients must be the views into one flat vector "
                             "that loss_and_grads returns")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        m, v, step, scale = self.m, self.v, self._step, self._scale
        # In place, with the elementwise ops and their order of
        # m += (1 - BETA1) * (g - m); v += (1 - BETA2) * (g * g - v);
        # p -= lr * (m / c1) / (sqrt(v / c2) + EPS), so results are bit-identical.
        np.subtract(g, m, out=step)
        step *= 1.0 - BETA1
        m += step
        if self.t % FLUSH_EVERY == 0:
            m[np.abs(m) < np.finfo(np.float64).tiny] = 0.0
        np.multiply(g, g, out=step)
        step -= v
        step *= 1.0 - BETA2
        v += step
        np.divide(m, c1, out=step)
        step *= self.lr
        np.divide(v, c2, out=scale)
        np.sqrt(scale, out=scale)
        scale += EPS
        step /= scale
        net.flat -= step


def soft_update(target: QNetwork, net: QNetwork, tau: float) -> None:
    """Move target parameters toward the live network: t := tau*p + (1-tau)*t."""
    if target.layer_sizes != net.layer_sizes:
        raise ValueError("architecture mismatch between target and live networks")
    target.flat *= 1.0 - tau
    target.flat += tau * net.flat
