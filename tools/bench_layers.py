#!/usr/bin/env python3
"""Per-layer A/B timings of a head revision against a base revision.

    python3 tools/bench_layers.py --base HEAD~1 --rounds 25 --out BENCH-layers.json

`--base`, `--head`, `--out`, their refusals and the checkouts are those
of `tools/bench_pairs.py`. One child process per tree imports that tree's
`trafficlab` (`PYTHONPATH=<tree>/src`, one BLAS thread) and builds every
layer below from the same seeds. Each round, both children rebuild every
layer, each behind a pad whose size the round seeds (see `build_layers`),
then time every layer in turn: `REPEATS` runs of `number` calls each, the
two children taking turns run by run, and the child that goes first
alternates from run to run and from round to round, so both sides sample
the same stretches of a busy host. A side's time for the round is its
fastest run.

The layers are aim 1's: `qnet.forward` at batch 1 and 32 on the 40-64-64-8
net of train-grid-mdp and at batch 512 on the 14-64-64-2 net of train-toy;
`agents.td_targets` (a target-net `forward`) plus `loss_and_grads`,
`Adam.step`, `soft_update` and `ReplayBuffer.sample` at batch 32
(40-64-64-8) and batch 512 (14-64-64-2); and `sim.tick` over the first 600 s
of a seeded saturated 8-lane half, with a fresh `sim.init` per run and a
phase change every 30 s.

The JSON written to `--out` holds, per layer, the time per call of each
side (median and quartiles of the round minimums, in µs), the median of the
per-round ratios head / base, the rounds the head won, `bench_pairs`'
verdict, and whether both trees returned identical outputs: a digest of
what the layer returned (or left in its state) on a fresh seeded run, taken
at every build, which must be the same in every round on both sides. The
exit status is 1 if any layer's outputs differ.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
sys.path[:0] = [str(TOOLS), str(TOOLS.parent)]
import bench_pairs  # noqa: E402

# Runs per side, per layer, per round; a round keeps each side's fastest.
REPEATS = 10
TICKS = 600
# (in_dim, n_actions) of train-grid-mdp's and train-toy's nets.
GRID_NET, TOY_NET = (40, 8), (14, 2)
# A layer's time as `bench_pairs.summarize` reads it: only differing outputs fail a run.
LAYER_METRIC = {"unit": "us", "better": "lower", "bound": float("inf")}
VERDICTS = {"better": "faster", "worse within bound": "slower"}


def _digest(values) -> str:
    """A SHA-256 of arrays (their dtype, shape and bytes) and other values (repr)."""
    h = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _timed(call):
    """`run(number)`: the seconds per call of `number` calls of `call`."""
    def run(number: int) -> float:
        start = time.perf_counter()
        for _ in range(number):
            call()
        return (time.perf_counter() - start) / number
    return run


def _nets(dims, seed: int):
    from trafficlab import qnet

    rng = np.random.default_rng(seed)
    net = qnet.QNetwork.build(dims[0], dims[1], rng)
    target = qnet.QNetwork.build(dims[0], dims[1], rng)
    return net, target, rng


def forward_layer(dims, n: int):
    from trafficlab import qnet

    net, _, rng = _nets(dims, 1)
    x = rng.normal(size=dims[0]) if n == 1 else rng.normal(size=(n, dims[0]))
    return _timed(lambda: qnet.forward(net, x)), [qnet.forward(net, x)]


def loss_layer(dims, n: int):
    """The TD targets (a target-net forward), then `loss_and_grads` of the
    live net, as `agents.train_step` runs them."""
    from trafficlab import qnet
    from trafficlab.agents import td_targets

    net, target, rng = _nets(dims, 2)
    states, next_states = rng.normal(size=(2, n, dims[0]))
    actions = rng.integers(0, dims[1], size=n)
    rewards = rng.normal(size=n)
    durations = rng.integers(1, 7, size=n)
    terminals = rng.random(size=n) < 0.01

    def call():
        targets = td_targets(target, rewards, next_states, durations, terminals, 0.99)
        return targets, qnet.loss_and_grads(net, states, actions, targets)

    targets, (loss, grad_w, _) = call()
    return _timed(call), [targets, loss, grad_w[0].base]


def adam_layer(dims, n: int):
    from trafficlab import qnet

    net, _, rng = _nets(dims, 3)
    states = rng.normal(size=(n, dims[0]))
    _, grad_w, grad_b = qnet.loss_and_grads(net, states, rng.integers(0, dims[1], size=n),
                                            rng.normal(size=n))
    opt = qnet.Adam(net)
    call = lambda: opt.step(net, grad_w, grad_b)  # noqa: E731
    for _ in range(3):
        call()
    return _timed(call), [net.flat, opt.m, opt.v, opt.t]


def soft_update_layer(dims, n: int):
    from trafficlab import qnet

    net, target, _ = _nets(dims, 4)
    call = lambda: qnet.soft_update(target, net, 1e-3)  # noqa: E731
    for _ in range(3):
        call()
    return _timed(call), [target.flat]


def sample_layer(dims, n: int):
    """`ReplayBuffer.sample` from a buffer holding 4,096 seeded transitions."""
    from trafficlab.agents import ReplayBuffer
    from trafficlab.env import Transition

    rng = np.random.default_rng(5)
    replay = ReplayBuffer(capacity=4096)
    for _ in range(replay.capacity):
        state, next_state = rng.normal(size=(2, dims[0]))
        replay.store(Transition(state, int(rng.integers(dims[1])), float(rng.normal()),
                                next_state, int(rng.integers(1, 7)), bool(rng.random() < 0.01)))
    outputs = list(replay.sample(n, np.random.default_rng(6)))
    return _timed(lambda: replay.sample(n, rng)), outputs


def tick_layer():
    """`sim.tick` over the first TICKS s of the first half of a saturated
    8-lane flow, the phase moving on every 30 s; the time is per tick."""
    from perfbench.workloads import SATURATED_PROFILE
    from trafficlab import core, sim

    spec = core.default_intersection(lane_length_m=300.0)  # compare-grid's spec
    half, _ = core.split_halves(core.generate_flow(core.parse_profile(SATURATED_PROFILE),
                                                   seed=3003, duration=3600))
    n_phases = len(spec.lane_green)

    def episode():
        state = sim.init(spec, half)
        start = time.perf_counter()
        for t in range(TICKS):
            if t % 30 == 29:
                sim.command_signal(state, (state.signal.current_phase + 1) % n_phases)
            sim.tick(state)
        return state, time.perf_counter() - start

    def run(number: int) -> float:
        return sum(episode()[1] for _ in range(number)) / (number * TICKS)

    state, _ = episode()
    return run, [state.clock, state.spawned, state.completed, sim.trajectory_rows(state)]


# (name, calls per run, builder, its arguments). A builder returns
# `(run, outputs)`: `run(number)` is the seconds per call of `number` calls,
# and `outputs` what a fresh seeded run returned.
LAYERS = (
    ("forward.b1", 200, forward_layer, (GRID_NET, 1)),
    ("forward.b32", 100, forward_layer, (GRID_NET, 32)),
    ("forward.b512", 20, forward_layer, (TOY_NET, 512)),
    ("td_targets+loss_and_grads.b32", 20, loss_layer, (GRID_NET, 32)),
    ("td_targets+loss_and_grads.b512", 5, loss_layer, (TOY_NET, 512)),
    ("Adam.step.b32", 40, adam_layer, (GRID_NET, 32)),
    ("Adam.step.b512", 40, adam_layer, (TOY_NET, 512)),
    ("soft_update.b32", 200, soft_update_layer, (GRID_NET, 32)),
    ("soft_update.b512", 200, soft_update_layer, (TOY_NET, 512)),
    ("ReplayBuffer.sample.b32", 100, sample_layer, (GRID_NET, 32)),
    ("ReplayBuffer.sample.b512", 40, sample_layer, (TOY_NET, 512)),
    ("sim.tick", 1, tick_layer, ()),
)


def build_layers(seed: int) -> dict:
    """name -> (number, run, digest, pad) for every layer, in the importing
    tree. Each layer is built behind a live pad of seeded random size (under
    64 KiB). Where a layer's arrays fall in memory moves the small vector
    layers by up to a fifth (`Adam.step` at 5,250 parameters took 34-40 µs
    over ten pads), and it would otherwise be fixed by whatever the tree
    allocated before; with the pads each round draws it afresh, alike on
    both sides."""
    sizes = np.random.default_rng(seed).integers(0, 1 << 16, size=len(LAYERS))
    layers = {}
    for (name, number, build, args), size in zip(LAYERS, sizes):
        pad = np.empty(size, dtype=np.uint8)
        run, outputs = build(*args)
        layers[name] = (number, run, _digest(outputs), pad)
    return layers


def environment() -> dict:
    import trafficlab

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "trafficlab": str(Path(trafficlab.__file__).resolve().parent),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def serve(stdin=sys.stdin, stdout=sys.stdout) -> None:
    """The child: one line with its environment, then one reply line per
    request line. `build <seed>` (re)builds every layer and replies with each
    layer's digest; a layer's name replies with one run's seconds per call."""
    print(json.dumps(environment()), file=stdout, flush=True)
    layers = {}
    for line in stdin:
        word, _, seed = line.strip().partition(" ")
        if word == "build":
            layers = build_layers(int(seed))
            reply = {name: digest for name, (_, _, digest, _) in layers.items()}
        else:
            number, run, *_ = layers[word]
            gc.disable()
            try:
                reply = run(number)
            finally:
                gc.enable()
        print(json.dumps(reply), file=stdout, flush=True)


class Child:
    """A `serve` process importing the `trafficlab` of one tree."""

    def __init__(self, tree: Path):
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); " \
               "import bench_layers; bench_layers.serve()"
        self.proc = subprocess.Popen([sys.executable, "-c", code], cwd=tree, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.environment = self._read()
            where = Path(self.environment["trafficlab"])
            if where != (tree / "src" / "trafficlab").resolve():
                raise RuntimeError(f"the child for {tree} imported trafficlab from {where}")
        except BaseException:
            self.close()
            raise

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child exited with status {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request: str):
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def summarize(base: list[float], head: list[float]) -> dict:
    """One layer's round minimums, in seconds per call, as µs read by
    `bench_pairs.summarize` ("faster" for its "better", "slower" for its
    "worse within bound"), and the median of the per-round ratios head / base."""
    m = bench_pairs.summarize(LAYER_METRIC, [t * 1e6 for t in base], [t * 1e6 for t in head])
    return {
        "unit": m["unit"], "base_median": m["base_median"], "head_median": m["head_median"],
        "base_quartiles": m["base_quartiles"], "head_quartiles": m["head_quartiles"],
        "wins": m["wins"], "rounds": m["pairs"], "gain": m["gain"], "base_iqr": m["base_iqr"],
        "median_ratio": statistics.median(h / b for b, h in zip(base, head)),
        "verdict": VERDICTS.get(m["verdict"], m["verdict"]),
    }


def measure(trees: dict, rounds: int) -> dict:
    """Both sides' round minimums for every layer, and the layer reports."""
    children = {}
    try:
        for side, tree in trees.items():
            children[side] = Child(tree)
        minimums = {name: {side: [] for side in trees} for name, *_ in LAYERS}
        digests = {side: [] for side in trees}
        sides = list(trees)
        for k in range(rounds):
            for side in sides:
                digests[side].append(children[side].ask(f"build {k}"))
            for name in minimums:
                best = dict.fromkeys(sides, float("inf"))
                for r in range(REPEATS):
                    for side in sides if (k + r) % 2 == 0 else sides[::-1]:
                        best[side] = min(best[side], children[side].ask(name))
                for side in sides:
                    minimums[name][side].append(best[side])
            print(f"round {k + 1}/{rounds}", file=sys.stderr)
    finally:
        for child in children.values():
            child.close()
    layers = {}
    for name, number, *_ in LAYERS:
        layers[name] = summarize(minimums[name]["base"], minimums[name]["head"])
        layers[name].update(
            number=number, repeats=REPEATS,
            identical=len({d[name] for side in sides for d in digests[side]}) == 1,
            base_minimums_us=[t * 1e6 for t in minimums[name]["base"]],
            head_minimums_us=[t * 1e6 for t in minimums[name]["head"]])
    environments = {side: child.environment for side, child in children.items()}
    return {"environment": environments, "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rounds", type=int, default=25, help="interleaved rounds (default 25)")
    args, report = bench_pairs.parse_args(parser, argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    report["rounds"] = args.rounds
    with bench_pairs.checkouts(args.base, args.head) as (base, head):
        report.update(measure({"base": base, "head": head}, args.rounds))
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, m in report["layers"].items():
        print(f"{name}: {m['base_median']:.2f} -> {m['head_median']:.2f} us, "
              f"ratio {m['median_ratio']:.3f}, won {m['wins']}/{m['rounds']}, {m['verdict']}, "
              f"outputs {'identical' if m['identical'] else 'DIFFERENT'}")
    return int(not all(m["identical"] for m in report["layers"].values()))


if __name__ == "__main__":
    sys.exit(main())
