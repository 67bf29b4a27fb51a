"""Outside-in tracer: wraps the program's public functions from the benchmark.

Nothing in the program is edited. `Tracer.install` replaces module attributes
and class methods with wrappers that record one span per call, and
`Tracer.uninstall` puts the originals back. A function imported by name into
another module (say `harness.save_checkpoint`) is replaced there too, since
every call site resolves through a module or class attribute.

Spans stay in memory as (name, start_ns, end_ns, parent) and are written out
once, when the run ends. Per-layer metrics are derived from them: self time is
a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
import time

import numpy as np

from trafficlab import agents, baselines, cli, core, env, harness, qnet, sim

# (span name, owner, attribute). The span names are the per-layer metric stems.
TARGETS = (
    ("core.load_intersection", core, "load_intersection"),
    ("core.load_flow", core, "load_flow"),
    ("core.generate_flow", core, "generate_flow"),
    ("sim.tick", sim, "tick"),
    ("sim.command_signal", sim, "command_signal"),
    ("sim.lane_metrics", sim, "lane_metrics"),
    ("sim.avg_travel_time", sim, "avg_travel_time"),
    ("env.observe", env, "observe"),
    ("env.reward", env, "reward"),
    ("env.mdp_step", env.TrafficEnv, "mdp_step"),
    ("env.smdp_step", env.TrafficEnv, "smdp_step"),
    ("baselines.FixedTimeController.decide", baselines.FixedTimeController, "decide"),
    ("baselines.RandomController.decide", baselines.RandomController, "decide"),
    ("baselines.CutoffController.decide", baselines.CutoffController, "decide"),
    ("baselines.MaxIntegralController.decide", baselines.MaxIntegralController, "decide"),
    ("qnet.forward", qnet, "forward"),  # split into .b1 and .batch by input rank
    ("qnet.loss_and_grads", qnet, "loss_and_grads"),
    ("qnet.Adam.step", qnet.Adam, "step"),
    ("qnet.soft_update", qnet, "soft_update"),
    ("agents.DQNAgent.act", agents.DQNAgent, "act"),
    ("agents.DQNAgent.observe", agents.DQNAgent, "observe"),
    ("agents.train_step", agents, "train_step"),
    ("agents.ReplayBuffer.store", agents.ReplayBuffer, "store"),
    ("agents.ReplayBuffer.sample", agents.ReplayBuffer, "sample"),
    ("agents.save_checkpoint", agents, "save_checkpoint"),
    ("agents.load_checkpoint", agents, "load_checkpoint"),
    ("harness.run_training", harness, "run_training"),
    ("harness.greedy_rollout", harness, "greedy_rollout"),
    ("harness.evaluate", harness, "evaluate"),
    ("harness.compare", harness, "compare"),
    ("harness.write_csv", harness, "write_csv"),
    ("cli.main", cli, "main"),
)

# Every span name: qnet.forward reports as two names.
SPAN_NAMES = tuple(
    name
    for target, _, _ in TARGETS
    for name in ((target + ".b1", target + ".batch") if target == "qnet.forward" else (target,))
)

# Functions whose per-call latency distribution is reported.
LATENCY_SPANS = (
    "sim.tick",
    "env.observe",
    "baselines.CutoffController.decide",
    "baselines.MaxIntegralController.decide",
    "qnet.forward.batch",
    "qnet.forward.b1",
    "qnet.loss_and_grads",
    "qnet.Adam.step",
    "agents.ReplayBuffer.sample",
)


def _program_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "trafficlab" or name.startswith("trafficlab."))]


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.spans: list = []   # (name id, start ns, end ns, parent index or -1)
        self._stack: list = []
        self.vehicle_steps = 0  # on-network vehicles summed over traced ticks
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        if name == "qnet.forward":
            b1, batch = self._ids[name + ".b1"], self._ids[name + ".batch"]

            def pick(args, kwargs):
                states = args[1] if len(args) > 1 else kwargs["states"]
                return b1 if np.ndim(states) == 1 else batch
        else:
            nid = self._ids[name]

            def pick(args, kwargs):
                return nid

        count_vehicles = name == "sim.tick"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_vehicles:
                self.vehicle_steps += sum(map(len, args[0].lanes))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (pick(args, kwargs), start, end, parent)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _program_modules()
        for name, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_ns", "end_ns", "parent"))
            for k, (nid, start, end, parent) in enumerate(self.spans):
                writer.writerow((k, self.names[nid], start, end, parent))

    def layer_metrics(self) -> dict:
        """calls and self_s for every span name, p50_us/p99_us for the
        latency spans, plus the derived vehicle-step and observe ratios."""
        n = len(self.names)
        calls = [0] * n
        self_ns = [0] * n
        child_ns = [0] * len(self.spans)
        for k, (nid, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
        durations = {name: [] for name in LATENCY_SPANS}
        for k, (nid, start, end, parent) in enumerate(self.spans):
            calls[nid] += 1
            self_ns[nid] += (end - start) - child_ns[k]
            name = self.names[nid]
            if name in durations:
                durations[name].append(end - start)

        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.self_s"] = (self_ns[nid] / 1e9, "s")
            if name in durations:
                out[f"{name}.p50_us"] = (percentile(durations[name], 50) / 1e3, "us")
                out[f"{name}.p99_us"] = (percentile(durations[name], 99) / 1e3, "us")
        tick_ns = self_ns[self._ids["sim.tick"]]
        out["sim.vehicle_steps"] = (self.vehicle_steps, "count")
        out["sim.tick.ns_per_vehicle_step"] = (
            tick_ns / self.vehicle_steps if self.vehicle_steps else 0.0, "ns")
        transitions = calls[self._ids["env.mdp_step"]] + calls[self._ids["env.smdp_step"]]
        observes = calls[self._ids["env.observe"]]
        out["env.observe.per_transition"] = (
            observes / transitions if transitions else 0.0, "ratio")
        return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])
