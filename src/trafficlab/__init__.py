"""Adaptive traffic-signal control lab on a deterministic microsimulator.

The public names below resolve lazily (PEP 562): `import trafficlab` loads
nothing but this file, and the first use of a name imports its submodule.
Only `core` is pure stdlib; `env`, `qnet`, `agents`, `baselines`, `harness`
and `sim` bring in numpy. Submodules import as usual
(`from trafficlab import agents`).
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    "ClusteredProfile": "core",
    "ConflictMatrix": "core",
    "FlowDataset": "core",
    "IntersectionSpec": "core",
    "Movement": "core",
    "Phase": "core",
    "UniformProfile": "core",
    "Vehicle": "core",
    "default_intersection": "core",
    "enumerate_phases": "core",
    "generate_flow": "core",
    "load_intersection": "core",
    "split_dataset": "core",
    "two_phase_intersection": "core",
    "ActionSpace": "env",
    "TrafficEnv": "env",
    "Transition": "env",
    "decode_action": "env",
    "observe": "env",
    "reward": "env",
    "DQNAgent": "agents",
    "DQNConfig": "agents",
    "ReplayBuffer": "agents",
    "select_action": "agents",
    "train_step": "agents",
    "CutoffController": "baselines",
    "FixedTimeController": "baselines",
    "MaxIntegralController": "baselines",
    "RandomController": "baselines",
    "SotlParams": "baselines",
    "fixed_policy": "baselines",
    "random_policy": "baselines",
    "ExperimentConfig": "harness",
    "compare": "harness",
    "evaluate": "harness",
    "qvalue_sweep": "harness",
    "run_training": "harness",
    "QNetwork": "qnet",
    "forward": "qnet",
    "soft_update": "qnet",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
