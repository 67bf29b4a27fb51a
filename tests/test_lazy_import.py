"""The package's light start-up: `import trafficlab`, `genspec` and `genflow`
load only the stdlib `core`, while every public name still resolves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trafficlab

HEAVY = ["numpy", "trafficlab.env", "trafficlab.qnet", "trafficlab.agents",
         "trafficlab.baselines", "trafficlab.harness", "trafficlab.sim"]

# Where each public name is defined, as the package used to import them eagerly.
DEFINED_IN = {
    "core": ["ClusteredProfile", "ConflictMatrix", "FlowDataset", "IntersectionSpec",
             "Movement", "Phase", "UniformProfile", "Vehicle", "default_intersection",
             "enumerate_phases", "generate_flow", "load_intersection", "split_dataset",
             "two_phase_intersection"],
    "env": ["ActionSpace", "TrafficEnv", "Transition", "decode_action", "observe", "reward"],
    "agents": ["DQNAgent", "DQNConfig", "ReplayBuffer", "select_action", "train_step"],
    "baselines": ["CutoffController", "FixedTimeController", "MaxIntegralController",
                  "RandomController", "SotlParams", "fixed_policy", "random_policy"],
    "harness": ["ExperimentConfig", "compare", "evaluate", "qvalue_sweep", "run_training"],
    "qnet": ["QNetwork", "forward", "soft_update"],
}


def loaded_modules(code: str) -> set:
    """Run `code` in a fresh interpreter and return the names of the numpy and
    trafficlab modules it left in `sys.modules`."""
    src = str(Path(trafficlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('numpy', 'trafficlab'))))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize("code", ["import trafficlab", "import trafficlab.core",
                                  "from trafficlab import cli"])
def test_importing_the_package_loads_no_heavy_module(code):
    loaded = loaded_modules(code)
    assert "trafficlab" in loaded
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))


def test_genspec_and_genflow_load_no_heavy_module(tmp_path):
    code = (
        "from trafficlab import cli\n"
        f"assert cli.main(['genspec', '--out', {str(tmp_path / 'spec.json')!r}]) == 0\n"
        "assert cli.main(['genflow', '--profile', 'uniform(rate_per_lane=0.05,n_lanes=8)',"
        f" '--seed', '1', '--duration', '300', '--out', {str(tmp_path / 'flow.json')!r}]) == 0\n"
    )
    loaded = loaded_modules(code)
    assert {"trafficlab.cli", "trafficlab.core"} <= loaded
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))
    assert (tmp_path / "spec.json").exists() and (tmp_path / "flow.json").exists()


def test_cli_greedy_controller_is_the_agents_class():
    from trafficlab import agents, cli

    assert cli.GreedyController is agents.GreedyController
    with pytest.raises(AttributeError, match="'nope'"):
        cli.nope  # noqa: B018


def test_every_public_name_is_its_submodules_object():
    assert sorted(n for names in DEFINED_IN.values() for n in names) == trafficlab.__all__
    for module, names in DEFINED_IN.items():
        sub = importlib.import_module(f"trafficlab.{module}")
        for name in names:
            assert getattr(trafficlab, name) is getattr(sub, name), name


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from trafficlab import *", namespace)
    for name in trafficlab.__all__:
        assert namespace[name] is getattr(trafficlab, name), name


def test_dir_lists_every_public_name():
    assert set(trafficlab.__all__) <= set(dir(trafficlab))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        trafficlab.nope  # noqa: B018


def test_submodules_still_import_by_name():
    from trafficlab import agents, harness

    assert agents.DQNAgent is trafficlab.DQNAgent
    assert harness.compare is trafficlab.compare
