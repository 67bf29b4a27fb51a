"""The console-script runs of `cli_probes`, run in process: the smoke run
that makes the workspace, then each row of the refusal-probe table. CI is
kept free of `trafficlab` runs outside the table's step, and the smoke run
runs every subcommand."""

import argparse
import re
from pathlib import Path

import cli_probes
import pytest

from trafficlab import cli

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """The workspace the smoke run made, and the subcommand of each of its
    calls."""
    ws = tmp_path_factory.mktemp("probes")
    commands = []

    def run(argv):
        commands.append(argv[0])
        return cli.main(argv)

    cli_probes.build_workspace(ws, run)
    return ws, commands


@pytest.fixture(scope="session")
def probe_workspace(smoke_run):
    return smoke_run[0]


@pytest.mark.parametrize("probe", cli_probes.PROBES, ids=lambda probe: probe.name)
def test_refusal_probe(probe, probe_workspace):
    assert cli_probes.run(probe, probe_workspace) == []


def test_probe_names_are_unique():
    names = [probe.name for probe in cli_probes.PROBES]
    assert len(set(names)) == len(names)


def workflow_steps() -> list[str]:
    """The text of each step of the workflow, split at its `- ` items, without
    comment lines."""
    text = WORKFLOW.read_text(encoding="utf-8")
    body = text.split("\n    steps:\n", 1)[1]
    code = "\n".join(line for line in body.split("\n") if not line.lstrip().startswith("#"))
    return re.split(r"\n(?=      - )", code)


def test_ci_runs_refusal_probes_only_through_the_table():
    """A step that requires an exit status of 1 from `trafficlab` belongs in
    `cli_probes` as a row; only the step that runs the table may do so."""
    steps = workflow_steps()
    table_steps = [step for step in steps if "tests/cli_probes.py" in step]
    assert len(table_steps) == 1
    refusal = re.compile(r'-eq\s+1\b|-ne\s+0\b|\|\|\s*status=|!\s*trafficlab')
    probes = [step.split("\n", 1)[0] for step in steps
              if step not in table_steps and "trafficlab" in step and refusal.search(step)]
    assert probes == []


def subcommands() -> tuple:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(action.choices)


def test_the_smoke_run_runs_every_subcommand(smoke_run):
    _, commands = smoke_run
    assert sorted(set(commands)) == sorted(subcommands())


def test_ci_runs_the_console_script_only_through_the_table():
    """A success run of `trafficlab` belongs in `cli_probes.build_workspace`,
    and a refusal in its table; only the step that runs the table runs the
    script."""
    names = "|".join(map(re.escape, subcommands()))
    invocation = re.compile(rf"\btrafficlab(\.cli)?\s+({names})\b")
    steps = workflow_steps()
    runs = [step.split("\n", 1)[0] for step in steps
            if "tests/cli_probes.py" not in step and invocation.search(step)]
    assert runs == []
