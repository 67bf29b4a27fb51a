"""The refusal-probe table of `cli_probes`, run in process, and CI kept free
of refusal probes outside it."""

import re
from pathlib import Path

import cli_probes
import pytest

from trafficlab import cli

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


@pytest.fixture(scope="session")
def probe_workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("probes")
    cli_probes.build_workspace(ws, cli.main)
    return ws


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
