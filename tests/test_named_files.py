"""A spec, flow or config file that is refused as it is read is named.

Every reader of an input file goes through `core.read_document`, which puts
the file after the reader's message: `compare`, `train` and `eval` refuse a
file cut short, a file that is not UTF-8 and a field out of range by a
ValueError naming the file, before any tick, leaving no output.

The property cuts a small valid flow file at a drawn byte, or overwrites one
drawn byte, and runs `compare`, `train` and `eval --flow` on it: each either
succeeds or refuses the input by its file or by the flow's label, before any
tick and with no output left behind.
"""

import contextlib
import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficlab import cli, core, sim

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A two-phase spec, a valid 60 s flow file and a 0-epoch checkpoint."""
    root = tmp_path_factory.mktemp("inputs")
    cli.main(["genspec", "--kind", "two-phase", "--lane-length", "150",
              "--out", str(root / "spec.json")])
    cli.main(["genflow", "--profile", "uniform(rate_per_lane=0.1,n_lanes=4)", "--seed", "1",
              "--duration", "60", "--out", str(root / "flow.json")])
    (root / "train.json").write_text(json.dumps(
        {"intersection": "spec.json", "flows": ["flow.json"], "total_epochs": 0}))
    cli.main(["train", "--config", str(root / "train.json"), "--out", str(root / "run")])
    return root


@contextlib.contextmanager
def counted_ticks():
    """The clocks at which `sim.tick` ran inside the block."""
    clocks = []
    tick = sim.tick

    def counting(state):
        clocks.append(state.clock)
        tick(state)

    with mock.patch.object(sim, "tick", counting):
        yield clocks


def refused(argv, path, message):
    """Run `argv`, which must raise the ValueError `message` followed by the
    file at `path`, before any tick."""
    with counted_ticks() as clocks, pytest.raises(ValueError) as excinfo:
        cli.main(argv)
    assert str(excinfo.value) == f"{message} (in {path})"
    assert clocks == []


def decode_error(data: bytes) -> str:
    """What reading `data` as UTF-8 JSON raises, as text."""
    with pytest.raises(ValueError) as excinfo:
        json.loads(data.decode("utf-8"))
    return str(excinfo.value)


def write_config(directory, flows, **fields):
    path = directory / "config.json"
    path.write_text(json.dumps({"intersection": "spec.json", "flows": flows,
                                "controllers": ["fixed"], **fields}))
    return path


def test_compare_names_a_second_flow_cut_mid_document(inputs, tmp_path):
    data = (inputs / "flow.json").read_bytes()
    (tmp_path / "spec.json").write_text((inputs / "spec.json").read_text())
    (tmp_path / "a.json").write_bytes(data)
    (tmp_path / "b.json").write_bytes(data[:33])
    config = write_config(tmp_path, ["a.json", "b.json"])
    out = tmp_path / "compare.csv"
    # it used to end in a bare JSONDecodeError naming no file
    refused(["compare", "--config", str(config), "--out", str(out)], tmp_path / "b.json",
            f"malformed flow document: {decode_error(data[:33])}")
    assert not out.exists()


def test_compare_names_a_second_flow_with_a_negative_spawn_time(inputs, tmp_path):
    doc = json.loads((inputs / "flow.json").read_text())
    doc["vehicles"][0]["spawn_time_s"] = -3
    (tmp_path / "spec.json").write_text((inputs / "spec.json").read_text())
    (tmp_path / "a.json").write_text((inputs / "flow.json").read_text())
    (tmp_path / "b.json").write_text(json.dumps(doc))
    config = write_config(tmp_path, ["a.json", "b.json"])
    out = tmp_path / "compare.csv"
    refused(["compare", "--config", str(config), "--out", str(out)], tmp_path / "b.json",
            "vehicles[0].spawn_time_s must be non-negative, got -3")
    assert not out.exists()


@pytest.mark.parametrize("content, prefix", [
    pytest.param(lambda data: data[:200], "malformed flow document: ", id="cut-at-200"),
    pytest.param(lambda data: b"\xff\xfe" + data, "", id="utf-16-mark"),
])
def test_eval_names_an_unreadable_flow(inputs, tmp_path, content, prefix):
    # each used to end in a bare JSONDecodeError or UnicodeDecodeError
    data = content((inputs / "flow.json").read_bytes())
    flow = tmp_path / "flow.json"
    flow.write_bytes(data)
    trace = tmp_path / "trace.csv"
    refused(["eval", "--checkpoint", str(inputs / "run" / "best.npz"), "--flow", str(flow),
             "--split", "val", "--trace", str(trace)], flow, prefix + decode_error(data))
    assert not trace.exists()


def test_train_and_eval_name_a_spec_cut_short(inputs, tmp_path):
    # the reader's refusal used to name no file
    data = (inputs / "spec.json").read_bytes()[:100]
    spec = tmp_path / "spec.json"
    spec.write_bytes(data)
    (tmp_path / "flow.json").write_text((inputs / "flow.json").read_text())
    config = write_config(tmp_path, ["flow.json"], total_epochs=0)
    message = f"malformed intersection document: {decode_error(data)}"
    run = tmp_path / "run"
    refused(["train", "--config", str(config), "--out", str(run)], spec, message)
    assert not run.exists()
    trace = tmp_path / "trace.csv"
    refused(["eval", "--checkpoint", str(inputs / "run" / "best.npz"),
             "--flow", str(tmp_path / "flow.json"), "--split", "val", "--spec", str(spec),
             "--trace", str(trace)], spec, message)
    assert not trace.exists()


@pytest.mark.parametrize("command", ["compare", "train"])
def test_a_config_cut_short_is_named(inputs, tmp_path, command):
    # it used to end in a bare JSONDecodeError
    config = write_config(tmp_path, [str(inputs / "flow.json")], total_epochs=0)
    data = config.read_bytes()[:30]
    config.write_bytes(data)
    out = tmp_path / "out"
    refused([command, "--config", str(config), "--out", str(out)], config, decode_error(data))
    assert not out.exists()


def test_a_config_field_keeps_its_own_message(inputs, tmp_path):
    config = write_config(tmp_path, "flow.json")
    with pytest.raises(ValueError, match=r"^flows must be a list of flow document paths, "
                                         r"got 'flow\.json'$"):
        cli.main(["compare", "--config", str(config), "--out", str(tmp_path / "out.csv")])


def test_read_document_chains_the_parsers_refusal(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{")
    message = rf"^malformed flow document: .* \(in {re.escape(str(path))}\)$"
    with pytest.raises(ValueError, match=message) as excinfo:
        core.read_document(path, core.load_flow)
    cause = excinfo.value.__cause__
    assert str(cause).startswith("malformed flow document: ")
    assert isinstance(cause.__cause__, json.JSONDecodeError)
    with pytest.raises(FileNotFoundError):
        core.read_document(tmp_path / "missing.json", core.load_flow)


def test_load_flow_refuses_text_that_is_not_json():
    with pytest.raises(ValueError, match=r"^malformed flow document: Expecting value: "
                                         r"line 1 column 1 \(char 0\)$") as excinfo:
        core.load_flow("not json")
    assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_every_command_reading_a_mutated_flow_runs_or_names_it(inputs, tmp_path_factory, data):
    original = (inputs / "flow.json").read_bytes()
    if data.draw(st.booleans(), label="cut"):
        mutated = original[:data.draw(st.integers(0, len(original) - 1), label="length")]
    else:
        # A digit put in place of a digit leaves a document that loads, as a
        # different flow: a vehicle may change its movement, id or spawn time.
        digits = [k for k, byte in enumerate(original) if chr(byte).isdigit()]
        k = data.draw(st.sampled_from(digits) | st.integers(0, len(original) - 1),
                      label="position")
        byte = data.draw(st.sampled_from(b"0123456789") | st.integers(0, 255), label="byte")
        mutated = original[:k] + bytes([byte]) + original[k + 1:]
    work = tmp_path_factory.mktemp("mutated")
    (work / "spec.json").write_text((inputs / "spec.json").read_text())
    flow = work / "flow.json"
    flow.write_bytes(mutated)
    config = write_config(work, ["flow.json"], total_epochs=0)
    compare_out, run, trace = work / "compare.csv", work / "run", work / "trace.csv"
    commands = [
        (["compare", "--config", str(config), "--out", str(compare_out)], compare_out),
        (["train", "--config", str(config), "--out", str(run)], run),
        (["eval", "--checkpoint", str(inputs / "run" / "best.npz"), "--flow", str(flow),
          "--split", "val", "--trace", str(trace)], trace),
    ]
    for argv, output in commands:
        with counted_ticks() as clocks:
            try:
                assert cli.main(argv) == 0
            except ValueError as exc:
                message = str(exc)
                assert str(flow) in message or "flow '" in message, (argv[0], message)
                assert clocks == [], (argv[0], message)
                assert not output.exists(), (argv[0], message)
            else:
                assert output.exists()
