"""`core.output_file`, the one writer of output files, and every program
output written through it: a failed write leaves the earlier file as it was
and no `<name>.tmp` beside it."""

import json
import os

import pytest

from trafficlab import cli, core

EARLIER = b"an earlier output, byte for byte\r\n"


def test_makes_a_missing_parent_directory(tmp_path):
    target = tmp_path / "a" / "b" / "out.csv"
    with core.output_file(target) as fh:
        fh.write("x\n")
    assert target.read_bytes() == b"x\n"
    assert sorted(p.name for p in target.parent.iterdir()) == ["out.csv"]


def test_writes_text_as_utf8_with_no_newline_translation(tmp_path):
    target = tmp_path / "out.txt"
    with core.output_file(target) as fh:
        fh.write("é,\r\nb\n\rc")
    assert target.read_bytes() == "é,\r\nb\n\rc".encode("utf-8")


@pytest.mark.parametrize("earlier", [None, EARLIER], ids=["no-target", "earlier-target"])
def test_an_interrupted_block_leaves_no_temp_file(tmp_path, earlier):
    target = tmp_path / "out.csv"
    if earlier is not None:
        target.write_bytes(earlier)
    with pytest.raises(KeyboardInterrupt):
        with core.output_file(target) as fh:
            fh.write("half a row")
            raise KeyboardInterrupt
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if earlier is None else ["out.csv"])
    if earlier is not None:
        assert target.read_bytes() == earlier


def test_overwrites_a_stale_temp_file(tmp_path):
    target = tmp_path / "out.csv"
    (tmp_path / "out.csv.tmp").write_bytes(b"left by a killed write, and longer than the new one")
    with core.output_file(target) as fh:
        fh.write("new\n")
    assert target.read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


# The workspace the program outputs below are written from: a two-phase spec,
# a 600 s four-lane flow, a compare and a 0-epoch train config, and the
# checkpoint of that train config.
@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("ws")
    cli.main(["genspec", "--kind", "two-phase", "--out", str(ws / "spec.json")])
    cli.main(["genflow", "--profile", "uniform(rate_per_lane=0.05,n_lanes=4)", "--seed", "1",
              "--duration", "600", "--out", str(ws / "flow.json")])
    (ws / "compare.json").write_text(json.dumps(
        {"intersection": "spec.json", "flows": ["flow.json"], "controllers": ["fixed"],
         "horizon": 120}))
    (ws / "train.json").write_text(json.dumps(
        {"intersection": "spec.json", "flows": ["flow.json"], "total_epochs": 0,
         "dqn": {"batch_size": 8}}))
    cli.main(["train", "--config", str(ws / "train.json"), "--out", str(ws / "run")])
    return ws


# Each program output: its argv (`{ws}` the workspace, `{out}` the test's own
# directory) and the file the failing write is aimed at.
OUTPUTS = {
    "genspec-spec": ("genspec --kind default --out {out}/spec.json", "spec.json"),
    "genflow-flow": ("genflow --profile uniform(rate_per_lane=0.05,n_lanes=4) --seed 2 "
                     "--duration 600 --out {out}/flow.json", "flow.json"),
    "compare-csv": ("compare --config {ws}/compare.json --out {out}/compare.csv", "compare.csv"),
    "sweep-csv": ("sweep --checkpoint {ws}/run/best.npz --grid-max 2 --out {out}/sweep.csv",
                  "sweep.csv"),
    "eval-trace-csv": ("eval --checkpoint {ws}/run/best.npz --flow {ws}/flow.json --split val "
                       "--trace {out}/trace.csv", "trace.csv"),
    "train-metrics-csv": ("train --config {ws}/train.json --out {out}/run", "run/metrics.csv"),
    "train-best-npz": ("train --config {ws}/train.json --out {out}/run", "run/best.npz"),
}


@pytest.mark.parametrize("name", OUTPUTS)
def test_a_failed_write_leaves_the_earlier_output(workspace, tmp_path, monkeypatch, name):
    argv, target = OUTPUTS[name]
    target = tmp_path / target
    target.parent.mkdir(exist_ok=True)
    target.write_bytes(EARLIER)
    replace = os.replace

    # The write fails once the whole file is written, as it is renamed over
    # the target; every other rename goes through.
    def replace_that_fails(src, dst):
        if os.fspath(dst) == os.fspath(target):
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_that_fails)
    with pytest.raises(OSError, match="disk full"):
        cli.main([arg.format(ws=workspace, out=tmp_path) for arg in argv.split()])
    monkeypatch.undo()
    assert target.read_bytes() == EARLIER
    assert list(tmp_path.rglob("*.tmp")) == []
    assert list(workspace.rglob("*.tmp")) == []
