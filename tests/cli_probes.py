"""The console-script runs: one smoke run and one table of refusal probes,
run in process and through the script.

`build_workspace` is the smoke run. It runs every subcommand on small inputs,
each call within the 30 s timeout, checks each output and raises on the first
that is wrong. What it writes is the workspace that every row reads.

Each row is one `trafficlab` invocation that must be refused: exit status 1,
stderr holding each of the row's fragments, none of its `absent` paths, and
no new file anywhere in the workspace. A row writes its own input files on
top of the workspace, which is made once per session. "{ws}" in an argv, a
fragment or an input stands for the workspace directory.

Both run in two ways:
- `tests/test_cli_probes.py` makes the workspace in process through
  `cli.main`, and runs each row the same way, where exit status 1 means a
  raised `ValueError`. A row with a timeout or an address-space cap runs as a
  `python -m trafficlab.cli` child under them.
- `python tests/cli_probes.py` makes the workspace and runs every row through
  the installed `trafficlab` script, each smoke call under the timeout and
  capped rows under their caps, and exits 1 if the smoke run or any row
  fails.

Adding a smoke check means adding it to `build_workspace`, and adding a probe
means adding a row here; both ways then run it.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# `timeout 30` and `ulimit -v 1048576` (1 GiB): the caps of a row whose
# refusal stands in for a run that used to go on until killed.
TIMEOUT_S = 30
CAPS = dict(timeout_s=TIMEOUT_S, vmem_kib=1 << 20)
PYTHON_CLI = (sys.executable, "-m", "trafficlab.cli")


@dataclass(frozen=True)
class Probe:
    name: str
    argv: str                 # split as a shell would split it
    stderr: tuple             # each a literal fragment or a compiled regex
    # Input file name -> its JSON document, or a function of the workspace
    # that gives its bytes.
    files: dict = field(default_factory=dict)
    absent: tuple = ()        # workspace paths that must not exist afterwards
    timeout_s: int | None = None
    vmem_kib: int | None = None

    @property
    def capped(self) -> bool:
        return self.timeout_s is not None or self.vmem_kib is not None


def head(name: str, size: int):
    """The first `size` bytes of a workspace file, as `head -c` gives them."""
    return lambda ws: (ws / name).read_bytes()[:size]


def edited(name: str, edit):
    """A workspace JSON document with `edit` applied to it in place."""
    def make(ws):
        doc = json.loads((ws / name).read_text(encoding="utf-8"))
        edit(doc)
        return json.dumps(doc).encode("utf-8")
    return make


def compare_config(*flows: str) -> dict:
    return {"intersection": "spec.json", "flows": list(flows), "controllers": ["fixed"]}


def config_probe(fields: dict) -> dict:
    return {"probe.json": {"intersection": "spec.json", **fields, "total_epochs": 0}}


UNIFORM_8 = "'uniform(rate_per_lane=0.05,n_lanes=8)'"
VEHICLE = {"id": 0, "spawn_time_s": 0, "movement": 0}

PROBES = (
    # A flow file cut short is refused as a malformed flow document that
    # names the file; it used to end in a bare JSONDecodeError.
    Probe("cut-flow", "compare --config {ws}/cut-config.json --out {ws}/cut-flow.csv",
          ("ValueError: malformed flow document", "(in {ws}/cut-flow.json)"),
          files={"cut-flow.json": head("flow.json", 200),
                 "cut-config.json": compare_config("cut-flow.json")},
          absent=("cut-flow.csv",)),
    # With an infinite rate the arrival clock never advances: genflow used to
    # run until killed, and the address-space cap stops such a run short.
    Probe("genflow-infinite-rate",
          "genflow --profile 'uniform(rate_per_lane=inf,n_lanes=8)' --seed 1 --duration 60 "
          "--out {ws}/bad.json",
          ("ValueError: rate_per_lane must be non-negative and finite",),
          absent=("bad.json",), **CAPS),
    # A profile that may yield more than the cap of 10^6 vehicles is refused
    # before any is generated; each used to run until the timeout.
    *(Probe(f"genflow-cap-{name}",
            f"genflow --profile '{profile}' --seed 1 --duration 60 --out {{ws}}/big.json",
            (re.compile(r"ValueError: .* above the cap of 1000000 vehicles"),),
            absent=("big.json",), **CAPS)
      for name, profile in (
          ("uniform", "uniform(rate_per_lane=1e9,n_lanes=8)"),
          ("clustered", "clustered(cluster_size=5,inter_cluster_gap=1e-9,within_gap=2,"
                        "lane_weights=1:1)"))),
    # A checkpoint cut short is refused by the checkpoint reader, naming the
    # file; it used to end in zipfile's BadZipFile.
    Probe("eval-cut-checkpoint",
          "eval --checkpoint {ws}/cut.npz --flow {ws}/flow.json --split test",
          ("ValueError: checkpoint {ws}/cut.npz is not a readable npz file",),
          files={"cut.npz": head("run/best.npz", 3000)}),
    # A replay capacity below the warmup (2 x batch_size) is refused before
    # the first transition: no update ever ran, and train ran until killed.
    Probe("train-small-replay",
          "train --config {ws}/small-replay.json --out {ws}/run-small",
          ("ValueError: replay_capacity 100 is below the warmup of 128",),
          files={"small-replay.json": {
              "intersection": "spec.json", "flows": ["flow.json"], "total_epochs": 1,
              "dqn": {"batch_size": 64, "replay_capacity": 100}}},
          timeout_s=TIMEOUT_S),
    # A config field of the wrong kind is refused when the config loads,
    # naming the field. A "flows" string used to be read one path per
    # character, and an unknown variant failed only after the flows were
    # built. A repeated controller would give compare rows that cannot be
    # told apart, and the run's one seed is the top-level "seed".
    *(Probe(f"config-{name}", "train --config {ws}/probe.json --out {ws}/run-probe",
            (f"ValueError: {message}",), files=config_probe(fields), absent=("run-probe",))
      for name, message, fields in (
          ("flows-string", "flows must be", {"flows": "flow.json"}),
          ("variant", "variant must be", {"flows": ["flow.json"], "variant": "bogus"}),
          ("repeated-controller", "repeated controllers entry 'fixed'",
           {"flows": ["flow.json"], "controllers": ["fixed", "fixed"]}),
          ("dqn-seed", "unknown dqn key(s) 'seed'", {"flows": ["flow.json"],
                                                     "dqn": {"seed": 3}}))),
    # A flow longer than the cap of 10^6 s is refused by its duration_s;
    # compare used to tick through it until killed.
    Probe("compare-endless-flow",
          "compare --config {ws}/endless-config.json --out {ws}/endless.csv",
          ("ValueError: duration_s must be at most 1000000,",),
          files={"endless.json": {"duration_s": 1000000000000, "label": "endless",
                                  "vehicles": [VEHICLE]},
                 "endless-config.json": compare_config("endless.json")},
          absent=("endless.csv",), timeout_s=TIMEOUT_S),
    # A flow document has no body length, so a vehicle that gives one is
    # refused by its index; the value used to be dropped without a word.
    Probe("compare-body-length", "compare --config {ws}/long-config.json --out {ws}/long.csv",
          ("ValueError: unknown vehicles[0] key(s) 'body_length'",),
          files={"long.json": edited("flow.json",
                                     lambda doc: doc["vehicles"][0].update(body_length=12.0)),
                 "long-config.json": compare_config("long.json")},
          absent=("long.csv",)),
    # A lane length given as a string is refused by its path; float() used
    # to read "300" as 300.
    Probe("compare-text-lane-length",
          "compare --config {ws}/text-config.json --out {ws}/text.csv",
          ("lanes[0].length_m",),
          files={"text-spec.json": edited("spec.json",
                                          lambda doc: doc["lanes"][0].update(length_m="300")),
                 "text-config.json": {"intersection": "text-spec.json", "flows": ["flow.json"],
                                      "controllers": ["fixed"]}}),
    # Past the larger capacity of the two swept lanes (40 on these 300 m
    # lanes) every row repeats the capacity row, so a larger grid is refused.
    # The grid is O(grid_max^2) cells: one of 10^6 used to run until killed.
    *(Probe(f"sweep-grid-{grid_max}",
            f"sweep --checkpoint {{ws}}/run-sweep/best.npz --grid-max {grid_max} "
            "--out {ws}/sweep-big.csv",
            (f"ValueError: grid_max {grid_max} is above 40, the larger lane capacity of "
             "lanes (0, 1)",),
            absent=("sweep-big.csv",), **CAPS)
      for grid_max in (41, 1000000)),
    # A flow too short to split into halves is refused by its label before
    # any episode; the refusal used to name no flow.
    Probe("compare-blip-flow", "compare --config {ws}/blip-config.json --out {ws}/blip.csv",
          ("ValueError: flow 'blip' lasts 1 s",),
          files={"blip.json": {"duration_s": 1, "label": "blip", "vehicles": []},
                 "blip-config.json": compare_config("blip.json")},
          absent=("blip.csv",)),
    # A training flow of 0 s is refused by its label before anything is
    # written; train used to write its first validation and end in a bare
    # RuntimeError from the episode's step.
    Probe("train-zero-flow", "train --config {ws}/zero-config.json --out {ws}/run-zero",
          ("ValueError: flow 'zero': the episode horizon must be at least 1 s",),
          files={"zero.json": {"duration_s": 0, "label": "zero", "vehicles": []},
                 "zero-config.json": {"intersection": "spec.json",
                                      "flows": ["zero.json", "flow.json"],
                                      "total_epochs": 1, "dqn": {"batch_size": 8}}},
          absent=("run-zero",)),
    # genflow refuses a duration too short to split into halves, as a
    # flow_profiles entry does; it used to write a flow of 0 vehicles.
    Probe("genflow-short-duration",
          f"genflow --profile {UNIFORM_8} --seed 1 --duration 1 --out {{ws}}/short.json",
          ("ValueError: duration must be at least 2, got 1",),
          absent=("short.json",)),
    # random.Random(-s) is random.Random(s), so a negative seed is refused by
    # name; seed -5 used to write the flow of seed 5.
    Probe("genflow-negative-seed",
          f"genflow --profile {UNIFORM_8} --seed -5 --duration 600 --out {{ws}}/negative.json",
          ("ValueError: seed must be non-negative, got -5",),
          absent=("negative.json",)),
    # compare refuses a negative seed before it reads any file, whichever
    # controllers are listed; with only "fixed" it used to run.
    Probe("compare-negative-seed",
          "compare --config {ws}/negative-seed-config.json --out {ws}/negative-seed.csv",
          ("ValueError: seed must be non-negative, got -1",),
          files={"negative-seed-config.json": dict(compare_config("flow.json"), seed=-1)},
          absent=("negative-seed.csv",)),
    # compare refuses a config that names no controllers before it reads any
    # file, as it refuses one that names no flows; it used to read them all
    # and write a header-only CSV.
    Probe("compare-no-controllers",
          "compare --config {ws}/no-controllers-config.json --out {ws}/no-controllers.csv",
          ("ValueError: config names no controllers",),
          files={"no-controllers-config.json": dict(compare_config("flow.json"), controllers=[])},
          absent=("no-controllers.csv",)),
    # An episode in which no vehicle spawns is refused by its half's label
    # before any episode. A holdout whose vehicle spawns in its second half
    # has no validation trip: train used to leave a run directory holding only
    # the metrics.csv header. A flow whose vehicle spawns in its first half
    # has no test trip: compare used to run the val episode, then end in an
    # unnamed "empty flow".
    Probe("train-empty-val-half", "train --config {ws}/back-config.json --out {ws}/run-back",
          ("empty flow 'back/val': no vehicle spawns before 50 s",),
          files={"back.json": {"duration_s": 100, "label": "back",
                               "vehicles": [dict(VEHICLE, spawn_time_s=60)]},
                 "back-config.json": {"intersection": "spec.json",
                                      "flows": ["back.json", "flow.json"], "holdout_index": 0,
                                      "total_epochs": 1, "dqn": {"batch_size": 8}}},
          absent=("run-back",)),
    Probe("compare-empty-test-half",
          "compare --config {ws}/front-config.json --out {ws}/front.csv",
          ("empty flow 'front/test': no vehicle spawns before 50 s",),
          files={"front.json": {"duration_s": 100, "label": "front", "vehicles": [VEHICLE]},
                 "front-config.json": compare_config("front.json")},
          absent=("front.csv",)),
    # An output path that cannot be written (an existing directory given as
    # a file, a file given as a directory, a path under a file) is refused
    # by its flag before any work. Each used to end in a bare
    # IsADirectoryError or FileExistsError, most after all of the work.
    Probe("compare-out-directory", "compare --config {ws}/out-config.json --out {ws}/run",
          ("ValueError: --out {ws}/run cannot be written: it is a directory",),
          files={"out-config.json": compare_config("flow.json")}),
    Probe("compare-out-under-file",
          "compare --config {ws}/out-config.json --out {ws}/flow.json/x.csv",
          ("ValueError: --out {ws}/flow.json/x.csv cannot be written: {ws}/flow.json is a file",),
          files={"out-config.json": compare_config("flow.json")}),
    Probe("train-out-file", "train --config {ws}/train.json --out {ws}/flow.json",
          ("ValueError: --out {ws}/flow.json cannot be written: it is a file",)),
    Probe("train-out-dir-file", "train --config {ws}/out-dir-config.json",
          ("ValueError: out_dir {ws}/flow.json cannot be written: it is a file",),
          files={"out-dir-config.json": {"intersection": "spec.json", "flows": ["flow.json"],
                                         "total_epochs": 0, "out_dir": "flow.json"}}),
    Probe("genspec-out-under-file", "genspec --kind default --out {ws}/flow.json/spec.json",
          ("ValueError: --out {ws}/flow.json/spec.json cannot be written: "
           "{ws}/flow.json is a file",)),
    Probe("sweep-out-directory",
          "sweep --checkpoint {ws}/run-sweep/best.npz --grid-max 3 --out {ws}/run",
          ("ValueError: --out {ws}/run cannot be written: it is a directory",)),
    Probe("eval-trace-directory",
          "eval --checkpoint {ws}/run/best.npz --flow {ws}/flow.json --split test "
          "--trace {ws}/run",
          ("ValueError: --trace {ws}/run cannot be written: it is a directory",)),
    Probe("genflow-out-directory",
          f"genflow --profile {UNIFORM_8} --seed 1 --duration 600 --out {{ws}}/run",
          ("ValueError: --out {ws}/run cannot be written: it is a directory",)),
)


# The smoke run's configs; their paths are relative to the config, as every
# config path is.
SMOKE_INPUTS = {
    "config.json": {"intersection": "spec.json", "flows": ["flow.json"],
                    "controllers": ["fixed", "sotl2"], "horizon": 120},
    "sub/train.json": {"intersection": "../spec.json", "flows": ["../flow.json"],
                       "total_epochs": 0, "out_dir": "run"},
    "train.json": {"intersection": "spec.json", "flows": ["flow.json"], "total_epochs": 0},
    **{f"train-{process}.json": {"intersection": "spec.json", "flows": ["flow.json"],
                                 "total_epochs": 1, "process": process,
                                 "dqn": {"batch_size": 8}}
       for process in ("mdp", "smdp")},
    "sweep-train.json": {"intersection": "two-phase.json", "flows": ["flow4.json"],
                         "total_epochs": 0, "dqn": {"batch_size": 8}},
}


def build_workspace(ws: Path, run) -> None:
    """The smoke run: every subcommand of the script on small inputs, each
    output checked. It leaves the inputs every row may read: the default spec
    and an 8-lane flow with a 0-epoch run's `run/best.npz`, and the two-phase
    spec and a 4-lane flow with `run-sweep/best.npz`. `run` runs one argv of
    `trafficlab` and returns its exit status. A status other than 0, a call
    longer than the 30 s timeout or an output that is not as it should be
    raises an AssertionError that names it."""
    def trafficlab(argv: str) -> None:
        start = time.monotonic()
        status = run(split(argv, ws))
        seconds = time.monotonic() - start
        expect(status == 0, f"exit status {status}: trafficlab {argv}")
        expect(seconds <= TIMEOUT_S,
               f"{seconds:.0f} s, over the {TIMEOUT_S} s timeout: trafficlab {argv}")

    def document(name: str):
        return json.loads((ws / name).read_text(encoding="utf-8"))

    def lines(name: str) -> int:  # as `wc -l` counts them
        return (ws / name).read_bytes().count(b"\n")

    (ws / "sub").mkdir()
    write_inputs(ws, SMOKE_INPUTS)
    # genspec and genflow run on the stdlib alone.
    trafficlab("genspec --kind default --out {ws}/spec.json")
    trafficlab(f"genflow --profile {UNIFORM_8} --seed 1 --duration 600 --out {{ws}}/flow.json")
    expect(len(document("spec.json")["lanes"]) == 8
           and {v["movement"] for v in document("flow.json")["vehicles"]} == set(range(8)),
           "spec.json and flow.json are not the 8-lane spec and flow")
    # A platoon ends at its first spawn past the duration, so a huge
    # cluster_size costs only the 60 vehicles it yields; the platoon loop used
    # to run all cluster_size steps. At 10**12 steps a loop that walks them
    # all, even appending none, runs for hours and hits the timeout.
    trafficlab("genflow --profile 'clustered(cluster_size=1000000000000,inter_cluster_gap=60,"
               "within_gap=1,lane_weights=1:1)' --seed 1 --duration 60 --out {ws}/platoon.json")
    vehicles = len(document("platoon.json")["vehicles"])
    expect(vehicles == 60, f"platoon.json holds {vehicles} vehicles, not 60")
    # compare is the first command to import the numpy modules, so a broken
    # deferred import fails here.
    trafficlab("compare --config {ws}/config.json --out {ws}/compare.csv")
    expect(lines("compare.csv") == 5, f"compare.csv has {lines('compare.csv')} lines, not 5")
    # out_dir is relative to the config, like its other paths; it used to be
    # relative to the working directory, so this wrote {ws}/run.
    cwd = os.getcwd()
    os.chdir(ws)
    try:
        trafficlab("train --config sub/train.json")
    finally:
        os.chdir(cwd)
    expect((ws / "sub/run/metrics.csv").is_file() and not (ws / "run").exists(),
           "train --config sub/train.json did not write sub/run/metrics.csv alone")
    # With total_epochs 0, train validates once and writes best.npz, which
    # eval reads back.
    trafficlab("train --config {ws}/train.json --out {ws}/run")
    trafficlab("eval --checkpoint {ws}/run/best.npz --flow {ws}/flow.json --split test")
    # One epoch at batch 8 runs the transition loop under each process:
    # metrics.csv gets its header, the first validation and the last.
    for process in ("mdp", "smdp"):
        trafficlab(f"train --config {{ws}}/train-{process}.json --out {{ws}}/run-{process}")
        metrics = f"run-{process}/metrics.csv"
        expect(lines(metrics) == 3, f"{metrics} has {lines(metrics)} lines, not 3")
    # sweep reads a checkpoint as eval and compare do: a 0-epoch run on the
    # two-phase spec writes best.npz, and a grid of 4 x 4 cells gives 16 rows
    # under the header.
    trafficlab("genspec --kind two-phase --out {ws}/two-phase.json")
    trafficlab("genflow --profile 'uniform(rate_per_lane=0.05,n_lanes=4)' --seed 1 "
               "--duration 600 --out {ws}/flow4.json")
    trafficlab("train --config {ws}/sweep-train.json --out {ws}/run-sweep")
    trafficlab("sweep --checkpoint {ws}/run-sweep/best.npz --grid-max 3 --out {ws}/sweep.csv")
    expect(lines("sweep.csv") == 17, f"sweep.csv has {lines('sweep.csv')} lines, not 17")
    # genflow writes each vehicle row straight from the generator's rows: the
    # file is json.dumps of the document it loads as, byte for byte, and a
    # stem with a quote and a non-ASCII letter is its label, escaped.
    trafficlab("genflow --seed 3 --out '{ws}/sat\"\u00e9.json' --profile "
               "'clustered(cluster_size=6,inter_cluster_gap=3,within_gap=1,"
               "lane_weights=1:1:1:1:1:1:1:1)'")
    from trafficlab import core

    path = ws / "sat\"\u00e9.json"
    text = path.read_text(encoding="utf-8")
    flow = core.load_flow(text)
    expect(text == json.dumps(core.flow_to_document(flow)),
           f"{path.name} is not the dumped document")
    expect(flow.label == path.stem, f"label {flow.label!r} is not the stem {path.stem!r}")
    # Every output is written to <name>.tmp and renamed over its target, so
    # no command leaves a temp file behind.
    temps = sorted(str(p.relative_to(ws)) for p in ws.rglob("*.tmp"))
    expect(temps == [], f"temp files left: {temps}")


def expect(ok: bool, problem: str) -> None:
    if not ok:
        raise AssertionError(f"smoke run: {problem}")


def split(argv: str, ws: Path) -> list[str]:
    return [word.replace("{ws}", str(ws)) for word in shlex.split(argv)]


def write_inputs(ws: Path, files: dict) -> None:
    for name, content in files.items():
        data = content(ws) if callable(content) else json.dumps(content).encode("utf-8")
        (ws / name).write_bytes(data)


def run(probe: Probe, ws: Path, command=None) -> list[str]:
    """Write the row's inputs into the workspace `ws`, run the row and return
    what is wrong with its outcome (an empty list if nothing is). `command`
    runs it as that child, the installed script say; without one the row
    runs in process, or as a `python -m trafficlab.cli` child if capped."""
    write_inputs(ws, probe.files)
    before = set(ws.rglob("*"))
    argv = split(probe.argv, ws)
    if command is None and not probe.capped:
        status, stderr = in_process(argv)
    else:
        status, stderr = in_child(command or PYTHON_CLI, argv, probe)
    problems = [] if status == 1 else [f"exit status {status}, not 1"]
    for fragment in probe.stderr:
        if isinstance(fragment, re.Pattern):
            found = fragment.search(stderr)
        else:
            found = fragment.replace("{ws}", str(ws)) in stderr
        if not found:
            problems.append(f"stderr lacks {fragment!r}")
    problems += [f"{name} exists" for name in probe.absent if (ws / name).exists()]
    new = sorted(str(p.relative_to(ws)) for p in set(ws.rglob("*")) - before)
    if new:
        problems.append(f"the refused command wrote {new}")
    if problems:
        problems.append(f"stderr: {stderr[-1000:]}")
    return problems


def in_process(argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)`'s exit status, with a `ValueError` as status 1 and its
    last traceback line as stderr; any other exception propagates."""
    from trafficlab import cli

    try:
        return cli.main(argv), ""
    except ValueError as exc:
        return 1, "".join(traceback.format_exception_only(exc))


def in_child(command, argv: list[str], probe: Probe) -> tuple[int, str]:
    """The exit status and stderr of `command argv` under the row's caps; a
    child killed at the timeout gives 124, as `timeout` does."""
    env = dict(os.environ)
    if probe.vmem_kib is not None:
        # One OpenBLAS buffer per core would not fit the address-space cap on a large host.
        env.setdefault("OPENBLAS_NUM_THREADS", "1")

    def cap():
        if probe.vmem_kib is not None:
            resource.setrlimit(resource.RLIMIT_AS, (probe.vmem_kib * 1024,) * 2)

    try:
        proc = subprocess.run([*command, *argv], capture_output=True, text=True, env=env,
                              timeout=probe.timeout_s, preexec_fn=cap)
    except subprocess.TimeoutExpired:
        return 124, f"killed after {probe.timeout_s} s"
    return proc.returncode, proc.stderr


def main() -> int:
    """The smoke run and every row through the installed `trafficlab` script,
    each smoke call under the 30 s timeout."""
    script = shutil.which("trafficlab")
    if script is None:
        print("no trafficlab script on PATH", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp)
        try:
            build_workspace(ws, lambda argv: subprocess.run(
                [script, *argv], stdout=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode)
        except (AssertionError, subprocess.TimeoutExpired) as exc:
            print(f"FAIL smoke run\n    {exc}")
            return 1
        print("ok   smoke run")
        for probe in PROBES:
            problems = run(probe, ws, [script])
            print(f"{'FAIL' if problems else 'ok  '} {probe.name}")
            for problem in problems:
                print(f"    {problem}")
            failed += bool(problems)
    print(f"{len(PROBES) - failed} of {len(PROBES)} refusal probes passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
