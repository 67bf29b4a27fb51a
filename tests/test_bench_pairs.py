"""tools/bench_pairs.py on synthetic pair sets and work directories: the
verdict of each metric and the behaviour lock; and its refusal of a working
tree with uncommitted changes."""

import importlib.util
import json
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
TICKS = {"name": "sim_ticks_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_gain_won_in_every_pair_and_past_the_iqr_is_better():
    result = bench_pairs.summarize(RUN_S, BASE, [b * 0.8 for b in BASE])
    assert (result["wins"], result["pairs"], result["verdict"]) == (10, 10, "better")
    assert result["gain"] == pytest.approx(0.2)
    assert result["gain_over_iqr"] > 1


def test_a_gain_inside_the_iqr_is_the_same():
    result = bench_pairs.summarize(RUN_S, BASE, [b - 0.005 for b in BASE])
    assert result["wins"] == 10
    assert result["verdict"] == "same"


def test_a_gain_in_8_of_10_pairs_is_the_same():
    head = [b * 0.8 for b in BASE[:8]] + [b * 1.01 for b in BASE[8:]]
    assert bench_pairs.summarize(RUN_S, BASE, head)["verdict"] == "same"


def test_a_loss_past_the_bound_is_worse_in_either_direction():
    assert bench_pairs.summarize(RUN_S, BASE, [b * 1.3 for b in BASE])["verdict"] == "worse"
    assert bench_pairs.summarize(RUN_S, BASE, [b * 1.2 for b in BASE])["verdict"] != "worse"
    ticks = [1000 * b for b in BASE]
    assert bench_pairs.summarize(TICKS, ticks, [t * 0.7 for t in ticks])["verdict"] == "worse"
    assert bench_pairs.summarize(TICKS, ticks, [t * 1.3 for t in ticks])["verdict"] == "better"


def test_a_loss_in_every_pair_past_the_iqr_but_inside_the_bound_is_named():
    result = bench_pairs.summarize(RUN_S, BASE, [b * 1.05 for b in BASE])
    assert (result["wins"], result["verdict"]) == (0, "worse within bound")


def test_seeds_are_a_range_or_one_seed():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("7") == [7]


def write_npz(path: Path, members: dict, date_time) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, data in members.items():
            archive.writestr(zipfile.ZipInfo(name, date_time=date_time), data)


def write_work(work: Path, wall_clock: str, date_time) -> None:
    """A train work directory: input documents, the run's own result, a
    metrics.csv and a best.npz whose archive was written at `date_time`."""
    work.mkdir(parents=True)
    (work / "spec.json").write_text(json.dumps({"lanes": []}))
    (work / "toy1.json").write_text(json.dumps({"vehicles": []}))
    (work / "result.json").write_text(json.dumps({"run_s": wall_clock}))
    (work / "run").mkdir()
    (work / "run" / "metrics.csv").write_text(
        "epoch,wall_clock_s,val_avg_travel_time_s\n"
        f"0,{wall_clock},20.500000\n")
    write_npz(work / "run" / "best.npz", {"net.npy": b"\x01\x02\x03\x04" * 8, "meta.npy": b"m"},
              date_time)


@pytest.fixture()
def works(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    write_work(base, "0.512", (2026, 1, 1, 0, 0, 0))
    write_work(head, "0.498", (2026, 1, 2, 12, 30, 0))
    return base, head


def test_the_lock_ignores_wall_times_and_archive_dates(works):
    base, head = works
    assert base.joinpath("run/best.npz").read_bytes() != head.joinpath("run/best.npz").read_bytes()
    assert bench_pairs.lock_diffs(base, head) == []


def test_one_flipped_best_npz_byte_fails_the_lock(works):
    base, head = works
    path = head / "run" / "best.npz"
    data = bytearray(path.read_bytes())
    data[data.index(b"\x01\x02\x03\x04") + 2] ^= 0x01
    path.write_bytes(bytes(data))
    diffs = bench_pairs.lock_diffs(base, head)
    assert len(diffs) == 1 and diffs[0].startswith("run/best.npz")


def test_a_changed_member_or_document_is_named(works):
    base, head = works
    write_npz(head / "run" / "best.npz", {"net.npy": b"\x00" * 32, "meta.npy": b"m"},
              (2026, 1, 1, 0, 0, 0))
    (head / "toy1.json").write_text(json.dumps({"vehicles": [1]}))
    (head / "run" / "metrics.csv").write_text(
        "epoch,wall_clock_s,val_avg_travel_time_s\n0,0.498,20.600000\n")
    assert bench_pairs.lock_diffs(base, head) == [
        "run/best.npz:net.npy", "run/metrics.csv", "toy1.json"]


def test_a_missing_output_fails_the_lock(works):
    base, head = works
    (head / "run" / "metrics.csv").unlink()
    diffs = bench_pairs.lock_diffs(base, head)
    assert len(diffs) == 1 and diffs[0].startswith("run/metrics.csv: ")


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           *args], cwd=repo, check=True, capture_output=True, text=True).stdout


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_uncommitted_changes_to_tracked_files_are_refused_by_name(tmp_path):
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    shutil.copy(TOOL, repo / "tools" / "bench_pairs.py")
    shutil.copy(TOOL.parents[1] / "BENCHMARK.json", repo / "BENCHMARK.json")
    (repo / "core.py").write_text("x = 1\n")
    git(repo, "init", "-q")
    git(repo, "add", ".")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "core.py").write_text("x = 2\n")
    (repo / "scratch.py").write_text("")  # untracked, so not named
    argv = [sys.executable, "tools/bench_pairs.py", "--base", "HEAD", "--workload", "train-toy",
            "--seeds", "1", "--out", "bench.json"]
    proc = subprocess.run(argv, cwd=repo, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error: uncommitted changes to tracked files: core.py; " in proc.stderr
    assert not (repo / "bench.json").exists()
    assert len(git(repo, "worktree", "list").splitlines()) == 1
    assert bench_pairs.tracked_changes(repo) == ["core.py"]
    git(repo, "commit", "-q", "-am", "head")
    assert bench_pairs.tracked_changes(repo) == []


@pytest.mark.parametrize("n", [1, 9])
def test_under_10_pairs_only_a_loss_past_the_bound_is_read(n):
    base = BASE[:n]
    assert bench_pairs.summarize(RUN_S, base, [b * 0.8 for b in base])["verdict"] == "same"
    assert bench_pairs.summarize(RUN_S, base, [b * 1.05 for b in base])["verdict"] == "same"
    assert bench_pairs.summarize(RUN_S, base, [b * 1.3 for b in base])["verdict"] == "worse"


def commit(repo: Path, files: dict, message: str) -> None:
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git(repo, "add", ".")
    git(repo, "commit", "-q", "-m", message)


def tool_repo(tmp_path: Path, files: dict) -> Path:
    """A git repository holding the tool, BENCHMARK.json and `files`, committed."""
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    commit(repo, {"tools/bench_pairs.py": TOOL.read_text(),
                  "BENCHMARK.json": TOOL.parents[1].joinpath("BENCHMARK.json").read_text(),
                  **files}, "base")
    return repo


def run_tool(repo: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "tools/bench_pairs.py", "--workload", "train-toy",
                           *args], cwd=repo, capture_output=True, text=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
@pytest.mark.parametrize("option, value, reason", [
    ("--out", "missing/bench.json", "not a file in a writable directory"),
    ("--out", "core.py/bench.json", "not a file in a writable directory"),
    ("--out", "tools", "not a file in a writable directory"),
    ("--base", "no-such-rev", "not a commit git knows"),
], ids=["missing-parent", "file-parent", "directory", "unknown-base"])
def test_an_unwritable_out_or_an_unknown_revision_is_refused_before_any_checkout(
        tmp_path, option, value, reason):
    repo = tool_repo(tmp_path, {"core.py": "x = 1\n"})
    args = {"--base": "HEAD", "--seeds": "1", "--out": "bench.json", option: value}
    proc = run_tool(repo, *[word for item in args.items() for word in item])
    assert proc.returncode == 2
    assert f"error: {option} {value}: {reason}" in proc.stderr
    assert not (repo / "bench.json").exists()
    assert len(git(repo, "worktree", "list").splitlines()) == 1


# A stand-in for perfbench/run.py: it writes its work directory at once and
# prints LINE as its last line.
STUB = """import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
work = pathlib.Path(".perfbench-runs", f"{args['--workload']}-seed{args['--seed']}")
work.mkdir(parents=True)
(work / "spec.json").write_text(args["--seed"])
(work / "result.json").write_text(json.dumps({"environment": {"python": "stub"}}))
print(LINE)
"""
END_TO_END = [m["name"] for m in
              json.loads(TOOL.parents[1].joinpath("BENCHMARK.json").read_text())["end_to_end"]]


def result_line(run_s: float) -> str:
    metrics = {name: {"value": run_s if name == "run_s" else 1.0} for name in END_TO_END}
    return json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})


def stub_repo(tmp_path: Path, head_line: str) -> Path:
    """A base commit whose stub reads `run_s` 1.0, and a head commit whose
    stub prints `head_line`."""
    repo = tool_repo(tmp_path, {"perfbench/run.py": STUB.replace("LINE", repr(result_line(1.0)))})
    commit(repo, {"perfbench/run.py": STUB.replace("LINE", repr(head_line))}, "head")
    return repo


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_run_writes_every_pair_and_reads_a_gain_in_2_pairs_as_the_same(tmp_path):
    repo = stub_repo(tmp_path, result_line(0.5))
    proc = run_tool(repo, "--base", "HEAD~1", "--seeds", "1-2", "--out", "bench.json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((repo / "bench.json").read_text())
    assert report["base"]["commit"] == git(repo, "rev-parse", "HEAD~1").strip()
    result = report["workloads"]["train-toy"]
    assert result["failed_runs"] == {"base": 0, "head": 0}
    assert result["lock_identical"] and len(result["runs"]) == 2
    assert (result["metrics"]["run_s"]["wins"], result["metrics"]["run_s"]["gain"]) == (2, 0.5)
    assert {m["verdict"] for m in result["metrics"].values()} == {"same"}
    assert len(git(repo, "worktree", "list").splitlines()) == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_run_that_prints_no_result_line_is_a_failed_run(tmp_path):
    repo = stub_repo(tmp_path, "not json")
    proc = run_tool(repo, "--base", "HEAD~1", "--seeds", "1", "--out", "bench.json")
    assert proc.returncode == 1
    result = json.loads((repo / "bench.json").read_text())["workloads"]["train-toy"]
    assert result["failed_runs"] == {"base": 0, "head": 1}
    assert result["runs"][0]["base"]["ok"] and not result["runs"][0]["head"]["ok"]
    assert "JSONDecodeError" in result["runs"][0]["head"]["error"][0]
    assert len(git(repo, "worktree", "list").splitlines()) == 1
