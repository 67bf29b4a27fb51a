"""tools/bench_layers.py: the verdict of each layer, the child protocol run in
process, the check of where a child imported the program from, and the
refusal of a working tree with uncommitted changes."""

import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("bench_layers", TOOLS / "bench_layers.py")
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_head_faster_in_every_round_and_past_the_iqr_is_faster():
    result = bench_layers.summarize([b * 1e-6 for b in BASE], [b * 0.9e-6 for b in BASE])
    assert (result["wins"], result["rounds"], result["verdict"]) == (10, 10, "faster")
    assert result["unit"] == "us"
    assert result["base_median"] == pytest.approx(1.0)
    assert result["gain"] == pytest.approx(0.1)
    assert result["median_ratio"] == pytest.approx(0.9)


def test_a_gain_inside_the_iqr_or_in_8_of_10_rounds_is_the_same():
    base = [b * 1e-6 for b in BASE]
    assert bench_layers.summarize(base, [b - 0.005e-6 for b in base])["verdict"] == "same"
    head = [b * 0.8 for b in base[:8]] + [b * 1.01 for b in base[8:]]
    assert bench_layers.summarize(base, head)["verdict"] == "same"


def test_a_head_slower_in_every_round_past_the_iqr_is_slower():
    base = [b * 1e-6 for b in BASE]
    result = bench_layers.summarize(base, [b * 1.1 for b in base])
    assert (result["wins"], result["verdict"]) == (0, "slower")


def test_fewer_than_10_rounds_give_no_verdict():
    base = [b * 1e-6 for b in BASE[:9]]
    assert bench_layers.summarize(base, [b * 0.5 for b in base])["verdict"] == "same"
    assert bench_layers.summarize(base[:1], [base[0] * 2])["verdict"] == "same"


def test_serve_builds_behind_any_pad_to_the_same_digests_and_times_a_layer():
    stdout = io.StringIO()
    bench_layers.serve(io.StringIO("build 0\nforward.b1\nbuild 1\nsim.tick\n"), stdout)
    environment, first, t1, second, t2 = [json.loads(line)
                                          for line in stdout.getvalue().splitlines()]
    assert Path(environment["trafficlab"]).name == "trafficlab"
    assert list(first) == [name for name, *_ in bench_layers.LAYERS]
    assert all(len(d) == 64 for d in first.values())
    assert second == first
    assert 0 < t1 < 0.1 and 0 < t2 < 0.1


def test_a_child_that_imports_the_program_from_elsewhere_is_refused(tmp_path):
    # tmp_path holds no src/trafficlab: the child either fails to import it
    # or finds another copy; neither is timed.
    with pytest.raises(RuntimeError):
        bench_layers.Child(tmp_path)


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           *args], cwd=repo, check=True, capture_output=True, text=True).stdout


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_uncommitted_changes_to_tracked_files_are_refused_by_name(tmp_path):
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    for name in ("bench_layers.py", "bench_pairs.py"):
        shutil.copy(TOOLS / name, repo / "tools" / name)
    (repo / "core.py").write_text("x = 1\n")
    git(repo, "init", "-q")
    git(repo, "add", ".")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "core.py").write_text("x = 2\n")
    argv = [sys.executable, "tools/bench_layers.py", "--base", "HEAD", "--rounds", "1",
            "--out", "layers.json"]
    proc = subprocess.run(argv, cwd=repo, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error: uncommitted changes to tracked files: core.py; " in proc.stderr
    assert not (repo / "layers.json").exists()
    assert len(git(repo, "worktree", "list").splitlines()) == 1
