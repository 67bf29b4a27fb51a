#!/usr/bin/env python3
"""Paired benchmark runs of a head revision against a base revision.

    python3 tools/bench_pairs.py --base 604e8c9 --workload train-toy --seeds 1-10 --out BENCH.json

`--workload` may be given more than once. `--head` defaults to `HEAD`, so
commit the change to measure. Before any checkout, `parse_args` refuses an
`--out` that cannot be written, an unknown revision and uncommitted changes
to tracked files, naming them. Both revisions are checked out alike,
with `git worktree add` into sibling temporary directories whose paths have
the same length, and removed afterwards; the two sides differ only in their
commits. There is one pair per seed: it runs each tree's own, unchanged
`perfbench/run.py` on one workload at that seed for BENCHMARK.json's
`run_seconds`, and the tree that goes first alternates from pair to pair.

The JSON written to `--out` holds, for each workload and each end-to-end
metric of BENCHMARK.json, both trees' medians and quartiles, the pairs the
head won, the gap between the medians against the base's IQR, and a
verdict (`summarize`). A run that exits non-zero or leaves no result has
failed. It records the measuring process's Python, numpy and BLAS versions,
BLAS thread count and `nproc`. It also holds the behaviour lock of every
pair: the seeded outputs both trees wrote, compared byte for byte; see
`lock_diffs`. The exit status is 1 if a run failed, a metric is worse than
its bound or the lock found a difference.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The job outputs a workload's work directory may hold, beside its input documents.
JOB_OUTPUTS = ("compare.csv", "run/metrics.csv", "run/best.npz")
MIN_PAIRS = 10  # fewer cannot tell a gain from the host's drift


def parse_seeds(text: str) -> list[int]:
    """`a-b` as the seeds a..b, or one seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"seeds must be 'a-b' with a <= b, got {text!r}")
    return seeds


def locked_files(work: Path) -> set[str]:
    """The seeded outputs of one perfbench run: the generated spec, flow and
    config documents (every JSON file but the run's own result) and the job's
    outputs."""
    names = {p.name for p in work.glob("*.json") if p.name != "result.json"}
    return names | {name for name in JOB_OUTPUTS if (work / name).exists()}


def locked_content(path: Path):
    """What the lock compares of one file: `metrics.csv` without its
    `wall_clock_s` column, a `.npz` archive member by member (the archive's
    own bytes hold write times), any other file byte for byte."""
    if path.name == "metrics.csv":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_clock_s")
        return [row[:drop] + row[drop + 1:] for row in rows]
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as archive:
            return {name: archive.read(name) for name in archive.namelist()}
    return path.read_bytes()


def lock_diffs(base: Path, head: Path) -> list[str]:
    """Each locked file (`best.npz:<member>` for an archive member) that is
    missing, unreadable or different between two work directories."""
    diffs = []
    for name in sorted(locked_files(base) | locked_files(head)):
        try:
            a, b = locked_content(base / name), locked_content(head / name)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            diffs.append(f"{name}: {exc}")
            continue
        if isinstance(a, dict):
            diffs += [f"{name}:{member}" for member in sorted(a.keys() | b.keys())
                      if a.get(member) != b.get(member)]
        elif a != b:
            diffs.append(name)
    return diffs


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(metric: dict, base: list[float], head: list[float]) -> dict:
    """One metric over paired runs (`base[k]` beside `head[k]`), `gain` being
    how far the head's median is better than the base's. The verdict is
    "worse" past the metric's relative bound, at any count; else, over fewer
    than MIN_PAIRS pairs, "same"; else "better" at 9 of 10 pairs won and a
    gain past the base's IQR, "worse within bound" for the mirror, or "same"."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    qb, qh = quartiles(base), quartiles(head)
    iqr = qb[2] - qb[0]
    gain = sign * (qb[1] - qh[1])
    if -gain > metric["bound"] * abs(qb[1]):
        verdict = "worse"
    elif len(base) < MIN_PAIRS:
        verdict = "same"
    elif wins >= 0.9 * len(base) and gain > iqr:
        verdict = "better"
    elif losses >= 0.9 * len(base) and -gain > iqr:
        verdict = "worse within bound"
    else:
        verdict = "same"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "base_median": qb[1], "head_median": qh[1],
        "base_quartiles": [qb[0], qb[2]], "head_quartiles": [qh[0], qh[2]],
        "wins": wins, "pairs": len(base), "gain": gain, "base_iqr": iqr,
        "gain_over_iqr": gain / iqr if iqr else None,
        "verdict": verdict,
    }


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `tree`: its result line and the
    measuring process's environment, or the error it ended with. A run that
    exits 0 without a result line or a `result.json` has failed too."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"ok": False, "error": proc.stderr.strip().splitlines()[-1:]}
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        result = json.loads((work_dir(tree, workload, seed) / "result.json").read_text("utf-8"))
        return {
            "ok": line["correct"] is True and line["failed"] == 0,
            "attempted": line["attempted"], "failed": line["failed"],
            "metrics": {name: m["value"] for name, m in line["metrics"].items()},
            "environment": result["environment"],
        }
    except (IndexError, KeyError, TypeError, ValueError, OSError) as exc:
        return {"ok": False, "error": [f"no result: {type(exc).__name__}: {exc}"]}


def work_dir(tree: Path, workload: str, seed: int) -> Path:
    return tree / ".perfbench-runs" / f"{workload}-seed{seed}"


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def tracked_changes(root: Path = ROOT) -> list[str]:
    """The tracked files of the working tree at `root` with uncommitted
    changes, staged or not."""
    return git("diff", "--name-only", "HEAD", cwd=root).splitlines()


def parse_args(parser: argparse.ArgumentParser, argv=None):
    """`(args, header)`: `argv` parsed by `parser` plus the options both A/B
    tools share, and the report's `base` and `head` (rev and commit). Refused
    with exit status 2, before any checkout: an `--out` that cannot be
    written, so no run is lost at the end; a revision git does not know; and
    uncommitted changes to tracked files, which neither side would measure."""
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--head", default="HEAD", help="the git revision to measure")
    parser.add_argument("--out", required=True, help="the JSON report to write")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir() or not os.access(out.parent, os.W_OK):
        parser.error(f"--out {args.out}: not a file in a writable directory")
    header = {}
    for side in ("base", "head"):
        rev = getattr(args, side)
        try:
            commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
        except subprocess.CalledProcessError:
            parser.error(f"--{side} {rev}: not a commit git knows")
        header[side] = {"rev": rev, "commit": commit}
    changed = tracked_changes()
    if changed:
        parser.error(f"uncommitted changes to tracked files: {', '.join(changed)}; "
                     "commit them first")
    return args, header


@contextlib.contextmanager
def checkouts(base_rev: str, head_rev: str):
    """`(base, head)`: the two revisions checked out alike, in sibling
    temporary worktrees whose paths have the same length."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        paths = Path(tmp) / "base", Path(tmp) / "head"
        added = []
        try:
            for path, rev in zip(paths, (base_rev, head_rev)):
                git("worktree", "add", "--detach", str(path), rev)
                added.append(path)
            yield paths
        finally:
            for path in added:
                git("worktree", "remove", "--force", str(path))


def bench_workload(base: Path, head: Path, workload: str, seeds: list[int], seconds: float,
                   metrics_spec: list[dict]) -> dict:
    runs = []
    trees = {"base": base, "head": head}
    for k, seed in enumerate(seeds):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_perfbench(trees[side], workload, seed, seconds)
        pair["lock"] = lock_diffs(work_dir(base, workload, seed), work_dir(head, workload, seed))
        print(f"{workload} pair {k + 1}/{len(seeds)} seed {seed}: {order[0]} first, "
              f"run_s {pair['base'].get('metrics', {}).get('run_s')} -> "
              f"{pair['head'].get('metrics', {}).get('run_s')}, "
              f"lock {'identical' if not pair['lock'] else pair['lock']}", file=sys.stderr)
        runs.append(pair)
    measured = [p for p in runs if p["base"]["ok"] and p["head"]["ok"]]
    metrics = {}
    if measured:
        for metric in metrics_spec:
            name = metric["name"]
            metrics[name] = summarize(metric, [p["base"]["metrics"][name] for p in measured],
                                      [p["head"]["metrics"][name] for p in measured])
    failed = {side: sum(not p[side]["ok"] for p in runs) for side in ("base", "head")}
    return {
        "failed_runs": failed,
        "lock_identical": not any(p["lock"] for p in runs),
        "metrics": metrics,
        "environment": {side: next((p[side]["environment"] for p in runs if p[side]["ok"]), None)
                        for side in ("base", "head")},
        "runs": runs,
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", required=True, choices=names)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="a-b, one pair per seed")
    args, report = parse_args(parser, argv)
    report.update(seeds=args.seeds, seconds=benchmark["run_seconds"], workloads={})
    with checkouts(args.base, args.head) as (base, head):
        for workload in args.workload:
            report["workloads"][workload] = bench_workload(
                base, head, workload, args.seeds, benchmark["run_seconds"],
                benchmark["end_to_end"])
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    bad = False
    for workload, result in report["workloads"].items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: {m['base_median']:.6g} -> {m['head_median']:.6g} "
                  f"{m['unit']}, won {m['wins']}/{m['pairs']}, {m['verdict']}")
            bad |= m["verdict"] == "worse"
        print(f"{workload}: failed runs {result['failed_runs']}, "
              f"lock {'identical' if result['lock_identical'] else 'DIFFERENT'}")
        bad |= result["failed_runs"]["head"] > 0 or not result["lock_identical"]
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
