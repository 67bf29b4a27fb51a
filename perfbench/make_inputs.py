"""Make one workload's inputs in a fresh process; run.py times this process.

    python3 make_inputs.py --workload W --seed N --work DIR

The time covers interpreter start, importing the program, the genspec and
genflow calls through `trafficlab.cli.main`, and writing the config. It
imports nothing else that the program would not, so the time is the
program's own set-up cost.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

from trafficlab import cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, Workload  # noqa: E402


def run_cli(argv) -> int:
    """One call of the program's command line; its report lines are dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def make_inputs(workload: Workload, seed: int, work: Path) -> None:
    for argv in workload.setup_argvs(seed, work):
        if run_cli(argv) != 0:
            raise RuntimeError(f"set-up call failed: {argv}")
    workload.write_config(seed, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    make_inputs(WORKLOADS[args.workload], args.seed, Path(args.work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
