"""Golden digests of the flow files `genflow` writes, checked in process and on every Python.

The generator draws from `random.Random` and writes integers, so a flow file
is the same bytes on every machine and on every supported Python (3.10 to
3.13). A change that alters a digest changes behaviour and must say why.

The digests are checked in two ways:
- `tests/test_golden.py` runs `genflow_digest` for each row in process.
- `PYTHONPATH=src python tests/flow_digests.py` writes each flow with
  `genflow` in a temporary directory, prints its digest, reads it back with
  `core.load_flow` (`read_back`), and exits 1 if any digest differs or any
  flow does not read back to its own bytes. It needs only the stdlib and the
  package's stdlib `core`, so CI runs it on each supported Python without
  installing anything.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

from trafficlab import cli, core

LIGHT = "uniform(rate_per_lane=0.03,n_lanes=8)"
SATURATED = ("clustered(cluster_size=6,inter_cluster_gap=3,within_gap=1,"
             "lane_weights=1:1:1:1:1:1:1:1)")
DURATION_S = 3600
# The three flow files of the benchmark's compare-grid workload at its seed 1:
# (stem, profile, seed, SHA-256 of the file).
FLOW_FILE_DIGESTS = [
    ("light1", LIGHT, 1001, "c430005f3a9c8be717444f4eceba8378adb8402017cac97464fd53e29235ff25"),
    ("light2", LIGHT, 1002, "57943ea38f57e5fab7da8da6ceb192ee97c499dac2f85d283974e6d641813141"),
    ("saturated1", SATURATED, 1003,
     "087560a46d1633f78eaf76c36be04daf54c6e84f820aa3f26d4af8eab2246365"),
]


def genflow_digest(out: Path, profile: str, seed: int) -> str:
    """The SHA-256 of the file `genflow` writes to `out` for `profile` and
    `seed` over DURATION_S seconds; its report line is dropped."""
    argv = ["genflow", "--profile", profile, "--seed", str(seed),
            "--duration", str(DURATION_S), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"genflow failed: {argv}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def read_back(path: Path) -> str:
    """What differs when `core.load_flow` reads the flow file at `path` and
    `core.flow_to_json` writes the flow again, or "" if the text is the same
    byte for byte."""
    text = path.read_text(encoding="utf-8")
    try:
        again = core.flow_to_json(core.load_flow(text))
    except ValueError as exc:
        return f"refused: {exc}"
    return "" if again == text else "written again, it is not the same text"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for stem, profile, seed, digest in FLOW_FILE_DIGESTS:
            path = Path(tmp) / f"{stem}.json"
            found = genflow_digest(path, profile, seed)
            problem = read_back(path)
            ok = found == digest and not problem
            print(f"{'ok  ' if ok else 'FAIL'} {stem} {found}"
                  + (f"; read back: {problem}" if problem else ""))
            failed += not ok
    print(f"Python {platform.python_version()}: {len(FLOW_FILE_DIGESTS) - failed} of "
          f"{len(FLOW_FILE_DIGESTS)} flow files match their digests and read back "
          "to the same bytes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
