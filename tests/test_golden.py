"""Golden digests of seeded outputs that involve no BLAS.

The baselines and the simulator run in pure Python with IEEE floats, so these
outputs are the same bytes on every machine. A change that alters a digest
changes behaviour and must say why. Network outputs depend on the BLAS build
and are pinned by the greedy-controller equivalence test instead.
"""

import hashlib
import json

import pytest
from flow_digests import FLOW_FILE_DIGESTS, genflow_digest

from trafficlab import core, harness, sim
from trafficlab.baselines import make_controller
from trafficlab.harness import COMPARE_COLUMNS, ExperimentConfig

COMPARE_DIGEST = "a12d31fba3302373dff2c0e482c036a9eadf20e44541ccd5a6447e48922d477a"
TRACE_DIGEST = "a3ec6cecfaedf1bdf50bfc07235f5838426eef7bc571296ef64dc9bd869d179f"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_compare_csv_digest(tmp_path, two_phase_spec, toy_flows):
    (tmp_path / "intersection.json").write_text(
        json.dumps(core.intersection_to_document(two_phase_spec)))
    for flow in toy_flows:
        (tmp_path / f"{flow.label}.json").write_text(json.dumps(core.flow_to_document(flow)))
    (tmp_path / "config.json").write_text(json.dumps({
        "intersection": "intersection.json",
        "flows": [f"{flow.label}.json" for flow in toy_flows],
        "controllers": ["fixed", "random", "sotl1", "sotl2"],
        "seed": 0,
    }))
    config = ExperimentConfig.from_file(tmp_path / "config.json")
    out = tmp_path / "compare.csv"
    harness.write_csv(out, COMPARE_COLUMNS, harness.compare(config))
    assert sha256(out.read_bytes()) == COMPARE_DIGEST


def test_sotl2_trajectory_digest(default_spec):
    flow = core.generate_flow(core.parse_profile("uniform(rate_per_lane=0.05,n_lanes=8)"),
                              seed=4, duration=600)
    rows = []
    harness.evaluate(make_controller("sotl2", default_spec), default_spec, flow,
                     on_tick=lambda state: rows.extend(sim.trajectory_rows(state)))
    assert len({r[0] for r in rows}) > 500
    assert sha256(repr(rows).encode()) == TRACE_DIGEST


@pytest.mark.parametrize("label, profile, seed, digest", FLOW_FILE_DIGESTS,
                         ids=[label for label, *_ in FLOW_FILE_DIGESTS])
def test_genflow_file_digest(tmp_path, label, profile, seed, digest):
    assert genflow_digest(tmp_path / f"{label}.json", profile, seed) == digest
