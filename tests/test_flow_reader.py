"""`core.load_flow` builds each well-formed vehicle row's record as the text is
parsed. An object shaped like a row anywhere else in the document, and a row
that is not well formed, is refused with the message the reader gives for it
as a dict; and the reader's memory peak stays near the size of the flow it
returns."""

import json
import re
import tracemalloc

import pytest
from flow_digests import DURATION_S, FLOW_FILE_DIGESTS, genflow_digest, read_back

from trafficlab import core
from trafficlab.core import FlowDataset, Vehicle

ROW = {"id": 0, "spawn_time_s": 1, "movement": 0}
ROW_REPR = "{'id': 0, 'spawn_time_s': 1, 'movement': 0}"


def flow_text(**doc) -> str:
    return json.dumps({"duration_s": 10, "label": "f", "vehicles": [ROW], **doc})


def rows_then(bad: dict) -> str:
    """A flow whose vehicles[2] is `bad`, after two well-formed rows."""
    return flow_text(vehicles=[ROW, dict(ROW, id=1, spawn_time_s=2), bad])


@pytest.mark.parametrize("text, message", [
    pytest.param(json.dumps(ROW), "flow document lacks duration_s", id="document-is-a-row"),
    pytest.param(flow_text(label=ROW), f"label must be a string, got {ROW_REPR}",
                 id="label-is-a-row"),
    pytest.param(flow_text(duration_s=ROW), f"duration_s must be an integer, got {ROW_REPR}",
                 id="duration-is-a-row"),
    pytest.param(flow_text(vehicles=ROW), "vehicles must be an array, got dict",
                 id="vehicles-is-a-row"),
    pytest.param(flow_text(label=[ROW]), f"label must be a string, got [{ROW_REPR}]",
                 id="label-holds-a-row"),
    pytest.param(rows_then(dict(ROW, id=ROW)), f"vehicles[2].id must be an integer, got {ROW_REPR}",
                 id="id-is-a-row"),
    pytest.param(rows_then(dict(ROW, id=True)), "vehicles[2].id must be an integer, got True",
                 id="true-id"),
    pytest.param(rows_then(dict(ROW, spawn_time_s=3.0)),
                 "vehicles[2].spawn_time_s must be an integer, got 3.0", id="float-spawn"),
    pytest.param(rows_then(dict(ROW, spawn_time_s=-1)),
                 "vehicles[2].spawn_time_s must be non-negative, got -1", id="negative-spawn"),
    pytest.param(rows_then(dict(ROW, lane=0)),
                 "unknown vehicles[2] key(s) 'lane'; accepted keys: id, spawn_time_s, movement",
                 id="fourth-key"),
])
def test_a_row_shaped_object_or_a_bad_row_is_refused_as_a_dict_is(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        core.load_flow(text)


def test_rows_in_any_key_order_and_layout_load_as_records():
    text = json.dumps({"duration_s": 10, "label": "a", "vehicles": [
        ROW, {"movement": 3, "spawn_time_s": 9, "id": 7}]}, indent=2)
    assert core.load_flow(text) == FlowDataset((Vehicle(0, 1, 0), Vehicle(7, 9, 3)), 10, "a")


@pytest.mark.parametrize("stem, profile, seed", [row[:3] for row in FLOW_FILE_DIGESTS])
def test_each_digest_flow_reads_back_to_its_own_bytes(tmp_path, stem, profile, seed):
    path = tmp_path / f"{stem}.json"
    genflow_digest(path, profile, seed)
    assert read_back(path) == ""


def test_the_readers_peak_stays_near_the_size_of_the_flow(tmp_path):
    # The benchmark's seed-1 saturated flow: 7,197 vehicles.
    stem, profile, seed, _ = next(row for row in FLOW_FILE_DIGESTS if row[0] == "saturated1")
    path = tmp_path / f"{stem}.json"
    genflow_digest(path, profile, seed)
    text = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        flow = core.load_flow(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flow.duration == DURATION_S and len(flow.vehicles) > 7000
    # A reader that holds every row as a dict before its record peaks at about
    # 2.6 times the size.
    assert peak <= 1.5 * size, f"peak {peak} B is {peak / size:.2f} times the flow's {size} B"
