"""The flow file `genflow` writes: compact JSON with the same content, so every
result computed from it is the same as from an indented file."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_flow_cap import no_generation

from trafficlab import cli, core, harness

PROFILES = [
    "uniform(rate_per_lane=0.05,n_lanes=8)",
    "clustered(cluster_size=6,inter_cluster_gap=3,within_gap=1,lane_weights=1:1:1:1:1:1:1:1)",
]


def genflow(out, profile, seed, duration):
    assert cli.main(["genflow", "--profile", profile, "--seed", str(seed),
                     "--duration", str(duration), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("profile", PROFILES)
def test_the_file_is_the_compact_document_byte_for_byte(tmp_path, profile):
    path = genflow(tmp_path / "north.json", profile, seed=7, duration=900)
    flow = core.generate_flow(core.parse_profile(profile), seed=7, duration=900, label="north")
    assert path.read_bytes() == json.dumps(core.flow_to_document(flow)).encode()


@pytest.mark.parametrize("profile", PROFILES)
def test_the_file_loads_as_the_generated_flow(tmp_path, profile):
    path = genflow(tmp_path / "north.json", profile, seed=7, duration=900)
    flow = core.generate_flow(core.parse_profile(profile), seed=7, duration=900, label="north")
    assert core.load_flow(path.read_text(encoding="utf-8")) == flow


def test_compare_reads_the_compact_and_the_indented_file_alike(tmp_path, default_spec):
    csvs = []
    for layout in ("compact", "indented"):
        work = tmp_path / layout
        for k, profile in enumerate(PROFILES):
            path = genflow(work / f"flow{k}.json", profile, seed=3 + k, duration=600)
            if layout == "indented":
                doc = json.loads(path.read_text(encoding="utf-8"))
                path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        (work / "spec.json").write_text(json.dumps(core.intersection_to_document(default_spec)))
        (work / "config.json").write_text(json.dumps({
            "intersection": "spec.json", "flows": ["flow0.json", "flow1.json"],
            "controllers": ["fixed", "random", "sotl1", "sotl2"], "seed": 5}))
        rows = harness.compare(harness.ExperimentConfig.from_file(work / "config.json"))
        harness.write_csv(work / "compare.csv", harness.COMPARE_COLUMNS, rows)
        csvs.append((work / "compare.csv").read_bytes())
    assert len(csvs[0].splitlines()) == 1 + 4 * 2 * 2
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("profile, message", [
    ("uniform(rate_per_lane=0.05)", "uniform profile lacks n_lanes"),
    ("uniform(rate_per_lane=0.05,n_lanes=8,bogus=3)", "unknown uniform parameter 'bogus'"),
    # generating at this rate never ends (it is stubbed out here)
    ("uniform(rate_per_lane=inf,n_lanes=8)", "rate_per_lane must be non-negative and finite"),
])
def test_a_bad_profile_fails_before_any_file_is_written(tmp_path, profile, message,
                                                        monkeypatch):
    no_generation(monkeypatch)
    with pytest.raises(ValueError, match=message):
        genflow(tmp_path / "flow.json", profile, seed=1, duration=60)
    assert not (tmp_path / "flow.json").exists()


def test_a_profile_without_parameters_is_refused_by_its_text(tmp_path):
    with pytest.raises(ValueError, match=r"^malformed profile 'uniform'$"):
        genflow(tmp_path / "flow.json", "uniform", seed=1, duration=60)
    assert not (tmp_path / "flow.json").exists()


@pytest.mark.parametrize("duration, message", [
    (0, r"^duration must be at least 2, got 0$"),
    (1, r"^duration must be at least 2, got 1$"),
    (10 ** 6 + 1, r"^duration must be at most 1000000, got 1000001$"),
])
def test_a_duration_out_of_bounds_is_refused_before_any_flow_is_generated(
        tmp_path, duration, message, monkeypatch):
    # 0 and 1 used to write a flow of 0 vehicles that compare and eval refuse;
    # a duration past the cap was refused only after the flow was generated.
    no_generation(monkeypatch)
    with pytest.raises(ValueError, match=message):
        genflow(tmp_path / "flow.json", PROFILES[0], seed=1, duration=duration)
    assert not (tmp_path / "flow.json").exists()


@pytest.mark.parametrize("generate", [core.flow_rows, core.generate_flow])
def test_a_negative_seed_is_refused_before_generating(monkeypatch, generate):
    # random.Random(-5) is random.Random(5): seed -5 used to give seed 5's flow.
    no_generation(monkeypatch)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -5$"):
        generate(core.UniformProfile(0.05, 8), seed=-5, duration=60)


def test_the_shortest_flow_genflow_writes_splits_into_halves(tmp_path):
    path = genflow(tmp_path / "flow.json", PROFILES[0], seed=1, duration=2)
    val, test = core.split_halves(core.load_flow(path.read_text(encoding="utf-8")))
    assert (val.duration, test.duration) == (1, 1)


PROFILE_RECORDS = st.one_of(
    st.builds(core.UniformProfile, rate_per_lane=st.floats(0, 0.2),
              n_lanes=st.integers(1, 8)),
    st.builds(core.ClusteredProfile, cluster_size=st.integers(1, 8),
              inter_cluster_gap=st.floats(1, 60), within_gap=st.floats(0.5, 5),
              lane_weights=st.lists(st.floats(0, 4), min_size=1, max_size=8)
              .filter(lambda weights: sum(weights) > 0).map(tuple)),
)


@settings(max_examples=150, deadline=500, derandomize=True, database=None)
@example(profile=core.UniformProfile(0.05, 2), seed=1, duration=60,
         label='q"b\\s/\x00\x1f\x7f\u00e9\u2028\U0001f600')
@given(profile=PROFILE_RECORDS, seed=st.integers(0, 2 ** 32),
       duration=st.integers(2, 600), label=st.text())
def test_flow_to_json_is_the_dumped_document(profile, seed, duration, label):
    # Labels with quotes, backslashes, control and non-ASCII characters are
    # escaped as json.dumps escapes them.
    flow = core.generate_flow(profile, seed=seed, duration=duration, label=label)
    assert core.flow_to_json(flow) == json.dumps(core.flow_to_document(flow))


def profile_literal(profile) -> str:
    """The literal that `parse_profile` reads back as `profile`, each float
    written by its repr."""
    if isinstance(profile, core.UniformProfile):
        return f"uniform(rate_per_lane={profile.rate_per_lane!r},n_lanes={profile.n_lanes})"
    return (f"clustered(cluster_size={profile.cluster_size},"
            f"inter_cluster_gap={profile.inter_cluster_gap!r},"
            f"within_gap={profile.within_gap!r},"
            f"lane_weights={':'.join(map(repr, profile.lane_weights))})")


# File stems with quotes, backslashes and non-ASCII letters, which the label escapes.
STEMS = st.text(st.sampled_from("ab -_'\"\\\u00e9\u00df\u6f22\u2028\U0001f600"),
                min_size=1, max_size=12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(profile=core.UniformProfile(0.0, 8), seed=3, duration=600, stem='q"b\\\u00e9')
@example(profile=core.UniformProfile(0.05, 8), seed=7, duration=600, stem="north")
@given(profile=PROFILE_RECORDS | st.builds(core.UniformProfile, rate_per_lane=st.just(0.0),
                                           n_lanes=st.integers(1, 8)),
       seed=st.integers(0, 2 ** 64), duration=st.integers(2, 600), stem=STEMS)
def test_genflow_writes_the_generated_flow(profile, seed, duration, stem):
    """`genflow` formats the generator's rows with no Vehicle or FlowDataset;
    its file is the text of the flow `generate_flow` builds, byte for byte."""
    literal = profile_literal(profile)
    assert core.parse_profile(literal) == profile
    idle = isinstance(profile, core.UniformProfile) and profile.rate_per_lane == 0
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        if idle:  # a rate of 0 writes its empty flow without drawing
            no_generation(patch)
        data = genflow(Path(tmp) / f"{stem}.json", literal, seed, duration).read_bytes()
        flow = core.generate_flow(profile, seed=seed, duration=duration, label=stem)
    assert data == core.flow_to_json(flow).encode("utf-8")
    assert core.load_flow(data.decode("utf-8")) == flow
    if idle:
        assert flow.vehicles == () and data.endswith(b'"vehicles": []}')


def test_both_writers_refuse_a_body_length_alike():
    flow = core.FlowDataset((core.Vehicle(0, 0, 0), core.Vehicle(1, 2, 1, body_length=7.5)),
                            duration=10, label="north")
    messages = []
    for write in (core.flow_to_document, core.flow_to_json):
        with pytest.raises(ValueError, match=r"^flow 'north': vehicles\[1\] has a body "
                                              "length of 7.5 m") as info:
            write(flow)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
