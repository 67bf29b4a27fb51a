"""The cap on the vehicles a flow profile may yield: a bound computed before
generating, which every generated flow stays within, and the refusal of a
profile whose bound is above the cap, by `generate_flow`, `genflow` and at
config load."""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trafficlab import cli, core
from trafficlab.core import MAX_FLOW_VEHICLES, ClusteredProfile, UniformProfile
from trafficlab.harness import ExperimentConfig

BOUND_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

OVERSIZED = [
    pytest.param("uniform(rate_per_lane=1e9,n_lanes=8)", ("rate_per_lane", "n_lanes"),
                 id="uniform"),
    pytest.param("clustered(cluster_size=5,inter_cluster_gap=1e-9,within_gap=2,lane_weights=1:1)",
                 ("cluster_size", "inter_cluster_gap", "within_gap"), id="clustered"),
]
CAP_MESSAGE = f"above the cap of {MAX_FLOW_VEHICLES} vehicles"

# Gaps whose running float sum falls short of their multiples (ten 0.1 s steps
# add up to 0.9999999999999999), and plain ones.
GAPS = st.sampled_from((0.1, 0.3, 0.7, 1 / 3, 0.05)) | st.floats(0.05, 90.0)


@st.composite
def profiles(draw):
    if draw(st.booleans()):
        return UniformProfile(draw(st.floats(0.0, 3.0)), draw(st.integers(1, 8)))
    return ClusteredProfile(
        cluster_size=draw(st.integers(1, 40) | st.just(10 ** 8)),
        inter_cluster_gap=draw(GAPS),
        within_gap=draw(GAPS),
        lane_weights=tuple(draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4))),
    )


@BOUND_SETTINGS
@given(profiles(), st.integers(0, 400), st.integers(0, 2 ** 32))
def test_the_bound_holds_every_generated_flow(profile, duration, seed):
    bound = core.flow_size_bound(profile, duration)
    assume(bound <= 20_000)
    assert len(core.generate_flow(profile, seed, duration).vehicles) <= bound


def test_the_clustered_bound_counts_the_start_that_rounding_fits():
    # The start clock reads 0.9999999999999999 after ten 0.1 s gaps, so a 1 s
    # flow gets eleven platoon starts, not ceil(1 / 0.1) = 10.
    profile = ClusteredProfile(cluster_size=1, inter_cluster_gap=0.1, within_gap=1.0,
                               lane_weights=(1.0,))
    assert len(core.generate_flow(profile, seed=1, duration=1).vehicles) == 11
    assert core.flow_size_bound(profile, 1) >= 11


def test_a_subnormal_rate_ends_the_flow_at_its_first_infinite_arrival():
    # 1 / rate overflows, so the first arrival time is infinite; int() of it
    # used to raise OverflowError.
    flow = core.generate_flow(UniformProfile(2.225073858507203e-309, 1), seed=0, duration=0)
    assert flow.vehicles == ()


def test_a_huge_platoon_is_bounded_by_the_duration():
    profile = core.parse_profile(
        "clustered(cluster_size=100000000,inter_cluster_gap=60,within_gap=1,lane_weights=1:1)")
    assert core.flow_size_bound(profile, 60) <= 2 * 61
    core.check_flow_size(profile, 60)


def no_generation(monkeypatch):
    """Make generating a flow fail, so a profile that is not refused first fails
    the test at once instead of generating without end."""
    def never(seed):
        raise AssertionError("the profile was generated before it was refused")
    monkeypatch.setattr(core.random, "Random", never)


@pytest.mark.parametrize("text, fields", OVERSIZED)
def test_generate_flow_refuses_an_oversized_profile_by_its_fields(monkeypatch, text, fields):
    no_generation(monkeypatch)
    with pytest.raises(ValueError, match=CAP_MESSAGE) as caught:
        core.generate_flow(core.parse_profile(text), seed=1, duration=60)
    for field in fields:
        assert field in str(caught.value)


@pytest.mark.parametrize("text, fields", OVERSIZED)
def test_genflow_refuses_an_oversized_profile_and_writes_no_file(monkeypatch, tmp_path, text,
                                                                 fields):
    no_generation(monkeypatch)
    out = tmp_path / "flow.json"
    with pytest.raises(ValueError, match=CAP_MESSAGE):
        cli.main(["genflow", "--profile", text, "--seed", "1", "--duration", "60",
                  "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("text, fields", OVERSIZED)
def test_a_config_with_an_oversized_profile_is_refused_at_load(tmp_path, two_phase_spec, text,
                                                               fields):
    (tmp_path / "spec.json").write_text(json.dumps(core.intersection_to_document(two_phase_spec)))
    (tmp_path / "config.json").write_text(json.dumps({
        "intersection": "spec.json", "controllers": ["fixed"],
        "flow_profiles": [{"profile": text, "seed": 1, "duration": 60}]}))
    with pytest.raises(ValueError, match=rf"^flow_profiles\[0\]\.profile: .*{CAP_MESSAGE}$"):
        ExperimentConfig.from_file(tmp_path / "config.json")


def test_a_duration_beyond_the_float_range_is_refused(monkeypatch):
    no_generation(monkeypatch)
    with pytest.raises(ValueError, match=CAP_MESSAGE):
        core.generate_flow(UniformProfile(0.05, 8), seed=1, duration=10 ** 400)


def test_profiles_under_the_cap_still_generate():
    assert core.flow_size_bound(UniformProfile(0.05, 8), 600) == pytest.approx(
        240 + 10 * math.sqrt(240) + 40)
    assert len(core.generate_flow(UniformProfile(0.05, 8), seed=1, duration=600).vehicles) > 0
