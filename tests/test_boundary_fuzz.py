"""Boundary fuzzing: mutated inputs either read back to what was written or are
refused with a ValueError that names where they broke.

The checkpoint property starts from a valid version-2 file and drops,
reshapes, retypes or truncates one member, replaces a JSON block with a value
that is not an object, or cuts the file's bytes.

The record property builds the records directly from odd field values: each
either holds its invariants or is refused with a ValueError naming a field.

The config property mutates one field of a valid config document (a value of
another type, a string in place of a list, NaN, +-inf, a bool, a huge integer,
a missing or an unknown key) and reads it: the config either loads with every
field of its documented kind, or is refused with a ValueError naming the field.

The intersection and flow properties make one change anywhere in a valid
document: a value swapped for one of another type, NaN, +-inf, a bool, a
fraction, a huge integer or an out-of-range id; a key or an array entry
dropped; an unknown key added; or a value wrapped in an array, or an array cut
to its first entry. The document either loads to a record whose written
document loads back equal, or is refused with a ValueError naming the path.

The profile-literal property drops, repeats or renames one parameter of a
valid literal, or swaps its value (or one lane weight) for NaN, inf, -1,
1e400, an empty string, `1:` or a number: the literal either parses to a
profile that `check_flow_size` accepts at 60 s, as `genflow` and a
`flow_profiles` entry read it, or is refused with a ValueError naming the
parameter.
"""

import copy
import dataclasses
import functools
import json
import math
import numbers
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficlab import core, harness
from trafficlab.agents import DQNAgent, DQNConfig, load_checkpoint, save_checkpoint
from trafficlab.baselines import CONTROLLER_NAMES, SotlParams
from trafficlab.core import (APPROACHES, MAX_FLOW_DURATION_S, TURNS, ClusteredProfile,
                             FlowDataset, IntersectionSpec, Lane, Movement, Phase,
                             UniformProfile, Vehicle)
from trafficlab.env import ACTION_MODES, VARIANTS, Transition
from trafficlab.harness import ExperimentConfig

FUZZ_SETTINGS = settings(max_examples=150, deadline=2000, derandomize=True, database=None)

MEMBERS = ("version", "layers", "net", "target", "adam_m", "adam_v", "adam_t", "counters",
           "config", "meta", "rng_state")
JSON_BLOCKS = ("config", "meta", "rng_state")
DTYPES = ("float64", "float32", "int64", "int32", ">f8", ">i8", "bool", "U8")

NOT_OBJECTS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=5),
    st.lists(st.integers(), max_size=3),
).map(json.dumps) | st.sampled_from(["", "{", "NaN-ish", "[1,"])


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    """A saved agent after a few updates, and the members of its file."""
    agent = DQNAgent(3, 2, DQNConfig(batch_size=4, seed=11, eps_decay_steps=20))
    rng = np.random.default_rng(11)
    for k in range(10):
        agent.observe(Transition(rng.random(3), k % 2, -float(k), rng.random(3), 1, False))
    path = tmp_path_factory.mktemp("fuzz") / "original.npz"
    save_checkpoint(path, agent, {"variant": "wad", "note": [1, 2]})
    with np.load(path, allow_pickle=False) as data:
        members = {name: data[name] for name in data.files}
    return agent, path, members


def retyped(arr: np.ndarray, dtype: str) -> np.ndarray:
    try:
        return arr.astype(dtype)
    except ValueError:  # a JSON string that is not a number
        return np.zeros(arr.shape, dtype=dtype)


def reshaped(arr: np.ndarray, shape: str) -> np.ndarray:
    if shape == "row":
        return arr.reshape(1, -1)
    if shape == "column":
        return arr.reshape(-1, 1)
    return arr.reshape(-1)  # a scalar becomes one element; a vector stays 1-d


@st.composite
def mutations(draw):
    """(member or None, a function of the members and file bytes that gives
    the mutated file's bytes or its members)."""
    kind = draw(st.sampled_from(["drop", "reshape", "retype", "truncate", "json", "cut"]))
    if kind == "cut":
        fraction = draw(st.floats(0.0, 1.0, exclude_max=True))
        return None, lambda members, raw: raw[:int(fraction * len(raw))]
    member = draw(st.sampled_from(JSON_BLOCKS if kind == "json" else MEMBERS))
    if kind == "drop":
        change = None
    elif kind == "reshape":
        shape = draw(st.sampled_from(["row", "column", "flat"]))
        change = lambda arr: reshaped(arr, shape)  # noqa: E731
    elif kind == "retype":
        dtype = draw(st.sampled_from(DTYPES))
        change = lambda arr: retyped(arr, dtype)  # noqa: E731
    elif kind == "truncate":
        keep = draw(st.integers(0, 8))  # a scalar becomes an empty vector
        change = lambda arr: arr.reshape(-1)[:keep if arr.ndim else 0]  # noqa: E731
    else:
        text = draw(NOT_OBJECTS)
        change = lambda arr: np.asarray(text)  # noqa: E731

    def mutate(members, raw):
        mutated = dict(members)
        if change is None:
            del mutated[member]
        else:
            mutated[member] = change(members[member])
        return mutated

    return member, mutate


@FUZZ_SETTINGS
@given(mutation=mutations())
def test_a_mutated_checkpoint_reads_back_equal_or_is_refused_by_name(original, mutation):
    agent, source, members = original
    member, mutate = mutation
    path = source.with_name("mutated.npz")
    result = mutate(members, source.read_bytes())
    if isinstance(result, bytes):
        path.write_bytes(result)
    else:
        np.savez(path, **result)
    try:
        loaded, meta = load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        if member is not None:
            assert member in str(exc)
        return
    np.testing.assert_array_equal(loaded.net.flat, agent.net.flat)
    np.testing.assert_array_equal(loaded.target.flat, agent.target.flat)
    np.testing.assert_array_equal(loaded.optimizer.m, agent.optimizer.m)
    np.testing.assert_array_equal(loaded.optimizer.v, agent.optimizer.v)
    assert loaded.optimizer.t == agent.optimizer.t
    assert (loaded.transitions_seen, loaded.updates_done) == (
        agent.transitions_seen, agent.updates_done)
    assert loaded.config == agent.config
    assert loaded.rng.bit_generator.state == agent.rng.bit_generator.state
    assert meta == {"variant": "wad", "note": [1, 2]}


# Values a field must refuse or hold unharmed: bools, fractions, NaN and
# +-inf, huge and negative integers, and strings.
ODD = st.one_of(st.booleans(), st.fractions(), st.floats(),
                st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400]),
                st.integers(-10 ** 30, 10 ** 30), st.text(max_size=3))
INTEGERS = st.integers(-2, 8) | ODD
NUMBERS = st.floats(0.0, 1.0) | st.floats(0.0, 100.0) | ODD

TWO_PHASE = core.two_phase_intersection()

FIELDS = {
    Vehicle: dict(id=INTEGERS, spawn_time=INTEGERS, movement_id=INTEGERS),
    FlowDataset: dict(vehicles=st.just((Vehicle(0, 0, 0), Vehicle(1, 3, 1))),
                      duration=INTEGERS | st.just(MAX_FLOW_DURATION_S + 1)),
    Movement: dict(id=INTEGERS, in_lane=INTEGERS, out_direction=st.sampled_from(TURNS) | ODD,
                   approach=st.sampled_from(APPROACHES) | ODD),
    Phase: dict(id=INTEGERS, green_movements=st.frozensets(INTEGERS, max_size=3)),
    Lane: dict(length_m=NUMBERS, vmax_ms=NUMBERS),
    IntersectionSpec: dict(
        lanes=st.just(TWO_PHASE.lanes), movements=st.just(TWO_PHASE.movements),
        conflict_matrix=st.just(TWO_PHASE.conflict_matrix),
        phases=st.lists(st.frozensets(st.integers(-2, 6), min_size=1, max_size=2),
                        max_size=3).map(lambda sets: tuple(map(Phase, range(len(sets)), sets))),
        yellow_duration=INTEGERS),
    UniformProfile: dict(rate_per_lane=NUMBERS, n_lanes=INTEGERS),
    ClusteredProfile: dict(cluster_size=INTEGERS, inter_cluster_gap=NUMBERS, within_gap=NUMBERS,
                           lane_weights=st.lists(NUMBERS, max_size=3).map(tuple)),
    SotlParams: dict(threshold=NUMBERS, cluster_split=INTEGERS, min_green=INTEGERS,
                     detection_distance=NUMBERS),
    DQNConfig: dict(gamma=NUMBERS, lr=NUMBERS, batch_size=INTEGERS, tau=NUMBERS,
                    eps_start=NUMBERS, eps_end=NUMBERS, eps_decay_steps=INTEGERS,
                    replay_capacity=INTEGERS, seed=INTEGERS),
}
# The words a refusal may name a field by, where they are not its name.
ALIASES = {"out_direction": "turn"}


def is_integer(value, low=-math.inf, high=math.inf) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value <= high)


def is_finite(value, positive=True) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and (value > 0 if positive else value >= 0))


INVARIANTS = {
    Vehicle: lambda v: (is_integer(v.id) and is_integer(v.spawn_time, 0)
                        and is_integer(v.movement_id)),
    FlowDataset: lambda f: is_integer(f.duration, 4, MAX_FLOW_DURATION_S),
    Movement: lambda m: (is_integer(m.id) and is_integer(m.in_lane) and m.out_direction in TURNS
                         and m.approach in APPROACHES),
    Phase: lambda p: (is_integer(p.id) and len(p.green_movements) > 0
                      and all(is_integer(i) for i in p.green_movements)),
    Lane: lambda lane: type(lane.length_m) is type(lane.vmax_ms) is float and all(
        is_finite(x) for x in (lane.length_m, lane.vmax_ms)),
    IntersectionSpec: lambda s: (is_integer(s.yellow_duration, 1) and len(s.phases) > 0
                                 and all(is_integer(i, 0, 3)
                                         for p in s.phases for i in p.green_movements)),
    UniformProfile: lambda p: is_finite(p.rate_per_lane, False) and is_integer(p.n_lanes, 1),
    ClusteredProfile: lambda p: (is_integer(p.cluster_size, 1) and is_finite(p.inter_cluster_gap)
                                 and is_finite(p.within_gap)
                                 and all(is_finite(w, False) for w in p.lane_weights)
                                 and 0 < sum(p.lane_weights) < math.inf),
    SotlParams: lambda p: (is_finite(p.threshold) and is_integer(p.cluster_split)
                           and is_integer(p.min_green, 1) and is_finite(p.detection_distance)),
    DQNConfig: lambda c: (all(is_finite(x, False) and x <= 1
                              for x in (c.gamma, c.tau, c.eps_start, c.eps_end))
                          and c.eps_end <= c.eps_start and is_finite(c.lr)
                          and all(is_integer(n, 1) for n in (c.batch_size, c.eps_decay_steps,
                                                               c.replay_capacity))
                          and is_integer(c.seed, 0)),
}


def attempt(cls, **fields):
    """(cls, the record built from `fields`, or the ValueError refusing them)."""
    try:
        return cls, cls(**fields)
    except ValueError as exc:
        return cls, exc


RECORDS = st.one_of(*(st.builds(functools.partial(attempt, cls), **fields)
                      for cls, fields in FIELDS.items()))


@settings(max_examples=400, deadline=500, derandomize=True, database=None)
@given(drawn=RECORDS)
def test_a_record_built_from_odd_fields_holds_its_invariants_or_names_the_field(drawn):
    cls, outcome = drawn
    if isinstance(outcome, ValueError):
        names = [ALIASES.get(f.name, f.name) for f in dataclasses.fields(cls) if f.init]
        assert re.match(rf"({'|'.join(names)})\b", str(outcome)), (cls.__name__, outcome)
    else:
        assert INVARIANTS[cls](outcome), outcome


UNIFORM = "uniform(rate_per_lane=0.05,n_lanes=4)"
CONFIG = {
    "intersection": "spec.json", "flows": ["flow.json"],
    "flow_profiles": [{"profile": UNIFORM, "seed": 1, "duration": 300, "label": "u"}],
    "holdout_index": -1, "variant": "wad", "action_mode": "acyclic", "process": "smdp",
    "dqn": {"batch_size": 8, "lr": 1e-3}, "sotl": {"threshold": 10.0, "min_green": 5},
    "horizon": 120, "eval_every": 1, "total_epochs": 0, "seed": 0, "out_dir": "run",
    "controllers": ["fixed", "dqn:best.npz"], "repeats": 1,
}
# Where a value is swapped or dropped, as a path into CONFIG, and the objects
# that an unknown key is put into.
SWAP_AT = [(key,) for key in CONFIG] + [
    ("flows", 0), ("controllers", 1), ("flow_profiles", 0), ("dqn", "batch_size"), ("dqn", "lr"),
    ("sotl", "min_green")] + [("flow_profiles", 0, key) for key in CONFIG["flow_profiles"][0]]
UNKNOWN_AT = [(), ("dqn",), ("sotl",), ("flow_profiles", 0)]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, 2.5, -1, 0]),
    st.text(max_size=6),
    st.sampled_from(["flow.json", "fixed", "wad", "cyclic", "mdp", "bogus", UNIFORM, "dqn:"]),
    st.lists(st.integers(-2, 3) | st.text(max_size=3), max_size=2),
    st.dictionaries(st.sampled_from(["seed", "lr", "profile", "x"]), st.integers(-2, 3),
                    max_size=2))


@st.composite
def config_documents(draw):
    """(a mutated CONFIG, the field a refusal must name)."""
    doc = copy.deepcopy(CONFIG)
    kind = draw(st.sampled_from(["swap", "drop", "unknown"]))
    path = draw(st.sampled_from(UNKNOWN_AT if kind == "unknown" else SWAP_AT))
    if kind == "unknown":
        functools.reduce(operator.getitem, path, doc)["zz_unknown"] = draw(JSON_VALUES)
        return doc, path[0] if path else "zz_unknown"
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc, path[0]


def holds_its_kinds(config: ExperimentConfig, doc: dict) -> bool:
    """Every field of a loaded config is of its documented kind, as written."""
    counts = {"eval_every": 1, "total_epochs": 0, "repeats": 1, "holdout_index": -math.inf,
              "seed": -math.inf}
    return (isinstance(doc["intersection"], str) and isinstance(config.out_dir, str)
            and isinstance(doc.get("flows", []), list)
            and all(isinstance(f, str) for f in doc.get("flows", []))
            and config.variant in VARIANTS and config.action_mode in ACTION_MODES
            and config.process in ("mdp", "smdp")
            and all(is_integer(getattr(config, name), low) for name, low in counts.items())
            and (config.horizon is None or is_integer(config.horizon, 1, MAX_FLOW_DURATION_S))
            and INVARIANTS[DQNConfig](DQNConfig(**config.dqn))
            and INVARIANTS[SotlParams](SotlParams(**config.sotl))
            and len(harness._read_flow_profiles(config.flow_profiles))
            == len(doc.get("flow_profiles", []))
            and all(c in CONTROLLER_NAMES or c.startswith("dqn:") and len(c) > 4
                    for c in config.controllers))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@settings(max_examples=300, deadline=500, derandomize=True, database=None)
@given(drawn=config_documents())
def test_a_mutated_config_loads_with_its_fields_of_their_kinds_or_is_refused_by_name(
        config_path, drawn):
    doc, field_name = drawn
    config_path.write_text(json.dumps(doc))
    try:
        config = ExperimentConfig.from_file(config_path)
    except ValueError as exc:
        assert field_name in str(exc), (doc, exc)
        return
    assert holds_its_kinds(config, doc), doc


# Out-of-range ids for either document: movement and lane ids past the
# two-phase intersection's 4, negative ones, and arrays of them.
DOC_VALUES = JSON_VALUES | st.sampled_from([-1, 4, 5, 99, 10 ** 30]) | st.lists(
    st.integers(-2, 6) | st.sampled_from([True, 2.5, math.nan]), max_size=3)


def json_paths(doc, prefix=()):
    """Every path into `doc`, the document itself (`()`) first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from json_paths(value, prefix + (key,))


@st.composite
def mutated_documents(draw, base):
    """(`base` with one change, the path of the change)."""
    doc = copy.deepcopy(base)
    paths = list(json_paths(base))
    kind = draw(st.sampled_from(["swap", "drop", "unknown", "reshape"]))
    if kind == "unknown":
        path = draw(st.sampled_from([p for p in paths
                                     if isinstance(functools.reduce(operator.getitem, p, base),
                                                   dict)]))
        functools.reduce(operator.getitem, path, doc)["zz_unknown"] = draw(DOC_VALUES)
        return doc, path
    path = draw(st.sampled_from(paths if kind == "swap" else paths[1:]))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if kind == "drop":
        del parent[path[-1]]
        return doc, path
    if kind == "swap":
        value = draw(DOC_VALUES)
    else:
        old = parent[path[-1]]
        value = old[:1] if isinstance(old, list) and draw(st.booleans()) else [old]
    if not path:
        return value, path
    parent[path[-1]] = value
    return doc, path


def names_the_path(message: str, path: tuple, patterns: dict, related: dict) -> bool:
    """Whether `message` names the top-level key of `path` (`""` for the whole
    document) or a key that `related` lists for it, by the `patterns` of each
    key."""
    top = path[0] if path else ""
    return any(re.search(patterns[key], message) for key in related.get(top, (top,)))


INTERSECTION = core.intersection_to_document(TWO_PHASE)
INTERSECTION_PATTERNS = {
    "": r"^(unknown )?intersection document", "yellow_duration": r"\byellow_duration\b",
    "lanes": r"\blanes\b|\blane \d+|\.lane\b", "movements": r"\bmovements\b",
    "conflicts": r"\bconflicts\b", "phases": r"\bphases\b",
}
# A key whose change is refused where another key refers to it: a lane
# dropped leaves a movement on a lane the intersection lacks, a movement
# dropped leaves its lane empty or a phase serving it, and a conflict added
# inside a phase is refused by that phase.
INTERSECTION_RELATED = {"lanes": ("lanes", "movements"),
                        "movements": ("movements", "lanes", "phases"),
                        "conflicts": ("conflicts", "phases")}
# tests/test_core.py pins this message, which names no path.
PINNED_CONFLICT_RANGE = re.compile(r"^conflict pair \(-?\d+, -?\d+\) out of range$")


@settings(max_examples=300, deadline=500, derandomize=True, database=None)
@given(drawn=mutated_documents(INTERSECTION))
def test_a_mutated_intersection_document_loads_back_equal_or_is_refused_by_path(drawn):
    doc, path = drawn
    try:
        spec = core.load_intersection(json.dumps(doc))
    except ValueError as exc:
        assert (PINNED_CONFLICT_RANGE.match(str(exc))
                or names_the_path(str(exc), path, INTERSECTION_PATTERNS,
                                  INTERSECTION_RELATED)), (path, doc, exc)
        return
    assert core.load_intersection(json.dumps(core.intersection_to_document(spec))) == spec


FLOW = core.flow_to_document(FlowDataset((Vehicle(0, 0, 0), Vehicle(1, 3, 2), Vehicle(2, 3, 1)),
                                         duration=60, label="f"))
FLOW_PATTERNS = {"": r"^(a |unknown )?flow document", "duration_s": r"\bduration_s\b",
                 "label": r"\blabel\b", "vehicles": r"\bvehicles\b"}
# A shorter duration is refused by the first vehicle it leaves past the end.
FLOW_RELATED = {"duration_s": ("duration_s", "vehicles")}


@settings(max_examples=300, deadline=500, derandomize=True, database=None)
@given(drawn=mutated_documents(FLOW))
def test_a_mutated_flow_document_loads_back_equal_or_is_refused_by_path(drawn):
    doc, path = drawn
    try:
        flow = core.load_flow(json.dumps(doc))
    except ValueError as exc:
        assert names_the_path(str(exc), path, FLOW_PATTERNS, FLOW_RELATED), (path, doc, exc)
        return
    assert core.load_flow(json.dumps(core.flow_to_document(flow))) == flow


PROFILE_LITERALS = (
    "uniform(rate_per_lane=0.05,n_lanes=8)",
    "clustered(cluster_size=5,inter_cluster_gap=60,within_gap=2,lane_weights=1:0.5:0:2)",
)
PROFILE_VALUES = ("nan", "inf", "-1", "1e400", "", "1:", "0", "2.5", "1e9")
PARAMETERS = ("rate_per_lane", "n_lanes", "cluster_size", "inter_cluster_gap", "within_gap",
              "lane_weights")


@st.composite
def mutated_profiles(draw):
    """(a valid profile literal with one change, the parameter a refusal names:
    the new name of a renamed one)."""
    kind, _, body = draw(st.sampled_from(PROFILE_LITERALS))[:-1].partition("(")
    params = [part.split("=") for part in body.split(",")]
    k = draw(st.integers(0, len(params) - 1))
    key, value = params[k]
    change = draw(st.sampled_from(["drop", "repeat", "rename", "swap"]))
    if change == "drop":
        del params[k]
    elif change == "repeat":
        params.insert(draw(st.integers(0, len(params))),
                      [key, draw(st.sampled_from((value,) + PROFILE_VALUES))])
    elif change == "rename":
        key = draw(st.sampled_from((key.upper(), key[:-1], key + "s", f" {key} ") + PARAMETERS))
        params[k][0] = key
    elif key == "lane_weights" and draw(st.booleans()):
        weights = value.split(":")
        weights[draw(st.integers(0, len(weights) - 1))] = draw(st.sampled_from(PROFILE_VALUES))
        params[k][1] = ":".join(weights)
    else:
        params[k][1] = draw(st.sampled_from(PROFILE_VALUES))
    return f"{kind}({','.join('='.join(p) for p in params)})", key.strip()


@settings(max_examples=300, deadline=500, derandomize=True, database=None)
@given(drawn=mutated_profiles())
def test_a_mutated_profile_literal_parses_to_a_generable_profile_or_is_refused_by_name(drawn):
    literal, name = drawn
    try:
        core.check_flow_size(core.parse_profile(literal), 60)
    except ValueError as exc:
        assert re.search(rf"\b{name}\b", str(exc)), (literal, exc)
