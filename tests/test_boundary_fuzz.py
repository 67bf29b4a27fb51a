"""Boundary fuzzing: mutated inputs either read back to what was written or are
refused with a ValueError that names where they broke.

The checkpoint property starts from a valid version-2 file and drops,
reshapes, retypes or truncates one member, replaces a JSON block with a value
that is not an object, or cuts the file's bytes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficlab.agents import DQNAgent, DQNConfig, load_checkpoint, save_checkpoint
from trafficlab.env import Transition

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
