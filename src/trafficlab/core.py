"""Static intersection model: movements, conflicts, phases, and vehicle flows."""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import operator
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

APPROACHES = ("N", "E", "S", "W")
TURNS = ("straight", "left")
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}

DEFAULT_LANE_LENGTH_M = 300.0
DEFAULT_VMAX_MS = 11.0
DEFAULT_BODY_LENGTH_M = 5.0
DEFAULT_YELLOW_S = 5


def require_integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """`value`, refused with a ValueError naming the field if it is not an
    integer (NaN, inf, fractions and bools included) or lies outside
    `low`..`high`, where these are given."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value!r}")
    return value


def require_finite(name: str, value, positive: bool = True) -> float:
    """`value` as a float, refused with a ValueError naming the field unless it
    is a real number (a bool or a string is not one) that is finite and
    positive, or non-negative where `positive` is false."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number within the float range") from None
    if not (math.isfinite(number) and (number > 0 if positive else number >= 0)):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be {sign} and finite, got {value!r}")
    return number


def reject_unknown_keys(where: str, doc: dict, accepted) -> None:
    """Refuse, with a ValueError naming `where`, a `doc` that is not an object,
    and one whose keys `accepted` lacks, naming them and listing `accepted`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = [key for key in doc if key not in accepted]
    if unknown:
        raise ValueError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                         f"accepted keys: {', '.join(accepted)}")


def read_document(path, parse):
    """`parse` applied to the UTF-8 text of the file at `path`. A ValueError
    from reading or parsing it (undecodable bytes and malformed JSON included)
    is re-raised with the file named after its message."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{exc} (in {path})") from exc


@contextlib.contextmanager
def output_file(path, binary: bool = False):
    """The one writer of output files: a handle on `<name>.tmp` beside `path`
    (UTF-8 text, no newline translation, or bytes), its directory made if
    missing. It replaces `path` when the block ends, or is deleted if it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".tmp")
    try:
        with (open(partial, "wb") if binary
              else open(partial, "w", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def require_writable(name: str, path, directory: bool = False) -> None:
    """Refuse an output path that cannot be written, before any work: an
    existing directory given as a file (or a file given as a directory), or a
    path under an existing file. `name` is the flag or config key that gave it."""
    path = Path(path)
    if path.exists():
        if path.is_dir() != directory:
            raise ValueError(f"{name} {path} cannot be written: it is "
                             f"{'a directory' if path.is_dir() else 'a file'}")
        return
    # A path that does not exist has an ancestor that does: `.` or the root.
    parent = next(p for p in path.parents if p.exists())
    if not parent.is_dir():
        raise ValueError(f"{name} {path} cannot be written: {parent} is a file")


@dataclass(frozen=True)
class Movement:
    """One traffic stream: an incoming lane and where it goes."""

    id: int
    in_lane: int
    out_direction: str  # "straight" | "left"
    approach: str       # "N" | "E" | "S" | "W"

    def __post_init__(self):
        require_integer("id", self.id)
        require_integer("in_lane", self.in_lane)
        # named by their document keys, which the reader prefixes with the path
        if self.out_direction not in TURNS:
            raise ValueError(f"turn must be one of {', '.join(TURNS)}, got {self.out_direction!r}")
        if self.approach not in APPROACHES:
            raise ValueError(f"approach must be one of {', '.join(APPROACHES)}, "
                             f"got {self.approach!r}")


@dataclass(frozen=True)
class ConflictMatrix:
    """Symmetric boolean conflict relation over movement ids."""

    rows: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError("conflict matrix must be square")
            if row[i]:
                raise ValueError("a movement cannot conflict with itself")
            for j in range(n):
                if row[j] != self.rows[j][i]:
                    raise ValueError("conflict matrix must be symmetric")

    @property
    def size(self) -> int:
        return len(self.rows)

    def conflicts(self, i: int, j: int) -> bool:
        return self.rows[i][j]

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "ConflictMatrix":
        rows = [[False] * n for _ in range(n)]
        for i, j in pairs:  # __post_init__ refuses i == j
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"conflict pair ({i}, {j}) out of range")
            rows[i][j] = True
            rows[j][i] = True
        return cls(tuple(tuple(r) for r in rows))


def default_conflicts(movements) -> ConflictMatrix:
    """Standard four-arm rule: two movements are compatible iff they share an
    approach, or run the same turn from opposite approaches. Everything else
    conflicts."""
    pairs = []
    for a, b in itertools.combinations(movements, 2):
        same_approach = a.approach == b.approach
        opposing_same_turn = (
            a.out_direction == b.out_direction and OPPOSITE[a.approach] == b.approach
        )
        if not (same_approach or opposing_same_turn):
            pairs.append((a.id, b.id))
    return ConflictMatrix.from_pairs(len(movements), pairs)


@dataclass(frozen=True)
class Phase:
    """A set of movements that may be green simultaneously."""

    id: int
    green_movements: frozenset[int]

    def __post_init__(self):
        require_integer("id", self.id)
        if not self.green_movements:
            raise ValueError("green_movements must hold at least one movement id")
        for member in self.green_movements:
            require_integer("green_movements", member)


@dataclass(frozen=True)
class Lane:
    length_m: float = DEFAULT_LANE_LENGTH_M
    vmax_ms: float = DEFAULT_VMAX_MS

    def __post_init__(self):
        for name in ("length_m", "vmax_ms"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))


# The most movements (so lanes, one movement each) and phases a spec may have;
# the ready-made specs have 8 and 8. The lookup tables are lanes x phases, and a
# document without phases gets one per compatible movement pair: 400 lanes with
# no conflicts make 79,800 phases and tables of 32 million entries.
MAX_MOVEMENTS = 128
MAX_PHASES = 1024


@dataclass(frozen=True)
class IntersectionSpec:
    """Immutable intersection topology plus derived phase set and lookup tables."""

    lanes: tuple[Lane, ...]
    movements: tuple[Movement, ...]
    conflict_matrix: ConflictMatrix
    phases: tuple[Phase, ...]
    yellow_duration: int = DEFAULT_YELLOW_S
    # Derived by __post_init__, shared by every reader (who must not write to
    # them) and no part of the spec's identity: per phase, the lanes it serves
    # and each lane's green flag; per lane, the phases that serve it and its
    # (length_m, vmax_ms); per movement, its lane.
    phase_lanes: list = field(init=False, compare=False, repr=False)
    lane_green: list = field(init=False, compare=False, repr=False)
    lane_phases: list = field(init=False, compare=False, repr=False)
    lane_geometry: list = field(init=False, compare=False, repr=False)
    movement_lane: list = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        require_integer("yellow_duration", self.yellow_duration, 1)
        require_integer("len(movements)", len(self.movements), high=MAX_MOVEMENTS)
        require_integer("len(phases)", len(self.phases), high=MAX_PHASES)
        if not self.phases:
            raise ValueError("phases must list at least one phase")
        if self.conflict_matrix.size != len(self.movements):
            raise ValueError("conflict matrix size does not match movements")
        movement_lane = [m.in_lane for m in self.movements]
        lane_ids = range(len(self.lanes))
        carried = [[] for _ in lane_ids]
        for k, lane in enumerate(movement_lane):
            if lane not in lane_ids:
                raise ValueError(f"movements[{k}].lane is {lane}, which the intersection "
                                 f"lacks (0..{len(self.lanes) - 1})")
            carried[lane].append(k)
        for j, ks in enumerate(carried):
            if len(ks) != 1:
                raise ValueError(f"lane {j} carries movements {ks}; each lane must carry "
                                 "exactly one movement")
        for k, m in enumerate(self.movements):
            if m.id != k:
                raise ValueError("movement ids must be dense 0..J-1")
        for k, p in enumerate(self.phases):
            if p.id != k:
                raise ValueError("phase ids must be dense 0..I-1")
            members = sorted(p.green_movements)
            for i in (members[0], members[-1]):
                if not 0 <= i < len(self.movements):
                    raise ValueError(f"phases[{k}] serves movement {i}, which the "
                                     f"intersection lacks (0..{len(self.movements) - 1})")
            for i, j in itertools.combinations(members, 2):
                if self.conflict_matrix.conflicts(i, j):
                    raise ValueError(
                        f"phases[{k}] puts conflicting movements {i} and {j} on green"
                    )
        phase_lanes = [frozenset(movement_lane[m] for m in p.green_movements) for p in self.phases]
        for name, table in (
                ("phase_lanes", phase_lanes), ("movement_lane", movement_lane),
                ("lane_green", [[j in lanes for j in lane_ids] for lanes in phase_lanes]),
                ("lane_phases", [[i for i, lanes in enumerate(phase_lanes) if j in lanes]
                                 for j in lane_ids]),
                ("lane_geometry", [(lane.length_m, lane.vmax_ms) for lane in self.lanes])):
            object.__setattr__(self, name, table)

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def lane_of_movement(self, movement_id: int) -> int:
        return self.movement_lane[movement_id]

    def green_lanes(self, phase_id: int) -> frozenset[int]:
        return self.phase_lanes[phase_id]


@dataclass(frozen=True)
class Vehicle:
    id: int
    spawn_time: int
    movement_id: int
    body_length: float = DEFAULT_BODY_LENGTH_M

    def __post_init__(self):
        # Readers and the generator give exact ints: the general check runs
        # only on a miss, since a flow builds a Vehicle per vehicle.
        if not (type(self.id) is int and type(self.spawn_time) is int
                and type(self.movement_id) is int):
            for name in ("id", "spawn_time", "movement_id"):
                require_integer(name, getattr(self, name))
        if self.spawn_time < 0:
            raise ValueError(f"spawn_time must be non-negative, got {self.spawn_time}")


@dataclass(frozen=True)
class FlowDataset:
    """A fixed demand scenario: vehicles sorted by spawn time."""

    vehicles: tuple[Vehicle, ...]
    duration: int
    label: str = ""

    def __post_init__(self):
        require_integer("duration", self.duration, 0, MAX_FLOW_DURATION_S)
        last = 0
        for v in self.vehicles:
            if v.spawn_time < last:
                raise ValueError(f"{self._where(v)} spawns at {v.spawn_time} s, before "
                                 f"the vehicle ahead of it at {last} s; "
                                 "vehicles must be sorted by spawn_time")
            if v.spawn_time >= self.duration:
                raise ValueError(f"{self._where(v)} spawns at {v.spawn_time} s, at or past "
                                 f"the end of the {self.duration} s flow; "
                                 "spawn times must fall within the flow duration")
            last = v.spawn_time

    def _where(self, vehicle: "Vehicle") -> str:
        """`vehicles[k]` for this vehicle, looked up only once a rule fails."""
        k = next(k for k, v in enumerate(self.vehicles) if v is vehicle)
        return f"vehicles[{k}]"


def check_flow(spec: IntersectionSpec, flow: FlowDataset) -> None:
    """Reject a flow that does not fit the spec: a movement id the spec lacks,
    a vehicle id used twice (travel times are keyed by id) or a body length
    that is not positive (lanes keep their vehicles front first with falling
    positions only if every jam spacing is positive)."""
    n_movements = len(spec.movements)
    seen = set()
    for vehicle in flow.vehicles:
        if not 0 <= vehicle.movement_id < n_movements:
            problem = (f"movement {vehicle.movement_id} is not a movement of the "
                       f"intersection (0..{n_movements - 1})")
        elif vehicle.id in seen:
            problem = "id is used by another vehicle of the flow"
        elif not vehicle.body_length > 0:
            problem = f"body length {vehicle.body_length} is not positive"
        else:
            seen.add(vehicle.id)
            continue
        raise ValueError(f"flow {flow.label!r}: vehicle {vehicle.id}: {problem}")


def enumerate_phases(movements, conflict_matrix: ConflictMatrix, pair_size: int = 2):
    """All size-`pair_size` sets of mutually non-conflicting movements, in
    lexicographic order of their sorted member ids, with dense phase ids."""
    if pair_size < 1:
        raise ValueError("pair_size must be at least 1")
    ids = sorted(m.id for m in movements)
    phases = []
    for combo in itertools.combinations(ids, pair_size):
        if any(conflict_matrix.conflicts(i, j) for i, j in itertools.combinations(combo, 2)):
            continue
        phases.append(Phase(id=len(phases), green_movements=frozenset(combo)))
    if not phases:
        raise ValueError("no feasible phases")
    return phases


INTERSECTION_KEYS = ("yellow_duration", "lanes", "movements", "conflicts", "phases")
LANE_KEYS = ("length_m", "vmax_ms")
MOVEMENT_KEYS = ("lane", "approach", "turn")


def load_intersection(spec_text: str) -> IntersectionSpec:
    """Parse an intersection document (JSON) into a validated IntersectionSpec.

    Top-level fields: yellow_duration, lanes ([{length_m, vmax_ms}]),
    movements ([{lane, approach, turn}]), optional conflicts ([[i, j], ...]),
    optional phases ([[movement ids], ...]).

    The reader checks the document's shape: a key outside these (at the top
    level, in a lane or in a movement) or a lane or movement lacking one, an
    array or an object that is not one, more movements, lanes or phases than
    MAX_MOVEMENTS and MAX_PHASES allow, a value that is not an integer where
    one goes, a conflict pair of one movement, an empty phase and a phase
    member that is not a movement of the document. The records check the
    rest (see Lane, Movement, Phase and IntersectionSpec). Either way a
    refusal is a ValueError naming the path, such as `movements[1].lane` or
    `phases[0][1]`; only a conflict pair outside the movements is named by
    its ids.
    """
    try:
        doc = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed intersection document: {exc}") from exc
    reject_unknown_keys("intersection document", doc, INTERSECTION_KEYS)
    for key in ("lanes", "movements", "conflicts", "phases"):
        if not isinstance(doc.get(key, []), list):
            raise ValueError(f"{key} must be an array, got {type(doc[key]).__name__}")
    for key, cap in (("movements", MAX_MOVEMENTS), ("lanes", MAX_MOVEMENTS),
                     ("phases", MAX_PHASES)):  # before any phase is enumerated
        require_integer(f"len({key})", len(doc.get(key, [])), high=cap)
    for key, accepted in (("lanes", LANE_KEYS), ("movements", MOVEMENT_KEYS)):
        for k, item in enumerate(doc.get(key, [])):
            reject_unknown_keys(f"{key}[{k}]", item, accepted)
            for name in accepted:
                if name not in item:
                    raise ValueError(f"{key}[{k}] lacks {name!r}")
    lanes, movements = [], []
    try:
        yellow = doc["yellow_duration"]
        for k, lane in enumerate(doc["lanes"]):
            where = f"lanes[{k}]."
            lanes.append(Lane(lane["length_m"], lane["vmax_ms"]))
        for k, m in enumerate(doc["movements"]):
            where = f"movements[{k}]."
            movements.append(Movement(k, require_integer("lane", m["lane"]), m["turn"],
                                      m["approach"]))
    except KeyError as exc:
        raise ValueError(f"intersection document missing field: {exc}") from exc
    except ValueError as exc:  # a record's refusal, which names its field
        raise ValueError(f"{where}{exc}") from None

    # Each conflict pair and phase as an array of movement ids; ConflictMatrix
    # refuses a pair outside the movements, and the spec a phase member.
    for key, size in (("conflicts", 2), ("phases", None)):
        for k, ids in enumerate(doc.get(key, [])):
            if not isinstance(ids, list) or not ids or len(ids) != (size or len(ids)):
                raise ValueError(f"{key}[{k}] must be an array of "
                                 f"{size or 'one or more'} movement ids, got {ids!r}")
            for m, i in enumerate(ids):
                require_integer(f"{key}[{k}][{m}]", i)
                if size is None and not 0 <= i < len(movements):
                    raise ValueError(f"{key}[{k}][{m}] is movement {i}, which the "
                                     f"intersection lacks (0..{len(movements) - 1})")
            if size and ids[0] == ids[1]:
                raise ValueError(f"{key}[{k}] pairs movement {ids[0]} with itself")
    if "conflicts" in doc:
        matrix = ConflictMatrix.from_pairs(len(movements), doc["conflicts"])
    else:
        matrix = default_conflicts(movements)
    if "phases" in doc:
        phases = tuple(Phase(k, frozenset(members)) for k, members in enumerate(doc["phases"]))
    else:
        phases = tuple(enumerate_phases(movements, matrix))
    return IntersectionSpec(tuple(lanes), tuple(movements), matrix, phases, yellow)


def intersection_to_document(spec: IntersectionSpec) -> dict:
    """Inverse of load_intersection, suitable for json.dump."""
    return {
        "yellow_duration": spec.yellow_duration,
        "lanes": [{"length_m": l.length_m, "vmax_ms": l.vmax_ms} for l in spec.lanes],
        "movements": [
            {"lane": m.in_lane, "approach": m.approach, "turn": m.out_direction}
            for m in spec.movements
        ],
        "conflicts": [
            [i, j]
            for i in range(len(spec.movements))
            for j in range(i + 1, len(spec.movements))
            if spec.conflict_matrix.conflicts(i, j)
        ],
        "phases": [sorted(p.green_movements) for p in spec.phases],
    }


def default_intersection(lane_length_m: float = DEFAULT_LANE_LENGTH_M,
                         vmax_ms: float = DEFAULT_VMAX_MS,
                         yellow_duration: int = DEFAULT_YELLOW_S) -> IntersectionSpec:
    """Four-arm intersection with a straight and a left movement per arm
    (8 lanes, 8 movements, 8 two-movement phases)."""
    return _four_arm(TURNS, lane_length_m, vmax_ms, yellow_duration)


def two_phase_intersection(lane_length_m: float = DEFAULT_LANE_LENGTH_M,
                           vmax_ms: float = DEFAULT_VMAX_MS,
                           yellow_duration: int = DEFAULT_YELLOW_S) -> IntersectionSpec:
    """Four straight-only arms and the classic two phases (NS green, WE green)."""
    return _four_arm(("straight",), lane_length_m, vmax_ms, yellow_duration)


def _four_arm(turns, lane_length_m: float, vmax_ms: float,
              yellow_duration: int) -> IntersectionSpec:
    """A lane and a movement per approach and turn of `turns`, approach by
    approach, and every compatible movement pair as a phase."""
    movements = tuple(Movement(id=k, in_lane=k, approach=approach, out_direction=turn)
                      for k, (approach, turn) in enumerate(itertools.product(APPROACHES, turns)))
    matrix = default_conflicts(movements)
    return IntersectionSpec(tuple(Lane(lane_length_m, vmax_ms) for _ in movements), movements,
                            matrix, tuple(enumerate_phases(movements, matrix)), yellow_duration)


@dataclass(frozen=True)
class UniformProfile:
    """Independent per-lane Poisson arrivals at `rate_per_lane` vehicles/second."""

    rate_per_lane: float
    n_lanes: int

    def __post_init__(self):
        # expovariate(inf) is 0.0, so an infinite rate never ends the flow
        require_finite("rate_per_lane", self.rate_per_lane, positive=False)
        require_integer("n_lanes", self.n_lanes, 1)


@dataclass(frozen=True)
class ClusteredProfile:
    """Platoons of `cluster_size` vehicles, `within_gap` seconds apart inside a
    platoon, platoon starts `inter_cluster_gap` seconds apart, each platoon's
    lane drawn from `lane_weights`."""

    cluster_size: int
    inter_cluster_gap: float
    within_gap: float
    lane_weights: tuple[float, ...]

    def __post_init__(self):
        require_integer("cluster_size", self.cluster_size, 1)
        require_finite("inter_cluster_gap", self.inter_cluster_gap)
        require_finite("within_gap", self.within_gap)
        for weight in self.lane_weights:
            require_finite("lane_weights", weight, positive=False)
        if not 0 < sum(self.lane_weights) < math.inf:
            raise ValueError(f"lane_weights must be non-negative and finite with a "
                             f"positive, finite sum, got {self.lane_weights!r}")


# The most vehicles a profile may yield over its duration, and the most lanes
# a uniform profile may have (see check_flow_size).
MAX_FLOW_VEHICLES = 1_000_000
# The longest flow, in simulated seconds (about 11.6 days): FlowDataset and
# the config's horizon refuse more, since an episode ticks once per second.
MAX_FLOW_DURATION_S = 1_000_000


def flow_size_bound(profile, duration: int) -> float:
    """An upper bound on the vehicles `generate_flow` yields from `profile`
    over `duration` seconds, computed without generating them.

    Clustered: the platoon starts below `duration` times the longest platoon
    that fits in it, `min(cluster_size, floor(duration / within_gap) + 1)`.
    The starts are counted as `ceil(duration / inter_cluster_gap) + 1`: the
    generator's start clock is a running float sum, which can fall short of a
    multiple of the gap and so fit one more start.
    Uniform: the vehicles are a Poisson count with mean `rate_per_lane *
    n_lanes * duration`, and the bound is that mean plus ten standard
    deviations plus 40, which a draw exceeds with a probability below 1e-22.
    """
    if isinstance(profile, UniformProfile):
        mean = profile.rate_per_lane * profile.n_lanes * duration
        return mean + 10 * math.sqrt(mean) + 40
    if isinstance(profile, ClusteredProfile):
        starts = -(-duration // profile.inter_cluster_gap) + 1
        return starts * min(profile.cluster_size, duration // profile.within_gap + 1)
    raise TypeError(f"unknown flow profile {type(profile).__name__}")


def check_flow_size(profile, duration: int) -> None:
    """Refuse, with a ValueError naming the profile's fields, a profile that
    may yield more than MAX_FLOW_VEHICLES vehicles over `duration` seconds,
    and a uniform profile with more than MAX_FLOW_VEHICLES lanes, which the
    generator would visit one by one."""
    try:
        bound = flow_size_bound(profile, duration)
    except OverflowError:  # a duration beyond the float range
        bound = math.inf
    if bound > MAX_FLOW_VEHICLES:
        raise ValueError(f"{profile!r} may yield up to {bound:.3g} vehicles over {duration} s, "
                         f"above the cap of {MAX_FLOW_VEHICLES} vehicles")
    if isinstance(profile, UniformProfile):
        require_integer("n_lanes", profile.n_lanes, high=MAX_FLOW_VEHICLES)


def generate_flow(profile, seed: int, duration: int, label: str = "") -> FlowDataset:
    """Deterministic synthetic demand from a profile and a seed. A profile
    that check_flow_size refuses is refused before generating, and a uniform
    profile at rate 0 yields its empty flow without visiting a lane."""
    require_integer("duration", duration, 0)
    check_flow_size(profile, duration)
    if isinstance(profile, UniformProfile) and profile.rate_per_lane == 0:
        return FlowDataset(vehicles=(), duration=duration, label=label)
    rng = random.Random(seed)
    raw: list[tuple[int, int]] = []  # (spawn_time, lane)
    if isinstance(profile, UniformProfile):
        for lane in range(profile.n_lanes):
            t = 0.0
            while True:
                t += rng.expovariate(profile.rate_per_lane)
                if t >= duration:  # as int(t) >= duration, but also for t = inf
                    break
                raw.append((int(t), lane))
    else:  # a ClusteredProfile, since check_flow_size refuses any other type
        lanes = list(range(len(profile.lane_weights)))
        # What choices(weights=...) sums on every call, so the draws are the same.
        cum_weights = list(itertools.accumulate(profile.lane_weights))
        start = 0.0
        while start < duration:
            lane = rng.choices(lanes, cum_weights=cum_weights)[0]
            # within_gap > 0, so a platoon's spawns only grow: the first one
            # at or past the duration ends it.
            for k in range(profile.cluster_size):
                spawn = int(start + k * profile.within_gap)
                if spawn >= duration:
                    break
                raw.append((spawn, lane))
            start += profile.inter_cluster_gap

    raw.sort(key=operator.itemgetter(0))
    vehicles = tuple([Vehicle(k, spawn, lane) for k, (spawn, lane) in enumerate(raw)])
    return FlowDataset(vehicles=vehicles, duration=duration, label=label)


def split_dataset(datasets, holdout_index: int):
    """Hold one dataset out and cut it into disjoint first/second time halves.

    Returns (train_datasets, val, test); the holdout never appears in train.
    """
    if len(datasets) < 2:
        raise ValueError("need at least 2 datasets to split")
    if not (0 <= holdout_index < len(datasets)):
        raise ValueError("holdout_index out of range")
    train = [d for k, d in enumerate(datasets) if k != holdout_index]
    val, test = split_halves(datasets[holdout_index])
    return train, val, test


# The shortest flow `split_halves` cuts: validation, `compare` and `eval` run
# on its halves, which must last at least 1 s each.
MIN_SPLIT_DURATION_S = 2


def split_halves(dataset: FlowDataset) -> tuple[FlowDataset, FlowDataset]:
    """Cut one flow into its first and second time halves (second shifted to 0)."""
    if dataset.duration < MIN_SPLIT_DURATION_S:
        raise ValueError(f"flow {dataset.label!r} lasts {dataset.duration} s, too short to "
                         "split into halves of at least 1 s")
    half = dataset.duration // 2
    first = tuple(v for v in dataset.vehicles if v.spawn_time < half)
    second = tuple(
        Vehicle(v.id, v.spawn_time - half, v.movement_id, v.body_length)
        for v in dataset.vehicles
        if v.spawn_time >= half
    )
    val = FlowDataset(first, half, label=f"{dataset.label}/val")
    test = FlowDataset(second, dataset.duration - half, label=f"{dataset.label}/test")
    return val, test


FLOW_KEYS = ("duration_s", "label", "vehicles")
# Each Vehicle field and the key that holds it in a flow document.
VEHICLE_KEYS = {"id": "id", "spawn_time": "spawn_time_s", "movement_id": "movement"}


def load_flow(text: str) -> FlowDataset:
    """Parse a flow document: {"duration_s": int, "label": str (optional),
    "vehicles": [{id, spawn_time_s, movement}]}.

    A document that is not an object, lacks a key, has a key outside these,
    holds a value that is not an integer or a label that is not a string, a
    negative duration or spawn time, a duration above MAX_FLOW_DURATION_S, or
    vehicles out of spawn order or past the duration is refused with a
    ValueError naming the path, such as `vehicles[17].spawn_time_s`, and
    text that is not JSON as a malformed flow document. Vehicle and
    FlowDataset hold the rules on values; the reader names a refused field by
    its document key.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed flow document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"a flow document must be a JSON object, got {type(doc).__name__}")
    for key in ("duration_s", "vehicles"):
        if key not in doc:
            raise ValueError(f"flow document lacks {key}")
    reject_unknown_keys("flow document", doc, FLOW_KEYS)
    duration = require_integer("duration_s", doc["duration_s"], 0, MAX_FLOW_DURATION_S)
    rows = doc["vehicles"]
    if not isinstance(rows, list):
        raise ValueError(f"vehicles must be an array, got {type(rows).__name__}")
    vehicles = []
    for k, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"vehicles[{k}] must be an object, got {type(row).__name__}")
        vid, spawn, movement = row.get("id"), row.get("spawn_time_s"), row.get("movement")
        # json gives int for an integer, and three integers in a row of three
        # keys leave no room for another key; anything else is checked by key.
        if (type(vid) is not int or type(spawn) is not int or type(movement) is not int
                or len(row) != 3):
            for key in VEHICLE_KEYS.values():
                if key not in row:
                    raise ValueError(f"vehicles[{k}] lacks {key}")
            reject_unknown_keys(f"vehicles[{k}]", row, VEHICLE_KEYS.values())
        try:
            vehicles.append(Vehicle(vid, spawn, movement))
        except ValueError as exc:  # Vehicle names its field; the path names the key
            name, _, problem = str(exc).partition(" ")
            raise ValueError(f"vehicles[{k}].{VEHICLE_KEYS[name]} {problem}") from None
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {label!r}")
    return FlowDataset(vehicles=tuple(vehicles), duration=duration, label=label)


def flow_to_document(flow: FlowDataset) -> dict:
    """Inverse of load_flow: the document `flow_to_json` writes, parsed."""
    return json.loads(flow_to_json(flow))


def flow_to_json(flow: FlowDataset) -> str:
    """The flow document as compact JSON on one line, as `json.dumps` would
    write it, with each vehicle row formatted straight from its record. A
    document has no body length, so a vehicle whose body length is not the
    default is refused, naming it."""
    for k, v in enumerate(flow.vehicles):
        if v.body_length != DEFAULT_BODY_LENGTH_M:
            raise ValueError(f"flow {flow.label!r}: vehicles[{k}] has a body length of "
                             f"{v.body_length} m; a flow document holds only the default "
                             f"{DEFAULT_BODY_LENGTH_M} m")
    rows = ", ".join(['{"id": %d, "spawn_time_s": %d, "movement": %d}'
                      % (v.id, v.spawn_time, v.movement_id) for v in flow.vehicles])
    return ('{"duration_s": %d, "label": %s, "vehicles": [%s]}'
            % (flow.duration, json.dumps(flow.label), rows))


def _lane_weights(text: str) -> tuple[float, ...]:
    return tuple(float(w) for w in text.split(":"))


# Each profile literal's kind, its class and the parser of each parameter.
_PROFILE_KINDS = {
    "uniform": (UniformProfile, {"rate_per_lane": float, "n_lanes": int}),
    "clustered": (ClusteredProfile, {"cluster_size": int, "inter_cluster_gap": float,
                                     "within_gap": float, "lane_weights": _lane_weights}),
}


def parse_profile(text: str):
    """Parse a profile literal such as
    'uniform(rate_per_lane=0.05,n_lanes=8)' or
    'clustered(cluster_size=5,inter_cluster_gap=60,within_gap=2,lane_weights=1:0:0:0)'.

    A missing, unknown, repeated or unreadable parameter is refused with a
    ValueError that names it and lists the kind's parameters.
    """
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"malformed profile {text!r}")
    name, _, body = text.partition("(")
    if name not in _PROFILE_KINDS:
        raise ValueError(f"unknown profile kind {name!r}; accepted: {', '.join(_PROFILE_KINDS)}")
    cls, parsers = _PROFILE_KINDS[name]
    accepted = f"{name} takes {', '.join(parsers)}"
    kwargs = {}
    for part in body[:-1].split(","):
        if not part.strip():
            continue
        key, _, value = (piece.strip() for piece in part.partition("="))
        if key not in parsers:
            raise ValueError(f"unknown {name} parameter {key!r}; {accepted}")
        if key in kwargs:
            raise ValueError(f"{name} parameter {key!r} is given twice")
        try:
            kwargs[key] = parsers[key](value)
        except ValueError:
            raise ValueError(f"{name} parameter {key} cannot be read from {value!r}; "
                             f"{accepted}") from None
    missing = [key for key in parsers if key not in kwargs]
    if missing:
        raise ValueError(f"{name} profile lacks {', '.join(missing)}; {accepted}")
    return cls(**kwargs)
