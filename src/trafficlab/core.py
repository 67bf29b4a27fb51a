"""Static intersection model: movements, conflicts, phases, and vehicle flows."""

from __future__ import annotations

import itertools
import json
import math
import numbers
import random
from dataclasses import dataclass

APPROACHES = ("N", "E", "S", "W")
TURNS = ("straight", "left")
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}

DEFAULT_LANE_LENGTH_M = 300.0
DEFAULT_VMAX_MS = 11.0
DEFAULT_BODY_LENGTH_M = 5.0
DEFAULT_YELLOW_S = 5


def require_integer(name: str, value) -> None:
    """Refuse, with a ValueError naming the field, a `value` that is not an
    integer: NaN, inf, fractions and bools included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_integers(obj, *names: str) -> None:
    """`require_integer` on each of `obj`'s fields `names`."""
    for name in names:
        require_integer(name, getattr(obj, name))


@dataclass(frozen=True)
class Movement:
    """One traffic stream: an incoming lane and where it goes."""

    id: int
    in_lane: int
    out_direction: str  # "straight" | "left"
    approach: str       # "N" | "E" | "S" | "W"

    def __post_init__(self):
        if self.out_direction not in TURNS:
            raise ValueError(f"unknown turn {self.out_direction!r}")
        if self.approach not in APPROACHES:
            raise ValueError(f"unknown approach {self.approach!r}")


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
        for i, j in pairs:
            if i == j:
                raise ValueError("a movement cannot conflict with itself")
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


@dataclass(frozen=True)
class Lane:
    length_m: float = DEFAULT_LANE_LENGTH_M
    vmax_ms: float = DEFAULT_VMAX_MS

    def __post_init__(self):
        for name in ("length_m", "vmax_ms"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"lane {name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class IntersectionSpec:
    """Immutable intersection topology plus derived phase set."""

    lanes: tuple[Lane, ...]
    movements: tuple[Movement, ...]
    conflict_matrix: ConflictMatrix
    phases: tuple[Phase, ...]
    yellow_duration: int = DEFAULT_YELLOW_S

    def __post_init__(self):
        if self.yellow_duration < 1:
            raise ValueError("yellow_duration must be at least 1 second")
        if self.conflict_matrix.size != len(self.movements):
            raise ValueError("conflict matrix size does not match movements")
        lanes_used = [m.in_lane for m in self.movements]
        if sorted(lanes_used) != list(range(len(self.lanes))):
            raise ValueError("each lane must carry exactly one movement")
        for k, m in enumerate(self.movements):
            if m.id != k:
                raise ValueError("movement ids must be dense 0..J-1")
        for k, p in enumerate(self.phases):
            if p.id != k:
                raise ValueError("phase ids must be dense 0..I-1")
            for i, j in itertools.combinations(sorted(p.green_movements), 2):
                if self.conflict_matrix.conflicts(i, j):
                    raise ValueError(
                        f"phase {p.id} puts conflicting movements {i} and {j} on green"
                    )

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def lane_of_movement(self, movement_id: int) -> int:
        return self.movements[movement_id].in_lane

    def green_lanes(self, phase_id: int) -> frozenset[int]:
        return frozenset(
            self.movements[m].in_lane for m in self.phases[phase_id].green_movements
        )


@dataclass(frozen=True)
class Vehicle:
    id: int
    spawn_time: int
    movement_id: int
    body_length: float = DEFAULT_BODY_LENGTH_M

    def __post_init__(self):
        if self.spawn_time < 0:
            raise ValueError("spawn_time must be non-negative")


@dataclass(frozen=True)
class FlowDataset:
    """A fixed demand scenario: vehicles sorted by spawn time."""

    vehicles: tuple[Vehicle, ...]
    duration: int
    label: str = ""

    def __post_init__(self):
        last = 0
        for v in self.vehicles:
            if v.spawn_time < last:
                raise ValueError("vehicles must be sorted by spawn_time")
            if v.spawn_time >= self.duration:
                raise ValueError("spawn times must fall within the flow duration")
            last = v.spawn_time


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


def load_intersection(spec_text: str) -> IntersectionSpec:
    """Parse an intersection document (JSON) into a validated IntersectionSpec.

    Top-level fields: yellow_duration, lanes ([{length_m, vmax_ms}]),
    movements ([{lane, approach, turn}]), optional conflicts ([[i, j], ...]),
    optional phases ([[movement ids], ...]).
    """
    try:
        doc = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed intersection document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("intersection document must be an object")
    try:
        lanes = tuple(
            Lane(length_m=float(l["length_m"]), vmax_ms=float(l["vmax_ms"]))
            for l in doc["lanes"]
        )
        movements = tuple(
            Movement(
                id=k,
                in_lane=int(m["lane"]),
                approach=str(m["approach"]),
                out_direction=str(m["turn"]),
            )
            for k, m in enumerate(doc["movements"])
        )
        yellow = int(doc["yellow_duration"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"intersection document missing field: {exc}") from exc

    if "conflicts" in doc:
        matrix = ConflictMatrix.from_pairs(len(movements), doc["conflicts"])
    else:
        matrix = default_conflicts(movements)

    if "phases" in doc:
        phases = tuple(
            Phase(id=k, green_movements=frozenset(int(m) for m in members))
            for k, members in enumerate(doc["phases"])
        )
    else:
        phases = tuple(enumerate_phases(movements, matrix))

    return IntersectionSpec(
        lanes=lanes,
        movements=movements,
        conflict_matrix=matrix,
        phases=phases,
        yellow_duration=yellow,
    )


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


def default_intersection(
    lane_length_m: float = DEFAULT_LANE_LENGTH_M,
    vmax_ms: float = DEFAULT_VMAX_MS,
    yellow_duration: int = DEFAULT_YELLOW_S,
) -> IntersectionSpec:
    """Four-arm intersection with a straight and a left movement per arm
    (8 lanes, 8 movements, 8 two-movement phases)."""
    movements = []
    for approach in APPROACHES:
        for turn in TURNS:
            movements.append(
                Movement(
                    id=len(movements),
                    in_lane=len(movements),
                    approach=approach,
                    out_direction=turn,
                )
            )
    movements = tuple(movements)
    matrix = default_conflicts(movements)
    return IntersectionSpec(
        lanes=tuple(Lane(lane_length_m, vmax_ms) for _ in movements),
        movements=movements,
        conflict_matrix=matrix,
        phases=tuple(enumerate_phases(movements, matrix)),
        yellow_duration=yellow_duration,
    )


def two_phase_intersection(
    lane_length_m: float = DEFAULT_LANE_LENGTH_M,
    vmax_ms: float = DEFAULT_VMAX_MS,
    yellow_duration: int = DEFAULT_YELLOW_S,
) -> IntersectionSpec:
    """Four straight-only arms and the classic two phases (NS green, WE green)."""
    movements = tuple(
        Movement(id=k, in_lane=k, approach=a, out_direction="straight")
        for k, a in enumerate(APPROACHES)
    )
    matrix = default_conflicts(movements)
    return IntersectionSpec(
        lanes=tuple(Lane(lane_length_m, vmax_ms) for _ in movements),
        movements=movements,
        conflict_matrix=matrix,
        phases=tuple(enumerate_phases(movements, matrix)),
        yellow_duration=yellow_duration,
    )


@dataclass(frozen=True)
class UniformProfile:
    """Independent per-lane Poisson arrivals at `rate_per_lane` vehicles/second."""

    rate_per_lane: float
    n_lanes: int

    def __post_init__(self):
        if self.rate_per_lane < 0:
            raise ValueError("arrival rate must be non-negative")
        if self.n_lanes < 1:
            raise ValueError("need at least one lane")


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
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be at least 1")
        if self.inter_cluster_gap <= 0 or self.within_gap <= 0:
            raise ValueError("gaps must be positive")
        if not self.lane_weights or min(self.lane_weights) < 0 or sum(self.lane_weights) == 0:
            raise ValueError("lane_weights must be non-negative with a positive sum")


def generate_flow(profile, seed: int, duration: int, label: str = "") -> FlowDataset:
    """Deterministic synthetic demand from a profile and a seed."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    rng = random.Random(seed)
    raw: list[tuple[int, int]] = []  # (spawn_time, lane)
    if isinstance(profile, UniformProfile):
        for lane in range(profile.n_lanes):
            if profile.rate_per_lane == 0:
                continue
            t = 0.0
            while True:
                t += rng.expovariate(profile.rate_per_lane)
                spawn = int(t)
                if spawn >= duration:
                    break
                raw.append((spawn, lane))
    elif isinstance(profile, ClusteredProfile):
        lanes = list(range(len(profile.lane_weights)))
        start = 0.0
        while start < duration:
            lane = rng.choices(lanes, weights=profile.lane_weights)[0]
            for k in range(profile.cluster_size):
                spawn = int(start + k * profile.within_gap)
                if spawn < duration:
                    raw.append((spawn, lane))
            start += profile.inter_cluster_gap
    else:
        raise TypeError(f"unknown flow profile {type(profile).__name__}")

    raw.sort(key=lambda item: item[0])
    vehicles = tuple(
        Vehicle(id=k, spawn_time=spawn, movement_id=lane)
        for k, (spawn, lane) in enumerate(raw)
    )
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


def split_halves(dataset: FlowDataset) -> tuple[FlowDataset, FlowDataset]:
    """Cut one flow into its first and second time halves (second shifted to 0)."""
    half = dataset.duration // 2
    if half < 1:
        raise ValueError("dataset too short to split into halves")
    first = tuple(v for v in dataset.vehicles if v.spawn_time < half)
    second = tuple(
        Vehicle(v.id, v.spawn_time - half, v.movement_id, v.body_length)
        for v in dataset.vehicles
        if v.spawn_time >= half
    )
    val = FlowDataset(first, half, label=f"{dataset.label}/val")
    test = FlowDataset(second, dataset.duration - half, label=f"{dataset.label}/test")
    return val, test


def load_flow(text: str) -> FlowDataset:
    """Parse a flow document: {"duration_s": int, "vehicles": [{id, spawn_time_s, movement}]}."""
    doc = json.loads(text)
    vehicles = tuple(
        Vehicle(
            id=int(v["id"]),
            spawn_time=int(v["spawn_time_s"]),
            movement_id=int(v["movement"]),
        )
        for v in doc["vehicles"]
    )
    return FlowDataset(
        vehicles=vehicles, duration=int(doc["duration_s"]), label=str(doc.get("label", ""))
    )


def flow_to_document(flow: FlowDataset) -> dict:
    return {
        "duration_s": flow.duration,
        "label": flow.label,
        "vehicles": [
            {"id": v.id, "spawn_time_s": v.spawn_time, "movement": v.movement_id}
            for v in flow.vehicles
        ],
    }


def parse_profile(text: str):
    """Parse a profile literal such as
    'uniform(rate_per_lane=0.05,n_lanes=8)' or
    'clustered(cluster_size=5,inter_cluster_gap=60,within_gap=2,lane_weights=1:0:0:0)'.
    """
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"malformed profile {text!r}")
    name, _, body = text.partition("(")
    kwargs = {}
    for part in body[:-1].split(","):
        if not part.strip():
            continue
        key, _, value = part.partition("=")
        kwargs[key.strip()] = value.strip()
    if name == "uniform":
        return UniformProfile(
            rate_per_lane=float(kwargs["rate_per_lane"]), n_lanes=int(kwargs["n_lanes"])
        )
    if name == "clustered":
        weights = tuple(float(w) for w in kwargs["lane_weights"].split(":"))
        return ClusteredProfile(
            cluster_size=int(kwargs["cluster_size"]),
            inter_cluster_gap=float(kwargs["inter_cluster_gap"]),
            within_gap=float(kwargs["within_gap"]),
            lane_weights=weights,
        )
    raise ValueError(f"unknown profile kind {name!r}")
