"""Deterministic 1-second-tick microsimulation of a single intersection."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .core import FlowDataset, IntersectionSpec

WAITING = "waiting"
APPROACHING = "approaching"

# A vehicle counts as waiting below this speed; a strict-zero test would be
# fragile under position capping.
WAITING_SPEED_MS = 0.1

# Jam gap added behind a stopped leader. Effective spacing for the default
# 5 m body is 7.5 m.
JAM_GAP_M = 2.5
DEFAULT_MIN_SPACING_M = 7.5


@dataclass(eq=True)
class SignalState:
    current_phase: int = 0
    yellow_remaining: int = 0
    pending_phase: int = 0
    time_in_phase: int = 0


@dataclass(eq=True, slots=True)
class VehicleState:
    id: int
    lane: int
    position: float  # meters from lane entry; stop line at lane length
    speed: float
    status: str
    spawn_time: int
    body_length: float


@dataclass(eq=True)
class SimState:
    """Mutable world state; exactly one actor may mutate it at a time."""

    spec: IntersectionSpec
    flow: FlowDataset
    clock: int = 0
    signal: SignalState = field(default_factory=SignalState)
    lanes: list = field(default_factory=list)           # per lane, ordered front first
    backlog: list = field(default_factory=list)         # per lane FIFO of core.Vehicle
    completed: list = field(default_factory=list)       # (vehicle id, spawn_time, exit_time)
    flow_cursor: int = 0
    spawned: int = 0
    # Derived lookup tables, not part of the semantic state.
    _lane_green: list = field(default_factory=list, compare=False, repr=False)

    def on_network(self) -> int:
        return sum(len(lane) for lane in self.lanes)

    def in_backlog(self) -> int:
        return sum(len(q) for q in self.backlog)


def init(spec: IntersectionSpec, flow: FlowDataset) -> SimState:
    """Fresh simulation at clock 0, phase 0, no yellow, empty network.

    Rejects a flow that does not fit the spec: a movement id the spec lacks,
    or a vehicle id used twice (travel times are keyed by id).
    """
    n_movements = len(spec.movements)
    seen = set()
    for vehicle in flow.vehicles:
        if not 0 <= vehicle.movement_id < n_movements:
            raise ValueError(f"vehicle {vehicle.id}: movement {vehicle.movement_id} is not "
                             f"a movement of the intersection (0..{n_movements - 1})")
        if vehicle.id in seen:
            raise ValueError(f"vehicle {vehicle.id}: id is used by another vehicle of the flow")
        seen.add(vehicle.id)
    state = SimState(spec=spec, flow=flow)
    state.lanes = [[] for _ in range(spec.n_lanes)]
    state.backlog = [deque() for _ in range(spec.n_lanes)]
    state._lane_green = [
        [j in spec.green_lanes(p) for j in range(spec.n_lanes)]
        for p in range(spec.n_phases)
    ]
    return state


def command_signal(state: SimState, target_phase: int) -> None:
    """Request a phase. Same-phase requests and requests during yellow are ignored."""
    if not (0 <= target_phase < state.spec.n_phases):
        raise ValueError(f"invalid phase id {target_phase}")
    sig = state.signal
    if sig.yellow_remaining > 0 or target_phase == sig.current_phase:
        return
    sig.yellow_remaining = state.spec.yellow_duration
    sig.pending_phase = target_phase


def tick(state: SimState) -> None:
    """Advance the world by one second.

    Order: vehicles move under the pre-tick signal (all lanes red while any
    yellow remains), then the signal counters update, then newly due vehicles
    join their lane backlog and at most one backlog head per lane enters at
    position 0 when the rearmost vehicle has cleared the jam spacing.
    """
    spec = state.spec
    sig = state.signal
    greens = state._lane_green[sig.current_phase]
    crossing_open = sig.yellow_remaining == 0

    for j, lane in enumerate(state.lanes):
        if not lane:
            continue
        green = crossing_open and greens[j]
        length = spec.lanes[j].length_m
        vmax = spec.lanes[j].vmax_ms
        leader_pos = None
        leader_body = 0.0
        kept = []
        for veh in lane:
            target = veh.position + vmax
            if leader_pos is not None:
                cap = leader_pos - (leader_body + JAM_GAP_M)
                if cap < target:
                    target = cap
            if green and target >= length:
                state.completed.append((veh.id, veh.spawn_time, state.clock + 1))
                leader_pos = target
                leader_body = veh.body_length
                continue
            if target > length:
                target = length
            veh.speed = target - veh.position
            veh.position = target
            veh.status = WAITING if veh.speed < WAITING_SPEED_MS else APPROACHING
            leader_pos = target
            leader_body = veh.body_length
            kept.append(veh)
        state.lanes[j] = kept

    if sig.yellow_remaining > 0:
        sig.yellow_remaining -= 1
        if sig.yellow_remaining == 0:
            sig.current_phase = sig.pending_phase
            sig.time_in_phase = 0
    else:
        sig.time_in_phase += 1

    flow = state.flow
    while state.flow_cursor < len(flow.vehicles) and (
        flow.vehicles[state.flow_cursor].spawn_time <= state.clock
    ):
        vehicle = flow.vehicles[state.flow_cursor]
        state.flow_cursor += 1
        state.backlog[spec.lane_of_movement(vehicle.movement_id)].append(vehicle)
        state.spawned += 1

    for j, queue in enumerate(state.backlog):
        if not queue:
            continue
        lane = state.lanes[j]
        if lane:
            rear = lane[-1]
            if rear.position < rear.body_length + JAM_GAP_M:
                continue
        vehicle = queue.popleft()
        lane.append(
            VehicleState(
                id=vehicle.id,
                lane=j,
                position=0.0,
                speed=0.0,
                status=WAITING,
                spawn_time=vehicle.spawn_time,
                body_length=vehicle.body_length,
            )
        )

    state.clock += 1


def lane_metrics(state: SimState):
    """Per-lane (waiting count, approaching count, mean distance-to-line of
    approaching, mean speed of approaching); means are 0 on empty lanes."""
    out = []
    for j, lane in enumerate(state.lanes):
        length = state.spec.lanes[j].length_m
        waiting = 0
        approaching = 0
        dist_sum = 0.0
        speed_sum = 0.0
        for veh in lane:
            if veh.status == WAITING:
                waiting += 1
            else:
                approaching += 1
                dist_sum += length - veh.position
                speed_sum += veh.speed
        if approaching:
            out.append((waiting, approaching, dist_sum / approaching, speed_sum / approaching))
        else:
            out.append((waiting, 0, 0.0, 0.0))
    return out


def avg_travel_time(state: SimState, flow: FlowDataset) -> float:
    """Mean travel time in seconds; trips still under way at the current clock
    count as (clock - spawn_time) so truncated episodes stay comparable."""
    horizon = state.clock
    exited = {vid: exit_t for vid, _, exit_t in state.completed}
    total = 0.0
    count = 0
    for vehicle in flow.vehicles:
        if vehicle.spawn_time >= horizon:
            continue
        if vehicle.id in exited:
            total += exited[vehicle.id] - vehicle.spawn_time
        else:
            total += horizon - vehicle.spawn_time
        count += 1
    if count == 0:
        raise ValueError("empty flow")
    return total / count


def trajectory_rows(state: SimState):
    """One record per on-network vehicle at the current clock, for trace dumps."""
    rows = []
    for j, lane in enumerate(state.lanes):
        for veh in lane:
            rows.append((state.clock, veh.id, j, veh.position, veh.speed, veh.status))
    return rows
