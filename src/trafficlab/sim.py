"""Deterministic 1-second-tick microsimulation of a single intersection."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .core import DEFAULT_BODY_LENGTH_M, FlowDataset, IntersectionSpec, check_flow

WAITING = "waiting"
APPROACHING = "approaching"

# A vehicle counts as waiting below this speed; a strict-zero test would be
# fragile under position capping.
WAITING_SPEED_MS = 0.1

# Jam gap added behind a stopped leader, and the spacing it gives the default
# 5 m body.
JAM_GAP_M = 2.5
DEFAULT_MIN_SPACING_M = DEFAULT_BODY_LENGTH_M + JAM_GAP_M


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
    # Per phase, each lane's green flag: the spec's `lane_green`.
    _lane_green: list = field(default_factory=list, compare=False, repr=False)
    # Per lane, the length of the settled head of a red queue and its last
    # vehicle; see tick.
    _head: list = field(default_factory=list, compare=False, repr=False)
    _head_last: list = field(default_factory=list, compare=False, repr=False)
    # The clock of the last lane_metrics call and its result.
    _metrics: tuple = field(default=(-1, ()), compare=False, repr=False)

    def on_network(self) -> int:
        return sum(len(lane) for lane in self.lanes)

    def in_backlog(self) -> int:
        return sum(len(q) for q in self.backlog)


def init(spec: IntersectionSpec, flow: FlowDataset) -> SimState:
    """Fresh simulation at clock 0, phase 0, no yellow, empty network.

    Rejects a flow that does not fit the spec (see `core.check_flow`).
    """
    check_flow(spec, flow)
    state = SimState(spec=spec, flow=flow, _lane_green=spec.lane_green)
    state.lanes = [[] for _ in range(spec.n_lanes)]
    state.backlog = [deque() for _ in range(spec.n_lanes)]
    state._head = [0] * spec.n_lanes
    state._head_last = [None] * spec.n_lanes
    return state


def command_signal(state: SimState, target_phase: int) -> None:
    """Request a phase. Same-phase requests and requests during yellow are ignored."""
    if not (0 <= target_phase < len(state._lane_green)):
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

    Lanes are front first with falling positions, so a green lane's exits are
    a prefix of it. On a red lane the settled head (the front vehicle stopped
    at the line and each follower stopped at its leader's jam cap) would get
    the same position, speed and status again, so it is skipped. The head is
    kept per lane across red ticks (a green tick clears it) and recomputed
    from the front when the lane's list no longer holds the head's last
    vehicle at its index, as after vehicles are put on the lane from outside.

    Each lane's length and speed limit and each movement's lane come from the
    spec's `lane_geometry` and `movement_lane` tables.
    """
    sig = state.signal
    greens = state._lane_green[sig.current_phase]
    crossing_open = sig.yellow_remaining == 0
    geometry = state.spec.lane_geometry
    heads = state._head
    head_lasts = state._head_last
    no_leader = math.inf
    jam_gap = JAM_GAP_M
    clock = state.clock
    next_clock = clock + 1
    complete = state.completed.append

    for j, lane in enumerate(state.lanes):
        if not lane:
            continue
        length, vmax = geometry[j]
        if crossing_open and greens[j]:
            exits = 0
            cap = no_leader
            for veh in lane:
                position = veh.position
                target = position + vmax
                if cap < target:
                    target = cap
                if target >= length:
                    complete((veh.id, veh.spawn_time, next_clock))
                    exits += 1
                else:
                    speed = target - position
                    veh.speed = speed
                    veh.position = target
                    veh.status = WAITING if speed < WAITING_SPEED_MS else APPROACHING
                cap = target - (veh.body_length + jam_gap)
            if exits:
                del lane[:exits]
            heads[j] = 0
            continue

        settled = heads[j]
        if settled and (settled > len(lane) or lane[settled - 1] is not head_lasts[j]):
            settled = 0
        if settled == len(lane):  # the whole lane stands still
            continue
        if settled:
            leader = lane[settled - 1]
            cap = leader.position - (leader.body_length + jam_gap)
            rest = lane[settled:]
        else:
            cap = no_leader
            rest = lane
        growing = True  # every vehicle so far in `rest` joined the head
        for veh in rest:
            position = veh.position
            target = position + vmax
            if cap < target:
                target = cap
            if target > length:
                target = length
            speed = target - position
            veh.speed = speed
            veh.position = target
            if speed < WAITING_SPEED_MS:
                veh.status = WAITING
                if growing and speed == 0.0:
                    settled += 1
                else:
                    growing = False
            else:
                veh.status = APPROACHING
                growing = False
            cap = target - (veh.body_length + jam_gap)
        heads[j] = settled
        if settled:
            head_lasts[j] = lane[settled - 1]

    if sig.yellow_remaining > 0:
        sig.yellow_remaining -= 1
        if sig.yellow_remaining == 0:
            sig.current_phase = sig.pending_phase
            sig.time_in_phase = 0
    else:
        sig.time_in_phase += 1

    vehicles = state.flow.vehicles
    cursor = state.flow_cursor
    backlog = state.backlog
    lane_of = state.spec.movement_lane
    while cursor < len(vehicles) and vehicles[cursor].spawn_time <= clock:
        vehicle = vehicles[cursor]
        backlog[lane_of[vehicle.movement_id]].append(vehicle)
        cursor += 1
    state.spawned += cursor - state.flow_cursor
    state.flow_cursor = cursor

    for j, queue in enumerate(backlog):
        if not queue:
            continue
        lane = state.lanes[j]
        if lane:
            rear = lane[-1]
            if rear.position < rear.body_length + jam_gap:
                continue
        vehicle = queue.popleft()
        # VehicleState(id, lane, position, speed, status, spawn_time, body_length)
        lane.append(VehicleState(vehicle.id, j, 0.0, 0.0, WAITING, vehicle.spawn_time,
                                 vehicle.body_length))

    state.clock = next_clock


def lane_metrics(state: SimState):
    """Per-lane (waiting count, approaching count, mean distance-to-line of
    approaching, mean speed of approaching); means are 0 on empty lanes.

    Memoised per clock on the state as a tuple of tuples, so a change made from
    outside between two calls at one clock is not seen by the second. A valid
    settled head (see tick) stands at speed 0 and counts as waiting unvisited.
    """
    if state._metrics[0] == state.clock:
        return state._metrics[1]
    out = []
    for j, lane in enumerate(state.lanes):
        length = state.spec.lanes[j].length_m
        waiting = state._head[j]
        if waiting and (waiting > len(lane) or lane[waiting - 1] is not state._head_last[j]):
            waiting = 0
        approaching = 0
        dist_sum = 0.0
        speed_sum = 0.0
        for veh in lane[waiting:]:
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
    state._metrics = (state.clock, tuple(out))
    return state._metrics[1]


def avg_travel_time(state: SimState, flow: FlowDataset) -> float:
    """Mean travel time in seconds of the flow's vehicles spawned before the
    clock; trips still under way count as (clock - spawn_time) so truncated
    episodes stay comparable. The sum is (clock - spawn_time) over those
    vehicles plus (exit_time - clock) over the finished trips: every term is an
    integer, so it is exact."""
    horizon = state.clock
    spawns = [v.spawn_time for v in flow.vehicles if v.spawn_time < horizon]
    if not spawns:
        raise ValueError("empty flow")
    total = (sum(horizon - spawn for spawn in spawns)
             + sum(exit_t - horizon for _, _, exit_t in state.completed))
    return total / len(spawns)


def trajectory_rows(state: SimState):
    """One record per on-network vehicle at the current clock, for trace dumps."""
    rows = []
    for j, lane in enumerate(state.lanes):
        for veh in lane:
            rows.append((state.clock, veh.id, j, veh.position, veh.speed, veh.status))
    return rows
