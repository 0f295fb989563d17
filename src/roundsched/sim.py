"""Beacon-driven execution of synthesized schedules over a lossy network.

The host walks the active schedule round by round and opens every round
with a beacon naming the round.  Nodes never act on guesses: a node that
heard the beacon knows exactly which slots to use, and a node that
missed it stays silent for the whole round.  That rule makes slot
collisions structurally impossible, which the simulator still verifies
on every slot.

Mode changes run in two phases.  A request is picked up at the next
round boundary and announced while the old schedule keeps running; the
host freezes further requests and waits until every in-flight message
instance of the old mode has been served (messages carried across the
cycle boundary push this into the next cycle).  The round that clears
the last obligation broadcasts the switch bit plus the next mode id, and
the new mode's time origin is that round's end.  A node that misses the
switch beacon is degraded, silent until any beacon of the new mode
resynchronizes it.

Events are streamed: run() yields each (t, kind, data) event as the
round that makes it is simulated and keeps only the counters, so a run
costs the memory of a round, not of its length.  simulate() collects
the same events into SimTrace.events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from .model import Mode, ModeSchedule


@dataclass(frozen=True)
class Beacon:
    round_id: int
    mode_id: str
    round_index: int
    sb: int
    next_mode_id: str | None = None


@dataclass(frozen=True)
class SwitchRequest:
    at_us: int
    to_mode: str


@dataclass(frozen=True)
class Scenario:
    initial_mode: str
    n_rounds: int
    beacon_loss: float = 0.0
    seed: int = 0
    switches: tuple[SwitchRequest, ...] = ()


Event = tuple[int, str, dict]


@dataclass
class SimTrace:
    events: list[Event] = field(default_factory=list)
    beacons_sent: int = 0
    beacons_missed: int = 0
    transmissions: int = 0
    collisions: int = 0
    resyncs: int = 0

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e[1] == kind]


def _producer_node(mode: Mode, mid: str) -> str:
    for app in mode.applications:
        for m in app.messages:
            if m.id == mid:
                return app.task_by_id(app.producers(mid)[0]).node
    raise KeyError(mid)


def _last_alloc_index(schedule: ModeSchedule, mid: str) -> int:
    for j in range(len(schedule.rounds) - 1, -1, -1):
        if mid in schedule.rounds[j].alloc:
            return j
    raise KeyError(mid)


def _first_alloc_index(schedule: ModeSchedule, mid: str) -> int:
    for j, r in enumerate(schedule.rounds):
        if mid in r.alloc:
            return j
    raise KeyError(mid)


def simulate(
    mode_table: dict[str, tuple[Mode, ModeSchedule]],
    scenario: Scenario,
) -> SimTrace:
    """Run the protocol for a fixed number of rounds and return the trace."""
    trace = SimTrace()
    trace.events.extend(run(mode_table, scenario, trace))
    return trace


def run(
    mode_table: dict[str, tuple[Mode, ModeSchedule]],
    scenario: Scenario,
    trace: SimTrace,
) -> Iterator[Event]:
    """Check the inputs, then return the run's events as it makes them.

    Bad inputs raise here, before any event.  The iterator adds to the
    counters of trace as it goes (not to trace.events); they are final
    once it is exhausted.
    """
    if scenario.initial_mode not in mode_table:
        raise ValueError(f"unknown initial mode {scenario.initial_mode}")
    for req in scenario.switches:
        if req.to_mode not in mode_table:
            raise ValueError(f"switch to unknown mode {req.to_mode}")
    for mid_, (mode, sched) in mode_table.items():
        if not sched.rounds:
            raise ValueError(f"mode {mid_} has no rounds; nothing would be sent")
        if sched.mode_id != mode.id or mode.id != mid_:
            raise ValueError(f"mode table entry {mid_} is inconsistent")
    return _rounds(mode_table, scenario, trace)


def _rounds(
    mode_table: dict[str, tuple[Mode, ModeSchedule]],
    scenario: Scenario,
    trace: SimTrace,
) -> Iterator[Event]:
    rng = random.Random(scenario.seed)

    nodes = sorted(
        {
            t.node
            for _, (mode, _) in sorted(mode_table.items())
            for t in mode.all_tasks().values()
        }
    )
    producers = {
        mid_: {
            m.id: _producer_node(mode, m.id) for m in mode.all_messages().values()
        }
        for mid_, (mode, _) in mode_table.items()
    }

    belief = {n: scenario.initial_mode for n in nodes}
    degraded_since: dict[str, int] = {}

    mode_id = scenario.initial_mode
    sched = mode_table[mode_id][1]
    epoch_base = 0
    cycle = 0
    index = 0
    round_id = 0
    queue = sorted(scenario.switches, key=lambda s: (s.at_us, s.to_mode))
    change: dict | None = None  # {"to": str, "commit": (cycle, index)}

    for _ in range(scenario.n_rounds):
        t = epoch_base + cycle * sched.hyperperiod_us + sched.rounds[index].t
        t_end = t + sched.round_len_us

        # pick up a queued request at the round boundary
        if change is None and queue and queue[0].at_us <= t:
            req = queue.pop(0)
            yield t, "request", {"to": req.to_mode, "requested_at": req.at_us}
            if req.to_mode != mode_id:
                commit = (cycle, index)
                commit_end = t_end
                for m_id in sched.message_offsets:
                    if sched.leftover.get(m_id):
                        c, j = cycle + 1, _first_alloc_index(sched, m_id)
                    else:
                        c, j = cycle, _last_alloc_index(sched, m_id)
                    end = (
                        epoch_base
                        + c * sched.hyperperiod_us
                        + sched.rounds[j].t
                        + sched.round_len_us
                    )
                    if end > commit_end:
                        commit, commit_end = (c, j), end
                change = {"to": req.to_mode, "commit": commit}
                yield t, "announce", {"to": req.to_mode, "commit_end": commit_end}

        committing = change is not None and change["commit"] == (cycle, index)
        beacon = Beacon(
            round_id=round_id,
            mode_id=mode_id,
            round_index=index,
            sb=1 if committing else 0,
            next_mode_id=change["to"] if committing else None,
        )
        trace.beacons_sent += 1
        yield t, "beacon", {"round_id": round_id, "mode": mode_id, "index": index,
                            "sb": beacon.sb}

        heard = {}
        for n in nodes:
            heard[n] = rng.random() >= scenario.beacon_loss
            if not heard[n]:
                trace.beacons_missed += 1
                yield t, "miss", {"node": n, "round_id": round_id}

        # reactions of nodes that heard the beacon
        for n in nodes:
            if not heard[n]:
                continue
            if n in degraded_since or belief[n] != beacon.mode_id:
                trace.resyncs += 1
                yield t, "resync", {"node": n, "mode": beacon.mode_id}
                if n in degraded_since:
                    yield t, "degraded", {"node": n, "since": degraded_since.pop(n)}
                belief[n] = beacon.mode_id
            if beacon.sb:
                belief[n] = beacon.next_mode_id

        # data slots: only nodes that heard the beacon transmit, and they
        # transmit exactly what the named round allocates
        alloc = sched.rounds[index].alloc
        for s, m_id in enumerate(alloc):
            txers = []
            p_node = producers[mode_id][m_id]
            if heard[p_node]:
                txers.append((p_node, m_id))
            if len({m for _, m in txers}) > 1 or len(txers) > 1:
                trace.collisions += 1
                yield t, "collision", {"slot": s, "parties": txers}
            for n, m in txers:
                trace.transmissions += 1
                yield t, "tx", {"node": n, "msg": m, "round_id": round_id,
                                "slot": s}

        round_id += 1

        if committing:
            new_mode = change["to"]
            for n in nodes:
                if not heard[n] and belief[n] != new_mode:
                    degraded_since[n] = t_end
            mode_id = new_mode
            sched = mode_table[mode_id][1]
            epoch_base = t_end
            cycle = 0
            index = 0
            change = None
            yield t_end, "epoch", {"mode": mode_id}
            continue

        index += 1
        if index == len(sched.rounds):
            index = 0
            cycle += 1

    for n, since in sorted(degraded_since.items()):
        yield since, "degraded", {"node": n, "since": since, "open": True}
