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

An event is the flat dict the trace file holds: its time "t", its
"kind" and the kind's fields, every value a str, int or bool.  The
trace writer encodes events without looking at their values and relies
on this.  Events are streamed: run() yields each event as the round
that makes it is simulated and keeps only the counters, so a run costs
the memory of a round, not of its length.  simulate() collects the same
events into SimTrace.events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from .model import Mode, ModeSchedule


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


#: {"t": int, "kind": str, <field>: str | int | bool, ...}
Event = dict[str, str | int | bool]


@dataclass
class SimTrace:
    events: list[Event] = field(default_factory=list)
    beacons_sent: int = 0
    beacons_missed: int = 0
    transmissions: int = 0
    collisions: int = 0
    resyncs: int = 0

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e["kind"] == kind]


def simulate(
    mode_table: dict[str, tuple[Mode, ModeSchedule]],
    scenario: Scenario,
) -> SimTrace:
    """Run the protocol for a fixed number of rounds and return the trace.

    Each event is a flat dict; a round opens with its beacon:

    >>> from roundsched.model import Application, Mode, ModeSchedule, Round, Task
    >>> app = Application("loop", 100_000, 100_000,
    ...     (Task("s", "n1", 1000, 100_000), Task("c", "n2", 1000, 100_000)),
    ...     (("s", "c", "m"),))
    >>> sched = ModeSchedule("op", 100_000, 15_094, {"s": 0, "c": 40_000},
    ...     {"m": 1000}, {"m": 30_000}, (Round(2000, ("m",)),), {"m": 0})
    >>> trace = simulate({"op": (Mode("op", (app,)), sched)}, Scenario("op", 1))
    >>> trace.events[0]
    {'t': 2000, 'kind': 'beacon', 'round_id': 0, 'mode': 'op', 'index': 0, 'sb': 0}
    """
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
        msgs = mode.message_periods()
        for j, r in enumerate(sched.rounds):
            for m_id in r.alloc:
                if m_id not in msgs:
                    raise ValueError(
                        f"mode {mid_}, round {j}: message {m_id} is not in the mode"
                    )
        sent = {m_id for r in sched.rounds for m_id in r.alloc}
        for m_id in sched.message_offsets:
            if m_id not in sent:
                raise ValueError(f"mode {mid_}: message {m_id} is allocated in no round")
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
    # a message's producers all sit on the node that sends it
    producers = {mid_: mode.producers() for mid_, (mode, _) in mode_table.items()}

    belief = {n: scenario.initial_mode for n in nodes}
    degraded_since: dict[str, int] = {}

    mode_id = scenario.initial_mode
    sched = mode_table[mode_id][1]
    epoch_base = 0
    cycle = 0
    index = 0
    queue = sorted(scenario.switches, key=lambda s: (s.at_us, s.to_mode))
    to_mode: str | None = None  # pending mode change, committed in round commit
    commit = (0, 0)

    for round_id in range(scenario.n_rounds):
        t = epoch_base + cycle * sched.hyperperiod_us + sched.rounds[index].t
        t_end = t + sched.round_len_us

        # pick up a queued request at the round boundary
        if to_mode is None and queue and queue[0].at_us <= t:
            req = queue.pop(0)
            yield {"t": t, "kind": "request", "to": req.to_mode,
                   "requested_at": req.at_us}
            if req.to_mode != mode_id:
                # commit in the round serving each message's last instance:
                # a carried one is served by its first round of the next cycle
                commit = (cycle, index)
                commit_end = t_end
                for m_id in sched.message_offsets:
                    js = [j for j, r in enumerate(sched.rounds) if m_id in r.alloc]
                    carried = sched.leftover.get(m_id)
                    c, j = (cycle + 1, js[0]) if carried else (cycle, js[-1])
                    end = (epoch_base + c * sched.hyperperiod_us
                           + sched.rounds[j].t + sched.round_len_us)
                    if end > commit_end:
                        commit, commit_end = (c, j), end
                to_mode = req.to_mode
                yield {"t": t, "kind": "announce", "to": to_mode, "commit_end": commit_end}

        committing = to_mode is not None and commit == (cycle, index)
        trace.beacons_sent += 1
        yield {"t": t, "kind": "beacon", "round_id": round_id, "mode": mode_id,
               "index": index, "sb": 1 if committing else 0}

        heard = {}
        for n in nodes:
            heard[n] = rng.random() >= scenario.beacon_loss
            if not heard[n]:
                trace.beacons_missed += 1
                yield {"t": t, "kind": "miss", "node": n, "round_id": round_id}

        # reactions of nodes that heard the beacon
        for n in nodes:
            if not heard[n]:
                continue
            if n in degraded_since or belief[n] != mode_id:
                trace.resyncs += 1
                yield {"t": t, "kind": "resync", "node": n, "mode": mode_id}
                if n in degraded_since:
                    yield {"t": t, "kind": "degraded", "node": n,
                           "since": degraded_since.pop(n)}
                belief[n] = mode_id
            if committing:
                belief[n] = to_mode

        # data slots: only nodes that heard the beacon transmit, and they
        # transmit exactly what the named round allocates
        alloc = sched.rounds[index].alloc
        for s, m_id in enumerate(alloc):
            txers = []
            p_node = producers[mode_id][m_id][0].node
            if heard[p_node]:
                txers.append((p_node, m_id))
            if len(txers) > 1:
                # the senders are named by the tx events that follow
                trace.collisions += 1
                yield {"t": t, "kind": "collision", "round_id": round_id,
                       "slot": s, "senders": len(txers)}
            for n, m in txers:
                trace.transmissions += 1
                yield {"t": t, "kind": "tx", "node": n, "msg": m,
                       "round_id": round_id, "slot": s}

        if committing:
            for n in nodes:
                if not heard[n] and belief[n] != to_mode:
                    degraded_since[n] = t_end
            mode_id = to_mode
            sched = mode_table[mode_id][1]
            epoch_base = t_end
            cycle = 0
            index = 0
            to_mode = None
            yield {"t": t_end, "kind": "epoch", "mode": mode_id}
            continue

        index += 1
        if index == len(sched.rounds):
            index = 0
            cycle += 1

    for n, since in sorted(degraded_since.items()):
        yield {"t": since, "kind": "degraded", "node": n, "since": since, "open": True}
