"""Beacon-driven execution of synthesized schedules over a lossy network.

The host walks the active schedule round by round and opens every round
with a beacon naming the round.  Nodes never act on guesses: a node that
heard the beacon knows exactly which slots to use, and a node that
missed it stays silent for the whole round.  So each slot has one
possible sender, the node of its message's producer, and the trace's
collisions counter stays 0.

Mode changes run in two phases.  A request is picked up at the next
round boundary and announced while the old schedule keeps running; the
host freezes further requests and waits until every in-flight message
instance of the old mode has been served (messages carried across the
cycle boundary push this into the next cycle).  The round that clears
the last obligation broadcasts the switch bit plus the next mode id, and
the new mode's time origin is that round's end.  A node that misses the
switch beacon is degraded, silent until any beacon of the new mode
resynchronizes it.

The walk trusts the schedules it is given, so run() audits each of them
with checker.check against the network it was built for, and refuses
the whole run if any fails.

The run is streamed as records: run() yields each as the round that
makes it is simulated and keeps only the counters, so a run costs the
memory of a round, not of its length.  A record is a flat tuple
(shape, t, *values) of one of the SHAPES declared below, which give
each shape's kind and its fields in order, each a str, int or bool.
as_event() turns a record into the event the trace file holds, the
flat dict {"t": t, "kind": kind, <field>: value, ...}, and simulate()
collects those dicts into SimTrace.events.  The trace writer renders
records from templates built from the same table, so each value must
have exactly its declared type: a bool where an int is declared would
be written 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Iterator

from .checker import check
from .model import Mode, ModeSchedule
from .timing import NetworkParams


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


@dataclass(frozen=True)
class Shape:
    """A record shape: the event kind it stands for, and its fields in
    record (and event key) order, each with its type."""

    kind: str
    fields: tuple[tuple[str, type], ...]


#: every record shape by its tag; an open degraded span, which the run
#: ends inside, is a shape of its own
SHAPES: dict[str, Shape] = {
    "request": Shape("request", (("to", str), ("requested_at", int))),
    "announce": Shape("announce", (("to", str), ("commit_end", int))),
    "beacon": Shape("beacon", (("round_id", int), ("mode", str), ("index", int),
                               ("sb", int))),
    "miss": Shape("miss", (("node", str), ("round_id", int))),
    "resync": Shape("resync", (("node", str), ("mode", str))),
    "degraded": Shape("degraded", (("node", str), ("since", int))),
    "degraded_open": Shape("degraded", (("node", str), ("since", int), ("open", bool))),
    "tx": Shape("tx", (("node", str), ("msg", str), ("round_id", int), ("slot", int))),
    "epoch": Shape("epoch", (("mode", str),)),
}

#: (shape tag, t, <field value in SHAPES order>, ...)
Record = tuple
#: {"t": int, "kind": str, <field>: str | int | bool, ...}
Event = dict[str, str | int | bool]


def as_event(record: Record) -> Event:
    """The event a record stands for, keys in the order t, kind, fields.

    >>> as_event(("miss", 2000, "n1", 0))
    {'t': 2000, 'kind': 'miss', 'node': 'n1', 'round_id': 0}
    """
    try:
        shape = SHAPES[record[0]]
    except KeyError:
        raise ValueError(f"undeclared record shape {record[0]!r}") from None
    event = {"t": record[1], "kind": shape.kind}
    event.update((name, value) for (name, _), value in zip(shape.fields, record[2:]))
    return event


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


class AuditError(ValueError):
    """A schedule of the mode table fails check(): the message names each
    failing mode and its failed verdict families."""


def simulate(
    mode_table: dict[str, tuple[Mode, ModeSchedule]],
    scenario: Scenario,
    params: NetworkParams,
) -> SimTrace:
    """Run the protocol for a fixed number of rounds and return the trace.

    Each event is the flat dict as_event() makes of a record; a round
    opens with its beacon:

    >>> from roundsched.model import Application, Mode, ModeSchedule, Round, Task
    >>> from roundsched.timing import NetworkParams
    >>> app = Application("loop", 100_000, 100_000,
    ...     (Task("s", "n1", 1000), Task("c", "n2", 1000)),
    ...     (("s", "c", "m"),))
    >>> sched = ModeSchedule("op", 100_000, 15_094, {"s": 0, "c": 40_000},
    ...     {"m": 1000}, {"m": 30_000}, (Round(2000, ("m",)),), {"m": 0})
    >>> net = NetworkParams(hops=1, slots_per_round=2, payload_bytes=8, retransmissions=1)
    >>> trace = simulate({"op": (Mode("op", (app,)), sched)}, Scenario("op", 1), net)
    >>> trace.events[0]
    {'t': 2000, 'kind': 'beacon', 'round_id': 0, 'mode': 'op', 'index': 0, 'sb': 0}
    """
    trace = SimTrace()
    trace.events.extend(map(as_event, run(mode_table, scenario, params, trace)))
    return trace


def run(
    mode_table: dict[str, tuple[Mode, ModeSchedule]],
    scenario: Scenario,
    params: NetworkParams,
    trace: SimTrace,
) -> Iterator[Record]:
    """Audit the inputs, then return the run's records as it makes them.

    Bad inputs raise here, before any event.  A table key that is not
    its mode's id, or a mode the scenario names without a schedule,
    raises ValueError.  A schedule that check() refuses on params, the
    network it was built for, raises AuditError.  The iterator adds to
    the counters of trace as it goes (not to trace.events); they are
    final once it is exhausted.
    """
    for key, (mode, _) in mode_table.items():
        if key != mode.id:
            raise ValueError(f"mode table entry {key} holds mode {mode.id}")
    needed = {scenario.initial_mode} | {s.to_mode for s in scenario.switches}
    missing = sorted(needed - set(mode_table))
    if missing:
        raise ValueError("no schedule given for mode(s): " + ", ".join(missing))
    bad = []
    for key, (mode, sched) in sorted(mode_table.items()):
        rep = check(mode, sched, params)
        if not rep.ok:
            bad.append(f"{key}: " + ", ".join(sorted(rep.failed())))
    if bad:
        raise AuditError("schedule audit failed; " + "; ".join(bad))
    return _rounds(mode_table, scenario, trace)


def _rounds(
    mode_table: dict[str, tuple[Mode, ModeSchedule]],
    scenario: Scenario,
    trace: SimTrace,
) -> Iterator[Record]:
    draw = Random(scenario.seed).random
    loss = scenario.beacon_loss

    nodes = sorted(
        {
            t.node
            for _, (mode, _) in sorted(mode_table.items())
            for t in mode.all_tasks().values()
        }
    )
    # per mode, each round's data slots as (slot, message, sending node):
    # a message's producer sits on the node that sends it
    slots = {}
    for mid_, (mode, sched) in mode_table.items():
        producers = mode.producers()
        slots[mid_] = [tuple((s, m_id, producers[m_id].node) for s, m_id in enumerate(r.alloc))
                       for r in sched.rounds]

    # a node that missed a commit beacon, and when its degraded span began
    degraded_since: dict[str, int] = {}

    mode_id = scenario.initial_mode
    sched = mode_table[mode_id][1]
    round_slots = slots[mode_id]
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
            yield ("request", t, req.to_mode, req.at_us)
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
                yield ("announce", t, to_mode, commit_end)

        committing = to_mode is not None and commit == (cycle, index)
        trace.beacons_sent += 1
        yield ("beacon", t, round_id, mode_id, index, 1 if committing else 0)

        # one draw per node, in node order: a node misses the beacon
        # with probability beacon_loss
        missed = [n for n in nodes if draw() < loss]
        trace.beacons_missed += len(missed)
        for n in missed:
            yield ("miss", t, n, round_id)

        # reactions of nodes that heard the beacon
        if degraded_since:
            for n in nodes:
                if n in degraded_since and n not in missed:
                    trace.resyncs += 1
                    yield ("resync", t, n, mode_id)
                    yield ("degraded", t, n, degraded_since.pop(n))

        # data slots: each slot is sent by its message's producer, if that
        # node heard the beacon, exactly as the named round allocates
        for s, m_id, n in round_slots[index]:
            if n not in missed:
                trace.transmissions += 1
                yield ("tx", t, n, m_id, round_id, s)

        if committing:
            for n in missed:
                # a span already open keeps its start
                degraded_since.setdefault(n, t_end)
            mode_id = to_mode
            sched = mode_table[mode_id][1]
            round_slots = slots[mode_id]
            epoch_base = t_end
            cycle = 0
            index = 0
            to_mode = None
            yield ("epoch", t_end, mode_id)
            continue

        index += 1
        if index == len(round_slots):
            index = 0
            cycle += 1

    for n, since in sorted(degraded_since.items()):
        yield ("degraded_open", since, n, since, True)
