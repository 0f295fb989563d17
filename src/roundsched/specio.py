"""Strict JSON reading and writing for specs, schedules, scenarios.

Readers reject anything the schema does not name: unknown keys, wrong
types (a bool is never accepted where an int belongs), bad ranges.
Errors carry the JSON path of the offending value so they read like
"$.modes[0].applications[1].tasks[2].wcet_us: expected int, got bool".

Writers are byte-stable: keys sorted, two-space indent, one trailing
newline. A simulation trace is streamed, never held whole:
trace_chunks() pulls events from an iterable (such as the live
sim.run() iterator) in blocks of TRACE_BLOCK_EVENTS, encodes each with
the C JSON encoder and yields it, then writes the summary last; the
bytes are those of dumps(trace_to_obj(trace)).  An event is written as
it is: a flat dict of "t", "kind" and the kind's fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .checker import CheckReport
from .model import Application, Mode, ModeSchedule, Round, Task
from .sim import Event, Scenario, SimTrace, SwitchRequest
from .timing import NetworkParams


class SpecError(ValueError):
    """Input does not conform to the expected JSON shape."""


def _fail(path: str, msg: str) -> None:
    raise SpecError(f"{path}: {msg}")


def _typename(x) -> str:
    return {bool: "bool", int: "int", float: "float", str: "str",
            list: "list", dict: "object", type(None): "null"}.get(
                type(x), type(x).__name__)


def _as_obj(x, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(x, dict):
        _fail(path, f"expected object, got {_typename(x)}")
    for k in required:
        if k not in x:
            _fail(path, f"missing required key '{k}'")
    for k in x:
        if k not in required and k not in optional:
            _fail(f"{path}.{k}", "unknown key")
    return x


def _as_int(x, path: str, lo: int | None = None, hi: int | None = None) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, f"expected int, got {_typename(x)}")
    if lo is not None and x < lo:
        _fail(path, f"value {x} below minimum {lo}")
    if hi is not None and x > hi:
        _fail(path, f"value {x} above maximum {hi}")
    return x


def _as_str(x, path: str) -> str:
    if not isinstance(x, str):
        _fail(path, f"expected str, got {_typename(x)}")
    if not x:
        _fail(path, "empty string")
    return x


def _as_prob(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(path, f"expected number, got {_typename(x)}")
    if not 0.0 <= float(x) <= 1.0:
        _fail(path, f"value {x} outside [0, 1]")
    return float(x)


def _as_list(x, path: str) -> list:
    if not isinstance(x, list):
        _fail(path, f"expected list, got {_typename(x)}")
    return x


@dataclass(frozen=True)
class SystemSpec:
    network: NetworkParams
    grid_us: int
    modes: tuple[Mode, ...]

    def mode_by_id(self, mode_id: str) -> Mode:
        for m in self.modes:
            if m.id == mode_id:
                return m
        raise KeyError(mode_id)


_NETWORK_OPTIONAL = (
    "retransmissions",
    "beacon_bytes",
    "cal_bytes",
    "header_bytes",
    "bitrate_bps",
    "wakeup_us",
    "start_us",
    "radio_delay_us",
    "gap_us",
)


def parse_network(x, path: str = "$.network") -> NetworkParams:
    obj = _as_obj(
        x, path, ("hops", "slots_per_round", "payload_bytes"), _NETWORK_OPTIONAL
    )
    kw = {
        "hops": _as_int(obj["hops"], f"{path}.hops", 1),
        "slots_per_round": _as_int(obj["slots_per_round"], f"{path}.slots_per_round", 0),
        "payload_bytes": _as_int(obj["payload_bytes"], f"{path}.payload_bytes", 1),
    }
    for k in _NETWORK_OPTIONAL:
        if k in obj:
            kw[k] = _as_int(obj[k], f"{path}.{k}", 0)
    return NetworkParams(**kw)


def _parse_task(x, path: str, period_us: int) -> Task:
    obj = _as_obj(x, path, ("id", "node", "wcet_us"))
    return Task(
        id=_as_str(obj["id"], f"{path}.id"),
        node=_as_str(obj["node"], f"{path}.node"),
        wcet_us=_as_int(obj["wcet_us"], f"{path}.wcet_us", 1),
        period_us=period_us,
    )


def _parse_app(x, path: str) -> Application:
    obj = _as_obj(
        x, path, ("id", "period_us", "tasks", "edges"), ("deadline_us",)
    )
    period = _as_int(obj["period_us"], f"{path}.period_us", 1)
    deadline = (
        _as_int(obj["deadline_us"], f"{path}.deadline_us", 1)
        if "deadline_us" in obj
        else period
    )
    tasks = tuple(
        _parse_task(t, f"{path}.tasks[{i}]", period)
        for i, t in enumerate(_as_list(obj["tasks"], f"{path}.tasks"))
    )
    edges = []
    for i, e in enumerate(_as_list(obj["edges"], f"{path}.edges")):
        ep = f"{path}.edges[{i}]"
        eo = _as_obj(e, ep, ("src", "dst", "msg"))
        edges.append(
            (
                _as_str(eo["src"], f"{ep}.src"),
                _as_str(eo["dst"], f"{ep}.dst"),
                _as_str(eo["msg"], f"{ep}.msg"),
            )
        )
    return Application(
        id=_as_str(obj["id"], f"{path}.id"),
        period_us=period,
        deadline_us=deadline,
        tasks=tasks,
        edges=tuple(edges),
    )


def parse_spec(x) -> SystemSpec:
    obj = _as_obj(x, "$", ("network", "modes"), ("grid_us",))
    network = parse_network(obj["network"])
    grid = _as_int(obj.get("grid_us", 1), "$.grid_us", 1)
    modes = []
    for i, m in enumerate(_as_list(obj["modes"], "$.modes")):
        mp = f"$.modes[{i}]"
        mo = _as_obj(m, mp, ("id", "applications"))
        apps = tuple(
            _parse_app(a, f"{mp}.applications[{j}]")
            for j, a in enumerate(
                _as_list(mo["applications"], f"{mp}.applications")
            )
        )
        mode_id = _as_str(mo["id"], f"{mp}.id")
        if any(prev.id == mode_id for prev in modes):
            _fail(f"{mp}.id", f"duplicate mode id {mode_id!r}")
        modes.append(Mode(id=mode_id, applications=apps))
    if not modes:
        _fail("$.modes", "at least one mode is required")
    return SystemSpec(network=network, grid_us=grid, modes=tuple(modes))


def _parse_us_map(x, path: str, lo: int | None = None) -> dict[str, int]:
    if not isinstance(x, dict):
        _fail(path, f"expected object, got {_typename(x)}")
    return {k: _as_int(v, f"{path}.{k}", lo) for k, v in x.items()}


def parse_schedule(x, path: str = "$") -> ModeSchedule:
    obj = _as_obj(
        x,
        path,
        (
            "mode_id",
            "hyperperiod_us",
            "round_len_us",
            "task_offsets",
            "message_offsets",
            "message_deadlines",
            "rounds",
            "leftover",
        ),
    )
    rounds = []
    for i, r in enumerate(_as_list(obj["rounds"], f"{path}.rounds")):
        rp = f"{path}.rounds[{i}]"
        ro = _as_obj(r, rp, ("t", "alloc"))
        alloc = tuple(
            _as_str(a, f"{rp}.alloc[{j}]")
            for j, a in enumerate(_as_list(ro["alloc"], f"{rp}.alloc"))
        )
        rounds.append(Round(_as_int(ro["t"], f"{rp}.t", 0), alloc))
    leftover = _parse_us_map(obj["leftover"], f"{path}.leftover", 0)
    for k, v in leftover.items():
        if v > 1:
            _fail(f"{path}.leftover.{k}", f"value {v} above maximum 1")
    return ModeSchedule(
        mode_id=_as_str(obj["mode_id"], f"{path}.mode_id"),
        hyperperiod_us=_as_int(obj["hyperperiod_us"], f"{path}.hyperperiod_us", 1),
        round_len_us=_as_int(obj["round_len_us"], f"{path}.round_len_us", 1),
        task_offsets=_parse_us_map(obj["task_offsets"], f"{path}.task_offsets", 0),
        message_offsets=_parse_us_map(
            obj["message_offsets"], f"{path}.message_offsets", 0
        ),
        message_deadlines=_parse_us_map(
            obj["message_deadlines"], f"{path}.message_deadlines", 1
        ),
        rounds=tuple(rounds),
        leftover=leftover,
    )


def schedule_to_obj(s: ModeSchedule) -> dict:
    return {
        "mode_id": s.mode_id,
        "hyperperiod_us": s.hyperperiod_us,
        "round_len_us": s.round_len_us,
        "task_offsets": dict(sorted(s.task_offsets.items())),
        "message_offsets": dict(sorted(s.message_offsets.items())),
        "message_deadlines": dict(sorted(s.message_deadlines.items())),
        "rounds": [{"t": r.t, "alloc": list(r.alloc)} for r in s.rounds],
        "leftover": dict(sorted(s.leftover.items())),
    }


def parse_scenario(x, path: str = "$") -> Scenario:
    obj = _as_obj(
        x,
        path,
        ("initial_mode", "n_rounds"),
        ("beacon_loss", "seed", "switches"),
    )
    switches = []
    for i, s in enumerate(_as_list(obj.get("switches", []), f"{path}.switches")):
        sp = f"{path}.switches[{i}]"
        so = _as_obj(s, sp, ("at_us", "to_mode"))
        switches.append(
            SwitchRequest(
                at_us=_as_int(so["at_us"], f"{sp}.at_us", 0),
                to_mode=_as_str(so["to_mode"], f"{sp}.to_mode"),
            )
        )
    return Scenario(
        initial_mode=_as_str(obj["initial_mode"], f"{path}.initial_mode"),
        n_rounds=_as_int(obj["n_rounds"], f"{path}.n_rounds", 1),
        beacon_loss=_as_prob(obj.get("beacon_loss", 0.0), f"{path}.beacon_loss"),
        seed=_as_int(obj.get("seed", 0), f"{path}.seed", 0),
        switches=tuple(switches),
    )


def _summary_obj(trace: SimTrace) -> dict:
    return {
        "beacons_sent": trace.beacons_sent,
        "beacons_missed": trace.beacons_missed,
        "transmissions": trace.transmissions,
        "collisions": trace.collisions,
        "resyncs": trace.resyncs,
    }


def trace_to_obj(trace: SimTrace) -> dict:
    return {"summary": _summary_obj(trace), "events": trace.events}


#: events encoded per block by trace_chunks()
TRACE_BLOCK_EVENTS = 2048

# Without indent, json uses its C encoder. Events are flat (see sim), so
# this one writes each event of a list as '{"k": v,\n      "k": v}',
# joined by '},\n      {': the key lines already carry the 6-space indent
# of an event inside "events".
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _events_text(events: list[Event]) -> str:
    """The events as dumps() indents them inside "events", comma-joined."""
    # JSON strings hold no raw newline, so '},\n      {' only occurs
    # between two events
    body = _EVENT_ENCODER.encode(events)[2:-2].replace(
        "},\n      {", "\n    },\n    {\n      ")
    return "{\n      " + body + "\n    }"


def trace_chunks(events: Iterable[Event], trace: SimTrace) -> Iterator[str]:
    """The text of a trace with these events and trace's counters, in blocks.

    Joined, the blocks are dumps(trace_to_obj(trace)) for a trace whose
    events are these.  Events are pulled and encoded a block at a time,
    never all held; the counters are read after the last event, so
    events may be the live iterator that fills them.
    """
    events = iter(events)
    block = list(islice(events, TRACE_BLOCK_EVENTS))
    if not block:
        yield '{\n  "events": [],\n'
    else:
        yield '{\n  "events": [\n    '
        while block:
            yield _events_text(block)
            block = list(islice(events, TRACE_BLOCK_EVENTS))
            if block:
                yield ",\n    "
        yield "\n  ],\n"
    summary = dumps(_summary_obj(trace))[:-1].replace("\n", "\n  ")
    yield '  "summary": ' + summary + "\n}\n"


def report_to_obj(report: CheckReport) -> dict:
    return {
        "ok": report.ok,
        "families": report.by_family(),
        "violations": [
            {"code": v.code, "where": v.where, "detail": v.detail}
            for v in report.violations
        ],
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}: not valid JSON ({e})") from e
