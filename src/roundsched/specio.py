"""Strict JSON reading and writing for specs, schedules, scenarios.

Each record's schema is its dataclass: a network is NetworkParams, a
schedule ModeSchedule (its rounds Round), a scenario Scenario (its
switches SwitchRequest), a mode Mode and a task Task.  The JSON keys are
the fields, a field with a default is an optional key, and a missing one
takes the dataclass default.  timing.NETWORK_MINIMUMS bounds each network
field; the reader checks it before NetworkParams does, so the error names
the JSON path (the radio is fixed, see timing, so a network names only
its deployment).
Three records name their keys here: an application, whose deadline_us is
optional only in JSON (it defaults to the period), an edge, which is a
(src, dst, msg) triple, and the spec itself.

Readers reject anything the schema does not name: unknown keys, wrong
types (a bool is never accepted where an int belongs) and bad ranges.
Errors carry the JSON path of the offending value so they read like
"$.modes[0].applications[1].tasks[2].wcet_us: expected int, got bool".
A task names only its id, node and WCET; it runs at the period of the
application that lists it.

Writers are byte-stable: keys sorted, two-space indent, one trailing
newline. A simulation trace is streamed, never held whole:
trace_chunks() pulls records (see sim.SHAPES) from an iterable, such as
the live sim.run() iterator, in blocks of TRACE_BLOCK_EVENTS, renders
each block and yields it, then writes the summary last; the bytes are
those of dumps(trace_to_obj(trace)) for the records' events.  Each
shape is rendered from one %-template built from its declaration, keys
sorted and encoded in advance: an int value goes in through %d, a bool
as true or false, and a str as json's own encoder writes it.  A record
of a shape not declared there is refused with ValueError.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .checker import CheckReport
from .model import Application, Mode, ModeSchedule, Round, Task
from .sim import SHAPES, Record, Scenario, Shape, SimTrace, SwitchRequest
from .timing import NETWORK_MINIMUMS, NetworkParams


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


def _as_int(x, path: str, lo: int) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, f"expected int, got {_typename(x)}")
    if x < lo:
        _fail(path, f"value {x} below minimum {lo}")
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


def _at_least(lo: int) -> Callable[[object, str], int]:
    return lambda x, path: _as_int(x, path, lo)


def _tuple_of(item: Callable[[object, str], object]) -> Callable[[object, str], tuple]:
    """A reader of a JSON list whose entries item reads."""
    return lambda x, path: tuple(
        [item(v, f"{path}[{i}]") for i, v in enumerate(_as_list(x, path))])


def _record(cls, read: dict[str, Callable[[object, str], object]]):
    """A reader of the JSON object whose keys are the dataclass cls's fields.

    A field with a default is an optional key.  The keys are read in field
    order by read[key], and only the present ones are passed to cls, so a
    missing optional key takes the dataclass default.
    """
    names = tuple(f.name for f in fields(cls))
    assert set(read) == set(names), cls
    required = tuple(
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING)
    optional = tuple(k for k in names if k not in required)
    readers = tuple((k, read[k]) for k in names)

    def parse(x, path: str = "$"):
        obj = _as_obj(x, path, required, optional)
        kw = {}
        for k, read_k in readers:
            if k in obj:
                kw[k] = read_k(obj[k], f"{path}.{k}")
        return cls(**kw)

    return parse


_parse_network_fields = _record(
    NetworkParams, {k: _at_least(lo) for k, lo in NETWORK_MINIMUMS.items()})


def parse_network(x, path: str = "$.network") -> NetworkParams:
    return _parse_network_fields(x, path)


_parse_tasks = _tuple_of(
    _record(Task, {"id": _as_str, "node": _as_str, "wcet_us": _at_least(1)}))


def _parse_edge(x, path: str) -> tuple[str, str, str]:
    obj = _as_obj(x, path, ("src", "dst", "msg"))
    return tuple(_as_str(obj[k], f"{path}.{k}") for k in ("src", "dst", "msg"))


_parse_edges = _tuple_of(_parse_edge)


def _parse_app(x, path: str) -> Application:
    obj = _as_obj(x, path, ("id", "period_us", "tasks", "edges"), ("deadline_us",))
    period = _as_int(obj["period_us"], f"{path}.period_us", 1)
    return Application(
        id=_as_str(obj["id"], f"{path}.id"),
        period_us=period,
        deadline_us=_as_int(obj.get("deadline_us", period), f"{path}.deadline_us", 1),
        tasks=_parse_tasks(obj["tasks"], f"{path}.tasks"),
        edges=_parse_edges(obj["edges"], f"{path}.edges"),
    )


_parse_modes = _tuple_of(
    _record(Mode, {"id": _as_str, "applications": _tuple_of(_parse_app)}))


def parse_spec(x) -> SystemSpec:
    obj = _as_obj(x, "$", ("network", "modes"), ("grid_us",))
    network = parse_network(obj["network"])
    grid = _as_int(obj.get("grid_us", 1), "$.grid_us", 1)
    modes = _parse_modes(obj["modes"], "$.modes")
    for i, mode in enumerate(modes):
        if any(prev.id == mode.id for prev in modes[:i]):
            _fail(f"$.modes[{i}].id", f"duplicate mode id {mode.id!r}")
    if not modes:
        _fail("$.modes", "at least one mode is required")
    for mode in modes:
        for app in mode.applications:
            if app.period_us % grid:
                _fail("$.grid_us", f"{grid} does not divide the period"
                      f" {app.period_us} of application {app.id!r} in mode {mode.id!r}")
    return SystemSpec(network=network, grid_us=grid, modes=modes)


def _parse_us_map(x, path: str, lo: int) -> dict[str, int]:
    if not isinstance(x, dict):
        _fail(path, f"expected object, got {_typename(x)}")
    return {k: _as_int(v, f"{path}.{k}", lo) for k, v in x.items()}


def _parse_leftover(x, path: str) -> dict[str, int]:
    leftover = _parse_us_map(x, path, 0)
    for k, v in leftover.items():
        if v > 1:
            _fail(f"{path}.{k}", f"value {v} above maximum 1")
    return leftover


parse_schedule = _record(ModeSchedule, {
    "mode_id": _as_str,
    "hyperperiod_us": _at_least(1),
    "round_len_us": _at_least(1),
    "task_offsets": partial(_parse_us_map, lo=0),
    "message_offsets": partial(_parse_us_map, lo=0),
    "message_deadlines": partial(_parse_us_map, lo=1),
    "rounds": _tuple_of(
        _record(Round, {"t": _at_least(0), "alloc": _tuple_of(_as_str)})),
    "leftover": _parse_leftover,
})


def schedule_to_obj(s: ModeSchedule) -> dict:
    obj = asdict(s)
    obj["rounds"] = [dict(r, alloc=list(r["alloc"])) for r in obj["rounds"]]
    return obj


parse_scenario = _record(Scenario, {
    "initial_mode": _as_str,
    "n_rounds": _at_least(1),
    "beacon_loss": _as_prob,
    "seed": _at_least(0),
    "switches": _tuple_of(
        _record(SwitchRequest, {"at_us": _at_least(0), "to_mode": _as_str})),
})


#: the summary's counters: every SimTrace field but its events
_SUMMARY_FIELDS = tuple(f.name for f in fields(SimTrace) if f.name != "events")


def _summary_obj(trace: SimTrace) -> dict:
    return {k: getattr(trace, k) for k in _SUMMARY_FIELDS}


def trace_to_obj(trace: SimTrace) -> dict:
    return {"summary": _summary_obj(trace), "events": trace.events}


#: records rendered per block by trace_chunks()
TRACE_BLOCK_EVENTS = 2048

#: how a field of each declared type enters its shape's template
_PLACEHOLDERS = {int: "%d", str: "%s", bool: "%s"}


def _template(shape: Shape) -> tuple[str, Callable[[Record], tuple], tuple[int, ...]]:
    """The event of shape as dumps() indents it inside "events", as a
    %-template; the getter of the record values it takes, in key order;
    and which of those are str or bool, so go in as JSON text."""
    types = (None, int) + tuple(typ for _, typ in shape.fields)
    keys = sorted([("kind", None), ("t", 1)]
                  + [(name, 2 + i) for i, (name, _) in enumerate(shape.fields)])
    lines = []
    for key, pos in keys:
        value = (json.dumps(shape.kind).replace("%", "%%") if pos is None
                 else _PLACEHOLDERS[types[pos]])
        lines.append(f'      {json.dumps(key).replace("%", "%%")}: {value}')
    positions = [pos for _, pos in keys if pos is not None]
    texts = tuple(i for i, pos in enumerate(positions) if types[pos] is not int)
    return "{\n" + ",\n".join(lines) + "\n    }", itemgetter(*positions), texts


_TEMPLATES = {tag: _template(shape) for tag, shape in SHAPES.items()}


class _JsonText(dict):
    """A str or bool value's JSON text, each str encoded once."""

    def __init__(self):
        super().__init__({True: "true", False: "false"})

    def __missing__(self, value: str) -> str:
        text = self[value] = encode_basestring_ascii(value)
        return text


def _records_text(records: list[Record], json_text: _JsonText) -> str:
    """The records' events as dumps() indents them inside "events", comma-joined."""
    texts = []
    for record in records:
        try:
            template, values_of, text_at = _TEMPLATES[record[0]]
        except KeyError:
            raise ValueError(f"undeclared record shape {record[0]!r}") from None
        values = list(values_of(record))
        for i in text_at:
            values[i] = json_text[values[i]]
        texts.append(template % tuple(values))
    return ",\n    ".join(texts)


def trace_chunks(records: Iterable[Record], trace: SimTrace) -> Iterator[str]:
    """The text of a trace with these records and trace's counters, in blocks.

    Joined, the blocks are dumps(trace_to_obj(trace)) for a trace whose
    events are the records' (see sim.as_event).  Records are pulled and
    rendered a block at a time, never all held; the counters are read
    after the last record, so records may be the live sim.run() iterator
    that fills them.
    """
    records = iter(records)
    json_text = _JsonText()
    block = list(islice(records, TRACE_BLOCK_EVENTS))
    if not block:
        yield '{\n  "events": [],\n'
    else:
        yield '{\n  "events": [\n    '
        while block:
            yield _records_text(block, json_text)
            block = list(islice(records, TRACE_BLOCK_EVENTS))
            if block:
                yield ",\n    "
        yield "\n  ],\n"
    summary = dumps(_summary_obj(trace))[:-1].replace("\n", "\n  ")
    yield '  "summary": ' + summary + "\n}\n"


def report_to_obj(report: CheckReport) -> dict:
    return {
        "ok": report.ok,
        "families": report.by_family(),
        "violations": [asdict(v) for v in report.violations],
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}: not valid JSON ({e})") from e
