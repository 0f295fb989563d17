"""The streamed trace writer against the reference encoding.

trace_chunks() renders records (see sim.SHAPES); joined, its blocks must
be exactly dumps(trace_to_obj(trace)) for a trace whose events are the
records' dicts (sim.as_event): the bytes a trace file had when the whole
trace went through json.dumps(indent=2). Checked on random records of
every declared shape, at and around block boundaries, and on a long
lossy simulation with mode changes.
"""

import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundsched import specio
from roundsched.sim import SHAPES, Scenario, SimTrace, SwitchRequest, as_event, run
from roundsched.specio import (
    TRACE_BLOCK_EVENTS,
    dumps,
    load_json,
    parse_spec,
    trace_chunks,
    trace_to_obj,
)
from roundsched.synthesis import SynthConfig, synthesize

CONTROL = str(Path(__file__).resolve().parent.parent / "specs" / "control_loop.json")

# text that could confuse a writer that edits encoded JSON as text, or
# fills %-templates
TRICKY = ('"', "\\", "\n", "\r\n", "\t", "},", "},\n      {", "{\n", "\n    }",
          "é", "☃", "\U0001f600", "\x00", " ", "%", "%d", "%s", "%%")

strings = st.lists(st.one_of(st.text(max_size=4), st.sampled_from(TRICKY)),
                   max_size=4).map("".join)
ints = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from((0, -1, 2**63, -(2**64))))
VALUES = {str: strings, int: ints, bool: st.booleans()}

# a record of each declared shape, the open degraded span among them:
# (tag, t, <field values in declared order>)
records = st.one_of([
    st.tuples(st.just(tag), ints, *(VALUES[typ] for _, typ in shape.fields))
    for tag, shape in SHAPES.items()
])


def with_events(records: list[tuple]) -> SimTrace:
    return SimTrace(events=[as_event(r) for r in records])


@st.composite
def traces(draw):
    """Records, the SimTrace of their events, and the block size to
    write them with.

    The records cycle through a small drawn pool, so a trace can hold a
    block's worth of events, or one more or one fewer, cheaply.
    """
    block = draw(st.sampled_from((1, 2, 3, TRACE_BLOCK_EVENTS)))
    pool = draw(st.lists(records, min_size=1, max_size=6))
    n = draw(st.one_of(
        st.sampled_from((0, 1, block - 1, block, block + 1, 2 * block, 2 * block + 1)),
        st.integers(0, 12),
    ))
    recs = [pool[i % len(pool)] for i in range(n)]
    trace = with_events(recs)
    for name in ("beacons_sent", "beacons_missed", "transmissions", "collisions",
                 "resyncs"):
        setattr(trace, name, draw(st.integers(0, 2**40)))
    return recs, trace, block


def streamed(records: list[tuple], trace: SimTrace, block: int = TRACE_BLOCK_EVENTS) -> str:
    with mock.patch.object(specio, "TRACE_BLOCK_EVENTS", block):
        return "".join(trace_chunks(records, trace))


def assert_streams_as_reference(records: list[tuple], trace: SimTrace,
                                block: int = TRACE_BLOCK_EVENTS) -> None:
    """Raise naming the first differing offset.

    A plain assert on the two strings would have pytest diff them, which
    takes minutes on large texts while hypothesis shrinks a failure.
    """
    got, want = streamed(records, trace, block), dumps(trace_to_obj(trace))
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        lo = max(i - 30, 0)
        raise AssertionError(
            f"block {block}, {len(trace.events)} events: streamed text differs "
            f"from the reference at offset {i}: {got[lo:i + 30]!r} != {want[lo:i + 30]!r}"
        )


@given(traces())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_streamed_bytes_equal_reference(case):
    assert_streams_as_reference(*case)


def test_empty_trace():
    assert_streams_as_reference([], SimTrace())
    assert '"events": [],' in streamed([], SimTrace())


def test_every_shape_at_every_position_of_a_block():
    tx = ("tx", 5, "a", "m", 0, 1)
    samples = {"request": ("request", 7, "fallback", 250_000),
               "announce": ("announce", 7, "fallback", 300_000),
               "beacon": ("beacon", 7, 3, "normal", 1, 1),
               "miss": ("miss", 7, "n%d", 3),
               "resync": ("resync", 7, "n\"1", "normal"),
               "degraded": ("degraded", 7, "n1", 2),
               "degraded_open": ("degraded_open", 2, "n1", 2, True),
               "tx": ("tx", -7, "\u2603", "%s", 2**70, 0),
               "epoch": ("epoch", 7, "normal")}
    assert set(samples) == set(SHAPES)
    for sample in samples.values():
        for pos in range(4):
            recs = [tx] * 4
            recs[pos] = sample
            for block in (1, 2, 4, 8):
                assert_streams_as_reference(recs, with_events(recs), block)


def test_an_undeclared_shape_is_refused():
    # the simulator no longer makes collision records
    collision = ("collision", 5, 0, 1, 2)
    with pytest.raises(ValueError, match="undeclared record shape 'collision'"):
        "".join(trace_chunks([("tx", 5, "a", "m", 0, 1), collision], SimTrace()))
    with pytest.raises(ValueError, match="undeclared record shape 'collision'"):
        as_event(collision)


def test_long_lossy_run_with_mode_changes():
    spec = parse_spec(load_json(CONTROL))
    config = SynthConfig(grid_us=spec.grid_us)
    table = {}
    for mode in spec.modes:
        out = synthesize(mode, spec.network, config)
        assert out.status == "feasible"
        table[mode.id] = (mode, out.schedule)
    scenario = Scenario(
        "normal", 4000, beacon_loss=0.2, seed=11,
        switches=(SwitchRequest(250_000, "fallback"), SwitchRequest(90_000_000, "normal")),
    )
    trace = SimTrace()
    recs = list(run(table, scenario, spec.network, trace))
    trace.events = [as_event(r) for r in recs]
    assert len(trace.of_kind("epoch")) == 2
    assert trace.beacons_missed > 0
    assert len(trace.events) > 3 * TRACE_BLOCK_EVENTS
    assert_streams_as_reference(recs, trace)
    assert_streams_as_reference(recs, trace, 1000)
