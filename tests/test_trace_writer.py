"""The streamed trace writer against the reference encoding.

trace_chunks() must yield, joined, exactly dumps(trace_to_obj(trace)):
the bytes a trace file had when the whole trace went through
json.dumps(indent=2). Checked on random traces, at and around block
boundaries, and on a long lossy simulation with mode changes.
"""

import os
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from roundsched import specio
from roundsched.sim import Scenario, SimTrace, SwitchRequest, simulate
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

# text that could confuse a writer that edits encoded JSON as text
TRICKY = ('"', "\\", "\n", "\r\n", "\t", "},", "},\n      {", "{\n", "\n    }",
          "é", "☃", "\U0001f600", "\x00", " ")

strings = st.lists(st.one_of(st.text(max_size=4), st.sampled_from(TRICKY)),
                   max_size=4).map("".join)
ints = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from((0, -1, 2**63, -(2**64))))
scalars = st.one_of(strings, ints, st.booleans(), st.none())
keys = st.one_of(strings, st.sampled_from(("t", "kind", "node", "msg", "round_id")))

# an event is flat: "t", "kind" and scalar fields, which may be drawn
# with the keys "t" and "kind" and then replace them
flat_events = st.builds(
    lambda t, kind, fields: {"t": t, "kind": kind, **fields},
    ints, strings, st.dictionaries(keys, scalars, max_size=4),
)
collisions = st.fixed_dictionaries({
    "t": ints,
    "kind": st.just("collision"),
    "round_id": st.integers(0, 2**40),
    "slot": st.integers(0, 20),
    "senders": st.integers(2, 5),
})


@st.composite
def traces(draw):
    """A SimTrace and the block size to write it with.

    The events cycle through a small drawn pool, so a trace can hold a
    block's worth of events, or one more or one fewer, cheaply.
    """
    block = draw(st.sampled_from((1, 2, 3, TRACE_BLOCK_EVENTS)))
    pool = draw(st.lists(
        st.one_of(flat_events, flat_events, collisions),
        min_size=1, max_size=6,
    ))
    n = draw(st.one_of(
        st.sampled_from((0, 1, block - 1, block, block + 1, 2 * block, 2 * block + 1)),
        st.integers(0, 12),
    ))
    trace = SimTrace(events=[pool[i % len(pool)] for i in range(n)])
    for name in ("beacons_sent", "beacons_missed", "transmissions", "collisions",
                 "resyncs"):
        setattr(trace, name, draw(st.integers(0, 2**40)))
    return trace, block


def streamed(trace: SimTrace, block: int = TRACE_BLOCK_EVENTS) -> str:
    with mock.patch.object(specio, "TRACE_BLOCK_EVENTS", block):
        return "".join(trace_chunks(trace.events, trace))


def assert_streams_as_reference(trace: SimTrace, block: int = TRACE_BLOCK_EVENTS) -> None:
    """Raise naming the first differing offset.

    A plain assert on the two strings would have pytest diff them, which
    takes minutes on large texts while hypothesis shrinks a failure.
    """
    got, want = streamed(trace, block), dumps(trace_to_obj(trace))
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
    assert_streams_as_reference(SimTrace())
    assert '"events": [],' in streamed(SimTrace())


def test_collision_at_every_position_of_a_block():
    flat = {"t": 5, "kind": "tx", "node": "a", "msg": "m", "round_id": 0, "slot": 1}
    hit = {"t": 5, "kind": "collision", "round_id": 0, "slot": 1, "senders": 2}
    for pos in range(4):
        trace = SimTrace(events=[flat] * 4)
        trace.events[pos] = hit
        for block in (1, 2, 4, 8):
            assert_streams_as_reference(trace, block)


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
    trace = simulate(table, scenario)
    assert len(trace.of_kind("epoch")) == 2
    assert trace.beacons_missed > 0
    assert len(trace.events) > 3 * TRACE_BLOCK_EVENTS
    assert_streams_as_reference(trace)
    assert_streams_as_reference(trace, 1000)
