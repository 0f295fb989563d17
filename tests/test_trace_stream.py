"""The live trace path: sim.run() streamed through specio.trace_chunks().

Joined, the blocks written from the live record iterator must be the
bytes of dumps(trace_to_obj(simulate(..))), and writing a trace must
hold a block of events at a time, not the run.
"""

import collections
import os
import tracemalloc
from pathlib import Path

import pytest

from roundsched.sim import SHAPES, Scenario, SimTrace, SwitchRequest, as_event, run, simulate
from roundsched.specio import (
    TRACE_BLOCK_EVENTS,
    dumps,
    load_json,
    parse_scenario,
    parse_spec,
    trace_chunks,
    trace_to_obj,
)
from roundsched.synthesis import SynthConfig, synthesize

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


SPEC = parse_spec(load_json(str(SPEC_DIR / "control_loop.json")))


@pytest.fixture(scope="module")
def table():
    spec = SPEC
    config = SynthConfig(grid_us=spec.grid_us)
    table = {}
    for mode in spec.modes:
        out = synthesize(mode, spec.network, config)
        assert out.status == "feasible"
        table[mode.id] = (mode, out.schedule)
    return table


def assert_live_matches_reference(table, scenario) -> SimTrace:
    """The live text is the reference encoding of simulate()'s trace.

    A mismatch is reported by its first differing offset: pytest's own
    diff of two long texts takes minutes.
    """
    live = SimTrace()
    got = "".join(trace_chunks(run(table, scenario, SPEC.network, live), live))
    reference = simulate(table, scenario, SPEC.network)
    want = dumps(trace_to_obj(reference))
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        lo = max(i - 30, 0)
        raise AssertionError(
            f"{len(reference.events)} events: live text differs from the reference "
            f"at offset {i}: {got[lo:i + 30]!r} != {want[lo:i + 30]!r}"
        )
    assert live.events == []  # the live path keeps no event
    return reference


def test_run_without_rounds(table):
    # the scenario parser wants n_rounds >= 1; the library takes 0
    reference = assert_live_matches_reference(table, Scenario("normal", 0))
    assert reference.events == []


def test_exactly_one_block(table):
    # the fallback schedule has one round of one slot: with no loss each
    # round is a beacon and a transmission
    scenario = Scenario("fallback", TRACE_BLOCK_EVENTS // 2)
    reference = assert_live_matches_reference(table, scenario)
    assert len(reference.events) == TRACE_BLOCK_EVENTS


def test_long_lossy_run_with_mode_changes(table):
    scenario = Scenario(
        "normal", 4000, beacon_loss=0.2, seed=11,
        switches=(SwitchRequest(250_000, "fallback"), SwitchRequest(90_000_000, "normal")),
    )
    reference = assert_live_matches_reference(table, scenario)
    assert len(reference.of_kind("epoch")) == 2
    assert len(reference.events) > 3 * TRACE_BLOCK_EVENTS


def test_every_event_is_flat(table):
    # the writer fills a shape's template by the declared field types, so
    # each value must have exactly its type: a bool where an int is
    # declared would be written 1, not true
    switches = (SwitchRequest(250_000, "fallback"), SwitchRequest(90_000_000, "normal"))

    def records(n_rounds):
        scenario = Scenario("normal", n_rounds, 0.2, 11, switches)
        return list(run(table, scenario, SPEC.network, SimTrace()))

    full = records(4000)
    # cut at the second switch beacon: a node that missed it is still
    # degraded when the run ends
    last_sb = [e for e in map(as_event, full) if e["kind"] == "beacon" and e["sb"]][-1]
    cut = records(last_sb["round_id"] + 1)
    for r in full + cut:
        shape = SHAPES[r[0]]
        assert type(r) is tuple and len(r) == 2 + len(shape.fields), r
        assert type(r[1]) is int, r
        for (name, typ), value in zip(shape.fields, r[2:]):
            assert type(value) is typ, (r, name)
        event = as_event(r)
        assert list(event) == ["t", "kind"] + [name for name, _ in shape.fields], r
    assert {r[0] for r in full + cut} == set(SHAPES)
    assert {SHAPES[tag].kind for tag in SHAPES} == {
        "request", "announce", "beacon", "miss", "resync", "degraded", "tx", "epoch"}


def peak_bytes_writing(table, scenario) -> int:
    """Peak traced allocation while a trace is written to a discarding sink."""
    tracemalloc.start()
    try:
        trace = SimTrace()
        collections.deque(trace_chunks(run(table, scenario, SPEC.network, trace), trace), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.beacons_sent == scenario.n_rounds
    return peak


def test_memory_does_not_grow_with_the_run(table):
    bundled = parse_scenario(load_json(str(SPEC_DIR / "mode_change.json")))
    assert bundled.beacon_loss > 0 and len(bundled.switches) == 2
    short, long = (
        peak_bytes_writing(table, Scenario(
            bundled.initial_mode, n, bundled.beacon_loss, bundled.seed, bundled.switches))
        for n in (600, 6_000)
    )
    # 600 rounds already fill a block; the longer run has ten times the
    # events, and keeping them would give several times the peak
    assert long < 1.5 * short, f"peak {long} B at 6 000 rounds, {short} B at 600"
