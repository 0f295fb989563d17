"""The live trace path: sim.run() streamed through specio.trace_chunks().

Joined, the blocks written from the live event iterator must be the
bytes of dumps(trace_to_obj(simulate(..))), and writing a trace must
hold a block of events at a time, not the run.
"""

import collections
import os
import tracemalloc
from pathlib import Path

import pytest

from roundsched.sim import Scenario, SimTrace, SwitchRequest, run, simulate
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


@pytest.fixture(scope="module")
def table():
    spec = parse_spec(load_json(str(SPEC_DIR / "control_loop.json")))
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
    got = "".join(trace_chunks(run(table, scenario, live), live))
    reference = simulate(table, scenario)
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
    # the writer lays events out without looking at their values, which
    # holds only for a flat dict of scalars
    switches = (SwitchRequest(250_000, "fallback"), SwitchRequest(90_000_000, "normal"))
    full = simulate(table, Scenario("normal", 4000, 0.2, 11, switches))
    # cut at the second switch beacon: a node that missed it is still
    # degraded when the run ends
    last_sb = [e for e in full.of_kind("beacon") if e["sb"]][-1]
    cut = simulate(table, Scenario("normal", last_sb["round_id"] + 1, 0.2, 11, switches))
    events = full.events + cut.events
    for e in events:
        assert type(e) is dict, e
        assert type(e["t"]) is int and type(e["kind"]) is str, e
        assert all(type(v) in (str, int, bool) for v in e.values()), e
    assert {e["kind"] for e in events} == {
        "request", "announce", "beacon", "miss", "resync", "degraded", "tx", "epoch"}
    assert {"open" in e for e in events if e["kind"] == "degraded"} == {False, True}


def peak_bytes_writing(table, scenario) -> int:
    """Peak traced allocation while a trace is written to a discarding sink."""
    tracemalloc.start()
    try:
        trace = SimTrace()
        collections.deque(trace_chunks(run(table, scenario, trace), trace), maxlen=0)
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
