"""The bytes of `roundsched simulate` traces, pinned by digest.

The writer tests compare the streamed text with dumps(trace_to_obj(..))
of the same simulator, so a change in the order of the random draws or
of the events would pass them.  These digests were taken from traces
written by the json-module encoder, on schedules that `roundsched synth`
wrote for the bundled spec (kept under tests/data/, so the pin does not
depend on HiGHS).  The second digest of each scenario pins simulate()'s
event dicts with their key order, which the sorted trace file does not.
"""

import hashlib
import json
from pathlib import Path

import pytest

from roundsched.cli import main
from roundsched.sim import simulate
from roundsched.specio import load_json, parse_scenario, parse_schedule, parse_spec

ROOT = Path(__file__).resolve().parent.parent
CONTROL = str(ROOT / "specs" / "control_loop.json")
DATA = Path(__file__).resolve().parent / "data"
SCHEDULES = {m: str(DATA / f"{m}.json") for m in ("normal", "fallback")}

# a lossy run of 2505 rounds whose second switch beacon, in round 2504,
# three nodes miss: the run ends inside their degraded spans
LOSSY = {
    "initial_mode": "normal", "n_rounds": 2505, "beacon_loss": 0.2, "seed": 3,
    "switches": [{"at_us": 250_000, "to_mode": "fallback"},
                 {"at_us": 250_000_000, "to_mode": "normal"}],
}

#: per scenario, sha256 of the trace file and of simulate()'s events
PINS = {
    "mode_change": ("2c4ebd895c7bbf76e460ac33d99cf1df66824937c59a62bdb42185871a0fb385",
                    "d3f337701becde96480e938153575e33683db91d136f7f9fa6122bba172e74f9"),
    "lossy": ("9165c3f5b80bc7449e9c4be3ede6884cd22a34257c04ca860b5d5d130b3fc6f6",
              "a09a6097748b9009e9173358dbae7e030a52a09cf01edd1144eec2161c5dfbe6"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(params=sorted(PINS))
def scenario(request, tmp_path):
    if request.param == "mode_change":
        path = ROOT / "specs" / "mode_change.json"
    else:
        path = tmp_path / "lossy.json"
        path.write_text(json.dumps(LOSSY))
    return request.param, str(path)


def test_trace_bytes_are_pinned(scenario, tmp_path):
    name, path = scenario
    out = tmp_path / "trace.json"
    argv = ["simulate", "--spec", CONTROL, "--scenario", path, "--trace", str(out)]
    for mode, sched in SCHEDULES.items():
        argv += ["--schedule", f"{mode}={sched}"]
    assert main(argv) == 0
    assert sha256(out.read_bytes()) == PINS[name][0]


def test_event_dicts_are_pinned(scenario):
    name, path = scenario
    spec = parse_spec(load_json(CONTROL))
    table = {m: (spec.mode_by_id(m), parse_schedule(load_json(p)))
             for m, p in SCHEDULES.items()}
    trace = simulate(table, parse_scenario(load_json(path)), spec.network)
    if name == "lossy":
        kinds = {e["kind"] for e in trace.events}
        assert kinds == {"request", "announce", "beacon", "miss", "resync",
                         "degraded", "tx", "epoch"}
        assert sum(e.get("open", False) for e in trace.events) == 3
    # json.dumps keeps each dict's key order
    assert sha256(json.dumps(trace.events).encode()) == PINS[name][1]
