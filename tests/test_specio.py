"""Strict JSON parsing: exact error paths and byte-stable writing."""

import json
import re
from pathlib import Path

import pytest

from roundsched.sim import SimTrace
from roundsched.specio import (
    SpecError,
    dumps,
    load_json,
    parse_scenario,
    parse_schedule,
    parse_spec,
    schedule_to_obj,
    trace_to_obj,
)
from support import RADIO_KEYS

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
SPEC_PATH = str(SPEC_DIR / "control_loop.json")


def base_spec() -> dict:
    return {
        "network": {"hops": 1, "slots_per_round": 2, "payload_bytes": 8},
        "grid_us": 1000,
        "modes": [
            {
                "id": "only",
                "applications": [
                    {
                        "id": "a",
                        "period_us": 40_000,
                        "tasks": [
                            {"id": "t1", "node": "n1", "wcet_us": 1000},
                            {"id": "t2", "node": "n2", "wcet_us": 1000},
                        ],
                        "edges": [{"src": "t1", "dst": "t2", "msg": "m"}],
                    }
                ],
            }
        ],
    }


def base_schedule() -> dict:
    return {
        "mode_id": "pipe",
        "hyperperiod_us": 40_000,
        "round_len_us": 15_094,
        "task_offsets": {"t1": 0, "t2": 17_000},
        "message_offsets": {"m": 1000},
        "message_deadlines": {"m": 16_000},
        "rounds": [{"t": 1000, "alloc": ["m"]}],
        "leftover": {"m": 0},
    }


class TestBundledSpec:
    def test_parses(self):
        spec = parse_spec(load_json(SPEC_PATH))
        assert spec.network.hops == 2
        assert spec.network.slots_per_round == 5
        assert spec.network.payload_bytes == 10
        assert spec.grid_us == 1000
        assert [m.id for m in spec.modes] == ["normal", "fallback"]
        normal = spec.mode_by_id("normal")
        assert sorted(normal.all_tasks()) == ["t1", "t2", "t3", "t5", "t6"]
        assert sorted(normal.message_periods()) == ["m1", "m2", "m3"]
        with pytest.raises(KeyError):
            spec.mode_by_id("nope")

    def test_spec_defaults(self):
        data = base_spec()
        del data["grid_us"]
        spec = parse_spec(data)
        assert spec.grid_us == 1
        app = spec.modes[0].applications[0]
        assert app.deadline_us == app.period_us  # defaults to the period


class TestSpecErrors:
    def check(self, mutate, message):
        data = base_spec()
        mutate(data)
        with pytest.raises(SpecError, match=re.escape(message)):
            parse_spec(data)

    def test_top_level_must_be_object(self):
        with pytest.raises(SpecError, match=re.escape("$: expected object, got list")):
            parse_spec([])

    def test_unknown_key(self):
        self.check(lambda d: d.update(extra=1), "$.extra: unknown key")

    def test_missing_key(self):
        self.check(
            lambda d: d["network"].pop("hops"),
            "$.network: missing required key 'hops'",
        )

    def test_bool_is_not_an_int(self):
        def mut(d):
            d["modes"][0]["applications"][0]["tasks"][0]["wcet_us"] = True

        self.check(
            mut,
            "$.modes[0].applications[0].tasks[0].wcet_us: expected int, got bool",
        )

    def test_range_check_names_the_limit(self):
        self.check(
            lambda d: d["network"].update(hops=0),
            "$.network.hops: value 0 below minimum 1",
        )

    @pytest.mark.parametrize("key", RADIO_KEYS)
    def test_radio_key_is_unknown(self, key):
        # the radio is fixed (timing's constants): no network sets it
        self.check(lambda d: d["network"].update({key: 0}),
                   f"$.network.{key}: unknown key")

    def test_empty_id_rejected(self):
        self.check(
            lambda d: d["modes"][0].update(id=""), "$.modes[0].id: empty string"
        )

    def test_at_least_one_mode(self):
        self.check(
            lambda d: d.update(modes=[]), "$.modes: at least one mode is required"
        )

    def test_duplicate_mode_id(self):
        # a second mode under a taken id could never be picked
        def mut(d):
            d["modes"].append(dict(d["modes"][0]))

        self.check(mut, "$.modes[1].id: duplicate mode id 'only'")

    @pytest.mark.parametrize("field, least", [
        ("slots_per_round", 1), ("payload_bytes", 1), ("retransmissions", 1)])
    def test_network_minimum_is_refused_at_its_path(self, field, least):
        # the reader refuses before NetworkParams would (hops: see above)
        self.check(lambda d: d["network"].update({field: least - 1}),
                   f"$.network.{field}: value {least - 1} below minimum {least}")

    def test_one_hop_without_retransmissions_is_refused(self):
        self.check(lambda d: d["network"].update(hops=1, retransmissions=0),
                   "$.network.retransmissions: value 0 below minimum 1")

    def test_network_fields_are_read_in_field_order(self):
        self.check(
            lambda d: d["network"].update(hops=0, payload_bytes=0),
            "$.network.hops: value 0 below minimum 1",
        )

    def test_list_is_required_at_its_path(self):
        self.check(lambda d: d.update(modes={}), "$.modes: expected list, got object")

    def test_schedule_keys_are_required_in_field_order(self):
        data = base_schedule()
        del data["mode_id"], data["rounds"]
        with pytest.raises(SpecError, match=re.escape("$: missing required key 'mode_id'")):
            parse_schedule(data)

    def test_edge_fields_are_checked(self):
        def mut(d):
            d["modes"][0]["applications"][0]["edges"][0]["src"] = 3

        self.check(
            mut,
            "$.modes[0].applications[0].edges[0].src: expected str, got int",
        )


class TestScheduleRoundTrip:
    def test_obj_to_schedule_and_back(self):
        data = base_schedule()
        sched = parse_schedule(data)
        assert sched.rounds[0].alloc == ("m",)
        assert schedule_to_obj(sched) == data

    def test_survives_serialization(self):
        sched = parse_schedule(base_schedule())
        text = dumps(schedule_to_obj(sched))
        again = parse_schedule(json.loads(text))
        assert again == sched

    def test_leftover_flag_capped_at_one(self):
        data = base_schedule()
        data["leftover"]["m"] = 2
        with pytest.raises(
            SpecError, match=re.escape("$.leftover.m: value 2 above maximum 1")
        ):
            parse_schedule(data)

    def test_task_offsets_must_be_an_object(self):
        data = base_schedule()
        data["task_offsets"] = [0, 16_100]
        with pytest.raises(
            SpecError, match=re.escape("$.task_offsets: expected object, got list")
        ):
            parse_schedule(data)

    def test_round_start_cannot_be_negative(self):
        data = base_schedule()
        data["rounds"][0]["t"] = -1
        with pytest.raises(
            SpecError, match=re.escape("$.rounds[0].t: value -1 below minimum 0")
        ):
            parse_schedule(data)


class TestScenario:
    def test_defaults(self):
        scn = parse_scenario({"initial_mode": "x", "n_rounds": 5})
        assert (scn.beacon_loss, scn.seed, scn.switches) == (0.0, 0, ())

    def test_switches_parse_in_order(self):
        scn = parse_scenario(
            {
                "initial_mode": "x",
                "n_rounds": 5,
                "switches": [
                    {"at_us": 100, "to_mode": "y"},
                    {"at_us": 200, "to_mode": "x"},
                ],
            }
        )
        assert [s.to_mode for s in scn.switches] == ["y", "x"]

    def test_loss_outside_unit_interval(self):
        with pytest.raises(
            SpecError, match=re.escape("$.beacon_loss: value 1.5 outside [0, 1]")
        ):
            parse_scenario(
                {"initial_mode": "x", "n_rounds": 5, "beacon_loss": 1.5}
            )

    def test_loss_must_be_a_number(self):
        with pytest.raises(
            SpecError, match=re.escape("$.beacon_loss: expected number, got str")
        ):
            parse_scenario({"initial_mode": "x", "n_rounds": 5, "beacon_loss": "high"})

    def test_bundled_scenario_parses(self):
        scn = parse_scenario(load_json(str(SPEC_DIR / "mode_change.json")))
        assert scn.initial_mode == "normal"
        assert scn.n_rounds == 60
        assert scn.beacon_loss == 0.3
        assert len(scn.switches) == 2


class TestWriting:
    def test_dumps_is_byte_stable_and_sorted(self):
        a = dumps({"b": 1, "a": [1, 2]})
        b = dumps({"a": [1, 2], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert a.index('"a"') < a.index('"b"')

    def test_trace_to_obj_shape(self):
        trace = SimTrace()
        event = {"t": 5, "kind": "beacon", "round_id": 0, "mode": "x", "index": 0, "sb": 0}
        trace.events.append(event)
        obj = trace_to_obj(trace)
        assert obj["summary"] == {
            "beacons_sent": 0,
            "beacons_missed": 0,
            "transmissions": 0,
            "collisions": 0,
            "resyncs": 0,
        }
        assert obj["events"] == [event]


class TestLoadJson:
    def test_bad_json_reports_the_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_json(str(p))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_json(str(tmp_path / "absent.json"))
