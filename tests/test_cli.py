"""Command line behaviour, driven in process through main(argv).

Exit codes under test: 0 success, 1 input or budget errors, 2 proven
infeasible, 3 audit violations.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from roundsched import cli
from roundsched.cli import main
from roundsched.sim import simulate
from roundsched.specio import (
    dumps,
    load_json,
    parse_scenario,
    parse_schedule,
    parse_spec,
    trace_to_obj,
)
from roundsched.synthesis import synthesize
from roundsched.timing import NetworkParams, t_round

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
CONTROL = str(SPEC_DIR / "control_loop.json")
SCENARIO = str(SPEC_DIR / "mode_change.json")
SRC = Path(__file__).resolve().parent.parent / "src"
# a spec on which HiGHS printf()s a diagnostic line to the C stdout
HIGHS_STDOUT = str(Path(__file__).resolve().parent / "data" / "highs_stdout.json")


@pytest.fixture(scope="module")
def synthesized(tmp_path_factory):
    """Run synth once per module for both bundled modes."""
    d = tmp_path_factory.mktemp("cli")
    normal = d / "normal.json"
    fallback = d / "fallback.json"
    assert main(["synth", "--spec", CONTROL, "--mode", "normal",
                 "--out", str(normal)]) == 0
    assert main(["synth", "--spec", CONTROL, "--mode", "fallback",
                 "--out", str(fallback)]) == 0
    return {"normal": normal, "fallback": fallback}


class TestSynth:
    def test_status_line_and_schedule_output(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["synth", "--spec", CONTROL, "--mode", "normal",
                   "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "feasible: 2 rounds, objective 89000 us, 3 solver calls" in err
        sched = json.loads(out.read_text())
        assert sched["mode_id"] == "normal"
        assert len(sched["rounds"]) == 2
        rc = main(["check", "--spec", CONTROL, "--schedule", str(out)])
        assert rc == 0

    def test_stdout_when_no_out_file(self, capsys):
        rc = main(["synth", "--spec", CONTROL, "--mode", "fallback"])
        assert rc == 0
        sched = json.loads(capsys.readouterr().out)
        assert sched["mode_id"] == "fallback"

    def test_infeasible_spec_exits_2(self, capsys, tmp_path):
        data = json.loads(Path(CONTROL).read_text())
        data["network"]["hops"] = 4
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps(data))
        rc = main(["synth", "--spec", str(spec), "--mode", "normal"])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err

    def test_zero_budget_exits_1(self, capsys):
        rc = main(["synth", "--spec", CONTROL, "--mode", "normal",
                   "--budget-ms", "0"])
        assert rc == 1
        assert "timeout" in capsys.readouterr().err

    def test_zero_budget_runs_and_dumps_nothing(self, capsys, tmp_path):
        lp_dir = tmp_path / "lp"
        rc = main(["synth", "--spec", CONTROL, "--mode", "normal",
                   "--budget-ms", "0", "--lp-dir", str(lp_dir)])
        assert rc == 1
        assert "after 0 solver calls" in capsys.readouterr().err
        assert list(lp_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, what",
        [
            ("--t-max-us", "-5", "horizon cap"),
            ("--t-max-us", "0", "horizon cap"),
            ("--budget-ms", "-5", "solver budget"),
        ],
    )
    def test_meaningless_budget_is_an_input_error(self, capsys, flag, value, what):
        # neither a proof of infeasibility (2) nor a timeout: no solver ran
        rc = main(["synth", "--spec", CONTROL, "--mode", "normal", flag, value])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {what}")
        assert "infeasible" not in captured.err and "timeout" not in captured.err
        assert captured.out == ""

    def test_timeout_writes_the_incumbent(self, capsys, tmp_path, monkeypatch):
        def out_of_time(*args):
            return dataclasses.replace(synthesize(*args), status="timeout")

        monkeypatch.setattr(cli, "synthesize", out_of_time)
        out = tmp_path / "s.json"
        rc = main(["synth", "--spec", CONTROL, "--mode", "normal",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "timeout: best schedule has 2 rounds, objective 89000 us, " \
            "not proven optimal" in err
        assert main(["check", "--spec", CONTROL, "--schedule", str(out)]) == 0

    def test_stdout_is_only_json_in_a_subprocess(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "roundsched.cli", "synth", "--spec", HIGHS_STDOUT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["mode_id"] == "rand64"

    def test_mode_flag_required_for_multi_mode_spec(self, capsys):
        rc = main(["synth", "--spec", CONTROL])
        assert rc == 1
        assert "--mode is required" in capsys.readouterr().err

    def test_unknown_mode(self, capsys):
        rc = main(["synth", "--spec", CONTROL, "--mode", "nope"])
        assert rc == 1
        assert "unknown mode nope" in capsys.readouterr().err

    def test_lp_dump_writes_one_file_per_attempt(self, tmp_path):
        lp_dir = tmp_path / "lps"
        rc = main(["synth", "--spec", CONTROL, "--mode", "fallback",
                   "--out", str(tmp_path / "f.json"), "--lp-dir", str(lp_dir)])
        assert rc == 0
        assert sorted(p.name for p in lp_dir.iterdir()) == [
            "fallback_r0.lp",
            "fallback_r1.lp",
        ]
        text = (lp_dir / "fallback_r1.lp").read_text()
        assert text.startswith("\\ fallback_r1\nMinimize\n")

    @pytest.mark.parametrize("mode_id, stem", [
        ("n\u00f6rmal\nEnd", "n_rmal_End"),  # not ASCII, and a line break
        ("../escaped", "___escaped"),  # a path outside --lp-dir
    ])
    def test_lp_dump_names_files_from_the_sanitized_mode_id(
        self, capsys, tmp_path, mode_id, stem
    ):
        data = json.loads(Path(CONTROL).read_text())
        data["modes"][1]["id"] = mode_id
        spec = tmp_path / "renamed.json"
        spec.write_text(json.dumps(data))
        lp_dir = tmp_path / "lps"
        out = tmp_path / "f.json"
        rc = main(["synth", "--spec", str(spec), "--mode", mode_id,
                   "--out", str(out), "--lp-dir", str(lp_dir)])
        assert rc == 0, capsys.readouterr().err
        assert json.loads(out.read_text())["mode_id"] == mode_id
        assert sorted(p.name for p in lp_dir.iterdir()) == [
            f"{stem}_r0.lp",
            f"{stem}_r1.lp",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json", "lps", "renamed.json"]
        text = (lp_dir / f"{stem}_r1.lp").read_text(encoding="ascii")
        assert text.startswith(f"\\ {stem}_r1\nMinimize\n")


class TestCheck:
    def test_good_schedule_passes(self, capsys, synthesized):
        rc = main(["check", "--spec", CONTROL,
                   "--schedule", str(synthesized["normal"])])
        assert rc == 0
        captured = capsys.readouterr()
        assert "passes all checks" in captured.err
        report = json.loads(captured.out)
        assert report["ok"] is True
        assert report["violations"] == []

    def test_corrupted_schedule_exits_3(self, capsys, synthesized, tmp_path):
        data = json.loads(synthesized["normal"].read_text())
        data["task_offsets"]["t3"] = 0  # controller now runs before its inputs
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["check", "--spec", CONTROL, "--schedule", str(bad)])
        assert rc == 3
        captured = capsys.readouterr()
        assert "schedule violates:" in captured.err
        assert json.loads(captured.out)["ok"] is False

    def test_report_file(self, synthesized, tmp_path):
        report = tmp_path / "report.json"
        rc = main(["check", "--spec", CONTROL,
                   "--schedule", str(synthesized["fallback"]),
                   "--report", str(report)])
        assert rc == 0
        assert json.loads(report.read_text())["ok"] is True


class TestSimulate:
    def test_round_trip(self, capsys, synthesized, tmp_path):
        trace_path = tmp_path / "trace.json"
        rc = main([
            "simulate", "--spec", CONTROL, "--scenario", SCENARIO,
            "--schedule", f"normal={synthesized['normal']}",
            "--schedule", f"fallback={synthesized['fallback']}",
            "--trace", str(trace_path),
        ])
        assert rc == 0
        assert "simulated 60 rounds" in capsys.readouterr().err
        trace = json.loads(trace_path.read_text())
        assert trace["summary"]["beacons_sent"] == 60
        assert trace["summary"]["collisions"] == 0
        kinds = {e["kind"] for e in trace["events"]}
        assert {"beacon", "request", "announce", "epoch"} <= kinds

    def test_trace_bytes_match_reference_encoding(self, capsys, synthesized, tmp_path):
        spec = parse_spec(load_json(CONTROL))
        table = {
            mode_id: (spec.mode_by_id(mode_id), parse_schedule(load_json(str(path))))
            for mode_id, path in synthesized.items()
        }
        expected = dumps(trace_to_obj(simulate(table, parse_scenario(load_json(SCENARIO)))))
        argv = [
            "simulate", "--spec", CONTROL, "--scenario", SCENARIO,
            "--schedule", f"normal={synthesized['normal']}",
            "--schedule", f"fallback={synthesized['fallback']}",
        ]
        trace_path = tmp_path / "trace.json"
        assert main(argv + ["--trace", str(trace_path)]) == 0
        assert trace_path.read_bytes() == expected.encode()
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_missing_switch_target_schedule(self, capsys, synthesized):
        rc = main([
            "simulate", "--spec", CONTROL, "--scenario", SCENARIO,
            "--schedule", f"normal={synthesized['normal']}",
        ])
        assert rc == 1
        assert "no schedule given for mode(s): fallback" in capsys.readouterr().err

    def test_schedule_for_wrong_mode(self, capsys, synthesized):
        rc = main([
            "simulate", "--spec", CONTROL, "--scenario", SCENARIO,
            "--schedule", f"normal={synthesized['fallback']}",
            "--schedule", f"fallback={synthesized['fallback']}",
        ])
        assert rc == 1
        assert "is a schedule for fallback, not normal" in capsys.readouterr().err

    def test_schedule_given_twice_for_a_mode(self, capsys, synthesized):
        rc = main([
            "simulate", "--spec", CONTROL, "--scenario", SCENARIO,
            "--schedule", f"normal={synthesized['normal']}",
            "--schedule", f"fallback={synthesized['fallback']}",
            "--schedule", f"normal={synthesized['normal']}",
        ])
        assert rc == 1
        assert "--schedule given twice for mode normal" in capsys.readouterr().err

    def test_tampered_schedule_fails_audit(self, capsys, synthesized, tmp_path):
        data = json.loads(synthesized["fallback"].read_text())
        data["rounds"][0]["alloc"] = []  # message never granted a slot
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps(data))
        scenario = tmp_path / "scn.json"
        scenario.write_text(json.dumps({"initial_mode": "fallback", "n_rounds": 2}))
        rc = main([
            "simulate", "--spec", CONTROL, "--scenario", str(scenario),
            "--schedule", f"fallback={bad}",
        ])
        assert rc == 3
        assert "schedule audit failed" in capsys.readouterr().err


    def test_rounds_out_of_time_order_fail_audit(self, capsys, synthesized, tmp_path):
        data = json.loads(synthesized["normal"].read_text())
        assert len(data["rounds"]) == 2
        data["rounds"].reverse()  # same rounds, later one listed first
        bad = tmp_path / "swapped.json"
        bad.write_text(json.dumps(data))
        rc = main(["check", "--spec", CONTROL, "--schedule", str(bad)])
        assert rc == 3
        report = json.loads(capsys.readouterr().out)
        assert report["families"]["round_overlap"] == "fail"
        assert "listed out of time order" in report["violations"][0]["detail"]
        trace = tmp_path / "trace.json"
        rc = main([
            "simulate", "--spec", CONTROL, "--scenario", SCENARIO,
            "--schedule", f"normal={bad}",
            "--schedule", f"fallback={synthesized['fallback']}",
            "--trace", str(trace),
        ])
        assert rc == 3
        assert "normal: round_overlap" in capsys.readouterr().err
        assert not trace.exists()


class TestModel:
    def test_round_length_table(self, capsys):
        rc = main(["model", "--table", "round-length", "--spec", CONTROL,
                   "--hops", "4"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "hops,slots,payload_bytes,retransmissions,t_round_us\n"
            "4,5,10,2,50308\n"
        )

    def test_energy_table(self, capsys):
        rc = main(["model", "--table", "energy", "--spec", CONTROL,
                   "--hops", "4"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "payload_bytes,slots,hops,retransmissions,saving\n"
            "10,5,4,2,0.323735\n"
        )

    def test_flag_only_invocation_with_ranges(self, capsys):
        rc = main(["model", "--table", "round-length",
                   "--hops", "1:2", "--slots", "1", "--payload", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        base = NetworkParams(hops=1, slots_per_round=1, payload_bytes=1)
        want = [f"{h},1,8,2,{t_round(8, 1, dataclasses.replace(base, hops=h))}"
                for h in (1, 2)]
        assert lines[1:] == want
        assert len(lines) == 3

    def test_output_is_byte_stable(self, capsys, tmp_path):
        args = ["model", "--table", "energy", "--spec", CONTROL,
                "--hops", "1:3", "--payload", "8:12"]
        assert main(args) == 0
        first = capsys.readouterr().out
        out = tmp_path / "grid.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_text() == first

    def test_bad_range_exits_1(self, capsys):
        rc = main(["model", "--table", "round-length", "--spec", CONTROL,
                   "--hops", "5:2"])
        assert rc == 1
        assert "--hops wants N or LO:HI, got '5:2'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, flags, message",
        [
            ("energy", ["--hops", "4", "--slots", "0", "--payload", "10"],
             "--slots must be at least 1, got 0"),
            ("round-length", ["--hops", "0", "--slots=-1", "--payload", "0"],
             "--hops must be at least 1, got 0"),
            ("round-length", ["--hops", "2", "--slots=-1", "--payload", "1"],
             "--slots must be at least 0, got -1"),
            ("round-length", ["--hops", "2", "--slots", "0", "--payload", "0:3"],
             "--payload must be at least 1, got 0"),
        ],
        ids=["energy-slots", "hops", "slots", "payload"],
    )
    def test_values_below_the_spec_minimums_exit_1(self, capsys, table, flags, message):
        rc = main(["model", "--table", table] + flags)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_empty_range_is_not_a_default(self, capsys):
        rc = main(["model", "--table", "round-length",
                   "--hops", "", "--slots", "1", "--payload", "8"])
        assert rc == 1
        assert "--hops wants N or LO:HI, got ''" in capsys.readouterr().err

    def test_zero_slots_from_a_spec(self, capsys, tmp_path):
        data = json.loads(Path(CONTROL).read_text())
        data["network"]["slots_per_round"] = 0
        spec = tmp_path / "no_slots.json"
        spec.write_text(json.dumps(data))
        # a round of beacons only has a length ...
        assert main(["model", "--table", "round-length", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("2,0,10,2,")
        # ... but no energy saving: it is 0/0
        assert main(["model", "--table", "energy", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err == "error: --slots from the spec must be at least 1, got 0\n"

    def test_needs_spec_or_all_flags(self, capsys):
        rc = main(["model", "--table", "energy", "--hops", "2"])
        assert rc == 1
        assert "model needs --spec or all of" in capsys.readouterr().err


class TestBadInputs:
    def test_unreadable_json(self, capsys, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{")
        rc = main(["synth", "--spec", str(bad)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        rc = main(["synth", "--spec", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_spec_failing_validation(self, capsys, tmp_path):
        data = json.loads(Path(CONTROL).read_text())
        app = data["modes"][0]["applications"][0]
        app["edges"].append({"src": "t1", "dst": "ghost", "msg": "mx"})
        spec = tmp_path / "invalid.json"
        spec.write_text(json.dumps(data))
        rc = main(["synth", "--spec", str(spec), "--mode", "normal"])
        assert rc == 1
        assert "unknown_edge_task" in capsys.readouterr().err

    def test_application_listed_twice_in_a_mode(self, capsys, tmp_path):
        data = json.loads(Path(CONTROL).read_text())
        apps = data["modes"][0]["applications"]
        apps.append(apps[0])
        spec = tmp_path / "twice.json"
        spec.write_text(json.dumps(data))
        rc = main(["synth", "--spec", str(spec), "--mode", "normal"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "mode normal: duplicate_application at mode normal, application ctrl" in (
            captured.err
        )
        assert captured.out == ""

    def test_shared_message_sent_from_two_nodes(self, capsys, tmp_path):
        data = json.loads(Path(CONTROL).read_text())
        data["modes"][1]["applications"].append({
            "id": "echo",
            "period_us": 100000,
            "tasks": [
                {"id": "e1", "node": "n_sense_b", "wcet_us": 1000},
                {"id": "e2", "node": "n_act_b", "wcet_us": 1000},
            ],
            "edges": [{"src": "e1", "dst": "e2", "msg": "wm"}],
        })
        spec = tmp_path / "two_senders.json"
        spec.write_text(json.dumps(data))
        rc = main(["synth", "--spec", str(spec), "--mode", "fallback"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "mode fallback: multi_node_producers at mode fallback, message wm" in (
            captured.err
        )
        assert captured.out == ""

    def test_malformed_schedule_mapping(self, capsys, synthesized):
        rc = main([
            "simulate", "--spec", CONTROL, "--scenario", SCENARIO,
            "--schedule", "normal-only-no-equals",
        ])
        assert rc == 1
        assert "wants MODE=FILE" in capsys.readouterr().err
