"""Command line behaviour, driven in process through main(argv).

Exit codes under test: 0 success, 1 usage, input or budget errors, 2
proven infeasible, 3 audit violations.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from roundsched import cli
from roundsched.cli import main
from roundsched.model import Mode
from roundsched.sim import simulate
from roundsched.specio import (
    dumps,
    load_json,
    parse_scenario,
    parse_schedule,
    parse_spec,
    trace_to_obj,
)
from roundsched.synthesis import MAX_HYPERPERIOD_US, SynthConfig, program, synthesize
from roundsched.timing import NetworkParams, round_length
from lptools import lp_text, parse_lp
from support import RADIO_KEYS, ladder_mode, mk_app, pipeline_app

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
CONTROL = str(SPEC_DIR / "control_loop.json")
SCENARIO = str(SPEC_DIR / "mode_change.json")
SRC = Path(__file__).resolve().parent.parent / "src"


def mode_spec(tmp_path: Path, mode: Mode, grid_us: int = 1000) -> str:
    """A spec file holding mode alone, on the bundled spec's network."""
    data = json.loads(Path(CONTROL).read_text())
    data["grid_us"] = grid_us
    data["modes"] = [{"id": mode.id, "applications": [{
        "id": app.id,
        "period_us": app.period_us,
        "deadline_us": app.deadline_us,
        "tasks": [{"id": t.id, "node": t.node, "wcet_us": t.wcet_us} for t in app.tasks],
        "edges": [{"src": s, "dst": d, "msg": m} for s, d, m in app.edges],
    } for app in mode.applications]}]
    spec = tmp_path / f"{mode.id}.json"
    spec.write_text(json.dumps(data))
    return str(spec)


def src_env() -> dict:
    """The environment with this tree's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


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
        assert (
            "feasible: 2 rounds, objective 89000 us, 1 solver call from the "
            "2-round lower bound" in err
        )
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
        assert capsys.readouterr().err == (
            "infeasible: needs at least 2 rounds, at most 1 fit\n"
        )

    def test_one_round_is_singular(self, capsys, tmp_path):
        # a mode without messages needs one round, and a 10 ms hyperperiod
        # holds none of the bundled network's rounds
        spec = mode_spec(tmp_path, Mode("quiet", (mk_app("a", 10, [("t", "n", 1)], []),)))
        assert main(["synth", "--spec", spec]) == 2
        assert capsys.readouterr().err == (
            "infeasible: needs at least 1 round, at most 0 fit\n"
        )

    def test_zero_slots_are_refused(self, capsys, tmp_path):
        # a round carries at least one data slot after its beacon
        data = json.loads(Path(CONTROL).read_text())
        data["network"]["slots_per_round"] = 0
        spec = tmp_path / "mute.json"
        spec.write_text(json.dumps(data))
        rc = main(["synth", "--spec", str(spec), "--mode", "normal"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: $.network.slots_per_round: value 0 below minimum 1\n"
        )

    def test_1100_task_pipeline_gets_a_status_line(self, capsys, tmp_path):
        spec = mode_spec(tmp_path, Mode("long", (pipeline_app(1100),)))
        rc = main(["synth", "--spec", spec])
        assert rc == 2
        assert capsys.readouterr().err == (
            "infeasible: needs at least 1099 rounds, at most 23 fit\n"
        )

    def test_timeout_before_any_incumbent(self, capsys, tmp_path):
        # four rounds, the lower bound, are infeasible: refuting them takes
        # about 1.1 s, so 200 ms end with no schedule to write
        spec = mode_spec(tmp_path, ladder_mode(5, deadline_ms=115), grid_us=5000)
        rc = main(["synth", "--spec", spec, "--budget-ms", "200"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "timeout: solver budget exhausted after 1 solver call "
            "from the 4-round lower bound\n"
        )

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
        assert err.endswith(", dual bound 89000 us\n")
        assert main(["check", "--spec", CONTROL, "--schedule", str(out)]) == 0

    def test_stdout_is_only_json_in_a_subprocess(self, tmp_path):
        # HiGHS 1.12 printf()s a diagnostic line to the C stdout while it
        # solves ladder_mode(4) on a 1 us grid, and its LP writer logs
        # "Writing the model to ..." unless told not to
        lp_dir = tmp_path / "lps"
        proc = subprocess.run(
            [sys.executable, "-m", "roundsched.cli", "synth",
             "--spec", mode_spec(tmp_path, ladder_mode(4), grid_us=1),
             "--lp-dir", str(lp_dir)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["mode_id"] == "ladder4"
        assert [p.suffix for p in lp_dir.iterdir()] == [".lp"]
        # the case still reaches the printf, so a stdout left unguarded
        # would begin with this line instead of the schedule
        assert "HighsMipSolverData::transformNewIntegerFeasibleSolution" in proc.stderr

    def test_module_entry_point(self):
        # `python -m roundsched.cli` exits with main()'s code
        env = src_env()

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "roundsched.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)

        proc = run("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: roundsched ")
        proc = run("frobnicate")
        assert proc.returncode == 1
        assert "invalid choice: 'frobnicate'" in proc.stderr

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
        assert sorted(p.name for p in lp_dir.iterdir()) == ["fallback_r1.lp"]
        # the one program the search ran, as HiGHS writes it
        spec = parse_spec(load_json(CONTROL))
        inst = program(spec.mode_by_id("fallback"), 1, spec.network,
                       SynthConfig(grid_us=spec.grid_us))
        assert (lp_dir / "fallback_r1.lp").read_text() == lp_text(inst)

    def test_lp_dump_starts_at_the_lower_bound(self, capsys, tmp_path):
        # a 3-task pipeline whose two messages need two rounds; HiGHS
        # refutes counts 2 and 3, the only ones that fit
        spec = tmp_path / "pipe.json"
        spec.write_text(json.dumps({
            "network": {"hops": 1, "slots_per_round": 2, "payload_bytes": 8,
                        "retransmissions": 1},
            "grid_us": 1000,
            "modes": [{"id": "pipe", "applications": [{
                "id": "a", "period_us": 50_000, "deadline_us": 40_000,
                "tasks": [{"id": "t1", "node": "n1", "wcet_us": 3000},
                          {"id": "t2", "node": "n0", "wcet_us": 4000},
                          {"id": "t3", "node": "n0", "wcet_us": 2000}],
                "edges": [{"src": "t1", "dst": "t2", "msg": "m1"},
                          {"src": "t2", "dst": "t3", "msg": "m2"}],
            }]}],
        }))
        lp_dir = tmp_path / "lps"
        rc = main(["synth", "--spec", str(spec), "--lp-dir", str(lp_dir)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "infeasible: exhausted round counts after 2 solver calls from the "
            "2-round lower bound\n"
        )
        assert sorted(p.name for p in lp_dir.iterdir()) == ["pipe_r2.lp", "pipe_r3.lp"]

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
        assert sorted(p.name for p in lp_dir.iterdir()) == [f"{stem}_r1.lp"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json", "lps", "renamed.json"]
        text = (lp_dir / f"{stem}_r1.lp").read_text(encoding="ascii")
        assert parse_lp(text)["objective"] == {"d_watch": 1}

    def test_lp_dump_to_an_unwritable_path_is_an_error(self, tmp_path):
        # HiGHS 1.12 crashes the process on a file it cannot open, so this
        # runs in a subprocess: a directory stands where the file would go
        lp_dir = tmp_path / "lps"
        (lp_dir / "fallback_r1.lp").mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "roundsched.cli", "synth", "--spec", CONTROL,
             "--mode", "fallback", "--lp-dir", str(lp_dir)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines()[-1].startswith("error: [Errno 21] Is a directory: ")

    @pytest.mark.parametrize("mode, grid_us, lp, bound", [
        (ladder_mode(4), 5000, "ladder4_r4.lp", 0),
        # 1 ms tasks longer than the grid: the first round starts at 0 all
        # the same, where build_instance allows (200 ms - 42.644 ms) // 500 us
        (ladder_mode(1), 500, "ladder1_r2.lp", 0),
    ])
    def test_lp_dump_is_the_program_solved(self, capsys, tmp_path, mode, grid_us, lp, bound):
        lp_dir = tmp_path / "lps"
        rc = main(["synth", "--spec", mode_spec(tmp_path, mode, grid_us),
                   "--out", str(tmp_path / "s.json"), "--lp-dir", str(lp_dir)])
        assert rc == 0, capsys.readouterr().err
        assert sorted(p.name for p in lp_dir.iterdir()) == [lp]
        bounds = parse_lp((lp_dir / lp).read_text())["bounds"]
        assert bounds["rt0"] == (0, bound)
        # a task may start anywhere in its 200 ms period
        assert bounds["o_c0"] == (0, 200_000 // grid_us - 1)


def pipelines_case(tmp_path: Path, periods: dict[str, int], offsets: dict[str, int]):
    """Spec and schedule files: one pipeline a_<msg> -<msg>-> b_<msg> of
    10 us tasks on nodes n1 and n2 per message, its period from periods,
    and one round at 0 carrying every message, each task started at 0 and
    each message given its offset and its period as deadline."""
    data = json.loads(Path(CONTROL).read_text())
    data["grid_us"] = 10
    data["modes"] = [{"id": "m", "applications": [{
        "id": f"app_{m}", "period_us": p,
        "tasks": [{"id": f"a_{m}", "node": "n1", "wcet_us": 10},
                  {"id": f"b_{m}", "node": "n2", "wcet_us": 10}],
        "edges": [{"src": f"a_{m}", "dst": f"b_{m}", "msg": m}],
    } for m, p in periods.items()]}]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({
        "mode_id": "m", "hyperperiod_us": max(periods.values()),
        "round_len_us": round_length(parse_spec(data).network),
        "task_offsets": {f"{x}_{m}": 0 for m in periods for x in "ab"},
        "message_offsets": offsets, "message_deadlines": periods,
        "leftover": {m: 0 for m in periods},
        "rounds": [{"t": 0, "alloc": list(periods)}],
    }))
    return str(spec), str(schedule)


class TestCheck:
    @pytest.mark.parametrize("periods, offsets, families", [
        # the wrapped deadline is found by arithmetic, not a period at a time
        ({"m": 100}, {"m": 10**15},
         "curve_order, domains, e2e_deadline, precedence, round_gap, service_after_release"),
        # 10**10 deadline instants of m in the hyperperiod: the sweep stops
        # at the first violation instead of listing them
        ({"m": 100, "k": 10**12}, {"m": 0, "k": 0},
         "conservation, curve_order, e2e_deadline, node_exclusive"),
    ], ids=["offset-1e15", "periods-1e2-1e12"])
    def test_cost_follows_the_schedule_file(self, capsys, tmp_path, periods, offsets, families):
        spec, schedule = pipelines_case(tmp_path, periods, offsets)
        start = time.perf_counter()
        rc = main(["check", "--spec", spec, "--schedule", schedule])
        assert time.perf_counter() - start < 10
        assert rc == 3
        assert capsys.readouterr().err == f"schedule violates: {families}\n"

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

    def test_mode_without_messages_runs_beacons_only(self, capsys, tmp_path):
        spec = mode_spec(tmp_path, Mode("quiet", (mk_app("a", 100, [("t", "n", 1)], []),)))
        sched = tmp_path / "sched.json"
        scenario = tmp_path / "scenario.json"
        trace_path = tmp_path / "trace.json"
        scenario.write_text(json.dumps({"initial_mode": "quiet", "n_rounds": 3}))
        assert main(["synth", "--spec", spec, "--out", str(sched)]) == 0
        assert capsys.readouterr().err.startswith("feasible: 1 round, ")
        assert main(["check", "--spec", spec, "--schedule", str(sched)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--spec", spec, "--scenario", str(scenario),
                     "--schedule", f"quiet={sched}", "--trace", str(trace_path)]) == 0
        assert capsys.readouterr().err == (
            "simulated 3 rounds: 0 missed beacons, 0 transmissions, "
            "0 collisions, 0 resyncs\n"
        )
        trace = json.loads(trace_path.read_text())
        assert [e["kind"] for e in trace["events"]] == ["beacon"] * 3
        assert trace["summary"]["transmissions"] == 0

    def test_one_round_is_singular(self, capsys, synthesized, tmp_path):
        # the fallback schedule's one round carries one slot
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"initial_mode": "fallback", "n_rounds": 1}))
        assert main(["simulate", "--spec", CONTROL, "--scenario", str(scenario),
                     "--schedule", f"fallback={synthesized['fallback']}",
                     "--trace", str(tmp_path / "trace.json")]) == 0
        assert capsys.readouterr().err == (
            "simulated 1 round: 0 missed beacons, 1 transmission, "
            "0 collisions, 0 resyncs\n"
        )

    def test_trace_bytes_match_reference_encoding(self, capsys, synthesized, tmp_path):
        spec = parse_spec(load_json(CONTROL))
        table = {
            mode_id: (spec.mode_by_id(mode_id), parse_schedule(load_json(str(path))))
            for mode_id, path in synthesized.items()
        }
        scenario = parse_scenario(load_json(SCENARIO))
        expected = dumps(trace_to_obj(simulate(table, scenario, spec.network)))
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
        want = [f"{h},1,8,2,{round_length(NetworkParams(h, 1, 8))}" for h in (1, 2)]
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
            ("round-length", ["--hops", "2", "--slots", "0", "--payload", "1"],
             "--slots must be at least 1, got 0"),
            ("round-length", ["--hops", "2", "--slots", "1", "--payload", "0:3"],
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
        # the spec reader refuses it for both tables
        for table in ("round-length", "energy"):
            assert main(["model", "--table", table, "--spec", str(spec)]) == 1
            assert capsys.readouterr().err == (
                "error: $.network.slots_per_round: value 0 below minimum 1\n"
            )

    def test_needs_spec_or_all_flags(self, capsys):
        rc = main(["model", "--table", "energy", "--hops", "2"])
        assert rc == 1
        assert "model needs --spec or all of" in capsys.readouterr().err


class TestUsage:
    """argparse's own exit code for a usage error, 2, means "proven
    infeasible" here."""

    @pytest.mark.parametrize("argv, message", [
        (["synth"], "the following arguments are required: --spec"),
        (["synth", "--spec", CONTROL, "--budget-ms", "abc"],
         "argument --budget-ms: invalid int value: 'abc'"),
        (["check", "--spec", CONTROL, "--schedule", "normal.json", "--mode", "normal"],
         "unrecognized arguments: --mode normal"),
    ], ids=["missing-spec", "budget-not-an-int", "check-mode"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        assert main(["synth", "--help"]) == 0
        assert "--budget-ms" in capsys.readouterr().out


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

    @pytest.mark.parametrize("grid_us", [7000, 10**9])
    def test_grid_that_does_not_divide_a_period(self, capsys, tmp_path, grid_us):
        data = json.loads(Path(CONTROL).read_text())
        data["grid_us"] = grid_us
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps(data))
        rc = main(["synth", "--spec", str(spec), "--mode", "normal"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: $.grid_us: {grid_us} does not divide the period 100000"
            " of application 'ctrl' in mode 'normal'\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("period_us, grid_us", [(10**9, 1), (10**11, 1000)])
    def test_hyperperiod_above_the_synthesis_limit(self, capsys, tmp_path,
                                                   period_us, grid_us):
        # without the limit HiGHS refutes 2 rounds of the first, which have
        # a schedule, and its point for the second fails exact verification
        data = json.loads(Path(CONTROL).read_text())
        data["grid_us"] = grid_us
        app = data["modes"][0]["applications"][0]
        app["period_us"] = app["deadline_us"] = period_us
        spec = tmp_path / "long.json"
        spec.write_text(json.dumps(data))
        rc = main(["synth", "--spec", str(spec), "--mode", "normal",
                   "--budget-ms", "2000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: mode normal: hyperperiod {period_us} us (grid {grid_us} us)"
            f" is above the synthesis limit of {MAX_HYPERPERIOD_US} us\n"
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
        sched = tmp_path / "fallback.json"
        assert main(["synth", "--spec", CONTROL, "--mode", "fallback", "--out", str(sched)]) == 0
        capsys.readouterr()
        for argv in (["synth", "--mode", "fallback"], ["check", "--schedule", str(sched)]):
            rc = main([argv[0], "--spec", str(spec), *argv[1:]])
            assert rc == 1, argv
            captured = capsys.readouterr()
            (line,) = captured.err.splitlines()
            assert line.startswith(
                "error: mode fallback: several_producers at mode fallback, message wm: "
                "produced by ['e1', "
            ), argv
            assert captured.out == ""

    @pytest.mark.parametrize("command", [["synth", "--mode", "normal"],
                                         ["model", "--table", "energy"]])
    @pytest.mark.parametrize("key", RADIO_KEYS)
    def test_radio_key_is_refused(self, capsys, tmp_path, command, key):
        # the radio is fixed: a spec that sets any of it is refused
        data = json.loads(Path(CONTROL).read_text())
        data["network"][key] = 0
        spec = tmp_path / "radio.json"
        spec.write_text(json.dumps(data))
        rc = main([*command, "--spec", str(spec)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: $.network.{key}: unknown key\n"
        assert captured.out == ""

    def test_malformed_schedule_mapping(self, capsys, synthesized):
        rc = main([
            "simulate", "--spec", CONTROL, "--scenario", SCENARIO,
            "--schedule", "normal-only-no-equals",
        ])
        assert rc == 1
        assert "wants MODE=FILE" in capsys.readouterr().err
