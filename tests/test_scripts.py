"""The scripts in scripts/ still run against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench_pairs  # noqa: E402


def test_demo_synthesis_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    script = ROOT / "scripts" / "demo_synthesis.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--sim-rounds", "10"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "mode normal: 2 rounds" in proc.stdout


def test_bench_pairs_records_both_sides_of_each_pair(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--out", str(out), "--pairs", "2", "--seconds", "0.1",
         "--workloads", "long-horizon", "--change-rev", "same tree"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["change"] == "same tree"
    assert [(r["pair"], r["side"], r["first_in_pair"]) for r in doc["runs"]] == [
        (0, "parent", "parent"), (0, "change", "parent"),
        (1, "change", "change"), (1, "parent", "change"),
    ]
    for r in doc["runs"]:
        assert (r["result"]["correct"], r["result"]["failed"]) == (True, 0)
    assert "  total_s: parent " in proc.stdout


def test_bench_pairs_records_a_run_whose_last_line_is_not_json(tmp_path):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text('print("done")\n')
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(tree), str(tree),
         "--out", str(out), "--pairs", "1", "--seconds", "0.1",
         "--workloads", "long-horizon"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert [(r["side"], r["result"]) for r in runs] == [
        ("parent", {"error": "last line is not JSON: done"}),
        ("change", {"error": "last line is not JSON: done"}),
    ]
    assert "long-horizon (failed operations, both sides: 2)" in proc.stdout


def test_bench_pairs_summary_marks_a_median_worse_than_its_bound():
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["bound"] for m in end_to_end}["total_s"] == 0.25

    def runs(workload, parent_s, change_s):
        return [
            {"workload": workload, "side": side, "pair": pair,
             "result": {"failed": 0, "metrics": {"total_s": {"value": x * (1 + pair / 100)}}}}
            for pair in range(4)
            for side, x in (("parent", parent_s), ("change", change_s))
        ]

    lines = bench_pairs.summary(
        runs("slower", 10.0, 13.0) + runs("near", 10.0, 11.0), end_to_end)
    assert lines == [
        "slower (failed operations, both sides: 0)",
        "  total_s: parent 10.15 [10.07, 10.22]; change 13.2 [13.1, 13.29]; "
        "change lower in 0/4; median +30.0% against bound 25% WORSE",
        "near (failed operations, both sides: 0)",
        "  total_s: parent 10.15 [10.07, 10.22]; change 11.16 [11.08, 11.25]; "
        "change lower in 0/4; median +10.0% against bound 25%",
    ]
