"""The scripts in scripts/ still run against the package."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench_pairs  # noqa: E402


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


def test_bench_pairs_summary_gives_each_verdict():
    end_to_end = [{"name": "total_s", "better": "lower", "bound": 0.25},
                  {"name": "rounds", "better": "higher", "bound": 0.25}]
    steady = [10 + i / 10 for i in range(10)]  # median 10.45, quartiles 10.225, 10.675
    wide = [10, 14, 6, 13, 7, 12, 8, 11, 9, 15]  # median 10.5, quartiles 8.25, 12.75
    cases = {
        # lower in 10/10 pairs, the medians 1.0 apart against a spread of 0.45
        "gain": (steady, [x - 1 for x in steady], "total_s"),
        "nine of ten": (steady, [x - 1 for x in steady[:9]] + [11], "total_s"),
        "eight of ten": (steady, [x - 1 for x in steady[:8]] + [11, 11], "total_s"),
        "within the spread": (steady, [x - 0.1 for x in steady], "total_s"),
        "spread past the bound": (wide, wide, "total_s"),
        "every run lower": (wide, [5 - i / 10 for i in range(10)], "total_s"),
        "higher is better": (steady, [x + 1 for x in steady], "rounds"),
        "higher is worse": (steady, [x * 0.7 for x in steady], "rounds"),
    }
    runs = [
        {"workload": workload, "side": side, "pair": pair,
         "result": {"failed": 0, "metrics": {metric: {"value": xs[pair]}}}}
        for workload, (parent, change, metric) in cases.items()
        for pair in range(10)
        for side, xs in (("parent", parent), ("change", change))
    ]
    lines = bench_pairs.summary(runs, end_to_end)
    # each metric line ends "median <change> against bound 25%[ <verdict>...]"
    verdicts = dict(zip(cases, (line.rsplit("%", 1)[1].strip() for line in lines[1::2])))
    assert verdicts == {
        "gain": "gain",
        "nine of ten": "gain",
        "eight of ten": "",
        "within the spread": "",
        "spread past the bound": "unresolved",
        "every run lower": "gain",
        "higher is better": "gain",
        "higher is worse": "WORSE",
    }


TOY = '''\
def at_least(a, b):
    return (a) >= b


def inside(x, lo, hi):
    return (lo <= x
            < hi)
'''

TOY_TESTS = '''\
from toy import at_least, inside


def test_toy():
    assert at_least(2, 1) and not at_least(1, 2)
    assert inside(0, 0, 2) and not inside(-1, 0, 2) and not inside(2, 0, 2)
'''


def test_mutants_names_each_surviving_flip(tmp_path):
    # the toy tests pin both of inside's boundaries but not at_least's
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "tests").mkdir()
    (tree / "src" / "toy.py").write_text(TOY)
    (tree / "tests" / "test_toy.py").write_text(TOY_TESTS)
    out = tmp_path / "mutants.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py"), "--root", str(tree),
         "--files", "src/toy.py", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["baseline"] == "pass"
    assert [(m["line"], m["col"], m["operator"], m["tier1"]) for m in doc["mutants"]] == [
        (2, 16, ">= -> >", "pass"), (6, 16, "<= -> <", "fail"), (7, 13, "< -> <=", "fail"),
    ]
    assert doc["survivors"] == doc["mutants"][:1]
    # the tree itself is never modified
    assert (tree / "src" / "toy.py").read_text() == TOY


def test_mutants_refuses_a_tree_that_fails_unmutated(tmp_path):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "tests").mkdir()
    (tree / "src" / "toy.py").write_text(TOY)
    (tree / "tests" / "test_toy.py").write_text(TOY_TESTS.replace("2, 1", "1, 2"))
    out = tmp_path / "mutants.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py"), "--root", str(tree),
         "--files", "src/toy.py", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "Tier-1 does not pass on the unparsed files: fail" in proc.stderr
    assert json.loads(out.read_text())["mutants"] == []
