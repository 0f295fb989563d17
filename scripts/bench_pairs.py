"""Run interleaved parent/change pairs of the benchmark and record every run.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_21.json \\
        --pairs 10 --seconds 35 --what "what the change does"

Each tree is a checkout of the repository; its own perfbench/run.py runs
from its root and imports its own src/.  The runs go one at a time: for
each pair, and in it each workload, the two sides run back to back, the
parent first in even pairs and the change first in odd ones.  The output
file holds every run's last stdout line (its JSON result) in the shape of
the committed BENCH_*.json files, and is rewritten after each run, so an
interrupted session keeps what it measured.  At the end, each workload's
metrics are printed as medians and quartiles per side, with the pairs the
change reads lower in.  Each end-to-end metric of BENCHMARK.json also
gets the relative change of the medians next to its bound, marked WORSE
when the change's median is worse than the parent's by more than it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WORKLOADS = ("synth-small", "synth-ladder", "long-horizon")
SEED = 11
COMMAND = f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {{seconds}} --trace 0"


def revision(tree: str) -> str:
    """The tree's short commit id, or its path when it is not a checkout."""
    proc = subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else os.path.abspath(tree)


def machine() -> str:
    import numpy
    import scipy

    return (f"{os.cpu_count()}-core {platform.machine()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def run_one(tree: str, workload: str, seconds: float) -> dict:
    """The JSON result an untraced benchmark run printed last, or its failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return {"error": f"last line is not JSON: {lines[-1][-500:]}"}
    return result


def summary(runs: list[dict], end_to_end: list[dict]) -> list[str]:
    """Per workload and metric: each side's median [quartiles] and the
    pairs in which the change reads lower; for the end_to_end metrics
    (BENCHMARK.json's entries), the relative change of the medians against
    the metric's bound."""
    gates = {m["name"]: m for m in end_to_end}
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        values: dict[str, dict[str, dict[int, float]]] = {}
        for r in runs:
            if r["workload"] != workload or "metrics" not in r["result"]:
                continue
            for name, m in r["result"]["metrics"].items():
                values.setdefault(name, {}).setdefault(r["side"], {})[r["pair"]] = m["value"]
        failed = sum(r["result"].get("failed", 1) for r in runs if r["workload"] == workload)
        out.append(f"{workload} (failed operations, both sides: {failed})")
        for name, sides in values.items():
            cells, medians = [], {}
            for side in ("parent", "change"):
                xs = list(sides.get(side, {}).values())
                if len(xs) < 2:
                    continue
                q1, medians[side], q3 = statistics.quantiles(xs, n=4, method="inclusive")
                cells.append(f"{side} {medians[side]:.4g} [{q1:.4g}, {q3:.4g}]")
            both = set(sides.get("parent", {})) & set(sides.get("change", {}))
            lower = sum(sides["change"][k] < sides["parent"][k] for k in both)
            cells.append(f"change lower in {lower}/{len(both)}")
            gate = gates.get(name)
            if gate and len(medians) == 2 and medians["parent"]:
                rel = medians["change"] / medians["parent"] - 1
                worse = rel if gate["better"] == "lower" else -rel
                cells.append(f"median {rel:+.1%} against bound {gate['bound']:.0%}"
                             + (" WORSE" if worse > gate["bound"] else ""))
            out.append(f"  {name}: {'; '.join(cells)}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--what", default="", help="one line on what the change does")
    ap.add_argument("--change-rev", help="how to name the change (default: its commit id)")
    args = ap.parse_args(argv)

    trees = {"parent": args.parent, "change": args.change}
    doc = {
        "what": args.what,
        "parent": revision(args.parent),
        "change": args.change_rev or revision(args.change),
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "protocol": (
            "runs in the order given by 'order', one at a time, each side from its own "
            "tree; for each pair and workload, parent and change run back to back; even "
            "pairs ran parent first, odd pairs change first; 'result' is the JSON line "
            "the run printed last, whose 'attempted' and 'failed' give its verdict"
        ),
        "machine": machine(),
        "runs": [],
    }
    for pair in range(args.pairs):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workloads:
            for side in sides:
                result = run_one(trees[side], workload, args.seconds)
                doc["runs"].append({
                    "order": len(doc["runs"]), "workload": workload, "seed": SEED,
                    "trace": 0, "side": side, "pair": pair,
                    "first_in_pair": sides[0], "result": result,
                })
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
                print(f"pair {pair} {workload} {side}: "
                      f"{result.get('error') or result.get('metrics', {}).get('total_s')}",
                      flush=True)
    with open(BENCHMARK, encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    for line in summary(doc["runs"], end_to_end):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
