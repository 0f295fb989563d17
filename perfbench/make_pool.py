"""Regenerate pool.json, the synth-small case pool sorted by cost.

Synthesizes every case of the pool once, with the workload's per-case
budget, and records its status, the branch-and-bound nodes it needed and
its wall time.  The list is sorted by wall time, cases that hit the budget
last.  A run cuts the sorted list into as many bins as it draws cases and
lets its seed pick one case per bin, so every seed gets the same mix of
cheap, medium and heavy cases.  The cases themselves are regenerated from
their seeds on every run; the recorded times only order the pool.

    python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from inputs import SMALL_BUDGET_MS, small_case  # noqa: E402
from roundsched.specio import parse_spec  # noqa: E402
from roundsched.synthesis import SynthConfig, synthesize  # noqa: E402

POOL_SIZE = 400


def main() -> None:
    cases = []
    for case_seed in range(POOL_SIZE):
        spec = parse_spec(small_case(case_seed))
        t0 = time.perf_counter()
        out = synthesize(
            spec.modes[0],
            spec.network,
            SynthConfig(grid_us=spec.grid_us, solver_budget_ms=SMALL_BUDGET_MS),
        )
        ms = round(1000 * (time.perf_counter() - t0), 1)
        cases.append([case_seed, out.status, out.nodes_total, ms])
        print(*cases[-1], file=sys.stderr, flush=True)
    cases.sort(key=lambda c: (c[1] == "timeout", c[3], c[0]))
    write_pool(os.path.join(HERE, "pool.json"), SMALL_BUDGET_MS, cases)


def write_pool(path: str, budget_ms: int, cases: list) -> None:
    """One case per line: [case seed, status, nodes, wall ms]."""
    lines = ",\n".join("  " + json.dumps(c) for c in cases)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"budget_ms": {budget_ms}, "cases": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
