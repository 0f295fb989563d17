"""Synthesize schedules for every mode of a system, then run a lossy simulation.

Prints a compact schedule listing per mode.  When the system description
has at least two modes, the simulation switches from the first mode to
the second a quarter of the way in, exercising the two-phase change
protocol.
"""

import argparse
import os
import sys

from roundsched.sim import Scenario, SwitchRequest, simulate
from roundsched.specio import load_json, parse_spec
from roundsched.synthesis import SynthConfig, synthesize

DEFAULT_SPEC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "specs",
    "control_loop.json",
)


def describe(mode, out):
    s = out.schedule
    print(f"mode {mode.id}: {out.rounds_used} rounds per {s.hyperperiod_us} us "
          f"cycle, worst chain latency {out.objective_us} us "
          f"({out.solver_calls} solver calls, {out.nodes_total} nodes)")
    for j, r in enumerate(s.rounds):
        print(f"  round {j} at {r.t:>7} us  slots {list(r.alloc)}")
    for tid in sorted(s.task_offsets):
        print(f"  task {tid:<6} starts {s.task_offsets[tid]:>7} us")


def main():
    parser = argparse.ArgumentParser(
        description="Schedule synthesis walkthrough on a bundled or custom spec"
    )
    parser.add_argument("--spec", default=DEFAULT_SPEC)
    parser.add_argument("--sim-rounds", type=int, default=40)
    parser.add_argument("--loss", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = parse_spec(load_json(args.spec))
    config = SynthConfig(grid_us=spec.grid_us)

    table = {}
    for mode in spec.modes:
        out = synthesize(mode, spec.network, config)
        if out.status != "feasible":
            print(f"mode {mode.id}: {out.status} after {out.solver_calls} solver calls")
            continue
        describe(mode, out)
        table[mode.id] = (mode, out.schedule)

    if args.sim_rounds <= 0 or not table:
        return 0

    first = spec.modes[0].id
    if first not in table:
        print("first mode has no schedule, skipping simulation")
        return 1
    switches = ()
    if len(table) > 1:
        second = next(m.id for m in spec.modes[1:] if m.id in table)
        h = table[first][1].hyperperiod_us
        switches = (SwitchRequest(args.sim_rounds * h // 8, second),)
    scenario = Scenario(
        initial_mode=first,
        n_rounds=args.sim_rounds,
        beacon_loss=args.loss,
        seed=args.seed,
        switches=switches,
    )
    trace = simulate(table, scenario)
    print(f"simulated {trace.beacons_sent} rounds at {args.loss:.0%} beacon loss: "
          f"{trace.beacons_missed} missed beacons, {trace.transmissions} "
          f"transmissions, {trace.collisions} collisions, {trace.resyncs} resyncs")
    for e in trace.events:
        if e["kind"] in ("request", "announce", "epoch"):
            extra = ", ".join(f"{k}={v}" for k, v in e.items() if k not in ("t", "kind"))
            print(f"  {e['t']:>9} us  {e['kind']:<9} {extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
