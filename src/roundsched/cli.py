"""Command line front end.

Subcommands: synth (search for a schedule), check (audit a schedule
against a spec), simulate (run the beacon protocol over schedules), and
model (emit timing and energy tables as CSV).

Exit codes: 0 success, 1 usage or input error (including a solver that
ran out of budget; its best schedule, not proven optimal, is still
written if it had one), 2 proven infeasible, 3 schedule audit violations.
JSON results go to stdout unless an output file is named; human status
lines go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Iterable

from .checker import check
from .ilp import build_instance
from .lpformat import write_lp
from .model import ValidationReport, validate_mode, validate_modes_disjoint
from .sim import SimTrace, run
from .specio import (
    SpecError,
    dumps,
    load_json,
    parse_scenario,
    parse_schedule,
    parse_spec,
    report_to_obj,
    schedule_to_obj,
    trace_chunks,
)
from .synthesis import SynthConfig, synthesize
from .timing import NetworkParams, energy_saving, t_round

ROUND_GRID_HEADER = ("hops", "slots", "payload_bytes", "retransmissions", "t_round_us")
ENERGY_GRID_HEADER = ("payload_bytes", "slots", "hops", "retransmissions", "saving")


def _emit(chunks: Iterable[str], path: str | None) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_spec(path: str):
    spec = parse_spec(load_json(path))
    problems = []
    for mode in spec.modes:
        rep = ValidationReport()
        validate_mode(mode, rep)
        problems.extend(f"mode {mode.id}: {v}" for v in rep.violations)
    rep = ValidationReport()
    validate_modes_disjoint(spec.modes, rep)
    problems.extend(str(v) for v in rep.violations)
    if problems:
        raise SpecError("; ".join(problems))
    return spec


def _pick_mode(spec, mode_id: str | None):
    if mode_id is None:
        if len(spec.modes) == 1:
            return spec.modes[0]
        raise SpecError(
            f"--mode is required, spec has {len(spec.modes)} modes: "
            + ", ".join(m.id for m in spec.modes)
        )
    try:
        return spec.mode_by_id(mode_id)
    except KeyError:
        raise SpecError(f"unknown mode {mode_id}") from None


def _cmd_synth(args) -> int:
    spec = _load_spec(args.spec)
    mode = _pick_mode(spec, args.mode)
    config = SynthConfig(
        grid_us=spec.grid_us,
        t_max_us=args.t_max_us,
        solver_budget_ms=args.budget_ms,
    )
    out = synthesize(mode, spec.network, config)
    if args.lp_dir is not None:
        os.makedirs(args.lp_dir, exist_ok=True)
        for r in range(out.solver_calls):
            inst = build_instance(
                mode, r, spec.network, grid_us=config.grid_us, t_max_us=config.t_max_us
            )
            write_lp(inst, os.path.join(args.lp_dir, inst.name + ".lp"))
    if out.schedule is not None:
        _emit([dumps(schedule_to_obj(out.schedule))], args.out)
    if out.status == "feasible":
        _status(
            f"feasible: {out.rounds_used} rounds, objective {out.objective_us} us, "
            f"{out.solver_calls} solver calls"
        )
        return 0
    if out.status == "infeasible":
        _status(f"infeasible: exhausted round counts after {out.solver_calls} solver calls")
        return 2
    best = ""
    if out.schedule is not None:
        best = (
            f"best schedule has {out.rounds_used} rounds, objective "
            f"{out.objective_us} us, not proven optimal; "
        )
    _status(f"timeout: {best}solver budget exhausted after {out.solver_calls} solver calls")
    return 1


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    schedule = parse_schedule(load_json(args.schedule))
    mode = _pick_mode(spec, args.mode if args.mode else schedule.mode_id)
    report = check(mode, schedule, spec.network)
    _emit([dumps(report_to_obj(report))], args.report)
    if report.ok:
        _status("schedule passes all checks")
        return 0
    _status(
        "schedule violates: " + ", ".join(sorted(report.failed()))
    )
    return 3


def _cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    scenario = parse_scenario(load_json(args.scenario))
    table = {}
    for entry in args.schedule:
        if "=" not in entry:
            raise SpecError(f"--schedule wants MODE=FILE, got {entry!r}")
        mode_id, path = entry.split("=", 1)
        if mode_id in table:
            raise SpecError(f"--schedule given twice for mode {mode_id}")
        mode = _pick_mode(spec, mode_id)
        schedule = parse_schedule(load_json(path))
        if schedule.mode_id != mode_id:
            raise SpecError(
                f"{path} is a schedule for {schedule.mode_id}, not {mode_id}"
            )
        table[mode_id] = (mode, schedule)
    needed = {scenario.initial_mode} | {s.to_mode for s in scenario.switches}
    missing = sorted(needed - set(table))
    if missing:
        raise SpecError("no schedule given for mode(s): " + ", ".join(missing))
    bad = []
    for mode_id, (mode, schedule) in sorted(table.items()):
        rep = check(mode, schedule, spec.network)
        if not rep.ok:
            bad.append(f"{mode_id}: " + ", ".join(sorted(rep.failed())))
    if bad:
        _status("schedule audit failed; " + "; ".join(bad))
        return 3
    # the output is opened only now, after the audit, and run() has
    # checked the scenario before the first event: a bad input never
    # leaves a partial trace
    trace = SimTrace()
    _emit(trace_chunks(run(table, scenario, trace), trace), args.trace)
    _status(
        f"simulated {trace.beacons_sent} rounds: {trace.beacons_missed} missed "
        f"beacons, {trace.transmissions} transmissions, "
        f"{trace.collisions} collisions, {trace.resyncs} resyncs"
    )
    return 0


def _parse_range(text: str, flag: str) -> list[int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise SpecError(f"{flag} wants N or LO:HI, got {text!r}")


def _cmd_model(args) -> int:
    if args.spec is not None:
        base = _load_spec(args.spec).network
    else:
        if args.hops is None or args.slots is None or args.payload is None:
            raise SpecError("model needs --spec or all of --hops, --slots, --payload")
        base = NetworkParams(hops=1, slots_per_round=1, payload_bytes=1)

    def axis(text: str | None, flag: str, default: int, least: int) -> list[int]:
        # parse_network's minimums, which a spec can only miss on slots
        values = [default] if text is None else _parse_range(text, flag)
        if min(values) < least:
            where = f"{flag} from the spec" if text is None else flag
            raise SpecError(f"{where} must be at least {least}, got {min(values)}")
        return values

    hops = axis(args.hops, "--hops", base.hops, 1)
    # at 0 slots the energy saving is 0/0
    slots = axis(
        args.slots, "--slots", base.slots_per_round, 1 if args.table == "energy" else 0
    )
    payloads = axis(args.payload, "--payload", base.payload_bytes, 1)
    retx = base.retransmissions
    lines = []
    if args.table == "round-length":
        lines.append(",".join(ROUND_GRID_HEADER))
        for l in payloads:
            for h in hops:
                ph = replace(base, hops=h)
                for b in slots:
                    lines.append(f"{h},{b},{l},{retx},{t_round(l, b, ph)}")
    else:
        lines.append(",".join(ENERGY_GRID_HEADER))
        for h in hops:
            ph = replace(base, hops=h)
            for l in payloads:
                for b in slots:
                    lines.append(
                        f"{l},{b},{h},{retx},{float(energy_saving(l, b, ph)):.6f}"
                    )
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="roundsched",
        description="Co-schedule tasks, messages and communication rounds.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a schedule for one mode")
    p.add_argument("--spec", required=True, help="system spec JSON")
    p.add_argument("--mode", help="mode id (defaults to the only mode)")
    p.add_argument("--out", help="write the schedule JSON here instead of stdout")
    p.add_argument("--lp-dir", help="dump one LP file per attempted round count")
    p.add_argument(
        "--budget-ms",
        type=int,
        help="solver time budget for the whole search over round counts",
    )
    p.add_argument("--t-max-us", type=int, help="cap on the scheduling horizon")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("check", help="audit a schedule against a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--schedule", required=True, help="schedule JSON to audit")
    p.add_argument("--mode", help="mode id (defaults to the schedule's mode_id)")
    p.add_argument("--report", help="write the report JSON here instead of stdout")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("simulate", help="run the beacon protocol over schedules")
    p.add_argument("--spec", required=True)
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument(
        "--schedule",
        action="append",
        default=[],
        metavar="MODE=FILE",
        help="schedule JSON for a mode; repeat per mode",
    )
    p.add_argument("--trace", help="write the trace JSON here instead of stdout")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("model", help="emit timing or energy tables as CSV")
    p.add_argument(
        "--table",
        choices=("round-length", "energy"),
        required=True,
    )
    p.add_argument("--spec", help="take base network parameters from this spec")
    p.add_argument("--hops", help="N or LO:HI")
    p.add_argument("--slots", help="N or LO:HI")
    p.add_argument("--payload", help="N or LO:HI")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(run=_cmd_model)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SpecError, ValueError, OSError) as e:
        _status(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
