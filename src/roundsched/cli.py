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
from .model import ValidationReport, validate_mode, validate_modes_disjoint
from .sim import AuditError, SimTrace, run
from .solver import write_lp
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
from .synthesis import SynthConfig, max_rounds, program, synthesize
from .timing import NETWORK_MINIMUMS, NetworkParams, energy_saving, round_length

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


def _count(n: int, noun: str) -> str:
    """"1 round", "2 rounds"."""
    return f"{n} {noun}{'' if n == 1 else 's'}"


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
        solver_budget_ms=args.budget_ms,
    )
    out = synthesize(mode, spec.network, config)
    if args.lp_dir is not None:
        os.makedirs(args.lp_dir, exist_ok=True)
        for r in range(out.min_rounds, out.min_rounds + out.solver_calls):
            inst = program(mode, r, spec.network, config)
            write_lp(inst, os.path.join(args.lp_dir, inst.name + ".lp"))
    if out.schedule is not None:
        _emit([dumps(schedule_to_obj(out.schedule))], args.out)
    searched = (
        f"{_count(out.solver_calls, 'solver call')} "
        f"from the {out.min_rounds}-round lower bound"
    )
    if out.status == "feasible":
        _status(
            f"feasible: {_count(out.rounds_used, 'round')}, "
            f"objective {out.objective_us} us, {searched}"
        )
        return 0
    if out.status == "infeasible":
        r_max = max_rounds(mode, spec.network, config)
        if out.min_rounds > r_max:
            _status(
                f"infeasible: needs at least {_count(out.min_rounds, 'round')}, "
                f"at most {r_max} fit"
            )
        else:
            _status(f"infeasible: exhausted round counts after {searched}")
        return 2
    best = ""
    if out.schedule is not None:
        best = (
            f"best schedule has {_count(out.rounds_used, 'round')}, objective "
            f"{out.objective_us} us, not proven optimal; "
        )
    bound = "" if out.dual_bound_us is None else f", dual bound {out.dual_bound_us} us"
    _status(f"timeout: {best}solver budget exhausted after {searched}{bound}")
    return 1


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    schedule = parse_schedule(load_json(args.schedule))
    mode = _pick_mode(spec, schedule.mode_id)
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
    # run() audits the table and checks the scenario before the first
    # event, and the output is opened only after it returns: a refused
    # input never leaves a partial trace
    trace = SimTrace()
    try:
        events = run(table, scenario, spec.network, trace)
    except AuditError as e:
        _status(str(e))
        return 3
    _emit(trace_chunks(events, trace), args.trace)
    counts = ((trace.beacons_missed, "missed beacon"), (trace.transmissions, "transmission"),
              (trace.collisions, "collision"), (trace.resyncs, "resync"))
    _status(f"simulated {_count(trace.beacons_sent, 'round')}: "
            + ", ".join(_count(n, noun) for n, noun in counts))
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

    def axis(text: str | None, flag: str, name: str) -> list[int]:
        values = [getattr(base, name)] if text is None else _parse_range(text, flag)
        # a spec's own values were held to the minimums when it was read
        least = NETWORK_MINIMUMS[name]
        if min(values) < least:
            raise SpecError(f"{flag} must be at least {least}, got {min(values)}")
        return values

    hops = axis(args.hops, "--hops", "hops")
    slots = axis(args.slots, "--slots", "slots_per_round")
    payloads = axis(args.payload, "--payload", "payload_bytes")
    retx = base.retransmissions

    def cell(h: int, b: int, l: int) -> str:
        net = replace(base, hops=h, slots_per_round=b, payload_bytes=l)
        if args.table == "round-length":
            return str(round_length(net))
        return f"{float(energy_saving(net)):.6f}"

    lines = []
    if args.table == "round-length":
        lines.append(",".join(ROUND_GRID_HEADER))
        for l in payloads:
            for h in hops:
                for b in slots:
                    lines.append(f"{h},{b},{l},{retx},{cell(h, b, l)}")
    else:
        lines.append(",".join(ENERGY_GRID_HEADER))
        for h in hops:
            for l in payloads:
                for b in slots:
                    lines.append(f"{l},{b},{h},{retx},{cell(h, b, l)}")
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
    p.add_argument("--lp-dir", help="dump one LP file per round count HiGHS was run on")
    p.add_argument(
        "--budget-ms",
        type=int,
        help="solver time budget for the whole search over round counts",
    )
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("check", help="audit a schedule against a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--schedule", required=True, help="schedule JSON to audit")
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error: infeasible here
        return 1 if e.code else 0
    try:
        return args.run(args)
    except (ValueError, OSError) as e:  # SpecError is a ValueError
        _status(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
