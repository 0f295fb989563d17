"""The three benchmark workloads.

Each workload is a closed loop: one caller in this process runs the calls
of a pass back to back, with one worker and no threads.  setup() makes
the inputs from the seed and writes them as the files a user would hand
to the command line; run_pass() makes the timed calls and keeps their
results; verify() checks every result afterwards, outside the timed
region.

synth-small   thousands of tiny LPs, so per-call costs dominate: the
              scipy wrapper, build_instance and the audit.
synth-ladder  deep search trees that end in timeouts with the in-house
              branch and bound; the only workload where the solver
              engine and the formulation change which cases finish.
long-horizon  no solver calls at all: the quadratic curve-order audit,
              the simulator's event log and the trace JSON writer.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import time
from dataclasses import dataclass, field

from inputs import (
    LADDER_BUDGET_MS,
    LADDER_KS,
    SMALL_BUDGET_MS,
    WIDE_NETWORK,
    ladder_spec,
    long_horizon,
    pick_corpus,
    small_case,
)
from reference import reference_solve
from roundsched import cli
from roundsched.checker import check
from roundsched.ilp import build_instance
from roundsched.model import ValidationReport, validate_mode
from roundsched.specio import dumps, load_json, parse_network, parse_schedule, parse_spec
from roundsched.synthesis import SynthConfig, synthesize
from roundsched.timing import round_length

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# synth-small: the bundled spec's two modes plus one case from each of
# CORPUS_SIZE cost bins of the pool
CORPUS_SIZE = 80
# long-horizon: 300 rounds per hyperperiod, three 100 ms loops, and a
# simulation of 25k rounds whose trace is written in full
LH_HYPERPERIOD_MS = 30_000
LH_LOOPS = 3
LH_SIM_ROUNDS = 25_000
# `roundsched check` runs this many times per pass, so that a run has
# tens of check calls spread over its length, whose mean averages over
# the machine's changes of speed (five 600-round checks per run spread
# past the 0.25 bound)
LH_CHECKS_PER_PASS = 10
# the corrupted copy moves one round this far: past every message window
# (slack is at most 20 ms) but not into the next round
LH_CORRUPT_SHIFT_US = 25_000
LH_CORRUPT_FAMILY = "service_before_deadline"


@dataclass
class Call:
    kind: str  # the operation: "synthesize", "check" or "simulate"
    case: str
    wall_s: float
    result: object = None
    error: str | None = None


@dataclass
class Verdict:
    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    timeouts: int = 0
    notes: list[str] = field(default_factory=list)

    def bad(self, kind: str, note: str) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        self.notes.append(note)


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
    return path


def _load_spec(path: str, tracer):
    with _span(tracer, "setup.load"):
        spec = parse_spec(load_json(path))
    with _span(tracer, "setup.validate"):
        for mode in spec.modes:
            report = ValidationReport()
            validate_mode(mode, report)
            if not report.ok:
                raise ValueError(f"{path}: mode {mode.id} is not well formed: {report}")
    return spec


# --------------------------------------------------------------------------
# synthesis workloads
# --------------------------------------------------------------------------


@dataclass
class SynthCase:
    case: str
    mode: object
    params: object
    config: SynthConfig


class SynthWorkload:
    """synthesize() over a list of cases, each with a fixed budget."""

    primary = "synthesize"

    def __init__(self) -> None:
        self.cases: list[SynthCase] = []
        self._reference: dict[tuple[str, int], tuple[str, int | None]] = {}

    def _add(self, spec, mode, budget_ms: int) -> None:
        config = SynthConfig(grid_us=spec.grid_us, solver_budget_ms=budget_ms)
        self.cases.append(SynthCase(mode.id, mode, spec.network, config))

    def run_pass(self, tracer=None) -> list[Call]:
        calls = []
        for c in self.cases:
            if tracer is not None:
                tracer.case = c.case
            with _span(tracer, "synthesize"):
                t0 = time.perf_counter()
                try:
                    out = synthesize(c.mode, c.params, c.config)
                except Exception as e:  # recorded as a failed operation
                    wall = time.perf_counter() - t0
                    calls.append(Call("synthesize", c.case, wall, error=repr(e)))
                    continue
                calls.append(Call("synthesize", c.case, time.perf_counter() - t0, out))
        return calls

    def _ref(self, c: SynthCase, n_rounds: int):
        key = (c.case, n_rounds)
        if key not in self._reference:
            inst = build_instance(
                c.mode, n_rounds, c.params,
                grid_us=c.config.grid_us, t_max_us=c.config.t_max_us,
            )
            self._reference[key] = reference_solve(inst)
        return self._reference[key]

    def verify(self, passes: list[list[Call]]) -> Verdict:
        v = Verdict()
        by_case = {c.case: c for c in self.cases}
        for calls in passes:
            for call in calls:
                v.attempted += 1
                if call.error is not None:
                    v.bad("errors", f"{call.case}: raised {call.error}")
                    continue
                problem = self._judge(by_case[call.case], call.result, call.wall_s)
                if problem is not None:
                    v.bad("wrong", f"{call.case}: {problem}")
                elif call.result.status == "timeout":
                    v.timeouts += 1
        return v

    def _judge(self, c: SynthCase, out, wall_s: float) -> str | None:
        """None if the outcome agrees with the reference, else why not."""
        if out.status == "feasible":
            report = check(c.mode, out.schedule, c.params)
            if not report.ok:
                return f"schedule fails check(): {sorted(report.failed())}"
            proven = range(out.rounds_used)
            want = ("optimal", out.objective_us)
            got = self._ref(c, out.rounds_used)
            if got != want:
                return f"{out.rounds_used} rounds, objective {out.objective_us}; reference {got}"
        elif out.status == "infeasible":
            proven = range(out.solver_calls)
        elif out.status == "timeout":
            # a timeout is honest only if the budget was spent: giving up
            # early would otherwise pass as correct and look fast
            budget_s = c.config.solver_budget_ms / 1000
            if wall_s < budget_s:
                return f"timeout after {wall_s:.3f} s, budget {budget_s:.3f} s per round count"
            # every count before the one that ran out of budget was refuted
            proven = range(out.solver_calls - 1)
        else:
            return f"unknown status {out.status!r}"
        for r in proven:
            got = self._ref(c, r)
            if got[0] != "infeasible":
                return f"{r} rounds refuted, reference finds {got}"
        return None

    def summary(self, passes) -> list[str]:
        return []


class SynthSmall(SynthWorkload):
    name = "synth-small"

    def setup(self, seed: int, workdir: str, tracer=None) -> None:
        self.cases = []
        bundled = _load_spec(os.path.join(REPO, "specs", "control_loop.json"), tracer)
        for mode in bundled.modes:
            self._add(bundled, mode, SMALL_BUDGET_MS)
        with open(os.path.join(HERE, "pool.json"), encoding="utf-8") as fh:
            pool = [c[0] for c in json.load(fh)["cases"]]
        for case_seed in pick_corpus(seed, pool, CORPUS_SIZE):
            path = _write(os.path.join(workdir, f"rand{case_seed}.json"), small_case(case_seed))
            spec = _load_spec(path, tracer)
            self._add(spec, spec.modes[0], SMALL_BUDGET_MS)


class SynthLadder(SynthWorkload):
    """Does not depend on the seed: the ladder is the same for every run."""

    name = "synth-ladder"

    def setup(self, seed: int, workdir: str, tracer=None) -> None:
        self.cases = []
        for k in LADDER_KS:
            path = _write(os.path.join(workdir, f"ladder{k}.json"), ladder_spec(k))
            spec = _load_spec(path, tracer)
            self._add(spec, spec.modes[0], LADDER_BUDGET_MS)

    def summary(self, passes) -> list[str]:
        lines = []
        for call in passes[0]:
            out = call.result
            if out is None:
                lines.append(f"  {call.case}: error {call.error}")
                continue
            lines.append(
                f"  {call.case}: {out.status}, rounds {out.rounds_used}, objective "
                f"{out.objective_us} us, {out.solver_calls} solver calls, "
                f"{out.nodes_total} nodes, {call.wall_s * 1000:.1f} ms"
            )
        return lines


# --------------------------------------------------------------------------
# long-horizon
# --------------------------------------------------------------------------


class LongHorizon:
    """`roundsched check` and `roundsched simulate`, in process."""

    name = "long-horizon"
    primary = "check"

    def __init__(self) -> None:
        # passes write numbered report and trace files that verify() reads
        # back, so set-up, which runs before every pass, does not reset it
        self.n_passes = 0

    def setup(self, seed: int, workdir: str, tracer=None) -> None:
        self.workdir = workdir
        params = parse_network(WIDE_NETWORK)
        spec, long_s, fallback_s, scenario = long_horizon(
            seed, round_length(params), LH_HYPERPERIOD_MS, LH_LOOPS, LH_SIM_ROUNDS
        )
        corrupt = copy.deepcopy(long_s)
        moved = corrupt["rounds"][seed % len(corrupt["rounds"])]
        moved["t"] += LH_CORRUPT_SHIFT_US
        self.spec = _write(os.path.join(workdir, "spec.json"), spec)
        self.long = _write(os.path.join(workdir, "long.json"), long_s)
        self.fallback = _write(os.path.join(workdir, "fallback.json"), fallback_s)
        self.scenario = _write(os.path.join(workdir, "scenario.json"), scenario)
        self.corrupt = _write(os.path.join(workdir, "corrupt.json"), corrupt)
        self.n_rounds = scenario["n_rounds"]

        loaded = _load_spec(self.spec, tracer)
        for mode_id, path in (("long", self.long), ("fallback", self.fallback)):
            with _span(tracer, "setup.load"):
                schedule = parse_schedule(load_json(path))
            report = check(loaded.mode_by_id(mode_id), schedule, loaded.network)
            if not report.ok:
                raise RuntimeError(
                    f"constructed {mode_id} schedule fails its audit: {sorted(report.failed())}"
                )

    def _cli(self, argv: list[str], tracer) -> tuple[int | None, str, float]:
        """(exit code or None if it raised, stderr text, wall seconds)."""
        err = io.StringIO()
        with _span(tracer, "cli.main"), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as e:  # recorded as a failed operation
                rc = None
                err.write(repr(e))
            wall = time.perf_counter() - t0
        return rc, err.getvalue(), wall

    def run_pass(self, tracer=None) -> list[Call]:
        i = self.n_passes
        self.n_passes += 1
        trace = os.path.join(self.workdir, f"trace{i}.json")
        calls = []
        # every check has the same input, and so has every simulate: one
        # case each, and the tracer's case id tells the calls apart
        for j in range(LH_CHECKS_PER_PASS):
            report = os.path.join(self.workdir, f"report{i}.{j}.json")
            if tracer is not None:
                tracer.case = f"check{i}.{j}"
            rc, err, wall = self._cli(
                ["check", "--spec", self.spec, "--schedule", self.long, "--report", report],
                tracer,
            )
            calls.append(Call("check", "long", wall, (rc, err, report)))
        if tracer is not None:
            tracer.case = f"simulate{i}"
        rc, err, wall = self._cli(
            ["simulate", "--spec", self.spec, "--scenario", self.scenario,
             "--schedule", f"long={self.long}", "--schedule", f"fallback={self.fallback}",
             "--trace", trace],
            tracer,
        )
        if tracer is not None:
            tracer.add("specio.trace_bytes", os.path.getsize(trace) if rc == 0 else 0)
        calls.append(Call("simulate", "scenario", wall, (rc, err, trace)))
        return calls

    def verify(self, passes: list[list[Call]]) -> Verdict:
        v = Verdict()
        for calls in passes:
            for call in calls:
                v.attempted += 1
                rc, err, path = call.result
                if rc is None:
                    v.bad("errors", f"{call.kind} {os.path.basename(path)}: raised {err}")
                    continue
                problem = (
                    self._judge_check(rc, path, 0, None)
                    if call.kind == "check"
                    else self._judge_sim(rc, path)
                )
                if problem is not None:
                    v.bad("wrong", f"{call.kind} {os.path.basename(path)}: {problem}; "
                                   f"stderr: {err.strip()}")
        # the audit must also fail, naming the family, on the corrupted copy
        v.attempted += 1
        report = os.path.join(self.workdir, "corrupt-report.json")
        rc, err, _ = self._cli(
            ["check", "--spec", self.spec, "--schedule", self.corrupt, "--report", report],
            None,
        )
        problem = self._judge_check(rc, report, 3, LH_CORRUPT_FAMILY)
        if problem is None and LH_CORRUPT_FAMILY not in err:
            problem = f"status line does not name {LH_CORRUPT_FAMILY}: {err.strip()}"
        if problem is not None:
            v.bad("wrong", f"corrupted check: {problem}")
        return v

    @staticmethod
    def _judge_check(rc: int, path: str, want_rc: int, family: str | None) -> str | None:
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        if family is None:
            return None if report["ok"] else f"report not ok: {report['families']}"
        if report["families"].get(family) != "fail":
            return f"{family} not reported failed: {report['families']}"
        return None

    def _judge_sim(self, rc: int, path: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        summary = trace["summary"]
        epochs = [e["mode"] for e in trace["events"] if e["kind"] == "epoch"]
        if summary["beacons_sent"] != self.n_rounds:
            return f"{summary['beacons_sent']} beacons for {self.n_rounds} rounds"
        if summary["collisions"] != 0:
            return f"{summary['collisions']} collisions"
        if epochs != ["fallback", "long"]:
            return f"mode changes committed: {epochs}"
        return None

    def summary(self, passes) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (SynthSmall, SynthLadder, LongHorizon)}
