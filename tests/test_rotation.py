"""The first round's start, bounded against the time-rotation symmetry.

A schedule shifted along the time axis by a grid multiple that no task
instance straddles is a schedule of the same mode with the same chain
latencies, so synthesis.program bounds rt0 by U = g * (sum over the task
instances of the hyperperiod of ceil(e/g) - 1) (see ilp's docstring).
The independent checker backs the shift, and the optimum HiGHS proves
on build_instance's program, where rt0 is free, backs the bound.
"""

import dataclasses
import functools
from pathlib import Path

import pytest
from oracle import brute_force_min_rounds
from support import ladder_mode, mk_app, random_small_case, small_params, wide_params

from roundsched.checker import check
from roundsched.ilp import build_instance
from roundsched.model import Mode, ModeSchedule, Round, chains, hyperperiod
from roundsched.solver import solve
from roundsched.specio import load_json, parse_spec
from roundsched.synthesis import SynthConfig, max_rounds, min_rounds, program, synthesize

BUNDLED = parse_spec(load_json(str(Path(__file__).resolve().parent.parent
                                   / "specs" / "control_loop.json")))
LADDER_GRID = SynthConfig(grid_us=5000)
GRID = SynthConfig(grid_us=1000)
SEEDS = range(40)


def u_ticks(mode: Mode, g: int) -> int:
    """U / g counted one task instance at a time: the grid points strictly
    inside an execution that starts on the grid."""
    h = hyperperiod(mode)
    periods = mode.task_periods()
    return sum(len(range(g, t.wcet_us, g)) * (h // periods[t.id])
               for t in mode.all_tasks().values())


def straddled(mode: Mode, schedule: ModeSchedule, x: int) -> bool:
    """Whether some task instance of the hyperperiod strictly straddles x."""
    periods = mode.task_periods()
    for t in mode.all_tasks().values():
        p = periods[t.id]
        for k in range(schedule.hyperperiod_us // p):
            start = schedule.task_offsets[t.id] + k * p
            if start < x < start + t.wcet_us:
                return True
    return False


def rotate(mode: Mode, schedule: ModeSchedule, c: int) -> ModeSchedule:
    """The schedule with time starting at c: every offset moves left by c
    modulo its period, every round modulo the hyperperiod, and a message
    is carried over the new origin when its first round comes before its
    first release."""
    h = schedule.hyperperiod_us
    periods = {**mode.task_periods(), **mode.message_periods()}
    tasks = {tid: (o - c) % periods[tid] for tid, o in schedule.task_offsets.items()}
    msgs = {mid: (o - c) % periods[mid] for mid, o in schedule.message_offsets.items()}
    rounds = tuple(sorted((Round((r.t - c) % h, r.alloc) for r in schedule.rounds),
                          key=lambda r: r.t))
    first = {mid: next(r.t for r in rounds if mid in r.alloc) for mid in msgs}
    return dataclasses.replace(
        schedule,
        task_offsets=tasks,
        message_offsets=msgs,
        rounds=rounds,
        leftover={mid: int(first[mid] < msgs[mid]) for mid in msgs},
    )


def chain_latencies(mode: Mode, schedule: ModeSchedule) -> list[int]:
    """Each chain's latency, walked forward in time: every message leaves
    at its first release after its producer ends, and every consumer
    starts at its first instance after the message's window closes."""

    def next_at(offset: int, period: int, t: int) -> int:
        return offset + -(-(t - offset) // period) * period

    tasks = mode.all_tasks()
    out = []
    for app in mode.applications:
        p = app.period_us
        for ch in chains(app):
            start = schedule.task_offsets[ch.first_task]
            t = start
            for k, mid in enumerate(ch.message_ids):
                t += tasks[ch.task_ids[k]].wcet_us
                t = next_at(schedule.message_offsets[mid], p, t)
                t += schedule.message_deadlines[mid]
                t = next_at(schedule.task_offsets[ch.task_ids[k + 1]], p, t)
            out.append(t + tasks[ch.last_task].wcet_us - start)
    return out


def without_bound(mode: Mode, params, config: SynthConfig) -> tuple:
    """(status, round count, objective) of the search over round counts
    on build_instance's programs, rt0 free; ("infeasible", None, None)
    when no count fits."""
    for n in range(min_rounds(mode, params), max_rounds(mode, params, config) + 1):
        sol = solve(build_instance(mode, n, params, grid_us=config.grid_us,
                                   t_max_us=config.t_max_us))
        if sol.status != "infeasible":
            return sol.status, n, sol.objective
    return "infeasible", None, None


def rt0_bounds(mode: Mode, n_rounds: int, params, config: SynthConfig) -> tuple[int, int]:
    """rt0's upper bound in program's and in build_instance's program."""
    pinned = program(mode, n_rounds, params, config)
    free = build_instance(mode, n_rounds, params, grid_us=config.grid_us,
                          t_max_us=config.t_max_us)
    return (pinned.variables[pinned.keys["rt", 0]].ub,
            free.variables[free.keys["rt", 0]].ub)


def optimum_at_zero(mode: Mode, n_rounds: int, params, config: SynthConfig) -> int | None:
    """The optimum of program's program with the first round at 0."""
    inst = program(mode, n_rounds, params, config)
    i = inst.keys["rt", 0]
    inst.variables[i] = dataclasses.replace(inst.variables[i], ub=0)
    return solve(inst).objective


def long_task_mode() -> Mode:
    """A 13 ms task fills node x for most of every 20 ms, and the 1 ms
    consumer of a 40 ms pipeline shares that node: at the optimum, 26 ms
    summed latency with one round, a task runs across the round's start."""
    blk = mk_app("blk", 20, [("L", "x", 13)], [])
    app = mk_app("a", 40, [("t1", "y", 2), ("t2", "x", 1)], [("t1", "t2", "m")])
    return Mode("straddle", (blk, app))


@functools.cache
def seeded_cases() -> list[tuple]:
    """(seed, mode, params, synthesize's outcome) for every seed."""
    cases = [(seed, *random_small_case(seed)) for seed in SEEDS]
    return [(seed, mode, params, synthesize(mode, params, GRID))
            for seed, mode, params in cases]


CASES = {
    "normal": (BUNDLED.mode_by_id("normal"), BUNDLED.network, GRID),
    "fallback": (BUNDLED.mode_by_id("fallback"), BUNDLED.network, GRID),
    "ladder3": (ladder_mode(3), wide_params(hops=2), LADDER_GRID),
    "straddle": (long_task_mode(), small_params(slots=1), SynthConfig(grid_us=2000)),
}


class TestShiftedSchedules:
    """A synthesized schedule shifted to any grid point that no task
    instance and no round straddles passes check() with the same chain
    latencies."""

    def shifts(self, mode, schedule, config) -> list[int]:
        t_r = schedule.round_len_us
        return [c for c in range(config.grid_us, schedule.hyperperiod_us, config.grid_us)
                if not straddled(mode, schedule, c)
                and not any(r.t < c < r.t + t_r for r in schedule.rounds)]

    def assert_shifts_pass(self, mode, params, config, out) -> int:
        assert out.status == "feasible"
        assert check(mode, out.schedule, params).ok
        want = chain_latencies(mode, out.schedule)
        shifts = self.shifts(mode, out.schedule, config)
        for c in shifts:
            shifted = rotate(mode, out.schedule, c)
            assert check(mode, shifted, params).ok, c
            assert chain_latencies(mode, shifted) == want, c
        return len(shifts)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_named_modes(self, case):
        mode, params, config = CASES[case]
        assert self.assert_shifts_pass(mode, params, config, synthesize(mode, params, config)) > 0

    def test_seeded_modes_with_long_tasks(self):
        # every seed with a schedule; the others are proven infeasible
        feasible = [case for case in seeded_cases() if case[3].status == "feasible"]
        assert len(feasible) >= 20
        for seed, mode, params, out in feasible:
            assert self.assert_shifts_pass(mode, params, GRID, out) > 0, seed

    def test_a_straddled_shift_is_refused(self):
        # a task runs across the start of long_task_mode's one round, and a
        # shift to that start would cut it in two
        mode, params, config = CASES["straddle"]
        out = synthesize(mode, params, config)
        start = out.schedule.rounds[0].t
        assert straddled(mode, out.schedule, start)
        assert "domains" in check(mode, rotate(mode, out.schedule, start), params).failed()


class TestBoundKeepsTheOptimum:
    @pytest.mark.parametrize("k, objective", [(2, 212_000), (3, 333_000), (4, 444_000)])
    def test_ladder(self, k, objective):
        # test_synthesis.py::TestLadderOptima proves these optima with rt0 <= 0
        mode, params = ladder_mode(k), wide_params(hops=2)
        assert rt0_bounds(mode, 4, params, LADDER_GRID) == (0, 71)
        assert without_bound(mode, params, LADDER_GRID) == ("optimal", 4, objective)

    @pytest.mark.parametrize("mode_id, n_rounds, objective", [
        ("normal", 2, 89_000), ("fallback", 1, 45_000)])
    def test_bundled_modes(self, mode_id, n_rounds, objective):
        mode = BUNDLED.mode_by_id(mode_id)
        assert rt0_bounds(mode, n_rounds, BUNDLED.network, GRID) == (0, 57)
        out = synthesize(mode, BUNDLED.network, GRID)
        assert (out.status, out.rounds_used, out.objective_us) == (
            "feasible", n_rounds, objective)
        assert without_bound(mode, BUNDLED.network, GRID) == ("optimal", n_rounds, objective)

    def test_seeded_modes_with_long_tasks(self):
        # every seed: program bounds rt0 by U at the count the search ends
        # on, unless no round fits the hyperperiod and there is no program,
        # and the free search ends on the same count and optimum
        programs = binds = 0
        for seed, mode, params, out in seeded_cases():
            n = out.rounds_used or out.min_rounds
            if n <= max_rounds(mode, params, GRID):
                pinned, free = rt0_bounds(mode, n, params, GRID)
                assert pinned == min(free, u_ticks(mode, GRID.grid_us)), seed
                programs += 1
                binds += pinned < free
            status = "optimal" if out.status == "feasible" else out.status
            assert without_bound(mode, params, GRID) == (
                status, out.rounds_used, out.objective_us), seed
        assert programs >= 30 and binds >= 10

    def test_long_task_over_the_rotation_point(self):
        # no optimum has an unstraddled round start, so a bound of 0 costs
        # 4 ms; U = 2 * 6 ticks, from L's two instances, keeps the optimum
        mode, params, config = CASES["straddle"]
        assert rt0_bounds(mode, 1, params, config) == (12, 15)
        rounds, _schedule = brute_force_min_rounds(mode, params, config.grid_us)
        out = synthesize(mode, params, config)
        assert (out.status, out.rounds_used, out.objective_us) == ("feasible", rounds, 26_000)
        assert without_bound(mode, params, config) == ("optimal", 1, 26_000)
        assert optimum_at_zero(mode, 1, params, config) == 30_000

