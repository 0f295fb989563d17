"""Round-count search wrapped around the integer program.

Round counts are tried in increasing order starting from min_rounds, a
lower bound that no schedule of the mode can beat; the first count whose
program has an integer solution wins, so the schedule uses as few
communication rounds as possible and, for that count, minimizes the
summed worst-case chain latency of the applications.  Counts below the
bound are never built or solved.

The solver budget is one deadline for the whole search, not a budget
per round count.  When it runs out while the solver holds a schedule for
the current count, that schedule is audited and returned with status
"timeout": it uses as few rounds as possible (every smaller count is
below the bound or was refuted), but its latency is not proven optimal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .checker import check
from .ilp import ILPInstance, build_instance, extract_schedule
from .model import (
    Mode,
    ModeSchedule,
    ValidationReport,
    chains,
    hyperperiod,
    validate_mode,
)
from .solver import solve
from .timing import NetworkParams, round_length


# Longest hyperperiod handed to HiGHS, half the lowest failure measured.
# HiGHS's integers may be 1e-6 off, 1 us on a 1e6 us coefficient.  Every
# period = deadline = P, 1 us grid, limit lifted: perfbench's 400 pool
# modes (1 s budget) pass at 2e5..8e5 us; at 1e6 one point fails
# check_assignment (prod_m2: -2999 > -3000), at 4e6 three.  With a 5 s
# budget ladder_mode(2) and mode "normal" pass up to 1e8; at 1e9 HiGHS
# refutes their 2 schedulable rounds.
MAX_HYPERPERIOD_US = 500_000


@dataclass
class SynthConfig:
    grid_us: int = 1
    t_max_us: int | None = None
    solver_budget_ms: int | None = None  # for the whole synthesize() call


@dataclass
class SynthesisOutcome:
    status: str  # "feasible" | "infeasible" | "timeout"
    min_rounds: int  # the search started here; smaller counts were not solved
    solver_calls: int  # round counts HiGHS was run on, from min_rounds up
    nodes_total: int
    schedule: ModeSchedule | None = None  # on "timeout", the audited incumbent if any
    rounds_used: int | None = None
    objective_us: int | None = None
    # no schedule at the last round count solved has a smaller objective:
    # objective_us when feasible, HiGHS's bound when that count ran out of
    # budget, None when infeasible or when HiGHS stated no bound
    dual_bound_us: int | None = None


def max_rounds(mode: Mode, params: NetworkParams, config: SynthConfig) -> int:
    """Largest number of rounds that fits the scheduling horizon."""
    h = hyperperiod(mode)
    horizon = h if config.t_max_us is None else min(config.t_max_us, h)
    return horizon // round_length(params)


def min_rounds(mode: Mode, params: NetworkParams) -> int:
    """Fewest rounds any schedule of the mode can have.

    The larger of two lower bounds, over the H-long hyperperiod:

    - capacity: every message instance is carried once, in one data slot,
      and a round has slots_per_round of them, so the rounds number at
      least ceil(sum over messages of H / p_m, over slots_per_round);
    - chains: a round serves a message instance only if it fits inside
      that instance's window.  Along a chain, one message's window closes
      before its consumer starts, and the next message's window opens
      only after that consumer ends, so the windows of one chain instance
      are disjoint and need a round each.  The instance spans at most the
      application's deadline, which is at most its period, so the spans
      of successive instances do not overlap either.  A chain with k
      messages thus needs k * H / p_app rounds; the k are distinct, since
      a message has one producer and the graph is acyclic.

    It is at least 1 even for a mode without messages: the host announces
    a mode change in the beacons of the running mode's rounds, so a mode
    with none could never be left.

    >>> from roundsched.model import Application, Task
    >>> t1 = Task("t1", "n1", 1000); t2 = Task("t2", "n2", 1000)
    >>> app = Application("a", 10_000, 10_000, (t1, t2), (("t1", "t2", "m1"),))
    >>> min_rounds(Mode("m", (app,)), NetworkParams(1, 5, 10))
    1
    """
    h = hyperperiod(mode)
    instances = sum(h // p for p in mode.message_periods().values())
    bound = max(1, -(-instances // params.slots_per_round))
    for app in mode.applications:
        for ch in chains(app):
            bound = max(bound, len(ch.message_ids) * (h // app.period_us))
    return bound


def program(
    mode: Mode, n_rounds: int, params: NetworkParams, config: SynthConfig
) -> ILPInstance:
    """The program HiGHS solves for n_rounds >= 1: build_instance's, with
    the first round's start bounded by U = g * (sum over the task instances
    of the hyperperiod of ceil(e / g) - 1), which is 0 when no WCET
    exceeds the grid g.  See ilp's docstring for why the bound keeps the
    optimum.
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be at least 1, got {n_rounds}")
    g = config.grid_us
    inst = build_instance(mode, n_rounds, params, grid_us=g, t_max_us=config.t_max_us)
    h = hyperperiod(mode)
    periods = mode.task_periods()
    u_ticks = sum(
        h // periods[t.id] * (-(-t.wcet_us // g) - 1)
        for t in mode.all_tasks().values()
    )
    i = inst.keys["rt", 0]
    rt0 = inst.variables[i]
    inst.variables[i] = replace(rt0, ub=min(rt0.ub, u_ticks))
    return inst


def synthesize(
    mode: Mode,
    params: NetworkParams,
    config: SynthConfig | None = None,
) -> SynthesisOutcome:
    """Search for a schedule of the mode, trying round counts from
    min_rounds up to max_rounds."""
    config = config or SynthConfig()
    if config.grid_us < 1:
        raise ValueError(f"time grid must be at least 1 us, got {config.grid_us} us")
    if config.t_max_us is not None and config.t_max_us <= 0:
        raise ValueError(f"horizon cap must be positive, got {config.t_max_us} us")
    if config.solver_budget_ms is not None and config.solver_budget_ms < 0:
        raise ValueError(
            f"solver budget must not be negative, got {config.solver_budget_ms} ms"
        )
    report = ValidationReport()
    validate_mode(mode, report)
    if not report.ok:
        raise ValueError(f"mode {mode.id} is not well formed: {sorted(report.failed())}")

    r_min = min_rounds(mode, params)
    r_max = max_rounds(mode, params, config)
    h = hyperperiod(mode)
    if r_min <= r_max and h > MAX_HYPERPERIOD_US:
        # r_min > r_max is a proof without HiGHS, exact at any hyperperiod
        raise ValueError(
            f"mode {mode.id}: hyperperiod {h} us (grid {config.grid_us} us) is "
            f"above the synthesis limit of {MAX_HYPERPERIOD_US} us"
        )
    budget_ms = config.solver_budget_ms
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000
    calls = nodes = 0
    for n_rounds in range(r_min, r_max + 1):
        inst = program(mode, n_rounds, params, config)
        if deadline is not None and time.monotonic() >= deadline:
            # spent before HiGHS ran on this count: not a solver call
            return SynthesisOutcome("timeout", r_min, calls, nodes)
        sol = solve(inst, deadline=deadline)
        calls += 1
        nodes += sol.nodes
        if sol.status == "infeasible":
            continue
        if sol.values is None:
            return SynthesisOutcome(
                "timeout", r_min, calls, nodes, dual_bound_us=sol.dual_bound
            )
        schedule = extract_schedule(inst, sol.values, mode)
        audit = check(mode, schedule, params)
        if not audit.ok:
            raise RuntimeError(
                f"synthesized schedule failed its own audit: {sorted(audit.failed())}"
            )
        status = "feasible" if sol.status == "optimal" else "timeout"
        return SynthesisOutcome(
            status, r_min, calls, nodes, schedule, n_rounds, sol.objective, sol.dual_bound
        )
    return SynthesisOutcome("infeasible", r_min, calls, nodes)
