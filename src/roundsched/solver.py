"""Exact solution of the co-scheduling programs with the HiGHS MILP engine.

Each program is handed to HiGHS (branch and cut) through scipy's bundled
binding of it, scipy.optimize._highspy._core, the engine scipy's milp
runs: one HighsLp whose matrix is built row by row from the instance's
rows, every variable integer.  The binding is private to scipy; CI pins
scipy 1.17.1 (HiGHS 1.12.0), the one version checked.  HiGHS works in
floating point, so its point is rounded to integers and re-verified in
exact integer arithmetic (check_assignment), and the objective is
recomputed from the rounded integers.  A rounded point that fails the
check raises instead of being returned, and so does any HiGHS status
other than optimal, infeasible or a time limit reached at the deadline.
solve() stops at the absolute time.monotonic() deadline of the search
that calls it, so one budget covers every round count synthesize() tries.
write_lp() hands the same fill, its columns and rows named as in the
instance, to HiGHS's own LP writer, so a written file is the program
solve() runs.

HiGHS runs with three options set (HIGHS_OPTIONS), measured on a 2-core
VM; an option HiGHS does not have, or a value it refuses, raises
ValueError naming the option:

- mip_rel_gap 0: the search stops only when the latency is proven
  optimal, not within HiGHS's default 0.01 % gap.
- mip_pool_soft_limit 100: caps the cut pool, the main heap cost of the
  larger programs.  Measured on the programs synthesize() solves, the
  first round's start bounded, three runs each: the 4-pipeline ladder at
  4 rounds (4 pipelines sharing a controller, with its sym rows) is
  proven optimal in 0.67-0.69 s (470 nodes) with the cap, and in
  1.05-1.25 s (834 nodes) with HiGHS's default pool of 10000 cuts; the
  5-pipeline ladder at 4 rounds in 4.6-4.8 s with the cap and 5.4-5.9 s
  without.  Refuting 4 rounds of 5 pipelines with 115 ms deadlines takes
  1.0-1.1 s with the cap and 1.5 s without it, time a 5 s budget for the
  whole search over round counts needs for the next count.  A process
  that solves one of these peaks at 83.4-87.2 MB RSS with the cap and
  86.1-93.8 MB without.
- mip_heuristic_run_feasibility_jump off: on the small programs whose
  root LP bound is already the optimum, the feasibility-jump heuristic
  spent about half of each ~20 ms solve finding an incumbent that the
  root heuristics then replaced.  Without it 400 small modes (perfbench's
  pool) synthesize in 5.6 s instead of 10.1 s, median 8.9 ms instead of
  19.8 ms per mode, with the same status, round count and objective on
  every one.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import sys
import time
from dataclasses import dataclass

from scipy.optimize._highspy import _core as highs

from .ilp import ILPInstance, check_assignment

HIGHS_OPTIONS = {  # each is measured in the module docstring
    "mip_rel_gap": 0.0,
    "mip_pool_soft_limit": 100,
    "mip_heuristic_run_feasibility_jump": False,
}

_libc = ctypes.CDLL(None)
_libc.fflush.argtypes = [ctypes.c_void_p]
_libc.fflush.restype = ctypes.c_int


@dataclass
class SolverSolution:
    status: str  # "optimal" | "infeasible" | "timeout"
    # one value per variable of the instance, in index order; on "timeout",
    # the incumbent if there is one
    values: list[int] | None
    objective: int | None
    # branch-and-bound nodes HiGHS explored, whatever the status: a
    # refutation counts its nodes too (107 for the 2-pipeline ladder at 3
    # rounds on the 5 ms grid), and a program refuted before branch and
    # bound starts counts 0
    nodes: int
    # no point has a smaller objective: HiGHS's mip_dual_bound rounded up to
    # an integer (objectives are integers) and capped at the objective;
    # None when there is no point or when HiGHS reports no finite bound
    dual_bound: int | None = None


@contextlib.contextmanager
def _stdout_to_stderr():
    """Send C-level writes to fd 1 to fd 2 for the duration.

    HiGHS printf()s some diagnostics to the process's stdout whatever its
    options say, which would corrupt JSON written there.  The C stdio
    buffer is flushed before fd 1 is restored, so nothing it held leaks
    out later."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        _libc.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def _model(inst: ILPInstance, settings: dict) -> highs._Highs:
    """A Highs holding the instance's program, every variable integer and
    every column and row named as in the instance, with settings as its
    options."""
    options = highs.HighsOptions()
    for key, value in settings.items():
        try:
            setattr(options, key, value)
        except (AttributeError, TypeError):
            raise ValueError(f"HiGHS has no option {key!r} taking {value!r}") from None
    n = len(inst.variables)
    lp = highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = len(inst.rows)
    cost = [0] * n
    for i, cf in inst.objective.items():
        cost[i] = cf
    lp.col_cost_ = cost
    lp.col_lower_ = [v.lb for v in inst.variables]
    lp.col_upper_ = [v.ub for v in inst.variables]
    lp.row_lower_ = [r.rhs if r.sense == "==" else -highs.kHighsInf for r in inst.rows]
    lp.row_upper_ = [r.rhs for r in inst.rows]
    lp.integrality_ = [highs.HighsVarType.kInteger] * n
    lp.col_names_ = [v.name for v in inst.variables]
    lp.row_names_ = [r.name for r in inst.rows]
    start, index, value = [0], [], []
    for r in inst.rows:
        index.extend(r.coeffs)
        value.extend(r.coeffs.values())
        start.append(len(index))
    a = lp.a_matrix_
    a.format_ = highs.MatrixFormat.kRowwise
    a.num_col_, a.num_row_ = n, len(inst.rows)
    a.start_, a.index_, a.value_ = start, index, value
    h = highs._Highs()
    with _stdout_to_stderr():
        if h.passOptions(options) == highs.HighsStatus.kError:
            raise ValueError(f"HiGHS refused the options {settings}")
        if h.passModel(lp) == highs.HighsStatus.kError:
            raise RuntimeError("HiGHS refused the program")
    return h


def _run_highs(inst: ILPInstance, time_limit_s: float | None):
    """The Highs object after it has run on the instance."""
    settings = dict(HIGHS_OPTIONS, log_to_console=False)
    if time_limit_s is not None:
        settings["time_limit"] = time_limit_s
    h = _model(inst, settings)
    with _stdout_to_stderr():
        if h.run() == highs.HighsStatus.kError:
            raise RuntimeError(f"HiGHS run failed: {h.modelStatusToString(h.getModelStatus())}")
    return h


def write_lp(inst: ILPInstance, path: str) -> None:
    """Write the program solve() hands HiGHS to path, in HiGHS's LP format."""
    # HiGHS 1.12 crashes the process on a file it cannot open, so an
    # unwritable path raises OSError here first
    open(path, "w").close()
    h = _model(inst, {"log_to_console": False, "output_flag": False})
    with _stdout_to_stderr():
        if h.writeModel(path) == highs.HighsStatus.kError:
            raise OSError(f"HiGHS could not write {path}")


def solve(inst: ILPInstance, *, deadline: float | None = None) -> SolverSolution:
    """Minimize the instance objective over integer points.

    deadline is the search's absolute time.monotonic() instant; once it
    has passed the result is "timeout", with the best verified point found
    so far, if any.
    """
    # HiGHS ignores a negative time_limit and runs to the end
    time_limit_s = None if deadline is None else max(0.0, deadline - time.monotonic())
    h = _run_highs(inst, time_limit_s)
    model_status = h.getModelStatus()
    info = h.getInfo()
    # HiGHS reports -1 when branch and bound never started
    nodes = max(0, info.mip_node_count)
    if model_status == highs.HighsModelStatus.kInfeasible:
        return SolverSolution("infeasible", None, None, nodes)
    if model_status == highs.HighsModelStatus.kOptimal:
        status = "optimal"
    elif model_status == highs.HighsModelStatus.kTimeLimit:
        status = "timeout"
        if deadline is None or time.monotonic() < deadline:
            raise RuntimeError("HiGHS stopped before its deadline: "
                               + h.modelStatusToString(model_status))
    else:
        raise RuntimeError(f"HiGHS ended with {h.modelStatusToString(model_status)}")
    if not math.isfinite(info.objective_function_value):
        return SolverSolution(status, None, None, nodes)
    values = [int(round(x)) for x in h.getSolution().col_value]
    bad = check_assignment(inst, values)
    if bad:
        raise RuntimeError(f"HiGHS point fails exact verification: {bad[:3]}")
    objective = sum(cf * values[i] for i, cf in inst.objective.items())
    return SolverSolution(status, values, objective, nodes,
                          _dual_bound(info.mip_dual_bound, objective))


def _dual_bound(bound: float, objective: int) -> int | None:
    if not math.isfinite(bound):
        return None
    # the float bound carries noise above an integer (404000.00000000314 on
    # the 4-pipeline ladder), which must not round up to the next integer;
    # a tolerance below 1 can only weaken the bound, never overstate it
    bound = math.ceil(bound - min(0.5, 1e-6 * max(1.0, abs(bound))))
    return min(bound, objective)
