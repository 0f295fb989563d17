"""Exact solution of the co-scheduling programs with the HiGHS MILP engine.

Each program is handed to scipy's milp (HiGHS branch and cut) as one
sparse constraint matrix, every variable integer.  HiGHS works in
floating point, so its point is rounded to integers and re-verified in
exact integer arithmetic (check_assignment), and the objective is
recomputed from the rounded integers.  A rounded point that fails the
check raises instead of being returned.  solve() stops at the absolute
time.monotonic() deadline of the search that calls it, so one budget
covers every round count synthesize() tries.

HiGHS runs with three options set (HIGHS_OPTIONS), measured on a 2-core
VM:

- mip_rel_gap 0: the search stops only when the latency is proven
  optimal, not within HiGHS's default 0.01 % gap.
- mip_pool_soft_limit 100: caps the cut pool, the main heap cost of the
  larger programs.  The cap costs time on some programs and saves it on
  others.  Measured on the programs synthesize() solves, the first
  round's start bounded: the 4-pipeline ladder at 4 rounds (4 pipelines
  sharing a controller, with its sym rows) is proven optimal in 1.3-1.6 s
  (546 nodes) with the cap, and in 1.1-1.2 s (362 nodes) with HiGHS's
  default pool of 10000 cuts; the 5-pipeline ladder at 4 rounds in
  6.6-7.0 s with the cap and 8.4-9.8 s without.  Refuting 4 rounds of 5
  pipelines with 115 ms deadlines takes 1.0-1.2 s with the cap and
  1.8-1.9 s without it, time a 5 s budget for the whole search over round
  counts needs for the next count: the cap stays.  A process that solves
  one of these peaks at 84.4-88.2 MB RSS with the cap and 86.8-94.7 MB
  without.
- mip_heuristic_run_feasibility_jump off: on the small programs whose
  root LP bound is already the optimum, the feasibility-jump heuristic
  spent about half of each ~20 ms solve finding an incumbent that the
  root heuristics then replaced.  Without it 400 small modes (perfbench's
  pool) synthesize in 5.6 s instead of 10.1 s, median 8.9 ms instead of
  19.8 ms per mode, with the same status, round count and objective on
  every one.

scipy's milp passes the two options it does not know to HiGHS verbatim.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

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
    # branch-and-bound nodes as scipy reports them: its mip_node_count is
    # None on an infeasible result, which counts 0 here however many nodes
    # HiGHS explored (its log shows 80 for the 2-pipeline ladder at 3 rounds)
    nodes: int
    # no point has a smaller objective: HiGHS's mip_dual_bound rounded up to
    # an integer (objectives are integers) and capped at the objective;
    # None when infeasible or when HiGHS reports no finite bound
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


def _milp(inst: ILPInstance, time_limit_s: float | None):
    n = len(inst.variables)
    c = np.zeros(n)
    for i, cf in inst.objective.items():
        c[i] = cf
    data, rows, cols = [], [], []
    lo = np.empty(len(inst.rows))
    hi = np.empty(len(inst.rows))
    for r, row in enumerate(inst.rows):
        rows.extend([r] * len(row.coeffs))
        cols.extend(row.coeffs)
        data.extend(row.coeffs.values())
        hi[r] = row.rhs
        lo[r] = row.rhs if row.sense == "==" else -np.inf
    constraints = ()
    if inst.rows:
        a = csr_array((data, (rows, cols)), shape=(len(inst.rows), n))
        constraints = LinearConstraint(a, lo, hi)
    options = dict(HIGHS_OPTIONS)
    if time_limit_s is not None:
        options["time_limit"] = time_limit_s
    with warnings.catch_warnings(), _stdout_to_stderr():
        # scipy passes options it does not know to HiGHS verbatim, but
        # warns about them
        warnings.filterwarnings(
            "ignore", "Unrecognized options detected", RuntimeWarning
        )
        return milp(
            c,
            constraints=constraints,
            integrality=np.ones(n),
            bounds=Bounds(
                [v.lb for v in inst.variables], [v.ub for v in inst.variables]
            ),
            options=options,
        )


def solve(inst: ILPInstance, *, deadline: float | None = None) -> SolverSolution:
    """Minimize the instance objective over integer points.

    deadline is the search's absolute time.monotonic() instant; once it
    has passed the result is "timeout", with the best verified point found
    so far, if any.
    """
    # HiGHS ignores a negative time_limit and runs to the end
    time_limit_s = None if deadline is None else max(0.0, deadline - time.monotonic())
    res = _milp(inst, time_limit_s)
    nodes = int(res.mip_node_count or 0)
    if res.status == 2:
        return SolverSolution("infeasible", None, None, nodes)
    if res.status not in (0, 1):
        raise RuntimeError(f"milp failed with status {res.status}: {res.message}")
    status = "optimal" if res.status == 0 else "timeout"
    if status == "timeout" and (deadline is None or time.monotonic() < deadline):
        raise RuntimeError(f"milp stopped before its deadline: {res.message}")
    if res.x is None:
        return SolverSolution(status, None, None, nodes, _dual_bound(res, None))
    values = [int(round(x)) for x in res.x]
    bad = check_assignment(inst, values)
    if bad:
        raise RuntimeError(f"milp point fails exact verification: {bad[:3]}")
    objective = sum(cf * values[i] for i, cf in inst.objective.items())
    return SolverSolution(status, values, objective, nodes, _dual_bound(res, objective))


def _dual_bound(res, objective: int | None) -> int | None:
    bound = res.mip_dual_bound
    if bound is None or not math.isfinite(bound):
        return None
    # the float bound carries noise above an integer (404000.00000000314 on
    # the 4-pipeline ladder), which must not round up to the next integer;
    # a tolerance below 1 can only weaken the bound, never overstate it
    bound = math.ceil(bound - min(0.5, 1e-6 * max(1.0, abs(bound))))
    return bound if objective is None else min(bound, objective)
