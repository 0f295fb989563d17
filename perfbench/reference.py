"""Independent reference answers for the synthesis workloads.

Each integer program that synthesize() would solve is handed to scipy's
milp (the HiGHS MILP engine) instead of the package's own branch and
bound, so the two share only the program itself.  The gap tolerance is
zero: objectives are integers and must match exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array


def reference_solve(inst) -> tuple[str, int | None]:
    """("optimal", objective) or ("infeasible", None) for an ILPInstance."""
    n = len(inst.variables)
    c = np.zeros(n)
    for i, cf in inst.objective.items():
        c[i] = cf
    data, rows, cols = [], [], []
    lo = np.empty(len(inst.rows))
    hi = np.empty(len(inst.rows))
    for r, row in enumerate(inst.rows):
        for i, cf in row.coeffs.items():
            rows.append(r)
            cols.append(i)
            data.append(cf)
        hi[r] = row.rhs
        lo[r] = row.rhs if row.sense == "==" else -np.inf
    constraints = ()
    if inst.rows:
        a = csr_array((data, (rows, cols)), shape=(len(inst.rows), n))
        constraints = LinearConstraint(a, lo, hi)
    res = milp(
        c,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds([v.lb for v in inst.variables], [v.ub for v in inst.variables]),
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:
        return "infeasible", None
    if res.status != 0:
        raise RuntimeError(f"reference milp status {res.status}: {res.message}")
    x = [int(round(v)) for v in res.x]
    return "optimal", sum(cf * x[i] for i, cf in inst.objective.items())
