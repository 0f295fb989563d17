"""LP text parsing and an independent mixed-integer solve, test side only.

The parser reads the interchange format written by the package and
rebuilds matrices from the text alone, so a round trip through it plus
scipy's milp checks the written text against the package's solver.  Both
ends run HiGHS, so this checks the export, not the engine; the engine is
checked against exhaustive enumeration (test_solver, acceptance 5).
"""

from __future__ import annotations

import re

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[+-]")


def _parse_expr(text: str) -> dict[str, int]:
    coeffs: dict[str, int] = {}
    sign = 1
    coef: int | None = None
    for tok in _TOKEN.findall(text):
        if tok == "+":
            sign, coef = 1, None
        elif tok == "-":
            sign, coef = -1, None
        elif tok.isdigit():
            coef = int(tok)
        else:
            coeffs[tok] = coeffs.get(tok, 0) + sign * (1 if coef is None else coef)
            sign, coef = 1, None
    return coeffs


def parse_lp(text: str) -> dict:
    objective: dict[str, int] = {}
    rows: list[tuple[str, dict[str, int], str, int]] = []
    bounds: dict[str, tuple[int, int]] = {}
    generals: list[str] = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low == "minimize":
            section = "obj"
            continue
        if low == "subject to":
            section = "rows"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low in ("generals", "general"):
            section = "generals"
            continue
        if low == "end":
            section = None
            continue
        if section == "obj":
            _, expr = line.split(":", 1)
            objective = _parse_expr(expr)
        elif section == "rows":
            name, rest = line.split(":", 1)
            m = re.search(r"(<=|>=|=)\s*(-?\d+)\s*$", rest)
            if m is None:
                raise ValueError(f"bad row: {line!r}")
            rows.append(
                (name.strip(), _parse_expr(rest[: m.start()]), m.group(1),
                 int(m.group(2)))
            )
        elif section == "bounds":
            m = re.match(r"^(-?\d+)\s*<=\s*(\S+)\s*<=\s*(-?\d+)$", line)
            if m is None:
                raise ValueError(f"bad bound: {line!r}")
            bounds[m.group(2)] = (int(m.group(1)), int(m.group(3)))
        elif section == "generals":
            generals.append(line)
        else:
            raise ValueError(f"text outside any section: {line!r}")
    return {
        "objective": objective,
        "rows": rows,
        "bounds": bounds,
        "generals": generals,
    }


def milp_solve(parsed: dict) -> tuple[str, int | None, dict[str, int] | None]:
    """Solve a parsed LP with scipy's milp; all variables are integer."""
    names = parsed["generals"]
    idx = {n: i for i, n in enumerate(names)}
    n = len(names)
    lo = np.zeros(n)
    hi = np.zeros(n)
    for name in parsed["generals"]:
        lo[idx[name]], hi[idx[name]] = parsed["bounds"][name]
    c = np.zeros(n)
    for name, cf in parsed["objective"].items():
        c[idx[name]] = cf
    a = np.zeros((len(parsed["rows"]), n))
    c_lo = np.zeros(len(parsed["rows"]))
    c_hi = np.zeros(len(parsed["rows"]))
    for r_i, (_, coeffs, op, rhs) in enumerate(parsed["rows"]):
        for name, cf in coeffs.items():
            a[r_i, idx[name]] = cf
        if op == "<=":
            c_lo[r_i], c_hi[r_i] = -np.inf, rhs
        elif op == ">=":
            c_lo[r_i], c_hi[r_i] = rhs, np.inf
        else:
            c_lo[r_i], c_hi[r_i] = rhs, rhs
    res = milp(
        c,
        constraints=LinearConstraint(a, c_lo, c_hi),
        integrality=np.ones(n),
        bounds=Bounds(lo, hi),
    )
    if res.status == 2:
        return "infeasible", None, None
    if res.status != 0:
        raise RuntimeError(f"milp status {res.status}: {res.message}")
    values = {name: int(round(res.x[idx[name]])) for name in names}
    obj = int(round(sum(cf * values[name] for name, cf in parsed["objective"].items())))
    return "optimal", obj, values
