"""LP text parsing and an independent mixed-integer solve, test side only.

lp_text() has HiGHS write a program through solver.write_lp, the fill
solve() runs, and parse_lp() reads HiGHS's LP dialect back from the text
alone.  Comparing the parse row by row with the ILPInstance checks that
fill: every objective term, row coefficient, sense, right-hand side,
bound and integrality mark HiGHS is handed.  milp_solve() rebuilds the
matrices from the parse for scipy's milp, a second way into HiGHS; both
ends run HiGHS, so that checks the fill, not the engine, which is checked
against exhaustive enumeration (test_solver, acceptance 5).
"""

from __future__ import annotations

import os
import re
import tempfile
import warnings
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from roundsched.solver import write_lp

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(
    r"(?P<label>[^\s:]+):"
    r"|(?P<op><=|>=|=)"
    rf"|(?P<num>{_NUM})"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<bad>\S+)"
)
# x <= 99, 43 <= x <= 100 or x = 0; HiGHS omits a lower bound of 0
_BOUND = re.compile(
    rf"^(?:(?P<lb>{_NUM}) <= )?(?P<var>[A-Za-z_][A-Za-z0-9_]*)"
    rf" (?:<= (?P<ub>{_NUM})|= (?P<fix>{_NUM}))$"
)
_SECTIONS = {"min", "st", "bounds", "bin", "gen", "semi", "end"}


def lp_text(inst) -> str:
    """The LP text solver.write_lp writes for inst."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "program.lp")
        write_lp(inst, path)
        with open(path, encoding="ascii") as fh:
            return fh.read()


def _int(tok: str) -> int:
    x = Fraction(tok)
    if x.denominator != 1:
        raise ValueError(f"not an integer: {tok!r}")
    return int(x)


def _statements(text: str) -> list[tuple[str | None, dict[str, int], str | None, int | None]]:
    """(label, terms, sense, right-hand side) of each labelled statement;
    HiGHS wraps long ones over several lines."""
    out: list = []
    coef: int | None = None
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m[0]
        if kind == "label":
            out.append([m["label"], {}, None, None])
        elif kind == "bad" or not out or out[-1][3] is not None:
            raise ValueError(f"unexpected {tok!r}")
        elif kind == "op":
            out[-1][2] = tok
        elif kind == "num" and out[-1][2] is not None:
            out[-1][3] = _int(tok)
        elif kind == "num":
            coef = _int(tok)
        else:
            terms = out[-1][1]
            terms[tok] = terms.get(tok, 0) + (1 if coef is None else coef)
            coef = None
    return [tuple(s) for s in out]


def parse_lp(text: str) -> dict:
    """objective {var: coefficient}; rows [(name, {var: coefficient},
    sense, rhs)] in file order; bounds {var: (lb, ub)} of every variable
    the bounds, bin or gen sections name; integers, the bin and gen
    variables in file order."""
    body: dict[str, list[str]] = {}
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if line.lower() in _SECTIONS:
            section = line.lower()
            body.setdefault(section, [])
        elif section is None or section == "end":
            raise ValueError(f"text outside any section: {line!r}")
        else:
            body[section].append(line)
    if body.get("semi"):
        raise ValueError(f"semi-continuous variables: {body['semi']}")
    (obj,) = _statements(" ".join(body.get("min", [])))
    if obj[2] is not None:
        raise ValueError(f"objective with a sense: {obj}")
    rows = _statements(" ".join(body.get("st", [])))
    if any(op is None or rhs is None for _, _, op, rhs in rows):
        raise ValueError(f"row without a right-hand side: {rows}")
    bounds: dict[str, tuple[int, int]] = {}
    for line in body.get("bounds", []):
        m = _BOUND.match(line)
        if m is None or (m["lb"] and m["fix"]):
            raise ValueError(f"bad bound: {line!r}")
        if m["fix"]:
            bounds[m["var"]] = (_int(m["fix"]), _int(m["fix"]))
        else:
            bounds[m["var"]] = (_int(m["lb"] or "0"), _int(m["ub"]))
    binary = [n for line in body.get("bin", []) for n in line.split()]
    general = [n for line in body.get("gen", []) for n in line.split()]
    for name in binary:
        bounds[name] = (0, 1)
    for name in general:
        bounds.setdefault(name, (0, np.inf))
    return {
        "objective": obj[1],
        "rows": rows,
        "bounds": bounds,
        "integers": binary + general,
    }


def milp_solve(
    parsed: dict, options: dict | None = None
) -> tuple[str, int | None, dict[str, int] | None]:
    """Solve a parsed LP with scipy's milp; all variables are integer.

    options are HiGHS options by their HiGHS names; milp passes those it
    does not know on to HiGHS, with a warning silenced here."""
    names = parsed["integers"]
    idx = {n: i for i, n in enumerate(names)}
    n = len(names)
    lo = np.zeros(n)
    hi = np.zeros(n)
    for name in names:
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
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options detected", RuntimeWarning)
        res = milp(
            c,
            constraints=LinearConstraint(a, c_lo, c_hi),
            integrality=np.ones(n),
            bounds=Bounds(lo, hi),
            options=dict(options or {}),  # milp pops keys from the dict it is given
        )
    if res.status == 2:
        return "infeasible", None, None
    if res.status != 0:
        raise RuntimeError(f"milp status {res.status}: {res.message}")
    values = {name: int(round(res.x[idx[name]])) for name in names}
    obj = int(round(sum(cf * values[name] for name, cf in parsed["objective"].items())))
    return "optimal", obj, values
