"""Render an instance in the plain-text LP interchange format.

Output is deliberately byte-stable: variables and rows appear in
instance order, every coefficient is an integer, and every line is
written the same way on every run, so exported files diff cleanly.
Every variable gets one Bounds line (the format's default domain is
[0, inf)) and is listed under Generals: the file states exactly the
bounds and integrality that solver.solve hands HiGHS.
"""

from __future__ import annotations

from .ilp import ILPInstance, Row


def _terms(inst: ILPInstance, coeffs: dict[int, int]) -> str:
    if not coeffs:
        # a row without terms (cap_j of a mode without messages) gets a
        # zero coefficient so the format stays well formed
        return f"0 {inst.variables[0].name}"
    parts: list[str] = []
    for i, cf in coeffs.items():
        name = inst.variables[i].name
        mag = abs(cf)
        body = name if mag == 1 else f"{mag} {name}"
        if not parts:
            parts.append(body if cf > 0 else f"- {body}")
        else:
            parts.append(f"{'+' if cf > 0 else '-'} {body}")
    return " ".join(parts)


def _row_line(inst: ILPInstance, row: Row) -> str:
    op = "=" if row.sense == "==" else "<="
    return f" {row.name}: {_terms(inst, row.coeffs)} {op} {row.rhs}"


def render_lp(inst: ILPInstance) -> str:
    lines = [f"\\ {inst.name}", "Minimize"]
    lines.append(f" obj: {_terms(inst, inst.objective)}")
    lines.append("Subject To")
    for row in inst.rows:
        lines.append(_row_line(inst, row))
    lines.append("Bounds")
    for v in inst.variables:
        lines.append(f" {v.lb} <= {v.name} <= {v.ub}")
    lines.append("Generals")
    for v in inst.variables:
        lines.append(f" {v.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp(inst: ILPInstance, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_lp(inst))
