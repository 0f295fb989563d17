"""Render an instance in the plain-text LP interchange format.

Output is deliberately byte-stable: variables and rows appear in
instance order, every coefficient is an integer, and every line is
written the same way on every run, so exported files diff cleanly.
Integer variables carry explicit bounds (the format's default domain is
[0, inf)); binaries are only listed in their own section.
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
        if not v.binary:
            lines.append(f" {v.lb} <= {v.name} <= {v.ub}")
    generals = [v.name for v in inst.variables if not v.binary]
    if generals:
        lines.append("Generals")
        for name in generals:
            lines.append(f" {name}")
    binaries = [v.name for v in inst.variables if v.binary]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp(inst: ILPInstance, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_lp(inst))
