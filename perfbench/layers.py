"""Layer map of the traced run: what is wrapped, and the per-layer metrics.

Every per-layer metric is given per traced pass (maxima and ratios are
not divided; the set-up metrics are per traced set-up).
"""

from __future__ import annotations

import statistics

from tracer import Tracer


def _on_build(tr: Tracer, inst) -> None:
    tr.maximum("ilp.vars", len(inst.variables))
    tr.maximum("ilp.rows", len(inst.rows))
    tr.maximum("ilp.nnz", sum(len(r.coeffs) for r in inst.rows))


def _on_solve(tr: Tracer, sol) -> None:
    tr.add("solver.nodes", sol.nodes)
    tr.add("synthesis.timeouts", sol.status == "timeout")


def _on_lp(tr: Tracer, res) -> None:
    tr.add("solver.lp_infeasible", res.status == 2)


def _on_sim(tr: Tracer, trace) -> None:
    tr.add("sim.rounds", trace.beacons_sent)
    tr.add("sim.events", len(trace.events))
    for k in ("beacons_missed", "transmissions", "collisions", "resyncs"):
        tr.add(f"sim.{k}", getattr(trace, k))


# (dotted path, span name, on_result, count_only)
TARGETS = (
    ("roundsched.synthesis.build_instance", "ilp.build", _on_build, False),
    ("roundsched.synthesis.solve", "solver.solve", _on_solve, False),
    ("roundsched.synthesis.extract_schedule", "ilp.extract", None, False),
    ("roundsched.synthesis.check", "synthesis.audit", None, False),
    ("roundsched.solver.linprog", "solver.lp", _on_lp, False),
    ("roundsched.solver.milp", "solver.milp", None, False),
    ("roundsched.solver.check_assignment", "ilp.check_assignment", None, False),
    ("scipy.optimize._linprog_highs._highs_wrapper", "solver.highs", None, False),
    ("roundsched.checker.check_order", "checker.check_order", None, True),
    ("roundsched.cli.synthesize", "cli.synthesize", None, False),
    ("roundsched.cli.check", "checker.check", None, False),
    ("roundsched.cli.simulate", "sim.simulate", _on_sim, False),
    ("roundsched.cli.load_json", "specio.load_json", None, False),
    ("roundsched.cli.parse_spec", "specio.parse_spec", None, False),
    ("roundsched.cli.parse_schedule", "specio.parse_schedule", None, False),
    ("roundsched.cli.parse_scenario", "specio.parse_scenario", None, False),
    ("roundsched.cli.dumps", "specio.dumps", None, False),
    ("roundsched.cli.trace_to_obj", "specio.trace_to_obj", None, False),
)

_LOADS = ("specio.load_json", "specio.parse_spec", "specio.parse_schedule",
          "specio.parse_scenario")
_DUMPS = ("specio.dumps", "specio.trace_to_obj")
_CHECKS = ("synthesis.audit", "checker.check")
# on_result hooks that fail on a reshaped result are reported as "<span> result"
_BUILD_RESULT = ("ilp.build", "ilp.build result")
_SOLVE_RESULT = ("solver.solve", "solver.solve result")
_SIM_RESULT = ("sim.simulate", "sim.simulate result")

# name, unit, better, spans it is made from; README.md maps each metric to
# the end-to-end metric and workload it should move
METRICS = (
    ("ilp.build_calls", "count", "lower", ("ilp.build",)),
    ("ilp.build_s", "s", "lower", ("ilp.build",)),
    ("ilp.extract_s", "s", "lower", ("ilp.extract",)),
    ("ilp.check_assignment_calls", "count", "lower", ("ilp.check_assignment",)),
    ("ilp.check_assignment_s", "s", "lower", ("ilp.check_assignment",)),
    ("ilp.vars_max", "count", "lower", _BUILD_RESULT),
    ("ilp.rows_max", "count", "lower", _BUILD_RESULT),
    ("ilp.nnz_max", "count", "lower", _BUILD_RESULT),
    ("solver.calls", "count", "lower", ("solver.solve",)),
    ("solver.s", "s", "lower", ("solver.solve",)),
    ("solver.nodes", "count", "lower", _SOLVE_RESULT),
    ("solver.nodes_per_s", "1/s", "higher", _SOLVE_RESULT),
    ("solver.lp_calls", "count", "lower", ("solver.lp",)),
    ("solver.lp_s", "s", "lower", ("solver.lp",)),
    ("solver.highs_call_s", "s", "lower", ("solver.highs",)),
    ("solver.lp_wrapper_s", "s", "lower", ("solver.lp", "solver.highs")),
    ("solver.milp_calls", "count", "lower", ("solver.milp",)),
    ("solver.milp_s", "s", "lower", ("solver.milp",)),
    ("solver.search_s", "s", "lower", ("solver.solve", "solver.lp", "ilp.check_assignment")),
    ("solver.lp_per_node", "1", "lower", ("solver.lp",) + _SOLVE_RESULT),
    ("solver.lp_infeasible_frac", "1", "lower", ("solver.lp", "solver.lp result")),
    ("synthesis.timeouts", "count", "lower", _SOLVE_RESULT),
    ("synthesis.audit_s", "s", "lower", ("synthesis.audit",)),
    ("checker.calls", "count", "lower", _CHECKS),
    ("checker.s", "s", "lower", _CHECKS),
    ("checker.check_order_calls", "count", "lower", ("checker.check_order",)),
    ("specio.load_s", "s", "lower", _LOADS),
    ("specio.setup_load_s", "s", "lower", ()),
    ("specio.dump_s", "s", "lower", _DUMPS),
    ("specio.trace_bytes", "bytes", "lower", ()),
    ("sim.s", "s", "lower", ("sim.simulate",)),
    ("sim.rounds", "count", "higher", _SIM_RESULT),
    ("sim.events", "count", "lower", _SIM_RESULT),
    ("sim.events_per_round", "1", "lower", _SIM_RESULT),
    ("sim.beacons_missed", "count", "lower", _SIM_RESULT),
    ("sim.transmissions", "count", "higher", _SIM_RESULT),
    ("sim.collisions", "count", "lower", _SIM_RESULT),
    ("sim.resyncs", "count", "lower", _SIM_RESULT),
    ("cli.s", "s", "lower", ()),
    ("cli.overhead_s", "s", "lower", ()),
    ("model.validate_s", "s", "lower", ()),
    ("trace.overhead_s", "s", "lower", ()),
    ("trace.overhead_frac", "1", "lower", ()),
    ("trace.spans", "count", "lower", ()),
)


def make_tracer() -> Tracer:
    return Tracer(TARGETS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, n_passes: int, walls, plain_walls) -> dict:
    """{metric: (value, unit)} for every entry of METRICS."""
    lay = tracer.layers()

    def calls(*names):
        return sum(lay.get(n, {}).get("calls", 0) for n in names) / n_passes

    def total(*names):
        return sum(lay.get(n, {}).get("total_s", 0.0) for n in names) / n_passes

    def count(key):
        return tracer.counts.get(key, 0.0) / n_passes

    def per_setup(name):
        n_setups = lay.get("setup.run", {}).get("calls", 0)
        return _ratio(lay.get(name, {}).get("total_s", 0.0), n_setups)

    solver_s = total("solver.solve")
    lp_s = total("solver.lp")
    nodes = count("solver.nodes")
    overhead = statistics.median(walls) - statistics.median(plain_walls)
    values = {
        "ilp.build_calls": calls("ilp.build"),
        "ilp.build_s": total("ilp.build"),
        "ilp.extract_s": total("ilp.extract"),
        "ilp.check_assignment_calls": calls("ilp.check_assignment"),
        "ilp.check_assignment_s": total("ilp.check_assignment"),
        "ilp.vars_max": tracer.maxima.get("ilp.vars", 0),
        "ilp.rows_max": tracer.maxima.get("ilp.rows", 0),
        "ilp.nnz_max": tracer.maxima.get("ilp.nnz", 0),
        "solver.calls": calls("solver.solve"),
        "solver.s": solver_s,
        "solver.nodes": nodes,
        "solver.nodes_per_s": _ratio(nodes, solver_s),
        "solver.lp_calls": calls("solver.lp"),
        "solver.lp_s": lp_s,
        "solver.highs_call_s": total("solver.highs"),
        "solver.lp_wrapper_s": lp_s - total("solver.highs"),
        "solver.milp_calls": calls("solver.milp"),
        "solver.milp_s": total("solver.milp"),
        "solver.search_s": solver_s - lp_s - total("solver.milp", "ilp.check_assignment"),
        "solver.lp_per_node": _ratio(calls("solver.lp"), nodes),
        "solver.lp_infeasible_frac": _ratio(count("solver.lp_infeasible"), calls("solver.lp")),
        "synthesis.timeouts": count("synthesis.timeouts"),
        "synthesis.audit_s": total("synthesis.audit"),
        "checker.calls": calls(*_CHECKS),
        "checker.s": total(*_CHECKS),
        "checker.check_order_calls": count("checker.check_order"),
        "specio.load_s": total(*_LOADS),
        "specio.setup_load_s": per_setup("setup.load"),
        "specio.dump_s": total(*_DUMPS),
        "specio.trace_bytes": count("specio.trace_bytes"),
        "sim.s": total("sim.simulate"),
        "sim.rounds": count("sim.rounds"),
        "sim.events": count("sim.events"),
        "sim.events_per_round": _ratio(count("sim.events"), count("sim.rounds")),
        "sim.beacons_missed": count("sim.beacons_missed"),
        "sim.transmissions": count("sim.transmissions"),
        "sim.collisions": count("sim.collisions"),
        "sim.resyncs": count("sim.resyncs"),
        "cli.s": total("cli.main"),
        "cli.overhead_s": lay.get("cli.main", {}).get("self_s", 0.0) / n_passes,
        "model.validate_s": per_setup("setup.validate"),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": _ratio(overhead, statistics.median(plain_walls)),
        "trace.spans": sum(not s.name.startswith("setup.") for s in tracer.spans) / n_passes,
    }
    out = {}
    for name, unit, _better, needs in METRICS:
        # a metric built from an absent layer reads 0; report() names it
        gone = any(n in tracer.absent for n in needs)
        out[name] = (0.0 if gone else float(values[name]), unit)
    return out


def report(tracer: Tracer, n_passes: int) -> list[str]:
    """Human-readable lines: self time per layer and absent layers."""
    lines = ["self time per traced pass or set-up (setup.*) (s), by span, with calls:"]
    lay = tracer.layers()
    n_setups = lay.get("setup.run", {}).get("calls", 1)
    for name, row in sorted(lay.items(), key=lambda kv: -kv[1]["self_s"]):
        div = n_setups if name.startswith("setup.") else n_passes
        lines.append(
            f"  {name:24s} self {row['self_s'] / div:10.4f}  "
            f"total {row['total_s'] / div:10.4f}  calls {row['calls'] / div:10.1f}"
        )
    for name, target in sorted(tracer.absent.items()):
        missing = [m for m, _u, _b, needs in METRICS if name in needs]
        lines.append(f"absent: {name} ({target}); reads 0: {', '.join(missing) or '-'}")
    return lines
