"""Structure of the generated integer programs.

Key rows are checked coefficient by coefficient against hand-derived
values for the reference control workload, so an encoding regression
shows up as a readable diff rather than a solver mystery.
"""

import pytest
from support import control_mode, mk_app, small_params, wide_params

from roundsched.ilp import (
    DecodeError,
    _delta_values,
    build_instance,
    check_assignment,
    extract_schedule,
)
from roundsched.model import Mode
from roundsched.solver import solve
from roundsched.synthesis import SynthConfig, synthesize
from roundsched.timing import round_length


def row_by_name(inst, name):
    for row in inst.rows:
        if row.name == name:
            return row
    raise AssertionError(f"no row named {name}")


def named_coeffs(inst, row):
    return {inst.variables[i].name: cf for i, cf in row.coeffs.items()}


class TestDeltaValues:
    def test_equal_periods_single_offset(self):
        assert _delta_values(20, 20) == [0]

    def test_20_30(self):
        assert _delta_values(20_000, 30_000) == [-10_000, 0, 10_000, 20_000]

    def test_range_is_open_on_both_sides(self):
        vals = _delta_values(40, 60)
        assert -40 not in vals and 60 not in vals
        assert vals[0] == -20 and vals[-1] == 40


@pytest.fixture(scope="module")
def inst():
    return build_instance(control_mode(), 2, wide_params(hops=2), grid_us=1000)


class TestControlInstance:
    def test_meta(self, inst):
        assert inst.meta["round_len_us"] == 42_644
        assert inst.meta["hyperperiod_us"] == 100_000
        assert inst.meta["n_rounds"] == 2

    def test_variable_domains(self, inst):
        byname = {v.name: v for v in inst.variables}
        assert (byname["o_t1"].lb, byname["o_t1"].ub) == (0, 99)
        assert (byname["mo_m1"].lb, byname["mo_m1"].ub) == (0, 99)
        # window width must fit one whole round: ceil(42644 / 1000)
        assert (byname["md_m1"].lb, byname["md_m1"].ub) == (43, 100)
        assert (byname["rt0"].lb, byname["rt0"].ub) == (0, 57)
        assert (byname["ka0_m1"].lb, byname["ka0_m1"].ub) == (0, 2)
        assert (byname["kd0_m1"].lb, byname["kd0_m1"].ub) == (-1, 2)
        assert (byname["n0_m1"].lb, byname["n0_m1"].ub) == (0, 5)
        assert byname["sp_m1"].binary and byname["r0_m3"].binary

    def test_no_processor_pairs_on_distinct_nodes(self, inst):
        assert not [v for v in inst.variables if v.name.startswith("y_")]

    def test_producer_row(self, inst):
        row = row_by_name(inst, "prod_m1")
        assert named_coeffs(inst, row) == {
            "o_t1": 1000,
            "mo_m1": -1000,
            "sp_m1": -100_000,
        }
        assert row.sense == "<=" and row.rhs == -1000

    def test_consumer_row(self, inst):
        row = row_by_name(inst, "cons_m3__t5")
        assert named_coeffs(inst, row) == {
            "mo_m3": 1000,
            "md_m3": 1000,
            "o_t5": -1000,
            "sc_m3__t5": -100_000,
        }
        assert row.rhs == 0

    def test_one_latency_row_per_chain(self, inst):
        rows = [r for r in inst.rows if r.name.startswith("lat_ctrl_")]
        assert len(rows) == 4
        first = named_coeffs(inst, rows[0])
        assert first["d_ctrl"] == -1
        assert first["sp_m1"] == 100_000 and first["sc_m3__t5"] == 100_000

    def test_round_ordering_row(self, inst):
        row = row_by_name(inst, "order_r0")
        assert named_coeffs(inst, row) == {"rt0": 1000, "rt1": -1000}
        assert row.rhs == -42_644

    def test_arrival_window_rows(self, inst):
        a = row_by_name(inst, "arr_1_m2_a")
        assert named_coeffs(inst, a) == {
            "rt1": -1000,
            "mo_m2": 1000,
            "ka1_m2": 100_000,
        }
        assert a.rhs == 100_000
        b = row_by_name(inst, "arr_1_m2_b")
        assert named_coeffs(inst, b) == {
            "rt1": 1000,
            "mo_m2": -1000,
            "ka1_m2": -100_000,
        }
        assert b.rhs == -1

    def test_deadline_window_rows(self, inst):
        a = row_by_name(inst, "due_0_m3_a")
        assert named_coeffs(inst, a) == {
            "rt0": -1000,
            "mo_m3": 1000,
            "md_m3": 1000,
            "kd0_m3": 100_000,
        }
        assert a.rhs == 42_644 + 100_000 - 1
        b = row_by_name(inst, "due_0_m3_b")
        assert b.rhs == -42_644

    def test_cumulative_service_rows(self, inst):
        hi = row_by_name(inst, "serve_hi_1_m1")
        assert named_coeffs(inst, hi) == {
            "ka1_m1": -1,
            "r0_m1": -1,
            "n0_m1": 1,
            "n1_m1": 1,
        }
        lo = row_by_name(inst, "serve_lo_1_m1")
        assert named_coeffs(inst, lo) == {"kd1_m1": 1, "r0_m1": 1, "n0_m1": -1}

    def test_capacity_and_conservation(self, inst):
        cap = row_by_name(inst, "cap_0")
        assert named_coeffs(inst, cap) == {"n0_m1": 1, "n0_m2": 1, "n0_m3": 1}
        assert cap.rhs == 5
        total = row_by_name(inst, "total_m3")
        assert total.sense == "==" and total.rhs == 1
        assert named_coeffs(inst, total) == {"n0_m3": 1, "n1_m3": 1}

    def test_objective_is_the_latency_var(self, inst):
        assert {inst.variables[i].name: c for i, c in inst.objective.items()} == {
            "d_ctrl": 1
        }

    def test_build_is_deterministic(self, inst):
        again = build_instance(control_mode(), 2, wide_params(hops=2), grid_us=1000)
        assert [v.name for v in again.variables] == [v.name for v in inst.variables]
        assert again.rows == inst.rows
        assert again.objective == inst.objective


class TestSharedNodeRows:
    def test_pair_rows_tightened_by_period_sum(self):
        app = mk_app(
            "a",
            20,
            [("t1", "shared", 3), ("t2", "shared", 4)],
            [("t1", "t2", "m")],
        )
        inst = build_instance(Mode(id="m", applications=(app,)), 1, small_params(), 1000)
        row = row_by_name(inst, "apart_t1__t2__0_a")
        coeffs = named_coeffs(inst, row)
        assert coeffs["y_t1__t2__0"] == 40_000
        assert row.rhs == 40_000 - 3000
        row_b = row_by_name(inst, "apart_t1__t2__0_b")
        assert named_coeffs(inst, row_b)["y_t1__t2__0"] == -40_000
        assert row_b.rhs == -4000

    def test_unequal_periods_get_one_binary_per_offset(self):
        a1 = mk_app("a1", 20, [("t1", "shared", 1)], [])
        a2 = mk_app("a2", 40, [("t2", "shared", 1)], [])
        inst = build_instance(
            Mode(id="m", applications=(a1, a2)), 0, small_params(), 1000
        )
        ys = [v.name for v in inst.variables if v.name.startswith("y_")]
        # differences multiple of gcd(20, 40) ms in the open range (-20, 40): 0, 20
        assert len(ys) == len(_delta_values(20_000, 40_000)) == 2


class TestSharedMessageEdge:
    """Two applications both list s -m-> x: the handoff rows of m are
    written once, as its variables are."""

    @staticmethod
    def mode():
        s, x = ("s", "n1", 1), ("x", "n2", 1)
        one = mk_app("one", 40, [s, x], [("s", "x", "m")])
        two = mk_app(
            "two", 40, [s, x, ("y", "n3", 1)], [("s", "x", "m"), ("x", "y", "k")]
        )
        return Mode("shared", (one, two))

    def test_each_handoff_row_is_written_once(self):
        inst = build_instance(self.mode(), 1, small_params(), grid_us=1000)
        # a row per application that lists the edge would make 23
        assert len(inst.rows) == 21
        rows = {(tuple(sorted(r.coeffs.items())), r.sense, r.rhs) for r in inst.rows}
        assert len(rows) == len(inst.rows)
        assert [r.name for r in inst.rows if r.name.endswith("_2")] == []
        assert [r.name for r in inst.rows if r.name.startswith(("prod_", "cons_"))] == [
            "prod_m", "cons_m__x", "prod_k", "cons_k__y"
        ]

    def test_schedule_is_unchanged(self):
        # the duplicate rows never changed the feasible set
        out = synthesize(self.mode(), small_params(), SynthConfig(grid_us=1000))
        assert out.status == "feasible"
        assert out.rounds_used == 2
        assert out.objective_us == 53_000


class TestMultiProducerMessage:
    """t1 (1 ms) and t2 (30 ms) on one node both produce m for u: each
    producer gets its own row, so m waits for the slower one."""

    def test_one_producer_row_per_producer(self):
        app = mk_app(
            "a", 100, [("t1", "n1", 1), ("t2", "n1", 30), ("u", "n2", 1)],
            [("t1", "u", "m"), ("t2", "u", "m")],
        )
        inst = build_instance(Mode("op", (app,)), 1, small_params(), grid_us=1000)
        prod = [r for r in inst.rows if r.name.startswith("prod_m")]
        assert [(r.name, named_coeffs(inst, r), r.rhs) for r in prod] == [
            ("prod_m", {"o_t1": 1000, "mo_m": -1000, "sp_m": -100_000}, -1000),
            ("prod_m_2", {"o_t2": 1000, "mo_m": -1000, "sp_m": -100_000}, -30_000),
        ]


class TestGuards:
    def test_grid_must_divide_periods(self):
        with pytest.raises(ValueError, match="grid"):
            build_instance(control_mode(), 1, wide_params(hops=2), grid_us=7)

    def test_unservable_window_yields_marker_row(self):
        # a 20 ms period cannot contain a 42.6 ms round
        app = mk_app("a", 20, [("t1", "n1", 1), ("t2", "n2", 1)], [("t1", "t2", "m")])
        inst = build_instance(Mode(id="m", applications=(app,)), 0,
                              wide_params(hops=2), 1000)
        row = row_by_name(inst, "nofit_m")
        assert row.coeffs == {} and row.rhs == -1
        assert solve(inst).status == "infeasible"


class TestAssignmentRoundTrip:
    def test_solved_control_instance_verifies_and_decodes(self):
        mode = control_mode()
        params = wide_params(hops=2)
        inst = build_instance(mode, 2, params, grid_us=1000)
        sol = solve(inst)
        assert sol.status == "optimal"
        assert check_assignment(inst, sol.values) == []
        sched = extract_schedule(inst, sol.values, mode)
        assert sched.round_len_us == round_length(params)
        assert len(sched.rounds) == 2
        assert sched.rounds[0].t < sched.rounds[1].t

    def test_check_assignment_reports_broken_rows(self):
        mode = control_mode()
        inst = build_instance(mode, 2, wide_params(hops=2), grid_us=1000)
        sol = solve(inst)
        bad = list(sol.values)
        bad[inst.keys["rt", 0]] = bad[inst.keys["rt", 1]]  # collapse the two rounds
        complaints = check_assignment(inst, bad)
        assert any("order_r0" in c for c in complaints)

    def test_decode_rejects_oversubscribed_round(self):
        mode = control_mode()
        params = wide_params(hops=2)
        inst = build_instance(mode, 2, params, grid_us=1000)
        sol = solve(inst)
        bad = list(sol.values)
        bad[inst.keys["n", 0, "m1"]] = 4
        bad[inst.keys["n", 0, "m2"]] = 2
        with pytest.raises(DecodeError, match="oversubscribed"):
            extract_schedule(inst, bad, mode)
