"""Structure of the generated integer programs.

Key rows are checked coefficient by coefficient against hand-derived
values for the reference control workload, so an encoding regression
shows up as a readable diff rather than a solver mystery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lptools import milp_solve, parse_lp
from support import af_oracle, control_mode, df_oracle, mk_app, small_params, wide_params

from roundsched.checker import _overlap_cyclic
from roundsched.ilp import ILPInstance, build_instance, check_assignment, extract_schedule
from roundsched.lpformat import render_lp
from roundsched.model import Application, Mode, ModelError, Task
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
        assert (byname["n0_m1"].lb, byname["n0_m1"].ub) == (0, 5)
        assert (byname["sp_m1"].lb, byname["sp_m1"].ub) == (0, 1)
        assert (byname["r0_m3"].lb, byname["r0_m3"].ub) == (0, 1)
        # 5 o, 3 each of mo, md, sp and r0, 4 sc, 1 d, 2 rt, 2 x 3 n: the
        # service rows count releases and deadlines with no variable of
        # their own
        assert len(inst.variables) == 30

    def test_no_processor_pairs_on_distinct_nodes(self, inst):
        assert not [v for v in inst.variables if v.name.startswith("q_")]

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
        # 100 ms * (slots through round 1 - r0) <= 100 ms + g*rt1 - g*mo_m2
        hi = row_by_name(inst, "serve_hi_1_m2")
        assert named_coeffs(inst, hi) == {
            "rt1": -1000,
            "mo_m2": 1000,
            "r0_m2": -100_000,
            "n0_m2": 100_000,
            "n1_m2": 100_000,
        }
        assert hi.sense == "<=" and hi.rhs == 100_000

    def test_deadline_window_rows(self, inst):
        # round 0 has no earlier round to have served a passed deadline
        lo = row_by_name(inst, "serve_lo_0_m3")
        assert named_coeffs(inst, lo) == {
            "rt0": 1000,
            "mo_m3": -1000,
            "md_m3": -1000,
            "r0_m3": 100_000,
        }
        assert lo.sense == "<=" and lo.rhs == -42_644

    def test_cumulative_service_rows(self, inst):
        hi = row_by_name(inst, "serve_hi_1_m1")
        assert {k: v for k, v in named_coeffs(inst, hi).items() if k[0] == "n"} == {
            "n0_m1": 100_000,
            "n1_m1": 100_000,
        }
        lo = row_by_name(inst, "serve_lo_1_m1")
        assert named_coeffs(inst, lo) == {
            "rt1": 1000,
            "mo_m1": -1000,
            "md_m1": -1000,
            "r0_m1": 100_000,
            "n0_m1": -100_000,
        }
        assert lo.rhs == -42_644
        families = {r.name.split("_")[0] for r in inst.rows}
        assert families == {
            "prod", "cons", "lat", "order", "serve", "cap", "total"
        }

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
    def test_pair_rows_step_by_the_period_gcd(self):
        app = mk_app(
            "a",
            20,
            [("t1", "shared", 3), ("t2", "shared", 4)],
            [("t1", "t2", "m")],
        )
        inst = build_instance(Mode(id="m", applications=(app,)), 1, small_params(), 1000)
        q = inst.variables[inst.keys["q", "t1", "t2"]]
        assert (q.name, q.lb, q.ub) == ("q_t1__t2", -1, 0)
        row = row_by_name(inst, "apart_t1__t2_a")
        assert named_coeffs(inst, row) == {
            "o_t1": 1000, "o_t2": -1000, "q_t1__t2": 20_000
        }
        assert row.rhs == -3000
        row_b = row_by_name(inst, "apart_t1__t2_b")
        assert named_coeffs(inst, row_b) == {
            "o_t2": 1000, "o_t1": -1000, "q_t1__t2": -20_000
        }
        assert row_b.rhs == 20_000 - 4000

    def test_unequal_periods_get_one_integer(self):
        a1 = mk_app("a1", 20, [("t1", "shared", 1)], [])
        a2 = mk_app("a2", 40, [("t2", "shared", 1)], [])
        inst = build_instance(
            Mode(id="m", applications=(a1, a2)), 0, small_params(), 1000
        )
        qs = [v for v in inst.variables if v.name.startswith("q_")]
        # gcd(20, 40) ms = 20 ms: q in [-20/20, 40/20 - 1]
        assert [(v.name, v.lb, v.ub) for v in qs] == [("q_t1__t2", -1, 1)]
        apart = [r for r in inst.rows if r.name.startswith("apart_")]
        assert [(r.name, r.coeffs[inst.keys["q", "t1", "t2"]]) for r in apart] == [
            ("apart_t1__t2_a", 20_000),
            ("apart_t1__t2_b", -20_000),
        ]


class TestApartRowsAreExact:
    """For every WCET pair and offset pair of two tasks on one node, some
    q inside its bounds satisfies both apart rows exactly when the audit's
    gcd rule (checker._overlap_cyclic) finds no overlap."""

    PERIODS = (4, 6, 8, 12)

    @pytest.mark.parametrize("p_i", PERIODS)
    @pytest.mark.parametrize("p_j", PERIODS)
    def test_rows_agree_with_the_audit(self, p_i, p_j):
        params = small_params()
        cases = 0
        for e_i in range(1, p_i + 1):
            for e_j in range(1, p_j + 1):
                apps = tuple(
                    Application(f"a{n}", p, p, (Task(f"t{n}", "shared", e),), ())
                    for n, p, e in ((1, p_i, e_i), (2, p_j, e_j))
                )
                inst = build_instance(Mode("m", apps), 0, params, grid_us=1)
                oi, oj = inst.keys["o", "t1"], inst.keys["o", "t2"]
                q = inst.keys["q", "t1", "t2"]
                q_range = range(inst.variables[q].lb, inst.variables[q].ub + 1)
                values = [v.ub for v in inst.variables]  # d_<app> at its deadline
                for o_i in range(p_i - e_i + 1):
                    for o_j in range(p_j - e_j + 1):
                        values[oi], values[oj] = o_i, o_j
                        apart = False
                        for x in q_range:
                            values[q] = x
                            bad = check_assignment(inst, values)
                            assert all(b.startswith("apart_") for b in bad), bad
                            apart = apart or not bad
                        assert apart == (
                            not _overlap_cyclic(o_i, e_i, p_i, o_j, e_j, p_j)
                        ), (o_i, e_i, o_j, e_j)
                        cases += 1
        assert cases == (p_i * (p_i + 1) // 2) * (p_j * (p_j + 1) // 2)


class TestServiceRowsAreExact:
    """At any in-bound integer point, serve_hi_<j> holds exactly when the
    slots through round j, less r0, number at most the releases at or
    before round j's start, and serve_lo_<j> exactly when the deadlines
    passed before round j's end, plus r0, number at most the slots before
    round j, both counted one instance at a time."""

    @settings(max_examples=500, deadline=None)
    @given(
        data=st.data(),
        periods=st.sampled_from([(40, 40), (40, 80), (80, 40), (40, 120), (50, 100)]),
        grid_us=st.sampled_from([1, 1000, 5000]),
        slots=st.integers(1, 3),
        n_rounds=st.integers(1, 3),
    )
    def test_rows_agree_with_counted_instances(self, data, periods, grid_us, slots, n_rounds):
        mode = Mode("m", tuple(
            mk_app(f"a{i}", p, [(f"s{i}", f"x{i}", 1), (f"r{i}", f"y{i}", 1)],
                   [(f"s{i}", f"r{i}", f"m{i}")])
            for i, p in enumerate(periods)
        ))
        params = small_params(slots=slots)
        t_r = round_length(params)
        inst = build_instance(mode, n_rounds, params, grid_us=grid_us)
        values = [data.draw(st.integers(v.lb, v.ub), label=v.name) for v in inst.variables]
        val = {k: values[i] for k, i in inst.keys.items()}
        g = grid_us
        for j in range(n_rounds):
            # a uniform start seldom lands where a count steps; aim some
            # rounds within a tick of one of a message's rows' edges
            aim = data.draw(st.sampled_from([None, *(
                (i, row) for i in range(len(periods)) for row in ("hi", "lo"))]))
            if aim is None:
                continue
            i, row = aim
            mid, p = f"m{i}", periods[i] * 1000
            served = sum(val["n", k, mid] for k in range(j + (row == "hi"))) - val["r0", mid]
            edge = (g * val["mo", mid] + p * (served - 1) if row == "hi" else
                    g * val["mo", mid] + g * val["md", mid] + p * served - t_r)
            rt = inst.variables[inst.keys["rt", j]]
            tick = edge // g + data.draw(st.integers(-1, 1))
            values[inst.keys["rt", j]] = val["rt", j] = min(max(tick, rt.lb), rt.ub)
        broken = {b.split(":")[0] for b in check_assignment(inst, values)}
        for i, p_ms in enumerate(periods):
            mid, p = f"m{i}", p_ms * 1000
            mo, md, r0 = g * val["mo", mid], g * val["md", mid], val["r0", mid]
            for j in range(n_rounds):
                start = g * val["rt", j]
                slots_before = sum(val["n", k, mid] for k in range(j))
                released = af_oracle(mo, p, start)
                passed = df_oracle(mo, md, p, start + t_r)
                assert (f"serve_hi_{j}_{mid}" not in broken) == (
                    slots_before + val["n", j, mid] - r0 <= released
                )
                assert (f"serve_lo_{j}_{mid}" not in broken) == (
                    passed + r0 <= slots_before
                )


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
        # a row per application that lists the edge would make 15
        assert len(inst.rows) == 13
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


class TestGuards:
    def test_message_with_two_producers_is_refused(self):
        app = mk_app(
            "a", 100, [("t1", "n1", 1), ("t2", "n1", 30), ("u", "n2", 1)],
            [("t1", "u", "m"), ("t2", "u", "m")],
        )
        with pytest.raises(ModelError, match=r"message 'm': produced by \['t1', 't2'\]"):
            build_instance(Mode("op", (app,)), 1, small_params(), grid_us=1000)

    def test_grid_must_divide_periods(self):
        with pytest.raises(ValueError, match="grid"):
            build_instance(control_mode(), 1, wide_params(hops=2), grid_us=7)

    @pytest.mark.parametrize("grid_us", [0, -1000])
    def test_grid_must_be_positive(self, grid_us):
        with pytest.raises(ValueError, match=f"^grid_us must be at least 1 us, got {grid_us}$"):
            build_instance(control_mode(), 1, wide_params(hops=2), grid_us=grid_us)

    def test_round_must_fit_the_horizon(self):
        # a 42.6 ms round and a 40 ms horizon
        with pytest.raises(ValueError, match="^round does not fit inside the horizon$"):
            build_instance(control_mode(), 1, wide_params(hops=2), grid_us=1000,
                           t_max_us=40_000)

    def test_unservable_window_has_an_empty_md_domain(self):
        # a 20 ms period cannot contain a 42.6 ms round: md's domain is
        # [ceil(42.6 ms / 1 ms), 20 ms / 1 ms], empty, and no row marks it
        app = mk_app("a", 20, [("t1", "n1", 1), ("t2", "n2", 1)], [("t1", "t2", "m")])
        inst = build_instance(Mode(id="m", applications=(app,)), 0,
                              wide_params(hops=2), 1000)
        md = inst.variables[inst.keys["md", "m"]]
        assert (md.lb, md.ub) == (43, 20)
        assert not any(r.name.startswith("nofit") for r in inst.rows)
        assert solve(inst).status == "infeasible"
        assert milp_solve(parse_lp(render_lp(inst)))[0] == "infeasible"


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

    def test_check_assignment_reports_bounds_and_equalities(self):
        inst = ILPInstance(name="tiny")
        inst.add_var("x", 0, 2)
        inst.add_var("y", -1, 2)
        inst.add_row("sum", {0: 1, 1: 1}, "==", 3)
        assert check_assignment(inst, [1, 2]) == []
        assert check_assignment(inst, [3, -2]) == [
            "x=3 outside [0, 2]", "y=-2 outside [-1, 2]", "sum: 1 != 3"]

    def test_check_assignment_reports_broken_rows(self):
        mode = control_mode()
        inst = build_instance(mode, 2, wide_params(hops=2), grid_us=1000)
        sol = solve(inst)
        bad = list(sol.values)
        bad[inst.keys["rt", 0]] = bad[inst.keys["rt", 1]]  # collapse the two rounds
        complaints = check_assignment(inst, bad)
        assert any("order_r0" in c for c in complaints)
