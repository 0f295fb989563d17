"""MILP solver checked against exhaustive enumeration.

The oracle tries every integer point of the variable box with its own
row arithmetic, so agreement on forty seeded programs is meaningful
evidence rather than the solver grading its own homework.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from support import control_mode, enumerate_milp, ladder_mode, random_ilp, wide_params

from roundsched.ilp import ILPInstance, build_instance, check_assignment
from roundsched import solver
from roundsched.solver import solve


def knapsackish() -> ILPInstance:
    """Small program whose relaxation is fractional, forcing real branching."""
    inst = ILPInstance(name="knap")
    inst.add_var("x", 0, 2)
    inst.add_var("y", 0, 2)
    inst.add_row("cap", {0: 5, 1: 4}, "<=", 11)
    inst.objective = {0: -3, 1: -2}
    return inst


class TestBasics:
    def test_integral_relaxation_is_optimal(self):
        inst = ILPInstance(name="free")
        inst.add_var("x", 0, 3)
        inst.objective = {0: 1}
        sol = solve(inst)
        assert (sol.status, sol.objective) == ("optimal", 0)
        assert sol.values == [0]

    def test_branching_beats_the_rounded_relaxation(self):
        sol = solve(knapsackish())
        assert sol.status == "optimal"
        assert sol.objective == -6
        assert sol.values == [2, 0]  # x, y

    def test_contradictory_row_is_infeasible(self):
        inst = ILPInstance(name="dead")
        inst.add_var("x", 0, 1)
        inst.add_row("never", {}, "<=", -1)
        sol = solve(inst)
        assert sol.status == "infeasible"
        assert sol.values is None and sol.objective is None
        assert sol.dual_bound is None

    def test_zero_budget_times_out(self):
        # a deadline already passed: HiGHS would ignore the negative time
        # limit and prove this program optimal in seconds
        inst = build_instance(ladder_mode(4), 4, wide_params(hops=2), grid_us=5000)
        start = time.monotonic()
        sol = solve(inst, deadline=start - 1.0)
        assert time.monotonic() - start < 0.5
        assert sol.status == "timeout"
        assert sol.values is None


class TestDistrustedAnswers:
    """solve() raises on a HiGHS answer it cannot vouch for; scipy's milp
    is replaced by one that returns a canned result."""

    @staticmethod
    def answer(monkeypatch, status, x=None, message="canned"):
        res = SimpleNamespace(status=status, x=x, message=message,
                              mip_node_count=0, mip_dual_bound=None)
        monkeypatch.setattr(solver, "milp", lambda *args, **kwargs: res)

    def test_unknown_status(self, monkeypatch):
        self.answer(monkeypatch, 4, message="numerical difficulties")
        with pytest.raises(RuntimeError,
                           match="^milp failed with status 4: numerical difficulties$"):
            solve(knapsackish())

    @pytest.mark.parametrize("deadline", [None, 3600.0], ids=["no deadline", "an hour left"])
    def test_time_limit_before_the_deadline(self, monkeypatch, deadline):
        self.answer(monkeypatch, 1, message="Time limit reached")
        if deadline is not None:
            deadline += time.monotonic()
        with pytest.raises(RuntimeError, match="^milp stopped before its deadline"):
            solve(knapsackish(), deadline=deadline)

    def test_point_that_breaks_a_row(self, monkeypatch):
        # 5 * 2 + 4 * 2 = 18 units on a capacity of 11
        self.answer(monkeypatch, 0, x=np.array([2.0, 2.0]))
        with pytest.raises(RuntimeError,
                           match=r"^milp point fails exact verification: \['cap: 18 > 11'\]$"):
            solve(knapsackish())


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive_enumeration(self, seed):
        inst = random_ilp(seed)
        want_status, want_obj = enumerate_milp(inst)
        sol = solve(inst)
        assert sol.status == want_status
        if want_status == "optimal":
            assert sol.objective == sol.dual_bound == want_obj
            assert check_assignment(inst, sol.values) == []
            got = sum(cf * sol.values[i] for i, cf in inst.objective.items())
            assert got == want_obj


class TestWorkerParity:
    """Repeated solves of one program give identical answers.

    The names date from a thread-count knob that no longer exists; they
    are kept so the test ids stay stable."""

    @pytest.mark.parametrize("seed", [0, 3, 11, 17, 29])
    def test_thread_count_never_changes_the_answer(self, seed):
        inst = random_ilp(seed)
        assert solve(inst) == solve(inst)

    def test_parity_on_a_real_scheduling_instance(self):
        inst = build_instance(control_mode(), 2, wide_params(hops=2), grid_us=1000)
        first = solve(inst)
        second = solve(inst)
        assert first.status == second.status == "optimal"
        assert first.values == second.values
        assert first.nodes == second.nodes
