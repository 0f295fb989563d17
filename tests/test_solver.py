"""MILP solver checked against exhaustive enumeration.

The oracle tries every integer point of the variable box with its own
row arithmetic, so agreement on forty seeded programs is meaningful
evidence rather than the solver grading its own homework.
"""

import math
import time
from types import SimpleNamespace

import pytest
from lptools import milp_solve, parse_lp
from support import (
    control_mode,
    enumerate_milp,
    ladder_mode,
    random_ilp,
    random_small_case,
    wide_params,
)

from roundsched.ilp import ILPInstance, build_instance, check_assignment
from roundsched.lpformat import render_lp
from roundsched import solver
from roundsched.solver import HIGHS_OPTIONS, solve
from roundsched.synthesis import SynthConfig, max_rounds, min_rounds, program


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

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_no_finite_dual_bound_states_none(self, bound):
        assert solver._dual_bound(bound, 7) is None

    def test_a_refutation_counts_its_nodes(self):
        # HiGHS branches to refute three rounds of two pipelines
        inst = program(ladder_mode(2), 3, wide_params(hops=2), SynthConfig(grid_us=5000))
        sol = solve(inst)
        assert sol.status == "infeasible"
        assert sol.nodes > 0


class TestOptions:
    """An option HiGHS does not accept stops the solve, naming it."""

    @pytest.mark.parametrize(
        "key, value",
        [("mip_pool_soft_limt", 100), ("mip_pool_soft_limit", "100")],
        ids=["misspelled key", "wrong-typed value"],
    )
    def test_refused_option_raises(self, monkeypatch, key, value):
        monkeypatch.setitem(HIGHS_OPTIONS, key, value)
        with pytest.raises(ValueError, match=f"^HiGHS has no option '{key}' taking {value!r}$"):
            solve(knapsackish())

    def test_value_out_of_range_raises(self, monkeypatch):
        monkeypatch.setitem(HIGHS_OPTIONS, "mip_rel_gap", -1.0)
        with pytest.raises(ValueError, match="^HiGHS refused the options .*'mip_rel_gap': -1.0"):
            solve(knapsackish())


class Ran:
    """A canned stand-in for the Highs object after its run."""

    def __init__(self, status, x=None):
        self.status, self.x = status, x

    def getModelStatus(self):
        return self.status

    def modelStatusToString(self, status):
        return solver.highs._Highs().modelStatusToString(status)

    def getInfo(self):
        return SimpleNamespace(
            mip_node_count=0, mip_dual_bound=math.inf,
            objective_function_value=math.inf if self.x is None else 0.0,
        )

    def getSolution(self):
        return SimpleNamespace(col_value=self.x)


class TestDistrustedAnswers:
    """solve() raises on a HiGHS answer it cannot vouch for; the run of
    HiGHS is replaced by one that returns a canned result."""

    @staticmethod
    def answer(monkeypatch, status, x=None):
        monkeypatch.setattr(solver, "_run_highs", lambda *args: Ran(status, x))

    def test_unknown_status(self, monkeypatch):
        self.answer(monkeypatch, solver.highs.HighsModelStatus.kSolveError)
        with pytest.raises(RuntimeError, match="^HiGHS ended with Solve error$"):
            solve(knapsackish())

    def test_model_error_is_not_infeasible(self, monkeypatch):
        self.answer(monkeypatch, solver.highs.HighsModelStatus.kModelError)
        with pytest.raises(RuntimeError, match="^HiGHS ended with Model error$"):
            solve(knapsackish())

    @pytest.mark.parametrize("deadline", [None, 3600.0], ids=["no deadline", "an hour left"])
    def test_time_limit_before_the_deadline(self, monkeypatch, deadline):
        self.answer(monkeypatch, solver.highs.HighsModelStatus.kTimeLimit)
        if deadline is not None:
            deadline += time.monotonic()
        with pytest.raises(RuntimeError,
                           match="^HiGHS stopped before its deadline: Time limit reached$"):
            solve(knapsackish(), deadline=deadline)

    def test_point_that_breaks_a_row(self, monkeypatch):
        # 5 * 2 + 4 * 2 = 18 units on a capacity of 11
        self.answer(monkeypatch, solver.highs.HighsModelStatus.kOptimal, x=[2.0, 2.0])
        with pytest.raises(RuntimeError,
                           match=r"^HiGHS point fails exact verification: \['cap: 18 > 11'\]$"):
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


SMALL_GRID = SynthConfig(grid_us=1000)


def _bound_fits(seed: int) -> bool:
    mode, params = random_small_case(seed)
    return min_rounds(mode, params) <= max_rounds(mode, params, SMALL_GRID)


# the seeded small cases whose lower bound on rounds fits the hyperperiod;
# 12 and 35 are infeasible there, the other 33 optimal
SMALL_SEEDS = [seed for seed in range(40) if _bound_fits(seed)]


class TestIndependentPath:
    """solve() and scipy's milp, a second way into HiGHS that builds its
    own matrix from the program's LP text and passes it column-wise, run
    with the solver's options, agree on the status and objective of the
    programs synthesize() solves (about 5 s on a 2-core VM, most of it
    the ladder)."""

    @staticmethod
    def agree(inst: ILPInstance) -> str:
        sol = solve(inst)
        want = milp_solve(parse_lp(render_lp(inst)), HIGHS_OPTIONS)[:2]
        assert (sol.status, sol.objective) == want
        return sol.status

    @pytest.mark.parametrize("seed", SMALL_SEEDS)
    def test_seeded_case_at_its_lower_bound(self, seed):
        mode, params = random_small_case(seed)
        inst = program(mode, min_rounds(mode, params), params, SMALL_GRID)
        assert self.agree(inst) == ("infeasible" if seed in (12, 35) else "optimal")

    @pytest.mark.parametrize("k, n_rounds, want", [
        (2, 3, "infeasible"), (2, 4, "optimal"), (3, 3, "infeasible"), (3, 4, "optimal"),
    ])
    def test_ladder(self, k, n_rounds, want):
        inst = program(ladder_mode(k), n_rounds, wide_params(hops=2), SynthConfig(grid_us=5000))
        assert self.agree(inst) == want
