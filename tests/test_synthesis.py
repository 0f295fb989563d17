"""End-to-end schedule synthesis on hand-sized workloads.

Every expected round count was worked out by hand first and is also
confirmed by the exhaustive search oracle, so these are regression pins
on behaviour, not on whatever the code happened to produce.
"""

import time
from pathlib import Path

import pytest
from oracle import brute_force_min_rounds
from support import (
    control_mode,
    ladder_mode,
    mk_app,
    random_small_case,
    small_params,
    wide_params,
)

from roundsched import synthesis
from roundsched.checker import CheckReport, check
from roundsched.ilp import build_instance
from roundsched.model import Mode
from roundsched.solver import solve
from roundsched.specio import load_json, parse_spec
from roundsched.synthesis import (
    MAX_HYPERPERIOD_US,
    SynthConfig,
    max_rounds,
    min_rounds,
    program,
    synthesize,
)

GRID = SynthConfig(grid_us=1000)
LADDER_GRID = SynthConfig(grid_us=5000)
SPEC = Path(__file__).resolve().parent.parent / "specs" / "control_loop.json"


def pipeline_mode(period_ms=40):
    app = mk_app(
        "a",
        period_ms,
        [("t1", "n1", 1), ("t2", "n2", 1)],
        [("t1", "t2", "m")],
    )
    return Mode(id="pipe", applications=(app,))


def fan_in_mode():
    app = mk_app(
        "a",
        40,
        [("t1", "n1", 1), ("t2", "n2", 1), ("t3", "n3", 1)],
        [("t1", "t3", "m1"), ("t2", "t3", "m2")],
    )
    return Mode(id="fan", applications=(app,))


def wrap_mode():
    pipe = mk_app("a", 100, [("t1", "n1", 1), ("t2", "n2", 1)], [("t1", "t2", "m")])
    blocker = mk_app("b", 100, [("t0", "n1", 85)], [])
    return Mode(id="wrap", applications=(pipe, blocker))


class TestKnownCases:
    def test_two_task_pipeline_fits_one_round(self):
        out = synthesize(pipeline_mode(), small_params(), GRID)
        assert out.status == "feasible"
        assert out.rounds_used == 1
        assert out.objective_us == 18_000
        assert out.schedule.rounds[0].alloc == ("m",)

    def test_control_loop_two_hops(self):
        mode = control_mode()
        params = wide_params(hops=2)
        out = synthesize(mode, params, GRID)
        assert out.status == "feasible"
        assert out.rounds_used == 2
        assert out.objective_us == 89_000
        assert out.min_rounds == 2  # chain t1 > m1 > t3 > m3 > t5
        assert out.solver_calls == 1
        # several optima tie at 89 ms; which one is returned is up to the
        # solver, so only the audit is asserted, not the slot allocation
        assert check(mode, out.schedule, params).ok

    def test_single_slot_fan_in_needs_two_rounds(self):
        out = synthesize(fan_in_mode(), small_params(slots=1), GRID)
        assert out.status == "feasible"
        assert out.rounds_used == 2
        allocs = sorted(r.alloc for r in out.schedule.rounds)
        assert allocs == [("m1",), ("m2",)]

    def test_blocked_producer_node(self):
        # an 85 ms solo task squeezes the pipeline on a shared node; the
        # optimum packs the pipeline ahead of it and sums both app latencies
        out = synthesize(wrap_mode(), small_params(), GRID)
        assert out.status == "feasible"
        assert out.rounds_used == 1
        assert out.objective_us == 103_000

    def test_control_loop_four_hops_is_infeasible(self):
        out = synthesize(control_mode(), wide_params(hops=4), GRID)
        assert out.status == "infeasible"
        assert out.schedule is None
        # two rounds are needed and only one fits: HiGHS never runs
        assert (out.min_rounds, out.solver_calls) == (2, 0)

    def test_horizon_cap_limits_the_search(self):
        cfg = SynthConfig(grid_us=1000, t_max_us=50_000)
        out = synthesize(control_mode(), wide_params(hops=2), cfg)
        assert out.status == "infeasible"
        assert (out.min_rounds, out.solver_calls) == (2, 0)


class TestLimitsAndGuards:
    def test_max_rounds_counts_whole_rounds_in_horizon(self):
        assert max_rounds(control_mode(), wide_params(hops=2), GRID) == 2
        assert max_rounds(control_mode(), wide_params(hops=4), GRID) == 1
        cfg = SynthConfig(grid_us=1000, t_max_us=50_000)
        assert max_rounds(control_mode(), wide_params(hops=2), cfg) == 1

    def test_zero_budget_reports_timeout(self):
        cfg = SynthConfig(grid_us=1000, solver_budget_ms=0)
        out = synthesize(control_mode(), wide_params(hops=2), cfg)
        assert out.status == "timeout"
        assert out.schedule is None
        assert out.solver_calls == 0  # HiGHS never ran

    @pytest.mark.parametrize(
        "cfg, match",
        [
            (SynthConfig(grid_us=1000, t_max_us=-5), "horizon cap"),
            (SynthConfig(grid_us=1000, t_max_us=0), "horizon cap"),
            (SynthConfig(grid_us=1000, solver_budget_ms=-5), "solver budget"),
            (SynthConfig(grid_us=0), "time grid must be at least 1 us, got 0 us"),
            (SynthConfig(grid_us=-1000), "time grid must be at least 1 us, got -1000 us"),
        ],
    )
    def test_meaningless_budget_is_rejected(self, cfg, match):
        with pytest.raises(ValueError, match=match):
            synthesize(control_mode(), wide_params(hops=2), cfg)

    def test_program_needs_a_round(self):
        with pytest.raises(ValueError, match="^n_rounds must be at least 1, got 0$"):
            program(control_mode(), 0, wide_params(hops=2), GRID)

    @pytest.mark.parametrize("period_ms, grid_us", [(10**6, 1), (10**8, 1000)])
    def test_hyperperiod_above_the_limit_is_refused(self, period_ms, grid_us):
        # without the limit, HiGHS refutes the 2 rounds of the first, which
        # have a schedule, and more counts until the budget runs out; its
        # point for the second fails exact verification
        cfg = SynthConfig(grid_us=grid_us, solver_budget_ms=2000)
        with pytest.raises(
            ValueError,
            match=rf"^mode normal: hyperperiod {period_ms * 1000} us \(grid {grid_us} us\)"
            rf" is above the synthesis limit of {MAX_HYPERPERIOD_US} us$",
        ):
            synthesize(control_mode(period_ms), wide_params(hops=2), cfg)

    def test_hyperperiod_at_the_limit_is_synthesized(self):
        mode = control_mode(MAX_HYPERPERIOD_US // 1000)
        out = synthesize(mode, wide_params(hops=2), GRID)
        assert (out.status, out.rounds_used, out.objective_us) == ("feasible", 2, 89_000)

    def test_broken_mode_is_rejected_before_solving(self):
        app = mk_app("a", 20, [("t1", "n1", 1)], [("t1", "t9", "m")])
        with pytest.raises(ValueError, match="unknown_edge_task"):
            synthesize(Mode(id="bad", applications=(app,)), small_params(), GRID)


    def test_shared_message_sent_from_two_nodes_is_rejected(self):
        # each application alone is well formed; together one message
        # would have two producers
        a = mk_app("a", 40, [("t1", "n1", 1), ("u1", "n3", 1)], [("t1", "u1", "m")])
        b = mk_app("b", 40, [("t2", "n2", 1), ("u2", "n4", 1)], [("t2", "u2", "m")])
        with pytest.raises(ValueError, match=r"^mode shared is not well formed: \['several_producers'\]$"):
            synthesize(Mode(id="shared", applications=(a, b)), small_params(), GRID)

    def test_schedule_failing_its_own_audit_is_not_returned(self, monkeypatch):
        def refusing_audit(mode, schedule, params):
            report = CheckReport()
            report.add("round_gap", "schedule", "refused for the test")
            return report

        monkeypatch.setattr(synthesis, "check", refusing_audit)
        with pytest.raises(RuntimeError,
                           match=r"^synthesized schedule failed its own audit: \['round_gap'\]$"):
            synthesize(pipeline_mode(), small_params(), GRID)


class TestBudget:
    """The budget is one deadline for the whole search over round counts,
    and running out of it still yields the audited incumbent.

    Five loops with 115 ms deadlines: HiGHS refutes the lower bound of
    four rounds in about 1.1 s, then finds the 545 ms optimum 0.5-1 s
    into the count of five, but needs about 8 s to prove it, more than
    the deadline leaves; its dual bound then stands at about 505 ms."""

    BUDGET_MS = 5000
    # time allowed past the deadline for HiGHS to notice it and for the
    # audit of the incumbent; refuting four rounds alone takes about 1.1 s,
    # so a budget restarted per round count would overrun it
    SLACK_S = 0.25

    @pytest.fixture(scope="class")
    def run(self):
        mode, params = ladder_mode(5, deadline_ms=115), wide_params(hops=2)
        cfg = SynthConfig(grid_us=5000, solver_budget_ms=self.BUDGET_MS)
        t0 = time.monotonic()
        out = synthesize(mode, params, cfg)
        return mode, params, out, time.monotonic() - t0

    def test_one_deadline_covers_every_round_count(self, run):
        _mode, _params, out, wall = run
        assert out.status == "timeout"
        assert (out.min_rounds, out.solver_calls) == (4, 2)
        budget_s = self.BUDGET_MS / 1000
        assert budget_s <= wall <= budget_s + self.SLACK_S

    def test_timeout_returns_the_audited_incumbent(self, run):
        mode, params, out, _wall = run
        assert out.solver_calls == 2  # count 4 refuted, 5 ran out
        assert out.rounds_used == 5
        assert check(mode, out.schedule, params).ok
        assert out.objective_us >= 545_000  # the proven optimum

    def test_timeout_states_its_dual_bound(self, run):
        _mode, _params, out, _wall = run
        assert out.dual_bound_us <= 545_000 <= out.objective_us

    def test_timeout_before_any_incumbent(self):
        # four rounds are infeasible and refuting them takes about 1.1 s, so
        # no point exists when 200 ms run out
        mode, params = ladder_mode(5, deadline_ms=115), wide_params(hops=2)
        out = synthesize(mode, params, SynthConfig(grid_us=5000, solver_budget_ms=200))
        assert out.status == "timeout"
        assert (out.schedule, out.rounds_used, out.objective_us) == (None, None, None)
        assert (out.min_rounds, out.solver_calls) == (4, 1)
        assert out.dual_bound_us is None


class TestLadderOptima:
    """Proven optima of the shared-controller ladder: a change in HiGHS's
    options or search path must leave them where they are."""

    @pytest.mark.parametrize(
        "k, rounds, objective_us",
        [(1, 2, 101_000), (2, 4, 212_000), (3, 4, 333_000), (4, 4, 444_000)],
    )
    def test_proven_optimum(self, k, rounds, objective_us):
        mode, params = ladder_mode(k), wide_params(hops=2)
        out = synthesize(mode, params, SynthConfig(grid_us=5000))
        assert out.status == "feasible"
        assert out.rounds_used == rounds
        assert (out.min_rounds, out.solver_calls) == (rounds, 1)
        assert out.objective_us == objective_us
        assert check(mode, out.schedule, params).ok


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_round_count_matches_exhaustive_search(self, seed):
        mode, params = random_small_case(seed)
        want_r, _witness = brute_force_min_rounds(mode, params, grid_us=1000)
        out = synthesize(mode, params, GRID)
        if want_r is None:
            assert out.status == "infeasible"
        else:
            assert min_rounds(mode, params) <= want_r
            assert out.status == "feasible"
            assert out.rounds_used == want_r
            assert check(mode, out.schedule, params).ok


class TestLowerBound:
    """min_rounds is where the search starts, so every count below it must
    be one HiGHS refutes (soundness), and on these workloads it is the
    count the search ends at (tightness)."""

    def test_every_count_below_the_bound_is_infeasible(self):
        spec = parse_spec(load_json(str(SPEC)))
        cases = [(m, spec.network, SynthConfig(grid_us=spec.grid_us)) for m in spec.modes]
        cases += [(ladder_mode(k), wide_params(hops=2), LADDER_GRID) for k in (1, 2, 3, 4)]
        cases += [(*random_small_case(seed), GRID) for seed in range(40)]
        skipped = 0
        for mode, params, cfg in cases:
            top = min(min_rounds(mode, params), max_rounds(mode, params, cfg) + 1)
            for r in range(top):
                inst = build_instance(mode, r, params, grid_us=cfg.grid_us)
                assert solve(inst).status == "infeasible", (mode.id, r)
                skipped += 1
        assert skipped == 72  # counts the search no longer builds or solves

    @pytest.mark.parametrize(
        "mode, grid_us, rounds",
        [(ladder_mode(k), 5000, 2 if k == 1 else 4) for k in (1, 2, 3, 4)]
        + [(control_mode(), 1000, 2)],
        ids=["ladder1", "ladder2", "ladder3", "ladder4", "control"],
    )
    def test_bound_is_the_least_feasible_count(self, mode, grid_us, rounds):
        # the bound is feasible, and the count below it is refuted by the
        # soundness test above; the objective is dropped because proving
        # ladder4's latency optimal takes seconds
        params = wide_params(hops=2)
        assert min_rounds(mode, params) == rounds
        inst = build_instance(mode, rounds, params, grid_us=grid_us)
        inst.objective.clear()
        assert solve(inst).status == "optimal"

    def test_no_messages_need_one_round(self):
        # its beacons are where a mode change would be announced
        mode = Mode("m", (mk_app("a", 20, [("t", "n", 1)], []),))
        assert min_rounds(mode, small_params()) == 1
        out = synthesize(mode, small_params(), GRID)
        assert (out.status, out.rounds_used, out.solver_calls) == ("feasible", 1, 1)
        assert out.schedule.rounds[0].alloc == ()
        assert check(mode, out.schedule, small_params()).ok

    def test_no_messages_and_no_room_for_a_round_is_infeasible(self):
        # a 10 ms hyperperiod holds no 15 094 us round
        mode = Mode("m", (mk_app("a", 10, [("t", "n", 1)], []),))
        assert max_rounds(mode, small_params(), GRID) == 0
        out = synthesize(mode, small_params(), GRID)
        assert (out.status, out.min_rounds, out.solver_calls) == ("infeasible", 1, 0)
