"""End-to-end schedule synthesis on hand-sized workloads.

Every expected round count was worked out by hand first and is also
confirmed by the exhaustive search oracle, so these are regression pins
on behaviour, not on whatever the code happened to produce.
"""

import time

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

from roundsched.checker import check
from roundsched.model import Mode
from roundsched.synthesis import SynthConfig, max_rounds, synthesize

GRID = SynthConfig(grid_us=1000)


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
    def test_message_waits_for_its_slowest_producer(self):
        # t1 (1 ms) and t2 (30 ms) on n1 both produce m for u
        app = mk_app(
            "a", 100, [("t1", "n1", 1), ("t2", "n1", 30), ("u", "n2", 1)],
            [("t1", "u", "m"), ("t2", "u", "m")],
        )
        mode = Mode(id="op", applications=(app,))
        out = synthesize(mode, small_params(), GRID)
        assert out.status == "feasible"
        assert out.objective_us >= 31_000  # t2 alone runs 30 ms, u 1 ms
        s = out.schedule
        t_r = s.round_len_us
        for tid, wcet in (("t1", 1000), ("t2", 30_000)):
            # modulo the period, u starts a producer run and a round
            # after the producer starts
            assert (s.task_offsets["u"] - s.task_offsets[tid]) % 100_000 >= wcet + t_r
        assert check(mode, s, small_params()).ok

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
        assert out.solver_calls == 3
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
        assert out.solver_calls == 2  # round counts 0 and 1 both rejected

    def test_horizon_cap_limits_the_search(self):
        cfg = SynthConfig(grid_us=1000, t_max_us=50_000)
        out = synthesize(control_mode(), wide_params(hops=2), cfg)
        assert out.status == "infeasible"
        assert out.solver_calls == 2


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
        ],
    )
    def test_meaningless_budget_is_rejected(self, cfg, match):
        with pytest.raises(ValueError, match=match):
            synthesize(control_mode(), wide_params(hops=2), cfg)

    def test_broken_mode_is_rejected_before_solving(self):
        app = mk_app("a", 20, [("t1", "n1", 1)], [("t1", "t9", "m")])
        with pytest.raises(ValueError, match="unknown_edge_task"):
            synthesize(Mode(id="bad", applications=(app,)), small_params(), GRID)


    def test_shared_message_sent_from_two_nodes_is_rejected(self):
        # each application alone is well formed; together one message
        # would need two senders
        a = mk_app("a", 40, [("t1", "n1", 1), ("u1", "n3", 1)], [("t1", "u1", "m")])
        b = mk_app("b", 40, [("t2", "n2", 1), ("u2", "n4", 1)], [("t2", "u2", "m")])
        with pytest.raises(ValueError, match="multi_node_producers"):
            synthesize(Mode(id="shared", applications=(a, b)), small_params(), GRID)


class TestBudget:
    """The budget is one deadline for the whole search over round counts,
    and running out of it still yields the audited incumbent."""

    BUDGET_MS = 3000
    # time allowed past the deadline for HiGHS to notice it and for the
    # audit of the incumbent; refuting counts 0..3 alone takes about 0.5 s,
    # so a budget restarted per round count would overrun it
    SLACK_S = 0.25

    @pytest.fixture(scope="class")
    def run(self):
        mode, params = ladder_mode(4), wide_params(hops=2)
        cfg = SynthConfig(grid_us=5000, solver_budget_ms=self.BUDGET_MS)
        t0 = time.monotonic()
        out = synthesize(mode, params, cfg)
        return mode, params, out, time.monotonic() - t0

    def test_one_deadline_covers_every_round_count(self, run):
        _mode, _params, out, wall = run
        assert out.status == "timeout"
        assert out.solver_calls >= 2
        budget_s = self.BUDGET_MS / 1000
        assert budget_s <= wall <= budget_s + self.SLACK_S

    def test_timeout_returns_the_audited_incumbent(self, run):
        mode, params, out, _wall = run
        assert out.solver_calls == 5  # counts 0..3 refuted, 4 ran out
        assert out.rounds_used == 4
        assert check(mode, out.schedule, params).ok
        assert out.objective_us >= 444_000  # the proven optimum


class TestLadderOptima:
    """Proven optima of the shared-controller ladder: a change in HiGHS's
    options or search path must leave them where they are."""

    @pytest.mark.parametrize(
        "k, rounds, objective_us",
        [(1, 2, 101_000), (2, 4, 212_000), (3, 4, 333_000)],
    )
    def test_proven_optimum(self, k, rounds, objective_us):
        mode, params = ladder_mode(k), wide_params(hops=2)
        out = synthesize(mode, params, SynthConfig(grid_us=5000))
        assert out.status == "feasible"
        assert out.rounds_used == rounds
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
            assert out.status == "feasible"
            assert out.rounds_used == want_r
            assert check(mode, out.schedule, params).ok
