"""Schedule checker: a hand-verified schedule plus one mutation per verdict.

The base fixture is a two-task pipeline over a single round.  Every
mutation below was worked out on paper first; each asserts exactly which
verdict families break and that the others stay green.
"""

from __future__ import annotations

import dataclasses

import pytest

from roundsched.checker import VERDICT_FAMILIES, check
from roundsched.model import Mode, ModeSchedule, Round
from roundsched.timing import round_length
from support import mk_app, small_params

P = small_params()  # 1 hop, 2 slots, 8-byte payloads
T_R = round_length(P)
MS = 1000


def pipeline_mode(period_ms=100, wcet_ms=1, nodes=("n1", "n2")):
    app = mk_app(
        "pipe",
        period_ms,
        [("t1", nodes[0], wcet_ms), ("t2", nodes[1], wcet_ms)],
        [("t1", "t2", "m")],
    )
    return Mode("op", (app,))


def base_schedule() -> ModeSchedule:
    # t1 runs [0, 1000); the round sits in [1000, 16094]; t2 starts at the
    # window's close.
    return ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=T_R,
        task_offsets={"t1": 0, "t2": 16_100},
        message_offsets={"m": 1000},
        message_deadlines={"m": 15_100},
        rounds=(Round(1000, ("m",)),),
        leftover={"m": 0},
    )


def test_round_len_constant():
    assert T_R == 15_094


def test_base_schedule_is_clean():
    rep = check(pipeline_mode(), base_schedule(), P)
    assert rep.ok, str(rep)
    assert rep.by_family() == {f: "pass" for f in VERDICT_FAMILIES}


def mutate(**kw) -> ModeSchedule:
    return dataclasses.replace(base_schedule(), **kw)


class TestMutations:
    def run(self, sched, mode=None):
        return check(mode or pipeline_mode(), sched, P)

    def test_round_before_release(self):
        rep = self.run(mutate(rounds=(Round(999, ("m",)),)))
        assert rep.failed() == {"service_after_release"}

    def test_round_past_deadline(self):
        # ends at 16101, one past the 16100 absolute deadline
        rep = self.run(mutate(rounds=(Round(1007, ("m",)),)))
        assert "service_before_deadline" in rep.failed()
        assert "curve_order" in rep.failed()
        assert "service_after_release" not in rep.failed()

    def test_round_end_exactly_at_deadline_ok(self):
        rep = self.run(mutate(rounds=(Round(1006, ("m",)),)))
        assert rep.ok, str(rep)

    def test_missing_allocation(self):
        rep = self.run(mutate(rounds=(Round(1000, ()),)))
        assert "conservation" in rep.failed()

    def test_extra_allocation(self):
        rep = self.run(mutate(rounds=(Round(1000, ("m", "m")),)))
        # the duplicate slot also over-serves the cumulative curves
        assert rep.failed() == {"conservation", "curve_order"}
        assert "slot_capacity" not in rep.failed()

    def test_slot_capacity_exceeded(self):
        rep = self.run(mutate(rounds=(Round(1000, ("m", "m", "m")),)))
        assert "slot_capacity" in rep.failed()

    def test_overlapping_rounds(self):
        rep = self.run(
            mutate(rounds=(Round(1000, ("m",)), Round(1000 + T_R - 1, ())))
        )
        assert "round_overlap" in rep.failed()

    def test_back_to_back_rounds_ok(self):
        rep = self.run(mutate(rounds=(Round(1000, ("m",)), Round(1000 + T_R, ()))))
        assert "round_overlap" not in rep.failed()

    def test_rounds_listed_out_of_time_order(self):
        # the same two rounds as a clean schedule, listed late one first
        rep = self.run(mutate(rounds=(Round(51_000, ()), Round(1000, ("m",)))))
        assert rep.failed() == {"round_overlap"}
        assert [str(v) for v in rep.violations] == [
            "round_overlap at rounds 0,1: "
            "listed out of time order: start 1000 after start 51000"
        ]
        assert self.run(mutate(rounds=(Round(1000, ("m",)), Round(51_000, ())))).ok

    def test_round_outside_hyperperiod(self):
        rep = self.run(
            mutate(rounds=(Round(1000, ("m",)), Round(100_000 - T_R + 1, ())))
        )
        assert "round_gap" in rep.failed()

    def test_e2e_deadline_blown(self):
        # consumer placed before the message deadline forces a period slip
        sched = mutate(task_offsets={"t1": 0, "t2": 15_000})
        rep = self.run(sched)
        assert "e2e_deadline" in rep.failed()
        assert "precedence" not in rep.failed()

    def test_consumer_two_periods_late(self):
        sched = mutate(
            message_offsets={"m": 99_000},
            message_deadlines={"m": 15_100},
            task_offsets={"t1": 0, "t2": 0},
            rounds=(Round(99_000, ("m",)),),
        )
        rep = self.run(sched)
        assert "precedence" in rep.failed()

    def test_node_exclusive(self):
        mode = pipeline_mode(nodes=("n1", "n1"))
        sched = mutate(task_offsets={"t1": 0, "t2": 500})
        rep = self.run(sched, mode)
        assert "node_exclusive" in rep.failed()

    def test_same_node_back_to_back_ok(self):
        mode = pipeline_mode(nodes=("n1", "n1"))
        sched = mutate(task_offsets={"t1": 15_100, "t2": 16_100},
                       message_offsets={"m": 16_100},
                       message_deadlines={"m": 15_100},
                       rounds=(Round(16_100, ("m",)),),
                       )
        # t1 ends exactly where t2 begins on the same node
        rep = self.run(sched, mode)
        assert "node_exclusive" not in rep.failed()

    def test_false_leftover(self):
        rep = self.run(mutate(leftover={"m": 1}))
        assert "leftover" in rep.failed()

    def test_offset_out_of_range(self):
        rep = self.run(mutate(task_offsets={"t1": 99_500, "t2": 16_100}))
        assert "domains" in rep.failed()

    def test_missing_key_skips_dependents(self):
        rep = self.run(mutate(task_offsets={"t1": 0}))
        fam = rep.by_family()
        assert fam["domains"] == "fail"
        assert fam["e2e_deadline"] == "skipped"
        assert fam["curve_order"] == "skipped"

    def test_wrong_round_length(self):
        rep = self.run(mutate(round_len_us=T_R + 1))
        assert "domains" in rep.failed()

    def test_unknown_message_in_round(self):
        rep = self.run(mutate(rounds=(Round(1000, ("m", "ghost")),)))
        assert "domains" in rep.failed()


def test_wrapped_window_served_late():
    # producer late in the period, consumer early in the next one: the
    # wrapping instance must ride the first round and carry one unit.
    mode = pipeline_mode()
    sched = ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=T_R,
        task_offsets={"t1": 90_000, "t2": 17_000},
        message_offsets={"m": 91_000},
        message_deadlines={"m": 26_000},
        rounds=(Round(0, ("m",)),),
        leftover={"m": 1},
    )
    rep = check(mode, sched, P)
    assert rep.ok, str(rep)


def test_wrapped_window_carried_flag_required():
    mode = pipeline_mode()
    sched = ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=T_R,
        task_offsets={"t1": 90_000, "t2": 17_000},
        message_offsets={"m": 91_000},
        message_deadlines={"m": 26_000},
        rounds=(Round(0, ("m",)),),
        leftover={"m": 0},
    )
    rep = check(mode, sched, P)
    # without the carried unit the round at 0 precedes the instance release
    assert "service_after_release" in rep.failed()


def test_two_instances_per_hyperperiod():
    app = mk_app("a", 50, [("t1", "n1", 1), ("t2", "n2", 1)], [("t1", "t2", "m")])
    mode = Mode("op", (app,))
    good = ModeSchedule(
        mode_id="op",
        hyperperiod_us=50_000,
        round_len_us=T_R,
        task_offsets={"t1": 0, "t2": 16_100},
        message_offsets={"m": 1000},
        message_deadlines={"m": 15_100},
        rounds=(Round(1000, ("m",)),),
        leftover={"m": 0},
    )
    rep = check(mode, good, P)
    assert rep.ok, str(rep)

    # hyperperiod covering two application periods needs two allocations
    mode2 = Mode(
        "op",
        (
            app,
            mk_app("b", 100, [("t3", "n3", 1), ("t4", "n4", 1)], [("t3", "t4", "x")]),
        ),
    )
    sched2 = ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=T_R,
        task_offsets={"t1": 0, "t2": 16_100, "t3": 0, "t4": 16_100},
        message_offsets={"m": 1000, "x": 1000},
        message_deadlines={"m": 15_100, "x": 15_100},
        rounds=(Round(1000, ("m", "x")), Round(51_000, ("m",))),
        leftover={"m": 0, "x": 0},
    )
    rep2 = check(mode2, sched2, P)
    assert rep2.ok, str(rep2)


def test_shared_message_slips_for_its_latest_producer_in_either_order():
    # m is produced by t1 (done at 51 ms, after m's 10 ms release: one
    # period of slip) in application a and by t2 (done at 1 ms: none) in
    # b; the one release of m must wait for both, so both chains slip
    a = mk_app("a", 100, [("t1", "n1", 1), ("u1", "n2", 1)], [("t1", "u1", "m")])
    b = mk_app("b", 100, [("t2", "n1", 1), ("u2", "n3", 1)], [("t2", "u2", "m")])
    sched = ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=T_R,
        task_offsets={"t1": 50_000, "t2": 0, "u1": 60_000, "u2": 60_000},
        message_offsets={"m": 10_000},
        message_deadlines={"m": 30_000},
        rounds=(Round(10_000, ("m",)),),
        leftover={"m": 0},
    )
    ab = check(Mode("op", (a, b)), sched, P)
    ba = check(Mode("op", (b, a)), sched, P)
    assert ab.failed() == ba.failed() == {"e2e_deadline"}
    assert sorted(map(str, ab.violations)) == sorted(map(str, ba.violations)) == [
        "e2e_deadline at chain t1>u1: latency 111000 us exceeds deadline 100000 us",
        "e2e_deadline at chain t2>u2: latency 161000 us exceeds deadline 100000 us",
    ]


def test_message_waits_for_every_producer_in_one_application():
    # t2 runs 30 ms on n1 and also produces m, so m, released at 1 ms,
    # slips a period past t2's end: chain t2>u cannot take 16 ms
    app = mk_app(
        "a", 100, [("t1", "n1", 1), ("t2", "n1", 30), ("u", "n2", 1)],
        [("t1", "u", "m"), ("t2", "u", "m")],
    )
    sched = ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=T_R,
        task_offsets={"t1": 0, "t2": 1000, "u": 16_094},
        message_offsets={"m": 1000},
        message_deadlines={"m": 15_094},
        rounds=(Round(1000, ("m",)),),
        leftover={"m": 0},
    )
    rep = check(Mode("op", (app,)), sched, P)
    assert rep.failed() == {"e2e_deadline"}
    assert [str(v) for v in rep.violations] == [
        "e2e_deadline at chain t1>u: latency 117094 us exceeds deadline 100000 us",
        "e2e_deadline at chain t2>u: latency 116094 us exceeds deadline 100000 us",
    ]
