"""Schedule checker: a hand-verified schedule plus one mutation per verdict.

The base fixture is a two-task pipeline over a single round.  Every
mutation below was worked out on paper first; each asserts exactly which
verdict families break and that the others stay green.
"""

from __future__ import annotations

import dataclasses

import pytest

from roundsched.checker import VERDICT_FAMILIES, check
from roundsched.model import Mode, ModeSchedule, ModelError, Round
from roundsched.specio import dumps, report_to_obj
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

    def test_schedule_without_rounds(self):
        # even a mode without messages needs beacons to announce a change
        mode = Mode("op", (mk_app("solo", 100, [("t", "n1", 1)], []),))
        sched = ModeSchedule("op", 100_000, T_R, {"t": 0}, {}, {}, (), {})
        rep = self.run(sched, mode)
        assert [str(v) for v in rep.violations] == [
            "round_gap at schedule: no rounds: no beacon would be sent"
        ]
        assert self.run(dataclasses.replace(sched, rounds=(Round(0, ()),)), mode).ok

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
        # a task's offset range comes from its application's period
        rep = self.run(mutate(task_offsets={"t1": 99_500, "t2": 16_100}))
        assert [str(v) for v in rep.violations] == [
            "domains at task t1: offset 99500 outside [0, 99000]"
        ]

    @pytest.mark.parametrize("change, text", [
        ({"message_offsets": {"m": 100_000}}, "offset 100000 outside [0, 100000)"),
        ({"message_deadlines": {"m": 100_001}}, "deadline 100001 outside (0, 100000]"),
    ])
    def test_message_window_out_of_range(self, change, text):
        # the first verdict names the domain; the later ones follow from it
        rep = self.run(mutate(**change))
        assert str(rep.violations[0]) == f"domains at message m: {text}"

    def test_carried_count_above_one(self):
        # the spec reader refuses it; a schedule built in Python reaches check()
        rep = self.run(mutate(leftover={"m": 2}))
        assert [str(v) for v in rep.violations] == [
            "leftover at message m: carried count 2 not 0 or 1"
        ]

    @pytest.mark.parametrize("change, text", [
        ({"mode_id": "other"}, "mode id 'other' != 'op'"),
        ({"hyperperiod_us": 200_000}, "hyperperiod 200000 != 100000"),
    ])
    def test_schedule_of_another_mode(self, change, text):
        rep = self.run(mutate(**change))
        assert [str(v) for v in rep.violations] == [f"domains at schedule: {text}"]

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


class TestReportText:
    """The text and JSON of a failing report, pinned whole."""

    def test_failing_audit(self):
        rep = check(pipeline_mode(), mutate(rounds=(Round(500, ("m",)),)), P)
        assert str(rep) == "\n".join([
            "domains: pass",
            "round_gap: pass",
            "round_overlap: pass",
            "slot_capacity: pass",
            "node_exclusive: pass",
            "precedence: pass",
            "e2e_deadline: pass",
            "conservation: pass",
            "leftover: pass",
            "service_after_release: fail",
            "service_before_deadline: pass",
            "curve_order: pass",
            "service_after_release at message m: instance 0 released 1000, "
            "round starts 500",
        ])
        assert dumps(report_to_obj(rep)) == """{
  "families": {
    "conservation": "pass",
    "curve_order": "pass",
    "domains": "pass",
    "e2e_deadline": "pass",
    "leftover": "pass",
    "node_exclusive": "pass",
    "precedence": "pass",
    "round_gap": "pass",
    "round_overlap": "pass",
    "service_after_release": "fail",
    "service_before_deadline": "pass",
    "slot_capacity": "pass"
  },
  "ok": false,
  "violations": [
    {
      "code": "service_after_release",
      "detail": "instance 0 released 1000, round starts 500",
      "where": "message m"
    }
  ]
}
"""

    def test_structural_domains_failure_skips_the_rest(self):
        rep = check(pipeline_mode(), mutate(task_offsets={"t1": 0}), P)
        assert not rep.ok
        assert str(rep) == "\n".join(
            ["domains: fail"]
            + [f"{fam}: skipped" for fam in VERDICT_FAMILIES[1:]]
            + ["domains at task_offsets: missing=['t2'] unexpected=[]"]
        )
        assert report_to_obj(rep) == {
            "ok": False,
            "families": {
                "domains": "fail",
                **{fam: "skipped" for fam in VERDICT_FAMILIES[1:]},
            },
            "violations": [
                {
                    "code": "domains",
                    "where": "task_offsets",
                    "detail": "missing=['t2'] unexpected=[]",
                }
            ],
        }


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


def test_message_with_two_producers_is_refused():
    # t1 in a and t2 in b both produce m: no release time serves both
    a = mk_app("a", 100, [("t1", "n1", 1), ("u1", "n2", 1)], [("t1", "u1", "m")])
    b = mk_app("b", 100, [("t2", "n1", 1), ("u2", "n3", 1)], [("t2", "u2", "m")])
    sched = ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=T_R,
        task_offsets={"t1": 0, "t2": 1000, "u1": 60_000, "u2": 60_000},
        message_offsets={"m": 10_000},
        message_deadlines={"m": 30_000},
        rounds=(Round(10_000, ("m",)),),
        leftover={"m": 0},
    )
    with pytest.raises(ModelError, match=r"message 'm': produced by \['t1', 't2'\]"):
        check(Mode("op", (a, b)), sched, P)


def test_shared_message_precedence_is_reported_once():
    # a and b share t1 -m->, with t1 moved out of its domain so that m's
    # release slips two periods past it: one violation, one line
    a = mk_app("a", 100, [("t1", "n1", 1), ("u1", "n2", 1)], [("t1", "u1", "m")])
    b = mk_app("b", 100, [("t1", "n1", 1), ("u2", "n3", 1)], [("t1", "u2", "m")])
    sched = ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=T_R,
        task_offsets={"t1": 150_000, "u1": 60_000, "u2": 60_000},
        message_offsets={"m": 10_000},
        message_deadlines={"m": 30_000},
        rounds=(Round(10_000, ("m",)),),
        leftover={"m": 0},
    )
    rep = check(Mode("op", (a, b)), sched, P)
    assert [str(v) for v in rep.violations if v.code == "precedence"] == [
        "precedence at message m: release slips 2 periods past producer t1",
    ]


def test_edge_listed_by_two_applications_is_reported_once():
    # both applications list t1 -m-> u, and u's out-of-domain offset lies
    # 190 ms before m's deadline: the consumer slips two periods
    a = mk_app("a", 100, [("t1", "n1", 1), ("u", "n2", 1)], [("t1", "u", "m")])
    b = mk_app("b", 100, [("t1", "n1", 1), ("u", "n2", 1)], [("t1", "u", "m")])
    sched = ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=T_R,
        task_offsets={"t1": 0, "u": -150_000},
        message_offsets={"m": 10_000},
        message_deadlines={"m": 30_000},
        rounds=(Round(10_000, ("m",)),),
        leftover={"m": 0},
    )
    rep = check(Mode("op", (a, b)), sched, P)
    assert [str(v) for v in rep.violations if v.code == "precedence"] == [
        "precedence at edge t1->u: consumer start slips 2 periods past message m deadline",
    ]
