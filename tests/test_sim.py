"""Protocol simulation: beacons, losses, and two-phase mode changes.

The mode-change timeline asserted here was traced by hand from the
control schedules of the `table` fixture (rounds at 1 ms and 45 ms of a
100 ms cycle, 42 644 us rounds) before the simulator existed.
"""

import dataclasses

import pytest
from support import control_mode, mk_app, small_params, wide_params

from roundsched.checker import check
from roundsched.model import Mode, ModeSchedule, Round
from roundsched.sim import Scenario, SimTrace, SwitchRequest, run, simulate


def fallback_mode():
    app = mk_app(
        "watch",
        100,
        [("w1", "n_sense_a", 1), ("w2", "n_act_a", 1)],
        [("w1", "w2", "wm")],
    )
    return Mode(id="fallback", applications=(app,))


@pytest.fixture(scope="module")
def table():
    """The control schedules the timeline below was traced from, audited."""
    params = wide_params(hops=2)
    normal = control_mode()
    fallback = fallback_mode()
    rl = 42_644
    sched_n = ModeSchedule(
        mode_id="normal",
        hyperperiod_us=100_000,
        round_len_us=rl,
        task_offsets={"t1": 0, "t2": 0, "t3": 44_000, "t5": 88_000, "t6": 88_000},
        message_offsets={"m1": 1000, "m2": 1000, "m3": 45_000},
        message_deadlines={"m1": 43_000, "m2": 43_000, "m3": 43_000},
        rounds=(Round(1000, ("m1", "m2")), Round(45_000, ("m3",))),
        leftover={"m1": 0, "m2": 0, "m3": 0},
    )
    sched_f = ModeSchedule(
        mode_id="fallback",
        hyperperiod_us=100_000,
        round_len_us=rl,
        task_offsets={"w1": 0, "w2": 44_000},
        message_offsets={"wm": 1000},
        message_deadlines={"wm": 43_000},
        rounds=(Round(1000, ("wm",)),),
        leftover={"wm": 0},
    )
    assert check(normal, sched_n, params).ok
    assert check(fallback, sched_f, params).ok
    return {"normal": (normal, sched_n), "fallback": (fallback, sched_f)}


def beacon_times(trace):
    return [(e["t"], e["round_id"], e["mode"]) for e in trace.of_kind("beacon")]


class TestQuietNetwork:
    def test_beacons_follow_the_schedule(self, table):
        trace = simulate(table, Scenario(initial_mode="normal", n_rounds=4))
        assert beacon_times(trace) == [
            (1000, 0, "normal"),
            (45_000, 1, "normal"),
            (101_000, 2, "normal"),
            (145_000, 3, "normal"),
        ]
        assert trace.beacons_sent == 4
        assert trace.beacons_missed == 0
        assert trace.resyncs == 0
        assert trace.collisions == 0
        # slot usage per cycle: two messages in the first round, one in the second
        assert trace.transmissions == 2 + 1 + 2 + 1

    def test_trace_is_deterministic(self, table):
        scn = Scenario(initial_mode="normal", n_rounds=30, beacon_loss=0.3, seed=7)
        assert simulate(table, scn) == simulate(table, scn)

    def test_seed_changes_the_loss_pattern(self, table):
        a = simulate(table, Scenario("normal", 30, beacon_loss=0.3, seed=1))
        b = simulate(table, Scenario("normal", 30, beacon_loss=0.3, seed=2))
        assert a != b


class TestLossExtremes:
    def test_total_loss_silences_everyone(self, table):
        trace = simulate(table, Scenario("normal", 4, beacon_loss=1.0))
        assert trace.beacons_sent == 4
        assert trace.beacons_missed == 4 * 5  # five nodes across both modes
        assert trace.transmissions == 0
        assert trace.collisions == 0
        assert trace.resyncs == 0

    def test_lossy_run_never_collides(self, table):
        scn = Scenario(
            "normal",
            60,
            beacon_loss=0.3,
            seed=7,
            switches=(
                SwitchRequest(250_000, "fallback"),
                SwitchRequest(2_000_000, "normal"),
            ),
        )
        trace = simulate(table, scn)
        assert trace.collisions == 0
        assert trace.beacons_missed > 0
        assert trace.resyncs > 0
        # every closed degraded span ends at the resync that repaired it
        closed = [e for e in trace.of_kind("degraded") if "open" not in e]
        for d in closed:
            assert d["since"] <= d["t"]
            assert any(
                r["t"] == d["t"] and r["node"] == d["node"]
                for r in trace.of_kind("resync")
            )


class TestModeChange:
    def test_two_phase_timeline(self, table):
        scn = Scenario(
            "normal", 10, switches=(SwitchRequest(250_000, "fallback"),)
        )
        trace = simulate(table, scn)

        (rq,) = trace.of_kind("request")
        # picked up at the next round boundary after the request
        assert rq == {"t": 301_000, "kind": "request", "to": "fallback",
                      "requested_at": 250_000}

        (an,) = trace.of_kind("announce")
        assert an["t"] == 301_000
        # last obligation of the cycle is the second round, ending 345 + 42.644 ms
        assert an["commit_end"] == 387_644

        switch_beacons = [e for e in trace.of_kind("beacon") if e["sb"]]
        assert [(e["t"], e["round_id"]) for e in switch_beacons] == [(345_000, 7)]

        (ep,) = trace.of_kind("epoch")
        assert (ep["t"], ep["mode"]) == (387_644, "fallback")

        after = [b for b in beacon_times(trace) if b[0] > 387_644]
        assert after[0] == (388_644, 8, "fallback")
        assert all(m == "fallback" for _, _, m in after)

    def test_switch_to_current_mode_is_dropped(self, table):
        scn = Scenario("normal", 6, switches=(SwitchRequest(0, "normal"),))
        trace = simulate(table, scn)
        assert len(trace.of_kind("request")) == 1
        assert trace.of_kind("announce") == []
        assert trace.of_kind("epoch") == []

    def test_missed_switch_beacon_degrades_until_next_heard(self, table):
        # seed chosen so at least one node misses the switch beacon
        scn = Scenario(
            "normal",
            20,
            beacon_loss=0.3,
            seed=7,
            switches=(SwitchRequest(250_000, "fallback"),),
        )
        trace = simulate(table, scn)
        (ep,) = trace.of_kind("epoch")
        degraded = trace.of_kind("degraded")
        assert degraded, "expected someone to miss the switch beacon"
        for d in degraded:
            assert d["since"] == ep["t"]


class TestCarriedMessageCommit:
    """A message flagged as crossing the cycle boundary delays the commit
    into the next cycle, to the round that serves the carried instance."""

    @staticmethod
    def hand_table(leftover):
        def entry(mode_id, task_prefix, msg):
            app = mk_app(
                mode_id + "_app",
                100,
                [(task_prefix + "1", "n1", 1), (task_prefix + "2", "n2", 1)],
                [(task_prefix + "1", task_prefix + "2", msg)],
            )
            mode = Mode(id=mode_id, applications=(app,))
            sched = ModeSchedule(
                mode_id=mode_id,
                hyperperiod_us=100_000,
                round_len_us=15_094,
                task_offsets={task_prefix + "1": 0, task_prefix + "2": 50_000},
                message_offsets={msg: 2000},
                message_deadlines={msg: 40_000},
                rounds=(Round(t=0, alloc=(msg,)),),
                leftover={msg: leftover if mode_id == "wrapped" else 0},
            )
            return mode, sched

        return {"wrapped": entry("wrapped", "t", "m"),
                "alt": entry("alt", "u", "mm")}

    def test_leftover_pushes_commit_into_next_cycle(self):
        table = self.hand_table(leftover=1)
        scn = Scenario("wrapped", 4, switches=(SwitchRequest(0, "alt"),))
        trace = simulate(table, scn)
        (an,) = trace.of_kind("announce")
        assert an["commit_end"] == 115_094  # round 0 of the NEXT cycle
        (ep,) = trace.of_kind("epoch")
        assert ep["t"] == 115_094

    def test_without_leftover_commit_stays_in_cycle(self):
        table = self.hand_table(leftover=0)
        scn = Scenario("wrapped", 4, switches=(SwitchRequest(0, "alt"),))
        trace = simulate(table, scn)
        (an,) = trace.of_kind("announce")
        assert an["commit_end"] == 15_094
        (ep,) = trace.of_kind("epoch")
        assert ep["t"] == 15_094

    @classmethod
    def two_round_table(cls, carried):
        """A 50 ms message m served by both rounds of a 100 ms cycle.

        Carried, m's window [40, 70) ms wraps the cycle boundary: round 0
        (at 0 ms) serves the instance released at 90 ms of the previous
        cycle and round 1 (at 42 ms) the one released at 40 ms.  Not
        carried, the rounds at 6 and 56 ms serve the windows [5, 25) and
        [55, 75) ms of the same cycle."""
        fast = mk_app("fast", 50, [("t1", "n1", 1), ("t2", "n2", 1)],
                      [("t1", "t2", "m")])
        slow = mk_app("slow", 100, [("u", "n3", 1)], [])
        mode = Mode(id="twice", applications=(fast, slow))
        if carried:
            offsets, mo, starts = {"t1": 39_000, "t2": 20_000}, 40_000, (0, 42_000)
        else:
            offsets, mo, starts = {"t1": 4_000, "t2": 25_000}, 5_000, (6_000, 56_000)
        sched = ModeSchedule(
            mode_id="twice",
            hyperperiod_us=100_000,
            round_len_us=15_094,
            task_offsets={**offsets, "u": 20_000},
            message_offsets={"m": mo},
            message_deadlines={"m": 30_000 if carried else 20_000},
            rounds=tuple(Round(t, ("m",)) for t in starts),
            leftover={"m": 1 if carried else 0},
        )
        assert check(mode, sched, small_params()).ok
        return {"twice": (mode, sched), "alt": cls.hand_table(leftover=0)["alt"]}

    def switch_beacons(self, trace):
        return [(e["t"], e["round_id"]) for e in trace.of_kind("beacon") if e["sb"]]

    def test_carried_commit_is_the_first_round_of_the_next_cycle(self):
        table = self.two_round_table(carried=True)
        scn = Scenario("twice", 6, switches=(SwitchRequest(0, "alt"),))
        trace = simulate(table, scn)
        (an,) = trace.of_kind("announce")
        # round 0 of the next cycle, not its last round (142 ms)
        assert an["commit_end"] == 115_094
        assert self.switch_beacons(trace) == [(100_000, 2)]
        (ep,) = trace.of_kind("epoch")
        assert ep["t"] == 115_094

    def test_uncarried_commit_is_the_last_round_of_this_cycle(self):
        table = self.two_round_table(carried=False)
        scn = Scenario("twice", 6, switches=(SwitchRequest(0, "alt"),))
        trace = simulate(table, scn)
        (an,) = trace.of_kind("announce")
        assert an["t"] == 6_000
        # round 1 of this cycle, not the round 0 that announced it
        assert an["commit_end"] == 71_094
        assert self.switch_beacons(trace) == [(56_000, 1)]
        (ep,) = trace.of_kind("epoch")
        assert ep["t"] == 71_094


def test_message_is_sent_from_the_node_of_its_producers():
    # m is produced by t2 in a and by t1 in b, both on n1
    a = mk_app("a", 100, [("t2", "n1", 1), ("u", "n2", 1)], [("t2", "u", "m")])
    b = mk_app("b", 100, [("t1", "n1", 1), ("v", "n3", 1)], [("t1", "v", "m")])
    mode = Mode(id="op", applications=(a, b))
    sched = ModeSchedule(
        mode_id="op",
        hyperperiod_us=100_000,
        round_len_us=15_094,
        task_offsets={"t1": 0, "t2": 1000, "u": 20_000, "v": 20_000},
        message_offsets={"m": 2000},
        message_deadlines={"m": 18_000},
        rounds=(Round(2000, ("m",)),),
        leftover={"m": 0},
    )
    assert check(mode, sched, small_params()).ok
    trace = simulate({"op": (mode, sched)}, Scenario("op", 3))
    assert [e["node"] for e in trace.of_kind("tx")] == ["n1"] * 3


class TestRejectedInputs:
    def test_unknown_initial_mode(self, table):
        with pytest.raises(ValueError, match="unknown initial mode"):
            simulate(table, Scenario("panic", 1))

    def test_schedule_without_rounds(self):
        mode = fallback_mode()
        sched = ModeSchedule(
            mode_id="fallback",
            hyperperiod_us=100_000,
            round_len_us=15_094,
            task_offsets={"w1": 0, "w2": 0},
            message_offsets={"wm": 0},
            message_deadlines={"wm": 50_000},
            rounds=(),
            leftover={"wm": 0},
        )
        with pytest.raises(ValueError, match="no rounds"):
            simulate({"fallback": (mode, sched)}, Scenario("fallback", 1))

    def test_mismatched_table_key(self, table):
        bad = {"other": table["normal"]}
        with pytest.raises(ValueError, match="inconsistent"):
            simulate(bad, Scenario("other", 1))

    def test_switch_to_unknown_mode(self, table):
        scn = Scenario("normal", 4, switches=(SwitchRequest(0, "nope"),))
        with pytest.raises(ValueError, match="unknown mode nope"):
            simulate(table, scn)

    def test_unknown_switch_target_is_refused_before_any_event(self, table):
        # requested long after the last round, so never picked up: the
        # run is refused anyway, when run() is called, not part way in
        scn = Scenario("normal", 4, switches=(SwitchRequest(10**12, "nope"),))
        with pytest.raises(ValueError, match="unknown mode nope"):
            simulate(table, scn)
        trace = SimTrace()
        with pytest.raises(ValueError, match="unknown mode nope"):
            run(table, scn, trace)
        assert trace == SimTrace()  # no event, no count

    @staticmethod
    def with_rounds(table, mode_id, rounds):
        mode, sched = table[mode_id]
        return {**table, mode_id: (mode, dataclasses.replace(sched, rounds=rounds))}

    def test_round_allocating_a_message_outside_the_mode(self, table):
        bad = self.with_rounds(
            table, "normal",
            (Round(1000, ("m1", "m2")), Round(45_000, ("m3", "ghost"))),
        )
        trace = SimTrace()
        with pytest.raises(ValueError,
                           match="mode normal, round 1: message ghost is not in the mode"):
            run(bad, Scenario("normal", 4), trace)
        assert trace == SimTrace()

    def test_message_allocated_in_no_round(self, table):
        # m3 keeps its window but loses its slot: the commit search of a
        # switch would have no round to end the old mode in
        bad = self.with_rounds(table, "normal", (Round(1000, ("m1", "m2")),))
        scn = Scenario("normal", 4, switches=(SwitchRequest(0, "fallback"),))
        trace = SimTrace()
        with pytest.raises(ValueError,
                           match="mode normal: message m3 is allocated in no round"):
            run(bad, scn, trace)
        assert trace == SimTrace()
