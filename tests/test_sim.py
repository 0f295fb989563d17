"""Protocol simulation: beacons, losses, and two-phase mode changes.

The mode-change timeline asserted here was traced by hand from the
control schedules of the `table` fixture (rounds at 1 ms and 45 ms of a
100 ms cycle, 42 644 us rounds) before the simulator existed.
"""

import dataclasses

import pytest
from support import control_mode, mk_app, random_small_case, small_params, wide_params

from roundsched.checker import check
from roundsched.model import Mode, ModeSchedule, ModelError, Round
from roundsched.sim import AuditError, Scenario, SimTrace, SwitchRequest, run, simulate
from roundsched.synthesis import SynthConfig, synthesize

#: the network of the `table` fixture's schedules (42 644 us rounds)
WIDE = wide_params(hops=2)
#: the network of the hand-built 15 094 us schedules
SMALL = small_params()


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
    assert check(normal, sched_n, WIDE).ok
    assert check(fallback, sched_f, WIDE).ok
    return {"normal": (normal, sched_n), "fallback": (fallback, sched_f)}


def beacon_times(trace):
    return [(e["t"], e["round_id"], e["mode"]) for e in trace.of_kind("beacon")]


class TestQuietNetwork:
    def test_beacons_follow_the_schedule(self, table):
        trace = simulate(table, Scenario(initial_mode="normal", n_rounds=4), WIDE)
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
        assert simulate(table, scn, WIDE) == simulate(table, scn, WIDE)

    def test_seed_changes_the_loss_pattern(self, table):
        a = simulate(table, Scenario("normal", 30, beacon_loss=0.3, seed=1), WIDE)
        b = simulate(table, Scenario("normal", 30, beacon_loss=0.3, seed=2), WIDE)
        assert a != b


class TestLossExtremes:
    def test_total_loss_silences_everyone(self, table):
        trace = simulate(table, Scenario("normal", 4, beacon_loss=1.0), WIDE)
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
        trace = simulate(table, scn, WIDE)
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
        trace = simulate(table, scn, WIDE)

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
        trace = simulate(table, scn, WIDE)
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
        trace = simulate(table, scn, WIDE)
        (ep,) = trace.of_kind("epoch")
        degraded = trace.of_kind("degraded")
        assert degraded, "expected someone to miss the switch beacon"
        for d in degraded:
            assert d["since"] == ep["t"]

    def test_degraded_span_starts_at_the_first_missed_commit(self, table):
        # nobody hears a beacon, so every node misses all three commits
        scn = Scenario(
            "normal",
            40,
            beacon_loss=1.0,
            seed=1,
            switches=(SwitchRequest(0, "fallback"), SwitchRequest(1, "normal"),
                      SwitchRequest(2, "fallback")),
        )
        trace = simulate(table, scn, WIDE)
        first, _, last = trace.of_kind("epoch")
        degraded = trace.of_kind("degraded")
        assert len(degraded) == 5 and all(d["open"] for d in degraded)
        assert {d["since"] for d in degraded} == {first["t"]} != {last["t"]}


class TestCarriedMessageCommit:
    """A message flagged as crossing the cycle boundary delays the commit
    into the next cycle, to the round that serves the carried instance."""

    @staticmethod
    def hand_table(carried):
        """Two one-message modes whose one round starts the 100 ms cycle.

        Carried, wrapped's message m has the window [90, 120) ms, so the
        round at 0 ms serves the instance released at 90 ms of the
        previous cycle.  Not carried, a mode's window is [0, 40) ms: its
        producer ends at 100 ms of the previous cycle, so the release
        slips one period onto the cycle's start.  alt is never carried."""
        def entry(mode_id, task_prefix, msg, carried):
            src, dst = task_prefix + "1", task_prefix + "2"
            app = mk_app(mode_id + "_app", 100, [(src, "n1", 1), (dst, "n2", 1)],
                         [(src, dst, msg)])
            mode = Mode(id=mode_id, applications=(app,))
            if carried:
                offsets, mo, md = {src: 89_000, dst: 20_000}, 90_000, 30_000
            else:
                offsets, mo, md = {src: 99_000, dst: 50_000}, 0, 40_000
            sched = ModeSchedule(
                mode_id=mode_id,
                hyperperiod_us=100_000,
                round_len_us=15_094,
                task_offsets=offsets,
                message_offsets={msg: mo},
                message_deadlines={msg: md},
                rounds=(Round(t=0, alloc=(msg,)),),
                leftover={msg: 1 if carried else 0},
            )
            assert check(mode, sched, SMALL).ok
            return mode, sched

        return {"wrapped": entry("wrapped", "t", "m", carried),
                "alt": entry("alt", "u", "mm", False)}

    def test_leftover_pushes_commit_into_next_cycle(self):
        table = self.hand_table(carried=True)
        scn = Scenario("wrapped", 4, switches=(SwitchRequest(0, "alt"),))
        trace = simulate(table, scn, SMALL)
        (an,) = trace.of_kind("announce")
        assert an["commit_end"] == 115_094  # round 0 of the NEXT cycle
        (ep,) = trace.of_kind("epoch")
        assert ep["t"] == 115_094

    def test_without_leftover_commit_stays_in_cycle(self):
        table = self.hand_table(carried=False)
        scn = Scenario("wrapped", 4, switches=(SwitchRequest(0, "alt"),))
        trace = simulate(table, scn, SMALL)
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
        assert check(mode, sched, SMALL).ok
        return {"twice": (mode, sched), "alt": cls.hand_table(carried=False)["alt"]}

    def switch_beacons(self, trace):
        return [(e["t"], e["round_id"]) for e in trace.of_kind("beacon") if e["sb"]]

    def test_carried_commit_is_the_first_round_of_the_next_cycle(self):
        table = self.two_round_table(carried=True)
        scn = Scenario("twice", 6, switches=(SwitchRequest(0, "alt"),))
        trace = simulate(table, scn, SMALL)
        (an,) = trace.of_kind("announce")
        # round 0 of the next cycle, not its last round (142 ms)
        assert an["commit_end"] == 115_094
        assert self.switch_beacons(trace) == [(100_000, 2)]
        (ep,) = trace.of_kind("epoch")
        assert ep["t"] == 115_094

    def test_uncarried_commit_is_the_last_round_of_this_cycle(self):
        table = self.two_round_table(carried=False)
        scn = Scenario("twice", 6, switches=(SwitchRequest(0, "alt"),))
        trace = simulate(table, scn, SMALL)
        (an,) = trace.of_kind("announce")
        assert an["t"] == 6_000
        # round 1 of this cycle, not the round 0 that announced it
        assert an["commit_end"] == 71_094
        assert self.switch_beacons(trace) == [(56_000, 1)]
        (ep,) = trace.of_kind("epoch")
        assert ep["t"] == 71_094


class TestModeWithoutMessages:
    def test_synthesized_schedule_sends_beacons_only(self):
        mode = Mode("m", (mk_app("a", 100, [("t", "n", 1)], []),))
        params = small_params(slots=3)
        out = synthesize(mode, params, SynthConfig(grid_us=1000))
        assert (out.status, out.rounds_used) == ("feasible", 1)
        assert check(mode, out.schedule, params).ok
        trace = simulate({"m": (mode, out.schedule)}, Scenario("m", 4), params)
        assert [e["kind"] for e in trace.events] == ["beacon"] * 4
        t0 = out.schedule.rounds[0].t
        assert beacon_times(trace) == [(t0 + k * 100_000, k, "m") for k in range(4)]
        assert (trace.beacons_sent, trace.transmissions) == (4, 0)


class TestAuditedSchedulesRunRight:
    """What the audit promises, seen in the run: every schedule synthesized
    for the random_small_case seeds runs three cycles at zero loss with
    beacons in time order and each round sending exactly its slots."""

    def test_three_cycles_of_every_feasible_seed(self):
        feasible = 0
        for seed in range(40):
            mode, params = random_small_case(seed)
            out = synthesize(mode, params, SynthConfig(grid_us=1000))
            if out.status != "feasible":
                continue
            feasible += 1
            sched = out.schedule
            n = len(sched.rounds)
            trace = simulate({mode.id: (mode, sched)}, Scenario(mode.id, 3 * n), params)
            beacons = trace.of_kind("beacon")
            assert [(b["round_id"], b["index"]) for b in beacons] == [
                (k, k % n) for k in range(3 * n)], seed
            times = [b["t"] for b in beacons]
            assert times == [k // n * sched.hyperperiod_us + sched.rounds[k % n].t
                             for k in range(3 * n)], seed
            assert all(a < b for a, b in zip(times, times[1:])), seed
            producers = mode.producers()
            sent = [(e["round_id"], e["slot"], e["msg"], e["node"])
                    for e in trace.of_kind("tx")]
            assert sent == [
                (k, s, m_id, producers[m_id].node)
                for k in range(3 * n)
                for s, m_id in enumerate(sched.rounds[k % n].alloc)
            ], seed
            assert (trace.beacons_missed, trace.resyncs, trace.collisions) == (0, 0, 0), seed
            assert trace.of_kind("miss") == trace.of_kind("resync") == [], seed
        assert feasible == 33  # of the 40 seeds; the other 7 are infeasible


class TestRejectedInputs:
    def test_unknown_initial_mode(self, table):
        with pytest.raises(ValueError, match=r"no schedule given for mode\(s\): panic$"):
            simulate(table, Scenario("panic", 1), WIDE)

    def test_message_with_two_producers(self):
        # m is produced by t2 in a and by t1 in b: no one task sends it
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
        with pytest.raises(ModelError, match=r"produced by \['t1', 't2'\]"):
            simulate({"op": (mode, sched)}, Scenario("op", 3), SMALL)

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
        with pytest.raises(AuditError, match="fallback: .*round_gap"):
            simulate({"fallback": (mode, sched)}, Scenario("fallback", 1), SMALL)

    def test_mismatched_table_key(self, table):
        bad = {"other": table["normal"]}
        with pytest.raises(ValueError, match="mode table entry other holds mode normal"):
            simulate(bad, Scenario("other", 1), WIDE)

    def test_switch_to_unknown_mode(self, table):
        scn = Scenario("normal", 4, switches=(SwitchRequest(0, "nope"),))
        with pytest.raises(ValueError, match=r"no schedule given for mode\(s\): nope$"):
            simulate(table, scn, WIDE)

    def test_unknown_switch_target_is_refused_before_any_event(self, table):
        # requested long after the last round, so never picked up: the
        # run is refused anyway, when run() is called, not part way in
        scn = Scenario("normal", 4, switches=(SwitchRequest(10**12, "nope"),))
        with pytest.raises(ValueError, match=r"no schedule given for mode\(s\): nope$"):
            simulate(table, scn, WIDE)
        trace = SimTrace()
        with pytest.raises(ValueError, match=r"no schedule given for mode\(s\): nope$"):
            run(table, scn, WIDE, trace)
        assert trace == SimTrace()  # no event, no count

    def test_every_missing_mode_is_named_once(self, table):
        scn = Scenario("panic", 4, switches=(SwitchRequest(0, "nope"), SwitchRequest(1, "panic"),
                                             SwitchRequest(2, "fallback")))
        with pytest.raises(ValueError, match=r"no schedule given for mode\(s\): nope, panic$"):
            simulate(table, scn, WIDE)

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
        with pytest.raises(AuditError, match="^schedule audit failed; normal: domains$"):
            run(bad, Scenario("normal", 4), WIDE, trace)
        assert trace == SimTrace()

    def test_message_allocated_in_no_round(self, table):
        # m3 keeps its window but loses its slot: the commit search of a
        # switch would have no round to end the old mode in
        bad = self.with_rounds(table, "normal", (Round(1000, ("m1", "m2")),))
        scn = Scenario("normal", 4, switches=(SwitchRequest(0, "fallback"),))
        trace = SimTrace()
        with pytest.raises(AuditError, match="normal: .*conservation"):
            run(bad, scn, WIDE, trace)
        assert trace == SimTrace()

    def test_schedule_for_another_network(self, table):
        # the schedules are right for two hops; on four the rounds are longer
        trace = SimTrace()
        with pytest.raises(AuditError, match="fallback: .*domains.*; normal: .*domains"):
            run(table, Scenario("normal", 4), wide_params(hops=4), trace)
        assert trace == SimTrace()

    def test_rounds_listed_out_of_time_order(self):
        # listed 30 ms then 2 ms, the walk would send its beacons at 30,
        # 2, 130 and 102 ms: time would run backwards
        app = mk_app("loop", 100, [("s", "n1", 1), ("c", "n2", 1)], [("s", "c", "m")])
        sched = ModeSchedule("op", 100_000, 15_094, {"s": 0, "c": 40_000},
                             {"m": 1000}, {"m": 30_000},
                             (Round(30_000, ("m",)), Round(2000, ("m",))), {"m": 0})
        table = {"op": (Mode("op", (app,)), sched)}
        assert check(*table["op"], SMALL).failed() == {
            "round_overlap", "conservation", "curve_order"}
        want = "^schedule audit failed; op: conservation, curve_order, round_overlap$"
        with pytest.raises(AuditError, match=want):
            simulate(table, Scenario("op", 4), SMALL)
        trace = SimTrace()
        with pytest.raises(AuditError, match=want):
            run(table, Scenario("op", 4), SMALL, trace)
        assert trace == SimTrace()
