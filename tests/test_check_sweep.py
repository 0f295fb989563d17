"""The checker's curve-order sweep against a per-instant reference.

check() finds each message's first demand <= service <= arrival
violation in one merged sweep over its check instants.  The reference
below runs the same check() with that sweep replaced by a scan that
evaluates the stepping oracles of support.py (af_oracle, df_oracle,
sv_oracle) at every instant where one of the three curves can step,
plus a 1 ms grid, and returns the oracles' counts at the first failing
instant.  The curves are constant between those instants, so both must
report the same first violation with the same counts, worded by check()
the same way.

The corpus is seeded: valid two-round schedules over a 100 ms
hyperperiod (one round per 50 ms), some with windows that cross the
origin, then mutated by shifting rounds (some to end exactly on a
release or a deadline), dropping or adding slots, flipping leftover to 1
and pushing windows across the origin.
"""

from __future__ import annotations

import dataclasses
import random

from roundsched import checker
from roundsched.checker import check
from roundsched.model import Mode, ModeSchedule, Round, hyperperiod
from roundsched.sim import AuditError, Scenario, SimTrace, as_event, run
from roundsched.specio import dumps, report_to_obj
from roundsched.timing import round_length
from support import af_oracle, df_oracle, mk_app, small_params, sv_oracle

MS = 1000
P = small_params(slots=3)
T_R = round_length(P)  # 20 232 us
H = 100 * MS
N_CASES = 80


def base_case(rng: random.Random) -> tuple[Mode, ModeSchedule]:
    """A schedule with rounds at s and s + 50 ms serving 2-3 messages."""
    s = rng.randint(0, 20) * MS
    starts = (s, s + 50 * MS)
    apps, alloc = [], ([], [])
    task_offsets, offsets, deadlines, leftover = {}, {}, {}, {}
    for i in range(rng.randint(2, 3)):
        mid = f"m{i}"
        p = 100 * MS if i == 0 else rng.choice([50, 100]) * MS
        apps.append(
            mk_app(f"a{i}", p // MS, [(f"s{i}", f"n{i}", 1), (f"u{i}", f"v{i}", 1)],
                   [(f"s{i}", f"u{i}", mid)], deadline_ms=2 * p // MS)
        )
        wrap = rng.random() < 0.3
        if p == 50 * MS:
            alloc[0].append(mid)
            alloc[1].append(mid)
        else:
            alloc[0 if wrap else rng.randrange(2)].append(mid)
        if wrap:
            # released after round 0 ends and served by the next round
            # that carries it; the last instance of the hyperperiod rides
            # the next hyperperiod's round 0, so the window crosses the origin
            o = rng.randint((s + T_R) // MS + 1, p // MS - 1) * MS
            need = p - o + s + T_R
            room = p - need
        else:
            rel = (starts[0] if mid in alloc[0] else starts[1]) % p
            o = rel - rng.randint(0, rel // MS) * MS
            need = rel + T_R - o
            room = p - o - need
        slack = rng.randint(0, room // MS) * MS
        offsets[mid] = o
        deadlines[mid] = need + slack
        leftover[mid] = int(wrap)
        task_offsets[f"s{i}"] = max(0, o - MS)
        task_offsets[f"u{i}"] = min(p - MS, (o + deadlines[mid]) % p)
    mode = Mode("op", tuple(apps))
    sched = ModeSchedule(
        mode_id="op",
        hyperperiod_us=H,
        round_len_us=T_R,
        task_offsets=task_offsets,
        message_offsets=offsets,
        message_deadlines=deadlines,
        rounds=(Round(starts[0], tuple(alloc[0])), Round(starts[1], tuple(alloc[1]))),
        leftover=leftover,
    )
    return mode, sched


def mutate(rng: random.Random, mode: Mode, sched: ModeSchedule) -> ModeSchedule:
    rounds = [list(r.alloc) for r in sched.rounds]
    starts = [r.t for r in sched.rounds]
    offsets = dict(sched.message_offsets)
    leftover = dict(sched.leftover)
    mids = sorted(offsets)
    periods = mode.message_periods()
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(["shift", "align", "drop", "add", "leftover", "cross"])
        j = rng.randrange(len(rounds))
        if kind == "shift":
            step = rng.choice([1, 500, MS, 7 * MS, T_R, 30 * MS])
            starts[j] = max(0, starts[j] + rng.choice([-1, 1]) * step)
        elif kind == "align":
            # end the round exactly on a release or a deadline instant
            mid = rng.choice(mids)
            o, d = offsets[mid], sched.message_deadlines[mid]
            starts[j] = max(0, rng.choice([o, o + d, o + periods[mid]]) - T_R)
        elif kind == "drop" and rounds[j]:
            rounds[j].pop(rng.randrange(len(rounds[j])))
        elif kind == "add":
            rounds[j].insert(rng.randint(0, len(rounds[j])), rng.choice(mids))
        elif kind == "leftover":
            leftover[rng.choice(mids)] = 1
        elif kind == "cross":
            mid = rng.choice(mids)
            p, d = periods[mid], sched.message_deadlines[mid]
            if d > MS:
                offsets[mid] = rng.randint((p - d) // MS + 1, p // MS - 1) * MS
    return dataclasses.replace(
        sched,
        message_offsets=offsets,
        leftover=leftover,
        rounds=tuple(Round(t, tuple(a)) for t, a in zip(starts, rounds)),
    )


def corpus() -> list[tuple[Mode, ModeSchedule]]:
    rng = random.Random(20_171_115)
    out = []
    for i in range(N_CASES):
        mode, sched = base_case(rng)
        out.append((mode, sched if i % 4 == 0 else mutate(rng, mode, sched)))
    return out


CORPUS = corpus()


def reference_check(mode: Mode, sched: ModeSchedule, monkeypatch) -> checker.CheckReport:
    """check() with the curve-order sweep replaced by a per-instant scan."""
    h = hyperperiod(mode)

    def curves(mt, t, carried):
        o, d, p = mt.offset_us, mt.deadline_us, mt.period_us
        return (
            df_oracle(o, d, p, t),
            sv_oracle(mt.id, t, sched.rounds, carried, T_R),
            af_oracle(o, p, t),
        )

    def instants(mt):
        o, d, p = mt.offset_us, mt.deadline_us, mt.period_us
        pts = set(range(0, h + 1, MS))
        pts.update(x for x in range(o, h + 1, p))  # releases
        pts.update(x + 1 for x in range(o + d - p, h + 1, p) if x >= 0)  # deadlines
        pts.update(min(h + 1, r.t + T_R + 1) for r in sched.rounds)  # deliveries
        return sorted(pts)

    def scan(mt, _instants, _deliveries, carried):
        for t in instants(mt):
            df, sv, af = curves(mt, t, carried)
            if not df <= sv <= af:
                return t, df, sv, af
        return None

    with monkeypatch.context() as mp:
        mp.setattr(checker, "first_order_violation", scan)
        return check(mode, sched, P)


def test_corpus_covers_passes_failures_and_wrapped_windows():
    reports = [check(mode, sched, P) for mode, sched in CORPUS]
    curve = [r.by_family()["curve_order"] for r in reports]
    assert curve.count("fail") >= 20 and curve.count("pass") >= 20
    assert sum(r.ok for r in reports) >= 10
    assert sum(1 in s.leftover.values() for _, s in CORPUS) >= 20
    assert sum(
        s.message_offsets[m] + s.message_deadlines[m] > mode.message_periods()[m]
        for mode, s in CORPUS
        for m in s.message_offsets
    ) >= 20


def test_sweep_reports_match_per_instant_reference(monkeypatch):
    for i, (mode, sched) in enumerate(CORPUS):
        got = check(mode, sched, P)
        want = reference_check(mode, sched, monkeypatch)
        assert str(got) == str(want), f"case {i}"
        assert dumps(report_to_obj(got)) == dumps(report_to_obj(want)), f"case {i}"


def test_simulator_runs_exactly_the_schedules_check_accepts():
    for i, (mode, sched) in enumerate(CORPUS):
        report = check(mode, sched, P)
        trace = SimTrace()
        if report.ok:
            events = list(map(as_event, run({mode.id: (mode, sched)}, Scenario(mode.id, 4),
                                            P, trace)))
            assert trace.beacons_sent == 4, f"case {i}"
            assert events[0]["t"] == min(r.t for r in sched.rounds), f"case {i}"
            continue
        want = f"schedule audit failed; {mode.id}: " + ", ".join(sorted(report.failed()))
        try:
            run({mode.id: (mode, sched)}, Scenario(mode.id, 4), P, trace)
        except AuditError as e:
            assert str(e) == want, f"case {i}"
        else:
            raise AssertionError(f"case {i}: run() accepted a schedule check() refuses")
        assert trace == SimTrace(), f"case {i}"
