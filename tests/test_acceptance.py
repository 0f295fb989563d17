"""Acceptance gate: the eight headline properties of the toolkit.

Each test prints exactly one [PASS]/[FAIL] line with the measured
numbers, then asserts.  Budgeted criteria also time themselves and fail
when over budget, so a slow regression cannot hide behind a green mark.
"""

import random
import time
from fractions import Fraction

from oracle import brute_force_min_rounds
from support import (
    af_oracle,
    control_mode,
    df_oracle,
    enumerate_milp,
    mk_app,
    random_ilp,
    random_small_case,
    small_params,
    sv_oracle,
    wide_params,
)

from roundsched.checker import check
from roundsched.ilp import build_instance, check_assignment
from roundsched.model import Mode, hyperperiod
from roundsched.sim import Scenario, SwitchRequest, simulate
from roundsched.solver import solve
from roundsched.stepfuncs import (
    MsgTiming,
    arrival,
    deadline_instants,
    demand,
    release_instants,
)
from roundsched.synthesis import SynthConfig, max_rounds, synthesize
from roundsched.timing import (
    NetworkParams,
    energy_saving,
    latency_improvement_factor,
    message_latency_bound,
    round_length,
)

GRID = SynthConfig(grid_us=1000)
REFERENCE = NetworkParams(hops=4, slots_per_round=5, payload_bytes=10)


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {n}: {detail}")
    assert ok, f"acceptance {n}: {detail}"


def test_acceptance_1_round_length():
    value = round_length(REFERENCE)
    ok = value == 50_308 and 50_000 <= value <= 50_500
    verdict(1, ok, f"reference round length {value} us, expected 50308 in [50.0, 50.5] ms")


def test_acceptance_2_energy_saving():
    t0 = time.monotonic()
    sav = energy_saving(10, 5, REFERENCE)
    exact = sav == Fraction(13_312, 41_120)
    close = abs(float(sav) - 0.324) <= 0.01
    by_slots = [float(energy_saving(10, b, REFERENCE)) for b in range(1, 9)]
    by_payload = [float(energy_saving(l, 5, REFERENCE)) for l in (8, 10, 12, 16, 24)]
    grows = all(a < b for a, b in zip(by_slots, by_slots[1:]))
    shrinks = all(a > b for a, b in zip(by_payload, by_payload[1:]))
    dt = time.monotonic() - t0
    ok = exact and close and grows and shrinks and dt < 1.0
    verdict(
        2,
        ok,
        f"saving {float(sav):.4f} (0.324 +/- 0.01), grows with slots {grows}, "
        f"shrinks with payload {shrinks}, {dt:.2f}s",
    )


def test_acceptance_3_latency_factor():
    p2 = NetworkParams(hops=2, slots_per_round=5, payload_bytes=10)
    bound_is_round = all(
        message_latency_bound(p) == round_length(p) for p in (REFERENCE, p2)
    )
    factors = (latency_improvement_factor(REFERENCE), latency_improvement_factor(p2))
    ok = bound_is_round and factors == (2.0, 2.0)
    verdict(
        3,
        ok,
        f"message latency bound is one round length, factors {factors} == 2.0",
    )


def test_acceptance_4_synthesis_optimality():
    t0 = time.monotonic()
    n = 24
    agreed = 0
    for seed in range(n):
        mode, params = random_small_case(seed)
        want_r, _ = brute_force_min_rounds(mode, params, grid_us=1000)
        out = synthesize(mode, params, GRID)
        if want_r is None:
            if out.status == "infeasible":
                agreed += 1
            continue
        if out.status != "feasible" or out.rounds_used != want_r:
            continue
        report = check(mode, out.schedule, params)
        if report.ok and report.by_family().get("curve_order") == "pass":
            agreed += 1
    dt = time.monotonic() - t0
    ok = agreed == n and dt < 300.0
    verdict(
        4,
        ok,
        f"{agreed}/{n} random workloads match the exhaustive round-count "
        f"oracle and pass audit, {dt:.1f}s",
    )


def test_acceptance_5_solver_oracle():
    t0 = time.monotonic()
    n = 120
    agreed = 0
    deterministic = True
    for seed in range(n):
        inst = random_ilp(seed)
        want_status, want_obj = enumerate_milp(inst)
        sol = solve(inst)
        good = sol.status == want_status
        if good and want_status == "optimal":
            good = (
                sol.objective == want_obj
                and check_assignment(inst, sol.values) == []
            )
        if good:
            agreed += 1
        if solve(inst) != sol:
            deterministic = False
    dt = time.monotonic() - t0
    ok = agreed == n and deterministic and dt < 120.0
    verdict(
        5,
        ok,
        f"{agreed}/{n} programs match exhaustive enumeration, "
        f"two calls identical: {deterministic}, {dt:.1f}s",
    )


def test_acceptance_6_counting_functions():
    t0 = time.monotonic()
    rng = random.Random(60559)
    step = 1000
    bad = 0
    for i in range(1000):
        p = rng.choice([4, 5, 8, 10, 20, 25, 40, 50, 100]) * 1000
        o = rng.randrange(p) if i % 2 else rng.randrange(p // step) * step
        d = rng.randint(1, 2 * p - o - 1)
        m = MsgTiming(f"m{i}", o, d, p)
        wraps = o + d > p
        if (demand(m, 0) == -1) != wraps:
            bad += 1
            continue
        rel = release_instants(m, p)
        dl = deadline_instants(m, p)
        for t in range(0, p + 1, step):
            if arrival(m, t) != af_oracle(o, p, t):
                bad += 1
                break
            if demand(m, t) != df_oracle(o, d, p, t):
                bad += 1
                break
            if arrival(m, t) != sum(1 for r in rel if r <= t):
                bad += 1
                break
            if demand(m, t) != sum(1 for x in dl if x < t) - int(wraps):
                bad += 1
                break

    # the same ordering must hold over entire synthesized schedules
    cases = [
        (control_mode(), wide_params(hops=2)),
        (
            Mode(
                id="pipe",
                applications=(
                    mk_app("a", 40, [("t1", "n1", 1), ("t2", "n2", 1)],
                           [("t1", "t2", "m")]),
                ),
            ),
            small_params(),
        ),
        (
            Mode(
                id="fan",
                applications=(
                    mk_app(
                        "a",
                        40,
                        [("t1", "n1", 1), ("t2", "n2", 1), ("t3", "n3", 1)],
                        [("t1", "t3", "m1"), ("t2", "t3", "m2")],
                    ),
                ),
            ),
            small_params(slots=1),
        ),
    ]
    ordered = True
    for mode, params in cases:
        out = synthesize(mode, params, GRID)
        assert out.status == "feasible"
        s = out.schedule
        for mid in s.message_offsets:
            o, d = s.message_offsets[mid], s.message_deadlines[mid]
            p = mode.message_periods()[mid]
            for t in range(0, s.hyperperiod_us + 1, step):
                df = df_oracle(o, d, p, t)
                sv = sv_oracle(mid, t, s.rounds, s.leftover[mid], s.round_len_us)
                if not df <= sv <= af_oracle(o, p, t):
                    ordered = False
    dt = time.monotonic() - t0
    ok = bad == 0 and ordered and dt < 60.0
    verdict(
        6,
        ok,
        f"1000 random messages agree with stepping oracles ({bad} bad), "
        f"demand <= service <= arrival on synthesized schedules: {ordered}, "
        f"{dt:.1f}s",
    )


def test_acceptance_7_protocol_safety():
    t0 = time.monotonic()
    params = wide_params(hops=2)
    normal = control_mode()
    fb_app = mk_app(
        "watch", 100,
        [("w1", "n_sense_a", 1), ("w2", "n_act_a", 1)],
        [("w1", "w2", "wm")],
    )
    fallback = Mode(id="fallback", applications=(fb_app,))
    table = {
        "normal": (normal, synthesize(normal, params, GRID).schedule),
        "fallback": (fallback, synthesize(fallback, params, GRID).schedule),
    }
    scn = Scenario(
        initial_mode="normal",
        n_rounds=10_000,
        beacon_loss=0.3,
        seed=1,
        switches=(
            SwitchRequest(250_000, "fallback"),
            SwitchRequest(2_000_000, "normal"),
        ),
    )
    trace = simulate(table, scn)

    announces = trace.of_kind("announce")
    epochs = trace.of_kind("epoch")
    switch_beacons = [e for e in trace.of_kind("beacon") if e["sb"]]
    phases = (
        len(announces) == len(epochs) == len(switch_beacons) == 2
        and [a["commit_end"] for a in announces] == [e["t"] for e in epochs]
        and all(
            sb["t"] < ep["t"] and ep["t"] - sb["t"] == 42_644
            for sb, ep in zip(switch_beacons, epochs)
        )
    )
    for ep, an in zip(epochs, announces):
        first_new = next(
            e for e in trace.of_kind("beacon") if e["t"] > ep["t"]
        )
        phases = phases and first_new["mode"] == ep["mode"] == an["to"]

    recovered = all(
        any(r["t"] == d["t"] and r["node"] == d["node"] for r in trace.of_kind("resync"))
        for d in trace.of_kind("degraded")
        if "open" not in d
    )
    dt = time.monotonic() - t0
    ok = (
        trace.beacons_sent == 10_000
        and trace.collisions == 0
        and trace.beacons_missed > 0
        and trace.resyncs > 0
        and phases
        and recovered
        and dt < 60.0
    )
    verdict(
        7,
        ok,
        f"10000 lossy rounds: {trace.collisions} collisions, "
        f"{trace.resyncs} resyncs, clean two-phase mode changes: {phases}, "
        f"degraded nodes recovered: {recovered}, {dt:.1f}s",
    )


def test_acceptance_8_infeasibility_honesty():
    # the search starts at the lower bound min_rounds, so the verdict rests
    # on that bound: it must exceed every count that fits, and HiGHS, run
    # here on each of those counts, must refute every one
    params = wide_params(hops=4)
    mode = control_mode()
    r_max = max_rounds(mode, params, GRID)
    out = synthesize(mode, params, GRID)
    refuted = [
        solve(build_instance(mode, r, params, grid_us=GRID.grid_us)).status == "infeasible"
        for r in range(r_max + 1)
    ]
    ok = (
        r_max == hyperperiod(mode) // round_length(params) == 1
        and out.status == "infeasible"
        and out.schedule is None
        and out.min_rounds > r_max
        and all(refuted)
    )
    verdict(
        8,
        ok,
        f"tight mode proven infeasible: needs at least {out.min_rounds} rounds, "
        f"at most {r_max} fit, HiGHS refutes {sum(refuted)} of the "
        f"{r_max + 1} counts that fit",
    )
