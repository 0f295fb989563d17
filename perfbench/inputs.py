"""Seeded inputs for the benchmark workloads.

Everything is built as JSON-shaped data in the formats the command line
reads (spec, schedule, scenario), so a workload can write it to disk and
hand it to the package exactly as a user would.  Nothing here imports the
package: the inputs are independent of the code under measurement.
"""

from __future__ import annotations

import random

MS = 1000

# network of the randomized corpus: short rounds, one hop
SMALL_NETWORK = {"hops": 1, "payload_bytes": 8, "retransmissions": 1}
# network of the ladder and the long-horizon system (the bundled spec's)
WIDE_NETWORK = {"hops": 2, "slots_per_round": 5, "payload_bytes": 10}

# solver budget of one synthesize() call per round count; fixed so that a
# faster engine shows up as fewer timeouts rather than a moved goalpost
SMALL_BUDGET_MS = 1000
LADDER_BUDGET_MS = 5000
LADDER_KS = (1, 2, 3, 4)


def _app(app_id, period_us, tasks, edges, deadline_us=None) -> dict:
    """tasks are (id, node, wcet_us); edges are (src, dst, msg)."""
    obj = {
        "id": app_id,
        "period_us": period_us,
        "tasks": [{"id": t, "node": n, "wcet_us": w} for t, n, w in tasks],
        "edges": [{"src": s, "dst": d, "msg": m} for s, d, m in edges],
    }
    if deadline_us is not None:
        obj["deadline_us"] = deadline_us
    return obj


def small_case(case_seed: int) -> dict:
    """One single-mode spec of the randomized corpus.

    The six shapes (pipe2, pipe3, fan-in, fan-out, a pipeline squeezed by a
    long solo task, two independent pipelines) with 1-3 data slots, drawn
    in the same order as the acceptance-4 corpus so case N here is case N
    there.  Node sharing is random, so processor conflicts and proven
    infeasible cases occur naturally.
    """
    rng = random.Random(case_seed)
    slots = rng.choice([1, 2, 3])
    nodes = [f"n{i}" for i in range(rng.choice([2, 3, 4]))]

    def pick() -> str:
        return rng.choice(nodes)

    def wc() -> int:
        return rng.randint(1, 4) * MS

    def dl(p: int) -> int:
        return rng.choice([p, p, 4 * p // 5]) * MS

    shape = rng.choice(["pipe2", "pipe3", "fanin", "fanout", "squeeze", "pair"])
    p = rng.choice([20, 40, 50, 100])
    if shape == "pipe2":
        apps = [
            _app("a", p * MS, [("t1", pick(), wc()), ("t2", pick(), wc())],
                 [("t1", "t2", "m")], dl(p))
        ]
    elif shape in ("pipe3", "fanin"):
        edges = (
            [("t1", "t2", "m1"), ("t2", "t3", "m2")]
            if shape == "pipe3"
            else [("t1", "t3", "m1"), ("t2", "t3", "m2")]
        )
        apps = [
            _app("a", p * MS,
                 [("t1", pick(), wc()), ("t2", pick(), wc()), ("t3", pick(), wc())],
                 edges, dl(p))
        ]
    elif shape == "fanout":
        apps = [
            _app("a", p * MS,
                 [("t1", pick(), wc()), ("t2", pick(), wc()), ("t3", pick(), wc())],
                 [("t1", "t2", "m"), ("t1", "t3", "m")], dl(p))
        ]
    elif shape == "squeeze":
        apps = [
            _app("blk", p * MS,
                 [("t0", nodes[0], rng.randint(6 * p // 10, 8 * p // 10) * MS)], []),
            _app("a", p * MS, [("t1", nodes[0], wc()), ("t2", pick(), wc())],
                 [("t1", "t2", "m")], dl(p)),
        ]
    else:
        p1, p2 = rng.choice([(20, 20), (20, 40), (50, 100), (40, 40), (100, 100)])
        apps = [
            _app("a1", p1 * MS, [("a1t1", pick(), wc()), ("a1t2", pick(), wc())],
                 [("a1t1", "a1t2", "m1")], dl(p1)),
            _app("a2", p2 * MS, [("a2t1", pick(), wc()), ("a2t2", pick(), wc())],
                 [("a2t1", "a2t2", "m2")], dl(p2)),
        ]
    return {
        "network": dict(SMALL_NETWORK, slots_per_round=slots),
        "grid_us": MS,
        "modes": [{"id": f"rand{case_seed}", "applications": apps}],
    }


def pick_corpus(seed: int, pool: list[int], n: int) -> list[int]:
    """Case seeds of one run: one drawn from each of n bins of the pool.

    pool is sorted by cost, so one draw per contiguous bin gives every
    seed the same mix of cheap, medium and heavy cases, and runs with
    different seeds do comparable work.
    """
    rng = random.Random(seed)
    picked = [
        rng.choice(pool[i * len(pool) // n : (i + 1) * len(pool) // n])
        for i in range(n)
    ]
    rng.shuffle(picked)
    return picked


def ladder_spec(k: int) -> dict:
    """k sensor -> controller -> actuator pipelines sharing one controller
    node, periods alternating 200/400 ms, 1 ms tasks, 5 ms grid."""
    apps = []
    for i in range(k):
        p = (200 if i % 2 == 0 else 400) * MS
        apps.append(
            _app(
                f"loop{i}",
                p,
                [(f"s{i}", f"n_s{i}", MS), (f"c{i}", "n_ctrl", MS), (f"a{i}", f"n_a{i}", MS)],
                [(f"s{i}", f"c{i}", f"ms{i}"), (f"c{i}", f"a{i}", f"mc{i}")],
                p,
            )
        )
    return {
        "network": dict(WIDE_NETWORK),
        "grid_us": 5 * MS,
        "modes": [{"id": f"ladder{k}", "applications": apps}],
    }


def long_horizon(
    seed: int, round_len_us: int, hyperperiod_ms: int, n_loops: int, n_rounds: int
) -> tuple[dict, dict, dict, dict]:
    """(spec, long schedule, fallback schedule, scenario) of a two-mode system.

    Mode "long" runs n_loops 100 ms sensor -> actuator loops beside one slow
    solo task whose period is the hyperperiod, so the schedule repeats one
    round per 100 ms for hyperperiod_ms / 100 rounds.  Mode "fallback" is a
    single 100 ms loop with one round.  The schedules are constructed, not
    synthesized; the seed draws the offsets, the slack in every message
    window, the beacon loss rate and the switch request times.
    """
    rng = random.Random(seed)
    period = 100 * MS
    h = hyperperiod_ms * MS
    r_start = rng.randint(10, 15) * MS
    r_end = r_start + round_len_us
    apps, task_off, msg_off, msg_dl = [], {}, {}, {}
    for i in range(n_loops):
        a = rng.randint(0, 8) * MS
        mo = a + MS
        md = r_end - mo + rng.randint(1, 20) * MS
        apps.append(
            _app(f"loop{i}", period,
                 [(f"s{i}", f"n_s{i}", MS), (f"a{i}", f"n_a{i}", MS)],
                 [(f"s{i}", f"a{i}", f"m{i}")])
        )
        task_off[f"s{i}"] = a
        task_off[f"a{i}"] = mo + md
        msg_off[f"m{i}"] = mo
        msg_dl[f"m{i}"] = md
    slow_wcet = 5 * MS
    apps.append(_app("slow", h, [("slow0", "n_slow", slow_wcet)], []))
    task_off["slow0"] = rng.randint(0, (h - slow_wcet) // MS) * MS
    alloc = sorted(msg_off)
    long_sched = {
        "mode_id": "long",
        "hyperperiod_us": h,
        "round_len_us": round_len_us,
        "task_offsets": task_off,
        "message_offsets": msg_off,
        "message_deadlines": msg_dl,
        "rounds": [{"t": k * period + r_start, "alloc": alloc} for k in range(h // period)],
        "leftover": {m: 0 for m in alloc},
    }

    fb_start = rng.randint(10, 15) * MS
    fallback_sched = {
        "mode_id": "fallback",
        "hyperperiod_us": period,
        "round_len_us": round_len_us,
        "task_offsets": {"w1": 0, "w2": fb_start + round_len_us + MS},
        "message_offsets": {"wm": MS},
        "message_deadlines": {"wm": fb_start + round_len_us},
        "rounds": [{"t": fb_start, "alloc": ["wm"]}],
        "leftover": {"wm": 0},
    }
    fallback = _app("watch", period, [("w1", "n_s0", MS), ("w2", "n_a0", MS)],
                    [("w1", "w2", "wm")])
    spec = {
        "network": dict(WIDE_NETWORK),
        "grid_us": MS,
        "modes": [
            {"id": "long", "applications": apps},
            {"id": "fallback", "applications": [fallback]},
        ],
    }
    # the first request is served at the end of the long hyperperiod it
    # arrives in; the second returns to "long" a few seconds later
    first = rng.randint(h // 10, h // 2)
    scenario = {
        "initial_mode": "long",
        "n_rounds": n_rounds,
        "beacon_loss": rng.randint(5, 20) / 100,
        "seed": rng.randrange(2**31),
        "switches": [
            {"at_us": first, "to_mode": "fallback"},
            {"at_us": h + rng.randint(2, 6) * 1000 * MS, "to_mode": "long"},
        ],
    }
    return spec, long_sched, fallback_sched, scenario
