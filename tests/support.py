"""Shared builders and independent oracles used across the test suite.

The oracles here deliberately avoid the package's own arithmetic: counting
functions count events one by one, timing is recomputed from first
principles with Fractions, and path counts come from a DP over the DAG.
"""

from __future__ import annotations

import random
from fractions import Fraction

from roundsched.model import Application, Mode, Task
from roundsched.timing import NetworkParams

MS = 1000

#: the radio constants of timing, which a spec's network may not set
RADIO_KEYS = ("beacon_bytes", "cal_bytes", "header_bytes", "bitrate_bps",
              "wakeup_us", "start_us", "radio_delay_us", "gap_us")


def mk_app(
    app_id: str,
    period_ms: int,
    tasks: list[tuple[str, str, int]],
    edges: list[tuple[str, str, str]],
    deadline_ms: int | None = None,
) -> Application:
    """tasks entries are (id, node, wcet_ms); edges are (src, dst, msg)."""
    p = period_ms * MS
    d = (deadline_ms if deadline_ms is not None else period_ms) * MS
    return Application(
        id=app_id,
        period_us=p,
        deadline_us=d,
        tasks=tuple(Task(tid, node, w * MS) for tid, node, w in tasks),
        edges=tuple(edges),
    )


def control_app(period_ms: int = 100, wcet_ms: int = 1) -> Application:
    """Two sensors feed a controller that multicasts to two actuators."""
    return mk_app(
        "ctrl",
        period_ms,
        [
            ("t1", "n_sense_a", wcet_ms),
            ("t2", "n_sense_b", wcet_ms),
            ("t3", "n_ctrl", wcet_ms),
            ("t5", "n_act_a", wcet_ms),
            ("t6", "n_act_b", wcet_ms),
        ],
        [
            ("t1", "t3", "m1"),
            ("t2", "t3", "m2"),
            ("t3", "t5", "m3"),
            ("t3", "t6", "m3"),
        ],
    )


def control_mode(period_ms: int = 100) -> Mode:
    return Mode("normal", (control_app(period_ms),))


def ladder_mode(k: int, deadline_ms: int | None = None) -> Mode:
    """k sensor -> controller -> actuator loops sharing one controller node,
    periods alternating 200/400 ms, 1 ms tasks, deadlines equal to the
    periods unless deadline_ms is given.

    Loops of equal period are interchangeable (model.swap_map), so their
    latencies are ordered in the program.  Synthesized on a 5 ms grid over
    wide_params(hops=2), k = 4 needs four rounds and is proven optimal at
    444 ms summed latency in about 1.5 s (546 nodes) on a 2-core x86 VM.
    With k = 5 and 115 ms deadlines, four rounds (the lower bound) are
    infeasible, refuted in about 1.1 s, and five are optimal at 545 ms,
    proven only after about 8 s more.
    """
    apps = []
    for i in range(k):
        p = 200 if i % 2 == 0 else 400
        apps.append(
            mk_app(
                f"loop{i}",
                p,
                [(f"s{i}", f"n_s{i}", 1), (f"c{i}", "n_ctrl", 1), (f"a{i}", f"n_a{i}", 1)],
                [(f"s{i}", f"c{i}", f"ms{i}"), (f"c{i}", f"a{i}", f"mc{i}")],
                deadline_ms=deadline_ms,
            )
        )
    return Mode(f"ladder{k}", tuple(apps))


def pipeline_app(n_tasks: int, period_ms: int = 1000) -> Application:
    """One chain t0000 -m0000-> t0001 -> ... of n_tasks 1 ms tasks, each on
    a node of its own: deeper than Python's default recursion limit once
    n_tasks passes about 1000."""
    tids = [f"t{i:04d}" for i in range(n_tasks)]
    return mk_app(
        "pipe",
        period_ms,
        [(tid, f"n_{tid}", 1) for tid in tids],
        [(tids[i], tids[i + 1], f"m{i:04d}") for i in range(n_tasks - 1)],
    )


def wide_params(hops: int = 4) -> NetworkParams:
    """The reference deployment: 5 data slots of 10-byte payloads."""
    return NetworkParams(hops=hops, slots_per_round=5, payload_bytes=10)


def small_params(slots: int = 2, payload: int = 8) -> NetworkParams:
    """A short-round deployment used by the randomized corpora."""
    return NetworkParams(
        hops=1, slots_per_round=slots, payload_bytes=payload, retransmissions=1
    )


def random_small_case(seed: int) -> tuple[Mode, NetworkParams]:
    """A seeded workload small enough for the exhaustive oracle.

    Shapes rotate through pipelines, fan-in, multicast fan-out, a pipeline
    squeezed by a long solo task, and two independent pipelines with
    harmonic periods.  Node sharing is random, so processor conflicts and
    infeasible cases occur naturally.
    """
    rng = random.Random(seed)
    params = small_params(slots=rng.choice([1, 2, 3]))
    nodes = [f"n{i}" for i in range(rng.choice([2, 3, 4]))]

    def pick() -> str:
        return rng.choice(nodes)

    def wc() -> int:
        return rng.randint(1, 4)

    def dl(p: int) -> int:
        return rng.choice([p, p, 4 * p // 5])

    shape = rng.choice(["pipe2", "pipe3", "fanin", "fanout", "squeeze", "pair"])
    p = rng.choice([20, 40, 50, 100])
    if shape == "pipe2":
        apps = [
            mk_app(
                "a",
                p,
                [("t1", pick(), wc()), ("t2", pick(), wc())],
                [("t1", "t2", "m")],
                deadline_ms=dl(p),
            )
        ]
    elif shape == "pipe3":
        apps = [
            mk_app(
                "a",
                p,
                [("t1", pick(), wc()), ("t2", pick(), wc()), ("t3", pick(), wc())],
                [("t1", "t2", "m1"), ("t2", "t3", "m2")],
                deadline_ms=dl(p),
            )
        ]
    elif shape == "fanin":
        apps = [
            mk_app(
                "a",
                p,
                [("t1", pick(), wc()), ("t2", pick(), wc()), ("t3", pick(), wc())],
                [("t1", "t3", "m1"), ("t2", "t3", "m2")],
                deadline_ms=dl(p),
            )
        ]
    elif shape == "fanout":
        apps = [
            mk_app(
                "a",
                p,
                [("t1", pick(), wc()), ("t2", pick(), wc()), ("t3", pick(), wc())],
                [("t1", "t2", "m"), ("t1", "t3", "m")],
                deadline_ms=dl(p),
            )
        ]
    elif shape == "squeeze":
        apps = [
            mk_app(
                "blk",
                p,
                [("t0", nodes[0], rng.randint(6 * p // 10, 8 * p // 10))],
                [],
            ),
            mk_app(
                "a",
                p,
                [("t1", nodes[0], wc()), ("t2", pick(), wc())],
                [("t1", "t2", "m")],
                deadline_ms=dl(p),
            ),
        ]
    else:
        p1, p2 = rng.choice([(20, 20), (20, 40), (50, 100), (40, 40), (100, 100)])
        apps = [
            mk_app(
                "a1",
                p1,
                [("a1t1", pick(), wc()), ("a1t2", pick(), wc())],
                [("a1t1", "a1t2", "m1")],
                deadline_ms=dl(p1),
            ),
            mk_app(
                "a2",
                p2,
                [("a2t1", pick(), wc()), ("a2t2", pick(), wc())],
                [("a2t1", "a2t2", "m2")],
                deadline_ms=dl(p2),
            ),
        ]
    return Mode(id=f"rand{seed}", applications=tuple(apps)), params


# --- independent oracles ----------------------------------------------------


def enumerate_milp(inst) -> tuple[str, int | None]:
    """Minimize by trying every integer point of the variable box.

    Row evaluation is done here with plain sums so the oracle shares no
    arithmetic with the solver under test.
    """
    from itertools import product

    total = 1
    for v in inst.variables:
        total *= v.ub - v.lb + 1
        if total > 3_000_000:
            raise ValueError("box too large to enumerate")
    best = None
    for point in product(*(range(v.lb, v.ub + 1) for v in inst.variables)):
        ok = True
        for row in inst.rows:
            s = sum(cf * point[i] for i, cf in row.coeffs.items())
            if (row.sense == "<=" and s > row.rhs) or (
                row.sense == "==" and s != row.rhs
            ):
                ok = False
                break
        if not ok:
            continue
        obj = sum(cf * point[i] for i, cf in inst.objective.items())
        if best is None or obj < best:
            best = obj
    return ("infeasible", None) if best is None else ("optimal", best)


def random_ilp(seed: int):
    """A tiny seeded integer program with a mix of feasible and not."""
    from roundsched.ilp import ILPInstance

    rng = random.Random(seed ^ 0x5EED)
    inst = ILPInstance(name=f"tiny{seed}")
    nv = rng.randint(2, 4)
    for i in range(nv):
        if rng.random() < 0.4:
            inst.add_var(f"v{i}", 0, 1)
        else:
            lb = rng.randint(-2, 1)
            inst.add_var(f"v{i}", lb, lb + rng.randint(0, 3))
    anchor = [rng.randint(v.lb, v.ub) for v in inst.variables]
    for r in range(rng.randint(2, 5)):
        support = rng.sample(range(nv), rng.randint(1, nv))
        coeffs = {i: rng.choice([-3, -2, -1, 1, 2, 3]) for i in support}
        at_anchor = sum(cf * anchor[i] for i, cf in coeffs.items())
        if rng.random() < 0.25:
            inst.add_row(f"c{r}", coeffs, "==", at_anchor + rng.choice([0, 0, 1]))
        else:
            inst.add_row(f"c{r}", coeffs, "<=", at_anchor + rng.randint(-1, 2))
    for i in rng.sample(range(nv), rng.randint(1, nv)):
        inst.objective[i] = rng.choice([-2, -1, 1, 2, 3])
    return inst


def af_oracle(offset: int, period: int, t: int) -> int:
    """Count releases offset + k*period <= t by stepping k."""
    n = 0
    k = 0
    while offset + k * period <= t:
        n += 1
        k += 1
    return n


def df_oracle(offset: int, deadline: int, period: int, t: int) -> int:
    """Signed deadline count: instances k >= 0 whose deadline lies strictly
    before t, minus instances k < 0 whose deadline does not.  With
    offset < period and deadline <= period only k = -1 can contribute to
    the negative part."""
    pos = 0
    k = 0
    while offset + deadline + k * period < t:
        pos += 1
        k += 1
    neg = 1 if offset + deadline - period >= t else 0
    return pos - neg


def sv_oracle(mid: str, t: int, rounds, carried: int, round_len: int) -> int:
    n = -carried
    for r in rounds:
        if r.t + round_len < t:
            n += sum(1 for a in r.alloc if a == mid)
    return n


def slot_oracle_us(payload: int, hops: int, retx: int) -> tuple[int, int]:
    """(on, off) of one slot from raw constants, Fraction arithmetic."""
    bits = 8 * (3 + 6 + payload)
    tx = Fraction(bits, 250_000) * 1_000_000
    tx_us = int((tx + Fraction(1, 2)).__floor__())
    on = 164 + (hops + 2 * retx - 1) * (68 + tx_us)
    off = 750 + 3000
    return on, off


def round_oracle_us(payload: int, slots: int, hops: int, retx: int = 2) -> int:
    bon, boff = slot_oracle_us(3, hops, retx)
    don, doff = slot_oracle_us(payload, hops, retx)
    return (bon + boff) + slots * (don + doff)


def path_count_oracle(n_tasks: int, edges: list[tuple[int, int]]) -> int:
    """Maximal source-to-sink path count of a DAG on vertices 0..n-1 whose
    edges go low to high; parallel edges count separately."""
    out: dict[int, list[int]] = {v: [] for v in range(n_tasks)}
    has_in = set()
    for a, b in edges:
        out[a].append(b)
        has_in.add(b)
    memo: dict[int, int] = {}

    def npaths(v: int) -> int:
        if v in memo:
            return memo[v]
        if not out[v]:
            memo[v] = 1
        else:
            memo[v] = sum(npaths(w) for w in out[v])
        return memo[v]

    return sum(npaths(v) for v in range(n_tasks) if v not in has_in)
