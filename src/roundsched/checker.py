"""Schedule verification and an exhaustive minimum-round-count oracle.

check() re-derives every scheduling property straight from the model and
the counting step functions; it shares no code with the ILP construction,
so the two can disagree only if one of them is wrong.  Up to sorting,
the audit is linear in the rounds plus each message's check instants: the
allocations are gathered in one pass over the rounds, and each message's
demand <= service <= arrival ordering is checked in one merged sweep of
its instants and round ends (stepfuncs.first_order_violation).

brute_force_min_rounds() searches the full (grid-aligned) design space of
small instances.  It exists to pin down optimal round counts for the
synthesis tests and is deliberately limited to tiny problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .model import (
    Application,
    Mode,
    ModeSchedule,
    Round,
    Task,
    Violation,
    chains,
    hyperperiod,
)
from .stepfuncs import (
    MsgTiming,
    check_order,
    deadline_instants,
    first_order_violation,
    release_instants,
)
from .timing import NetworkParams, round_length

VERDICT_FAMILIES = (
    "domains",
    "round_gap",
    "round_overlap",
    "slot_capacity",
    "node_exclusive",
    "precedence",
    "e2e_deadline",
    "conservation",
    "leftover",
    "service_after_release",
    "service_before_deadline",
    "curve_order",
)


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


@dataclass
class CheckReport:
    """Outcome of one schedule check, grouped into verdict families."""

    violations: list[Violation] = field(default_factory=list)
    evaluated: set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.violations and self.evaluated == set(VERDICT_FAMILIES)

    def add(self, family: str, where: str, detail: str) -> None:
        assert family in VERDICT_FAMILIES
        self.violations.append(Violation(family, where, detail))

    def failed(self) -> set[str]:
        return {v.code for v in self.violations}

    def by_family(self) -> dict[str, str]:
        bad = self.failed()
        out = {}
        for fam in VERDICT_FAMILIES:
            if fam in bad:
                out[fam] = "fail"
            elif fam in self.evaluated:
                out[fam] = "pass"
            else:
                out[fam] = "skipped"
        return out

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        lines = [f"{fam}: {state}" for fam, state in self.by_family().items()]
        lines += [str(v) for v in self.violations]
        return "\n".join(lines)


def _overlap_cyclic(
    o_i: int, e_i: int, p_i: int, o_j: int, e_j: int, p_j: int
) -> bool:
    """Do any two execution instances of the tasks ever overlap?

    Start-time differences reachable between the two periodic patterns are
    exactly the residue class (o_j - o_i) mod gcd(p_i, p_j), so one modular
    comparison replaces enumerating instance pairs.  Intervals are half
    open, so back-to-back execution is fine.
    """
    g = math.gcd(p_i, p_j)
    d0 = (o_j - o_i) % g
    return d0 < e_i or d0 > g - e_j


def check(mode: Mode, schedule: ModeSchedule, params: NetworkParams) -> CheckReport:
    """Verify a schedule against the mode it claims to implement."""
    rep = CheckReport()
    t_r = round_length(params)
    h = hyperperiod(mode)
    tasks = mode.all_tasks()
    msgs = mode.all_messages()
    period_of = {m.id: m.period_us for m in msgs.values()}

    # -- domains -------------------------------------------------------------
    rep.evaluated.add("domains")
    structural = False
    if schedule.mode_id != mode.id:
        rep.add("domains", "schedule", f"mode id {schedule.mode_id!r} != {mode.id!r}")
    if schedule.hyperperiod_us != h:
        rep.add(
            "domains",
            "schedule",
            f"hyperperiod {schedule.hyperperiod_us} != {h}",
        )
    if schedule.round_len_us != t_r:
        rep.add(
            "domains",
            "schedule",
            f"round length {schedule.round_len_us} != {t_r} from network params",
        )
    for name, have, want in (
        ("task_offsets", set(schedule.task_offsets), set(tasks)),
        ("message_offsets", set(schedule.message_offsets), set(msgs)),
        ("message_deadlines", set(schedule.message_deadlines), set(msgs)),
        ("leftover", set(schedule.leftover), set(msgs)),
    ):
        if have != want:
            structural = True
            missing = sorted(want - have)
            extra = sorted(have - want)
            rep.add("domains", name, f"missing={missing} unexpected={extra}")
    for r_idx, r in enumerate(schedule.rounds):
        for mid in r.alloc:
            if mid not in msgs:
                rep.add("domains", f"round {r_idx}", f"unknown message {mid!r}")
    if structural:
        return rep

    for tid, t in tasks.items():
        o = schedule.task_offsets[tid]
        if not 0 <= o <= t.period_us - t.wcet_us:
            rep.add(
                "domains",
                f"task {tid}",
                f"offset {o} outside [0, {t.period_us - t.wcet_us}]",
            )
    for mid, m in msgs.items():
        o = schedule.message_offsets[mid]
        d = schedule.message_deadlines[mid]
        if not 0 <= o < m.period_us:
            rep.add("domains", f"message {mid}", f"offset {o} outside [0, {m.period_us})")
        if not 0 < d <= m.period_us:
            rep.add(
                "domains", f"message {mid}", f"deadline {d} outside (0, {m.period_us}]"
            )

    # -- rounds --------------------------------------------------------------
    rep.evaluated.update({"round_gap", "round_overlap", "slot_capacity"})
    order = sorted(range(len(schedule.rounds)), key=lambda i: schedule.rounds[i].t)
    for i in order:
        r = schedule.rounds[i]
        if r.t < 0 or r.t + t_r > h:
            rep.add(
                "round_gap",
                f"round {i}",
                f"[{r.t}, {r.t + t_r}] not inside hyperperiod [0, {h}]",
            )
        if len(r.alloc) > params.slots_per_round:
            rep.add(
                "slot_capacity",
                f"round {i}",
                f"{len(r.alloc)} slots used, {params.slots_per_round} available",
            )
    for a, b in zip(order, order[1:]):
        ra, rb = schedule.rounds[a], schedule.rounds[b]
        if rb.t < ra.t + t_r:
            rep.add(
                "round_overlap",
                f"rounds {a},{b}",
                f"start {rb.t} before {ra.t} + {t_r}",
            )
    for i in range(1, len(schedule.rounds)):
        if schedule.rounds[i].t < schedule.rounds[i - 1].t:
            rep.add(
                "round_overlap",
                f"rounds {i - 1},{i}",
                f"listed out of time order: start {schedule.rounds[i].t} "
                f"after start {schedule.rounds[i - 1].t}",
            )

    # -- node exclusivity ----------------------------------------------------
    rep.evaluated.add("node_exclusive")
    placed = sorted(tasks.values(), key=lambda t: t.id)
    for i, ti in enumerate(placed):
        for tj in placed[i + 1 :]:
            if ti.node != tj.node:
                continue
            if _overlap_cyclic(
                schedule.task_offsets[ti.id],
                ti.wcet_us,
                ti.period_us,
                schedule.task_offsets[tj.id],
                tj.wcet_us,
                tj.period_us,
            ):
                rep.add(
                    "node_exclusive",
                    f"node {ti.node}",
                    f"tasks {ti.id} and {tj.id} overlap",
                )

    # -- precedence and end-to-end deadlines ---------------------------------
    rep.evaluated.update({"precedence", "e2e_deadline"})
    sig_p: dict[str, int] = {}
    sig_c: dict[tuple[str, str], int] = {}
    for app in mode.applications:
        p = app.period_us
        for m in app.messages:
            prods = app.producers(m.id)
            if not prods:
                sig_p[m.id] = 0
                continue
            prod = app.task_by_id(prods[0])
            done = schedule.task_offsets[prod.id] + prod.wcet_us
            s = max(0, _ceil_div(done - schedule.message_offsets[m.id], p))
            sig_p[m.id] = s
            if s > 1:
                rep.add(
                    "precedence",
                    f"message {m.id}",
                    f"release slips {s} periods past producer {prod.id}",
                )
        for src, dst, mid in app.edges:
            bound = schedule.message_offsets[mid] + schedule.message_deadlines[mid]
            s = max(0, _ceil_div(bound - schedule.task_offsets[dst], p))
            sig_c[(mid, dst)] = s
            if s > 1:
                rep.add(
                    "precedence",
                    f"edge {src}->{dst}",
                    f"consumer start slips {s} periods past message {mid} deadline",
                )
    for app in mode.applications:
        p = app.period_us
        for ch in chains(app):
            first = app.task_by_id(ch.first_task)
            last = app.task_by_id(ch.last_task)
            shifts = 0
            for k, mid in enumerate(ch.message_ids):
                consumer = ch.task_ids[k + 1]
                shifts += sig_p[mid] + sig_c[(mid, consumer)]
            lat = (
                schedule.task_offsets[last.id]
                + last.wcet_us
                - schedule.task_offsets[first.id]
                + p * shifts
            )
            if lat > app.deadline_us:
                rep.add(
                    "e2e_deadline",
                    f"chain {'>'.join(ch.task_ids)}",
                    f"latency {lat} us exceeds deadline {app.deadline_us} us",
                )

    # -- per-message service -------------------------------------------------
    rep.evaluated.update(
        {
            "conservation",
            "leftover",
            "service_after_release",
            "service_before_deadline",
            "curve_order",
        }
    )
    rounds_sorted = tuple(sorted(schedule.rounds, key=lambda r: r.t))
    # one entry per allocated slot, in round order; unknown ids were
    # reported under domains
    allocs_of: dict[str, list[Round]] = {mid: [] for mid in msgs}
    for r in rounds_sorted:
        for slot in r.alloc:
            if slot in allocs_of:
                allocs_of[slot].append(r)
    round_points = {0, h}
    round_points.update(min(h + 1, r.t + t_r + 1) for r in rounds_sorted)
    for mid in sorted(msgs):
        p = period_of[mid]
        o = schedule.message_offsets[mid]
        d = schedule.message_deadlines[mid]
        r0 = schedule.leftover[mid]
        n_inst = h // p
        allocs = allocs_of[mid]

        if r0 not in (0, 1):
            rep.add("leftover", f"message {mid}", f"carried count {r0} not 0 or 1")
        elif r0 == 1 and o + d <= p:
            rep.add(
                "leftover",
                f"message {mid}",
                "carried service claimed but the window never crosses the origin",
            )

        if len(allocs) != n_inst:
            rep.add(
                "conservation",
                f"message {mid}",
                f"{len(allocs)} slots allocated per hyperperiod, need {n_inst}",
            )
        elif r0 in (0, 1):
            # FIFO pairing: allocation j (by round order) serves instance
            # j - r0; a carried unit pairs the first allocation with the
            # previous hyperperiod's wrapped instance.
            if r0 == 1:
                end = allocs[0].t + t_r
                if end > o + d - p:
                    rep.add(
                        "service_before_deadline",
                        f"message {mid}",
                        f"carried instance served at {allocs[0].t}, "
                        f"round end {end} past wrapped deadline {o + d - p}",
                    )
            for k in range(n_inst):
                j = k + r0
                if j >= len(allocs):
                    continue  # served cyclically by the next hyperperiod's head
                rel = o + k * p
                dl = rel + d
                r = allocs[j]
                if r.t < rel:
                    rep.add(
                        "service_after_release",
                        f"message {mid}",
                        f"instance {k} released {rel}, round starts {r.t}",
                    )
                if r.t + t_r > dl:
                    rep.add(
                        "service_before_deadline",
                        f"message {mid}",
                        f"instance {k} due {dl}, round ends {r.t + t_r}",
                    )

        if r0 in (0, 1):
            mt = MsgTiming(mid, o, d, p)
            points = set(round_points)
            points.update(x for x in release_instants(mt, h) if x <= h)
            points.update(x + 1 for x in deadline_instants(mt, h) if x + 1 <= h + 1)
            t = first_order_violation(
                mt, sorted(points), [r.t + t_r for r in allocs], r0
            )
            if t is not None:
                # the one-instant definition words the violation
                rep.add(
                    "curve_order",
                    f"message {mid}",
                    check_order(mt, t, rounds_sorted, r0, t_r),
                )

    return rep


# --------------------------------------------------------------------------
# exhaustive oracle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Window:
    lo: int  # earliest admissible round start (grid aligned)
    hi: int  # latest admissible round start (grid aligned)
    mid: str


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise ValueError("oracle search budget exceeded; instance too large")


def _edf_assign(
    windows: list[_Window], starts: list[int], cap: int
) -> list[int] | None:
    """Assign each window one slot in a round it contains, earliest-fit by
    deadline order; returns the round index per window or None."""
    free = [cap] * len(starts)
    out: list[int] = []
    for w in sorted(range(len(windows)), key=lambda i: (windows[i].hi, windows[i].lo)):
        pick = -1
        for i, s in enumerate(starts):
            if windows[w].lo <= s <= windows[w].hi and free[i] > 0:
                pick = i
                break
        if pick < 0:
            return None
        free[pick] -= 1
        out.append(pick)
    # restore original window order
    order = sorted(range(len(windows)), key=lambda i: (windows[i].hi, windows[i].lo))
    assign = [0] * len(windows)
    for slot, w_idx in zip(out, order):
        assign[w_idx] = slot
    return assign


def _candidate_starts(
    windows: list[_Window], t_r: int, grid: int, budget: _Budget
) -> list[int]:
    """Right-shift closure: any feasible round set can be pushed right until
    every start sits at some window's latest start or a full round before
    another candidate."""
    base = sorted({w.hi for w in windows})
    seen = set(base)
    queue = list(base)
    while queue:
        budget.spend()
        c = queue.pop()
        nxt = ((c - t_r) // grid) * grid
        if nxt >= 0 and nxt not in seen:
            seen.add(nxt)
            queue.append(nxt)
    return sorted(seen)


def _min_rounds_for_windows(
    windows: list[_Window],
    t_r: int,
    h: int,
    grid: int,
    cap: int,
    memo: dict,
    budget: _Budget,
) -> tuple[int, list[int], list[int]] | None:
    """Fewest non-overlapping rounds serving every window, with the chosen
    starts and the window-to-round assignment; None if impossible."""
    if not windows:
        return 0, [], []
    if any(w.hi < w.lo or w.lo < 0 or w.hi > h - t_r for w in windows):
        return None
    key = tuple(sorted((w.lo, w.hi, w.mid) for w in windows))
    if key in memo:
        return memo[key]
    cands = _candidate_starts(windows, t_r, grid, budget)
    r_cap = h // t_r
    lo_count = _ceil_div(len(windows), cap)

    result = None
    for r_target in range(lo_count, r_cap + 1):
        chosen: list[int] = []

        def dfs(idx: int) -> list[int] | None:
            budget.spend()
            if len(chosen) == r_target:
                return _edf_assign(windows, chosen, cap)
            if len(cands) - idx < r_target - len(chosen):
                return None
            for i in range(idx, len(cands)):
                if chosen and cands[i] < chosen[-1] + t_r:
                    continue
                chosen.append(cands[i])
                got = dfs(i + 1)
                if got is not None:
                    return got
                chosen.pop()
            return None

        assign = dfs(0)
        if assign is not None:
            result = (r_target, list(chosen), assign)
            break
    memo[key] = result
    return result


def _toposorted_tasks(app: Application) -> list[Task]:
    indeg = {t.id: 0 for t in app.tasks}
    for _src, dst, _mid in app.edges:
        indeg[dst] += 1
    ready = sorted(tid for tid, k in indeg.items() if k == 0)
    out: list[Task] = []
    while ready:
        tid = ready.pop(0)
        out.append(app.task_by_id(tid))
        for src, dst, _mid in app.edges:
            if src == tid:
                indeg[dst] -= 1
                if indeg[dst] == 0 and dst not in [t.id for t in out]:
                    ready.append(dst)
        ready.sort()
    return out


def brute_force_min_rounds(
    mode: Mode,
    params: NetworkParams,
    grid_us: int,
    *,
    max_grid_points: int = 200,
    max_messages: int = 3,
    max_tasks: int = 6,
    search_budget: int = 2_000_000,
) -> tuple[int | None, ModeSchedule | None]:
    """Exhaustively find the smallest feasible round count for a tiny mode.

    Enumerates grid-aligned task offsets, derives the widest admissible
    service window for every message (branching on which side of the
    hyperperiod boundary a wrapping instance is served), and solves the
    round-placement subproblem exactly.  Raises ValueError when the
    instance exceeds the documented size limits.
    """
    h = hyperperiod(mode)
    t_r = round_length(params)
    cap = params.slots_per_round
    tasks = list(mode.all_tasks().values())
    msgs = list(mode.all_messages().values())
    if h % grid_us:
        raise ValueError("hyperperiod must be a multiple of the grid")
    if h // grid_us > max_grid_points:
        raise ValueError(f"hyperperiod/grid {h // grid_us} exceeds {max_grid_points}")
    if len(msgs) > max_messages or len(tasks) > max_tasks:
        raise ValueError("too many tasks or messages for the oracle")
    for app in mode.applications:
        if app.period_us % grid_us:
            raise ValueError("application periods must be grid aligned")

    budget = _Budget(search_budget)
    memo: dict = {}

    def ceil_g(x: int) -> int:
        return _ceil_div(x, grid_us) * grid_us

    def floor_g(x: int) -> int:
        return (x // grid_us) * grid_us

    total_instances = sum(h // m.period_us for m in msgs)
    global_lb = _ceil_div(total_instances, cap) if msgs else 0

    producers: dict[str, Task] = {}
    consumers: dict[str, list[str]] = {}
    app_of_msg: dict[str, Application] = {}
    for app in mode.applications:
        for m in app.messages:
            producers[m.id] = app.task_by_id(app.producers(m.id)[0])
            consumers[m.id] = sorted({dst for _s, dst, mid in app.edges if mid == m.id})
            app_of_msg[m.id] = app
    chain_cache = {app.id: chains(app) for app in mode.applications}

    task_order: list[Task] = []
    for app in mode.applications:
        task_order.extend(_toposorted_tasks(app))
    app_by_task = {t.id: app for app in mode.applications for t in app.tasks}

    best: list = [None, None]  # (count, witness pieces)

    def edge_shift_lb(o_done: int, o_c: int, p: int) -> int:
        """Fewest总 period shifts letting one round fit between handoffs."""
        return max(0, _ceil_div(ceil_g(o_done) + t_r - o_c, p))

    def prefix_ok(offsets: dict[str, int]) -> bool:
        for app in mode.applications:
            p = app.period_us
            for ch in chain_cache[app.id]:
                tids = ch.task_ids
                n_placed = 0
                for tid in tids:
                    if tid not in offsets:
                        break
                    n_placed += 1
                if n_placed == 0:
                    continue
                first = app.task_by_id(tids[0])
                lastp = app.task_by_id(tids[n_placed - 1])
                lat = offsets[lastp.id] + lastp.wcet_us - offsets[first.id]
                for k in range(n_placed - 1):
                    prod = app.task_by_id(tids[k])
                    s = edge_shift_lb(
                        offsets[tids[k]] + prod.wcet_us, offsets[tids[k + 1]], p
                    )
                    if s > 2:
                        return False
                    lat += p * s
                rest = tids[n_placed:]
                lat += sum(app.task_by_id(t).wcet_us for t in rest)
                lat += t_r * len(rest)  # one round between every later handoff
                if lat > app.deadline_us:
                    return False
        return True

    def msg_candidates(offsets: dict[str, int], m_id: str) -> list[tuple[int, int]]:
        """(frame offset, candidate deadline) pairs, widest first."""
        p = app_of_msg[m_id].period_us
        prod = producers[m_id]
        done = offsets[prod.id] + prod.wcet_us
        o_frame = done % p
        caps = [offsets[c] + p - o_frame for c in consumers[m_id]]
        hard = min(min(caps), p)
        vals = set()
        for c in consumers[m_id]:
            for s in (0, 1):
                v = offsets[c] + s * p - o_frame
                if 1 <= v <= hard:
                    vals.add(v)
        if hard >= 1:
            vals.add(hard)
        return [(o_frame, v) for v in sorted(vals, reverse=True)]

    def e2e_ok(offsets: dict[str, int], choice: dict[str, tuple[int, int]]) -> bool:
        for app in mode.applications:
            p = app.period_us
            for ch in chain_cache[app.id]:
                first = app.task_by_id(ch.first_task)
                last = app.task_by_id(ch.last_task)
                shifts = 0
                for k, mid in enumerate(ch.message_ids):
                    o_frame, v = choice[mid]
                    prod = producers[mid]
                    done = offsets[prod.id] + prod.wcet_us
                    shifts += done // p  # 1 only when completion lands on the period edge
                    cons = ch.task_ids[k + 1]
                    shifts += max(0, _ceil_div(o_frame + v - offsets[cons], p))
                lat = offsets[last.id] + last.wcet_us - offsets[first.id] + p * shifts
                if lat > app.deadline_us:
                    return False
        return True

    def windows_for(
        choice: dict[str, tuple[int, int]], wrap_late: dict[str, int]
    ) -> list[_Window] | None:
        out: list[_Window] = []
        for mid, (o_frame, v) in sorted(choice.items()):
            p = app_of_msg[mid].period_us
            n_inst = h // p
            wraps = o_frame + v > p
            for k in range(n_inst):
                rel = o_frame + k * p
                lo = ceil_g(rel)
                if wraps and k == n_inst - 1:
                    if wrap_late.get(mid, 0):
                        lo, hi = 0, floor_g(rel + v - h - t_r)
                    else:
                        hi = floor_g(h - t_r)
                else:
                    hi = floor_g(rel + v - t_r)
                if hi < lo:
                    return None
                out.append(_Window(lo, hi, mid))
        return out

    def try_leaf(offsets: dict[str, int]) -> None:
        cand_lists = [msg_candidates(offsets, m.id) for m in msgs]
        if any(not c for c in cand_lists):
            return
        for combo in product(*cand_lists):
            choice = {m.id: cv for m, cv in zip(msgs, combo)}
            if not e2e_ok(offsets, choice):
                continue
            wrapping = [
                mid for mid, (o_f, v) in choice.items() if o_f + v > choice_period(mid)
            ]
            for late_bits in product((0, 1), repeat=len(wrapping)):
                wrap_late = dict(zip(wrapping, late_bits))
                ws = windows_for(choice, wrap_late)
                if ws is None:
                    continue
                got = _min_rounds_for_windows(ws, t_r, h, grid_us, cap, memo, budget)
                if got is None:
                    continue
                count, starts, assign = got
                if best[0] is None or count < best[0]:
                    best[0] = count
                    best[1] = (dict(offsets), dict(choice), dict(wrap_late), ws, starts, assign)
                    if best[0] == global_lb:
                        return

    def choice_period(mid: str) -> int:
        return app_of_msg[mid].period_us

    def place(idx: int, offsets: dict[str, int]) -> None:
        if best[0] is not None and best[0] == global_lb:
            return
        if idx == len(task_order):
            try_leaf(offsets)
            return
        t = task_order[idx]
        for o in range(0, t.period_us - t.wcet_us + 1, grid_us):
            budget.spend()
            clash = False
            for other_id, oo in offsets.items():
                other = app_by_task[other_id].task_by_id(other_id)
                if other.node == t.node and _overlap_cyclic(
                    oo, other.wcet_us, other.period_us, o, t.wcet_us, t.period_us
                ):
                    clash = True
                    break
            if clash:
                continue
            offsets[t.id] = o
            if prefix_ok(offsets):
                place(idx + 1, offsets)
            del offsets[t.id]

    place(0, {})

    if best[0] is None:
        return None, None

    offsets, choice, wrap_late, ws, starts, assign = best[1]
    alloc_by_round: dict[int, list[str]] = {i: [] for i in range(len(starts))}
    for w, r_idx in zip(ws, assign):
        alloc_by_round[r_idx].append(w.mid)
    rounds = tuple(
        Round(s, tuple(sorted(alloc_by_round[i])))
        for i, s in sorted(enumerate(starts), key=lambda x: x[1])
    )
    witness = ModeSchedule(
        mode_id=mode.id,
        hyperperiod_us=h,
        round_len_us=t_r,
        task_offsets=dict(sorted(offsets.items())),
        message_offsets={mid: choice[mid][0] for mid in sorted(choice)},
        message_deadlines={mid: choice[mid][1] for mid in sorted(choice)},
        rounds=rounds,
        leftover={
            mid: (
                wrap_late.get(mid, 0)
                if choice[mid][0] + choice[mid][1] > choice_period(mid)
                else 0
            )
            for mid in sorted(choice)
        },
    )
    return best[0], witness
