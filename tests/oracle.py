"""Exhaustive minimum-round-count oracle, test side only.

brute_force_min_rounds() searches the full (grid-aligned) design space of
small instances.  It exists to pin down optimal round counts for the
synthesis tests and is deliberately limited to tiny problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from roundsched.checker import _ceil_div, _overlap_cyclic
from roundsched.model import (
    Application,
    Mode,
    ModeSchedule,
    Round,
    Task,
    chains,
    hyperperiod,
)
from roundsched.timing import NetworkParams, round_length


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
        # one round still: a mode's beacons announce its mode changes
        return (1, [0], []) if t_r <= h else None
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


def _toposorted_tasks(app: Application, tasks: dict[str, Task]) -> list[Task]:
    indeg = {t.id: 0 for t in app.tasks}
    for _src, dst, _mid in app.edges:
        indeg[dst] += 1
    ready = sorted(tid for tid, k in indeg.items() if k == 0)
    out: list[Task] = []
    while ready:
        tid = ready.pop(0)
        out.append(tasks[tid])
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
    task_of = mode.all_tasks()
    task_period = mode.task_periods()
    msgs = mode.message_periods()
    if h % grid_us:
        raise ValueError("hyperperiod must be a multiple of the grid")
    if h // grid_us > max_grid_points:
        raise ValueError(f"hyperperiod/grid {h // grid_us} exceeds {max_grid_points}")
    if len(msgs) > max_messages or len(task_of) > max_tasks:
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

    total_instances = sum(h // p for p in msgs.values())
    global_lb = max(1, _ceil_div(total_instances, cap))

    producers = mode.producers()
    consumers: dict[str, list[str]] = {}
    app_of_msg: dict[str, Application] = {}
    for app in mode.applications:
        for m_id in app.message_ids:
            consumers[m_id] = sorted({dst for _s, dst, mid in app.edges if mid == m_id})
            app_of_msg[m_id] = app

    def produced(offsets: dict[str, int], m_id: str) -> int:
        """When the producer of m_id finishes."""
        prod = producers[m_id]
        return offsets[prod.id] + prod.wcet_us

    chain_cache = {app.id: chains(app) for app in mode.applications}

    task_order: list[Task] = []
    for app in mode.applications:
        task_order.extend(_toposorted_tasks(app, task_of))

    best: list = [None, None]  # (count, witness pieces)

    def edge_shift_lb(o_done: int, o_c: int, p: int) -> int:
        """Fewest period shifts letting one round fit between handoffs."""
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
                first = task_of[tids[0]]
                lastp = task_of[tids[n_placed - 1]]
                lat = offsets[lastp.id] + lastp.wcet_us - offsets[first.id]
                for k in range(n_placed - 1):
                    prod = task_of[tids[k]]
                    s = edge_shift_lb(
                        offsets[tids[k]] + prod.wcet_us, offsets[tids[k + 1]], p
                    )
                    if s > 2:
                        return False
                    lat += p * s
                rest = tids[n_placed:]
                lat += sum(task_of[t].wcet_us for t in rest)
                lat += t_r * len(rest)  # one round between every later handoff
                if lat > app.deadline_us:
                    return False
        return True

    def msg_candidates(offsets: dict[str, int], m_id: str) -> list[tuple[int, int]]:
        """(frame offset, candidate deadline) pairs, widest first."""
        p = app_of_msg[m_id].period_us
        done = produced(offsets, m_id)
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
                first = task_of[ch.first_task]
                last = task_of[ch.last_task]
                shifts = 0
                for k, mid in enumerate(ch.message_ids):
                    o_frame, v = choice[mid]
                    done = produced(offsets, mid)
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
        cand_lists = [msg_candidates(offsets, m_id) for m_id in msgs]
        if any(not c for c in cand_lists):
            return
        for combo in product(*cand_lists):
            choice = dict(zip(msgs, combo))
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
        p = task_period[t.id]
        for o in range(0, p - t.wcet_us + 1, grid_us):
            budget.spend()
            clash = False
            for other_id, oo in offsets.items():
                other = task_of[other_id]
                if other.node == t.node and _overlap_cyclic(
                    oo, other.wcet_us, task_period[other_id], o, t.wcet_us, p
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
