"""Schedule verification.

check() re-derives every scheduling property straight from the model and
the counting step functions; it shares no code with the ILP construction,
so the two can disagree only if one of them is wrong.  Up to sorting,
the audit is linear in the rounds plus each message's check instants up
to its first failing one: the allocations are gathered in one pass over
the rounds, and each message's demand <= service <= arrival ordering is
checked in one lazily merged sweep of its instants and round ends
(stepfuncs.first_order_violation), which stops at the first failing
instant and words the curve_order violation from its counts.  A schedule
that passes allocates one slot per instance, so the cost follows the
schedule file, not the hyperperiod or the offsets.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .model import (
    Mode,
    ModeSchedule,
    Round,
    ValidationReport,
    chains,
    hyperperiod,
)
from .stepfuncs import (
    MsgTiming,
    _ceil_div,
    deadline_instants,
    first_order_violation,
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


@dataclass
class CheckReport(ValidationReport):
    """Outcome of one schedule check, grouped into verdict families.

    A violation's code is its family.  complete is False when a
    structural domains violation stopped the check before the other
    families, which are then skipped.
    """

    complete: bool = True

    def add(self, family: str, where: str, detail: str) -> None:
        assert family in VERDICT_FAMILIES
        super().add(family, where, detail)

    def by_family(self) -> dict[str, str]:
        bad = self.failed()
        return {
            fam: "fail" if fam in bad else "pass" if self.complete else "skipped"
            for fam in VERDICT_FAMILIES
        }

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        states = [f"{fam}: {state}" for fam, state in self.by_family().items()]
        return "\n".join([*states, super().__str__()])


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
    task_period = mode.task_periods()
    period_of = mode.message_periods()
    producers = mode.producers()

    # -- domains -------------------------------------------------------------
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
        ("message_offsets", set(schedule.message_offsets), set(period_of)),
        ("message_deadlines", set(schedule.message_deadlines), set(period_of)),
        ("leftover", set(schedule.leftover), set(period_of)),
    ):
        if have != want:
            structural = True
            missing = sorted(want - have)
            extra = sorted(have - want)
            rep.add("domains", name, f"missing={missing} unexpected={extra}")
    for r_idx, r in enumerate(schedule.rounds):
        for mid in r.alloc:
            if mid not in period_of:
                rep.add("domains", f"round {r_idx}", f"unknown message {mid!r}")
    if structural:
        rep.complete = False
        return rep

    for tid, t in tasks.items():
        o = schedule.task_offsets[tid]
        hi = task_period[tid] - t.wcet_us
        if not 0 <= o <= hi:
            rep.add("domains", f"task {tid}", f"offset {o} outside [0, {hi}]")
    for mid, p in period_of.items():
        o = schedule.message_offsets[mid]
        d = schedule.message_deadlines[mid]
        if not 0 <= o < p:
            rep.add("domains", f"message {mid}", f"offset {o} outside [0, {p})")
        if not 0 < d <= p:
            rep.add("domains", f"message {mid}", f"deadline {d} outside (0, {p}]")

    # -- rounds --------------------------------------------------------------
    if not schedule.rounds:
        # a mode change is announced in beacons: such a mode is never left
        rep.add("round_gap", "schedule", "no rounds: no beacon would be sent")
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
    placed = sorted(tasks.values(), key=lambda t: t.id)
    for i, ti in enumerate(placed):
        for tj in placed[i + 1 :]:
            if ti.node != tj.node:
                continue
            if _overlap_cyclic(
                schedule.task_offsets[ti.id],
                ti.wcet_us,
                task_period[ti.id],
                schedule.task_offsets[tj.id],
                tj.wcet_us,
                task_period[tj.id],
            ):
                rep.add(
                    "node_exclusive",
                    f"node {ti.node}",
                    f"tasks {ti.id} and {tj.id} overlap",
                )

    # -- precedence and end-to-end deadlines ---------------------------------
    # a message or an edge that several applications list is checked, and
    # reported, once
    sig_p: dict[str, int] = {}
    sig_c: dict[tuple[str, str], int] = {}
    edges_seen: set[tuple[str, str, str]] = set()
    for app in mode.applications:
        p = app.period_us
        for mid in app.message_ids:
            if mid in sig_p:
                continue
            prod = producers[mid]
            done = schedule.task_offsets[prod.id] + prod.wcet_us
            sig_p[mid] = s = max(0, _ceil_div(done - schedule.message_offsets[mid], p))
            if s > 1:
                rep.add(
                    "precedence",
                    f"message {mid}",
                    f"release slips {s} periods past producer {prod.id}",
                )
        for edge in app.edges:
            if edge in edges_seen:
                continue
            edges_seen.add(edge)
            src, dst, mid = edge
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
            last = tasks[ch.last_task]
            shifts = 0
            for k, mid in enumerate(ch.message_ids):
                consumer = ch.task_ids[k + 1]
                shifts += sig_p[mid] + sig_c[(mid, consumer)]
            lat = (
                schedule.task_offsets[last.id]
                + last.wcet_us
                - schedule.task_offsets[ch.first_task]
                + p * shifts
            )
            if lat > app.deadline_us:
                rep.add(
                    "e2e_deadline",
                    f"chain {'>'.join(ch.task_ids)}",
                    f"latency {lat} us exceeds deadline {app.deadline_us} us",
                )

    # -- per-message service -------------------------------------------------
    rounds_sorted = tuple(sorted(schedule.rounds, key=lambda r: r.t))
    # one entry per allocated slot, in round order; unknown ids were
    # reported under domains
    allocs_of: dict[str, list[Round]] = {mid: [] for mid in period_of}
    for r in rounds_sorted:
        for slot in r.alloc:
            if slot in allocs_of:
                allocs_of[slot].append(r)
    for mid in sorted(period_of):
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
            # between two steps of service or demand only arrival moves,
            # and it only rises: the ordering first fails at 0 or at a step
            mt = MsgTiming(mid, o, d, p)
            ends = [r.t + t_r for r in allocs]
            # merged lazily, so the sweep stops at the first violation
            # without listing all h/p deadlines; a repeated point gives
            # the same counts twice
            points = heapq.merge(
                (0,),
                (min(h + 1, e + 1) for e in ends),
                (x + 1 for x in deadline_instants(mt, h)),
            )
            bad = first_order_violation(mt, points, ends, r0)
            if bad is not None:
                t, df, sf, af = bad
                rep.add(
                    "curve_order",
                    f"message {mid}",
                    f"message {mid} at t={t}: demand={df} service={sf} "
                    f"arrival={af} violates demand <= service <= arrival",
                )

    return rep
