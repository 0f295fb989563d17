"""Schedule verification.

check() re-derives every scheduling property straight from the model and
the counting step functions; it shares no code with the ILP construction,
so the two can disagree only if one of them is wrong.  Up to sorting,
the audit is linear in the rounds plus each message's check instants: the
allocations are gathered in one pass over the rounds, and each message's
demand <= service <= arrival ordering is checked in one merged sweep of
its instants and round ends (stepfuncs.first_order_violation), whose
counts at the first failing instant word the curve_order violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import (
    Mode,
    ModeSchedule,
    Round,
    Violation,
    chains,
    hyperperiod,
)
from .stepfuncs import (
    MsgTiming,
    _ceil_div,
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
    # a message with several producers slips as far as its latest
    # producer needs, as the ILP's one sp_<msg> does
    producers = mode.producers()
    sig_p: dict[str, int] = dict.fromkeys(msgs, 0)
    sig_c: dict[tuple[str, str], int] = {}
    for app in mode.applications:
        p = app.period_us
        for m in app.messages:
            for prod in producers[m.id]:
                done = schedule.task_offsets[prod.id] + prod.wcet_us
                s = max(0, _ceil_div(done - schedule.message_offsets[m.id], p))
                sig_p[m.id] = max(sig_p[m.id], s)
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
            points.update(release_instants(mt, h))
            points.update(x + 1 for x in deadline_instants(mt, h))
            bad = first_order_violation(
                mt, sorted(points), [r.t + t_r for r in allocs], r0
            )
            if bad is not None:
                t, df, sf, af = bad
                rep.add(
                    "curve_order",
                    f"message {mid}",
                    f"message {mid} at t={t}: demand={df} service={sf} "
                    f"arrival={af} violates demand <= service <= arrival",
                )

    return rep
