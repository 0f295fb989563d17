"""Core system model: tasks, messages, applications, modes, schedules.

All times are integer microseconds. Model objects are immutable after
construction; everything derived from a schedule run (offsets, deadlines,
round allocations) lives in ModeSchedule, not on the model objects.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass, field
from typing import Iterable

TimeUs = int

#: hyperperiod() refuses hyperperiods beyond this (about 11.6 days in us);
#: such inputs are almost certainly unit mistakes.
HYPERPERIOD_CAP_US = 10**12


class ModelError(ValueError):
    """Structural problem that prevents an operation from producing a result."""


@dataclass(frozen=True, slots=True)
class Task:
    """A periodic task mapped to one node.

    wcet_us is the budgeted execution time; the scheduler reserves exactly
    this much on the node.  A task runs at the period of the applications
    that list it (Mode.task_periods); it carries no period of its own.
    """

    id: str
    node: str
    wcet_us: int


@dataclass(frozen=True, slots=True)
class Application:
    """A distributed application: a DAG of tasks with message-labelled edges.

    edges are (producer task id, consumer task id, message id) triples. A
    message appearing on several edges from the same producer is a multicast.
    Tasks and messages inherit the application's period: Mode.task_periods
    and Mode.message_periods pair each id with it.  message_ids are the ids
    the edges name, sorted.
    """

    id: str
    period_us: int
    deadline_us: int
    tasks: tuple[Task, ...]
    edges: tuple[tuple[str, str, str], ...]

    @property
    def message_ids(self) -> tuple[str, ...]:
        return tuple(sorted({mid for _, _, mid in self.edges}))


@dataclass(frozen=True, slots=True)
class Chain:
    """One maximal source-to-sink path, alternating task and message ids."""

    items: tuple[str, ...]

    @property
    def task_ids(self) -> tuple[str, ...]:
        return self.items[0::2]

    @property
    def message_ids(self) -> tuple[str, ...]:
        return self.items[1::2]

    @property
    def first_task(self) -> str:
        return self.items[0]

    @property
    def last_task(self) -> str:
        return self.items[-1]


@dataclass(frozen=True, slots=True)
class Mode:
    """A set of applications that run together under one round schedule.

    A task or message id listed by several applications is one task or
    message; validate_mode requires those applications to share a period.
    """

    id: str
    applications: tuple[Application, ...]

    def all_tasks(self) -> dict[str, Task]:
        out: dict[str, Task] = {}
        for app in self.applications:
            for t in app.tasks:
                out[t.id] = t
        return out

    def task_periods(self) -> dict[str, int]:
        """Task id -> period, in the order the applications first list
        each task."""
        return {t.id: app.period_us for app in self.applications for t in app.tasks}

    def message_periods(self) -> dict[str, int]:
        """Message id -> period, in the order the applications first list
        each message."""
        return {
            mid: app.period_us for app in self.applications for mid in app.message_ids
        }

    def producers(self) -> dict[str, Task]:
        """Message id -> its one producer, sorted by message id.  An edge
        from a task its application does not list is skipped
        (validate_application reports it); a second producer raises
        ModelError (validate_mode reports it as several_producers)."""
        out: dict[str, Task] = {}
        for mid, ts in sorted(_producer_tasks(self).items()):
            if len(ts) > 1:
                raise ModelError(f"mode {self.id!r}, message {mid!r}: produced by {sorted(ts)}")
            (out[mid],) = ts.values()
        return out


def _producer_tasks(mode: Mode) -> dict[str, dict[str, Task]]:
    """Message id -> task id -> task, over the edges producers() reads."""
    out: dict[str, dict[str, Task]] = {}
    for app in mode.applications:
        tasks = {t.id: t for t in app.tasks}
        for src, _, mid in app.edges:
            if src in tasks:
                out.setdefault(mid, {})[src] = tasks[src]
    return out


def swap_map(mode: Mode, i: int, j: int) -> dict[str, str] | None:
    """The renaming that swaps applications i and j and maps the mode onto
    itself, or None where this test finds none.

    Tasks pair in the order the two applications list them, with equal
    WCETs; the applications have equal periods and deadlines.  Edges pair
    in listed order too, join paired tasks, and their messages pair one to
    one.  Neither application shares a task or message id with any other.
    Nodes pair as their tasks do, one to one, and a node that moves hosts
    only tasks of the two applications, so a node they share with the rest
    of the mode stays put.  The result maps each task and message id of
    either application to its partner, in both directions.

    >>> t = lambda tid, node: Task(tid, node, 1000)
    >>> a = Application("a", 10_000, 10_000, (t("s", "n1"), t("c", "hub")),
    ...                 (("s", "c", "m"),))
    >>> b = Application("b", 10_000, 10_000, (t("s2", "n2"), t("c2", "hub")),
    ...                 (("s2", "c2", "m2"),))
    >>> swap_map(Mode("m", (a, b)), 0, 1)["m2"]
    'm'
    """
    a, b = mode.applications[i], mode.applications[j]
    if (i == j or (a.period_us, a.deadline_us) != (b.period_us, b.deadline_us)
            or len(a.tasks) != len(b.tasks) or len(a.edges) != len(b.edges)):
        return None
    ren: dict[str, str] = {}
    nodes: dict[str, str] = {}

    def pair(m: dict[str, str], x: str, y: str) -> bool:
        return m.setdefault(x, y) == y and m.setdefault(y, x) == x

    for x, y in zip(a.tasks, b.tasks):
        if x.wcet_us != y.wcet_us or not (pair(ren, x.id, y.id) and pair(nodes, x.node, y.node)):
            return None
    for (s, d, m), (s2, d2, m2) in zip(a.edges, b.edges):
        if ren.get(s) != s2 or ren.get(d) != d2 or not pair(ren, m, m2):
            return None
    own_tasks = [t.id for t in a.tasks + b.tasks]
    own_msgs = a.message_ids + b.message_ids
    rest = [app for k, app in enumerate(mode.applications) if k not in (i, j)]
    rest_tasks = {t.id for app in rest for t in app.tasks}
    rest_msgs = {mid for app in rest for mid in app.message_ids}
    rest_nodes = {t.node for app in rest for t in app.tasks}
    if (len(set(own_tasks)) < len(own_tasks) or len(set(own_msgs)) < len(own_msgs)
            or rest_tasks.intersection(own_tasks) or rest_msgs.intersection(own_msgs)
            or any(u != v and u in rest_nodes for u, v in nodes.items())):
        return None
    return ren


@dataclass(frozen=True, slots=True)
class Round:
    """One communication round: start time and its slot allocation.

    alloc lists the message id sent in each used data slot, in slot order;
    a message may take several slots.  Idle slots are not listed: a round
    has slots_per_round - len(alloc) of them.  The round length is a
    property of the network parameters, not stored here.
    """

    t: TimeUs
    alloc: tuple[str, ...]


@dataclass(slots=True)
class ModeSchedule:
    """Synthesized schedule for one mode.

    Offsets are relative to the hyperperiod start. leftover maps each message
    to its carried-over instance count at the hyperperiod boundary (0 or 1).
    """

    mode_id: str
    hyperperiod_us: int
    round_len_us: int
    task_offsets: dict[str, int]
    message_offsets: dict[str, int]
    message_deadlines: dict[str, int]
    rounds: tuple[Round, ...]
    leftover: dict[str, int]


def hyperperiod(mode: Mode) -> int:
    """Least common multiple of the member application periods.

    >>> a = Application("a", 10_000, 10_000, (), ())
    >>> b = Application("b", 15_000, 15_000, (), ())
    >>> hyperperiod(Mode("m", (a, b)))
    30000

    Raises ModelError for an empty mode or a result beyond
    HYPERPERIOD_CAP_US (treated as a unit mistake).
    """
    if not mode.applications:
        raise ModelError(f"mode {mode.id!r} has no applications")
    periods = [app.period_us for app in mode.applications]
    if any(p <= 0 for p in periods):
        raise ModelError(f"mode {mode.id!r} has a non-positive period")
    h = math.lcm(*periods)
    if h > HYPERPERIOD_CAP_US:
        raise ModelError(
            f"hyperperiod of mode {mode.id!r} is {h} us, beyond the "
            f"{HYPERPERIOD_CAP_US} us cap"
        )
    return h


def chains(app: Application) -> tuple[Chain, ...]:
    """All maximal paths of the application DAG, in lexicographic order.

    Each chain alternates task and message ids, starting and ending with a
    task. A task with neither incoming nor outgoing edges forms a one-item
    chain. Raises ModelError if the graph has a cycle or an edge names a
    task the application does not list.

    >>> t1 = Task("t1", "n1", 1000); t2 = Task("t2", "n2", 1000)
    >>> app = Application("a", 10_000, 10_000, (t1, t2), (("t1", "t2", "m1"),))
    >>> [c.items for c in chains(app)]
    [('t1', 'm1', 't2')]
    """
    _check_acyclic(app)
    out_edges: dict[str, list[tuple[str, str]]] = {t.id: [] for t in app.tasks}
    has_in: set[str] = set()
    for src, dst, mid in app.edges:
        for end in (src, dst):
            if end not in out_edges:
                raise ModelError(
                    f"application {app.id!r}: edge {mid!r} names unknown task {end!r}")
        out_edges[src].append((mid, dst))
        has_in.add(dst)

    result: list[tuple[str, ...]] = []
    stack = [(t.id,) for t in app.tasks if t.id not in has_in]
    while stack:
        path = stack.pop()
        succ = out_edges.get(path[-1], ())
        if not succ:
            result.append(path)
        stack.extend(path + edge for edge in succ)
    result.sort()
    return tuple(Chain(items) for items in result)


def _check_acyclic(app: Application) -> None:
    preds: dict[str, list[str]] = {t.id: [] for t in app.tasks}
    for src, dst, _ in app.edges:
        if src in preds and dst in preds:
            preds[dst].append(src)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError:
        raise ModelError(f"application {app.id!r} graph has a cycle") from None


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code} at {self.where}: {self.detail}"


@dataclass(slots=True)
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, where: str, detail: str) -> None:
        self.violations.append(Violation(code, where, detail))

    def failed(self) -> set[str]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def validate_application(app: Application, report: ValidationReport) -> None:
    where = f"application {app.id}"
    if app.period_us <= 0:
        report.add("bad_period", where, f"period {app.period_us} us")
    if app.deadline_us <= 0:
        report.add("bad_deadline", where, f"deadline {app.deadline_us} us")
    elif app.deadline_us > app.period_us:
        report.add(
            "deadline_exceeds_period",
            where,
            f"deadline {app.deadline_us} us > period {app.period_us} us",
        )

    seen_tasks: set[str] = set()
    for t in app.tasks:
        tw = f"{where}, task {t.id}"
        if t.id in seen_tasks:
            report.add("duplicate_task", tw, "listed twice")
        seen_tasks.add(t.id)
        if t.wcet_us <= 0:
            report.add("bad_wcet", tw, f"wcet {t.wcet_us} us")
        elif t.wcet_us > app.period_us > 0:
            report.add(
                "bad_wcet", tw, f"wcet {t.wcet_us} us exceeds period {app.period_us} us"
            )

    for src, dst, _ in app.edges:
        ew = f"{where}, edge {src}->{dst}"
        if src not in seen_tasks:
            report.add("unknown_edge_task", ew, f"producer {src!r} not in app")
        if dst not in seen_tasks:
            report.add("unknown_edge_task", ew, f"consumer {dst!r} not in app")

    try:
        _check_acyclic(app)
    except ModelError:
        report.add("graph_cycle", where, "task graph has a cycle")


def validate_mode(mode: Mode, report: ValidationReport) -> None:
    where = f"mode {mode.id}"
    if not mode.applications:
        report.add("empty_mode", where, "no applications")
        return
    seen_apps: set[str] = set()
    for app in mode.applications:
        if app.id in seen_apps:
            report.add(
                "duplicate_application", f"{where}, application {app.id}", "listed twice"
            )
        seen_apps.add(app.id)
        validate_application(app, report)
    # shared tasks/messages must agree on their attributes and period
    tasks_seen: dict[str, tuple[Task, int]] = {}
    periods_seen: dict[str, int] = {}
    for app in mode.applications:
        for t in app.tasks:
            if tasks_seen.setdefault(t.id, (t, app.period_us)) != (t, app.period_us):
                report.add(
                    "shared_task_mismatch",
                    f"{where}, task {t.id}",
                    "differs between applications",
                )
        for mid in app.message_ids:
            if periods_seen.setdefault(mid, app.period_us) != app.period_us:
                report.add(
                    "shared_message_mismatch",
                    f"{where}, message {mid}",
                    "differs between applications",
                )
    # one task produces a message, and its node sends it
    for mid, prods in sorted(_producer_tasks(mode).items()):
        if len(prods) > 1:
            report.add(
                "several_producers", f"{where}, message {mid}", f"produced by {sorted(prods)}"
            )
    # a non-positive period is bad_period, reported per application
    if all(app.period_us > 0 for app in mode.applications):
        try:
            hyperperiod(mode)
        except ModelError as exc:
            report.add("hyperperiod_overflow", where, str(exc))


def validate_modes_disjoint(modes: Iterable[Mode], report: ValidationReport) -> None:
    owner: dict[str, str] = {}
    for mode in modes:
        for app in mode.applications:
            prev = owner.setdefault(app.id, mode.id)
            if prev != mode.id:
                report.add(
                    "app_in_multiple_modes",
                    f"application {app.id}",
                    f"appears in modes {prev!r} and {mode.id!r}",
                )
