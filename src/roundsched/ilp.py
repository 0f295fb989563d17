"""Integer program construction for co-scheduling tasks, messages, rounds.

All quantities are integers.  Time variables are expressed in grid ticks
(value * grid_us = microseconds) so every row has integer coefficients;
worst-case execution times, round lengths, and periods appear in
microseconds with a grid factor on the tick variables.

Variable families, in index order:
    o_<task>            task start offset, ticks, [0, (p - e) // g]
    mo_<msg>, md_<msg>  message window offset [0, p/g) and width (0, p/g]
    sp_<msg>            producer handoff slips one period
    sc_<msg>__<task>    consumer handoff slips one period
    d_<app>             worst chain latency of the app, microseconds
    y_<t1>__<t2>__<k>   ordering choice for two tasks sharing a node, k-th
                        start difference
    rt<j>               round start, ticks, rounds kept sorted
    ka<j>_<msg>         message instances released by round j's start
    kd<j>_<msg>         message deadlines passed at round j's end
    n<j>_<msg>          data slots of round j granted to the message
    r0_<msg>            one instance is carried over the origin

Variables are addressed by model key only: ILPInstance.keys maps the
family and the model ids in the name, such as ("o", task), ("sc", msg,
task), ("y", t1, t2, k) or ("n", j, msg), to the variable's index; d is
keyed by the application's position in the mode.  A task or message
shared by several applications has one variable.  Each (message,
producer) and (message, consumer) pair has one row however many
applications list it, so a message waits for every producer.
Names are labels made once, when a variable or row is registered, for
LP export and error text: ids are sanitized to [A-Za-z0-9_], and a name
already taken gets a _2, _3, ... suffix, so names are unique among the
variables and among the rows.

Each served instance needs a round that starts at or after its release
and ends by its deadline, so the window width is bounded below by the
round length; that bound is baked into md's domain.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .model import Mode, ModeSchedule, Round, chains, hyperperiod
from .timing import NetworkParams, round_length


@dataclass(frozen=True)
class Variable:
    name: str
    lb: int
    ub: int
    binary: bool = False


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: dict[int, int]
    sense: str  # "<=" or "=="
    rhs: int


def _unique(name: str, taken: set[str]) -> str:
    """name, or the first of name_2, name_3, ... not yet taken; the
    result is added to taken."""
    label, n = name, 1
    while label in taken:
        n += 1
        label = f"{name}_{n}"
    taken.add(label)
    return label


@dataclass
class ILPInstance:
    name: str
    variables: list[Variable] = field(default_factory=list)
    rows: list[Row] = field(default_factory=list)
    objective: dict[int, int] = field(default_factory=dict)
    keys: dict[tuple, int] = field(default_factory=dict)  # model key -> index
    meta: dict = field(default_factory=dict)
    _var_names: set[str] = field(default_factory=set, repr=False)
    _row_names: set[str] = field(default_factory=set, repr=False)

    def add_var(self, name: str, lb: int, ub: int, binary: bool = False) -> int:
        name = _unique(name, self._var_names)
        self.variables.append(Variable(name, lb, ub, binary))
        return len(self.variables) - 1

    def add_row(self, name: str, coeffs: dict[int, int], sense: str, rhs: int) -> None:
        assert sense in ("<=", "==")
        name = _unique(name, self._row_names)
        self.rows.append(Row(name, {k: v for k, v in coeffs.items() if v}, sense, rhs))


class DecodeError(ValueError):
    """An assignment that should describe a schedule does not."""


_UNSAFE = re.compile(r"[^A-Za-z0-9]")


def _safe(raw: str) -> str:
    """raw with every character outside [A-Za-z0-9] replaced by "_"."""
    return _UNSAFE.sub("_", raw)


def _delta_values(p_i: int, p_j: int) -> list[int]:
    """Start-time differences two periodic patterns can realize, restricted
    to the range where executions could collide."""
    g = math.gcd(p_i, p_j)
    out = []
    k = -((p_i - 1) // g)
    while k * g < p_j:
        out.append(k * g)
        k += 1
    return out


def build_instance(
    mode: Mode,
    n_rounds: int,
    params: NetworkParams,
    grid_us: int = 1,
    t_max_us: int | None = None,
) -> ILPInstance:
    """Assemble the co-scheduling program for a fixed number of rounds."""
    h = hyperperiod(mode)
    t_r = round_length(params)
    n_slots = params.slots_per_round
    if t_max_us is None:
        t_max_us = h
    t_max_us = min(t_max_us, h)
    for app in mode.applications:
        if app.period_us % grid_us:
            raise ValueError(f"period of {app.id} not a multiple of grid {grid_us}")
    g = grid_us

    inst = ILPInstance(name=f"{_safe(mode.id)}_r{n_rounds}")
    inst.meta = {
        "n_rounds": n_rounds,
        "grid_us": g,
        "round_len_us": t_r,
        "hyperperiod_us": h,
        "slots_per_round": n_slots,
    }
    key = inst.keys

    def add(k: tuple, name: str, lb: int, ub: int, binary: bool = False) -> None:
        if k not in key:  # shared by an earlier application
            key[k] = inst.add_var(name, lb, ub, binary)

    tasks = mode.all_tasks()
    msgs = mode.all_messages()
    period_of = {m.id: m.period_us for m in msgs.values()}

    # --- variables ----------------------------------------------------------
    md_lb = -(-t_r // g)  # window must be wide enough to hold one round
    for t in tasks.values():
        add(("o", t.id), f"o_{_safe(t.id)}", 0, (t.period_us - t.wcet_us) // g)
    for m in msgs.values():
        pg = m.period_us // g
        add(("mo", m.id), f"mo_{_safe(m.id)}", 0, pg - 1)
        if md_lb > pg:
            # no window of this period can contain a whole round
            inst.add_row(f"nofit_{_safe(m.id)}", {}, "<=", -1)
        add(("md", m.id), f"md_{_safe(m.id)}", min(md_lb, pg), pg)
    for app in mode.applications:
        for m in app.messages:
            add(("sp", m.id), f"sp_{_safe(m.id)}", 0, 1, binary=True)
        for _src, dst, mid in app.edges:
            add(("sc", mid, dst), f"sc_{_safe(mid)}__{_safe(dst)}", 0, 1, binary=True)
    for i, app in enumerate(mode.applications):
        add(("d", i), f"d_{_safe(app.id)}", 0, app.deadline_us)

    task_list = sorted(tasks.values(), key=lambda t: t.id)
    pair_deltas: list[tuple] = []
    for i, ti in enumerate(task_list):
        for tj in task_list[i + 1 :]:
            if ti.node != tj.node:
                continue
            for k, dv in enumerate(_delta_values(ti.period_us, tj.period_us)):
                pair = f"{_safe(ti.id)}__{_safe(tj.id)}__{k}"
                add(("y", ti.id, tj.id, k), f"y_{pair}", 0, 1, binary=True)
                y = key["y", ti.id, tj.id, k]
                pair_deltas.append((ti, tj, dv, y, f"apart_{pair}"))

    rt_ub = (t_max_us - t_r) // g
    if n_rounds and rt_ub < 0:
        raise ValueError("round does not fit inside the horizon")
    for j in range(n_rounds):
        add(("rt", j), f"rt{j}", 0, rt_ub)
    for j in range(n_rounds):
        for mid in sorted(msgs):
            k_m = h // period_of[mid]
            add(("ka", j, mid), f"ka{j}_{_safe(mid)}", 0, k_m + 1)
            add(("kd", j, mid), f"kd{j}_{_safe(mid)}", -1, k_m + 1)
    for j in range(n_rounds):
        for mid in sorted(msgs):
            add(("n", j, mid), f"n{j}_{_safe(mid)}", 0, n_slots)
    for mid in sorted(msgs):
        add(("r0", mid), f"r0_{_safe(mid)}", 0, 1, binary=True)

    # --- objective ----------------------------------------------------------
    for i in range(len(mode.applications)):
        inst.objective[key["d", i]] = 1

    # --- producer, consumer, chain latency ----------------------------------
    # a message is released once every one of its producers has finished
    producers = mode.producers()
    handoffs: set[tuple] = set()  # (msg, producer) and (msg, consumer) rows
    for i, app in enumerate(mode.applications):
        p = app.period_us
        for m in app.messages:
            for prod in producers[m.id]:
                if ("prod", m.id, prod.id) in handoffs:  # listed by an earlier app
                    continue
                handoffs.add(("prod", m.id, prod.id))
                inst.add_row(
                    f"prod_{_safe(m.id)}",
                    {key["o", prod.id]: g, key["mo", m.id]: -g, key["sp", m.id]: -p},
                    "<=",
                    -prod.wcet_us,
                )
        for _src, dst, mid in app.edges:
            if ("cons", mid, dst) in handoffs:
                continue
            handoffs.add(("cons", mid, dst))
            inst.add_row(
                f"cons_{_safe(mid)}__{_safe(dst)}",
                {
                    key["mo", mid]: g,
                    key["md", mid]: g,
                    key["o", dst]: -g,
                    key["sc", mid, dst]: -p,
                },
                "<=",
                0,
            )
        for c_idx, ch in enumerate(chains(app)):
            last = app.task_by_id(ch.last_task)
            coeffs: dict[int, int] = {key["d", i]: -1}
            for x, cf in ((key["o", last.id], g), (key["o", ch.first_task], -g)):
                coeffs[x] = coeffs.get(x, 0) + cf
            for k, mid in enumerate(ch.message_ids):
                for x in (key["sp", mid], key["sc", mid, ch.task_ids[k + 1]]):
                    coeffs[x] = coeffs.get(x, 0) + p
            inst.add_row(f"lat_{_safe(app.id)}_{c_idx}", coeffs, "<=", -last.wcet_us)

    # --- round ordering -----------------------------------------------------
    for j in range(n_rounds - 1):
        inst.add_row(
            f"order_r{j}", {key["rt", j]: g, key["rt", j + 1]: -g}, "<=", -t_r
        )

    # --- shared-node task separation ----------------------------------------
    for ti, tj, dv, y, nm in pair_deltas:
        oi, oj = key["o", ti.id], key["o", tj.id]
        m_pair = ti.period_us + tj.period_us
        # y = 1: instance of ti (shifted by dv) finishes before tj starts
        inst.add_row(
            nm + "_a", {oi: g, oj: -g, y: m_pair}, "<=", m_pair - ti.wcet_us - dv
        )
        # y = 0: tj finishes before the shifted instance of ti starts
        inst.add_row(nm + "_b", {oj: g, oi: -g, y: -m_pair}, "<=", dv - tj.wcet_us)

    # --- service windows vs rounds ------------------------------------------
    for j in range(n_rounds):
        rt = key["rt", j]
        for mid in sorted(msgs):
            p = period_of[mid]
            s = _safe(mid)
            mo, md, r0 = key["mo", mid], key["md", mid], key["r0", mid]
            ka, kd = key["ka", j, mid], key["kd", j, mid]
            # pin ka to the release count at the round's start
            inst.add_row(f"arr_{j}_{s}_a", {rt: -g, mo: g, ka: p}, "<=", p)
            inst.add_row(f"arr_{j}_{s}_b", {rt: g, mo: -g, ka: -p}, "<=", -1)
            # pin kd to the deadline count at the round's end
            inst.add_row(
                f"due_{j}_{s}_a", {rt: -g, mo: g, md: g, kd: p}, "<=", t_r + p - 1
            )
            inst.add_row(
                f"due_{j}_{s}_b", {rt: g, mo: -g, md: -g, kd: -p}, "<=", -t_r
            )
            # slots granted through round j never outrun arrivals at its start
            coeffs = {ka: -1, r0: -1}
            for k in range(j + 1):
                coeffs[key["n", k, mid]] = 1
            inst.add_row(f"serve_hi_{j}_{s}", coeffs, "<=", 0)
            # every deadline passed by round j's end is already served
            coeffs = {kd: 1, r0: 1}
            for k in range(j):
                coeffs[key["n", k, mid]] = -1
            inst.add_row(f"serve_lo_{j}_{s}", coeffs, "<=", 0)

    # --- slot capacity ------------------------------------------------------
    for j in range(n_rounds):
        inst.add_row(
            f"cap_{j}", {key["n", j, mid]: 1 for mid in sorted(msgs)}, "<=", n_slots
        )

    # --- conservation -------------------------------------------------------
    for mid in sorted(msgs):
        inst.add_row(
            f"total_{_safe(mid)}",
            {key["n", j, mid]: 1 for j in range(n_rounds)},
            "==",
            h // period_of[mid],
        )

    return inst


def check_assignment(inst: ILPInstance, values: list[int]) -> list[str]:
    """Exact integer verification of a full assignment; returns complaints.

    values holds one value per variable, in index order."""
    bad = []
    for var, x in zip(inst.variables, values, strict=True):
        if not var.lb <= x <= var.ub:
            bad.append(f"{var.name}={x} outside [{var.lb}, {var.ub}]")
    for row in inst.rows:
        lhs = sum(c * values[i] for i, c in row.coeffs.items())
        if row.sense == "<=" and lhs > row.rhs:
            bad.append(f"{row.name}: {lhs} > {row.rhs}")
        elif row.sense == "==" and lhs != row.rhs:
            bad.append(f"{row.name}: {lhs} != {row.rhs}")
    return bad


def extract_schedule(
    inst: ILPInstance,
    values: list[int],
    mode: Mode,
) -> ModeSchedule:
    """Turn a verified assignment back into a schedule."""
    g = inst.meta["grid_us"]
    n_rounds = inst.meta["n_rounds"]
    n_slots = inst.meta["slots_per_round"]
    tasks = mode.all_tasks()
    msgs = mode.all_messages()

    def val(*k) -> int:
        return values[inst.keys[k]]

    rounds = []
    for j in range(n_rounds):
        alloc = []
        for mid in sorted(msgs):
            alloc.extend([mid] * val("n", j, mid))
        if len(alloc) > n_slots:
            raise DecodeError(f"round {j} oversubscribed: {alloc}")
        rounds.append(Round(val("rt", j) * g, tuple(alloc)))

    return ModeSchedule(
        mode_id=mode.id,
        hyperperiod_us=inst.meta["hyperperiod_us"],
        round_len_us=inst.meta["round_len_us"],
        task_offsets={tid: val("o", tid) * g for tid in sorted(tasks)},
        message_offsets={mid: val("mo", mid) * g for mid in sorted(msgs)},
        message_deadlines={mid: val("md", mid) * g for mid in sorted(msgs)},
        rounds=tuple(rounds),
        leftover={mid: val("r0", mid) for mid in sorted(msgs)},
    )
