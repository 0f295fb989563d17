"""Integer program construction for co-scheduling tasks, messages, rounds.

All quantities are integers.  Time variables are expressed in grid ticks
(value * grid_us = microseconds) so every row has integer coefficients;
worst-case execution times, round lengths, and periods appear in
microseconds with a grid factor on the tick variables.

Variable families, in index order:
    o_<task>            task start offset, ticks, [0, (p - e) // g]
    mo_<msg>, md_<msg>  message window offset [0, p/g) and width
                        [ceil(t_r/g), p/g], empty when no round fits p
    sp_<msg>            producer handoff slips one period
    sc_<msg>__<task>    consumer handoff slips one period
    d_<app>             worst chain latency of the app, microseconds
    q_<t1>__<t2>        two tasks sharing a node: whole gcds in their start
                        difference, [-p1/gcd, p2/gcd - 1]
    rt<j>               round start, ticks, rounds kept sorted
    n<j>_<msg>          data slots of round j granted to the message
    r0_<msg>            one instance is carried over the origin

Variables are addressed by model key only: ILPInstance.keys maps the
family and the model ids in the name, such as ("o", task), ("sc", msg,
task), ("q", t1, t2) or ("n", j, msg), to the variable's index; d is
keyed by the application's position in the mode.  A task or message
shared by several applications has one variable.  Each message and each
(message, consumer) pair has one row however many applications list it.
Names are labels made once, when a variable or row is registered, for
LP export and error text: ids are sanitized to [A-Za-z0-9_], and a name
already taken gets a _2, _3, ... suffix, so names are unique among the
variables and among the rows.

Each served instance needs a round that starts at or after its release
and ends by its deadline, so md's window holds a whole round and fits its
period.  When p < t_r that domain is empty and HiGHS reports the program
infeasible; no row marks it.  synthesize() never builds such a program:
the message lies on a chain, so min_rounds >= H/p > H/t_r >= max_rounds.

Rows serve_hi_<j>_<msg> and serve_lo_<j>_<msg> hold the slots granted to
that rule with no counter variable.  Releases fall at g*mo + k*p,
deadlines g*md later.  Let S be the slots n_k granted to the message by
the rounds k <= j (serve_hi) or k < j (serve_lo), less r0.  serve_hi is
p*S <= p + g*rt_j - g*mo, so, S being an integer, S <= floor((g*rt_j -
g*mo) / p) + 1: the releases at or before round j's start (at least 0, as
g*mo < p).  serve_lo is p*S >= g*rt_j + t_r - g*mo - g*md, so S is at
least the ceiling of that over p: the deadlines strictly before round j's
end, less one while the instance released before the origin still has
its deadline ahead (at least -1, as g*mo + g*md < 2p).

Rows sym_<i>_<j> break the symmetry of interchangeable applications: for
application i and the first later application j that model.swap_map can
swap with it, d_i <= d_j.  A swap maps the mode, and so the program, onto
itself; the swaps generate every permutation of each class of such
applications, so any schedule can be renamed to sort each class's
latencies in mode order, and the optimum does not move.  A mode without
such a pair gets no sym rows.

Rows apart_<t1>__<t2>_a and _b keep two tasks of one node apart with no
big-M.  With periods p1, p2, G = gcd(p1, p2), WCETs e1, e2 and start
difference D = g*o_t2 - g*o_t1, the start differences the two patterns
realize are D plus every multiple of G (Bezout), so their executions
never overlap exactly when e1 <= D mod G <= G - e2, the rule
checker._overlap_cyclic audits.  The rows state e1 <= D - G*q <= G - e2.
WCETs are at least 1 us, so that interval lies inside (0, G) and the only
q that can satisfy it is floor(D / G): the rows hold for some q exactly
when the rule does.  Since -(p1 - e1) <= D <= p2 - e2, floor(D / G) lies
in [-p1/G, p2/G - 1], the bounds of q, so they never bind.

A schedule shifted along the time axis is a schedule too, so the program
holds copies of each point that differ only in where time starts.  Here
rt0 is free; synthesis.program bounds it by U = g * (sum over the task
instances of the hyperperiod of ceil(e/g) - 1), 0 when no WCET exceeds
the grid.  The bound keeps the optimum.  Take an optimal point with every
slip as small as its rows allow (that only lowers latencies), and let c
be the latest grid point <= g*rt0 that no task instance strictly
straddles.  An instance straddles ceil(e/g) - 1 grid points at most and
none straddles 0, so c >= g*rt0 - U.
Shift everything left by c: an offset x of period p becomes x - c mod p,
plus p when x < c mod p (x wraps, w = 1; else w = 0).
- Rounds move left by c, so they stay sorted in [0, t_max - t_r], and rt0
  drops to at most U/g.
- A task that wraps started before c and, straddling nothing, ended by
  it, so it still ends inside its period.
- With sp' = sp + w_prod - w_msg and sc' = sc + w_msg - w_cons the prod
  and cons rows hold, and each chain's latency telescopes to its old
  value: d, the sym rows and the objective do not move.  Those slips stay
  0 or 1.  A slip of -1 contradicts its row.  sp' = 2 puts the producer
  over c: it starts before c mod p <= mo < its end.  sc' = 2 makes the
  chain span more than a period, above its deadline: mo < c mod p <= o_cons
  and sc = 1 give o_cons + p - mo > p.
- Start differences of two tasks on a node move by multiples of their
  periods, so D mod G, and the apart rows with q = floor(D / G), hold.
- The service rows count releases and deadlines against rounds in cyclic
  order.  A window is at most a period wide, so at most one instance of a
  message straddles c, and r0_<msg> carries it if a round after c serves it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .model import Mode, ModeSchedule, Round, chains, hyperperiod, swap_map
from .timing import NetworkParams, round_length


@dataclass(frozen=True)
class Variable:
    name: str
    lb: int
    ub: int


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

    def add_var(self, name: str, lb: int, ub: int) -> int:
        name = _unique(name, self._var_names)
        self.variables.append(Variable(name, lb, ub))
        return len(self.variables) - 1

    def add_row(self, name: str, coeffs: dict[int, int], sense: str, rhs: int) -> None:
        assert sense in ("<=", "==")
        name = _unique(name, self._row_names)
        self.rows.append(Row(name, {k: v for k, v in coeffs.items() if v}, sense, rhs))


_UNSAFE = re.compile(r"[^A-Za-z0-9]")


def _safe(raw: str) -> str:
    """raw with every character outside [A-Za-z0-9] replaced by "_"."""
    return _UNSAFE.sub("_", raw)


def build_instance(
    mode: Mode,
    n_rounds: int,
    params: NetworkParams,
    grid_us: int = 1,
    t_max_us: int | None = None,
) -> ILPInstance:
    """Assemble the co-scheduling program for a fixed number of rounds."""
    if grid_us < 1:
        raise ValueError(f"grid_us must be at least 1 us, got {grid_us}")
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
    }
    key = inst.keys

    def add(k: tuple, name: str, lb: int, ub: int) -> None:
        if k not in key:  # shared by an earlier application
            key[k] = inst.add_var(name, lb, ub)

    tasks = mode.all_tasks()
    task_period = mode.task_periods()
    period_of = mode.message_periods()
    mids = sorted(period_of)

    # --- variables ----------------------------------------------------------
    md_lb = -(-t_r // g)  # window must be wide enough to hold one round
    for t in tasks.values():
        add(("o", t.id), f"o_{_safe(t.id)}", 0, (task_period[t.id] - t.wcet_us) // g)
    for mid, p in period_of.items():
        pg = p // g
        add(("mo", mid), f"mo_{_safe(mid)}", 0, pg - 1)
        add(("md", mid), f"md_{_safe(mid)}", md_lb, pg)
    for app in mode.applications:
        for mid in app.message_ids:
            add(("sp", mid), f"sp_{_safe(mid)}", 0, 1)
        for _src, dst, mid in app.edges:
            add(("sc", mid, dst), f"sc_{_safe(mid)}__{_safe(dst)}", 0, 1)
    for i, app in enumerate(mode.applications):
        add(("d", i), f"d_{_safe(app.id)}", 0, app.deadline_us)

    task_list = sorted(tasks.values(), key=lambda t: t.id)
    pairs: list[tuple] = []  # (ti, tj, gcd of their periods)
    for i, ti in enumerate(task_list):
        for tj in task_list[i + 1 :]:
            if ti.node != tj.node:
                continue
            p_i, p_j = task_period[ti.id], task_period[tj.id]
            gcd = math.gcd(p_i, p_j)
            add(("q", ti.id, tj.id), f"q_{_safe(ti.id)}__{_safe(tj.id)}",
                -(p_i // gcd), p_j // gcd - 1)
            pairs.append((ti, tj, gcd))

    rt_ub = (t_max_us - t_r) // g
    if n_rounds and rt_ub < 0:
        raise ValueError("round does not fit inside the horizon")
    for j in range(n_rounds):
        add(("rt", j), f"rt{j}", 0, rt_ub)
    for j in range(n_rounds):
        for mid in mids:
            add(("n", j, mid), f"n{j}_{_safe(mid)}", 0, n_slots)
    for mid in mids:
        add(("r0", mid), f"r0_{_safe(mid)}", 0, 1)

    # --- objective ----------------------------------------------------------
    for i in range(len(mode.applications)):
        inst.objective[key["d", i]] = 1

    # --- producer, consumer, chain latency ----------------------------------
    producers = mode.producers()
    handoffs: set[tuple] = set()  # msg and (msg, consumer) rows
    for i, app in enumerate(mode.applications):
        p = app.period_us
        for mid in app.message_ids:
            if ("prod", mid) in handoffs:  # listed by an earlier app
                continue
            handoffs.add(("prod", mid))
            prod = producers[mid]
            inst.add_row(
                f"prod_{_safe(mid)}",
                {key["o", prod.id]: g, key["mo", mid]: -g, key["sp", mid]: -p},
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
            last = tasks[ch.last_task]
            coeffs: dict[int, int] = {key["d", i]: -1}
            for x, cf in ((key["o", last.id], g), (key["o", ch.first_task], -g)):
                coeffs[x] = coeffs.get(x, 0) + cf
            for k, mid in enumerate(ch.message_ids):
                for x in (key["sp", mid], key["sc", mid, ch.task_ids[k + 1]]):
                    coeffs[x] = coeffs.get(x, 0) + p
            inst.add_row(f"lat_{_safe(app.id)}_{c_idx}", coeffs, "<=", -last.wcet_us)

    # --- interchangeable applications (see the module docstring) -----------
    n_apps = len(mode.applications)
    for i in range(n_apps):
        for j in range(i + 1, n_apps):
            if swap_map(mode, i, j) is not None:
                inst.add_row(f"sym_{i}_{j}", {key["d", i]: 1, key["d", j]: -1}, "<=", 0)
                break

    # --- round ordering -----------------------------------------------------
    for j in range(n_rounds - 1):
        inst.add_row(
            f"order_r{j}", {key["rt", j]: g, key["rt", j + 1]: -g}, "<=", -t_r
        )

    # --- shared-node task separation (see the module docstring) ------------
    for ti, tj, gcd in pairs:
        oi, oj, q = key["o", ti.id], key["o", tj.id], key["q", ti.id, tj.id]
        nm = f"apart_{_safe(ti.id)}__{_safe(tj.id)}"
        # the instance of ti that starts gcd*q before tj ends before tj starts
        inst.add_row(nm + "_a", {oi: g, oj: -g, q: gcd}, "<=", -ti.wcet_us)
        # tj ends before ti starts again, one gcd later
        inst.add_row(nm + "_b", {oj: g, oi: -g, q: -gcd}, "<=", gcd - tj.wcet_us)

    # --- service windows vs rounds (see the module docstring) ---------------
    for j in range(n_rounds):
        rt = key["rt", j]
        for mid in mids:
            p = period_of[mid]
            s = _safe(mid)
            mo, md, r0 = key["mo", mid], key["md", mid], key["r0", mid]
            # slots granted through round j never outrun releases at its start
            coeffs = {rt: -g, mo: g, r0: -p}
            for k in range(j + 1):
                coeffs[key["n", k, mid]] = p
            inst.add_row(f"serve_hi_{j}_{s}", coeffs, "<=", p)
            # every deadline passed by round j's end is already served
            coeffs = {rt: g, mo: -g, md: -g, r0: p}
            for k in range(j):
                coeffs[key["n", k, mid]] = -p
            inst.add_row(f"serve_lo_{j}_{s}", coeffs, "<=", -t_r)

    # --- slot capacity ------------------------------------------------------
    for j in range(n_rounds):
        inst.add_row(
            f"cap_{j}", {key["n", j, mid]: 1 for mid in mids}, "<=", n_slots
        )

    # --- conservation -------------------------------------------------------
    for mid in mids:
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
    tasks = mode.all_tasks()
    mids = sorted(mode.message_periods())

    def val(*k) -> int:
        return values[inst.keys[k]]

    rounds = tuple(
        Round(val("rt", j) * g, tuple(m for m in mids for _ in range(val("n", j, m))))
        for j in range(n_rounds)
    )

    return ModeSchedule(
        mode_id=mode.id,
        hyperperiod_us=inst.meta["hyperperiod_us"],
        round_len_us=inst.meta["round_len_us"],
        task_offsets={tid: val("o", tid) * g for tid in sorted(tasks)},
        message_offsets={mid: val("mo", mid) * g for mid in mids},
        message_deadlines={mid: val("md", mid) * g for mid in mids},
        rounds=rounds,
        leftover={mid: val("r0", mid) for mid in mids},
    )
