"""Symmetry-breaking rows for interchangeable applications.

model.swap_map names a renaming that swaps two applications and maps the
mode onto itself; build_instance then orders their latencies with one
sym_<i>_<j> row per such pair.  The independent checker backs both: a
synthesized schedule renamed by the swap must still pass check(), and
the rows must not move the optimum that HiGHS proves without them.
"""

import dataclasses

import pytest
from support import ladder_mode, mk_app, random_small_case, wide_params

from roundsched.checker import check
from roundsched.ilp import build_instance
from roundsched.model import Application, Mode, ModeSchedule, Round, swap_map
from roundsched.solver import solve
from roundsched.synthesis import SynthConfig, max_rounds, min_rounds, synthesize

GRID = SynthConfig(grid_us=1000)
LADDER_GRID = SynthConfig(grid_us=5000)
CLONE_SEEDS = range(24)


def rename(schedule: ModeSchedule, ren: dict[str, str]) -> ModeSchedule:
    """The schedule with every task and message id replaced by its image."""

    def r(x: str) -> str:
        return ren.get(x, x)

    return dataclasses.replace(
        schedule,
        task_offsets={r(t): v for t, v in schedule.task_offsets.items()},
        message_offsets={r(m): v for m, v in schedule.message_offsets.items()},
        message_deadlines={r(m): v for m, v in schedule.message_deadlines.items()},
        rounds=tuple(Round(rd.t, tuple(r(m) for m in rd.alloc)) for rd in schedule.rounds),
        leftover={r(m): v for m, v in schedule.leftover.items()},
    )


def clone(app: Application, tag: str) -> Application:
    """A copy of app whose tasks, messages and nodes all get fresh ids."""
    return Application(
        app.id + tag,
        app.period_us,
        app.deadline_us,
        tuple(dataclasses.replace(t, id=t.id + tag, node=t.node + tag) for t in app.tasks),
        tuple((s + tag, d + tag, m + tag) for s, d, m in app.edges),
    )


def cloned_case(seed: int) -> tuple[Mode, object, bool]:
    """A seeded mode with its last application cloned onto private nodes,
    and whether the two can swap: only if no other application has a task
    on a node of the original."""
    mode, params = random_small_case(seed)
    *rest, last = mode.applications
    others = {t.node for app in rest for t in app.tasks}
    private = not others.intersection(t.node for t in last.tasks)
    return Mode(mode.id, mode.applications + (clone(last, "_c"),)), params, private


def sym_rows(inst) -> list[tuple[str, str]]:
    """(smaller, larger) latency variable names of every sym_* row."""
    out = []
    for row in inst.rows:
        if row.name.startswith("sym_"):
            assert row.sense == "<=" and row.rhs == 0
            assert sorted(row.coeffs.values()) == [-1, 1]
            lo, hi = sorted(row.coeffs, key=row.coeffs.get, reverse=True)
            out.append((inst.variables[lo].name, inst.variables[hi].name))
    return out


def without_sym(inst):
    """The same program without its sym_* rows."""
    rows = [row for row in inst.rows if not row.name.startswith("sym_")]
    return dataclasses.replace(inst, rows=rows)


def assert_same_optimum(inst):
    with_rows, without = solve(inst), solve(without_sym(inst))
    assert with_rows.status == without.status
    assert with_rows.objective == without.objective


class TestRows:
    def test_ladder4_orders_loops_of_equal_period(self):
        inst = build_instance(ladder_mode(4), 4, wide_params(hops=2), grid_us=5000)
        assert sym_rows(inst) == [("d_loop0", "d_loop2"), ("d_loop1", "d_loop3")]

    def test_ladder2_has_no_interchangeable_pair(self):
        # 200 ms and 400 ms loops
        inst = build_instance(ladder_mode(2), 4, wide_params(hops=2), grid_us=5000)
        assert sym_rows(inst) == []

    def test_a_class_is_chained_in_mode_order(self):
        inst = build_instance(ladder_mode(6), 4, wide_params(hops=2), grid_us=5000)
        assert sym_rows(inst) == [
            ("d_loop0", "d_loop2"), ("d_loop1", "d_loop3"),
            ("d_loop2", "d_loop4"), ("d_loop3", "d_loop5"),
        ]

    def test_rows_sit_just_before_the_round_ordering(self):
        inst = build_instance(ladder_mode(4), 4, wide_params(hops=2), grid_us=5000)
        names = [row.name for row in inst.rows]
        at = names.index("sym_0_2")
        assert names[at - 1].startswith("lat_")
        assert names[at + 1 : at + 3] == ["sym_1_3", "order_r0"]


class TestSwapMap:
    def base(self, *extra: Application) -> Mode:
        """Two 200 ms loops sharing the controller node, then extra."""
        loops = ladder_mode(3).applications
        return Mode("m", (loops[0], loops[2], *extra))

    def test_swaps_tasks_and_messages_both_ways(self):
        ren = swap_map(self.base(), 0, 1)
        assert ren == {
            "s0": "s2", "s2": "s0", "c0": "c2", "c2": "c0", "a0": "a2", "a2": "a0",
            "ms0": "ms2", "ms2": "ms0", "mc0": "mc2", "mc2": "mc0",
        }
        assert swap_map(self.base(), 1, 0) == ren

    def test_an_application_is_not_swapped_with_itself(self):
        assert swap_map(self.base(), 0, 0) is None

    def vary(self, **change) -> Mode:
        loop0, loop2 = self.base().applications
        return Mode("m", (loop0, dataclasses.replace(loop2, **change)))

    def test_wcet_differs(self):
        _loop0, loop2 = self.base().applications
        tasks = (loop2.tasks[0], dataclasses.replace(loop2.tasks[1], wcet_us=2000),
                 loop2.tasks[2])
        assert swap_map(self.vary(tasks=tasks), 0, 1) is None

    def test_period_differs(self):
        mode = self.vary(period_us=400_000, deadline_us=200_000)
        assert swap_map(mode, 0, 1) is None

    def test_deadline_differs(self):
        assert swap_map(self.vary(deadline_us=150_000), 0, 1) is None

    def test_edges_differ(self):
        # the same tasks and messages, the controller feeding the sensor
        edges = (("s2", "c2", "ms2"), ("a2", "c2", "mc2"))
        assert swap_map(self.vary(edges=edges), 0, 1) is None

    def test_task_shared_with_a_third_application(self):
        # the controller c0 (on the fixed node) also runs in "other"
        other = mk_app("other", 200, [("c0", "n_ctrl", 1), ("w", "n_w", 1)],
                       [("c0", "w", "q")])
        assert swap_map(self.base(other), 0, 1) is None

    def test_message_shared_with_a_third_application(self):
        # "other" sends mc0 from a task of its own on the fixed node
        other = mk_app("other", 200, [("z", "n_ctrl", 1), ("w", "n_w", 1)],
                       [("z", "w", "mc0")])
        assert swap_map(self.base(other), 0, 1) is None

    def test_moved_node_hosts_a_third_applications_task(self):
        other = mk_app("other", 200, [("z", "n_s0", 1)], [])
        assert swap_map(self.base(other), 0, 1) is None

    def test_third_application_on_the_fixed_node_is_no_obstacle(self):
        other = mk_app("other", 200, [("z", "n_ctrl", 1)], [])
        assert swap_map(self.base(other), 0, 1) is not None

    def test_nodes_must_pair_one_to_one(self):
        # loop2 puts its sensor and actuator on one node, loop0 does not
        _loop0, loop2 = self.base().applications
        tasks = (loop2.tasks[0], loop2.tasks[1],
                 dataclasses.replace(loop2.tasks[2], node="n_s2"))
        assert swap_map(self.vary(tasks=tasks), 0, 1) is None


class TestCheckerBacksTheSwap:
    """A schedule renamed by the swap is a schedule of the same mode."""

    @pytest.mark.parametrize("k, pairs", [(3, [(0, 2)]), (4, [(0, 2), (1, 3)])])
    def test_renamed_ladder_schedule_passes_check(self, k, pairs):
        mode, params = ladder_mode(k), wide_params(hops=2)
        out = synthesize(mode, params, LADDER_GRID)
        assert out.status == "feasible"
        for i, j in pairs:
            renamed = rename(out.schedule, swap_map(mode, i, j))
            assert renamed != out.schedule
            assert check(mode, renamed, params).ok, (i, j)

    def test_rows_keep_the_ladder3_optimum(self):
        inst = build_instance(ladder_mode(3), 4, wide_params(hops=2), grid_us=5000)
        assert len(sym_rows(inst)) == 1
        assert_same_optimum(inst)

    def test_cloned_seeded_modes(self):
        renamed = shared = 0
        for seed in CLONE_SEEDS:
            mode, params, private = cloned_case(seed)
            n = len(mode.applications)
            ren = swap_map(mode, n - 2, n - 1)
            assert (ren is not None) == private, seed
            if ren is None:
                shared += 1
                continue
            out = synthesize(mode, params, GRID)
            r = out.rounds_used
            if r is None:
                r = min(min_rounds(mode, params), max_rounds(mode, params, GRID))
            inst = build_instance(mode, r, params, grid_us=1000)
            assert (f"d_{mode.applications[-2].id}", f"d_{mode.applications[-1].id}") in (
                sym_rows(inst)
            )
            assert_same_optimum(inst)
            if out.schedule is not None:
                assert check(mode, rename(out.schedule, ren), params).ok, seed
                renamed += 1
        # 6 originals share a node with another application, 1 clone is
        # infeasible
        assert (renamed, shared) == (17, 6)
