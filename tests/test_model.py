"""Application model: validation rules, hyperperiods, chain enumeration."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundsched.model import (
    Application,
    Mode,
    ModelError,
    Task,
    ValidationReport,
    chains,
    hyperperiod,
    validate_application,
    validate_mode,
    validate_modes_disjoint,
)
from roundsched.synthesis import min_rounds
from support import (
    MS,
    control_app,
    control_mode,
    mk_app,
    path_count_oracle,
    pipeline_app,
    small_params,
)


def app_report(app: Application) -> ValidationReport:
    r = ValidationReport()
    validate_application(app, r)
    return r


def mode_report(mode: Mode) -> ValidationReport:
    r = ValidationReport()
    validate_mode(mode, r)
    return r


def test_control_app_is_valid():
    report = app_report(control_app())
    assert report.ok, report.violations


@pytest.mark.parametrize(
    "periods_ms, expect_ms",
    [
        ([10], 10),
        ([10, 15], 30),
        ([20, 50, 100], 100),
        ([7, 11], 77),
        ([100], 100),
    ],
)
def test_hyperperiod_values(periods_ms, expect_ms):
    apps = tuple(
        mk_app(f"a{i}", p, [(f"t{i}", f"n{i}", 1)], []) for i, p in enumerate(periods_ms)
    )
    assert hyperperiod(Mode("m", apps)) == expect_ms * MS


def test_hyperperiod_divides_evenly():
    mode = Mode(
        "m",
        (
            mk_app("a0", 12, [("t0", "n0", 1)], []),
            mk_app("a1", 18, [("t1", "n1", 1)], []),
        ),
    )
    h = hyperperiod(mode)
    assert h % (12 * MS) == 0 and h % (18 * MS) == 0
    assert h == 36 * MS


class TestValidation:
    def test_deadline_exceeds_period(self):
        app = mk_app("a", 10, [("t", "n", 1)], [], deadline_ms=12)
        assert "deadline_exceeds_period" in app_report(app).failed()

    def test_wcet_longer_than_period(self):
        app = mk_app("a", 10, [("t", "n", 11)], [])
        assert "bad_wcet" in app_report(app).failed()

    def test_wcet_must_be_positive(self):
        app = mk_app("a", 10, [("t", "n", 0)], [])
        assert str(app_report(app)) == "bad_wcet at application a, task t: wcet 0 us"

    def test_unknown_edge_task(self):
        app = mk_app("a", 10, [("t", "n", 1)], [("t", "ghost", "m")])
        assert "unknown_edge_task" in app_report(app).failed()

    def test_cycle_detected(self):
        app = mk_app(
            "a",
            10,
            [("t1", "n1", 1), ("t2", "n2", 1)],
            [("t1", "t2", "m1"), ("t2", "t1", "m2")],
        )
        assert "graph_cycle" in app_report(app).failed()

    def test_self_loop_is_a_cycle(self):
        app = mk_app("a", 10, [("t1", "n1", 1)], [("t1", "t1", "m")])
        assert "graph_cycle" in app_report(app).failed()

    def test_non_positive_period_is_reported_once(self):
        app = Application("a", 0, 0, (Task("t", "n", 1),), ())
        report = mode_report(Mode("m", (app,)))
        assert [v.code for v in report.violations] == ["bad_period", "bad_deadline"]

    def test_hyperperiod_beyond_the_cap_overflows(self):
        # two primes near 1000 s: their lcm is just past the cap
        apps = tuple(
            Application(f"a{p}", p, p, (Task(f"t{p}", "n", 1),), ())
            for p in (1_000_003, 1_000_033)
        )
        report = mode_report(Mode("m", apps))
        assert report.failed() == {"hyperperiod_overflow"}

    def test_shared_message_needs_one_period(self):
        a = mk_app("a", 10, [("t1", "n1", 1), ("u1", "n2", 1)], [("t1", "u1", "m")])
        b = mk_app("b", 20, [("t2", "n1", 1), ("u2", "n3", 1)], [("t2", "u2", "m")])
        report = mode_report(Mode("m", (a, b)))
        assert [(v.code, v.where) for v in report.violations] == [
            ("shared_message_mismatch", "mode m, message m"),
            ("several_producers", "mode m, message m"),
        ]
        assert mode_report(Mode("m", (a, dataclasses.replace(a, id="b")))).ok

    def test_duplicate_task_id(self):
        app = mk_app("a", 10, [("t", "n1", 1), ("t", "n2", 1)], [])
        assert "duplicate_task" in app_report(app).failed()

    def test_mode_sharing_requires_identical_tasks(self):
        a1 = mk_app("a1", 10, [("t", "n1", 1)], [])
        a2 = mk_app("a2", 10, [("t", "n2", 1)], [])
        report = mode_report(Mode("m", (a1, a2)))
        assert "shared_task_mismatch" in report.failed()

    def test_shared_task_needs_one_period(self):
        # the same task, listed by applications of two periods
        a = mk_app("a", 10, [("t", "n1", 1)], [])
        b = mk_app("b", 20, [("t", "n1", 1)], [])
        assert a.tasks == b.tasks
        report = mode_report(Mode("m", (a, b)))
        assert [(v.code, v.where) for v in report.violations] == [
            ("shared_task_mismatch", "mode m, task t")
        ]
        assert mode_report(Mode("m", (a, dataclasses.replace(a, id="b")))).ok

    def test_message_with_two_producers_on_different_nodes(self):
        app = mk_app(
            "a",
            10,
            [("t1", "n1", 1), ("t2", "n2", 1), ("t3", "n3", 1)],
            [("t1", "t3", "m"), ("t2", "t3", "m")],
        )
        assert app_report(app).ok
        report = mode_report(Mode("op", (app,)))
        assert [str(v) for v in report.violations] == [
            "several_producers at mode op, message m: produced by ['t1', 't2']"
        ]

    def test_shared_message_producers_on_different_nodes(self):
        a = mk_app("a", 10, [("t1", "n1", 1), ("u1", "n3", 1)], [("t1", "u1", "m")])
        b = mk_app("b", 10, [("t2", "n2", 1), ("u2", "n4", 1)], [("t2", "u2", "m")])
        assert app_report(a).ok and app_report(b).ok
        report = mode_report(Mode("shared", (a, b)))
        assert [(v.code, v.where) for v in report.violations] == [
            ("several_producers", "mode shared, message m")
        ]
        # different producers on one node are still two producers
        b_n1 = mk_app("b", 10, [("t2", "n1", 1), ("u2", "n4", 1)], [("t2", "u2", "m")])
        assert [str(v) for v in mode_report(Mode("shared", (a, b_n1))).violations] == [
            "several_producers at mode shared, message m: produced by ['t1', 't2']"
        ]

    def test_application_listed_twice_in_one_mode(self):
        a = mk_app("a", 10, [("t", "n", 1)], [])
        b = mk_app("b", 10, [("u", "n", 1)], [])
        report = mode_report(Mode("m", (a, b, a)))
        assert [(v.code, v.where) for v in report.violations] == [
            ("duplicate_application", "mode m, application a")
        ]

    def test_app_in_two_modes_rejected(self):
        a = mk_app("a", 10, [("t", "n", 1)], [])
        report = ValidationReport()
        validate_modes_disjoint((Mode("m1", (a,)), Mode("m2", (a,))), report)
        assert "app_in_multiple_modes" in report.failed()

    def test_empty_mode(self):
        assert "empty_mode" in mode_report(Mode("m", ())).failed()

    def test_hyperperiod_refuses_an_empty_mode(self):
        with pytest.raises(ModelError, match="^mode 'm' has no applications$"):
            hyperperiod(Mode("m", ()))

    @pytest.mark.parametrize("period_us", [0, -100_000])
    def test_hyperperiod_refuses_a_non_positive_period(self, period_us):
        app = Application("a", period_us, 100_000, (Task("t", "n", 1),), ())
        with pytest.raises(ModelError, match="^mode 'm' has a non-positive period$"):
            hyperperiod(Mode("m", (control_app(), app)))

    def test_report_text(self):
        report = ValidationReport()
        assert str(report) == "ok"
        report.add("bad_period", "application a", "period 0")
        report.add("empty_mode", "mode m", "no applications")
        assert str(report) == ("bad_period at application a: period 0\n"
                               "empty_mode at mode m: no applications")


class TestChains:
    def test_single_task_app_has_one_chain(self):
        app = mk_app("a", 10, [("t", "n", 1)], [])
        cs = chains(app)
        assert len(cs) == 1
        assert cs[0].items == ("t",)

    def test_pipeline(self):
        app = mk_app(
            "a",
            10,
            [("t1", "n1", 1), ("t2", "n2", 1), ("t3", "n3", 1)],
            [("t1", "t2", "m1"), ("t2", "t3", "m2")],
        )
        cs = chains(app)
        assert len(cs) == 1
        assert cs[0].items == ("t1", "m1", "t2", "m2", "t3")
        assert cs[0].task_ids == ("t1", "t2", "t3")
        assert cs[0].message_ids == ("m1", "m2")

    def test_control_topology_has_four_chains(self):
        cs = chains(control_app())
        assert [c.items for c in cs] == [
            ("t1", "m1", "t3", "m3", "t5"),
            ("t1", "m1", "t3", "m3", "t6"),
            ("t2", "m2", "t3", "m3", "t5"),
            ("t2", "m2", "t3", "m3", "t6"),
        ]
        assert all(c.first_task in ("t1", "t2") for c in cs)
        assert all(c.last_task in ("t5", "t6") for c in cs)

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                        lambda e: e[0] < e[1]
                    ),
                    max_size=10,
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_chain_count_matches_path_dp(self, case):
        n, edges = case
        app = mk_app(
            "a",
            10,
            [(f"t{i}", f"n{i}", 1) for i in range(n)],
            [(f"t{a}", f"t{b}", f"m{k}") for k, (a, b) in enumerate(edges)],
        )
        assert len(chains(app)) == path_count_oracle(n, edges)

    def test_cycle_raises_model_error(self):
        app = mk_app(
            "a",
            10,
            [("t0", "n0", 1), ("t1", "n1", 1), ("t2", "n2", 1)],
            [("t0", "t1", "m0"), ("t1", "t2", "m1"), ("t2", "t1", "m2")],
        )
        with pytest.raises(ModelError, match="application 'a' graph has a cycle"):
            chains(app)

    @staticmethod
    def assert_unknown_task_refused(edge):
        app = mk_app("a", 10, [("t", "n", 1)], [edge])
        msg = "application 'a': edge 'm' names unknown task 'ghost'"
        with pytest.raises(ModelError, match=msg):
            chains(app)

    def test_edge_from_an_unknown_task_raises_model_error(self):
        self.assert_unknown_task_refused(("ghost", "t", "m"))

    def test_edge_to_an_unknown_task_raises_model_error(self):
        # once returned the chain ('t', 'm', 'ghost')
        self.assert_unknown_task_refused(("t", "ghost", "m"))

    def test_long_pipeline(self):
        # 1100 tasks: a chain walk that recurses once per hop overflows
        # Python's default stack here
        app = pipeline_app(1100)
        mode = Mode("m", (app,))
        assert mode_report(mode).ok
        (chain,) = chains(app)
        assert len(chain.items) == 2199
        assert chain.task_ids == tuple(t.id for t in app.tasks)
        assert chain.message_ids == app.message_ids
        # 1099 hops of one chain instance, one round each
        assert min_rounds(mode, small_params()) == 1099

    def test_chains_cover_every_task_and_message(self):
        app = control_app()
        seen_t = {t for c in chains(app) for t in c.task_ids}
        seen_m = {m for c in chains(app) for m in c.message_ids}
        assert seen_t == {t.id for t in app.tasks}
        assert seen_m == set(app.message_ids)


def test_mode_accessors():
    mode = control_mode()
    assert list(mode.all_tasks()) == ["t1", "t2", "t3", "t5", "t6"]
    assert list(mode.message_periods()) == ["m1", "m2", "m3"]
    assert hyperperiod(mode) == 100 * MS


def test_messages_are_derived_from_edges():
    app = mk_app(
        "a",
        10,
        [("t1", "n1", 1), ("t2", "n2", 1), ("t3", "n3", 1)],
        [("t2", "t3", "mb"), ("t1", "t3", "ma"), ("t1", "t2", "ma")],
    )
    assert app.message_ids == ("ma", "mb")
    assert Mode("m", (app,)).message_periods() == {"ma": 10 * MS, "mb": 10 * MS}
    slower = dataclasses.replace(app, period_us=20 * MS)
    assert Mode("m", (slower,)).message_periods()["ma"] == 20 * MS
    assert Mode("m", (slower,)).task_periods() == {t: 20 * MS for t in ("t1", "t2", "t3")}
    assert mode_report(Mode("m", (slower,))).ok


def test_mode_producers_merge_applications():
    a = mk_app("a", 10, [("t2", "n1", 1), ("u", "n2", 1)], [("t2", "u", "m")])
    b = mk_app(
        "b",
        10,
        [("t1", "n1", 1), ("v", "n3", 1), ("w", "n4", 1)],
        [("t1", "v", "m"), ("v", "w", "x")],
    )
    with pytest.raises(ModelError, match=r"^mode 'op', message 'm': produced by \['t1', 't2'\]$"):
        Mode("op", (a, b)).producers()
    # an application that lists t2 -m-> too adds no producer
    c = mk_app("c", 10, [("t2", "n1", 1), ("v", "n3", 1)], [("t2", "v", "m")])
    mode = Mode("op", (a, c))
    assert mode.producers() == {"m": mode.all_tasks()["t2"]}


def test_mode_producers_skip_an_edge_from_an_unlisted_task():
    # validate_application reports the edge; producers() reads past it
    app = mk_app("a", 10, [("t1", "n1", 1), ("u", "n2", 1)], [("t1", "u", "m"), ("t9", "u", "m")])
    assert "unknown_edge_task" in app_report(app).failed()
    mode = Mode("op", (app,))
    assert mode.producers() == {"m": mode.all_tasks()["t1"]}
