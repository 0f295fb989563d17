"""Counting step functions: arrivals, deadline demand, round-based service.

The event-stepping oracles in support.py count instants one at a time;
the closed forms and the merged service sweep under test must agree with
them everywhere.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundsched.model import Round
from roundsched.stepfuncs import (
    MsgTiming,
    arrival,
    deadline_instants,
    demand,
    first_order_violation,
    service_sweep,
)
from support import af_oracle, df_oracle, sv_oracle

MS = 1000


def timings(o_ms, d_ms, p_ms):
    return MsgTiming("m", o_ms * MS, d_ms * MS, p_ms * MS)


@pytest.mark.parametrize(
    "t_ms, expect",
    [(0, 0), (2, 1), (11, 1), (11.999, 1), (12, 2), (21.999, 2), (22, 3)],
)
def test_arrival_reference_curve(t_ms, expect):
    m = timings(2, 4, 10)
    assert arrival(m, int(t_ms * MS)) == expect


def test_arrival_at_origin_with_zero_offset():
    assert arrival(timings(0, 4, 10), 0) == 1


@pytest.mark.parametrize(
    "t_ms, expect",
    [(0, 0), (4, 0), (4.001, 1), (14, 1), (14.001, 2), (24, 2)],
)
def test_demand_reference_curve(t_ms, expect):
    m = timings(0, 4, 10)
    assert demand(m, int(t_ms * MS)) == expect


def test_demand_negative_before_wrapped_deadline():
    # offset 8, deadline 5: the previous instance's deadline (3ms) is still
    # ahead at the origin, so one unit of demand is owed back.
    m = timings(8, 5, 10)
    assert demand(m, 0) == -1
    assert demand(m, 3 * MS) == -1
    assert demand(m, 3 * MS + 1) == 0
    assert demand(m, 13 * MS + 1) == 1


@pytest.mark.parametrize(
    "o_ms, d_ms, p_ms, expect",
    [(8, 5, 10, 1), (2, 4, 10, 0), (0, 10, 10, 0), (5, 6, 10, 1)],
)
def test_leftover_indicator(o_ms, d_ms, p_ms, expect):
    # a window crossing the origin leaves one unit owed just after it
    assert -demand(timings(o_ms, d_ms, p_ms), 1) == expect


class TestService:
    ROUND_LEN = 2 * MS

    def rounds(self, starts_ms, mid="m"):
        return tuple(Round(int(s * MS), (mid,)) for s in starts_ms)

    def check(self, rs, carried, want):
        """service_sweep at want's instants gives want's counts, as sv_oracle does."""
        deliveries = [r.t + self.ROUND_LEN for r in rs for a in r.alloc if a == "m"]
        got = list(service_sweep(sorted(want), deliveries, carried))
        assert got == sorted(want.items())
        assert all(
            sv_oracle("m", t, rs, carried, self.ROUND_LEN) == sf for t, sf in got
        )

    def test_counts_only_finished_rounds(self):
        # round ending at 2ms counts strictly after 2ms
        self.check(self.rounds([0, 3, 8]), 0,
                   {2 * MS: 0, 2 * MS + 1: 1, 5 * MS + 1: 2, 10 * MS + 1: 3})

    def test_carried_unit_shifts_curve_down(self):
        self.check(self.rounds([0, 3]), 1, {0: -1, 2 * MS + 1: 0})

    def test_rounds_not_carrying_message_ignored(self):
        self.check((Round(0, ("x",)), Round(3 * MS, ("m", "x"))), 0, {10 * MS: 1})

    def test_double_slot_round_counts_twice(self):
        self.check((Round(0, ("m", "m")),), 0, {3 * MS: 2})


def test_deadline_instants():
    m = timings(8, 5, 10)
    assert list(deadline_instants(m, 30 * MS)) == [3 * MS, 13 * MS, 23 * MS]


def order_violation(m, t, rs, round_len):
    deliveries = [r.t + round_len for r in rs for a in r.alloc if a == m.id]
    return first_order_violation(m, [t], deliveries, 0)


def test_check_order_flags_service_overrun():
    m = timings(0, 10, 10)
    rs = (Round(0, ("m",)), Round(3 * MS, ("m",)))
    # two rounds served but only one arrival by 6ms
    assert order_violation(m, 6 * MS, rs, 2 * MS) == (6 * MS, 0, 2, 1)


def test_check_order_flags_missed_demand():
    m = timings(0, 4, 10)
    assert order_violation(m, 5 * MS, (), 2 * MS) == (5 * MS, 1, 0, 1)


def test_check_order_clean():
    m = timings(0, 4, 10)
    rs = (Round(1 * MS, ("m",)),)
    for t_ms in range(0, 11):
        assert order_violation(m, t_ms * MS, rs, 2 * MS) is None


# --- oracle agreement and curve laws ---------------------------------------

msg_strategy = st.tuples(
    st.integers(0, 39),  # offset
    st.integers(1, 40),  # deadline
    st.sampled_from([10, 20, 40]),  # period
).filter(lambda x: x[0] < x[2] and x[1] <= x[2])


@given(msg_strategy, st.integers(0, 120))
@settings(max_examples=400, deadline=None)
def test_arrival_matches_stepping_oracle(m, t):
    o, d, p = m
    assert arrival(MsgTiming("m", o, d, p), t) == af_oracle(o, p, t)


@given(msg_strategy, st.integers(0, 120))
@settings(max_examples=400, deadline=None)
def test_demand_matches_stepping_oracle(m, t):
    o, d, p = m
    assert demand(MsgTiming("m", o, d, p), t) == df_oracle(o, d, p, t)


@given(msg_strategy, st.integers(0, 119))
@settings(max_examples=300, deadline=None)
def test_curves_monotone_and_periodic(m, t):
    o, d, p = m
    mt = MsgTiming("m", o, d, p)
    assert arrival(mt, t) <= arrival(mt, t + 1)
    assert demand(mt, t) <= demand(mt, t + 1)
    assert arrival(mt, t + p) == arrival(mt, t) + 1
    assert demand(mt, t + p) == demand(mt, t) + 1


@given(msg_strategy, st.integers(0, 120))
@settings(max_examples=300, deadline=None)
def test_arrival_leads_demand_by_at_most_two(m, t):
    o, d, p = m
    mt = MsgTiming("m", o, d, p)
    gap = arrival(mt, t) - demand(mt, t)
    assert gap in (0, 1, 2)


@given(msg_strategy)
@settings(max_examples=200, deadline=None)
def test_leftover_iff_demand_negative_just_after_origin(m):
    # at t=0 itself a wrapped deadline landing exactly on the origin still
    # counts as owed, but no round is required for it; probe one tick later
    o, d, p = m
    mt = MsgTiming("m", o, d, p)
    assert (o + d > p) == (demand(mt, 1) < 0)


@given(
    msg_strategy,
    st.lists(st.integers(0, 36), unique=True, max_size=5).map(sorted),
    st.integers(0, 1),
)
@settings(max_examples=300, deadline=None)
def test_service_matches_direct_count(m, starts, carried):
    rs = tuple(Round(s, ("m",)) for s in starts)
    instants = range(0, 41, 3)
    swept = service_sweep(instants, [s + 4 for s in starts], carried)
    assert list(swept) == [(t, sv_oracle("m", t, rs, carried, 4)) for t in instants]


# --- the merged sweep against the stepping oracles -------------------------

rounds_strategy = st.lists(
    st.tuples(
        st.integers(0, 36),  # start
        st.lists(st.sampled_from(["m", "x"]), max_size=3),  # slots
    ),
    max_size=5,
).map(lambda rs: tuple(Round(t, tuple(a)) for t, a in sorted(rs, key=lambda r: r[0])))


@given(
    msg_strategy,
    rounds_strategy,
    st.integers(0, 1),
    st.lists(st.integers(0, 60), unique=True).map(sorted),
)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_sweep_matches_oracles_at_every_instant(m, rs, carried, instants):
    o, d, p = m
    mt = MsgTiming("m", o, d, p)
    deliveries = [r.t + 4 for r in rs for a in r.alloc if a == "m"]
    curves = [
        (t, df_oracle(o, d, p, t), sv_oracle("m", t, rs, carried, 4), af_oracle(o, p, t))
        for t in instants
    ]
    swept = list(service_sweep(instants, deliveries, carried))
    assert swept == [(t, sv) for t, _, sv, _ in curves]
    failing = [c for c in curves if not c[1] <= c[2] <= c[3]]
    want = failing[0] if failing else None
    assert first_order_violation(mt, instants, deliveries, carried) == want
