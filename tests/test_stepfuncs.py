"""Counting step functions: arrivals, deadline demand, round-based service.

The event-stepping oracles in support.py count instants one at a time;
the closed forms under test must agree with them everywhere.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundsched.model import Round
from roundsched.stepfuncs import (
    MsgTiming,
    arrival,
    check_order,
    deadline_instants,
    demand,
    first_order_violation,
    leftover,
    release_instants,
    service,
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
    assert leftover(timings(o_ms, d_ms, p_ms)) == expect


class TestService:
    ROUND_LEN = 2 * MS

    def rounds(self, starts_ms, mid="m"):
        return tuple(Round(int(s * MS), (mid,)) for s in starts_ms)

    def test_counts_only_finished_rounds(self):
        rs = self.rounds([0, 3, 8])
        m = timings(0, 10, 10)
        # round ending at 2ms counts strictly after 2ms
        assert service(m, 2 * MS, rs, 0, self.ROUND_LEN) == 0
        assert service(m, 2 * MS + 1, rs, 0, self.ROUND_LEN) == 1
        assert service(m, 5 * MS + 1, rs, 0, self.ROUND_LEN) == 2
        assert service(m, 10 * MS + 1, rs, 0, self.ROUND_LEN) == 3

    def test_carried_unit_shifts_curve_down(self):
        rs = self.rounds([0, 3])
        m = timings(8, 5, 10)
        assert service(m, 0, rs, 1, self.ROUND_LEN) == -1
        assert service(m, 2 * MS + 1, rs, 1, self.ROUND_LEN) == 0

    def test_rounds_not_carrying_message_ignored(self):
        rs = (Round(0, ("x",)), Round(3 * MS, ("m", "x")))
        m = timings(0, 10, 10)
        assert service(m, 10 * MS, rs, 0, self.ROUND_LEN) == 1

    def test_double_slot_round_counts_twice(self):
        rs = (Round(0, ("m", "m")),)
        m = timings(0, 10, 10)
        assert service(m, 3 * MS, rs, 0, self.ROUND_LEN) == 2


def test_release_and_deadline_instants():
    m = timings(8, 5, 10)
    assert release_instants(m, 30 * MS) == [8 * MS, 18 * MS, 28 * MS]
    assert deadline_instants(m, 30 * MS) == [3 * MS, 13 * MS, 23 * MS]


def test_check_order_flags_service_overrun():
    m = timings(0, 10, 10)
    rs = (Round(0, ("m",)), Round(3 * MS, ("m",)))
    # two rounds served but only one arrival by 6ms
    msg = check_order(m, 6 * MS, rs, 0, 2 * MS)
    assert msg is not None and "arrival" in msg


def test_check_order_flags_missed_demand():
    m = timings(0, 4, 10)
    msg = check_order(m, 5 * MS, (), 0, 2 * MS)
    assert msg is not None and "demand" in msg


def test_check_order_clean():
    m = timings(0, 4, 10)
    rs = (Round(1 * MS, ("m",)),)
    for t_ms in range(0, 11):
        assert check_order(m, t_ms * MS, rs, 0, 2 * MS) is None


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
    assert leftover(mt) == (1 if demand(mt, 1) < 0 else 0)


@given(
    msg_strategy,
    st.lists(st.integers(0, 36), unique=True, max_size=5).map(sorted),
    st.integers(0, 1),
)
@settings(max_examples=300, deadline=None)
def test_service_matches_direct_count(m, starts, carried):
    o, d, p = m
    mt = MsgTiming("m", o, d, p)
    rs = tuple(Round(s, ("m",)) for s in starts)
    for t in range(0, 41, 3):
        assert service(mt, t, rs, carried, 4) == sv_oracle("m", t, rs, carried, 4)


# --- the merged sweep against the one-instant definitions -----------------

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
def test_sweep_matches_service_and_check_order_at_every_instant(m, rs, carried, instants):
    o, d, p = m
    mt = MsgTiming("m", o, d, p)
    deliveries = [r.t + 4 for r in rs for a in r.alloc if a == "m"]
    swept = list(service_sweep(instants, deliveries, carried))
    assert swept == [(t, service(mt, t, rs, carried, 4)) for t in instants]
    failing = [t for t in instants if check_order(mt, t, rs, carried, 4) is not None]
    want = failing[0] if failing else None
    assert first_order_violation(mt, instants, deliveries, carried) == want
