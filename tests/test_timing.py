"""Round/slot timing and the radio energy ratio.

Frozen numbers below were hand-derived from the raw constants (bitrate,
header sizes, flood width) and cross-checked against the Fraction-based
oracle in support.py which recomputes everything from scratch.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from roundsched.timing import (
    NETWORK_MINIMUMS,
    NetworkParams,
    energy_saving,
    latency_improvement_factor,
    round_length,
    t_slot,
)
from support import round_oracle_us, wide_params


P4 = wide_params(hops=4)
P2 = wide_params(hops=2)


@pytest.mark.parametrize(
    "nbytes, expect_us",
    [(10, 320), (19, 608), (3, 96), (9, 288), (12, 384)],
)
def test_tx_time_values(nbytes, expect_us):
    # nbytes more payload lengthen every phase of the flood by their airtime
    grown = t_slot(10 + nbytes, P4).on_us - t_slot(10, P4).on_us
    assert grown == P4.flood_width * expect_us


def test_slot_parts_for_ten_byte_payload():
    s = t_slot(10, P4)
    assert s.on_us == 4896
    assert s.off_us == 3750
    assert s.total_us == 8646


def test_beacon_slot_total():
    assert t_slot(3, P4).total_us == 7078


@pytest.mark.parametrize(
    "params, expect_us",
    [(P4, 50308), (P2, 42644)],
)
def test_round_length_frozen(params, expect_us):
    assert round_length(params) == expect_us


def test_round_length_in_expected_band():
    ms = round_length(P4) / 1000
    assert 50.0 <= ms <= 50.5


def test_round_length_matches_oracle_grid():
    for h in (1, 2, 4, 6):
        for b in (1, 3, 5, 8):
            for l in (5, 10, 19):
                p = NetworkParams(hops=h, slots_per_round=b, payload_bytes=l)
                assert round_length(p) == round_oracle_us(l, b, h)


class TestNetworkMinimums:
    def test_network_no_spec_can_state_is_refused(self):
        # it had flood_width -1, a slot radio-on time of -4032 us and 2052 us
        # rounds for five 120-byte slots, and synthesized "feasible"
        with pytest.raises(ValueError, match="^network hops must be at least 1, got 0$"):
            NetworkParams(hops=0, slots_per_round=5, payload_bytes=120, retransmissions=0)

    def test_one_hop_without_retransmissions_is_refused(self):
        # its flood would have no phase on air, a radio on 164 us for nothing
        with pytest.raises(ValueError, match="^network retransmissions must be at least 1, "
                                             "got 0$"):
            NetworkParams(hops=1, slots_per_round=5, payload_bytes=10, retransmissions=0)
        assert NetworkParams(1, 5, 10, retransmissions=1).flood_width == 2

    @pytest.mark.parametrize("field", sorted(NETWORK_MINIMUMS))
    def test_each_field_names_itself(self, field):
        least = NETWORK_MINIMUMS[field]
        assert getattr(replace(P4, **{field: least}), field) == least
        with pytest.raises(ValueError, match=f"^network {field} must be at least {least}, "
                                             f"got {least - 1}$"):
            replace(P4, **{field: least - 1})


class TestEnergy:
    def test_reference_saving(self):
        s = energy_saving(P4)
        assert s == Fraction(13312, 41120)
        assert abs(float(s) - 0.3237) < 0.01

    def test_round_without_data_slots_is_refused(self):
        # its saving would be 0/0; no such network can be built
        with pytest.raises(ValueError, match="^network slots_per_round must be at least 1, "
                                             "got 0$"):
            replace(P4, slots_per_round=0)

    def test_single_slot_saves_nothing(self):
        assert energy_saving(replace(P4, slots_per_round=1)) == 0

    def test_saving_grows_with_slot_count(self):
        vals = [energy_saving(replace(P4, slots_per_round=b)) for b in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_saving_shrinks_with_payload(self):
        vals = [energy_saving(replace(P4, payload_bytes=l)) for l in (2, 5, 10, 19, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_saving_independent_of_hops(self):
        # flood width scales both numerator and denominator parts the same
        # way only through slot counts, not identically, so just check range
        for h in (1, 2, 4, 8):
            s = energy_saving(wide_params(hops=h))
            assert 0 < s < 1

    def test_grid_shape_and_header(self):
        # the model table's saving column: an exact fraction in [0, 1) at
        # every grid point, 0 exactly at one slot
        for l in (5, 10):
            for b in (1, 2, 5):
                s = energy_saving(replace(P4, slots_per_round=b, payload_bytes=l))
                assert isinstance(s, Fraction) and 0 <= s < 1
                assert (s == 0) == (b == 1)


def test_round_grid_monotone_in_hops_and_slots():
    by_key = {
        (h, b): round_length(replace(P4, hops=h, slots_per_round=b))
        for h in (1, 2, 4, 8)
        for b in (1, 2, 5, 10)
    }
    for b in (1, 2, 5, 10):
        col = [by_key[(h, b)] for h in (1, 2, 4, 8)]
        assert col == sorted(col) and len(set(col)) == 4
    for h in (1, 2, 4, 8):
        row = [by_key[(h, b)] for b in (1, 2, 5, 10)]
        assert row == sorted(row) and len(set(row)) == 4


class TestLatency:
    def test_improvement_factor_is_two(self):
        assert latency_improvement_factor(P4) == 2.0
        assert latency_improvement_factor(P2) == 2.0
