"""Radio timing and energy model for flood-based communication rounds.

A round is one beacon slot followed by a fixed number of data slots. Each
slot floods one packet through the whole network; its length depends on the
network diameter, the per-hop retransmission count and the packet size.
Everything is exact integer microseconds; the only rounding happens in
t_tx (half-up to the nearest microsecond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


@dataclass(frozen=True, slots=True)
class NetworkParams:
    """Deployment and radio constants.

    The defaults for the radio constants match a 250 kbps 802.15.4 transceiver
    with a 3 ms inter-slot processing gap.
    """

    hops: int
    slots_per_round: int
    payload_bytes: int
    retransmissions: int = 2
    beacon_bytes: int = 3
    cal_bytes: int = 3
    header_bytes: int = 6
    bitrate_bps: int = 250_000
    wakeup_us: int = 750
    start_us: int = 164
    radio_delay_us: int = 68
    gap_us: int = 3000

    @property
    def flood_width(self) -> int:
        """Number of per-hop transmission phases one flood occupies."""
        return self.hops + 2 * self.retransmissions - 1


class SlotTiming(NamedTuple):
    """Radio-on and radio-off parts of one slot, in microseconds."""

    on_us: int
    off_us: int

    @property
    def total_us(self) -> int:
        return self.on_us + self.off_us


def _half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def t_tx(nbytes: int, p: NetworkParams) -> int:
    """Airtime of nbytes on the radio, rounded half-up to microseconds.

    >>> p = NetworkParams(hops=4, slots_per_round=5, payload_bytes=10)
    >>> t_tx(10, p), t_tx(19, p)
    (320, 608)
    """
    return _half_up(Fraction(8 * nbytes * 1_000_000, p.bitrate_bps))


def t_slot(payload_bytes: int, p: NetworkParams) -> SlotTiming:
    """One flooding slot carrying payload_bytes of payload.

    The radio-on part covers the start-up delay plus every transmission phase
    of the flood (calibration + header + payload per phase); the radio-off
    part is the wakeup guard plus the processing gap.

    >>> p = NetworkParams(hops=4, slots_per_round=5, payload_bytes=10)
    >>> t_slot(10, p)
    SlotTiming(on_us=4896, off_us=3750)
    >>> t_slot(10, p).total_us
    8646
    """
    hop = p.radio_delay_us + t_tx(p.cal_bytes + p.header_bytes + payload_bytes, p)
    on = p.start_us + p.flood_width * hop
    off = p.wakeup_us + p.gap_us
    return SlotTiming(on, off)


def t_round(payload_bytes: int, data_slots: int, p: NetworkParams) -> int:
    """Length of one round: a beacon slot plus data_slots payload slots.

    >>> p = NetworkParams(hops=4, slots_per_round=5, payload_bytes=10)
    >>> t_round(10, 5, p)
    50308
    """
    return t_slot(p.beacon_bytes, p).total_us + data_slots * t_slot(payload_bytes, p).total_us


def round_length(p: NetworkParams) -> int:
    """Round length for the parameter set's own payload and slot count."""
    return t_round(p.payload_bytes, p.slots_per_round, p)


def baseline_round_time(payload_bytes: int, data_slots: int, p: NetworkParams) -> int:
    """Time to move the same traffic without rounds: one beacon per message."""
    per_msg = t_slot(p.beacon_bytes, p).total_us + t_slot(payload_bytes, p).total_us
    return data_slots * per_msg

def energy_saving(payload_bytes: int, data_slots: int, p: NetworkParams) -> Fraction:
    """Relative radio-on time saved by grouping messages into one round.

    Compares the radio-on time of one round (one beacon, data_slots payloads)
    against sending each payload with its own beacon. Exact fraction; 0 for a
    single slot, growing with the slot count.  Raises ValueError where the
    saving is 0/0: no data slot, or slots that take no radio-on time.

    >>> p = NetworkParams(hops=4, slots_per_round=5, payload_bytes=10)
    >>> energy_saving(10, 5, p) == Fraction(13312, 41120)
    True
    >>> energy_saving(10, 1, p)
    Fraction(0, 1)
    """
    on_beacon = t_slot(p.beacon_bytes, p).on_us
    on_data = t_slot(payload_bytes, p).on_us
    with_rounds = on_beacon + data_slots * on_data
    without = data_slots * (on_beacon + on_data)
    if without == 0:
        raise ValueError("energy saving is 0/0: without rounds the radio is never on")
    return Fraction(without - with_rounds, without)


def message_latency_bound(p: NetworkParams) -> int:
    """Worst-case delay from message release to delivery: one full round."""
    return round_length(p)


def latency_improvement_factor(p: NetworkParams, baseline_rounds: int = 2) -> float:
    """Delivery-latency ratio against a design that needs baseline_rounds
    round lengths per message (request plus response scheduling)."""
    return baseline_rounds * round_length(p) / round_length(p)
