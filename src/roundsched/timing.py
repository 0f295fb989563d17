"""Radio timing and energy model for flood-based communication rounds.

A round is one beacon slot followed by a fixed number of data slots. Each
slot floods one packet through the whole network; its length depends on the
network diameter, the per-hop retransmission count and the packet size.

The radio is fixed: a 250 kbps 802.15.4 transceiver, on which a byte takes
exactly 32 us on air, with a 3 ms processing gap after every slot.  So
every time is an exact integer number of microseconds, and nothing rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

#: payload bytes of a beacon
BEACON_BYTES = 3
#: bytes sent ahead of every payload in each transmission phase
CAL_BYTES = 3
HEADER_BYTES = 6
BITRATE_BPS = 250_000
#: radio-off time of every slot: the wakeup guard and the processing gap
WAKEUP_US = 750
GAP_US = 3000
#: radio start-up time of a slot, and the turnaround of each phase
START_US = 164
RADIO_DELAY_US = 68


#: the least value of each NetworkParams field, what makes a round real:
#: a flood crosses at least one hop, a round carries at least one data slot
#: after its beacon, a packet has a payload byte, and in a Glossy flood every
#: node transmits at least once (at 0 a 1-hop flood has no phase on air)
NETWORK_MINIMUMS = {"hops": 1, "slots_per_round": 1, "payload_bytes": 1,
                    "retransmissions": 1}


@dataclass(frozen=True, slots=True)
class NetworkParams:
    """The deployment: network diameter, round size, payload and the
    per-hop retransmission count of a flood."""

    hops: int
    slots_per_round: int
    payload_bytes: int
    retransmissions: int = 2

    def __post_init__(self) -> None:
        for name, least in NETWORK_MINIMUMS.items():
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"network {name} must be at least {least}, got {value}")

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
    airtime = (CAL_BYTES + HEADER_BYTES + payload_bytes) * 8_000_000 // BITRATE_BPS
    on = START_US + p.flood_width * (RADIO_DELAY_US + airtime)
    return SlotTiming(on, WAKEUP_US + GAP_US)


def round_length(p: NetworkParams) -> int:
    """Length of one round: a beacon slot plus slots_per_round data slots.

    >>> round_length(NetworkParams(hops=4, slots_per_round=5, payload_bytes=10))
    50308
    """
    return (t_slot(BEACON_BYTES, p).total_us
            + p.slots_per_round * t_slot(p.payload_bytes, p).total_us)


def energy_saving(p: NetworkParams) -> Fraction:
    """Relative radio-on time saved by grouping messages into one round.

    Compares the radio-on time of one round (one beacon, slots_per_round
    payloads) against sending each payload with its own beacon. Exact
    fraction; 0 for a single slot, growing with the slot count.

    >>> p = NetworkParams(hops=4, slots_per_round=5, payload_bytes=10)
    >>> energy_saving(p) == Fraction(13312, 41120)
    True
    >>> energy_saving(NetworkParams(hops=4, slots_per_round=1, payload_bytes=10))
    Fraction(0, 1)
    """
    on_beacon = t_slot(BEACON_BYTES, p).on_us
    on_data = t_slot(p.payload_bytes, p).on_us
    with_rounds = on_beacon + p.slots_per_round * on_data
    without = p.slots_per_round * (on_beacon + on_data)
    return Fraction(without - with_rounds, without)


def message_latency_bound(p: NetworkParams) -> int:
    """Worst-case delay from message release to delivery: one full round."""
    return round_length(p)


def latency_improvement_factor(p: NetworkParams, baseline_rounds: int = 2) -> float:
    """Delivery-latency ratio against a design that needs baseline_rounds
    round lengths per message (request plus response scheduling)."""
    return baseline_rounds * round_length(p) / round_length(p)
