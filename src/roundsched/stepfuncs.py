"""Counting step functions over message release, deadline and service events.

These are the analysis primitives that couple the task/message schedule with
the round schedule: how many instances of a message have been released by
time t, how many must already be delivered, and how many the rounds have
actually carried. All three count from the hyperperiod origin t=0 and use
exact integer arithmetic (floor/ceil with mathematically correct behaviour
for negative numerators).

service() and check_order() evaluate one instant by scanning every round.
service_sweep() and first_order_violation() give the same counts and
verdicts over an ascending list of instants in one merged pass, which is
what the schedule checker runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .model import Round, TimeUs


@dataclass(frozen=True, slots=True)
class MsgTiming:
    """Scheduled timing of one message: offset, relative deadline, period.

    A plain carrier; the schedule checker is responsible for verifying the
    domains (0 <= offset < period, 0 < deadline, offset + deadline < 2*period).
    """

    id: str
    offset_us: int
    deadline_us: int
    period_us: int


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def arrival(m: MsgTiming, t: TimeUs) -> int:
    """Instances of m released at or before t (releases at offset + k*period).

    >>> m = MsgTiming("m", 2000, 5000, 10_000)
    >>> arrival(m, 2000), arrival(m, 11_000), arrival(m, 12_000)
    (1, 1, 2)
    """
    return (t - m.offset_us) // m.period_us + 1


def demand(m: MsgTiming, t: TimeUs) -> int:
    """Instances of m whose deadline has passed strictly before t.

    Counts deadline instants offset + deadline + k*period < t. The count is
    -1 between t=0 and the wrapped deadline when offset + deadline > period:
    one instance of the previous hyperperiod is still in flight at the origin.

    >>> m = MsgTiming("m", 0, 4000, 10_000)
    >>> demand(m, 0), demand(m, 4000), demand(m, 4001)
    (0, 0, 1)
    >>> demand(MsgTiming("m", 8000, 5000, 10_000), 0)
    -1
    """
    return _ceil_div(t - m.offset_us - m.deadline_us, m.period_us)


def service(
    m: MsgTiming,
    t: TimeUs,
    rounds: Sequence[Round],
    carried: int,
    round_len_us: int,
) -> int:
    """Instances of m delivered strictly before t, net of the carried backlog.

    A round delivers its slot allocations at its end; only rounds that have
    finished before t count. carried is the schedule's leftover count for m
    at the hyperperiod origin (instances of the previous hyperperiod that the
    counted rounds serve first), so the result starts at -carried.
    """
    n = 0
    for r in rounds:
        if r.t + round_len_us < t:
            n += r.count(m.id)
    return n - carried


def leftover(m: MsgTiming) -> int:
    """1 if m's service window can wrap past the hyperperiod boundary.

    Equals -demand(m, 0): with offset + deadline > period the final instance
    of each hyperperiod may be served early in the next one. Whether a given
    schedule actually does so is recorded in the schedule's leftover map, not
    here.

    >>> leftover(MsgTiming("m", 8000, 5000, 10_000))
    1
    >>> leftover(MsgTiming("m", 0, 4000, 10_000))
    0
    >>> leftover(MsgTiming("m", 5000, 5000, 10_000))
    0
    """
    return 1 if m.offset_us + m.deadline_us > m.period_us else 0


def release_instants(m: MsgTiming, horizon_us: int) -> list[TimeUs]:
    """Release instants of m inside [0, horizon_us]."""
    out = []
    t = m.offset_us
    while t <= horizon_us:
        out.append(t)
        t += m.period_us
    return out


def deadline_instants(m: MsgTiming, horizon_us: int) -> list[TimeUs]:
    """Deadline instants of m inside [0, horizon_us], wrapped ones included."""
    out = []
    t = m.offset_us + m.deadline_us
    while t > m.period_us:
        t -= m.period_us
    while t <= horizon_us:
        out.append(t)
        t += m.period_us
    return out


def check_order(
    m: MsgTiming,
    t: TimeUs,
    rounds: Sequence[Round],
    carried: int,
    round_len_us: int,
) -> Optional[str]:
    """Verify demand <= service <= arrival at one instant.

    Returns None when the ordering holds, else a short description.
    """
    af = arrival(m, t)
    df = demand(m, t)
    sf = service(m, t, rounds, carried, round_len_us)
    if not (df <= sf <= af):
        return (
            f"message {m.id} at t={t}: demand={df} service={sf} "
            f"arrival={af} violates demand <= service <= arrival"
        )
    return None


def service_sweep(
    instants: Iterable[TimeUs], deliveries: Sequence[TimeUs], carried: int
) -> Iterator[tuple[TimeUs, int]]:
    """(t, service at t) for each of the ascending instants, in one pass.

    deliveries holds one round end per allocated slot of the message, in
    ascending order (a round carrying it in two slots appears twice), so
    the counts equal service() with the same rounds and carried backlog.
    Each delivery is passed once: the cost is linear in the instants plus
    the deliveries, not their product.
    """
    served = -carried
    i = 0
    for t in instants:
        while i < len(deliveries) and deliveries[i] < t:
            served += 1
            i += 1
        yield t, served


def first_order_violation(
    m: MsgTiming,
    instants: Iterable[TimeUs],
    deliveries: Sequence[TimeUs],
    carried: int,
) -> Optional[TimeUs]:
    """The first of the ascending instants at which check_order() fails.

    Compares demand <= service <= arrival along service_sweep(); returns
    None when the ordering holds at every instant.
    """
    for t, sf in service_sweep(instants, deliveries, carried):
        if not demand(m, t) <= sf <= arrival(m, t):
            return t
    return None
