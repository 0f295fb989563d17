"""Counting step functions over message release, deadline and service events.

These are the analysis primitives that couple the task/message schedule with
the round schedule: how many instances of a message have been released by
time t, how many must already be delivered, and how many the rounds have
actually carried. All three count from the hyperperiod origin t=0 and use
exact integer arithmetic (floor/ceil with mathematically correct behaviour
for negative numerators).

Service is counted over ascending instants in one merged pass over the
round ends (service_sweep); first_order_violation() runs that pass to
find where demand <= service <= arrival first fails, which is what the
schedule checker runs.  deadline_instants() is a range, so instants are
made only as the pass reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .model import TimeUs


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


def deadline_instants(m: MsgTiming, horizon_us: int) -> range:
    """Deadline instants of m inside [0, horizon_us], wrapped ones included."""
    t = m.offset_us + m.deadline_us
    if t > m.period_us:
        t = (t - 1) % m.period_us + 1  # the wrapped deadline, in (0, period]
    return range(t, horizon_us + 1, m.period_us)


def service_sweep(
    instants: Iterable[TimeUs], deliveries: Sequence[TimeUs], carried: int
) -> Iterator[tuple[TimeUs, int]]:
    """(t, service at t) for each of the ascending instants, in one pass.

    Service is the instances delivered strictly before t, net of the
    carried backlog: a round delivers its slot allocations at its end, and
    carried instances of the previous hyperperiod are served first, so the
    count starts at -carried.  deliveries holds one round end per allocated
    slot of the message, in ascending order (a round carrying it in two
    slots appears twice).  Each delivery is passed once: the cost is linear
    in the instants plus the deliveries, not their product.
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
) -> Optional[tuple[TimeUs, int, int, int]]:
    """(t, demand, service, arrival) at the first of the ascending instants
    where demand <= service <= arrival fails along service_sweep(), or None.
    """
    for t, sf in service_sweep(instants, deliveries, carried):
        df = demand(m, t)
        if df > sf or sf > arrival(m, t):
            return t, df, sf, arrival(m, t)
    return None
