"""Exhaustive round-count oracle: known-optimal cases and its size guards.

On every case the oracle can place, synthesis's lower bound min_rounds
equals the count the oracle finds."""

from __future__ import annotations

import pytest
from oracle import brute_force_min_rounds

from roundsched.checker import check
from roundsched.model import Mode, Round
from roundsched.synthesis import min_rounds
from support import mk_app, small_params

GRID = 1000


def test_no_messages_needs_one_round():
    mode = Mode("m", (mk_app("a", 20, [("t", "n", 1)], []),))
    r, witness = brute_force_min_rounds(mode, small_params(), GRID)
    assert r == 1 == min_rounds(mode, small_params())
    assert witness.rounds == (Round(0, ()),)
    assert check(mode, witness, small_params()).ok


def test_pipeline_single_round():
    mode = Mode(
        "m",
        (mk_app("a", 40, [("t1", "n1", 1), ("t2", "n2", 1)], [("t1", "t2", "m1")]),),
    )
    p = small_params()
    r, witness = brute_force_min_rounds(mode, p, GRID)
    assert r == 1 == min_rounds(mode, p)
    rep = check(mode, witness, p)
    assert rep.ok, str(rep)


def test_two_messages_share_a_round_when_slots_allow():
    app = mk_app(
        "a",
        40,
        [("t1", "n1", 1), ("t2", "n2", 1), ("t3", "n3", 1)],
        [("t1", "t3", "m1"), ("t2", "t3", "m2")],
    )
    mode = Mode("m", (app,))
    p2 = small_params(slots=2)
    r2, w2 = brute_force_min_rounds(mode, p2, GRID)
    assert r2 == 1 == min_rounds(mode, p2)
    assert check(mode, w2, p2).ok

    p1 = small_params(slots=1)
    r1, w1 = brute_force_min_rounds(mode, p1, GRID)
    assert r1 == 2 == min_rounds(mode, p1)
    assert check(mode, w1, p1).ok


def test_wrapping_instance_carries_leftover():
    # a wide blocker on the producer's node forces the producer late into
    # the period, so the message can only ride the first round of the next
    # hyperperiod copy.
    blocker = mk_app("blk", 100, [("t0", "n1", 85)], [])
    pipe = mk_app(
        "pipe", 100, [("t1", "n1", 1), ("t2", "n2", 1)], [("t1", "t2", "m")]
    )
    mode = Mode("m", (blocker, pipe))
    p = small_params()
    r, witness = brute_force_min_rounds(mode, p, GRID)
    assert r == 1 == min_rounds(mode, p)
    assert witness.leftover["m"] == 1
    assert witness.rounds[0].t == 0
    rep = check(mode, witness, p)
    assert rep.ok, str(rep)


def test_infeasible_when_latency_floor_exceeds_deadline():
    mode = Mode(
        "m",
        (mk_app("a", 20, [("t1", "n1", 3), ("t2", "n2", 3)], [("t1", "t2", "m1")]),),
    )
    r, witness = brute_force_min_rounds(mode, small_params(), GRID)
    assert r is None and witness is None


def test_deterministic_witness():
    mode = Mode(
        "m",
        (mk_app("a", 40, [("t1", "n1", 1), ("t2", "n2", 1)], [("t1", "t2", "m1")]),),
    )
    one = brute_force_min_rounds(mode, small_params(), GRID)
    two = brute_force_min_rounds(mode, small_params(), GRID)
    assert one == two


class TestGuards:
    def test_hyperperiod_too_fine(self):
        mode = Mode("m", (mk_app("a", 300, [("t", "n", 1)], []),))
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_min_rounds(mode, small_params(), GRID)

    def test_grid_misaligned(self):
        mode = Mode("m", (mk_app("a", 20, [("t", "n", 1)], []),))
        with pytest.raises(ValueError, match="multiple"):
            brute_force_min_rounds(mode, small_params(), 3000)

    def test_too_many_messages(self):
        tasks = [(f"t{i}", f"n{i}", 1) for i in range(5)]
        edges = [(f"t{i}", f"t{i+1}", f"m{i}") for i in range(4)]
        mode = Mode("m", (mk_app("a", 100, tasks, edges),))
        with pytest.raises(ValueError, match="too many"):
            brute_force_min_rounds(mode, small_params(), GRID)
