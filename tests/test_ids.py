"""Ids of any shape: punctuated, clashing once sanitized, or shared.

The integer program addresses its variables by model id, and names are
only labels for export, so the schedule must not depend on how ids are
spelt, and a task or message listed by several applications must get
one variable.
"""

import re
from dataclasses import replace
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st
from lptools import lp_text, parse_lp
from support import mk_app, random_small_case, small_params, wide_params

from roundsched.checker import check
from roundsched.ilp import build_instance
from roundsched.model import Mode, ValidationReport, validate_mode
from roundsched.synthesis import SynthConfig, synthesize

GRID = SynthConfig(grid_us=1000)
LP_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


def collision_mode():
    """Message a__b feeds task c and message a feeds task b__c, so both
    consumer handoffs would be spelt sc_a__b__c."""
    app = mk_app(
        "x",
        100,
        [("p", "n1", 1), ("c", "n2", 1), ("b__c", "n3", 1)],
        [("p", "c", "a__b"), ("p", "b__c", "a")],
    )
    return Mode("clash", (app,))


def synthesized(mode, params):
    out = synthesize(mode, params, GRID)
    assert out.status == "feasible"
    assert check(mode, out.schedule, params).ok
    return out


class TestPunctuatedIds:
    def test_ids_that_clash_when_joined_synthesize(self):
        synthesized(collision_mode(), small_params())

    def test_ids_that_clash_when_sanitized_synthesize(self):
        app = mk_app(
            "x", 40, [("a-b", "n1", 1), ("a_b", "n2", 1)], [("a-b", "a_b", "m")]
        )
        out = synthesized(Mode("dash", (app,)), small_params())
        assert set(out.schedule.task_offsets) == {"a-b", "a_b"}


class TestSharing:
    def test_two_applications_share_one_offset(self):
        # task s feeds x in one application and y in the other
        s = ("s", "n_s", 1)
        one = mk_app("one", 100, [s, ("x", "n_x", 1)], [("s", "x", "m1")])
        two = mk_app("two", 100, [s, ("y", "n_y", 1)], [("s", "y", "m2")])
        mode = Mode("shared", (one, two))
        report = ValidationReport()
        validate_mode(mode, report)
        assert report.ok
        params = wide_params(hops=2)
        inst = build_instance(mode, 1, params, grid_us=1000)
        assert [v.name for v in inst.variables].count("o_s") == 1
        assert not [v for v in inst.variables if v.name.startswith("o_s_")]
        out = synthesized(mode, params)
        # each application alone: 1 ms task, a 43 ms window, 1 ms task
        assert out.rounds_used == 1
        assert out.objective_us == 90_000

    def test_shared_message_edge_gets_one_variable_per_key(self):
        s, x = ("s", "n1", 1), ("x", "n2", 1)
        one = mk_app("one", 40, [s, x], [("s", "x", "m")])
        two = mk_app(
            "two", 40, [s, x, ("y", "n3", 1)], [("s", "x", "m"), ("x", "y", "k")]
        )
        mode = Mode("shared", (one, two))
        inst = build_instance(mode, 1, small_params(), grid_us=1000)
        # every variable is filed under exactly one key
        assert sorted(inst.keys.values()) == list(range(len(inst.variables)))
        synthesized(mode, small_params())


class TestExportedNames:
    def assert_legal_and_unique(self, inst):
        parsed = parse_lp(lp_text(inst))
        var_names = parsed["integers"]
        row_names = [name for name, *_ in parsed["rows"]]
        assert len(var_names) == len(inst.variables)
        assert len(row_names) == len(inst.rows)
        for names in (var_names, row_names):
            assert len(set(names)) == len(names)
            assert [n for n in names if not LP_NAME.match(n)] == []

    def test_unequal_periods_on_one_node(self):
        a1 = mk_app("a1", 20, [("t1", "shared", 1)], [])
        a2 = mk_app("a2", 30, [("t2", "shared", 1)], [])
        inst = build_instance(Mode("m", (a1, a2)), 1, small_params(), 1000)
        assert [r.name for r in inst.rows if r.name.startswith("apart_")] == [
            "apart_t1__t2_a", "apart_t1__t2_b"
        ]
        self.assert_legal_and_unique(inst)

    def test_colliding_ids(self):
        self.assert_legal_and_unique(
            build_instance(collision_mode(), 2, small_params(), 1000)
        )


# Strings with "_", "__" and "-", several of them prefixes or suffixes of
# others: many clash once sanitized, and some clash when joined.
SPELLINGS = (
    "a", "b", "c", "_", "__", "-", "a_", "_a", "a-", "-a", "a_b", "a-b",
    "a__b", "b__c", "a__b__c", "b_c", "c__", "__c", "ab", "bc", "abc",
)


def respelt(mode: Mode, names: list[str]) -> Mode:
    """mode with every task, message and application id renamed, in
    sorted order, to the next entry of names."""
    ids = sorted(
        {a.id for a in mode.applications}
        | {t.id for a in mode.applications for t in a.tasks}
        | set(mode.message_periods())
    )
    to = dict(zip(ids, names))
    return Mode(
        mode.id,
        tuple(
            replace(
                a,
                id=to[a.id],
                tasks=tuple(replace(t, id=to[t.id]) for t in a.tasks),
                edges=tuple((to[s], to[d], to[m]) for s, d, m in a.edges),
            )
            for a in mode.applications
        ),
    )


@lru_cache(maxsize=None)
def plain_outcome(seed: int):
    mode, params = random_small_case(seed)
    out = synthesize(mode, params, GRID)
    return out.status, out.rounds_used, out.objective_us


@given(
    st.integers(0, 59),
    st.lists(st.sampled_from(SPELLINGS), min_size=8, max_size=8, unique=True),
)
# a pipeline t1 -m1-> t2 -m2-> t3 respelt so that (m1, t2) and (m2, t3)
# both read a__b__c when joined
@example(20, ["ab", "a__b", "a", "_", "c", "b__c", "-", "a-b"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_outcome_does_not_depend_on_id_spelling(seed, names):
    mode, params = random_small_case(seed)
    out = synthesize(respelt(mode, names), params, GRID)
    assert (out.status, out.rounds_used, out.objective_us) == plain_outcome(seed)
