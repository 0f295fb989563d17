"""Text export of the integer programs.

The round trip here goes instance -> LP text -> test-side parser ->
scipy milp, and the result must agree with the package's own solver.
That chain exercises the renderer and the written coefficients; the
package solves the instance from memory, so a wrong coefficient in the
text shows up as a disagreement.
"""

import hashlib
from pathlib import Path

import pytest
from lptools import milp_solve, parse_lp
from support import control_mode, ladder_mode, mk_app, random_small_case, wide_params

from roundsched.ilp import build_instance
from roundsched.lpformat import render_lp, write_lp
from roundsched.model import Mode, ValidationReport, hyperperiod, validate_mode
from roundsched.solver import solve
from roundsched.specio import load_json, parse_spec
from roundsched.timing import round_length

SPEC = Path(__file__).resolve().parent.parent / "specs" / "control_loop.json"


def control_instance(n_rounds=2):
    return build_instance(control_mode(), n_rounds, wide_params(hops=2), grid_us=1000)


class TestRendering:
    def test_header_lines(self):
        lines = render_lp(control_instance(1)).splitlines()
        assert lines[0] == "\\ normal_r1"
        assert lines[1] == "Minimize"
        assert lines[2] == " obj: d_ctrl"
        assert "Subject To" in lines and "End" in lines

    def test_text_is_ascii_and_newline_terminated(self):
        text = render_lp(control_instance(2))
        text.encode("ascii")
        assert text.endswith("End\n")

    def test_render_is_byte_stable(self):
        assert render_lp(control_instance(2)) == render_lp(control_instance(2))

    def test_write_matches_render(self, tmp_path):
        inst = control_instance(1)
        path = tmp_path / "out.lp"
        write_lp(inst, str(path))
        assert path.read_text() == render_lp(inst)


class TestRoundTrip:
    def test_everything_survives_the_parse(self):
        inst = control_instance(2)
        parsed = parse_lp(render_lp(inst))

        assert parsed["generals"] == [v.name for v in inst.variables]
        assert parsed["bounds"] == {v.name: (v.lb, v.ub) for v in inst.variables}

        assert parsed["objective"] == {
            inst.variables[i].name: c for i, c in inst.objective.items()
        }

        by_name = {name: (coeffs, op, rhs) for name, coeffs, op, rhs in parsed["rows"]}
        assert len(by_name) == len(inst.rows)
        for row in inst.rows:
            coeffs, op, rhs = by_name[row.name]
            want = {inst.variables[i].name: c for i, c in row.coeffs.items()}
            got = {n: c for n, c in coeffs.items() if c}
            assert got == want, row.name
            assert op == ("=" if row.sense == "==" else "<=")
            assert rhs == row.rhs

    def test_empty_row_parses_to_zero_coefficients(self):
        # a mode without messages has nothing to put in a round's slots, so
        # its cap_0 row has no terms
        app = mk_app("a", 100, [("t1", "n1", 1)], [])
        inst = build_instance(Mode(id="m", applications=(app,)), 1,
                              wide_params(hops=2), 1000)
        assert [r.coeffs for r in inst.rows if r.name == "cap_0"] == [{}]
        parsed = parse_lp(render_lp(inst))
        cap = [r for r in parsed["rows"] if r[0] == "cap_0"]
        assert len(cap) == 1
        _, coeffs, op, rhs = cap[0]
        assert all(c == 0 for c in coeffs.values())
        assert (op, rhs) == ("<=", 5)


class TestCrossSolver:
    def test_reference_instance_agrees_with_milp(self):
        inst = control_instance(2)
        mine = solve(inst)
        status, obj, _values = milp_solve(parse_lp(render_lp(inst)))
        assert (mine.status, status) == ("optimal", "optimal")
        assert mine.objective == obj == 89_000

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_workloads_agree_with_milp(self, seed):
        mode, params = random_small_case(seed)
        r = min(2, hyperperiod(mode) // round_length(params))
        inst = build_instance(mode, r, params, grid_us=1000)
        mine = solve(inst)
        status, obj, _values = milp_solve(parse_lp(render_lp(inst)))
        assert mine.status == status
        if status == "optimal":
            assert mine.objective == obj


def shared_mode() -> Mode:
    """Two applications that share task s and message m; the second lists
    a message (k) of its own after m, so hoisting every sp_<msg> ahead of
    the sc_<msg>__<dst> variables would reorder the program."""
    s = ("s", "n_s", 1)
    one = mk_app("one", 100, [s, ("x", "n_x", 1)], [("s", "x", "m")])
    two = mk_app(
        "two", 100, [s, ("y", "n_y", 1), ("z", "n_z", 1)], [("s", "y", "m"), ("y", "z", "k")]
    )
    return Mode("shared", (one, two))


# sha256 of render_lp(build_instance(...)).  A deliberate change of the
# formulation (another row, bound or variable order) or of how the text
# states it must record new digests here.
PINNED_LP = {
    ("normal", 0): "2cd695216535faef0f774ddf4a25ba8f936b11529cda02515683e81d7aab7422",
    ("normal", 1): "96de240910f35f7dd3925aefde9750c561d128a2f9030b79a5337af26d15545a",
    ("normal", 2): "d4173e299cdd6c940016599010c6e0cd8b2b1de041a00bf13ea5dd50cfc572b7",
    ("normal", 3): "e1b7e2f3d792643f36415a136fdff4d26f5f93b5ff77fc6cbf964e4f7b94d640",
    ("fallback", 0): "26b66bdbdc9f398393a5891893028be2cf7eb6568eaaf3c94fcd491da920f4bd",
    ("fallback", 1): "81332e35b0b7444192c35456fd030a32f174b9878ac7425972dc39fdb4e63522",
    ("fallback", 2): "c2f56f88a16a272001d676417508f96baf9c29e289e1ff9bb1f1fd2b634c0501",
    ("fallback", 3): "762a94aa485a5d30bd1bbdf3091f802da0c7e4ab2dd5d240354bb8af2bb5222f",
    ("shared", 0): "7485ffdb649b14cec5018eba4845c950f25b3619074757fb54cf6f0c41e1bcac",
    ("shared", 1): "9e9a3c46a077c8bb27bb694865c8a532abf9b5c1f67f900cd4ad532a5e8ad61d",
    ("shared", 2): "0ecc0013f836c2a1008e560b93cbc9373e84c054762a2f363171047454ab8ade",
    ("shared", 3): "29bd39dd407f8e13c604431066aa1428e7ac016ccb2abe2882724c174d8b4e58",
    # the modes above share no node; the ladder pins the q_<t1>__<t2>
    # integers and apart_ rows of tasks that share one
    ("ladder4", 4): "7916b18bc62238ab10ae86cfd732d59d44fc672657f5f9665eb61f0bd6e4ab9b",
}


@pytest.mark.parametrize("mode_id, n_rounds", sorted(PINNED_LP))
def test_exported_bytes_are_pinned(mode_id, n_rounds):
    if mode_id == "shared":
        mode, params, grid = shared_mode(), wide_params(hops=2), 1000
        report = ValidationReport()
        validate_mode(mode, report)
        assert report.ok, str(report)
    elif mode_id == "ladder4":
        mode, params, grid = ladder_mode(4), wide_params(hops=2), 5000
    else:
        spec = parse_spec(load_json(str(SPEC)))
        mode, params, grid = spec.mode_by_id(mode_id), spec.network, spec.grid_us
    text = render_lp(build_instance(mode, n_rounds, params, grid_us=grid))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LP[mode_id, n_rounds]
