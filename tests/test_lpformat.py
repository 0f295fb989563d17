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

        names = {v.name for v in inst.variables}
        assert set(parsed["generals"]) | set(parsed["binaries"]) == names
        assert set(parsed["binaries"]) == {
            v.name for v in inst.variables if v.binary
        }
        for v in inst.variables:
            if not v.binary:
                assert parsed["bounds"][v.name] == (v.lb, v.ub)

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


# sha256 of render_lp(build_instance(...)), recorded before the model's
# messages became plain ids.  A deliberate change of the formulation
# (another row, bound or variable order) must record new digests here.
PINNED_LP = {
    ("normal", 0): "db0d74cd92aaf72a89dcaf54bb9911549192016186baeef0503e7012953174bf",
    ("normal", 1): "89db11e834ab1879048adb1536336d5cde0d5f9df18864ca79f96602fc39bb0b",
    ("normal", 2): "1d4b1e479140342da5c6620706a6abab8a82b2dbaf2dc22fe1efeedbde662a22",
    ("normal", 3): "58d21677ae039bbebce7f4d45f195fe42b48d28d7949336ba39b9eb881fa61bf",
    ("fallback", 0): "7faa463ead873990ac63a637dba45f8c3f6b024bc47c62ca2e8ed99d8c844d11",
    ("fallback", 1): "db4c0f46b88857eb0f0c3898850da2841b694fd5d085fbf432a46fcafb8f56ba",
    ("fallback", 2): "ab9649e9e66f2f36762695295455fefa5a1b0e9ca6fc2d6863e3ac6ad11fdad4",
    ("fallback", 3): "bde52539861650a088fef4c563e12df5e169d67f03f67d9445f8f083085a12ed",
    ("shared", 0): "7bdf81ab82b0c2ac62cc7d63e2d0d65cdb4094596f57bb9719bf695e83cd1d39",
    ("shared", 1): "6b88191a1418141561509ebc6cf6ff3b270ad4b6606ee8493afb97172a9d8491",
    ("shared", 2): "8b36193277378c2acbd80fd7807eb967a65fad7bf733fba74db7a55f40f677c9",
    ("shared", 3): "eded91bc29f0b8ac32536508276dd955df644112e420cb6166e5ae01472ae423",
    # recorded when shared-node tasks got one q_<t1>__<t2> integer and two
    # apart_ rows per pair in place of a y binary and two big-M rows per
    # start difference; the LP diff was exactly those variables, their
    # bounds and the apart_ rows (the modes above share no node)
    ("ladder4", 4): "788f552814396abe71e4e602707ae6d83d25357846a904ac4dfe5bbec1929e86",
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
