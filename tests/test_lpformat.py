"""Text export of the integer programs.

The round trip here goes instance -> LP text -> test-side parser ->
scipy milp, and the result must agree with the package's own solver.
That chain exercises the renderer and the written coefficients; the
package solves the instance from memory, so a wrong coefficient in the
text shows up as a disagreement.
"""

import pytest
from lptools import milp_solve, parse_lp
from support import control_mode, random_small_case, wide_params

from roundsched.ilp import build_instance
from roundsched.lpformat import render_lp, write_lp
from roundsched.model import hyperperiod
from roundsched.solver import solve
from roundsched.timing import round_length


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
        from support import mk_app
        from roundsched.model import Mode

        app = mk_app("a", 20, [("t1", "n1", 1), ("t2", "n2", 1)], [("t1", "t2", "m")])
        inst = build_instance(Mode(id="m", applications=(app,)), 0,
                              wide_params(hops=2), 1000)
        parsed = parse_lp(render_lp(inst))
        nofit = [r for r in parsed["rows"] if r[0] == "nofit_m"]
        assert len(nofit) == 1
        _, coeffs, op, rhs = nofit[0]
        assert all(c == 0 for c in coeffs.values())
        assert (op, rhs) == ("<=", -1)


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
