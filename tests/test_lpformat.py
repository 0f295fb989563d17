"""LP export of the integer programs.

solver.write_lp has HiGHS write the very model solve() fills, so each
written file is read back and compared row by row with its ILPInstance:
a wrong term, sense, bound or integrality mark in the fill shows up as a
mismatch, whether or not it changes the optimum.  The cross-solver tests
then solve the parsed text with scipy's milp and must agree with
solve().
"""

import hashlib
from pathlib import Path

import pytest
from lptools import lp_text, milp_solve, parse_lp
from scipy.optimize._highspy import _core as highs
from support import control_mode, ladder_mode, mk_app, random_small_case, wide_params

from roundsched.ilp import ILPInstance, build_instance
from roundsched.model import Mode, ValidationReport, hyperperiod, validate_mode
from roundsched.solver import solve, write_lp
from roundsched.specio import load_json, parse_spec
from roundsched.synthesis import SynthConfig, program
from roundsched.timing import round_length

SPEC = Path(__file__).resolve().parent.parent / "specs" / "control_loop.json"


def control_instance(n_rounds=2):
    return build_instance(control_mode(), n_rounds, wide_params(hops=2), grid_us=1000)


def empty_row_instance() -> ILPInstance:
    # a mode without messages has nothing to put in a round's slots, so
    # its cap_0 row has no terms
    app = mk_app("a", 100, [("t1", "n1", 1)], [])
    return build_instance(Mode(id="m", applications=(app,)), 1, wide_params(hops=2), 1000)


def assert_file_states_the_program(inst: ILPInstance) -> None:
    """The written file, parsed, holds inst's objective, rows in order
    (terms, sense, right-hand side), bounds and integrality, and no more."""
    parsed = parse_lp(lp_text(inst))
    names = [v.name for v in inst.variables]
    assert sorted(parsed["integers"]) == sorted(names)
    assert parsed["bounds"] == {v.name: (v.lb, v.ub) for v in inst.variables}
    assert parsed["objective"] == {names[i]: c for i, c in inst.objective.items()}
    assert [r[0] for r in parsed["rows"]] == [r.name for r in inst.rows]
    for row, (name, coeffs, op, rhs) in zip(inst.rows, parsed["rows"]):
        want = ({names[i]: c for i, c in row.coeffs.items()},
                "=" if row.sense == "==" else "<=", row.rhs)
        assert (coeffs, op, rhs) == want, name


class TestRendering:
    def test_header_lines(self):
        lines = lp_text(control_instance(1)).splitlines()
        assert lines[:3] == ["\\ File written by HiGHS .lp file handler", "min", " obj: +1 d_ctrl "]
        assert "st" in lines and "bounds" in lines and lines[-1] == "end"

    def test_text_is_ascii_and_newline_terminated(self):
        text = lp_text(control_instance(2))
        text.encode("ascii")
        assert text.endswith("end\n")

    def test_render_is_byte_stable(self):
        assert lp_text(control_instance(2)) == lp_text(control_instance(2))

    def test_highs_reads_the_written_file_back(self, tmp_path):
        inst = ladder_instance(4)
        path = tmp_path / "out.lp"
        write_lp(inst, str(path))
        h = highs._Highs()
        h.setOptionValue("output_flag", False)
        assert h.readModel(str(path)) == highs.HighsStatus.kOk
        lp = h.getLp()
        assert (lp.num_col_, lp.num_row_) == (len(inst.variables), len(inst.rows))
        assert h.getNumNz() == sum(len(r.coeffs) for r in inst.rows)
        assert sorted(lp.col_names_) == sorted(v.name for v in inst.variables)
        assert list(lp.row_names_) == [r.name for r in inst.rows]

    def test_a_name_highs_cannot_write_raises_os_error(self, tmp_path):
        # build_instance's names never hold a space; HiGHS refuses one
        inst = ILPInstance(name="spaced")
        inst.add_var("a b", 0, 3)
        with pytest.raises(OSError, match="^HiGHS could not write .*out.lp$"):
            write_lp(inst, str(tmp_path / "out.lp"))


def bundled_instance(mode_id, n_rounds):
    spec = parse_spec(load_json(str(SPEC)))
    return build_instance(spec.mode_by_id(mode_id), n_rounds, spec.network,
                          grid_us=spec.grid_us)


def ladder_instance(k):
    return program(ladder_mode(k), k, wide_params(hops=2), SynthConfig(grid_us=5000))


def small_instance(seed):
    mode, params = random_small_case(seed)
    r = max(1, min(2, hyperperiod(mode) // round_length(params)))
    return program(mode, r, params, SynthConfig(grid_us=1000))


PROGRAMS = {
    **{f"{m}_r{r}": (bundled_instance, (m, r)) for m in ("normal", "fallback") for r in range(4)},
    **{f"ladder{k}": (ladder_instance, (k,)) for k in range(1, 5)},
    **{f"small{seed}": (small_instance, (seed,)) for seed in range(8)},
    "empty_row": (empty_row_instance, ()),
}


class TestRoundTrip:
    def test_everything_survives_the_parse(self):
        assert_file_states_the_program(control_instance(2))

    @pytest.mark.parametrize("case", sorted(PROGRAMS))
    def test_file_states_the_program_row_by_row(self, case):
        make, args = PROGRAMS[case]
        assert_file_states_the_program(make(*args))

    def test_cases_hold_an_empty_row_and_negative_bounds(self):
        insts = [make(*args) for make, args in PROGRAMS.values()]
        assert any(not r.coeffs for i in insts for r in i.rows)
        assert any(v.lb < 0 for i in insts for v in i.variables if v.name.startswith("q_"))

    def test_empty_row_parses_to_zero_coefficients(self):
        inst = empty_row_instance()
        assert [r.coeffs for r in inst.rows if r.name == "cap_0"] == [{}]
        assert " cap_0: <= +5\n" in lp_text(inst)
        cap = [r for r in parse_lp(lp_text(inst))["rows"] if r[0] == "cap_0"]
        assert cap == [("cap_0", {}, "<=", 5)]


class TestCrossSolver:
    def test_reference_instance_agrees_with_milp(self):
        inst = control_instance(2)
        mine = solve(inst)
        status, obj, _values = milp_solve(parse_lp(lp_text(inst)))
        assert (mine.status, status) == ("optimal", "optimal")
        assert mine.objective == obj == 89_000

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_workloads_agree_with_milp(self, seed):
        mode, params = random_small_case(seed)
        r = min(2, hyperperiod(mode) // round_length(params))
        inst = build_instance(mode, r, params, grid_us=1000)
        mine = solve(inst)
        status, obj, _values = milp_solve(parse_lp(lp_text(inst)))
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


# sha256 of the file write_lp writes for build_instance(...).  A deliberate
# change of the formulation (another row, bound or variable order) or of
# how HiGHS states it must record new digests here.
PINNED_LP = {
    ("normal", 0): "0856b79042d9d0b0a47ef81f7a0e66204015662470138126571b5a24db408cb7",
    ("normal", 1): "e8d797b235b3e0654411e9dca0ce270207b17727aff14303f8a304fb8f219160",
    ("normal", 2): "bcbc5ad5884df5dfb49dbe4a0bb28716d26ac024ae478f48601ca009682d2564",
    ("normal", 3): "a5333ddbcbbb7f2ae8f466ec66d7a7a4a4ba58d87b5064cef09380423e87711a",
    ("fallback", 0): "d5560fdbd47bf7e2cc3b5a51d5add427e6920436965b218b5018e52987ea5579",
    ("fallback", 1): "3d7137cf90c83eca4e2367fe4a12c28f19177368b125af3adcb31965974c010f",
    ("fallback", 2): "55c869e7888cae60a2fde365741c0407bea4f24652860d239892e2074471e68d",
    ("fallback", 3): "727d2b77a1e1295a2110b4658c1a8b1c61678e75f3d0c86250e8944f32c4eeb7",
    ("shared", 0): "20bd8f4cb104f5588c1c236d4d88864eb0bf3670ec8d86c4d845f5e60fc3407b",
    ("shared", 1): "a3a6d9cc6c8ec88b4304a28f1940f2528fea8ac396495ce49a137c5a70e3f5a7",
    ("shared", 2): "99e348e6d6a2c5168c0b0870d9927287044fbdf32724901185f84d872d0b90b9",
    ("shared", 3): "adb3003155cab3c06ad2c20adc2741196ac738076d5512dfd2e32eeb78eac4de",
    # the modes above share no node; the ladder pins the q_<t1>__<t2>
    # integers and apart_ rows of tasks that share one
    ("ladder4", 4): "faa4e77a5632bb4e43237d8f8bf2cac9e26b2941a7ad76914491bc1ac731a956",
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
    text = lp_text(build_instance(mode, n_rounds, params, grid_us=grid))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LP[mode_id, n_rounds]
