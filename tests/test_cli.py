import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_problem

import deltavar
from deltavar.cli import build_parser, main

THREE_PT_TOL = ["--tol", "1e-12"]
PROBLEMS = Path(__file__).parent / "problems"
SCAN_2D = ["scan", str(PROBLEMS / "energy_4pt.dvp"), "--var", "x@0.4", "--var", "x@0.7",
           "--range", "-1,2", "--range", "-1,2", "--resolution", "21"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExamples:
    def test_lists_eight_fixtures(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        names = [line.split()[0] for line in out.strip().splitlines()]
        assert names == sorted(
            [
                "product_R",
                "product_3pt",
                "quotient1",
                "quotient2_R",
                "quotient2_3pt",
                "sturm_liouville",
                "iso_R",
                "iso_3pt",
            ]
        )


class TestSolveCommand:
    def test_quotient2_3pt_solve(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        svg = tmp_path / "out.svg"
        js = tmp_path / "out.json"
        code, out, _ = run(
            capsys,
            "solve",
            "quotient2_3pt",
            "--restarts",
            "24",
            *THREE_PT_TOL,
            "--csv",
            str(csv),
            "--svg",
            str(svg),
            "--json",
            str(js),
        )
        assert code == 0
        assert "found 2 stationary point(s)" in out
        assert "local_min" in out and "local_max" in out
        assert csv.exists() and svg.exists() and js.exists()
        assert (tmp_path / "out_2.csv").exists()
        assert csv.read_text().startswith("t,x\n")
        assert svg.read_text().startswith("<?xml")

    def test_product_3pt_exits_3(self, capsys):
        code, out, _ = run(capsys, "solve", "product_3pt", "--restarts", "8")
        assert code == 3
        assert "no stationary point" in out

    def test_missing_problem_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "no_such_problem")
        assert code == 2
        assert "no such problem" in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dvp"
        bad.write_text("[timescale]\nkind = points\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "line" in err

    def test_denominator_everywhere_exits_4(self, capsys, tmp_path):
        f = tmp_path / "sing.dvp"
        f.write_text(
            """
[timescale]
kind = points
values = 0, 0.5, 1

[functional]
H = "u1 / u2"
f1 = "v^2"
f2 = "0*t"

[boundary]
left = fixed 0
right = fixed 0
"""
        )
        code, out, _ = run(capsys, "solve", str(f), "--restarts", "3")
        assert code == 4

    def test_iso_3pt_reports_multiplier(self, capsys):
        code, out, _ = run(
            capsys, "solve", "iso_3pt", "--restarts", "12", *THREE_PT_TOL
        )
        assert code == 0
        assert "[normal]" in out
        assert "lambda" in out
        assert "x(a) = 0" in out

    def test_json_summary_deterministic(self, capsys, tmp_path):
        j1 = tmp_path / "a.json"
        j2 = tmp_path / "b.json"
        for path in (j1, j2):
            code, _, _ = run(
                capsys,
                "solve",
                "quotient2_3pt",
                "--restarts",
                "16",
                *THREE_PT_TOL,
                "--json",
                str(path),
            )
            assert code == 0
        assert j1.read_bytes() == j2.read_bytes()

    def test_json_has_documented_keys(self, capsys, tmp_path):
        import json

        js = tmp_path / "a.json"
        run(capsys, "solve", "quotient2_3pt", "--restarts", "12", *THREE_PT_TOL,
            "--json", str(js))
        doc = json.loads(js.read_text())
        assert doc["problem"] == "quotient2_3pt"
        point = doc["stationary_points"][0]
        for key in ("F", "value", "lambda0", "lambda", "residual",
                    "classification", "dr_spread", "points"):
            assert key in point

    def test_json_escapes_the_problem_name(self, capsys, tmp_path):
        import json

        fixture = Path(deltavar.__file__).parent / "fixtures" / "quotient2_3pt.dvp"
        problem = tmp_path / 'q"uote\\back é.dvp'
        problem.write_text(fixture.read_text(encoding="utf-8"), encoding="utf-8")
        js = tmp_path / "a.json"
        code, _, _ = run(capsys, "solve", str(problem), "--restarts", "4",
                         *THREE_PT_TOL, "--json", str(js))
        assert code == 0
        text = js.read_text(encoding="utf-8")
        assert json.loads(text)["problem"] == 'q"uote\\back é'
        assert '"problem": "q\\"uote\\\\back é",' in text  # non-ASCII kept as is

    def test_problem_file_with_a_byte_order_mark(self, capsys, tmp_path):
        # As written by common Windows editors: it once failed on line 1, "got '\ufeff'".
        fixture = Path(deltavar.__file__).parent / "fixtures" / "quotient2_3pt.dvp"
        runs = []
        for folder, mark in (("plain", ""), ("bom", "\ufeff")):
            problem = tmp_path / folder / "quotient2_3pt.dvp"
            problem.parent.mkdir()
            problem.write_text(mark + fixture.read_text(encoding="utf-8"), encoding="utf-8")
            runs.append(run(capsys, "solve", str(problem), "--restarts", "8", *THREE_PT_TOL))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    def test_svg_title_escapes_the_problem_name(self, capsys, tmp_path):
        import xml.etree.ElementTree as ElementTree

        fixture = Path(deltavar.__file__).parent / "fixtures" / "quotient2_3pt.dvp"
        problem = tmp_path / "a&b<c.dvp"
        problem.write_text(fixture.read_text(encoding="utf-8"), encoding="utf-8")
        svg = tmp_path / "out.svg"
        code, _, _ = run(capsys, "solve", str(problem), "--restarts", "8", *THREE_PT_TOL,
                         "--svg", str(svg))
        assert code == 0
        texts = ElementTree.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert next(texts).text == "a&b<c: stationary point 1"

    def test_h_override(self, capsys):
        code, out, _ = run(
            capsys, "solve", "quotient1", "--h-override", "0.5",
            "--restarts", "4",
        )
        assert code == 0
        assert "5 points" in out


class TestVerifyCommand:
    def test_quotient1_line_passes(self, capsys, tmp_path):
        sol = tmp_path / "sol.csv"
        rows = ["t,x"] + [f"{t},{2 * t}" for t in (0.0, 1.0, 2.0)]
        sol.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "verify", "quotient1", "--solution", str(sol), "--tol", "1e-9"
        )
        assert code == 0
        assert "functional value: 0.666666666667" in out
        assert "PASS" in out

    def test_perturbed_solution_fails(self, capsys, tmp_path):
        sol = tmp_path / "sol.csv"
        ts = np.array([0.0, 1.0, 2.0])
        xs = 2 * ts + 0.1 * np.sin(np.pi * ts / 2)
        rows = ["t,x"] + [f"{t},{x}" for t, x in zip(ts, xs)]
        sol.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "verify", "quotient1", "--solution", str(sol), "--tol", "1e-6"
        )
        assert code == 3
        assert "FAIL" in out

    def test_misaligned_solution_exits_2(self, capsys, tmp_path):
        sol = tmp_path / "sol.csv"
        sol.write_text("t,x\n0,0\n0.25,1\n2,4\n")
        code, _, err = run(capsys, "verify", "quotient1", "--solution", str(sol))
        assert code == 2
        assert "t=0.25 does not match any scale point" in err

    def test_two_rows_on_one_scale_point_exit_2(self, capsys, tmp_path):
        # The last row used to win: this CSV was verified as x(0.5) = 9.
        sol = tmp_path / "sol.csv"
        sol.write_text("t,x\n0,0\n0.5,0.25\n0.5,9\n1,1\n")
        code, _, err = run(capsys, "verify", "quotient2_3pt", "--solution", str(sol))
        assert_usage_error(code, err, "solution has 2 rows at scale point t=0.5")

    @pytest.mark.parametrize("text", ["inf", "nan"])
    def test_non_finite_value_exits_2(self, capsys, tmp_path, text):
        # inf was evaluated to a nan value and FAIL (exit 3), and nan was
        # reported as a missing scale point.
        sol = tmp_path / "sol.csv"
        sol.write_text(f"t,x\n0,0\n0.5,{text}\n1,1\n")
        code, _, err = run(capsys, "verify", "quotient2_3pt", "--solution", str(sol))
        assert_usage_error(code, err, f"solution value {text} at scale point t=0.5 is not finite")

    def test_vanishing_denominator_exits_4(self, capsys, tmp_path):
        # A flat trajectory makes the quotient's denominator integral zero.
        sol = tmp_path / "flat.csv"
        sol.write_text("0,1\n0.5,1\n1,1\n")
        code, _, err = run(capsys, "verify", "quotient2_3pt", "--solution", str(sol))
        assert code == 4
        assert err.startswith("error: outer-map denominator 0.0 vanishes")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("row, message", [
        ("1,abc", "line 3: non-numeric row '1,abc'"),
        ("1,2,3", "line 3: expected 't,x' row, got '1,2,3'"),
    ])
    def test_bad_row_names_its_line(self, capsys, tmp_path, row, message):
        sol = tmp_path / "sol.csv"
        sol.write_text(f"t,x\n0,0\n{row}\n2,4\n")
        code, _, err = run(capsys, "verify", "quotient1", "--solution", str(sol))
        assert_usage_error(code, err, message)

    def test_missing_scale_point_exits_2(self, capsys, tmp_path):
        sol = tmp_path / "sol.csv"
        sol.write_text("t,x\n0,0\n2,4\n")
        code, _, err = run(capsys, "verify", "quotient1", "--solution", str(sol))
        assert_usage_error(code, err, "solution misses 1 of 3 scale points")

    def test_csv_round_trip(self, capsys, tmp_path):
        csv = tmp_path / "round.csv"
        code, _, _ = run(
            capsys, "solve", "quotient2_3pt", "--restarts", "16", *THREE_PT_TOL,
            "--csv", str(csv),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify", "quotient2_3pt", "--solution", str(csv),
            "--tol", "1e-6",
        )
        assert code == 0
        assert "PASS" in out

    def test_csv_with_a_byte_order_mark(self, capsys, tmp_path):
        # As written by spreadsheet tools: it once failed, "non-numeric row '\ufefft,x'".
        csv, bom = tmp_path / "round.csv", tmp_path / "bom.csv"
        code, _, _ = run(capsys, "solve", "quotient2_3pt", "--restarts", "16", *THREE_PT_TOL,
                         "--csv", str(csv))
        assert code == 0
        bom.write_text("\ufeff" + csv.read_text(encoding="utf-8"), encoding="utf-8")
        plain = run(capsys, "verify", "quotient2_3pt", "--solution", str(csv), "--tol", "1e-6")
        assert plain[0] == 0
        assert run(capsys, "verify", "quotient2_3pt", "--solution", str(bom),
                   "--tol", "1e-6") == plain

    def test_wide_q_scale_round_trip(self, capsys, tmp_path):
        # Points 2^k, k = 0..50: a tolerance scaled by the span once matched
        # t = 1 and t = 2 to one point, and verify rejected the solve's CSV.
        problem, csv = str(PROBLEMS / "wide_qscale.dvp"), tmp_path / "rt.csv"
        code, out, _ = run(capsys, "solve", problem, "--restarts", "8", "--seed", "1",
                           "--csv", str(csv))
        assert code == 0
        assert "found 1 stationary point(s)" in out
        code, out, _ = run(capsys, "verify", problem, "--solution", str(csv))
        assert code == 0
        assert "verification: PASS" in out

    def test_verify_reports_natural_bcs_for_free_ends(self, capsys, tmp_path):
        prob = tmp_path / "free.dvp"
        prob.write_text(
            """
[timescale]
kind = uniform
a = 0
b = 1
h = 0.25

[functional]
H = "u1"
f1 = "v^2"

[boundary]
left = fixed 0
right = free
"""
        )
        sol = tmp_path / "sol.csv"
        # Constant-slope trajectory: interior EL holds, natural BC does not.
        rows = ["t,x"] + [f"{t},{t}" for t in (0, 0.25, 0.5, 0.75, 1.0)]
        sol.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "verify", str(prob), "--solution", str(sol), "--tol", "1e-9"
        )
        assert code == 3
        assert "natural bc right" in out
        assert "el residual max-norm: 0.0" in out

    def test_verify_iso_fits_multiplier(self, capsys, tmp_path):
        ts = np.linspace(0, 1, 1001)
        sol = tmp_path / "iso.csv"
        rows = ["t,x"] + [f"{t:.17g},{3 * t * t - 2 * t:.17g}" for t in ts]
        sol.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "verify", "iso_R", "--solution", str(sol), "--tol", "1e-2"
        )
        assert code == 0
        assert "fitted lambda: 8.0" in out

    def test_abnormal_point_round_trip(self, capsys, tmp_path):
        # solve returns x = t as an abnormal point (grad K = 0 there); with
        # lambda0 fixed at 1 verify checked EL(L) alone and failed it.
        problem = str(PROBLEMS / "abnormal_line.dvp")
        csv = tmp_path / "abnormal.csv"
        code, out, _ = run(capsys, "solve", problem, "--restarts", "16", "--csv", str(csv))
        assert code == 0 and "lambda0: 0   lambda: 1" in out
        code, out, _ = run(capsys, "verify", problem, "--solution", str(csv))
        assert code == 0
        assert "fitted lambda0: 0   lambda: 1" in out and "verification: PASS" in out


class TestScanCommand:
    def test_overflowing_samples_scan_without_warning(self, capsys):
        # Difference quotients of samples near the largest float overflow to
        # inf inside the scan; no RuntimeWarning (an error in this suite)
        # reaches the command.
        code, out, err = run(capsys, "scan", "quotient2_3pt", "--var", "x@0.5",
                             "--range=-1e308,1e307", "--resolution", "5")
        assert code in (0, 3) and "grid: 5 samples on [-1e+308, 1e+307]" in out and not err

    def test_far_range_scan_finds_no_roots(self, capsys):
        # There w +- the difference step rounds to w, so no gradient is taken: exit 3,
        # not five zero-width "roots".
        code, out, _ = run(capsys, "scan", "quotient2_3pt", "--var", "x@0.5",
                           "--range=-1e12,1.1e12", "--resolution", "5")
        assert code == 3 and "no roots in range" in out and "root " not in out

    def test_product_3pt_scan_no_roots(self, capsys):
        code, out, _ = run(
            capsys, "scan", "product_3pt", "--var", "x@0.5",
            "--range", "-10,10",
        )
        assert code == 3
        assert "no roots in range" in out

    def test_no_root_scan_still_writes_csv(self, capsys, tmp_path):
        # The sampled field is what shows why there is no root.
        csv = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys, "scan", "product_3pt", "--var", "x@0.5", "--range", "-10,10",
            "--resolution", "401", "--csv", str(csv),
        )
        assert code == 3
        assert "no roots in range" in out and f"csv: {csv}" in out
        lines = csv.read_text().splitlines()
        assert lines[0] == "value,field" and len(lines) == 402

    def test_quotient2_scan_roots_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys, "scan", "quotient2_3pt", "--var", "x@0.5",
            "--range", "-10,10", "--resolution", "401", "--csv", str(csv),
        )
        assert code == 0
        root_lines = [l for l in out.splitlines() if l.startswith("root ")]
        assert len(root_lines) == 2
        assert csv.exists()
        assert csv.read_text().startswith("value,field")

    def test_iso_scan_constraint_root(self, capsys):
        code, out, _ = run(
            capsys, "scan", "iso_3pt", "--var", "x@0.5", "--range", "-10,10"
        )
        assert code == 0
        assert "constraint defect" in out
        assert "root -1" in out

    def test_bad_var_name(self, capsys):
        code, _, err = run(
            capsys, "scan", "product_3pt", "--var", "x@0.37", "--range", "-1,1"
        )
        assert code == 2

    def test_2d_scan_prints_one_candidate(self, capsys):
        code, out, _ = run(capsys, *SCAN_2D)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("candidate root near (0.4")
        assert ", 0.7" in lines[0]

    def test_2d_scan_rejects_csv(self, capsys, tmp_path):
        csv = tmp_path / "scan.csv"
        code, out, err = run(capsys, *SCAN_2D, "--csv", str(csv))
        assert_usage_error(code, err, "--csv applies to 1-D scans only")
        assert out == "" and not csv.exists()

    def test_exhausted_2d_budget_exits_3(self, capsys, tmp_path):
        # The 2-D case of test_oracle's exhausted-budget test, as a problem file.
        rng = np.random.default_rng(0)
        for _ in range(8):
            ts = deltavar.make_timescale("points", values=np.sort(rng.uniform(-1.0, 2.0, 4)))
            spec, _ = random_problem(rng, allow_free_ends=False, ts=ts)
        F, points = spec.lagrangian, [repr(float(t)) for t in ts.points]
        inner = "\n".join(f'f{i + 1} = "{f}"' for i, f in enumerate(F.inner))
        prob = tmp_path / "budget.dvp"
        prob.write_text(
            f"[timescale]\nkind = points\nvalues = {', '.join(points)}\n"
            f'[functional]\nH = "{F.outer}"\n{inner}\n'
            f"[boundary]\nleft = fixed {spec.bc.left!r}\nright = fixed {spec.bc.right!r}\n"
        )
        code, out, _ = run(
            capsys, "scan", str(prob), "--var", f"x@{points[1]}", "--var", f"x@{points[2]}",
            "--range", "-2,2", "--range", "-2,2", "--resolution", "21",
        )
        assert code == 3
        assert "budget of 4096 cells exhausted with 578 candidate cells" in out
        assert "candidate root" not in out


INTERVAL_PROBLEM = """
[timescale]
kind = interval
a = 0
b = 1
h = {h}

[functional]
H = "u1 / u2"
f1 = "t*v"
f2 = "v^2"

[boundary]
left = fixed 0
right = fixed 1
"""


def assert_usage_error(code, err, message):
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


class TestRejectedInput:
    """Non-finite or out-of-range numbers and unusable paths: one error line, exit 2."""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "quotient2_3pt", "--tol", "nan"], "tol_residual"),
        (["solve", "quotient2_3pt", "--tol", "inf"], "tol_residual"),
        (["solve", "quotient2_3pt", "--dedup-distance", "nan"], "dedup_distance"),
        (["refine", "quotient2_3pt", "--h-list", "0.5", "--restarts", "0"],
         "restarts must be >= 1"),
        (["solve", "quotient2_3pt", "--h-override", "nan"], "step must be finite"),
        (["solve", "quotient2_3pt", "--h-override", "inf"], "step must be finite"),
        (["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "0,inf"], "finite"),
        (["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "nan,1"], "finite"),
        (["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "-10,10",
          "--resolution", "0"], "resolution"),
        (["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "-10,10",
          "--resolution", "1"], "resolution"),
        (["solve", "quotient1", "--seed", "-1"], "seed must be in [0, 2**128)"),
        (["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "10,-10"], "lo < hi"),
        (["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "1,1"], "lo < hi"),
        # argparse's negative-number pattern has no exponent: these read as flags unless joined.
        (["solve", "quotient2_3pt", "--tol", "-1e-9"], "tol_residual"),
        (["solve", "quotient2_3pt", "--dedup-distance", "-1e-6"], "dedup_distance"),
        (["solve", "quotient2_3pt", "--h-override", "-1e-2"], "step must be finite"),
        (["verify", "quotient1", "--solution", "sol.csv", "--tol", "-1e-6"],
         "--tol must be finite and positive"),
    ])
    def test_bad_number(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert_usage_error(code, err, message)

    # Each array is above 2**48 bytes, more than a process's address space holds, so no
    # allocation can succeed: h = 1e-14 on [0, 2] is 2e14 samples, the scan grid 1e14 values.
    @pytest.mark.parametrize("argv", [
        ["solve", "quotient1", "--h-override", "1e-14"],
        ["refine", "quotient1", "--h-list", "0.5,1e-14"],
        ["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "0,1", "--h-override", "1e-14"],
        ["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "0,1",
         "--resolution", "100000000000000"],
    ])
    def test_too_large_to_allocate(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert_usage_error(code, err, "Unable to allocate")

    def test_scan_range_whose_width_overflows(self, capsys):
        code, _, err = run(capsys, "scan", "quotient2_3pt", "--var", "x@0.5",
                           "--range=-1e308,1e308", "--resolution", "5")
        assert_usage_error(code, err, "finite width")

    @pytest.mark.parametrize("command", [["solve", "quotient2_3pt"],
                                         ["refine", "quotient2_3pt", "--h-list", "0.5"]])
    @pytest.mark.parametrize("flag", ["--tol-step", "--init-spread", "--tol-abnormal",
                                      "--max-iters"])
    def test_fixed_settings_are_not_flags(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_verify_tolerance(self, capsys, tmp_path, tol):
        sol = tmp_path / "sol.csv"
        sol.write_text("t,x\n0,0\n1,2\n2,4\n")  # the exact solution of quotient1
        code, _, err = run(capsys, "verify", "quotient1", "--solution", str(sol), "--tol", tol)
        assert_usage_error(code, err, "--tol must be finite and positive")

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_non_finite_step_in_problem_file(self, capsys, tmp_path, h):
        f = tmp_path / "interval.dvp"
        f.write_text(INTERVAL_PROBLEM.format(h=h))
        code, _, err = run(capsys, "solve", str(f), "--restarts", "2")
        assert_usage_error(code, err, "step must be finite")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_point_in_problem_file(self, capsys, tmp_path, value):
        f = tmp_path / "points.dvp"
        f.write_text(INTERVAL_PROBLEM.format(h=0.5).replace(
            "kind = interval\na = 0\nb = 1\nh = 0.5", f"kind = points\nvalues = 0, {value}, 1, 2"))
        code, _, err = run(capsys, "solve", str(f), "--restarts", "2")
        assert_usage_error(code, err, f"line 4: values value must be finite, got {value}")

    @pytest.mark.parametrize("argv, message", [
        (["solve", "no_such_problem"], "no such problem file or bundled fixture"),
        (["scan", "product_3pt", "--var", "y@0.5", "--range", "-1,1"],
         "--var must look like x@<time>"),
        (["scan", "product_3pt", "--var", "x@abc", "--range", "-1,1"], "bad time value"),
        (["scan", "product_3pt", "--var", "x@0.37", "--range", "-1,1"],
         "is not a point of the time scale"),
        (["scan", "product_3pt", "--var", "x@0", "--range", "-1,1"],
         "is not a free decision variable"),
        (["scan", "product_3pt", "--range", "-1,1"], "pass --var/--range 1 time(s)"),
        (["scan", "product_3pt", "--var", "x@0.5", "--range", "1"], "--range must be 'lo,hi'"),
        (["scan", str(PROBLEMS / "energy_4pt.dvp"), "--var", "x@0.4", "--var", "x@0.4",
          "--range", "-1,2", "--range", "-1,2"], "must cover each decision variable once"),
        (["refine", "quotient1", "--h-list", "a,b"], "bad --h-list"),
        (["refine", "quotient1", "--h-list", "0.5", "--reference", "2*"], "bad --reference"),
        (["verify", "quotient1", "--solution", "{tmp}/misaligned.csv"],
         "t=0.25 does not match any scale point"),
        (["verify", "quotient1", "--solution", "{tmp}/short.csv"],
         "solution misses 1 of 3 scale points"),
    ])
    def test_argument_errors_name_no_line(self, capsys, tmp_path, argv, message):
        # Only problem-file and solution-row errors have a line to name.
        (tmp_path / "misaligned.csv").write_text("t,x\n0,0\n0.25,1\n2,4\n")
        (tmp_path / "short.csv").write_text("t,x\n0,0\n2,4\n")
        code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert_usage_error(code, err, message)
        assert "line 0" not in err

    def test_missing_solution_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        code, _, err = run(capsys, "verify", "quotient1", "--solution", str(missing))
        assert_usage_error(code, err, "No such file or directory")

    def test_unwritable_json_path(self, capsys, tmp_path):
        js = tmp_path / "no_such_dir" / "out.json"
        code, _, err = run(capsys, "solve", "quotient2_3pt", "--restarts", "4", "--json", str(js))
        assert_usage_error(code, err, "No such file or directory")

    def test_directory_as_problem(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path))
        assert_usage_error(code, err, "Is a directory")

    def test_one_parser_serves_every_call(self, capsys):
        # The parser is built once per process; refused or version-only
        # commands leave it as it was for the next call.
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == deltavar.__version__
        with pytest.raises(SystemExit):
            main(["solve", "quotient2_3pt", "--tol-step", "1"])
        assert "unrecognized arguments: --tol-step" in capsys.readouterr().err
        code, _, err = run(capsys, "scan", "quotient2_3pt", "--var", "x@0.5", "--range", "1,1")
        assert_usage_error(code, err, "lo < hi")
        assert build_parser() is parser


class TestRefineCommand:
    def test_quotient1_refine_exact_at_every_step(self, capsys):
        code, out, _ = run(
            capsys, "refine", "quotient1", "--h-list", "0.5,0.25",
            "--restarts", "6", "--reference", "2*t",
        )
        assert code == 0
        assert "0.666666666" in out

    def test_bad_h_list(self, capsys):
        code, _, err = run(capsys, "refine", "quotient1", "--h-list", "a,b")
        assert code == 2


class TestModuleEntry:
    def test_python_m_runs_the_cli(self):
        src = str(Path(deltavar.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "deltavar.cli", "solve", "iso_3pt", "--restarts", "2"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "found 1 stationary point(s)" in proc.stdout
        assert "lambda0: 1   lambda: 14" in proc.stdout
