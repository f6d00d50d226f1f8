import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from coneshrink import errors as errors_mod
from coneshrink import geometry
from coneshrink.catalog import EQ030_LITERAL, CurvatureProfile, builtin_catalog, minimal_distance
from coneshrink.cli import main

FAM1_FLAGS = ["--g", "1", "--m", "1", "--n", "2", "--theta1", "0.7853981633974483"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCatalog:
    def test_listing(self, capsys):
        code, out, _ = run(["catalog"], capsys)
        assert code == 0
        assert "g1_sphere_n2" in out and "g6_m2" in out

    def test_check_valid(self, capsys):
        code, out, _ = run(["catalog", "--check", "g=1", "m=1", "n=2",
                            "theta1=0.785398"], capsys)
        assert code == 0
        assert "d0 = 0.785398" in out

    def test_check_g5(self, capsys):
        code, _, err = run(["catalog", "--check", "g=5", "m=1", "n=6",
                            "theta1=0.3"], capsys)
        assert code == 2
        assert "g must be in {1,2,3,4,6}" in err

    def test_check_abresch(self, capsys):
        code, _, err = run(["catalog", "--check", "g=6", "m_minus=3",
                            "m_plus=3", "n=19", "theta1=0.05"], capsys)
        assert code == 2
        assert "abresch" in err.lower()


class TestCoeffs:
    def test_first_coefficients(self, capsys, tmp_path):
        code, out, _ = run(["coeffs", *FAM1_FLAGS, "--K", "5",
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        rec = json.loads(out)
        a = [float(x) for x in rec["A"]]
        assert a[0] == pytest.approx(1.0, abs=1e-14)
        assert a[1] == pytest.approx(-2.0, abs=1e-13)
        assert (tmp_path / "coeffs.json").exists()
        assert (tmp_path / "coeffs.csv").exists()

    def test_corrections_block(self, capsys, tmp_path):
        code, out, _ = run(["coeffs", *FAM1_FLAGS, "--K", "8", "--N", "4",
                            "--corrections", "--out", str(tmp_path)], capsys)
        assert code == 0
        rec = json.loads(out)
        b = [float(x) for x in rec["B"]]
        assert b[0] == pytest.approx(1.0, abs=1e-14)
        assert b[1] == pytest.approx(2.0, abs=1e-13)

    def test_gevrey_block(self, capsys, tmp_path):
        code, out, _ = run(["coeffs", *FAM1_FLAGS, "--K", "12", "--gevrey",
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["gevrey_report"]["verdict"] in ("bounded", "unbounded")

    def test_k40_binary64_passes_audit(self, capsys, tmp_path):
        # desk families carry little cancellation: the audit admits K = 40 at
        # binary64 (the contract allows either success-with-audit or exit 3)
        code, out, _ = run(["coeffs", *FAM1_FLAGS, "--K", "40",
                            "--out", str(tmp_path)], capsys)
        assert code in (0, 3)
        if code == 0:
            rec = json.loads(out)
            assert max(rec["rel_error_estimates"]) < 1e-6

    def test_corrections_precision_advice(self, capsys, tmp_path):
        # |A_8| of g3_m4 exceeds 2^53: at the default precision the unit trial
        # step of the B_m fit is lost in rounding, and the failure says so
        flags = ["--g", "3", "--m", "4", "--n", "13", "--theta1", repr(math.pi / 12)]
        code, _, err = run(["coeffs", *flags, "--corrections", "--out", str(tmp_path)],
                           capsys)
        assert code == 4
        assert "NonlinearDependence" in err and "--precision" in err
        code, _, err = run(["solve", *flags, "--eps-study", "--out", str(tmp_path)], capsys)
        assert code == 4
        assert "--precision" in err
        code, out, _ = run(["coeffs", *flags, "--corrections", "--precision", "256",
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        assert len(json.loads(out)["B"]) == 9

    def test_eq030_profile_mode_default_order(self, capsys, tmp_path):
        code, out, _ = run(["coeffs", *FAM1_FLAGS, "--profile-mode", "eq030",
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["profile_mode"] == "eq030_literal"
        assert len(rec["A"]) == 40


def _builtin_flags(name):
    fam = builtin_catalog()[name]
    return ["--g", str(fam.g), "--m-minus", str(fam.m_minus), "--m-plus", str(fam.m_plus),
            "--n", str(fam.n), "--theta1", repr(fam.theta1)]


def _last_row(path):
    lines = path.read_text().strip().splitlines()
    return dict(zip(lines[0].split(","), (float(v) for v in lines[-1].split(","))))


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["solve", *FAM1_FLAGS, "--tol", "1e-10",
                 "--to-d", "d0+0.05", "--out", str(out)])
    assert code == 0
    return out


class TestSolve:
    def test_artifacts_exist(self, solve_dir):
        for name in ("s_side.csv", "d_side.csv", "summary.json"):
            assert (solve_dir / name).exists()

    def test_summary_quality(self, solve_dir):
        summary = json.loads((solve_dir / "summary.json").read_text())
        assert summary["max_eq130_residual"] <= 1e-6
        assert summary["max_eq350_drift"] <= 1e-6
        assert summary["max_energy_residual"] <= 1e-8
        assert summary["d_target"] == pytest.approx(summary["d0"] + 0.05)

    def test_deterministic_outputs(self, solve_dir, tmp_path, capsys):
        code, _, _ = run(["solve", *FAM1_FLAGS, "--tol", "1e-10",
                          "--to-d", "d0+0.05", "--out", str(tmp_path)], capsys)
        assert code == 0
        for name in ("s_side.csv", "d_side.csv", "summary.json"):
            assert (tmp_path / name).read_bytes() == (solve_dir / name).read_bytes()

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # continuation target beyond the allowed margin: solver failure
        code, _, err = run(["solve", *FAM1_FLAGS, "--tol", "1e-8",
                            "--out", str(tmp_path), "--to-d", "d0+0.4"], capsys)
        assert code == 4
        assert "OutOfRange" in err

    def test_precision_reaches_series(self, solve_dir, tmp_path, capsys, monkeypatch):
        # the binding that ivp.solve calls
        from coneshrink import ivp
        seen = []
        original = ivp.compute_coefficients

        def recording(curvature, K, prec, **kw):
            seen.append(prec)
            return original(curvature, K, prec, **kw)

        monkeypatch.setattr(ivp, "compute_coefficients", recording)
        code, _, _ = run(["solve", *FAM1_FLAGS, "--tol", "1e-10", "--precision", "256",
                          "--to-d", "d0+0.05", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert seen == [256]
        for name, col in (("s_side.csv", "gamma"), ("d_side.csv", "phi")):
            got = _last_row(tmp_path / name)[col]
            assert got == pytest.approx(_last_row(solve_dir / name)[col], abs=1e-7)

    def test_zero_order_rejected(self, tmp_path, capsys):
        code, _, err = run(["solve", *FAM1_FLAGS, "--K", "0",
                            "--out", str(tmp_path)], capsys)
        assert code == 4
        assert "OutOfRange" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_tol_outside_its_domain_is_named(self, tol, tmp_path, capsys):
        code, _, err = run(["solve", *FAM1_FLAGS, "--tol", tol, "--out", str(tmp_path)], capsys)
        assert code == 4
        assert "OutOfRange" in err and "tol must be finite and > 0" in err

    def test_constraint_exit_code(self, tmp_path, capsys):
        code, _, err = run(["solve", "--g", "2", "--m", "1", "--n", "3",
                            "--theta1", "1.04", "--out", str(tmp_path)], capsys)
        assert code == 2  # not mean convex: constraint violation

    def test_eps_study_flag(self, tmp_path, capsys):
        code, out, _ = run(["solve", *FAM1_FLAGS, "--tol", "1e-8",
                            "--eps-study",
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        study = json.loads((tmp_path / "summary.json").read_text())["eps_study"]
        assert 0.8 <= study["slope"] <= 1.2
        assert len(study["errors"]) == 5

    # a default solve that meets its vertical tangent (exit 4), and an eq030
    # profile that is not mean convex (exit 2, from the s-side run)
    FAILING_SOLVES = [(_builtin_flags("g6_m2"), 4),
                      (["--g", "2", "--m-minus", "1", "--m-plus", "2", "--n", "4",
                        "--theta1", "0.95", "--profile-mode", "eq030"], 2)]

    @pytest.mark.parametrize("flags, code", FAILING_SOLVES, ids=["tangent", "not_mean_convex"])
    def test_failed_solve_removes_the_out_it_made(self, flags, code, tmp_path, capsys):
        out = tmp_path / "new" / "out"
        assert run(["solve", *flags, "--out", str(out)], capsys)[0] == code
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, code", FAILING_SOLVES, ids=["tangent", "not_mean_convex"])
    def test_failed_solve_keeps_an_out_it_found(self, flags, code, tmp_path, capsys):
        (tmp_path / "kept.txt").write_text("kept")
        assert run(["solve", *flags, "--out", str(tmp_path)], capsys)[0] == code
        assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]

    def test_unwritable_out_exits_6_before_the_solve(self, tmp_path, capsys, monkeypatch):
        from coneshrink import ivp

        def unreachable(*args, **kwargs):
            raise AssertionError("solve ran with an unwritable --out")

        monkeypatch.setattr(ivp, "solve", unreachable)
        (tmp_path / "file").write_text("")
        code, _, err = run(["solve", *FAM1_FLAGS, "--out", str(tmp_path / "file" / "out")],
                           capsys)
        assert code == 6
        assert "i/o failure" in err


# g3_m8 with binary64 A_k: at K = 80 the series energy integral overflows
G3_M8_FLAGS = ["--g", "3", "--m-minus", "8", "--m-plus", "8", "--n", "25",
               "--theta1", "0.2617993877991494"]


def test_bootstrap_overflow_names_k_and_advises(tmp_path):
    """An overflowing bootstrap state exits 4 naming K, k* and the overflow,
    with no numpy warning, where it ran into a step-size collapse."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-c", "from coneshrink.cli import entry; entry()",
         "solve", *G3_M8_FLAGS, "--K", "80", "--out", "o"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr.startswith("solver failure: OutOfRange: bootstrap state")
    for part in ("K = 80", "k* = 80", "energy integral", "overflows binary64", "smaller --K"):
        assert part in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_unreachable_bootstrap_error_advises_precision_or_tol(tmp_path, capsys):
    """At --tol 1e-13 the 53-bit series of g3_m2 reaches the bootstrap
    target 1e-15 nowhere: exit 4, and the message names the two ways out.
    At --precision 128 the same solve exits 0."""
    fam = builtin_catalog()["g3_m2"]
    flags = ["--g", str(fam.g), "--m-minus", str(fam.m_minus), "--m-plus", str(fam.m_plus),
             "--n", str(fam.n), "--theta1", repr(fam.theta1), "--tol", "1e-13"]
    code, _, err = run(["solve", *flags, "--out", str(tmp_path / "53")], capsys)
    assert code == 4
    assert err.startswith("solver failure: NoUsefulTruncation: series cannot reach bootstrap "
                          "error 1.000e-15 anywhere below ")
    assert err.strip().endswith("; raise the series precision (--precision, 53 bits here) "
                                "or loosen --tol")
    code, _, err = run(["solve", *flags, "--precision", "128", "--out", str(tmp_path / "128")],
                       capsys)
    assert code == 0, err


# d where the default continuation of the five window families meets its
# vertical tangent (the stall table of ROADMAP item 1, to 5 decimals); the
# other nine built-ins solve.  perfbench/reference.json records the same
# outcomes for catalog_solve.
WINDOW_STALL_D = {"g3_m8": 0.29916, "g4_m22": 0.22993, "g4_m45": 0.24295,
                  "g6_m1": 0.14350, "g6_m2": 0.13688}


@pytest.mark.parametrize("name", sorted(builtin_catalog()))
def test_default_solve_outcome(name, tmp_path, capsys):
    fam = builtin_catalog()[name]
    flags = ["--g", str(fam.g), "--m-minus", str(fam.m_minus), "--m-plus", str(fam.m_plus),
             "--n", str(fam.n), "--theta1", repr(fam.theta1)]
    code, _, err = run(["solve", *flags, "--out", str(tmp_path)], capsys)
    if name not in WINDOW_STALL_D:
        assert code == 0, err
        return
    assert code == 4
    assert err.startswith("solver failure: BlowUpDetected: ")
    assert "vertical tangent" in err
    d = float(re.fullmatch(r".* at d = (\S+)", err.strip()).group(1))
    assert abs(d - WINDOW_STALL_D[name]) <= 1e-5


def test_summary_is_strict_json_with_failed_eps_runs(tmp_path, capsys):
    """A failed eps run's error is written as null, in the file and on
    stdout alike, so that a strict parser reads both."""
    def no_constants(name):
        raise ValueError(f"non-standard JSON constant {name}")

    code, out, _ = run(["solve", "--g", "3", "--m-minus", "2", "--m-plus", "2", "--n", "7",
                        "--theta1", "0.2617993877991494", "--eps-study", "--precision", "128",
                        "--to-d", "d0+0.005", "--out", str(tmp_path)], capsys)
    assert code == 0
    text = (tmp_path / "summary.json").read_text()
    assert text == out
    study = json.loads(text, parse_constant=no_constants)["eps_study"]
    errors, statuses = study["errors"], study["statuses"]
    assert errors[0] is None
    assert all(e > 0 for e in errors[1:])
    # the failed run's status names its exception and says why; the others read ok
    name, _, reason = statuses[0].partition(": ")
    assert issubclass(getattr(errors_mod, name), errors_mod.ConeShrinkError) and reason
    assert statuses[1:] == ["ok"] * (len(errors) - 1)


class TestVerify:
    def test_untouched_passes(self, solve_dir, capsys):
        for name in ("s_side.csv", "d_side.csv"):
            code, out, _ = run(["verify", str(solve_dir / name)], capsys)
            assert code == 0, name
            assert "verification passed" in out

    def test_corrupted_row_names_energy(self, solve_dir, tmp_path, capsys):
        lines = (solve_dir / "s_side.csv").read_text().splitlines()
        parts = lines[30].split(",")
        parts[1] = repr(float(parts[1]) * 1.01)
        lines[30] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(["verify", str(bad), "--summary",
                            str(solve_dir / "summary.json")], capsys)
        assert code == 5
        assert "energy_residual" in err

    def test_missing_file_is_io_error(self, solve_dir, capsys):
        code, _, err = run(["verify", str(solve_dir / "nope.csv")], capsys)
        assert code == 6

    @pytest.mark.parametrize("flag", ["--energy-threshold", "--ode-threshold",
                                      "--eq130-threshold", "--drift-threshold"])
    @pytest.mark.parametrize("value", ["nan", "-1e-300", "inf", "-inf"])
    def test_threshold_outside_its_domain_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "profile.csv", f"{flag}={value}"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_zero_threshold_is_taken(self, solve_dir, capsys):
        code, out, _ = run(["verify", str(solve_dir / "s_side.csv"), "--energy-threshold", "0",
                            "--ode-threshold", "0"], capsys)
        assert code == 5
        assert "(threshold 0.0e+00) FAIL" in out




class TestEq030Solve:
    """eq030 runs continue toward the zero of their own profile and carry
    the energy monitor."""

    @pytest.mark.parametrize("to_d", [[], ["--to-d", "d0+0.01"]])
    def test_not_mean_convex_is_a_constraint_violation(self, to_d, tmp_path, capsys):
        # cot-sum H(0) > 0, eq030 H(0) < 0: the family is valid, the mode's
        # profile is not mean convex, and it has no d0 for --to-d
        code, _, err = run(["solve", "--g", "2", "--m-minus", "1", "--m-plus", "2",
                            "--n", "4", "--theta1", "0.95", "--profile-mode", "eq030",
                            *to_d, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "H(0) = -0.65143 <= 0 in profile mode eq030_literal" in err

    def test_verify_both_profiles(self, tmp_path, capsys):
        code, out, _ = run(["solve", *_builtin_flags("g1_sphere_n2"), "--profile-mode", "eq030",
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        assert isinstance(json.loads(out)["max_energy_residual"], float)
        for name in ("s_side.csv", "d_side.csv"):
            code, out, _ = run(["verify", str(tmp_path / name)], capsys)
            assert code == 0, name
            assert "verification passed" in out

    def test_unequal_multiplicities_use_their_own_d0(self, tmp_path, capsys):
        # the eq030 H of g2_product_12 changes sign before the cot-sum d0
        fam = builtin_catalog()["g2_product_12"]
        d0 = minimal_distance(CurvatureProfile(fam, EQ030_LITERAL))
        assert d0 < fam.d0 - 0.01
        code, out, err = run(["solve", *_builtin_flags("g2_product_12"),
                              "--profile-mode", "eq030", "--out", str(tmp_path)], capsys)
        assert code == 0, err
        summary = json.loads(out)
        assert summary["d0"] == d0
        assert summary["d_target"] == d0 + 0.05

    def test_vertical_tangent_past_their_own_d0(self, tmp_path, capsys):
        # g4_m45 passes its eq030 d0 and stops where its cot_sum run does:
        # at the chart's vertical tangent
        code, _, err = run(["solve", *_builtin_flags("g4_m45"), "--profile-mode", "eq030",
                            "--out", str(tmp_path)], capsys)
        assert code == 4
        assert "vertical tangent" in err
        assert "before d0" not in err


class TestExport:
    def test_obj(self, solve_dir, tmp_path, capsys):
        code, out, _ = run(["export", str(solve_dir / "d_side.csv"),
                            "--format", "obj", "--out", str(tmp_path),
                            "--resolution", "32"], capsys)
        assert code == 0
        assert (tmp_path / "end.obj").exists()

    def test_json(self, solve_dir, tmp_path, capsys):
        code, _, _ = run(["export", str(solve_dir / "d_side.csv"),
                          "--format", "json", "--out", str(tmp_path)], capsys)
        assert code == 0
        doc = json.loads((tmp_path / "profile.json").read_text())
        assert doc["schema"] == "coneshrink/profile-v1"

    def test_resolution_past_the_bound_exits_4_before_meshing(self, solve_dir, tmp_path,
                                                              capsys, monkeypatch):
        """--resolution 100000 would ask numpy for 74.5 GiB: it exits 4 with a
        message naming the bound, and never reaches the mesh (patched here to
        fail if it is called)."""
        def no_mesh(*args):
            raise AssertionError("the mesh was built")

        monkeypatch.setattr(geometry, "_end_mesh", no_mesh)
        code, _, err = run(["export", str(solve_dir / "d_side.csv"), "--format", "obj",
                            "--resolution", "100000", "--out", str(tmp_path)], capsys)
        assert code == 4
        assert err.startswith("solver failure: ResolutionTooHigh: resolution 100000 > 1024, ")
        assert not (tmp_path / "end.obj").exists()

    def test_obj_deterministic(self, solve_dir, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            code, out, _ = run(["export", str(solve_dir / "d_side.csv"),
                                "--format", "obj", "--out", str(tmp_path / name),
                                "--resolution", "32"], capsys)
            assert code == 0
            outs.append(out)
        data = (tmp_path / "a" / "end.obj").read_bytes()
        assert data == (tmp_path / "b" / "end.obj").read_bytes()
        # the header carries the printed discrete residual at 7 digits
        printed = float(re.search(r"discrete residual (\S+)\)", outs[0]).group(1))
        header = re.search(rb"max\|H_disc\| = (\S+)\n", data).group(1).decode()
        assert header == f"{printed:.6e}"


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["coeffs", *FAM1_FLAGS, "--K", "40", "--precision", "256", "--out", "-"],
])
def test_closed_stdout_is_io_failure(argv):
    # entry() with stdout a pipe whose reader is already gone
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from coneshrink.cli import entry; entry()", *argv],
            stdout=write_fd, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_fd)
    assert proc.returncode == 6
    assert b"Traceback" not in proc.stderr
    assert b"BrokenPipeError" not in proc.stderr


# a fresh interpreter that runs main(argv), then prints on stderr's last
# line its exit code and the coneshrink and numpy modules it has loaded
_MODULE_PROBE = (
    "import json, sys\n"
    "from coneshrink.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = sorted(m for m in sys.modules if m.startswith(('coneshrink.', 'numpy.')))\n"
    "print(json.dumps([code, loaded]), file=sys.stderr)\n"
)


def _modules_after(argv, prefix, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    return code, [m for m in loaded if m.startswith(prefix)]


def test_cli_import_loads_every_module(tmp_path):
    """perfbench's tracer finds its targets in sys.modules after `import
    coneshrink.cli`, so that import must load every coneshrink module."""
    _, modules = _modules_after(["catalog"], "coneshrink.", tmp_path)
    assert modules == [f"coneshrink.{name}" for name in (
        "catalog", "cli", "errors", "geometry", "ivp", "jets", "numutil", "series", "stepper")]


# eq030's profile of this family is not mean convex (exit 2, from the s-side run)
NOT_MEAN_CONVEX_EQ030 = ["--g", "2", "--m-minus", "1", "--m-plus", "2", "--n", "4",
                         "--theta1", "0.95", "--profile-mode", "eq030"]


@pytest.mark.parametrize("argv, code", [
    (["catalog"], 0),
    (["catalog", "--check", "g=1", "m=1", "n=2", "theta1=0.785398"], 0),
    (["coeffs", *FAM1_FLAGS, "--K", "12", "--corrections", "--gevrey", "--out", "-"], 0),
    (["solve", *FAM1_FLAGS, "--out", "o"], 0),
    (["solve", *_builtin_flags("g6_m2"), "--out", "o"], 4),
    (["solve", *NOT_MEAN_CONVEX_EQ030, "--out", "o"], 2),
    # 1e-4 below g6_m2's vertical tangent: the tangent probe runs and the
    # curve reaches the target first
    (["solve", *_builtin_flags("g6_m2"), "--to-d", "0.13678", "--out", "o"], 0),
], ids=["catalog", "catalog_check", "coeffs", "solve", "solve_tangent",
        "solve_not_mean_convex", "solve_window"])
def test_numpy_stays_unexecuted(argv, code, tmp_path):
    """The series and the catalog run on mpmath and floats, and a solve
    without --eps-study on floats and lists, whether it succeeds or fails:
    numpy is in sys.modules as a lazy module, but its import never runs."""
    assert _modules_after(argv, "numpy.", tmp_path) == (code, [])


@pytest.mark.parametrize("argv", [
    ["verify", "o/s_side.csv"],
    ["verify", "o/d_side.csv"],
    ["export", "o/d_side.csv", "--format", "obj", "--resolution", "8", "--out", "o"],
    ["export", "o/d_side.csv", "--format", "json", "--out", "o"],
    ["solve", *FAM1_FLAGS, "--K", "20", "--eps-study", "--out", "eps"],
], ids=["verify_s_side", "verify_d_side", "export_obj", "export_json", "solve_eps_study"])
def test_numpy_is_executed(argv, tmp_path, capsys):
    """Where numpy's import is still paid: verify and export compute on the
    stored profile's arrays, and the epsilon study on its grid."""
    assert main(["solve", *FAM1_FLAGS, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    code, modules = _modules_after(argv, "numpy.", tmp_path)
    assert code == 0
    # the lazy module is "numpy" alone; its import loads the submodules
    assert modules != []


def _rows_edited(name, edit):
    """File content: the solved run's ``name`` with ``edit`` applied to its
    list of data lines (the header kept)."""
    def content(run):
        header, *rows = (run / name).read_text().splitlines(keepends=True)
        return header + "".join(edit(rows))
    return content


def _swap_10_11(rows):
    return [*rows[:10], rows[11], rows[10], *rows[12:]]


def _repeat_10(rows):
    return [*rows[:11], rows[10], *rows[11:]]


class TestExitContract:
    """Every failure leaves ``entry()`` with its documented exit code and no
    traceback.  ``{run}`` stands for the directory of a solved run; a file
    whose content is a function is made from that directory."""

    COEFFS = ["coeffs", *FAM1_FLAGS, "--K", "5"]
    S_SIDE_HEADER = "s,gamma,dgamma,d2gamma,local_err,energy_residual\n"
    D_SIDE_HEADER = "d,phi,dphi,g,eq130_residual,eq350_drift\n"
    CASES = {
        # name: (files written first, argv, exit code)
        "config_unknown_key": ({"c.cfg": "bogus = 1\n"}, [*COEFFS, "--config", "c.cfg"], 2),
        "config_line_without_equals": ({"c.cfg": "K\n"}, [*COEFFS, "--config", "c.cfg"], 2),
        "config_not_a_number": ({"c.cfg": "K = abc\n"}, [*COEFFS, "--config", "c.cfg"], 2),
        "config_bad_choice": ({"c.cfg": "profile_mode = foo\n"},
                              [*COEFFS, "--config", "c.cfg"], 2),
        "config_missing": ({}, [*COEFFS, "--config", "missing.cfg"], 6),
        "coeffs_out_under_a_file": ({"f": ""}, [*COEFFS, "--out", "f/x"], 6),
        "solve_out_under_a_file": ({"f": ""}, ["solve", *FAM1_FLAGS, "--out", "f/x"], 6),
        "export_out_under_a_file": ({"f": ""}, ["export", "{run}/d_side.csv", "--out", "f/x"], 6),
        "solve_artifact_is_a_directory": ({"o/s_side.csv/keep": ""},
                                          ["solve", *FAM1_FLAGS, "--out", "o"], 6),
        "verify_summary_not_json": ({"r/summary.json": "not json\n"},
                                    ["verify", "r/d_side.csv"], 6),
        "export_summary_not_json": ({"r/summary.json": "not json\n"},
                                    ["export", "r/d_side.csv", "--out", "o"], 6),
        "solve_to_d_syntax": ({}, ["solve", *FAM1_FLAGS, "--to-d", "abc", "--out", "o"], 2),
        "solve_to_d_below_handoff": ({}, ["solve", *FAM1_FLAGS, "--to-d", "0.01", "--out", "o"],
                                     4),
        "catalog_check_not_a_number": ({}, ["catalog", "--check", "g=x", "m=1", "n=2",
                                            "theta1=0.7"], 2),
        "coeffs_missing_theta1": ({}, ["coeffs", "--g", "1", "--m", "1", "--n", "2",
                                       "--out", "-"], 2),
        "verify_csv_cell_not_a_number": ({"bad.csv": "s,gamma,dgamma,d2gamma,local_err,"
                                                     "energy_residual\n0.1,abc,1,0,0,0\n"},
                                         ["verify", "bad.csv", "--summary", "{run}/summary.json"],
                                         6),
        "verify_csv_missing_column": ({"bad.csv": "d,phi\n1.0,0.5\n"},
                                      ["verify", "bad.csv", "--summary", "{run}/summary.json"],
                                      6),
        # a profile needs three rows: none fails the monitors, one checks
        # nothing, and two leave the d-side check no interior node
        "verify_s_side_header_only": ({"s_side.csv": S_SIDE_HEADER},
                                      ["verify", "s_side.csv", "--summary", "{run}/summary.json"],
                                      6),
        "verify_s_side_one_row": ({"s_side.csv": S_SIDE_HEADER + "0.01,0.01,1,-2,0,0\n"},
                                  ["verify", "s_side.csv", "--summary", "{run}/summary.json"], 6),
        "verify_d_side_two_rows": ({"d_side.csv": D_SIDE_HEADER + "0.1,0.5,-1,0.3,0,0\n"
                                                   "0.2,0.4,-1,0.4,0,0\n"},
                                   ["verify", "d_side.csv", "--summary", "{run}/summary.json"], 6),
        "verify_d_side_header_only": ({"d_side.csv": D_SIDE_HEADER},
                                      ["verify", "d_side.csv", "--summary", "{run}/summary.json"],
                                      6),
        "export_d_side_header_only": ({"d_side.csv": D_SIDE_HEADER},
                                      ["export", "d_side.csv", "--summary", "{run}/summary.json",
                                       "--out", "o"], 6),
        "config_not_utf8": ({"c.cfg": b"\xff\xfeK = 5\n"}, [*COEFFS, "--config", "c.cfg"], 2),
        "config_bad_boolean": ({"c.cfg": "gevrey = maybe\n"}, [*COEFFS, "--config", "c.cfg"], 2),
        # |A_91| of g3_m1 exceeds the float range; the precision advice names
        # the bits all the same
        "corrections_advice_past_float_range": (
            {}, ["coeffs", "--g", "3", "--m", "1", "--n", "4", "--theta1", repr(math.pi / 12),
                 "--K", "92", "--N", "90", "--precision", "64", "--corrections", "--out", "-"],
            4),
        # handled before these cases were added; pinned unchanged
        "verify_missing_csv": ({}, ["verify", "{run}/nope.csv"], 6),
        "verify_unrecognized_header": ({"bad.csv": "x,y\n1,2\n"},
                                       ["verify", "bad.csv", "--summary", "{run}/summary.json"], 4),
        "export_resolution_too_low": ({}, ["export", "{run}/d_side.csv", "--format", "obj",
                                           "--resolution", "4", "--out", "o"], 4),
        "catalog_check_missing_field": ({}, ["catalog", "--check", "g=1", "m=1", "n=2"], 2),
        "catalog_check_unknown_key": ({}, ["catalog", "--check", "g=1", "m=1", "n=2",
                                           "theta1=0.7", "bogus=1"], 2),
        "catalog_check_misspelt_key": ({}, ["catalog", "--check", "g=2", "m=1", "mplus=2",
                                            "n=4", "theta1=0.5"], 2),
        "catalog_check_bare": ({}, ["catalog", "--check"], 2),
        # a stored profile's first column must strictly increase: the mesh
        # interpolates between ascending nodes
        "verify_d_side_swapped_rows": ({"d_side.csv": _rows_edited("d_side.csv", _swap_10_11)},
                                       ["verify", "d_side.csv", "--summary",
                                        "{run}/summary.json"], 6),
        "verify_d_side_repeated_row": ({"d_side.csv": _rows_edited("d_side.csv", _repeat_10)},
                                       ["verify", "d_side.csv", "--summary",
                                        "{run}/summary.json"], 6),
        "export_d_side_swapped_rows": ({"d_side.csv": _rows_edited("d_side.csv", _swap_10_11)},
                                       ["export", "d_side.csv", "--summary",
                                        "{run}/summary.json", "--format", "obj", "--out", "o"],
                                       6),
        "export_d_side_repeated_row": ({"d_side.csv": _rows_edited("d_side.csv", _repeat_10)},
                                       ["export", "d_side.csv", "--summary",
                                        "{run}/summary.json", "--format", "obj", "--out", "o"],
                                       6),
        "verify_s_side_swapped_rows": ({"s_side.csv": _rows_edited("s_side.csv", _swap_10_11)},
                                       ["verify", "s_side.csv", "--summary",
                                        "{run}/summary.json"], 6),
        # the collapse abscissa prints as a plain float
        "solve_step_collapse": ({}, ["solve", "--g", "2", "--m", "1", "--n", "3",
                                     "--theta1", "0.785", "--out", "o"], 4),
        "constraint": ({}, ["solve", "--g", "2", "--m", "1", "--n", "3", "--theta1", "1.04",
                            "--out", "o"], 2),
        # a NaN or negative threshold failed every monitor (exit 5), an
        # infinite one passed any
        "verify_threshold_nan": ({}, ["verify", "{run}/s_side.csv", "--energy-threshold", "nan"],
                                 2),
        "verify_threshold_negative": ({}, ["verify", "{run}/s_side.csv",
                                           "--energy-threshold", "-1"], 2),
        "verify_threshold_inf": ({}, ["verify", "{run}/s_side.csv", "--energy-threshold", "inf"],
                                 2),
    }
    # what the message of a case must name
    NAMES = {
        "verify_csv_cell_not_a_number": ["bad.csv:2:", "'abc'"],
        "verify_csv_missing_column": ["bad.csv", "dphi"],
        "verify_s_side_header_only": ["s_side.csv: 0 data row(s)"],
        "verify_s_side_one_row": ["s_side.csv: 1 data row(s)"],
        "verify_d_side_header_only": ["d_side.csv: 0 data row(s)"],
        "verify_d_side_two_rows": ["d_side.csv: 2 data row(s)"],
        "export_d_side_header_only": ["d_side.csv: 0 data row(s)"],
        "config_not_utf8": ["c.cfg", "utf-8"],
        "config_bad_boolean": ["c.cfg:1:", "gevrey = 'maybe'"],
        "corrections_advice_past_float_range": ["NonlinearDependence", "--precision 1120"],
        "solve_to_d_below_handoff": ["OutOfRange", "d_target 0.01", "handoff d_h"],
        "catalog_check_unknown_key": ["unknown key 'bogus'"],
        "catalog_check_misspelt_key": ["unknown key 'mplus'"],
        "catalog_check_bare": ["missing_multiplicity"],
        "verify_d_side_swapped_rows": ["d_side.csv:13:", "d must strictly increase"],
        "verify_d_side_repeated_row": ["d_side.csv:13:", "d must strictly increase"],
        "export_d_side_swapped_rows": ["d_side.csv:13:", "d must strictly increase"],
        "export_d_side_repeated_row": ["d_side.csv:13:", "d must strictly increase"],
        "verify_s_side_swapped_rows": ["s_side.csv:13:", "s must strictly increase"],
        "solve_step_collapse": ["retry with d_target below 0.0019406397184254178 "
                                "at d = 0.0019406397184254178"],
        "verify_threshold_nan": ["--energy-threshold", "finite number >= 0", "'nan'"],
        "verify_threshold_negative": ["--energy-threshold", "finite number >= 0", "'-1'"],
        "verify_threshold_inf": ["--energy-threshold", "finite number >= 0", "'inf'"],
    }

    @pytest.mark.parametrize("name", CASES)
    def test_exit_code(self, name, solve_dir, tmp_path):
        files, argv, code = self.CASES[name]
        for rel, content in files.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            if callable(content):
                content = content(solve_dir)
            if isinstance(content, bytes):
                (tmp_path / rel).write_bytes(content)
            else:
                (tmp_path / rel).write_text(content)
        argv = [a.replace("{run}", str(solve_dir)) for a in argv]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run(
            [sys.executable, "-c", "from coneshrink.cli import entry; entry()", *argv],
            cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip()
        for part in self.NAMES.get(name, ()):
            assert part in proc.stderr, proc.stderr


class TestConfigAndEnv:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 1\nm = 1\nn = 2\ntheta1 = 0.7853981633974483\nK = 5\n")
        code, out, _ = run(["coeffs", "--config", str(cfg),
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["K"] == 5

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 1\nm = 1\nn = 2\ntheta1 = 0.7853981633974483\nK = 5\n")
        code, out, _ = run(["coeffs", "--config", str(cfg), "--K", "7",
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["K"] == 7

    def test_env_precision(self, tmp_path, capsys, monkeypatch):
        # --precision and its config key are the one source of the working
        # precision: the environment variable that once also set it, valid
        # or not, changes no output and no exit code
        for command in ("coeffs", "solve"):
            argv = [command, *FAM1_FLAGS, "--K", "4", "--out", str(tmp_path / command)]
            monkeypatch.delenv("CONESHRINK_PRECISION", raising=False)
            unset = run(argv, capsys)
            assert unset[0] == 0
            monkeypatch.setenv("CONESHRINK_PRECISION", "96")
            assert run(argv, capsys) == unset, command
        rec = json.loads((tmp_path / "coeffs" / "coeffs.json").read_text())
        assert rec["precision_bits"] == 53

    def test_flag_at_its_default_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 1\nm = 1\nn = 2\ntheta1 = 0.7853981633974483\nK = 7\n"
                       "N = 4\nprofile_mode = eq030\n")
        code, out, _ = run(["coeffs", "--config", str(cfg), "--K", "40", "--N", "8",
                            "--profile-mode", "cot_sum", "--corrections", "--out", "-"],
                           capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["K"] == 40
        assert len(rec["B"]) == 9
        assert rec["profile_mode"] == "cot_sum"

    def test_config_conversions_and_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 1\nm = 1\nn = 2\ntheta1 = 0.7853981633974483\n"
                       "K = 6.0  # int keys take a float spelling\ngevrey = yes\n")
        code, out, _ = run(["coeffs", "--config", str(cfg), "--out", "-"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["K"] == 6 and "gevrey_report" in rec
        cfg.write_text("tol = 1e-9\n")   # a solve flag; coeffs has no such key
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--config", str(cfg), "--out", "-"])
        assert exc.value.code == 2
        assert "unknown key 'tol'" in capsys.readouterr().err

    def test_config_leaves_the_next_call_its_defaults(self, tmp_path, capsys):
        # the parser is built once per process: a config file applies to its
        # own call only
        cfg = tmp_path / "run.cfg"
        cfg.write_text("K = 5\ngevrey = yes\n")
        code, out, _ = run(["coeffs", *FAM1_FLAGS, "--config", str(cfg), "--out", "-"],
                           capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["K"] == 5 and "gevrey_report" in rec
        code, out, _ = run(["coeffs", *FAM1_FLAGS, "--out", "-"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["K"] == 40 and "gevrey_report" not in rec


class TestPrecisionSource:
    # each message is the refusal the environment variable once drew; the
    # variable is no longer read, so the value is ignored and no refusal shows
    @pytest.mark.parametrize("env, message", [
        ("abc", "CONESHRINK_PRECISION='abc' is not an integer"),
        ("0", "precision 0 from CONESHRINK_PRECISION is below 1 bit"),
        ("-7", "precision -7 from CONESHRINK_PRECISION is below 1 bit"),
    ])
    @pytest.mark.parametrize("command", ["coeffs", "solve"])
    def test_bad_environment(self, command, env, message, tmp_path, capsys, monkeypatch):
        argv = [command, *FAM1_FLAGS, "--K", "4", "--out", str(tmp_path)]
        monkeypatch.delenv("CONESHRINK_PRECISION", raising=False)
        unset = run(argv, capsys)
        assert unset[0] == 0
        monkeypatch.setenv("CONESHRINK_PRECISION", env)
        code, out, err = run(argv, capsys)
        assert (code, out, err) == unset
        assert message not in err

    @pytest.mark.parametrize("bits", ["0", "-7"])
    def test_bad_flag(self, bits, tmp_path, capsys):
        code, _, err = run(["coeffs", *FAM1_FLAGS, "--precision", bits, "--out", "-"],
                           capsys)
        assert code == 4
        assert f"OutOfRange: precision {bits} from --precision is below 1 bit" in err

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("precision = 0\n")
        code, _, err = run(["solve", *FAM1_FLAGS, "--config", str(cfg),
                            "--out", str(tmp_path)], capsys)
        assert code == 4
        assert f"precision 0 from --precision or {cfg} is below 1 bit" in err

    def test_unset_and_empty_environment_mean_53(self, capsys, monkeypatch):
        for setting in (None, ""):
            if setting is None:
                monkeypatch.delenv("CONESHRINK_PRECISION", raising=False)
            else:
                monkeypatch.setenv("CONESHRINK_PRECISION", setting)
            code, out, _ = run(["coeffs", *FAM1_FLAGS, "--K", "4", "--out", "-"], capsys)
            assert code == 0
            assert json.loads(out)["precision_bits"] == 53


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which attributes are read once parsing is done."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


class TestEveryFlagIsRead:
    """Each flag coeffs and solve accept is read by the command; a removed flag
    is an unknown flag (exit 2)."""

    # --m and the --m-minus/--m-plus pair are alternatives: one run each
    MULTIPLICITIES = (["--m", "1"], ["--m-minus", "1", "--m-plus", "1"])
    FLAGS = {
        "coeffs": ["--g", "1", "--n", "2", "--theta1", "0.7853981633974483",
                   "--precision", "64", "--K", "6", "--N", "3", "--profile-mode", "cot_sum",
                   "--format", "json", "--gevrey", "--corrections"],
        "solve": ["--g", "1", "--n", "2", "--theta1", "0.7853981633974483",
                  "--precision", "53", "--K", "20", "--N", "4", "--profile-mode", "cot_sum",
                  "--tol", "1e-8", "--to-d", "d0+0.05", "--eps-study"],
    }

    @pytest.mark.parametrize("command", ["coeffs", "solve"])
    def test_every_given_flag_is_read(self, command, tmp_path, capsys, monkeypatch):
        parse_args = argparse.ArgumentParser.parse_args
        namespaces = []

        def recording_parse(parser, args=None, namespace=None):
            ns = parse_args(parser, args, _ReadRecorder())
            ns._reads = set()
            namespaces.append(ns)
            return ns

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# every value comes from the command line\n")
        covered = set()
        for mult in self.MULTIPLICITIES:
            namespaces.clear()
            argv = [command, *mult, *self.FLAGS[command], "--config", str(cfg),
                    "--out", str(tmp_path / "out")]
            code, _, _ = run(argv, capsys)
            assert code == 0
            given = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
            read = set().union(*(ns._reads for ns in namespaces))
            assert given - read == set()
            covered |= given
        # the runs gave every flag the command accepts
        parsed = set(vars(namespaces[-1])) - {"_reads", "command", "func"}
        assert parsed == covered

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--jobs", "2"],
        ["coeffs", "--tol", "1e-9"],
        ["coeffs", "--format", "obj"],
        ["solve", "--jobs", "2"],
        ["solve", "--format", "csv"],
    ])
    def test_removed_flags_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *FAM1_FLAGS, *argv[1:], "--out", str(tmp_path)])
        assert exc.value.code == 2
