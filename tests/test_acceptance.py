"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget.  Every tolerance is pinned here;
nothing is deferred to later calibration."""

import math
import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement

import mpmath
import numpy as np
import pytest

from coneshrink.catalog import (
    EQ030_LITERAL,
    CurvatureProfile,
    builtin_catalog,
    curvature_derivative,
    make_family,
    mean_curvature,
    minimal_distance,
)
from coneshrink.geometry import asymptotic_check, export_mesh, shrinker_residual
from coneshrink.ivp import (
    SolverConfig,
    continue_phi,
    epsilon_convergence_study,
    integrate_gamma,
    to_d_profile,
)
from coneshrink.jets import Jet, compose, enumerate_partitions
from coneshrink.numutil import loglog_slope
from coneshrink.series import (
    DEFAULT_K,
    compute_coefficients,
    compute_epsilon_corrections,
    gevrey_diagnostics,
)

FAM1 = dict(g=1, m_minus=1, m_plus=1, n=2, theta1=math.pi / 4)
FAM2 = dict(g=2, m_minus=1, m_plus=1, n=3, theta1=math.pi / 6)


@contextmanager
def criterion(number, budget_s, label):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:  # report, then re-raise
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None and elapsed < budget_s else "FAIL"
        print(f"\nACCEPTANCE {number:02d} [{status}] {elapsed:6.2f}s "
              f"(budget {budget_s:g}s): {label}")
        if failed is None:
            assert elapsed < budget_s, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_01_partition_oracle():
    with criterion(1, 1.0, "partition enumeration matches exhaustive brute force"):
        for m in range(1, 11):
            for l in range(1, m + 1):
                brute = set()
                for parts in combinations_with_replacement(range(1, m + 1), l):
                    if sum(parts) == m:
                        b = [0] * m
                        for p in parts:
                            b[p - 1] += 1
                        brute.add(tuple(b))
                got = {p.b for p in enumerate_partitions(m, l)}
                assert got == brute, (m, l)


def _acc_poly_jet(coeffs, a, order, to=float):
    derivs = []
    for l in range(order + 1):
        acc = to(0)
        for j in range(len(coeffs) - 1, l - 1, -1):
            acc = acc * a + to(coeffs[j]) * (math.factorial(j) // math.factorial(j - l))
        derivs.append(acc)
    return Jet(tuple(derivs))


def test_criterion_02_faa_di_bruno_triple_agreement():
    with criterion(2, 10.0, "partition, divided-difference, and FD agree to 1e-9"):
        rng = random.Random(20240601)
        m = 10
        with mpmath.workprec(256):
            h = mpmath.mpf("1e-6")
            for _ in range(100):
                fc = [rng.uniform(-1, 1) for _ in range(12)]
                gc = [rng.uniform(-1, 1) for _ in range(12)]
                a = rng.uniform(-0.2, 0.2)
                gj = _acc_poly_jet(gc, a, m)
                fj = _acc_poly_jet(fc, gj.value, m)
                c1 = compose(fj, gj, "partition")
                c2 = compose(fj, gj, "abadie")

                def poly(cs, x):
                    acc = mpmath.mpf(0)
                    for c in reversed(cs):
                        acc = acc * x + c
                    return acc

                am = mpmath.mpf(a)
                for l in range(1, m + 1):
                    scale = max(abs(c1.derivs[l]), abs(c2.derivs[l]), 1e-6)
                    assert abs(c1.derivs[l] - c2.derivs[l]) / scale < 1e-9
                    acc1 = mpmath.mpf(0)
                    acc2 = mpmath.mpf(0)
                    for i in range(l + 1):
                        w = (-1) ** i * math.comb(l, i)
                        acc1 += w * poly(fc, poly(gc, am + (mpmath.mpf(l) / 2 - i) * h))
                        acc2 += w * poly(fc, poly(gc, am + (mpmath.mpf(l) / 2 - i) * h / 2))
                    fd = (4 * acc2 / (h / 2) ** l - acc1 / h ** l) / 3
                    assert abs(c1.derivs[l] - float(fd)) / max(abs(float(fd)), 1e-6) < 1e-9


def test_criterion_03_closed_form_coefficients():
    with criterion(3, 10.0, "A_1 = H(0) and A_2 = (2n + H'(0) - 4) H(0) exactly"):
        for name, fam in builtin_catalog().items():
            prof = CurvatureProfile(fam)
            fs = compute_coefficients(prof, 2)
            h0 = mean_curvature(prof, 0.0)
            hp0 = curvature_derivative(prof, 0.0, 1)
            a1, a2 = float(fs.coefficient(1)), float(fs.coefficient(2))
            assert a1 == h0, name  # same arithmetic path: bitwise
            expect = (2 * fam.n + hp0 - 4) * h0
            assert abs(a2 - expect) <= 8e-15 * abs(expect), name
        ref = compute_coefficients(CurvatureProfile(make_family(**FAM1)), 2)
        assert abs(float(ref.coefficient(1)) - 1.0) <= 1e-14
        assert abs(float(ref.coefficient(2)) + 2.0) <= 1e-13


def test_criterion_04_gevrey_bounded():
    with criterion(4, 30.0, "Gevrey-2 verdict bounded at K = 40, 256 bits"):
        for spec in (FAM1, FAM2):
            fam = make_family(**spec)
            fs = compute_coefficients(CurvatureProfile(fam), 40, prec=256)
            rep = gevrey_diagnostics(fs)
            assert rep.verdict == "bounded", spec
            assert rep.C_est > 0
            print(f"\n  [report] g={fam.g} growth-constant estimate "
                  f"C_est = {rep.C_est:.4f}")


def test_criterion_05_epsilon_corrections():
    with criterion(5, 10.0, "corrections: eps^0 of gamma^(k)(0) = A_k, k <= 9"):
        fam = make_family(**FAM1)
        fs = compute_coefficients(CurvatureProfile(fam), 12)
        corr = compute_epsilon_corrections(fs, 8)  # affine asserts inside
        assert float(corr.B[0]) == float(fs.coefficient(1))
        assert float(corr.B[1]) == -float(fs.coefficient(2))
        for k in range(1, 10):
            assert float(corr.gamma_eps[k - 1].const) == float(fs.coefficient(k)), k
        for i, slope in enumerate(corr.slopes):
            assert abs(slope - (-1.0) ** (i + 2)) <= 1e-6


def test_criterion_06_epsilon_convergence():
    with criterion(6, 60.0, "log-log slope of max|gamma_eps - gamma_0| in [0.8, 1.2]"):
        curvature = CurvatureProfile(make_family(**FAM1))
        config = SolverConfig(tol=1e-10)
        fs = compute_coefficients(curvature, DEFAULT_K)
        rep = epsilon_convergence_study(curvature, config, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
                                        fs, integrate_gamma(curvature, fs, config))
        assert all(s == "ok" for s in rep.statuses)
        assert 0.8 <= rep.slope <= 1.2, rep.slope


def test_criterion_07_energy_identity():
    with criterion(7, 30.0, "energy residual <= 1e-8 at tol 1e-10, ~linear in tol"):
        fam = make_family(**FAM1)
        fs = compute_coefficients(CurvatureProfile(fam), 36)
        res = []
        for tol in (1e-8, 1e-10, 1e-12):
            prof = integrate_gamma(CurvatureProfile(fam), fs, SolverConfig(tol=tol))
            res.append(float(np.nanmax(np.abs(prof["energy_residual"]))))
        assert res[1] <= 1e-8
        slope = loglog_slope((1e-8, 1e-10, 1e-12), res)
        assert 0.7 <= slope <= 1.3, slope


def test_criterion_08_minimal_distance_oracles():
    with criterion(8, 1.0, "d0 = pi/4 (g=1) and pi/12 (g=2) to 1e-12"):
        assert abs(make_family(**FAM1).d0 - math.pi / 4) <= 1e-12
        assert abs(make_family(**FAM2).d0 - math.pi / 12) <= 1e-12


def test_criterion_09_continuation_past_d0():
    with criterion(9, 60.0, "continuation to d0 + 0.05: residual and drift <= 1e-6"):
        fam = make_family(**FAM1)
        fs = compute_coefficients(CurvatureProfile(fam), 36)
        cfg = SolverConfig(tol=1e-10)
        prof = integrate_gamma(CurvatureProfile(fam), fs, cfg)
        dside = to_d_profile(prof)
        cont = continue_phi(dside, config=cfg)
        assert cont["d"][-1] == pytest.approx(fam.d0 + 0.05, abs=1e-12)
        assert np.all(np.isfinite(cont["phi"])) and np.all(np.isfinite(cont["dphi"]))
        assert shrinker_residual(cont).max_abs <= 1e-6
        assert cont.meta["max_identity_drift"] <= 1e-6
        # coverage of (0, d0 + 0.05]: the converted chart reaches below 1e-2
        # (the series extends it to arbitrarily small d, criterion 10), the
        # continuation joins it consistently and carries it past d0
        assert dside["d"][0] < 1e-2
        assert cont.meta["overlap_max_diff"] <= 1e-7
        assert shrinker_residual(dside).max_abs <= 1e-6


def test_criterion_10_cone_asymptotics():
    with criterion(10, 10.0, "deviation slope in [0.7, 1.3]; d e^phi monotone to 0"):
        fam = make_family(**FAM1)
        fs = compute_coefficients(CurvatureProfile(fam), 36)
        cfg = SolverConfig(tol=1e-10)
        cont = continue_phi(to_d_profile(integrate_gamma(CurvatureProfile(fam), fs, cfg)),
                            config=cfg)
        rep = asymptotic_check(cont, fs, d_lo=1e-6, d_hi=1e-2)
        # A_1 = 1 for this family, so the report's phi + ln(d/A_1)/2 is the
        # same quantity as phi + ln(A_1 d)/2 to rounding
        assert 0.7 <= rep.slope <= 1.3, rep.slope
        assert rep.monotone
        assert rep.products[0] == min(rep.products) and rep.products[0] < 1e-2


def test_criterion_11_profile_formula_oracles():
    with criterion(11, 1.0, "cot-sum law matches sphere/product oracles to 1e-12"):
        fam_g1 = make_family(1, 2, 2, 3, 0.6)
        prof = CurvatureProfile(fam_g1)
        for i in range(100):
            d = fam_g1.d_focal * i / 101.0
            expect = 2.0 / math.tan(0.6 + d)
            assert abs(mean_curvature(prof, d) - expect) <= 1e-12 * max(1, abs(expect))
        p, q = 1, 2
        fam_g2 = make_family(2, p, q, 4, math.pi / 6)
        prof2 = CurvatureProfile(fam_g2)
        for i in range(100):
            d = fam_g2.d_focal * i / 101.0
            expect = q / math.tan(math.pi / 6 + d) - p * math.tan(math.pi / 6 + d)
            assert abs(mean_curvature(prof2, d) - expect) <= 1e-12 * max(1, abs(expect))
        # the literal level-set mode disagrees for g=2, p != q: reproduced and
        # reported, not asserted equal
        d0_lit = minimal_distance(CurvatureProfile(fam_g2, EQ030_LITERAL))
        d0_lit_expect = math.acos((p - q) / (p + q + 2)) / 2 - math.pi / 6
        assert abs(d0_lit - d0_lit_expect) <= 1e-9
        gap = abs(d0_lit - fam_g2.d0)
        assert gap > 0.01
        print(f"\n  [report] eq030_literal minimal distance {d0_lit:.6f} vs "
              f"cot_sum {fam_g2.d0:.6f} (documented gap {gap:.4f})")


def test_criterion_12_mesh_discrete_check():
    with criterion(12, 60.0, "discrete shrinker residual <= 5e-2 at 128, decreasing"):
        fam = make_family(**FAM1)
        fs = compute_coefficients(CurvatureProfile(fam), 36)
        cfg = SolverConfig(tol=1e-10)
        cont = continue_phi(to_d_profile(integrate_gamma(CurvatureProfile(fam), fs, cfg)),
                            config=cfg)
        import tempfile, os
        with tempfile.TemporaryDirectory() as tmp:
            r128 = export_mesh(cont, os.path.join(tmp, "m128.obj"), 128)
            r256 = export_mesh(cont, os.path.join(tmp, "m256.obj"), 256)
        assert r128.discrete_residual <= 5e-2
        assert r256.discrete_residual < r128.discrete_residual


def test_criterion_13_self_convergence():
    with criterion(13, 30.0, "tolerance refinement agrees <= 1e-7; handoff invariance"):
        fam = make_family(**FAM1)
        fs = compute_coefficients(CurvatureProfile(fam), 36)
        p8 = integrate_gamma(CurvatureProfile(fam), fs, SolverConfig(tol=1e-8))
        p10 = integrate_gamma(CurvatureProfile(fam), fs, SolverConfig(tol=1e-10))
        assert abs(p8["gamma"][-1] - p10["gamma"][-1]) <= 1e-7
        half = integrate_gamma(CurvatureProfile(fam), fs, SolverConfig(
            tol=1e-10, s_bootstrap=p10.meta["s_b"] / 2))
        diff = abs(half["gamma"][-1] - p10["gamma"][-1])
        budget = (p10.meta["sum_local_err"] + half.meta["sum_local_err"]
                  + p10.meta["series_error_gamma"] + half.meta["series_error_gamma"])
        assert diff <= 10 * budget
