import math

import pytest

from coneshrink.errors import DivisionByEpsilonFailed, OutOfRange
from coneshrink.series import (
    EpsilonPolynomial,
    FormalSeries,
    compute_coefficients,
    compute_epsilon_corrections,
)


class TestEpsilonPolynomial:
    def test_ring_ops_close_at_degree(self):
        a = EpsilonPolynomial((1.0, 2.0, 3.0))
        b = EpsilonPolynomial((0.5, -1.0, 4.0))
        assert (a + b).coeffs == (1.5, 1.0, 7.0)
        assert (a - b).coeffs == (0.5, 3.0, -1.0)
        prod = a * b
        assert prod.degree == 2
        assert prod.coeffs == (0.5, 0.0, 3.5)  # truncated at degree 2

    def test_scalar_ops(self):
        a = EpsilonPolynomial((1.0, 2.0))
        assert (3 * a).coeffs == (3.0, 6.0)
        assert (a + 1.5).coeffs == (2.5, 2.0)
        assert (a / 2).coeffs == (0.5, 1.0)

    def test_degree_mismatch(self):
        with pytest.raises(OutOfRange):
            EpsilonPolynomial((1.0, 2.0)) + EpsilonPolynomial((1.0, 2.0, 3.0))

    def test_divide_by_epsilon_shifts(self):
        p = EpsilonPolynomial((0.0, 5.0, -2.0))
        q = p.divide_by_epsilon()
        assert q.coeffs == (5.0, -2.0, 0.0)

    def test_divide_by_epsilon_requires_vanishing_constant(self):
        with pytest.raises(DivisionByEpsilonFailed):
            EpsilonPolynomial((1e-3, 5.0)).divide_by_epsilon(tol_abs=1e-9)

    def test_evaluation(self):
        p = EpsilonPolynomial((1.0, 2.0, 3.0))
        assert p(0.1) == pytest.approx(1.0 + 0.2 + 0.03)


class TestCorrections:
    def test_b0_b1(self, fam1, series1):
        corr = compute_epsilon_corrections(fam1, 4, series=series1)
        assert float(corr.B[0]) == float(series1.coefficient(1))  # H(0)
        assert float(corr.B[1]) == -float(series1.coefficient(2))
        assert float(corr.B[1]) == pytest.approx(2.0, abs=1e-13)

    def test_constant_terms_match_exactly(self, fam1, series1):
        n = 8
        corr = compute_epsilon_corrections(fam1, n, series=series1)
        for k in range(1, n + 2):
            assert float(corr.gamma_eps[k - 1].const) == float(series1.coefficient(k))

    def test_affine_slopes_alternate(self, fam1, series1):
        corr = compute_epsilon_corrections(fam1, 6, series=series1)
        for i, slope in enumerate(corr.slopes):
            m = i + 2
            assert slope == pytest.approx((-1.0) ** m, abs=1e-9)

    def test_second_family(self, fam2, series2):
        corr = compute_epsilon_corrections(fam2, 6, series=series2)
        assert float(corr.B[0]) == pytest.approx(2 / math.sqrt(3), rel=1e-14)
        for k in range(1, 8):
            assert float(corr.gamma_eps[k - 1].const) == float(series2.coefficient(k))

    def test_perturbation_structure(self, fam1, series1):
        """Shifting B_j by delta moves the eps^1 coefficient of
        gamma^(j)(0; eps) by (-1)^(j-1) delta and leaves the eps^0
        coefficients through order j untouched."""
        n = 6
        base = compute_epsilon_corrections(fam1, n, series=series1)
        from coneshrink.catalog import CurvatureProfile
        from coneshrink.numutil import RealContext
        from coneshrink.series import TaylorRecursion
        prof = CurvatureProfile(fam1)
        ctx = RealContext(53)
        delta = 0.125

        def run(b_vals, upto, degree):
            g1 = EpsilonPolynomial(tuple(b_vals) + (0.0,) * (degree + 1 - len(b_vals)))
            g2_coeffs = tuple(-b for b in (list(b_vals[1:]) + [0.0] * (degree + 2)))
            polys = [None, g1, EpsilonPolynomial(g2_coeffs[: degree + 1])]
            engine = TaylorRecursion(prof, ctx)
            for k in range(1, upto - 1):
                rhs = engine.push_derivatives(polys[1: k + 1])
                num = rhs - polys[k + 1]
                # perturbed runs have nonvanishing constants downstream of j:
                # drop them explicitly to keep shifting
                polys.append(EpsilonPolynomial(num.coeffs[1:] + (0.0,)))
            return polys

        degree = n + 1
        for j in (2, 3, 4):
            b_pert = list(base.B[: n + 1])
            b_pert[j] = b_pert[j] + delta
            pert = run(b_pert, n + 2, degree)
            ref = run(list(base.B[: n + 1]), n + 2, degree)
            # eps^0 of gamma^(l), l <= j unchanged
            for l in range(1, j + 1):
                assert float(pert[l].const) == pytest.approx(float(ref[l].const),
                                                             rel=1e-12)
            # eps^1 of gamma^(j) moves by (-1)^(j-1) delta
            shift = float(pert[j].coefficient(1) - ref[j].coefficient(1))
            assert shift == pytest.approx((-1.0) ** (j - 1) * delta, rel=1e-9)

    def test_inconsistent_series_detected(self, fam1, series1):
        bad_a = list(series1.a)
        bad_a[2] = bad_a[2] + 0.5  # corrupt A_3
        bad = FormalSeries(
            family=series1.family, K=series1.K, precision_bits=53,
            a=tuple(bad_a), gevrey_rho=series1.gevrey_rho,
            rel_error_estimates=series1.rel_error_estimates,
        )
        with pytest.raises(DivisionByEpsilonFailed):
            compute_epsilon_corrections(fam1, 6, series=bad)

    def test_initial_slope_and_curvature(self, fam1, series1):
        corr = compute_epsilon_corrections(fam1, 4, series=series1)
        eps = 1e-3
        b_direct = sum(float(b) * eps ** i for i, b in enumerate(corr.B))
        assert float(corr.initial_slope(eps)) == pytest.approx(b_direct, rel=1e-14)
        c_direct = -sum(float(b) * eps ** (i - 1)
                        for i, b in enumerate(corr.B) if i >= 1)
        assert float(corr.initial_curvature(eps)) == pytest.approx(c_direct, rel=1e-13)

    def test_needs_drift_one(self, fam1):
        scaled = compute_coefficients(fam1, 8, drift_coefficient=2.0)
        with pytest.raises(OutOfRange):
            compute_epsilon_corrections(fam1, 4, series=scaled)
