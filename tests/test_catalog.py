import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from coneshrink.catalog import (
    COT_SUM,
    EQ030_LITERAL,
    MAX_DERIVATIVE_ORDER,
    CurvatureProfile,
    IsoparametricFamily,
    _in_number_type,
    binary64_antiderivative,
    binary64_curvature,
    builtin_catalog,
    curvature_antiderivative,
    curvature_derivative,
    make_family,
    mean_curvature,
    minimal_distance,
)
from coneshrink.errors import (
    ConstraintViolation,
    NotMeanConvex,
    OutOfRange,
    RootNotBracketed,
    UnsupportedMode,
)


class TestMakeFamily:
    def test_g1_reference(self, fam1):
        assert fam1.theta == (math.pi / 4,)
        assert fam1.d_focal == pytest.approx(3 * math.pi / 4, abs=1e-15)
        assert fam1.d0 == pytest.approx(math.pi / 4, abs=1e-13)

    def test_g2_reference(self, fam2):
        assert fam2.theta == pytest.approx((math.pi / 6, math.pi / 6 + math.pi / 2))
        assert fam2.d_focal == pytest.approx(math.pi / 3)
        assert fam2.d0 == pytest.approx(math.pi / 12, abs=1e-13)

    def test_g_not_allowed(self):
        with pytest.raises(ConstraintViolation) as err:
            make_family(5, 1, 1, 6, 0.3)
        assert err.value.invariant == "g_allowed"

    def test_odd_g_needs_equal_multiplicities(self):
        with pytest.raises(ConstraintViolation) as err:
            make_family(3, 1, 2, 6, 0.2)
        assert err.value.invariant == "odd_g_equal_multiplicities"

    def test_multiplicity_sum(self):
        with pytest.raises(ConstraintViolation) as err:
            make_family(2, 1, 1, 5, 0.3)
        assert err.value.invariant == "multiplicity_sum"

    def test_abresch(self):
        with pytest.raises(ConstraintViolation) as err:
            make_family(6, 3, 3, 19, 0.05)
        assert err.value.invariant == "abresch_g6"

    def test_theta1_range(self):
        with pytest.raises(ConstraintViolation) as err:
            make_family(2, 1, 1, 3, math.pi / 2 + 0.01)
        assert err.value.invariant == "theta1_range"

    def test_not_mean_convex(self):
        # theta1 past the minimal angle: H(0) < 0
        with pytest.raises(NotMeanConvex):
            make_family(2, 1, 1, 3, math.pi / 3)

    def test_multiplicity_assignment_alternates(self):
        fam = make_family(4, 1, 2, 7, 0.1)
        assert fam.multiplicities == (2, 1, 2, 1)

    def test_builtin_catalog_all_valid(self):
        cat = builtin_catalog()
        assert len(cat) == 14
        for fam in cat.values():
            assert 0 < fam.d0 < fam.d_focal


class TestMeanCurvature:
    def test_g1_at_zero(self, fam1):
        assert mean_curvature(CurvatureProfile(fam1), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_g2_at_zero(self, fam2):
        assert mean_curvature(CurvatureProfile(fam2), 0.0) == pytest.approx(
            2 / math.sqrt(3), abs=1e-14)

    def test_zero_at_d0(self, fam1, fam2):
        for fam in (fam1, fam2):
            assert abs(mean_curvature(CurvatureProfile(fam), fam.d0)) < 1e-12

    def test_out_of_range(self, fam1):
        prof = CurvatureProfile(fam1)
        with pytest.raises(OutOfRange):
            mean_curvature(prof, -0.1)
        with pytest.raises(OutOfRange):
            mean_curvature(prof, fam1.d_focal)

    def test_out_of_range_array_element(self, fam2):
        prof = CurvatureProfile(fam2)
        for bad in (fam2.d_focal, -1e-3):
            nodes = np.array([0.0, 0.1, bad, 0.2])
            for evaluate in (lambda x: mean_curvature(prof, x),
                             lambda x: curvature_derivative(prof, x, 2),
                             lambda x: curvature_antiderivative(prof, x)):
                with pytest.raises(OutOfRange):
                    evaluate(nodes)

    def test_number_type_dispatch(self, fam1):
        """An ndarray (a subclass or 0-d one too) takes numpy, an mpf
        mpmath, and a float or a numpy scalar math, as isinstance decided."""
        cases = [(np.array([0.1, 0.2]), np), (np.array(0.1), np), (np.ma.array([0.1]), np),
                 (mpmath.mpf("0.1"), mpmath), (0.1, math), (1, math),
                 (np.float64(0.1), math), (np.float32(0.1), math)]
        for d, lib in cases:
            assert _in_number_type(fam1, d)[2] is lib, type(d)

    def test_float_check_does_not_load_numpy(self):
        script = ("import sys\n"
                  "from coneshrink.catalog import CurvatureProfile, builtin_catalog, "
                  "mean_curvature\n"
                  "prof = CurvatureProfile(builtin_catalog()['g1_sphere_n2'])\n"
                  "assert mean_curvature(prof, 0.1) > 0\n"
                  "print(sorted(m for m in sys.modules if m.startswith('numpy.')))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_binary64_closure_is_mean_curvature(self):
        for fam in builtin_catalog().values():
            for mode in (COT_SUM, EQ030_LITERAL):
                prof = CurvatureProfile(fam, mode)
                h = binary64_curvature(prof)
                for i in range(40):
                    d = fam.d_focal * i / 41.0
                    assert h(d) == mean_curvature(prof, d)

    def test_binary64_closure_is_the_antiderivative(self):
        for fam in builtin_catalog().values():
            for mode in (COT_SUM, EQ030_LITERAL):
                prof = CurvatureProfile(fam, mode)
                cal = binary64_antiderivative(prof)
                for i in range(40):
                    x = fam.d_focal * i / 41.0
                    assert cal(x) == curvature_antiderivative(prof, x)

    def test_geodesic_sphere_oracle(self):
        # every g=1 family matches (n-1) cot(theta1 + d)
        for n, theta1 in ((2, math.pi / 4), (3, 0.5), (5, 1.0)):
            fam = make_family(1, n - 1, n - 1, n, theta1)
            prof = CurvatureProfile(fam)
            for i in range(100):
                d = fam.d_focal * i / 101.0
                expect = (n - 1) / math.tan(theta1 + d)
                assert mean_curvature(prof, d) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_product_sphere_oracle(self):
        # g=2 with (p, q) = (m_minus, m_plus): q cot(theta1+d) - p tan(theta1+d)
        for p, q in ((1, 1), (1, 2), (2, 3)):
            fam = make_family(2, p, q, p + q + 1, math.pi / 6)
            prof = CurvatureProfile(fam)
            for i in range(100):
                d = fam.d_focal * i / 101.0
                expect = q / math.tan(math.pi / 6 + d) - p * math.tan(math.pi / 6 + d)
                assert mean_curvature(prof, d) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_strictly_decreasing(self):
        for fam in builtin_catalog().values():
            prof = CurvatureProfile(fam)
            for i in range(50):
                d = fam.d_focal * i / 51.0
                assert curvature_derivative(prof, d, 1) < 0


class TestCurvatureDerivative:
    def test_g1_first(self, fam1):
        assert curvature_derivative(CurvatureProfile(fam1), 0.0, 1) == pytest.approx(
            -2.0, abs=1e-13)

    def test_g2_first(self, fam2):
        assert curvature_derivative(CurvatureProfile(fam2), 0.0, 1) == pytest.approx(
            -16.0 / 3.0, abs=1e-12)

    def test_order_zero_is_value(self, fam2):
        prof = CurvatureProfile(fam2)
        assert curvature_derivative(prof, 0.21, 0) == mean_curvature(prof, 0.21)

    def test_against_finite_differences(self, fam2):
        prof = CurvatureProfile(fam2)
        d, h = 0.15, 1e-5
        for order in (1, 2, 3):
            fd = (curvature_derivative(prof, d + h, order - 1)
                  - curvature_derivative(prof, d - h, order - 1)) / (2 * h)
            assert curvature_derivative(prof, d, order) == pytest.approx(fd, rel=1e-8)

    def test_max_order_guard(self, fam1):
        with pytest.raises(OutOfRange):
            curvature_derivative(CurvatureProfile(fam1), 0.0, 500)

    def test_literal_mode_fd_matches_low_orders(self, fam1):
        # literal g=1 curvature is exactly 2x the cot-sum one, so its
        # derivatives are too
        lit = CurvatureProfile(fam1, EQ030_LITERAL)
        cot = CurvatureProfile(fam1, COT_SUM)
        for order in (1, 2, 3):
            got = curvature_derivative(lit, 0.3, order)
            expect = 2.0 * curvature_derivative(cot, 0.3, order)
            assert got == pytest.approx(expect, rel=1e-6)

    def test_literal_mode_order_cap(self, fam1):
        # exact up to the cot-sum cap, where finite differences stopped at 8
        lit = CurvatureProfile(fam1, EQ030_LITERAL)
        cot = CurvatureProfile(fam1, COT_SUM)
        for order in (9, 10, 20, MAX_DERIVATIVE_ORDER):
            got = curvature_derivative(lit, 0.1, order)
            expect = 2.0 * curvature_derivative(cot, 0.1, order)
            assert got == pytest.approx(expect, rel=1e-14), order
        with pytest.raises(OutOfRange):
            curvature_derivative(lit, 0.1, MAX_DERIVATIVE_ORDER + 1)


class TestAntiderivative:
    def test_normalization(self, fam2):
        assert curvature_antiderivative(CurvatureProfile(fam2), 0.0) == 0.0

    def test_g1_closed_form(self, fam1):
        got = curvature_antiderivative(CurvatureProfile(fam1), math.pi / 4)
        assert got == pytest.approx(0.5 * math.log(2), abs=1e-14)

    def test_derivative_matches_h(self, fam2):
        prof = CurvatureProfile(fam2)
        x, h = 0.2, 1e-6
        fd = (curvature_antiderivative(prof, x + h)
              - curvature_antiderivative(prof, x - h)) / (2 * h)
        assert fd == pytest.approx(mean_curvature(prof, x), rel=1e-9)

    def test_concavity(self, fam1):
        # second difference of the antiderivative is H' < 0
        prof = CurvatureProfile(fam1)
        h = 1e-4
        for x in (0.1, 0.5, 1.0):
            second = (curvature_antiderivative(prof, x + h)
                      - 2 * curvature_antiderivative(prof, x)
                      + curvature_antiderivative(prof, x - h)) / h ** 2
            assert second < 0

    def test_literal_mode_unsupported(self, fam1):
        # the literal mode has the closed form too: its g=1 curvature is
        # n*cot, so the antiderivative is n times the log-ratio
        lit = CurvatureProfile(fam1, EQ030_LITERAL)
        expect = 2.0 * math.log(math.sin(math.pi / 4 + 0.5) / math.sin(math.pi / 4))
        assert curvature_antiderivative(lit, 0.5) == pytest.approx(expect, rel=1e-14)

    def test_numeric_fallback(self, fam1):
        # no quadrature fallback is left: the closed form holds at 256 bits
        lit = CurvatureProfile(fam1, EQ030_LITERAL)
        with mpmath.workprec(256):
            got = curvature_antiderivative(lit, mpmath.mpf(0.5))
        with mpmath.workprec(320):
            t1 = mpmath.mpf(fam1.theta1)
            expect = 2 * mpmath.log(mpmath.sin(t1 + mpmath.mpf(0.5)) / mpmath.sin(t1))
            assert abs(got - expect) <= 1e-60 * abs(expect)


class TestMinimalDistance:
    def test_g1_analytic(self):
        fam = make_family(1, 1, 1, 2, math.pi / 4)
        assert abs(fam.d0 - math.pi / 4) < 1e-12

    def test_g2_equal_multiplicities(self):
        fam = make_family(2, 1, 1, 3, math.pi / 6)
        assert abs(fam.d0 - math.pi / 12) < 1e-12

    def test_g2_unequal(self):
        # tan^2(theta1 + d0) = m_plus / m_minus
        fam = make_family(2, 1, 2, 4, math.pi / 6)
        assert abs(fam.d0 - (math.atan(math.sqrt(2)) - math.pi / 6)) < 1e-12

    def test_swap_invariance_when_equal(self, fam2):
        again = make_family(2, 1, 1, 3, math.pi / 6)
        assert again.d0 == fam2.d0

    def test_mean_convex_limit(self):
        # theta1 within an ulp of the minimal angle pi/(2g): H(0) is rounding
        # noise, so the family is either rejected or has d0 within rounding of
        # 0; the Newton polish must not step below d = 0
        for g, m in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 8), (4, 2), (6, 1), (6, 2)):
            limit = math.pi / (2 * g)
            for theta1 in (math.nextafter(limit, 0), limit, math.nextafter(limit, 1)):
                try:
                    d0 = make_family(g, m, m, g * m + 1, theta1).d0
                except NotMeanConvex:
                    continue
                assert 0 <= d0 <= 1e-12

    def test_root_not_bracketed(self, fam1):
        bad = IsoparametricFamily(2, 1, 1, 3, math.pi / 3)
        with pytest.raises(RootNotBracketed):
            minimal_distance(CurvatureProfile(bad))


class TestLiteralMode:
    def test_unknown_mode_is_refused(self, fam1):
        with pytest.raises(UnsupportedMode, match="unknown profile mode 'bogus'"):
            CurvatureProfile(fam1, "bogus")

    def test_g1_coefficient_discrepancy(self, fam1):
        # the level-set formula carries coefficient n where the parallel
        # surface law has n-1; the ratio is exactly n/(n-1) for g = 1
        lit = CurvatureProfile(fam1, EQ030_LITERAL)
        cot = CurvatureProfile(fam1, COT_SUM)
        for d in (0.0, 0.2, 0.5):
            ratio = mean_curvature(lit, d) / mean_curvature(cot, d)
            assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_g2_minimal_level_discrepancy(self):
        # literal zero at f = (p-q)/(p+q+2); classical at tan^2 = q/p
        fam = make_family(2, 1, 2, 4, math.pi / 6)
        d0_lit = minimal_distance(CurvatureProfile(fam, EQ030_LITERAL))
        f_star = (1 - 2) / (1 + 2 + 2)
        expect = math.acos(f_star) / 2 - math.pi / 6
        assert d0_lit == pytest.approx(expect, abs=1e-9)
        assert abs(d0_lit - fam.d0) > 0.01  # the documented disagreement

    def test_literal_monotone(self, fam1):
        lit = CurvatureProfile(fam1, EQ030_LITERAL)
        vals = [mean_curvature(lit, d) for d in
                [fam1.d_focal * i / 40 for i in range(39)]]
        assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Muenzner's closed form against the g-angle cot sum
# ---------------------------------------------------------------------------

def cot_sum_oracle(fam, d, order, prec):
    """The order-th derivative of sum_k m_k cot(theta_k + d) (order -1: the
    antiderivative sum_k m_k [ln sin(theta_k + d) - ln sin theta_k]), summed
    over the g principal angles at ``prec`` bits."""
    with mpmath.workprec(prec):
        total = mpmath.mpf(0)
        for k, m_k in enumerate(fam.multiplicities):
            th = mpmath.mpf(fam.theta1) + k * mpmath.pi / fam.g
            c = mpmath.cot(th + d)
            total += m_k * {
                -1: lambda: mpmath.log(mpmath.sin(th + d)) - mpmath.log(mpmath.sin(th)),
                0: lambda: c,
                1: lambda: -(1 + c * c),
                2: lambda: 2 * c * (1 + c * c),
                3: lambda: -2 * (1 + c * c) * (1 + 3 * c * c),
            }[order]()
        return total


def closed_form(prof, d, order, prec):
    """The closed form at d; above 53 bits at an mpf made at ``prec`` bits."""
    with mpmath.workprec(prec):
        if prec > 53:
            d = mpmath.mpf(d)
        if order < 0:
            return curvature_antiderivative(prof, d)
        return curvature_derivative(prof, d, order)


# (g, m_minus, m_plus): odd g forces equal multiplicities (g = 3 only as in
# Cartan's list); g = 2 and g = 4 include unequal pairs in both orders
ADMISSIBLE_MULTIPLICITIES = (
    [(1, m, m) for m in (1, 2, 3, 5)]
    + [(2, p, q) for p in (1, 2, 3) for q in (1, 2, 5)]
    + [(3, m, m) for m in (1, 2, 4, 8)]
    + [(4, p, q) for p, q in ((1, 1), (2, 2), (1, 2), (2, 1), (4, 5), (5, 4), (3, 4), (6, 9))]
    + [(6, m, m) for m in (1, 2)]
)


@st.composite
def admissible_family(draw):
    """A family of ADMISSIBLE_MULTIPLICITIES at a theta1 in (0, pi/g) where
    the cot-sum H(0) > 0."""
    g, mm, mp_ = draw(st.sampled_from(ADMISSIBLE_MULTIPLICITIES))
    n = 1 + (g * mm if g % 2 else g // 2 * (mm + mp_))
    theta1 = draw(st.floats(0.005, 0.995)) * math.pi / g
    try:
        return make_family(g, mm, mp_, n, theta1)
    except NotMeanConvex:
        assume(False)


@st.composite
def family_and_distance(draw):
    fam = draw(admissible_family())
    return fam, draw(st.floats(0.0, 0.95, exclude_max=True)) * fam.d_focal


class TestMuenznerIdentity:
    @given(family_and_distance())
    def test_binary64(self, case):
        fam, d = case
        prof = CurvatureProfile(fam)
        for order in (-1, 0, 1, 2, 3):
            expect = cot_sum_oracle(fam, d, order, 120)
            got = closed_form(prof, d, order, 53)
            assert abs(got - expect) <= 1e-13 * (1 + abs(expect)), order

    @given(family_and_distance())
    def test_256_bits(self, case):
        fam, d = case
        prof = CurvatureProfile(fam)
        for order in (-1, 0, 1, 2, 3):
            expect = cot_sum_oracle(fam, d, order, 320)
            got = closed_form(prof, d, order, 256)
            with mpmath.workprec(320):
                assert abs(got - expect) <= 1e-60 * (1 + abs(expect)), order

    def test_multiplicity_anchor(self):
        # swapping the multiplicities moves only the (m_1 - m_2) term:
        # H - H_swapped = (m_plus - m_minus) g / sin(g x), x = theta1 + d
        for g, mm, mp_, theta1 in ((2, 1, 2, math.pi / 6), (4, 4, 5, math.pi / 16)):
            n = 1 + g // 2 * (mm + mp_)
            fam, swapped = make_family(g, mm, mp_, n, theta1), make_family(g, mp_, mm, n, theta1)
            for d in (0.0, 0.3 * fam.d_focal, 0.6 * fam.d_focal):
                h, h_swapped = (mean_curvature(CurvatureProfile(f), d) for f in (fam, swapped))
                assert h == pytest.approx(float(cot_sum_oracle(fam, d, 0, 120)), rel=1e-13)
                assert h_swapped == pytest.approx(
                    float(cot_sum_oracle(swapped, d, 0, 120)), rel=1e-13)
                shift = (mp_ - mm) * g / math.sin(g * (theta1 + d))
                assert abs(shift) > 1
                assert h - h_swapped == pytest.approx(shift, rel=1e-12)

    def test_array_matches_scalar_calls(self):
        for fam in builtin_catalog().values():
            prof = CurvatureProfile(fam)
            nodes = np.linspace(0.0, 0.95 * fam.d_focal, 97)
            for order in (-1, 0, 1, 3):
                got = closed_form(prof, nodes, order, 53)
                expect = np.array([closed_form(prof, float(d), order, 53) for d in nodes])
                assert np.all(np.abs(got - expect) <= 1e-15 * (1 + np.abs(expect)))


def level_set_oracle(fam, d, order, prec):
    """The order-th derivative in d of the level-set formula
    [(n+g-1) f - g (m_minus - m_plus)/2] / sqrt(1 - f^2), f = cos(g (theta1 + d)),
    by mpmath's numerical differentiation at ``prec`` bits (order -1: its
    integral from 0, by quadrature)."""
    with mpmath.workprec(prec):
        g, t1 = fam.g, mpmath.mpf(fam.theta1)
        shift = mpmath.mpf(g * (fam.m_minus - fam.m_plus)) / 2

        def h(y):
            f = mpmath.cos(g * (t1 + y))
            return ((fam.n + g - 1) * f - shift) / mpmath.sqrt(1 - f * f)

        if order < 0:
            return mpmath.quad(h, [0, d])
        return mpmath.diff(h, d, order)


class TestLevelSetIdentity:
    """eq030_literal is the cot sum with weight m_minus + 1 at frequency g:
    its closed forms match the level-set formula itself."""

    @given(family_and_distance())
    def test_binary64(self, case):
        fam, d = case
        prof = CurvatureProfile(fam, EQ030_LITERAL)
        for order in (-1, 0, 1, 2, 3):
            expect = level_set_oracle(fam, d, order, 120)
            got = closed_form(prof, d, order, 53)
            # plus the rounding of each cot's argument f (theta1 + d) to
            # binary64, which moves the value by about x H^(order+1) ulps
            slack = abs(level_set_oracle(fam, d, order + 1, 120)) * (fam.theta1 + d) * 2 ** -52
            assert abs(got - expect) <= 1e-13 * (1 + abs(expect)) + slack, order

    @given(family_and_distance())
    def test_256_bits(self, case):
        fam, d = case
        prof = CurvatureProfile(fam, EQ030_LITERAL)
        for order in (-1, 0, 1, 2, 3):
            expect = level_set_oracle(fam, d, order, 320)
            got = closed_form(prof, d, order, 256)
            with mpmath.workprec(320):
                assert abs(got - expect) <= 1e-60 * (1 + abs(expect)), order
