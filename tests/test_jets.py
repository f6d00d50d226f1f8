import math
import random

import mpmath
import pytest

from coneshrink.catalog import CurvatureProfile, curvature_derivative
from coneshrink.errors import (
    BasepointMismatch,
    InsufficientOrder,
    OrderMismatch,
)
from coneshrink.jets import (
    Jet,
    arctan_term_at_zero,
    compose,
    identity_jet,
)


def poly_jet(coeffs, a, order, prec=None):
    """Jet at a of the polynomial sum_j c_j x^j (derivatives exact)."""
    conv = (lambda v: v) if prec is None else (lambda v: mpmath.mpf(v))
    a = conv(a)
    derivs = []
    for l in range(order + 1):
        acc = 0 * a
        for j in range(len(coeffs) - 1, l - 1, -1):
            perm = math.factorial(j) // math.factorial(j - l)
            acc = acc * a + conv(coeffs[j]) * perm
        derivs.append(acc)
    return Jet(tuple(derivs))


def poly_eval(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + mpmath.mpf(c)
    return acc / 1  # mpf


class TestJetArithmetic:
    def test_product_leibniz_vs_polynomial(self):
        rng = random.Random(7)
        for _ in range(20):
            p = [rng.uniform(-1, 1) for _ in range(5)]
            q = [rng.uniform(-1, 1) for _ in range(5)]
            a = rng.uniform(-0.5, 0.5)
            m = 8
            jp = poly_jet(p, a, m)
            jq = poly_jet(q, a, m)
            # product polynomial coefficients
            pr = [0.0] * 9
            for i, ci in enumerate(p):
                for j, cj in enumerate(q):
                    pr[i + j] += ci * cj
            jpr = poly_jet(pr, a, m)
            got = jp * jq
            for k in range(m + 1):
                assert got.derivs[k] == pytest.approx(jpr.derivs[k], rel=1e-11, abs=1e-11)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            Jet((1.0, 2.0)) * Jet((1.0, 2.0, 3.0))

    def test_tag_mismatch_in_sum(self):
        with pytest.raises(BasepointMismatch):
            Jet((1.0, 0.0), basepoint=0.0) + Jet((1.0, 0.0), basepoint=1.0)

    def test_reciprocal(self):
        u = Jet((2.0, 1.0, -0.5, 0.3))
        v = u.reciprocal()
        prod = u * v
        assert prod.derivs[0] == pytest.approx(1.0)
        for k in range(1, 4):
            assert prod.derivs[k] == pytest.approx(0.0, abs=1e-14)


class TestCompose:
    def test_identity_outer(self):
        g = Jet((0.3, 1.2, -0.8, 2.2))
        f = identity_jet(g.value, 3)
        for alg in ("partition", "abadie"):
            got = compose(f, g, algorithm=alg)
            assert got.derivs == pytest.approx(g.derivs)

    def test_exp_third_derivative(self):
        # f = exp at g(a): (f o g)''' = e^g (g''' + 3 g' g'' + g'^3)
        g = Jet((0.4, 1.3, -0.7, 2.1))
        e = math.exp(g.value)
        f = Jet((e, e, e, e), basepoint=g.value)
        expect = e * (2.1 + 3 * 1.3 * (-0.7) + 1.3 ** 3)
        for alg in ("partition", "abadie"):
            assert compose(f, g, alg).derivs[3] == pytest.approx(expect, rel=1e-13)

    def test_basepoint_mismatch(self):
        g = Jet((0.3, 1.0, 0.0))
        f = Jet((1.0, 1.0, 1.0), basepoint=0.5)
        with pytest.raises(BasepointMismatch):
            compose(f, g)

    def test_algorithms_agree_mpf(self):
        # spec invariant: both algorithms within 1e-12 relative at 256 bits, m <= 12
        rng = random.Random(1)
        with mpmath.workprec(256):
            for _ in range(5):
                m = 12
                fc = [rng.uniform(-1, 1) for _ in range(10)]
                gc = [rng.uniform(-1, 1) for _ in range(10)]
                a = mpmath.mpf(rng.uniform(-0.3, 0.3))
                gj = poly_jet(gc, a, m, prec=256)
                fj = poly_jet(fc, gj.value, m, prec=256)
                c1 = compose(fj, gj, "partition")
                c2 = compose(fj, gj, "abadie")
                for k in range(m + 1):
                    denom = max(abs(float(c1.derivs[k])), 1e-30)
                    assert abs(float(c1.derivs[k] - c2.derivs[k])) / denom < 1e-12

    def test_against_finite_differences(self):
        # triple agreement: both algorithms vs central FD of f(g(s)) at 256 bits
        rng = random.Random(3)
        with mpmath.workprec(256):
            h = mpmath.mpf("1e-6")
            for _ in range(5):
                m = 10
                fc = [rng.uniform(-1, 1) for _ in range(12)]
                gc = [rng.uniform(-1, 1) for _ in range(12)]
                a = mpmath.mpf(rng.uniform(-0.2, 0.2))
                gj = poly_jet(gc, a, m, prec=256)
                fj = poly_jet(fc, gj.value, m, prec=256)
                comp = compose(fj, gj, "partition")

                def fg(s):
                    return poly_eval(fc, poly_eval(gc, s))

                for l in range(1, m + 1):
                    fd = _central_fd(fg, a, l, h)
                    denom = max(abs(float(comp.derivs[l])), 1e-20)
                    assert abs(float(comp.derivs[l] - fd)) / denom < 1e-9


def _central_fd(func, a, order, h):
    """Central difference with one Richardson level (h, h/2)."""
    def stencil(step):
        acc = mpmath.mpf(0)
        for i in range(order + 1):
            w = (-1) ** i * math.comb(order, i)
            acc += w * func(a + (mpmath.mpf(order) / 2 - i) * step)
        return acc / step ** order

    c1 = stencil(h)
    c2 = stencil(h / 2)
    return (4 * c2 - c1) / 3


def eta_jet(s, gamma_jet, m, algorithm="partition"):
    """Jet through order m of eta(s gamma'(s)), eta(x) = 1/(1 + 4x^2): the
    inner jet w^(j) = s gamma^(j+1) + j gamma^(j), the outer jet the algebraic
    reciprocal of 1 + 4x^2."""
    g = gamma_jet.truncate(m + 1).derivs
    w = Jet(tuple(s * g[j + 1] + j * g[j] for j in range(m + 1)))
    u = identity_jet(w.value, m)
    return compose((1 + 4 * (u * u)).reciprocal(), w, algorithm)


class TestEtaJet:
    def test_order_zero(self):
        g = Jet((0.1, 0.9, -1.1, 2.0, 0.3))
        s = 0.2
        got = eta_jet(s, g, 0)
        x = s * g.derivs[1]
        assert got.derivs[0] == pytest.approx(1 / (1 + 4 * x * x), rel=1e-14)

    def test_order_one_closed_form(self):
        g = Jet((0.1, 0.9, -1.1, 2.0, 0.3))
        s = 0.2
        got = eta_jet(s, g, 1)
        x = s * g.derivs[1]
        eta2 = 1 / (1 + 4 * x * x) ** 2
        expect = -8 * s * g.derivs[1] * eta2 * (s * g.derivs[2] + g.derivs[1])
        assert got.derivs[1] == pytest.approx(expect, rel=1e-13)

    def test_lambda_sum_matches_compose(self):
        # closed-form outer derivatives eta^(p)(x) = (-2)^p p! Lambda_{p+1}(x),
        # written as p! Re[(-2i)^p (1 + 2ix)^-(p+1)], against the reciprocal jet
        rng = random.Random(11)
        for _ in range(8):
            m = 10
            gd = tuple(rng.uniform(0.2, 1.5) if i == 1 else rng.uniform(-1, 1)
                       for i in range(m + 2))
            g = Jet(gd)
            s = rng.uniform(0.05, 0.9)
            a = eta_jet(s, g, m)
            x0 = s * gd[1]
            outer = Jet(tuple(math.factorial(p) * ((-2j) ** p / (1 + 2j * x0) ** (p + 1)).real
                              for p in range(m + 1)))
            w = Jet(tuple(s * gd[j + 1] + j * gd[j] for j in range(m + 1)))
            b = compose(outer, w)
            for k in range(m + 1):
                denom = max(abs(a.derivs[k]), 1e-12)
                assert abs(a.derivs[k] - b.derivs[k]) / denom < 1e-10

    def test_insufficient_order(self):
        with pytest.raises(InsufficientOrder):
            eta_jet(0.1, Jet((0.0, 1.0, 2.0)), 2)


class TestArctanTerm:
    def test_k0(self):
        assert arctan_term_at_zero([1.0], 0) == 0

    def test_k1(self):
        assert arctan_term_at_zero([1.0], 1) == pytest.approx(4.0)
        assert arctan_term_at_zero([2.5], 1) == pytest.approx(10.0)

    def test_insufficient(self):
        with pytest.raises(InsufficientOrder):
            arctan_term_at_zero([1.0, 2.0], 3)

    def test_against_finite_differences(self):
        # 2k (d/ds)^k arctan(2 s gamma'(s))(0) for a polynomial gamma, 256 bits
        rng = random.Random(5)
        with mpmath.workprec(256):
            h = mpmath.mpf("1e-5")
            for _ in range(4):
                k_max = 8
                # gamma(s) = sum_j g_j s^j / j!, gamma(0) = 0
                gd = [rng.uniform(0.3, 1.2)] + [rng.uniform(-2, 2) for _ in range(k_max)]
                coeffs = [0.0] + [g / math.factorial(j) for j, g in enumerate(gd, start=1)]

                def dgamma(s):
                    acc = mpmath.mpf(0)
                    for j in range(len(coeffs) - 1, 0, -1):
                        acc = acc * s + j * mpmath.mpf(coeffs[j])
                    return acc

                def target(s):
                    return 2 * s * (
                        2 * (dgamma(s) + s * _dgamma2(coeffs, s))
                        / (1 + 4 * s * s * dgamma(s) ** 2))

                for k in range(1, k_max + 1):
                    got = arctan_term_at_zero(gd[:k], k)
                    fd = _central_fd(target, mpmath.mpf(0), k, h)
                    denom = max(abs(float(fd)), 1e-14)
                    assert abs(float(got - fd)) / denom < 1e-8


def _dgamma2(coeffs, s):
    acc = mpmath.mpf(0)
    for j in range(len(coeffs) - 1, 1, -1):
        acc = acc * s + j * (j - 1) * mpmath.mpf(coeffs[j])
    return acc


def h_jet(profile, gamma_jet, algorithm="partition"):
    """Jet of H(gamma(s)): exact outer derivatives of the closed-form profile
    composed with the gamma jet."""
    x0 = gamma_jet.value
    outer = Jet(tuple(curvature_derivative(profile, x0, l)
                      for l in range(gamma_jet.order + 1)), basepoint=x0)
    return compose(outer, gamma_jet, algorithm=algorithm)


class TestHComposition:
    def test_chain_rule_orders(self, fam1):
        prof = CurvatureProfile(fam1)
        g = Jet((0.15, 0.9, -1.4, 2.0))
        got = h_jet(prof, g.truncate(2))
        h1 = curvature_derivative(prof, 0.15, 1)
        h2 = curvature_derivative(prof, 0.15, 2)
        assert got.derivs[1] == pytest.approx(h1 * 0.9, rel=1e-13)
        assert got.derivs[2] == pytest.approx(h2 * 0.9 ** 2 + h1 * (-1.4), rel=1e-13)

    def test_both_forms_agree(self, fam1):
        prof = CurvatureProfile(fam1)
        rng = random.Random(2)
        gd = (0.2,) + tuple(rng.uniform(-1.5, 1.5) for _ in range(8))
        g = Jet(gd)
        a = h_jet(prof, g, "partition")
        b = h_jet(prof, g, "abadie")
        for k in range(9):
            assert abs(a.derivs[k] - b.derivs[k]) <= 1e-11 * max(abs(a.derivs[k]), 1.0)

    def test_against_finite_differences(self, fam1):
        # H(gamma(s)) for polynomial gamma, FD at 256 bits; g=1 family H = cot
        prof = CurvatureProfile(fam1)
        rng = random.Random(9)
        with mpmath.workprec(256):
            theta1 = mpmath.mpf(fam1.theta1)
            m = 8
            gd = [0.3] + [rng.uniform(-1, 1) for _ in range(m)]
            coeffs = [gd[0]] + [g / math.factorial(j) for j, g in enumerate(gd[1:], start=1)]
            jet = Jet(tuple([gd[0]] + gd[1:]))

            def h_of_gamma(s):
                x = poly_eval(coeffs, s)
                return mpmath.cos(theta1 + x) / mpmath.sin(theta1 + x)

            got = h_jet(prof, jet)
            h = mpmath.mpf("1e-5")
            for k in range(1, m + 1):
                fd = _central_fd(h_of_gamma, mpmath.mpf(0), k, h)
                denom = max(abs(float(fd)), 1e-12)
                assert abs(float(got.derivs[k] - fd)) / denom < 1e-8


class TestPowerBound:
    def test_lemma_bound_holds(self):
        # inputs at the bound |u^(j)| = M^{j-1} j!^2/(j+1)^2 keep powers inside
        # the product bound |(u^l)^(j)| <= (C/M)^{l-1} M^{j-1} j!^2/(j+1)^2 with
        # the universal constant C = 4 * sum 1/i^2
        m_scale = 10.0
        c_univ = 4 * (math.pi ** 2 / 6.0)
        u = Jet(tuple(m_scale ** (j - 1) * math.factorial(j) ** 2 / (j + 1) ** 2
                      for j in range(11)))
        for exponent in (1, 2, 3, 4):
            for j, val in enumerate(u.power(exponent).derivs):
                bound = ((c_univ / m_scale) ** (exponent - 1) * m_scale ** (j - 1)
                         * math.factorial(j) ** 2 / (j + 1) ** 2)
                assert abs(val) <= (1.0 + 1e-12) * bound
