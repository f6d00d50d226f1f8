"""The Taylor-arithmetic series engine against two independent oracles.

Both run the derivative form of the recursion,

    A_{k+1} = 2nk A_k + (d/ds)^k H(gamma)(0) - 2k (d/ds)^k arctan(2 s gamma')(0),

from the exact derivatives of H at 0.  The partition oracle takes Faa di
Bruno partition sums and the partition form of the arctan term from
:mod:`coneshrink.jets`; the Bell oracle builds the partial Bell polynomials
by their recurrence and needs only :mod:`math`.  Neither shares code with
the engine in :mod:`coneshrink.series`.
"""

import math

import mpmath
import pytest

from coneshrink import jets
from coneshrink.catalog import (
    COT_SUM,
    EQ030_LITERAL,
    CurvatureProfile,
    builtin_catalog,
    curvature_derivative,
)
from coneshrink.errors import PrecisionExhausted
from coneshrink.jets import arctan_term_at_zero, fdb_kth_derivative
from coneshrink.numutil import to_real
from coneshrink.series import (
    SHADOW_EXTRA_BITS,
    compute_coefficients,
    compute_epsilon_corrections,
)
from test_exact_dot import _exact_rel

CATALOG = builtin_catalog()


def partition_oracle(family, K, prec, mode=COT_SUM):
    """A_1..A_K by partition sums (drift coefficient 1)."""
    profile = CurvatureProfile(family, mode)
    with mpmath.workprec(prec):
        zero = to_real(0.0, prec)
        h = [curvature_derivative(profile, zero, l) for l in range(K)]
        gd = [h[0]]
        for k in range(1, K):
            d_h = fdb_kth_derivative(h[: k + 1], [0 * gd[0]] + gd, k)
            gd.append(2 * family.n * k * gd[k - 1] + d_h - arctan_term_at_zero(gd, k))
    return gd


def _bell_row(rows, x, k):
    """B_{k,0..k}(x_1, x_2, ...) from the rows below k, by
    B_{k,l} = sum_i C(k-1, i-1) x_i B_{k-i,l-1} (B_{0,0} = 1, B_{k,0} = 0)."""
    row = [0] * (k + 1)
    for l in range(1, k + 1):
        row[l] = sum(math.comb(k - 1, i - 1) * x[i] * rows[k - i][l - 1]
                     for i in range(1, k - l + 2))
    return row


def bell_oracle(family, K, prec, mode=COT_SUM):
    """A_1..A_K by partial Bell polynomials: (d/ds)^k F(u)(0) is
    sum_l F^(l)(u(0)) B_{k,l}(u'(0), u''(0), ...), for F = H with u = gamma,
    and for F = arctan with u = w = 2 s gamma', whose derivatives at 0 are
    w^(j)(0) = 2j gamma^(j)(0), and arctan^(l)(0) = (-1)^((l-1)/2) (l-1)!
    for odd l, 0 for even l."""
    profile = CurvatureProfile(family, mode)
    with mpmath.workprec(prec):
        h = [curvature_derivative(profile, to_real(0.0, prec), l) for l in range(K)]
        atan = [(-1) ** ((l - 1) // 2) * math.factorial(l - 1) if l % 2 else 0 for l in range(K)]
        gd, wd = [None, h[0]], [None, 2 * h[0]]   # gamma^(j)(0) and w^(j)(0) at index j
        bell_g, bell_w = [[1]], [[1]]
        for k in range(1, K):
            bell_g.append(_bell_row(bell_g, gd, k))
            bell_w.append(_bell_row(bell_w, wd, k))
            d_h = sum(h[l] * bell_g[k][l] for l in range(1, k + 1))
            d_atan = sum(atan[l] * bell_w[k][l] for l in range(1, k + 1, 2))
            gd.append(2 * family.n * k * gd[k] + d_h - 2 * k * d_atan)
            wd.append(2 * (k + 1) * gd[k + 1])
    return gd[1:]


def max_rel_diff(got, expect, prec):
    with mpmath.workprec(prec):
        return max(float(abs(a - b) / abs(b)) for a, b in zip(got, expect, strict=True))


class TestPartitionOracle:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_binary64_k30(self, name):
        fam = CATALOG[name]
        got = compute_coefficients(CurvatureProfile(fam), 30).a
        assert max_rel_diff(got, partition_oracle(fam, 30, 53), 53) <= 1e-13

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_256_bits_k40(self, name):
        fam = CATALOG[name]
        got = compute_coefficients(CurvatureProfile(fam), 40, 256).a
        assert max_rel_diff(got, bell_oracle(fam, 40, 256), 256) <= 1e-60

    def test_eq030_literal_first_nine(self, fam1):
        got = compute_coefficients(CurvatureProfile(fam1, EQ030_LITERAL), 9, 256).a
        expect = partition_oracle(fam1, 9, 256, EQ030_LITERAL)
        assert max_rel_diff(got, expect, 256) <= 1e-10

    def test_eq030_literal_256_bits_k40(self, fam1):
        got = compute_coefficients(CurvatureProfile(fam1, EQ030_LITERAL), 40, 256).a
        expect = bell_oracle(fam1, 40, 256, EQ030_LITERAL)
        assert max_rel_diff(got, expect, 256) <= 1e-60

    def test_eq030_literal_default_order(self, fam1):
        fs = compute_coefficients(CurvatureProfile(fam1, EQ030_LITERAL), 40)
        assert all(mpmath.isfinite(v) for v in fs.a)
        assert max(fs.rel_error_estimates) < 1e-6


class TestShadowAudit:
    def test_estimates_are_measured_differences(self, fam1):
        # each estimate is the exact relative difference from the run at
        # 53 + 64 bits, rounded once
        fs = compute_coefficients(CurvatureProfile(fam1), 40)
        shadow = compute_coefficients(CurvatureProfile(fam1), 40, 53 + SHADOW_EXTRA_BITS).a
        assert fs.rel_error_estimates == _exact_rel(fs.a, shadow)
        assert 0 < max(fs.rel_error_estimates) < 1e-12

    def test_binary64_overflow_raises(self, fam1):
        # |A_k| passes the binary64 range near k = 87
        with pytest.raises(PrecisionExhausted) as err:
            compute_coefficients(CurvatureProfile(fam1), 100)
        assert "overflows" in str(err.value)
        assert "precision" in str(err.value)

    def test_deep_order_at_512_bits(self, fam1):
        deep = compute_coefficients(CurvatureProfile(fam1), 150, 512)
        assert all(mpmath.isfinite(v) for v in deep.a)
        assert deep.a[:40] == compute_coefficients(CurvatureProfile(fam1), 40, 512).a


class TestNoPartitionSums:
    def test_partition_cache_stays_empty(self, fam1):
        jets._partition_cache.clear()
        fs = compute_coefficients(CurvatureProfile(fam1), 40)
        compute_epsilon_corrections(fs, 8)
        assert len(jets._partition_cache) == 0
