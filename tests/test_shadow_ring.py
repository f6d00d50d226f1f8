"""The shadow run's integer ring: accurate to prec + 64 bits, not correctly
rounded, and measuring the same precision loss as a correctly rounded run."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import fzero

from coneshrink import series as series_mod
from coneshrink.catalog import PROFILE_MODES, CurvatureProfile, builtin_catalog
from coneshrink.errors import PrecisionExhausted
from coneshrink.series import SHADOW_EXTRA_BITS, compute_coefficients
from test_catalog import admissible_family


class _RoundedShadow(series_mod._MpRing):
    """The shadow as a correctly rounded run: libmp at prec + 64 bits, the
    difference and the quotient rounded there, then to a float."""

    def rel_diff(self, x, ref):
        diff = self.abs(self.sub(self.value(x), ref))
        if ref == fzero:
            return 0.0 if diff == fzero else math.inf
        return self.to_float(self.div(diff, self.abs(ref)))


@given(admissible_family(), st.sampled_from(PROFILE_MODES), st.sampled_from((53, 117, 256)))
def test_shadow_values_are_within_16_bits_of_a_rounded_run(fam, mode, prec):
    """Every A_k of the shadow ring is within 2^(16 - (prec + 64)) relative
    of the libmp run at prec + 64 bits, whose operations round to nearest."""
    bits = prec + SHADOW_EXTRA_BITS
    profile = CurvatureProfile(fam, mode)
    got = series_mod._taylor_coefficients(profile, 24, series_mod._ShadowRing(bits))
    want = series_mod._taylor_coefficients(profile, 24, series_mod._MpRing(bits))
    with mpmath.workprec(bits + 16):
        for k, ((man, exp), ref) in enumerate(zip(got, want, strict=True), start=1):
            ref = mpmath.mp.make_mpf(ref)
            assert abs(mpmath.ldexp(man, exp) - ref) <= 2.0 ** (16 - bits) * abs(ref), k


def test_estimates_are_exact_quotients_rounded_once():
    """rel_diff is |x - ref| / |ref| of the exact values, rounded once."""
    ring = series_mod._ShadowRing(117)
    ref = ring.div_int(ring.value(1), 3)
    exact = Fraction(ref[0]) * Fraction(2) ** ref[1]
    for x in (1 / 3, mpmath.mpf(1) / 3, 0.0):
        man, exp = mpmath.mpf(x).man_exp
        value = Fraction(man) * Fraction(2) ** exp if man else Fraction(0)
        assert ring.rel_diff(x, ref) == float(abs(value - exact) / exact)
    assert ring.rel_diff(0.0, ring.zero) == 0.0
    assert ring.rel_diff(1.0, ring.zero) == math.inf


@pytest.mark.parametrize("name, prec, limit", [
    ("g1_sphere_n2", 53, 1e-18),
    ("g6_m2", 53, 2e-15),
    ("g3_m1", 117, 3e-35),
    ("g6_m2", 256, 1e-76),
])
def test_precision_exhausted_fires_as_with_a_rounded_shadow(name, prec, limit, monkeypatch):
    """With REL_ERROR_LIMIT lowered, PrecisionExhausted fires at the same
    coefficient, with the same message, as it does with the correctly
    rounded shadow run."""
    profile = CurvatureProfile(builtin_catalog()[name])
    monkeypatch.setattr(series_mod, "REL_ERROR_LIMIT", limit)
    with pytest.raises(PrecisionExhausted) as got:
        compute_coefficients(profile, 40, prec)
    monkeypatch.setattr(series_mod, "_ShadowRing", _RoundedShadow)
    with pytest.raises(PrecisionExhausted) as want:
        compute_coefficients(profile, 40, prec)
    assert got.value.order == want.value.order
    assert str(got.value) == str(want.value)
    assert got.value.rel_error == pytest.approx(want.value.rel_error, rel=1e-9)
