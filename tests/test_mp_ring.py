"""The series' arbitrary-precision ring: integer mantissas with an exponent,
each result formed exactly and rounded once to nearest with ties to even,
which is the mpf operator's result bit for bit at the working precision.
The shadow run is the same ring at prec + 64 bits."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, fzero

from coneshrink import series as series_mod
from coneshrink.catalog import CurvatureProfile, builtin_catalog
from coneshrink.errors import OutOfRange, PrecisionExhausted
from coneshrink.series import SHADOW_EXTRA_BITS, compute_coefficients
from test_exact_dot import _exact_rel, _fdot_run


def _mpf_of(ring, v):
    """The raw mpmath value of the ring value ``v``."""
    return ring.out(v)._mpf_


@st.composite
def _raw(draw, prec, base):
    """Zero, or a value of either sign whose mantissa has up to 2 prec bits
    (so inputs of a higher precision are rounded as the operators round
    them) and whose exponent lies within 4000 of ``base``."""
    if draw(st.integers(0, 7)) == 0:
        return fzero
    man = draw(st.integers(1, 2 ** draw(st.integers(1, 2 * prec)) - 1))
    negative = draw(st.booleans())
    exp = base + draw(st.integers(-4000, 4000))
    return from_man_exp(-man if negative else man, exp)


@st.composite
def _case(draw):
    prec = draw(st.integers(53, 1024))
    # the exponents of the two operands are up to 8000 apart, or close
    spread = draw(st.sampled_from((0, 4000)))
    x = draw(_raw(prec, 0))
    y = draw(_raw(prec, spread))
    n = draw(st.one_of(st.integers(-300, 300), st.integers(-2 ** 200, 2 ** 200)))
    return prec, x, y, n


@settings(max_examples=500, deadline=None)
@given(_case())
def test_raw_ops_equal_the_mpf_operators(case):
    prec, x, y, n = case
    with mpmath.workprec(prec):
        ring = series_mod._MpRing(prec)
        X, Y = mpmath.mp.make_mpf(x), mpmath.mp.make_mpf(y)
        x, y = ring.value(X), ring.value(Y)
        assert _mpf_of(ring, ring.add(x, y)) == (X + Y)._mpf_
        assert _mpf_of(ring, ring.sub(x, y)) == (X - Y)._mpf_
        assert _mpf_of(ring, ring.mul(x, y)) == (X * Y)._mpf_
        if Y != 0:
            assert _mpf_of(ring, ring.div(x, y)) == (X / Y)._mpf_
        assert _mpf_of(ring, ring.neg(x)) == (-X)._mpf_
        assert _mpf_of(ring, ring.abs(x)) == abs(X)._mpf_
        assert ring.gt(x, y) == (X > Y)
        assert _mpf_of(ring, ring.max(x, y)) == max(X, Y)._mpf_
        assert ring.to_float(x) == float(X)
        assert _mpf_of(ring, ring.mul_int(x, n)) == (n * X)._mpf_ == (X * n)._mpf_
        assert _mpf_of(ring, ring.add_int(x, n)) == (X + n)._mpf_ == (n + X)._mpf_
        assert _mpf_of(ring, ring.sub_int(x, n)) == (X - n)._mpf_
        if n:
            assert _mpf_of(ring, ring.div_int(x, n)) == (X / n)._mpf_
        assert _mpf_of(ring, ring.sum([x, y, x])) == sum([X, Y, X])._mpf_
        assert _mpf_of(ring, x) == X._mpf_
        assert _mpf_of(ring, ring.value(n)) == mpmath.mp.convert(n)._mpf_
        assert _mpf_of(ring, ring.value(float(n))) == mpmath.mpf(float(n))._mpf_


def _exact(v):
    return Fraction(v[0]) * Fraction(2) ** v[1]


def _is_tie(value, prec):
    """Whether ``value`` lies halfway between two neighbours at ``prec`` bits."""
    v = abs(value)
    e = v.numerator.bit_length() - v.denominator.bit_length()
    if v >= Fraction(2) ** e:
        e += 1      # 2^(e - 1) <= v < 2^e
    return (v * Fraction(2) ** (prec - e)).denominator == 2


# kept parts of prec bits, odd and even; a cut at one bit below each is a tie
def _kept(prec):
    return 2 ** (prec - 1) + 1, 2 ** (prec - 1) + 2


@pytest.mark.parametrize("prec", [53, 117])
def test_exact_ties_round_to_even(prec):
    """Random operands almost never land on a tie: at prec + 1 bits whose
    last is set, add, mul_int and dot round to the even neighbour, with
    either sign and with an odd and an even kept part, as mpmath does."""
    ring = series_mod._MpRing(prec)
    with mpmath.workprec(prec):
        for kept in _kept(prec):
            for sign in (1, -1):
                # add: 2 kept + 1
                x, y = ring.value(sign * 2 * kept), ring.value(sign)
                assert _is_tie(_exact(x) + _exact(y), prec)
                want = ring.out(x) + ring.out(y)
                assert _mpf_of(ring, ring.add(x, y)) == want._mpf_
                assert ring.out(ring.add(x, y)) == sign * 2 * (kept + kept % 2)
                # dot: 2 kept * 1 + 1 * 1
                xs, ys = ring.seq([x, y]), ring.seq([ring.value(1), ring.value(1)])
                got = ring.dot(xs, ys)
                assert _mpf_of(ring, got) == mpmath.fdot([ring.out(x), ring.out(y)], [1, 1])._mpf_
                assert _mpf_of(ring, got) == want._mpf_
            # mul_int: 3 m, m odd and below 2^(prec + 1) / 3, is prec + 1
            # bits whose last is set; its kept part (3 m - 1) / 2 has the
            # parity of kept
            m = 2 * kept - 2 ** (prec - 1) - 1
            assert (3 * m - 1) // 2 % 2 == kept % 2
            for n in (3, -3):
                x = ring.value(m)
                assert _is_tie(_exact(x) * n, prec)
                assert _mpf_of(ring, ring.mul_int(x, n)) == (n * ring.out(x))._mpf_


@pytest.mark.parametrize("prec", [53, 117])
def test_a_sticky_bit_above_a_tie_rounds_away(prec):
    """(2 kept + 1) + 1 / n, kept even and n = 10^6 + 3: the excess over the
    tie lies below every bit of a quotient to prec + 2 bits, so only the
    remainder's sticky bit sends it up, where the truncated quotient alone
    reads a tie and keeps the even part."""
    ring = series_mod._MpRing(prec)
    kept, n = _kept(prec)[1], 10 ** 6 + 3
    with mpmath.workprec(prec):
        for sign in (1, -1):
            x = ring.value(sign * ((2 * kept + 1) * n + 1))
            got = ring.div_int(x, n)
            assert _mpf_of(ring, got) == (ring.out(x) / n)._mpf_
            assert ring.out(got) == sign * 2 * (kept + 1)


@pytest.mark.parametrize("prec", [53, 117])
def test_rounding_up_carries_to_the_next_power_of_two(prec):
    """prec + 1 ones round up to 2^(prec + 1), through add, mul_int and
    div_int, as mpmath does."""
    ring = series_mod._MpRing(prec)
    ones = 2 ** (prec + 1) - 1
    with mpmath.workprec(prec):
        x, y = ring.value(ones - 1), ring.value(1)
        third = ring.value(3 * ones)
        for got, want in ((ring.add(x, y), ring.out(x) + 1),
                          (ring.mul_int(ring.value(ones), 1), mpmath.mpf(ones)),
                          (ring.div_int(third, 3), ring.out(third) / 3)):
            assert _mpf_of(ring, got) == want._mpf_
            assert ring.out(got) == 2 ** (prec + 1)


@pytest.mark.parametrize("prec", [117, 256])
@pytest.mark.parametrize("x", [mpmath.inf, -mpmath.inf, mpmath.nan, math.inf])
def test_non_finite_values_are_refused(prec, x):
    with pytest.raises(OutOfRange, match="non-finite value"):
        series_mod._MpRing(prec).value(x)


@pytest.mark.parametrize("prec", [53, 117, 320, 1024])
def test_products_of_eps_series_are_exact_dots(prec):
    """[eps^j] of a product is the exact sum of x_i y_(j-i), rounded once,
    as mpmath.fdot gives it for exponents this close."""
    with mpmath.workprec(prec):
        ring = series_mod._MpRing(prec)
        xs = [mpmath.mpf(1) / 3, mpmath.mpf(-2) ** 40, mpmath.mpf(0), mpmath.mpf(7) / 5]
        ys = [mpmath.mpf(-5) / 7, mpmath.mpf(3), mpmath.mpf(2) ** -30, mpmath.mpf(11)]
        x_seq, y_seq = ring.seq(map(ring.value, xs)), ring.seq(map(ring.value, ys))
        for j in range(4):
            want = mpmath.fdot(xs[:j + 1], ys[j::-1])
            assert _mpf_of(ring, ring.conv(x_seq, y_seq, j)) == want._mpf_
        with pytest.raises(IndexError):
            ring.conv(x_seq, y_seq, 4)


def test_operations_read_the_ring_precision_not_the_global_one():
    """A 256-bit ring gives the same values, cot seeds, dot products and eps
    products whatever mpmath's global precision is when it is used."""
    ring = series_mod._MpRing(256)

    def results():
        third, t1 = ring.div_int(ring.value(1), 3), ring.value(0.7853981633974483)
        xs = ring.seq([third, ring.value(-2.5), ring.mul(third, third)])
        ys = ring.seq([ring.value(7), third, ring.value(2.0 ** -40)])
        return (ring.value(0.1), ring.value(3), ring.cot(ring.mul_int(t1, 3)),
                ring.dot(xs[:], ys[::-1]), [ring.conv(xs, ys, j) for j in range(3)])

    with mpmath.workprec(256):
        want = results()
    with mpmath.workprec(30):
        assert results() == want


def test_estimates_are_exact_quotients_rounded_once():
    """rel_diff is |x - ref| / |ref| of the exact values, rounded once."""
    ring = series_mod._MpRing(117)
    ref = ring.div_int(ring.value(1), 3)
    for x in (1 / 3, mpmath.mpf(1) / 3, 0.0):
        exact = abs(_exact(ring.value(x)) - _exact(ref)) / _exact(ref)
        assert ring.rel_diff(x, ref) == float(exact)
    assert ring.rel_diff(0.0, ring.value(0)) == 0.0
    assert ring.rel_diff(1.0, ring.value(0)) == math.inf


@pytest.mark.parametrize("name, prec, limit", [
    ("g1_sphere_n2", 53, 1e-18),
    ("g6_m2", 53, 2e-15),
    ("g3_m1", 117, 3e-35),
    ("g6_m2", 256, 1e-76),
])
def test_precision_exhausted_fires_as_with_a_rounded_shadow(name, prec, limit, monkeypatch):
    """With REL_ERROR_LIMIT lowered, PrecisionExhausted fires at the first
    coefficient whose exact relative difference from the mpf-operator run
    at prec + 64 bits, rounded once, crosses it, with that difference and
    the message that names both precisions."""
    profile = CurvatureProfile(builtin_catalog()[name])
    monkeypatch.setattr(series_mod, "REL_ERROR_LIMIT", limit)
    with pytest.raises(PrecisionExhausted) as got:
        compute_coefficients(profile, 40, prec)
    if prec == 53:
        a = series_mod._taylor_coefficients(profile, 40, series_mod._FloatRing())
    else:
        a = _fdot_run(profile, 40, prec)
    rel = _exact_rel(a, _fdot_run(profile, 40, prec + SHADOW_EXTRA_BITS))
    k = next(k for k, e in enumerate(rel, start=1) if e > limit)
    want = PrecisionExhausted(k, rel[k - 1], f"raise the working precision above {prec} "
                                             f"bits (measured against a {prec + 64}-bit run)")
    assert (got.value.order, got.value.rel_error) == (k, rel[k - 1])
    assert str(got.value) == str(want)
