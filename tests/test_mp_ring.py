"""The series' raw mpmath ring: each libmp operation on ``_mpf_`` tuples
gives the mpf operator's result bit for bit at the working precision."""

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, fzero

from coneshrink import series as series_mod


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
        assert ring.add(x, y) == (X + Y)._mpf_
        assert ring.sub(x, y) == (X - Y)._mpf_
        assert ring.mul(x, y) == (X * Y)._mpf_
        if y != fzero:
            assert ring.div(x, y) == (X / Y)._mpf_
        assert ring.neg(x) == (-X)._mpf_
        assert ring.abs(x) == abs(X)._mpf_
        assert ring.gt(x, y) == (X > Y)
        assert ring.max(x, y) == max(X, Y)._mpf_
        assert ring.to_float(x) == float(X)
        assert ring.mul_int(x, n) == (n * X)._mpf_ == (X * n)._mpf_
        assert ring.add_int(x, n) == (X + n)._mpf_ == (n + X)._mpf_
        assert ring.sub_int(x, n) == (X - n)._mpf_
        if n:
            assert ring.div_int(x, n) == (X / n)._mpf_
        assert ring.sum([x, y, x]) == sum([X, Y, X])._mpf_
        assert ring.value(X) == X._mpf_
        assert ring.value(n) == mpmath.mp.convert(n)._mpf_
        assert ring.value(float(n)) == mpmath.mpf(float(n))._mpf_


@pytest.mark.parametrize("prec", [53, 117, 320, 1024])
def test_products_of_eps_series_are_exact_dots(prec):
    """[eps^j] of a product is the exact sum of x_i y_(j-i), rounded once,
    as mpmath.fdot gives it for exponents this close."""
    with mpmath.workprec(prec):
        ring = series_mod._MpRing(prec)
        xs = [mpmath.mpf(1) / 3, mpmath.mpf(-2) ** 40, mpmath.mpf(0), mpmath.mpf(7) / 5]
        ys = [mpmath.mpf(-5) / 7, mpmath.mpf(3), mpmath.mpf(2) ** -30, mpmath.mpf(11)]
        x_seq, y_seq = ring.seq(v._mpf_ for v in xs), ring.seq(v._mpf_ for v in ys)
        for j in range(4):
            want = mpmath.fdot(xs[:j + 1], ys[j::-1])
            assert ring.conv(x_seq, y_seq, j) == want._mpf_
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
