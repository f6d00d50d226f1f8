"""The series engine's one mpmath dot product: signed integer mantissas
aligned per sequence, multiplied and summed exactly, rounded once."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, from_rational, fzero

from coneshrink import series as series_mod
from coneshrink.catalog import CurvatureProfile, builtin_catalog
from coneshrink.errors import OutOfRange
from coneshrink.numutil import DOUBLE_PREC
from coneshrink.series import (
    SHADOW_EXTRA_BITS,
    FormalSeries,
    TaylorRecursion,
    compute_coefficients,
    compute_epsilon_corrections,
)
from test_epsilon import _OperatorRing, _oracle_corrections, _oracle_self_dot

_MpSequence = series_mod._MpSequence


def _exact_dot(xs, ys, prec):
    """The ring's dot product at ``prec`` bits, as a raw mpmath value."""
    ring = series_mod._MpRing(prec)
    return ring.out(ring.dot(xs, ys))._mpf_


def _sequence(values):
    """An :class:`_MpSequence` of the ring values of ``values``, each exact."""
    return _MpSequence(map(series_mod._MpRing(DOUBLE_PREC).value, values))


def _exact_value(x):
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def _exact_rel(a, shadow):
    """|a_k - shadow_k| / |shadow_k| of floats or mpf objects: each exact
    quotient rounded once to a float."""
    def exact(x):
        return _exact_value(x) if isinstance(x, mpmath.mpf) else Fraction(x)

    return tuple(float(abs(exact(v) - exact(ref)) / abs(exact(ref)))
                 for v, ref in zip(a, shadow, strict=True))


def _rounded(fraction, prec):
    """``fraction`` rounded once to ``prec`` bits, to nearest."""
    return from_rational(fraction.numerator, fraction.denominator, prec, "n")


@st.composite
def _operands(draw):
    """Two equally long lists of mpmath floats at ``prec`` bits whose nonzero
    products have exponents within ``spread`` < 2 prec of each other: each
    x exponent in [base, base + spread // 2], each y exponent in
    [0, spread - spread // 2], mantissas odd, so normalization keeps them."""
    prec = draw(st.integers(53, 1024))
    n = draw(st.integers(0, 60))
    spread = draw(st.integers(0, 2 * prec - 1))
    base = draw(st.integers(-3000, 3000))

    def values(lo, hi):
        entry = st.one_of(
            st.just(0),
            st.tuples(st.booleans(), st.integers(0, 2 ** (prec - 1) - 1), st.integers(lo, hi)),
        )
        out = []
        for item in draw(st.lists(entry, min_size=n, max_size=n)):
            if item == 0:
                out.append(mpmath.mpf(0))
                continue
            negative, half, exp = item
            man = 2 * half + 1
            out.append(mpmath.mp.make_mpf(from_man_exp(-man if negative else man, exp)))
        return out

    return prec, values(base, base + spread // 2), values(0, spread - spread // 2)


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_kernel_is_fdot_bit_for_bit(case):
    """Below an exponent spread of 2 prec, mpmath.fdot sums exactly, and the
    kernel gives its result bit for bit: over whole sequences and over the
    reversed slices the engine takes; both are the exact sum rounded once."""
    prec, xs, ys = case
    with mpmath.workprec(prec):
        want = mpmath.fdot(xs, ys)
        got = _exact_dot(_sequence(xs), _sequence(ys), prec)
        assert got == want._mpf_
        got_rev = _exact_dot(_sequence(xs)[:], _sequence(ys)[::-1], prec)
        assert got_rev == mpmath.fdot(xs, ys[::-1])._mpf_
    exact = sum((_exact_value(x) * _exact_value(y) for x, y in zip(xs, ys)), Fraction(0))
    assert got == _rounded(exact, prec)


def test_beyond_twice_the_precision_the_kernel_rounds_the_exact_sum():
    """Exponents 200 apart at 53 bits: fdot's summation replaces the partial
    sum 2^-200 by the term 1 and returns 0 in this order (the exact value in
    the reverse order); the kernel returns the exact sum 2^-200 in both."""
    with mpmath.workprec(53):
        xs = [mpmath.mpf(2) ** -200, mpmath.mpf(1), mpmath.mpf(-1)]
        ones = [mpmath.mpf(1)] * 3
        exact = sum((_exact_value(x) for x in xs), Fraction(0))
        assert exact == Fraction(1, 2 ** 200)
        assert mpmath.fdot(xs, ones) == 0
        assert mpmath.fdot(xs[::-1], ones) == mpmath.mpf(2) ** -200
        for order in (xs, xs[::-1]):
            got = _exact_dot(_sequence(order), _sequence(ones), 53)
            assert got == _rounded(exact, 53)


def test_alignment_follows_the_least_exponent():
    """Appending an item below the shared exponent shifts the earlier
    mantissas to it; every item stays exactly man * 2^exp."""
    values = [0, 3, -0.25, 2 ** 40]
    seq = _sequence(values)
    assert seq.exp == -2
    assert seq.man == [0, 12, -1, 2 ** 42]
    assert [seq[i] for i in range(4)] == [(0, 0), (3, 0), (-1, -2), (1, 40)]
    assert _sequence([0, 0]).exp is None
    assert _exact_dot(_sequence([0, 0]), seq[:2], 53) == fzero


def test_non_finite_items_are_refused():
    with pytest.raises(OutOfRange, match="non-finite"):
        _sequence([1, mpmath.inf])


_fdot_calls = []


def _fdot(xs, ys):
    _fdot_calls.append(1)
    return mpmath.fdot(xs, ys)


class _FdotRing(_OperatorRing):
    """Python's operators on mpf objects, each dot mpmath.fdot over lists."""

    dot = staticmethod(_fdot)


def _fdot_run(curvature, K, bits):
    """A_1..A_K from an mpf-operator run of :class:`TaylorRecursion` in
    :class:`_FdotRing` at ``bits`` bits."""
    ring = _FdotRing(bits)
    with mpmath.workprec(bits):
        engine = TaylorRecursion(curvature, ring)
        t, fact, out = engine.t0, ring.value(1), []
        for k in range(1, K + 1):
            a_k = t / k
            fact = fact * k
            out.append(fact * a_k)
            if k < K:
                t = engine.push(a_k)
    return out


def _fdot_series(curvature, K, prec):
    """A_1..A_K of the run at ``prec`` bits and their rel_error_estimates
    against the run at ``prec + SHADOW_EXTRA_BITS``, both in :class:`_FdotRing`."""
    a = _fdot_run(curvature, K, prec)
    rel = _exact_rel(a, _fdot_run(curvature, K, prec + SHADOW_EXTRA_BITS))
    return FormalSeries(curvature=curvature, precision_bits=prec, a=tuple(a),
                        rel_error_estimates=rel)


def _bits(x):
    return x._mpf_ if isinstance(x, mpmath.mpf) else float(x).hex()


def _record(fs, corr):
    B, slopes, snap, gamma_eps = corr
    return {
        "A": [_bits(v) for v in fs.a],
        "rel_error_estimates": [_bits(v) for v in fs.rel_error_estimates],
        "B": [_bits(v) for v in B],
        "slopes": [_bits(v) for v in slopes],
        "max_snap_residual": _bits(snap),
        "gamma_eps": [[_bits(v) for v in coeffs] for coeffs in gamma_eps],
    }


@pytest.mark.parametrize("prec", [117, 256])
@pytest.mark.parametrize("mode", ["cot_sum", "eq030_literal"])
def test_engine_matches_an_fdot_run(prec, mode, monkeypatch):
    """The series and its corrections, the shadow run's error estimates
    included, are bit-equal to mpf-operator runs: the series from a Taylor
    engine whose dots are mpmath.fdot over lists of mpmath floats, each
    estimate the exact quotient of that run's A_k and the one at
    prec + 64 bits rounded once, the corrections from the fixed-degree eps
    ring of tests/test_epsilon.py, whose products are mpmath.fdot (each
    gamma^(k)(0; eps) a prefix of its fixed-degree one)."""
    catalog = builtin_catalog()
    for name in ("g1_sphere_n2", "g3_m1", "g6_m2"):
        curvature = CurvatureProfile(catalog[name], mode)
        fs = compute_coefficients(curvature, 24, prec)
        corr = compute_epsilon_corrections(fs, 8)
        _fdot_calls.clear()
        oracle = _fdot_series(curvature, 24, prec)
        assert _fdot_calls, name
        with monkeypatch.context() as mp:
            mp.setattr(series_mod, "_self_dot", _oracle_self_dot)
            B, slopes, snap, polys = _oracle_corrections(oracle, 8)
        want = _record(oracle, (B, slopes, snap, [p.coeffs[:got.degree + 1]
                                                  for p, got in zip(polys, corr.gamma_eps)]))
        got = _record(fs, (corr.B, corr.slopes, corr.max_snap_residual,
                           [p.coeffs for p in corr.gamma_eps]))
        assert got == want, name
        assert 0 < max(fs.rel_error_estimates) < 1e-12, name
