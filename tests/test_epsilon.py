import math
import re
import sys
from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneshrink import series as series_mod
from coneshrink.catalog import CurvatureProfile, builtin_catalog
from coneshrink.errors import (
    ConeShrinkError,
    DivisionByEpsilonFailed,
    NonlinearDependence,
    OutOfRange,
)
from coneshrink.numutil import DOUBLE_PREC, machine_eps, to_real
from coneshrink.series import (
    EpsilonPolynomial,
    TaylorRecursion,
    compute_coefficients,
    compute_epsilon_corrections,
)


_FLOATS = series_mod._FloatRing()


class _OperatorRing(series_mod._FloatRing):
    """Python's operators on any numbers, which enter as they are: the
    ring of the oracles, whose values are floats, mpf objects or
    fixed-degree eps polynomials.  Above 53 bits a number enters as an mpf
    object, and the oracle runs inside that precision's mpmath.workprec."""

    value = staticmethod(lambda x: x)

    def __init__(self, prec=DOUBLE_PREC):
        if prec > DOUBLE_PREC:
            self.value, self.cot = mpmath.mpf, mpmath.cot


_OPERATORS = _OperatorRing()


def push_derivatives(engine, derivs):
    """Push a_j = derivs[j-1] / j! into the Taylor ``engine`` for the orders
    j not yet pushed, up to k = len(derivs), and return k! T_k: the
    derivative form
    2nk gamma^(k)(0) + (d/ds)^k{H(gamma) - 2k arctan(2 s gamma')}(0)."""
    fact = math.factorial(len(engine.ja) - 1)
    t = None
    for j in range(len(engine.ja), len(derivs) + 1):
        fact *= j
        t = engine.push(derivs[j - 1] / fact)
    return t * fact


def _leaf(coeffs):
    """An eps series as the engine holds it: the list of its known
    coefficients."""
    return list(coeffs)


def _add(x, y, j):
    return _FLOATS.add(x[j], y[j])


def _sub(x, y, j):
    return _FLOATS.sub(x[j], y[j])


_OPS = (_add, _sub, _FLOATS.conv)


def _prefix(op, x, y, n):
    """The bits of the first n coefficients of ``op`` on the series x, y."""
    return [_bits(op(x, y, j)) for j in range(n)]


def _bits_of(values):
    return [_bits(v) for v in values]


class TestEpsilonPolynomial:
    """The eps series of the engine, coefficient lists with the ring's
    coefficientwise sums and :meth:`conv` products, and the
    :class:`EpsilonPolynomial` prefixes handed out."""

    def test_ring_ops_close_at_degree(self):
        a = _leaf((1.0, 2.0, 3.0))
        b = _leaf((0.5, -1.0, 4.0))
        assert _prefix(_add, a, b, 3) == _bits_of((1.5, 1.0, 7.0))
        assert _prefix(_sub, a, b, 3) == _bits_of((0.5, 3.0, -1.0))
        assert _prefix(_FLOATS.conv, a, b, 3) == _bits_of((0.5, 0.0, 3.5))
        with pytest.raises(IndexError):  # known through degree 2 only
            _FLOATS.conv(a, b, 3)

    def test_scalar_ops(self):
        a = _leaf((1.0, 2.0))
        assert [_bits(_FLOATS.mul_int(x, 3)) for x in a] == _bits_of((3.0, 6.0))
        assert [_bits(_FLOATS.add(a[0], 1.5)), _bits(a[1])] == _bits_of((2.5, 2.0))
        assert [_bits(_FLOATS.div_int(x, 2)) for x in a] == _bits_of((0.5, 1.0))

    def test_degree_mismatch(self):
        """Mixed degrees are known only through the lower one: the result is
        the equal-degree operation truncated there."""
        a = _leaf((1.0, 2.0))
        b = _leaf((0.5, -1.0, 4.0))
        b1 = _leaf(b[:2])
        for op in _OPS:
            with pytest.raises(IndexError):
                op(a, b, 2)
            assert _prefix(op, a, b, 2) == _prefix(op, a, b1, 2)
            assert _prefix(op, b, a, 2) == _prefix(op, b1, a, 2)
        assert _prefix(_FLOATS.conv, a, b, 2) == _bits_of((0.5, 0.0))
        assert _prefix(_add, b, a, 2) == _bits_of((1.5, 1.0))

    def test_no_order_left(self):
        with pytest.raises(OutOfRange):
            EpsilonPolynomial(())

    def test_divide_by_epsilon_requires_vanishing_constant(self):
        with pytest.raises(DivisionByEpsilonFailed):
            series_mod._require_vanishing(_FLOATS, 1e-3, 1e-9)

    def test_evaluation(self):
        p = EpsilonPolynomial((1.0, 2.0, 3.0))
        assert p(0.1) == pytest.approx(1.0 + 0.2 + 0.03)


_coefficient = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_coefficient, min_size=1, max_size=8),
       st.lists(_coefficient, min_size=1, max_size=8))
def test_mixed_degrees_truncate(xs, ys):
    """Sum, difference and product of mixed-degree eps series equal the
    full-degree operations truncated at the lower degree, coefficient for
    coefficient, and know no order beyond it."""
    a, b = _leaf(xs), _leaf(ys)
    n = min(len(xs), len(ys))
    pad = max(len(xs), len(ys))
    a_full = _leaf(xs + [0.0] * (pad - len(xs)))
    b_full = _leaf(ys + [0.0] * (pad - len(ys)))
    for op in _OPS:
        assert _prefix(op, a, b, n) == _prefix(op, a_full, b_full, n)
        with pytest.raises(IndexError):
            op(a, b, n)


class TestCorrections:
    def test_b0_b1(self, series1):
        corr = compute_epsilon_corrections(series1, 4)
        assert float(corr.B[0]) == float(series1.coefficient(1))  # H(0)
        assert float(corr.B[1]) == -float(series1.coefficient(2))
        assert float(corr.B[1]) == pytest.approx(2.0, abs=1e-13)

    def test_constant_terms_match_exactly(self, series1):
        n = 8
        corr = compute_epsilon_corrections(series1, n)
        for k in range(1, n + 2):
            assert float(corr.gamma_eps[k - 1].const) == float(series1.coefficient(k))

    def test_affine_slopes_alternate(self, series1):
        corr = compute_epsilon_corrections(series1, 6)
        for i, slope in enumerate(corr.slopes):
            m = i + 2
            assert slope == pytest.approx((-1.0) ** m, abs=1e-9)

    def test_second_family(self, series2):
        corr = compute_epsilon_corrections(series2, 6)
        assert float(corr.B[0]) == pytest.approx(2 / math.sqrt(3), rel=1e-14)
        for k in range(1, 8):
            assert float(corr.gamma_eps[k - 1].const) == float(series2.coefficient(k))

    def test_perturbation_structure(self, series1):
        """Shifting B_j by delta moves the eps^1 coefficient of
        gamma^(j)(0; eps) by (-1)^(j-1) delta and leaves the eps^0
        coefficients through order j untouched."""
        n = 6
        base = compute_epsilon_corrections(series1, n)
        prof = series1.curvature
        delta = 0.125

        def run(b_vals, upto, degree):
            g1 = _FixedDegreePolynomial(tuple(b_vals)
                                        + (0.0,) * (degree + 1 - len(b_vals)))
            g2_coeffs = tuple(-b for b in (list(b_vals[1:]) + [0.0] * (degree + 2)))
            polys = [None, g1, _FixedDegreePolynomial(g2_coeffs[: degree + 1])]
            engine = TaylorRecursion(prof, _OPERATORS)
            for k in range(1, upto - 1):
                rhs = push_derivatives(engine, polys[1: k + 1])
                num = rhs - polys[k + 1]
                # perturbed runs have nonvanishing constants downstream of j:
                # drop them explicitly to keep shifting
                polys.append(_FixedDegreePolynomial(num.coeffs[1:] + (0.0,)))
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
            shift = float(pert[j].coeffs[1] - ref[j].coeffs[1])
            assert shift == pytest.approx((-1.0) ** (j - 1) * delta, rel=1e-9)

    def test_inconsistent_series_detected(self, series1):
        bad_a = list(series1.a)
        bad_a[2] = bad_a[2] + 0.5  # corrupt A_3
        bad = replace(series1, a=tuple(bad_a))
        with pytest.raises(DivisionByEpsilonFailed):
            compute_epsilon_corrections(bad, 6)

    def test_initial_slope_and_curvature(self, series1):
        corr = compute_epsilon_corrections(series1, 4)
        eps = 1e-3
        b_direct = sum(float(b) * eps ** i for i, b in enumerate(corr.B))
        assert float(corr.initial_slope(eps)) == pytest.approx(b_direct, rel=1e-14)
        c_direct = -sum(float(b) * eps ** (i - 1)
                        for i, b in enumerate(corr.B) if i >= 1)
        assert float(-EpsilonPolynomial(corr.B[1:])(eps)) == pytest.approx(c_direct, rel=1e-13)


# ---------------------------------------------------------------------------
# Oracle: the fixed-degree ring, which pads with zeros
# ---------------------------------------------------------------------------

def _oracle_dot(xs, ys):
    return sum(map(lambda x, y: x * y, xs, ys))


class _FixedDegreePolynomial:
    """sum_i c_i eps^i at a fixed degree: products truncate at it and the
    division by eps appends a zero."""

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def const(self):
        return self.coeffs[0]

    def with_constant(self, value):
        return _FixedDegreePolynomial((value,) + self.coeffs[1:])

    def _zip(self, other, op):
        if isinstance(other, _FixedDegreePolynomial):
            assert other.degree == self.degree
            return _FixedDegreePolynomial(tuple(op(a, b) for a, b in zip(self.coeffs, other.coeffs)))
        return _FixedDegreePolynomial((op(self.coeffs[0], other),) + self.coeffs[1:])

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _FixedDegreePolynomial(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, _FixedDegreePolynomial):
            assert other.degree == self.degree
            a, b = self.coeffs, other.coeffs
            dot = mpmath.fdot if isinstance(a[0], mpmath.mpf) else _oracle_dot
            return _FixedDegreePolynomial(tuple(dot(a[:k + 1], b[k::-1])
                                                for k in range(self.degree + 1)))
        return _FixedDegreePolynomial(tuple(other * a for a in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return _FixedDegreePolynomial(tuple(a / scalar for a in self.coeffs))

    def divide_by_epsilon(self, tol_abs=0.0):
        c0 = self.coeffs[0]
        if abs(float(c0)) > tol_abs:
            raise DivisionByEpsilonFailed(f"constant term {float(c0):.6e}")
        return _FixedDegreePolynomial(self.coeffs[1:] + (0 * c0,))

    def abs_floats(self):
        return tuple(abs(float(c)) for c in self.coeffs)


def _oracle_self_dot(ring, c, m):
    """The engine's square coefficient with the seed c_0 on the left."""
    half = (m + 1) // 2
    acc = 2 * ring.dot(c[:half], c[m:m - half:-1])
    if m % 2 == 0:
        acc = acc + c[half] * c[half]
    return acc


def _oracle_corrections(series, N):
    """B, slopes, max snap residual and the gamma^(k)(0; eps) of the
    fixed-degree ring, every run at degree N + 1."""
    profile, prec = series.curvature, series.precision_bits
    ring = _OperatorRing(prec)
    degree = N + 1
    eps_m = machine_eps(prec)
    with mpmath.workprec(prec):
        a = [None] + [series.coefficient(k) for k in range(1, series.K + 1)]
        zero = 0 * a[1]

        def run_stages(b_vals, upto, snap_until):
            b_full = list(b_vals) + [zero] * (degree + 2 - len(b_vals))
            polys = [None, _FixedDegreePolynomial(b_full[:degree + 1]),
                     _FixedDegreePolynomial(-b_full[j + 1] for j in range(degree + 1))]
            worst = 0.0

            def snap(k):
                resid = abs(float(polys[k].const - a[k]))
                if resid > 64 * math.sqrt(eps_m) * max(abs(float(a[k])), 1.0):
                    raise DivisionByEpsilonFailed(f"derivative {k} off by {resid:.3e}")
                polys[k] = polys[k].with_constant(a[k])
                return resid

            worst = max(worst, snap(1))
            if snap_until >= 2:
                worst = max(worst, snap(2))
            engine = TaylorRecursion(profile, ring)
            for k in range(1, max(upto - 1, 0)):
                numer = push_derivatives(engine, polys[1:k + 1]) - polys[k + 1]
                tol_scale = max(max(numer.abs_floats()), 1.0)
                polys.append(numer.divide_by_epsilon(64 * math.sqrt(eps_m) * tol_scale))
                if k + 2 <= snap_until:
                    worst = max(worst, snap(k + 2))
            return polys, worst

        b = [a[1], -a[2]]
        slopes = []
        worst_snap = 0.0
        for m in range(2, N + 1):
            consts = []
            for t in (0.0, 1.0, 2.0):
                polys, w = run_stages(b + [to_real(t, prec)], upto=m + 1, snap_until=m)
                worst_snap = max(worst_snap, w)
                consts.append(polys[m + 1].const)
            slope_ring = consts[1] - consts[0]
            slope = float(slope_ring)
            curvature = float(consts[2] - 2 * consts[1] + consts[0])
            scale = max(1.0, *(abs(float(cv)) for cv in consts))
            if abs(curvature) > 1e-6 * scale:
                raise NonlinearDependence(f"second difference at order {m}")
            if abs(slope - (-1.0) ** m) > 1e-6:
                raise NonlinearDependence(f"slope {slope} at order {m}")
            slopes.append(slope)
            b.append((a[m + 1] - consts[0]) / slope_ring)
        polys, w = run_stages(b, upto=N + 1, snap_until=N + 1)
        worst_snap = max(worst_snap, w)
    return tuple(b), tuple(slopes), worst_snap, polys[1:N + 2]


def _bits(x):
    """The exact value with its sign of zero: mpf tuples, float hex."""
    return x._mpf_ if isinstance(x, mpmath.mpf) else float(x).hex()


@pytest.mark.parametrize("prec", [256, 53])
def test_truncated_ring_matches_fixed_degree_oracle(prec, monkeypatch):
    """Over all built-ins at N = 8 the order-tracking run gives bit-equal B,
    slopes and snap residuals, and every gamma^(k)(0; eps) is an exact
    prefix of the fixed-degree one; where the oracle raises, so does it."""
    N = 8
    for name, fam in builtin_catalog().items():
        fs = compute_coefficients(CurvatureProfile(fam), N + 2, prec)
        try:
            with monkeypatch.context() as mp:
                mp.setattr(series_mod, "_self_dot", _oracle_self_dot)
                oracle = _oracle_corrections(fs, N)
        except ConeShrinkError as exc:
            assert prec == 53, name
            with pytest.raises(type(exc)):
                compute_epsilon_corrections(fs, N)
            continue
        corr = compute_epsilon_corrections(fs, N)
        b, slopes, worst, polys = oracle
        assert [_bits(x) for x in corr.B] == [_bits(x) for x in b], name
        assert [_bits(x) for x in corr.slopes] == [_bits(x) for x in slopes], name
        assert _bits(corr.max_snap_residual) == _bits(worst), name
        assert len(corr.gamma_eps) == len(polys) == N + 1
        for k, (got, ref) in enumerate(zip(corr.gamma_eps, polys), start=1):
            assert got.degree == (N + 1 if k <= 2 else N + 3 - k), (name, k)
            assert ([_bits(x) for x in got.coeffs]
                    == [_bits(x) for x in ref.coeffs[:got.degree + 1]]), (name, k)


def test_no_failed_mpmath_conversions(fam1, monkeypatch):
    """No engine product hands an epsilon-polynomial to mpmath to convert:
    each failed conversion formats the whole polynomial for its error."""
    calls = []
    original = mpmath.mp._convert_fallback

    def counting(x, strings):
        calls.append(type(x).__name__)
        return original(x, strings)

    monkeypatch.setattr(mpmath.mp, "_convert_fallback", counting)
    for fam in (fam1, builtin_catalog()["g6_m2"]):
        compute_epsilon_corrections(compute_coefficients(CurvatureProfile(fam), 10, 256), 8)
    assert calls == []


def test_unresolved_trial_step_names_precision():
    """At 53 bits |A_8| of g3_m4 exceeds 2^53, so the unit trial step is lost
    in rounding; the failure says so and names the bits needed, which
    suffice."""
    fam = builtin_catalog()["g3_m4"]
    with pytest.raises(NonlinearDependence, match=r"--precision (\d+)") as info:
        compute_epsilon_corrections(compute_coefficients(CurvatureProfile(fam), 10, 53), 8)
    needed = int(re.search(r"--precision (\d+)", str(info.value)).group(1))
    assert "rounding unit" in str(info.value)
    corr = compute_epsilon_corrections(
        compute_coefficients(CurvatureProfile(fam), 10, needed), 8)
    assert corr.slopes == pytest.approx([(-1.0) ** m for m in range(2, 9)], abs=1e-6)


def test_one_engine_per_corrections_call(monkeypatch):
    """The corrections run one Taylor engine, extended by one diagonal per
    stage, where restarted trials built 3(N-1) + 1 of them."""
    built = []

    class Counting(series_mod._EpsilonRecursion):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    fam = builtin_catalog()["g3_m1"]
    fs = compute_coefficients(CurvatureProfile(fam), 10, 256)
    monkeypatch.setattr(series_mod, "_EpsilonRecursion", Counting)
    compute_epsilon_corrections(fs, 8)
    assert len(built) == 1


def test_precision_advice_past_the_float_range():
    """With N = 90, A_91 of g3_m1 exceeds the float range; the unresolved
    unit trial step still raises NonlinearDependence naming the bits needed,
    ceil(log2(max |A_k| / SLOPE_TOL)) + 1 over k <= N + 1."""
    fam = builtin_catalog()["g3_m1"]
    N, prec = 90, 64
    fs = compute_coefficients(CurvatureProfile(fam), N + 2, prec)
    largest = max(abs(fs.coefficient(k)) for k in range(1, N + 2))
    assert largest > mpmath.mpf(sys.float_info.max)
    with pytest.raises(NonlinearDependence, match=r"--precision (\d+) or more") as info:
        compute_epsilon_corrections(fs, N)
    needed = int(re.search(r"--precision (\d+)", str(info.value)).group(1))
    with mpmath.workprec(4 * prec):
        assert needed == int(mpmath.ceil(mpmath.log(largest / series_mod.SLOPE_TOL, 2))) + 1
    assert "rounding unit" in str(info.value)


class _Entry(tuple):
    """A ring value, zero, that stands for one entry of k! T_k: the
    corrections' ring (:class:`_EntryRing`) forms ``entry - x`` as
    ``minus(x)`` in mpf arithmetic at the working precision."""

    def __new__(cls, minus):
        entry = super().__new__(cls, (0, 0))
        entry.minus = minus
        return entry


class _EntryRing(series_mod._MpRing):
    def sub(self, x, y):
        if isinstance(x, _Entry):
            return self.value(x.minus(self.out(y)))
        return super().sub(x, y)


def _replace_entry(monkeypatch, k, j, replace_with):
    """Let the corrections read ``replace_with(v)`` for the entry v of
    [eps^j] k! T_k, once the engine has formed it, and subtract an
    :class:`_Entry` by its own rule."""

    class Replacing(series_mod._EpsilonRecursion):
        def extend(self, d):
            rhs = self.rhs
            known = len(rhs) > k and len(rhs[k]) > j
            super().extend(d)
            if not known and len(rhs) > k and len(rhs[k]) > j:
                rhs[k][j] = replace_with(rhs[k][j])

    monkeypatch.setattr(series_mod, "_EpsilonRecursion", Replacing)
    monkeypatch.setattr(series_mod, "_ring", _EntryRing)


def _curved(x):
    """10^400 - x + 10^396 x^2: an eps^0 coefficient past the float range
    that is not affine in the trial value x."""
    return mpmath.mpf("1e400") - x + mpmath.mpf("1e396") * x * x


def test_second_difference_check_past_the_float_range(fam1, monkeypatch):
    """The second-difference check compares in the ring: with eps^0
    coefficients near 1e400, a second difference of 2e396 exceeds
    SLOPE_TOL times their size and raises before the slope check, where
    float scales (inf > 1e-6 * inf) let it pass."""

    fs = compute_coefficients(CurvatureProfile(fam1), 10, 64)
    # stage 2 forms its trial constants as [eps^1] (1! T_1) + t
    _replace_entry(monkeypatch, 1, 1, lambda v: _Entry(_curved))
    with pytest.raises(NonlinearDependence) as info:
        compute_epsilon_corrections(fs, 8)
    message = str(info.value)
    assert message.startswith("second difference 2.000e+396 at correction order 2; ")
    assert "coefficient of size 1.000e+400 at 64 bits" in message


def test_vanishing_constant_tolerance_is_the_programs(fam1):
    """The tolerance of a dropped constant is set by its numerator at the
    stage's own degree: on the g=1 reference family at 53 bits, A_4 off by
    0.567 leaves the constant 0.567 where 64 sqrt(eps) times the largest
    |coefficient| allows 3.210978e-02.  (The fixed-degree oracle pads every
    numerator to degree N + 1 and allows more.)"""
    fs = compute_coefficients(CurvatureProfile(fam1), 10, 53)
    a = list(fs.a)
    a[3] = a[3] - 0.567
    with pytest.raises(DivisionByEpsilonFailed) as info:
        compute_epsilon_corrections(replace(fs, a=tuple(a)), 8)
    assert str(info.value) == "constant term 5.670000e-01 exceeds tolerance 3.210978e-02"


def test_dropped_constant_past_the_float_range_raises(monkeypatch):
    """A numerator whose own constant, 1e400, is its largest coefficient:
    the tolerance 64 sqrt(eps) times that maximum is formed in the ring, so
    the constant exceeds it, where float scales (inf > inf) let it pass."""

    fam = builtin_catalog()["g1_sphere_n2"]
    fs = compute_coefficients(CurvatureProfile(fam), 10, 64)
    # stage 2 drops the constant of 1! T_1 - gamma''(0; eps)
    ring = series_mod._MpRing(64)
    _replace_entry(monkeypatch, 1, 0, lambda v: ring.value(ring.out(v) + mpmath.mpf("1e400")))
    with pytest.raises(DivisionByEpsilonFailed) as info:
        compute_epsilon_corrections(fs, 8)
    assert str(info.value) == "constant term 1.000000e+400 exceeds tolerance 2.107342e+392"


def test_dropped_constant_under_a_trial_past_the_float_range_raises():
    """A_6 of g1_sphere_n2 scaled by 1 + 10^300 at 64 bits leaves the
    constant 2.0e306 in the stage-6 numerator, whose newest coefficient, from
    the trial diagonal, is 3.4e308: past the float range, and still the
    scale of the tolerance, which the constant exceeds.  (Float scales let
    it pass, and the run ended in a slope that asked for more bits.)"""
    fam = builtin_catalog()["g1_sphere_n2"]
    fs = compute_coefficients(CurvatureProfile(fam), 10, 64)
    a = list(fs.a)
    with mpmath.workprec(64):
        a[5] = a[5] * (1 + mpmath.mpf(10) ** 300)
    with pytest.raises(DivisionByEpsilonFailed) as info:
        compute_epsilon_corrections(replace(fs, a=tuple(a)), 8)
    assert str(info.value) == "constant term 2.008896e+306 exceeds tolerance 7.196834e+300"


def _misfit(x):
    """For the entry [eps^1] (1! T_1) minus x: -x at the trial values
    x = 0, -1, -2 of stage 2, a slope that fits, and 1e400 more at any other
    x, so the diagonal formed at the fitted B_2 misses A_3."""
    return -x if abs(x) <= 2 else -x + mpmath.mpf("1e400")


def test_pin_residual_past_the_float_range_raises(fam1, monkeypatch):
    """With A_3 = 1e400 the pin of gamma'''(0; eps) allows 64 sqrt(eps) |A_3|,
    past the float range; formed in the ring, the miss of 1e400 exceeds it."""

    fs = compute_coefficients(CurvatureProfile(fam1), 10, 64)
    a = list(fs.a)
    a[2] = mpmath.mpf("1e400")
    _replace_entry(monkeypatch, 1, 1, lambda v: _Entry(_misfit))
    with pytest.raises(DivisionByEpsilonFailed) as info:
        compute_epsilon_corrections(replace(fs, a=tuple(a)), 8)
    assert str(info.value).startswith("eps^0 coefficient of derivative 3 is off by 1.000e+400; ")


@pytest.mark.parametrize("prec", [53, 256])
def test_non_finite_series_raises(fam1, prec):
    """A non-finite A_k is rejected at entry, naming k: at 53 bits every
    later check would compare False against a nan and pass."""
    fs = compute_coefficients(CurvatureProfile(fam1), 10, prec)
    a = list(fs.a)
    a[4] = a[4] * math.inf
    with pytest.raises(OutOfRange) as info:
        compute_epsilon_corrections(replace(fs, a=tuple(a)), 8)
    assert re.fullmatch(r"A_5 is not finite: \+?inf", str(info.value))
