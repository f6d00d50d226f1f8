"""Formal power-series engine for the singular profile equation.

The unknown gamma(s) (inverse of the profile reparameterization g(d)) has a
formal solution sum_k A_k s^k / k! whose coefficients satisfy the explicit
recursion

    A_1 = H(0),
    A_{k+1} = 2nk A_k + (d/ds)^k { H(gamma) - 2k arctan(2 s gamma') } (0),

evaluated by truncated Taylor arithmetic (:class:`TaylorRecursion`): the
Taylor series of H(gamma) and arctan(2 s gamma') grow by one coefficient per
A_k, in O(k) ring operations each, so A_1..A_K cost O(K^2).  The recursion is
written once, in the methods of a scalar ring: at 53 bits Python's floats
(:class:`_FloatRing`); above, integer mantissas with an exponent
(:class:`_MpRing`), each result formed exactly and rounded once at the
ring's precision, to nearest with ties to even, as mpmath's operator
rounds it, with mpmath objects only at the edges.  The rounding error is
measured, not modelled: the recursion runs a second time, the shadow run,
in the same ring at 64 more bits, and the relative difference is kept per
coefficient.  The series diverges like a Gevrey-2 series
(|A_k| <= C^k (k!)^2); this module provides the growth diagnostics and
optimally truncated evaluation.

The same recursion, run once on series in eps, determines the
regularization corrections B_i: with initial slope
gamma'(0) = B(eps) = sum B_i eps^i and gamma''(0) = -sum_{i>=1} B_i eps^{i-1},
each derivative at zero is

    gamma^(k+2)(0; eps) = (-gamma^(k+1)(0; eps) + A^eps_{k+1}) / eps,

and B_m is fixed so the eps^0 coefficient of gamma^(m+1)(0; eps) equals
A_{m+1}.  That dependence is affine with slope (-1)^m, solved by a
two-evaluation linear fit and cross-checked with a third point.  The values
[eps^j] gamma^(k)(0; eps) form a lattice whose diagonal k + j = D depends
only on diagonals below it and on B_(D-1), so one pass fixes it diagonal by
diagonal.  Every eps series is a plain list of its coefficients, and the
recursion (:class:`_EpsilonRecursion`) extends each by one coefficient per
diagonal, each coefficient computed once, with no restarted runs.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import mpmath
from mpmath.libmp import from_man_exp, round_nearest, to_float

from .catalog import CurvatureProfile
from .errors import (
    DivisionByEpsilonFailed,
    NonlinearDependence,
    NoUsefulTruncation,
    OutOfRange,
    PrecisionExhausted,
)
# Unused here.  The per-layer tracing (perfbench/tracing.py) wraps these
# kernels in every namespace that binds them, and its tests expect this
# module among those namespaces.
from .jets import arctan_term_abs_mass, arctan_term_at_zero, fdb_kth_derivative  # noqa: F401
from .numutil import DOUBLE_PREC, decimal_str, left_sum, machine_eps, to_real


# ---------------------------------------------------------------------------
# Dot products
# ---------------------------------------------------------------------------

def _dot(xs, ys):
    """sum_i xs[i] * ys[i], accumulated left to right from 0 (any ring)."""
    return left_sum(map(operator.mul, xs, ys))


class _Aligned:
    """Signed integer mantissas over one exponent: entry i stands for
    ``man[i] * 2**exp`` exactly.  Runs cut from one sequence share its
    exponent, so two of them concatenate."""

    __slots__ = ("man", "exp")

    def __init__(self, man, exp):
        self.man = man
        self.exp = exp

    def __add__(self, other):
        return _Aligned(self.man + other.man, self.exp)


class _MpSequence(list):
    """A growing sequence of :class:`_MpRing` values that keeps, beside its
    items, their signed integer mantissas over one exponent, the least among
    its nonzero items: item i is exactly ``man[i] * 2**exp``.  An item with
    a lower exponent shifts the earlier mantissas to it.  An index gives the
    item, a slice the run of mantissas (:class:`_Aligned`) that
    :meth:`_MpRing.dot` multiplies."""

    __slots__ = ("man", "exp")

    def __init__(self, items=()):
        super().__init__()
        self.man = []
        self.exp = None
        for x in items:
            self.append(x)

    def append(self, x):
        list.append(self, x)
        man, exp = x
        if not man:
            self.man.append(0)
            return
        if self.exp is None:
            self.exp = exp
        elif exp < self.exp:
            shift = self.exp - exp
            self.man = [m << shift for m in self.man]
            self.exp = exp
        else:
            man <<= exp - self.exp
        self.man.append(man)

    def __getitem__(self, index):
        if type(index) is slice:
            return _Aligned(self.man[index], self.exp)
        return list.__getitem__(self, index)


# ---------------------------------------------------------------------------
# Scalar rings
# ---------------------------------------------------------------------------

def _known(xs, ys, j):
    if j >= len(xs) or j >= len(ys):
        raise IndexError(f"the eps^{j} coefficient of a factor is not known yet")


class _FloatRing:
    """Scalar arithmetic by Python's operators: binary64 floats in the
    53-bit runs.  An integer operand mixes in as Python mixes it.  A dot
    product is a :func:`_dot` sum from 0; so is a coefficient of a product
    of eps series, each a list of its known coefficients."""

    prec = DOUBLE_PREC
    seq = list
    value = out = to_float = float
    add = add_int = operator.add
    sub = sub_int = operator.sub
    mul = mul_int = operator.mul
    div = div_int = operator.truediv
    neg, abs, gt, max = operator.neg, abs, operator.gt, max
    sum = staticmethod(left_sum)
    dot = staticmethod(_dot)
    cot = staticmethod(lambda x: math.cos(x) / math.sin(x))

    @staticmethod
    def conv(xs, ys, j):
        """[eps^j] of the product of the eps series ``xs`` and ``ys``."""
        _known(xs, ys, j)
        return _dot(xs[:j + 1], ys[j::-1])


class _MpRing:
    """Scalar arithmetic at ``prec`` bits on pairs ``(man, exp)``, each
    exactly ``man * 2**exp`` with a signed integer mantissa.  Each operation
    forms its result exactly in integers, a quotient to at least
    ``prec + 2`` bits with a sticky bit, and rounds it once to ``prec``
    bits, to nearest with ties to even (:meth:`_round`): the result of
    mpmath's operator on mpf objects at that working precision, bit for
    bit, whatever mpmath's global precision is.  An integer operand enters
    exactly.  A sequence is an :class:`_MpSequence`, and a dot product, or
    a coefficient of a product of eps series, the exact sum of its terms
    rounded once.  mpmath objects appear only at the edges: ``value``,
    ``cot``, ``out`` and ``to_float``."""

    seq = _MpSequence

    def __init__(self, prec):
        self.prec = prec

    def _round(self, man, exp):
        """``man * 2**exp`` rounded to ``prec`` bits, to nearest with ties to
        even.  ``q`` keeps the first bit below the cut; the result rounds up
        if it is set and so is the last kept bit or any bit below it."""
        n = man.bit_length() - self.prec
        if n > 0:
            q = man >> (n - 1)
            if q & 1 and (q & 2 or q << (n - 1) != man):
                q += 1
            return q >> 1, exp + n
        return man, exp

    def value(self, x):
        """An int, float or mpf, exactly, as mpmath converts it; a
        non-finite one raises :class:`OutOfRange`."""
        x = mpmath.mp.convert(x)
        sign, man, exp, _ = x._mpf_
        if not man and exp:
            raise OutOfRange(f"non-finite value {x} in the series arithmetic")
        return (-man if sign else man), exp

    def cot(self, x):
        """``mpmath.cot`` at the ring's precision."""
        with mpmath.workprec(self.prec):
            return self.value(mpmath.cot(self.out(x)))

    def out(self, x):
        return mpmath.mp.make_mpf(from_man_exp(*x))

    def to_float(self, x):
        return to_float(from_man_exp(*x), rnd=round_nearest)

    def add(self, x, y):
        (xm, xe), (ym, ye) = x, y
        if xe > ye:
            return self._round((xm << (xe - ye)) + ym, ye)
        return self._round(xm + (ym << (ye - xe)), xe)

    def sub(self, x, y):
        return self.add(x, (-y[0], y[1]))

    def mul(self, x, y):
        return self._round(x[0] * y[0], x[1] + y[1])

    def div(self, x, y):
        return self.div_int((x[0], x[1] - y[1]), y[0])

    def neg(self, x):
        return self._round(-x[0], x[1])

    def abs(self, x):
        return self._round(abs(x[0]), x[1])

    def gt(self, x, y):
        """x > y: rounding keeps the sign of the exact difference."""
        return self.sub(x, y)[0] > 0

    def dot(self, xs, ys):
        """sum_i xs[i] * ys[i] over aligned mantissas (:class:`_Aligned` or
        :class:`_MpSequence`): the exact sum of the exact products, one
        integer, rounded once.  That is the arithmetic of mpmath's own exact
        dot product, and its result bit for bit while the exponents of the
        nonzero products span at most twice the precision; beyond that span
        mpmath's summation may drop a term or a partial sum, where this
        still rounds the exact sum."""
        total = sum(map(operator.mul, xs.man, ys.man))
        if not total:       # a sequence of zeros has no exponent
            return (0, 0)
        return self._round(total, xs.exp + ys.exp)

    def add_int(self, x, n):
        return self.add(x, (n, 0))

    def sub_int(self, x, n):
        return self.add(x, (-n, 0))

    def mul_int(self, x, n):
        return self._round(x[0] * n, x[1])

    def div_int(self, x, n):
        """x / n from the floor of a quotient of at least ``prec + 2`` bits
        and a sticky bit for a nonzero remainder, rounded once."""
        man, exp = x
        shift = self.prec + 2 + n.bit_length() - man.bit_length()
        if shift < 0:
            shift = 0
        q, rem = divmod(man << shift, n)
        if rem:
            return self._round((q << 1) | 1, exp - shift - 1)
        return self._round(q, exp - shift)

    def max(self, x, y):
        """``max(x, y)`` of the mpf objects: x unless y is greater."""
        return y if self.gt(y, x) else x

    def sum(self, xs):
        """``sum(xs)`` of the mpf objects, from the integer 0."""
        total = None
        for x in xs:
            total = self.add_int(x, 0) if total is None else self.add(total, x)
        return total

    def conv(self, xs, ys, j):
        """[eps^j] of the product of the eps series ``xs`` and ``ys``."""
        _known(xs, ys, j)
        total = sum(map(operator.mul, xs.man[:j + 1], ys.man[j::-1]))
        return self._round(total, xs.exp + ys.exp) if total else (0, 0)

    def rel_diff(self, x, ref):
        """|x - ref| / |ref| of a finite number ``x`` and a value ``ref``: the
        exact quotient of integers, rounded once to a float."""
        (xm, xe), (rm, re) = self.value(x), ref
        if not rm:
            return 0.0 if not xm else math.inf
        e = min(xe, re)
        rm <<= re - e
        return abs((xm << (xe - e)) - rm) / abs(rm)


def _isfinite(x):
    """Whether a coefficient is finite: by ``math`` for a float, as the
    53-bit runs make them; ``mpmath.isfinite`` would first convert it to
    an mpf."""
    return math.isfinite(x) if type(x) is float else mpmath.isfinite(x)


def _ring(prec):
    """The scalar ring of a run at ``prec`` bits: floats up to 53, else integer mantissas."""
    return _MpRing(prec) if prec > DOUBLE_PREC else _FloatRing()


def _cot_seeds(profile, ring):
    """cot(f theta1) in ``ring``, one per (weight, frequency) term of
    ``profile``: the s = 0 values of the recursions' cot chains."""
    t1 = ring.value(profile.family.theta1)
    return [ring.cot(ring.mul_int(t1, f)) for _, f in profile.terms]


def _scientific(x, digits=3):
    """``x`` as ``%.<digits>e`` prints its float; an mpf past the float
    range through ``mpmath.nstr``, with the same significant digits."""
    value = float(x)
    if math.isinf(value) and isinstance(x, mpmath.mpf):
        return mpmath.nstr(x, digits + 1, strip_zeros=False, min_fixed=0, max_fixed=0)
    return f"{value:.{digits}e}"


def _require_vanishing(ring, c0, tol_abs):
    """The check behind each division by eps: the constant term it drops,
    compared in its ring, so also past the float range."""
    if ring.gt(ring.abs(c0), tol_abs):
        raise DivisionByEpsilonFailed(
            f"constant term {_scientific(ring.out(c0), 6)} "
            f"exceeds tolerance {_scientific(ring.out(tol_abs), 6)}"
        )


@dataclass(frozen=True)
class EpsilonPolynomial:
    """sum_i c_i eps^i known through order ``degree``: the coefficients one
    eps series of :func:`compute_epsilon_corrections` holds when it ends."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise OutOfRange("an epsilon-polynomial needs at least its constant term")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def const(self):
        return self.coeffs[0]

    def __call__(self, eps):
        acc = 0 * self.coeffs[0]
        for c in reversed(self.coeffs):
            acc = acc * eps + c
        return acc


# ---------------------------------------------------------------------------
# Formal series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormalSeries:
    """Coefficients A_1..A_K of the profile ``curvature``.

    ``a`` stores A_{k} at index k-1 (floats at 53 bits, mpmath floats above).
    ``rel_error_estimates`` carry the measured per-coefficient relative
    difference from a run of the same recursion at ``precision_bits + 64``
    bits."""

    curvature: CurvatureProfile
    precision_bits: int
    a: tuple
    rel_error_estimates: tuple

    @property
    def K(self):
        return len(self.a)

    @cached_property
    def gevrey_rho(self):
        """rho_k = (|A_k| / (k!)^2)^(1/k) for k = 1..K."""
        return tuple(_rho(v, k) for k, v in enumerate(self.a, start=1))

    def coefficient(self, k: int):
        if not 1 <= k <= self.K:
            raise OutOfRange(f"coefficient index {k} outside 1..{self.K}")
        return self.a[k - 1]


def _rho(a_k, k):
    if isinstance(a_k, mpmath.mpf):
        if a_k == 0:
            return 0.0
        with mpmath.workprec(DOUBLE_PREC):
            ln = float(mpmath.log(abs(a_k)))
    else:
        mag = abs(float(a_k))
        if mag == 0:
            return 0.0
        ln = math.log(mag)
    return math.exp((ln - 2.0 * math.lgamma(k + 1)) / k)


# ---------------------------------------------------------------------------
# Taylor engine
# ---------------------------------------------------------------------------

def _self_dot(ring, c, m):
    """[s^m] of the square of the series with coefficients c (needs c_0..c_m).

    The s = 0 seed c_0 multiplies c_m from the right.  Its operands are
    slices only, so an :class:`_MpSequence` enters as runs of aligned
    mantissas."""
    half = (m + 1) // 2
    if not half:
        return ring.add_int(ring.mul(c[0], c[0]), 0)
    acc = ring.mul_int(ring.dot(c[m:m + 1] + c[1:half], c[:1] + c[m - 1:m - half:-1]), 2)
    if m % 2 == 0:
        middle = c[half]
        acc = ring.add(acc, ring.mul(middle, middle))
    return acc


class TaylorRecursion:
    """Taylor coefficients at s = 0 of the nonlinear terms H(gamma(s)) and
    arctan(2 s gamma'(s)), extended by one order per coefficient of gamma
    (truncated Taylor arithmetic: Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., ch. 13).

    ``push(a_k)`` appends a_k = gamma^(k)(0) / k! (k = 1, 2, ...; gamma(0) = 0)
    in O(k) ring operations and returns

        T_k = 2nk a_k + [s^k] H(gamma) - 2k [s^k] arctan(2 s gamma'),

    so the recursion reads a_{k+1} = T_k / (k+1); ``t0`` = H(0) = T_0
    starts it.  The rules are

    * H = sum w f c over the (w, f) of ``profile.terms``, one chain
      c = cot(f (theta1 + gamma)) per term from c' = -f (1 + c^2) gamma';
      in either profile mode, as eq030_literal is the cot sum with weight
      m_minus + 1 at frequency g;
    * z = arctan(w), w = 2 s gamma', from z' (1 + w^2) = w'.

    They divide only by integers and by values at s = 0.  Every value is
    one of ``ring``, which provides ``value`` (a number into the ring),
    ``cot``, ``seq`` (a sequence of values), ``add``, ``sub``, ``mul``, the
    integer operations ``add_int``, ``mul_int`` and ``div_int``, ``sum``
    (from the integer 0) and ``dot``: :class:`_FloatRing` in a 53-bit run,
    :class:`_MpRing` above and in the shadow run, which carries the run's
    precision; ``push`` and ``_h_cot`` bind its operations to locals.  In
    floats every operation rounds, so the operand order fixes the bits of
    the 53-bit A_k and is kept as it is: each integer factor enters through
    ``mul_int`` (``n * x``), each sum starts from the integer 0, and the
    seed c_0 multiplies from the right.
    """

    def __init__(self, profile: CurvatureProfile, ring):
        self.n, self.terms, self.ring = profile.family.n, profile.terms, ring
        seeds = _cot_seeds(profile, ring)
        zero = ring.value(0)
        self.ja = ring.seq([zero])              # j a_j, the coefficients of s gamma'
        self.iz = ring.seq([zero])              # i z_i, z = arctan(w)
        self.p = ring.seq([ring.value(1)])      # [s^m] (1 + w^2)
        self.cot = [ring.seq([c]) for c in seeds]
        self.q = [ring.seq() for _ in seeds]    # [s^m] (1 + c_i^2)
        self.t0 = ring.sum(ring.mul_int(c, w * f) for (w, f), c in zip(self.terms, seeds))

    def push(self, a_k):
        r = self.ring
        mul_int, sub = r.mul_int, r.sub
        k = len(self.ja)
        ja_k = mul_int(a_k, k)
        self.ja.append(ja_k)
        h_k = self._h_cot(k)
        # arctan: (i z_i) follows from z' (1 + w^2) = w' with w_j = 2 j a_j, p_0 = 1
        if k > 1:
            self.p.append(mul_int(_self_dot(r, self.ja, k - 1), 4))
        iz_k = sub(mul_int(ja_k, 2 * k), r.dot(self.iz[1:k], self.p[k - 1:0:-1]))
        self.iz.append(iz_k)
        return r.add(mul_int(sub(mul_int(ja_k, self.n), iz_k), 2), h_k)

    def _h_cot(self, k):
        r = self.ring
        add_int, mul_int, div_int, dot = r.add_int, r.mul_int, r.div_int, r.dot
        ja = self.ja[k:0:-1]
        terms = []
        for (w, f), c, q in zip(self.terms, self.cot, self.q):
            q.append(add_int(_self_dot(r, c, k - 1), 1 if k == 1 else 0))
            c_k = div_int(mul_int(dot(ja, q), -f), k)
            c.append(c_k)
            terms.append(mul_int(c_k, w * f))
        return r.sum(terms)


def _taylor_coefficients(profile, K, r):
    """A_1..A_K in the ring ``r``, a_{k+1} = T_k / (k+1) and A_k = k! a_k,
    as values of that ring."""
    engine = TaylorRecursion(profile, r)
    t, fact, out = engine.t0, r.value(1), []
    for k in range(1, K + 1):
        a_k = r.div_int(t, k)
        fact = r.mul_int(fact, k)
        out.append(r.mul(fact, a_k))
        if k < K:
            t = engine.push(a_k)
    return out


class _EpsilonRecursion:
    """:class:`TaylorRecursion` on series in eps, each held as the list of
    its known coefficients [eps^0], [eps^1], ... in ``ring``.

    ``push(row)`` adds the next order k, whose pushed derivative
    gamma^(k)(0; eps) is the list ``row`` that the caller extends, and
    returns the list of [eps^j] k! T_k.  ``extend(d)`` appends to that list,
    for every order k pushed, its coefficient on diagonal d: j = d - 1 - k.
    Every eps series of order k (j a_j, the cot chains, their squares,
    (i z_i), [s^(k-1)] (1 + w^2)) grows by the same coefficient then, each
    formed once by the operations, in the operand order, of the operator
    run on series objects whose sums and scalar multiples act coefficient
    by coefficient and whose products are :meth:`conv`: its dots are sums
    from the integer 0, which enters coefficient 0 only.  So [eps^j] k! T_k
    reads only coefficients <= j of the rows of orders <= k."""

    def __init__(self, profile: CurvatureProfile, ring):
        self.n, self.terms, self.ring = profile.family.n, profile.terms, ring
        seeds = _cot_seeds(profile, ring)
        # index k: the series of order k; index 0 holds the s = 0 seed
        self.rows, self.fact, self.rhs = [None], [1], [None]
        self.ja, self.iz, self.p = [0], [None], [None]
        self.cot = [[c] for c in seeds]
        self.q = [[ring.add_int(ring.add_int(ring.mul(c, c), 0), 1)] for c in seeds]

    def push(self, row):
        seq = self.ring.seq
        k = len(self.rows)
        self.rows.append(row)
        self.fact.append(self.fact[-1] * k)
        for lists in (self.ja, self.iz, *self.cot):
            lists.append(seq())
        if k > 1:
            for lists in (self.p, *self.q):
                lists.append(seq())
        self.rhs.append([])
        return self.rhs[k]

    def extend(self, d):
        for k in range(1, len(self.rows)):
            while len(self.rhs[k]) < d - k:
                self._next(k, len(self.rhs[k]))

    def _fold(self, j, first, rest):
        """[eps^j] of ``sum([first, *rest])`` from the integer 0."""
        add = self.ring.add
        acc = self.ring.add_int(first, 0) if j == 0 else first
        for x in rest:
            acc = add(acc, x)
        return acc

    def _square(self, c, m, j, seed_term):
        """[eps^j] of :func:`_self_dot` of c at m >= 1, whose seed product
        c_m c_0 is ``seed_term``."""
        r = self.ring
        half = (m + 1) // 2
        acc = r.mul_int(self._fold(j, seed_term, (r.conv(c[i], c[m - i], j)
                                                  for i in range(1, half))), 2)
        if m % 2 == 0:
            acc = r.add(acc, r.conv(c[half], c[half], j))
        return acc

    def _next(self, k, j):
        """The coefficient [eps^j] of every series of order k."""
        r = self.ring
        conv, mul_int, ja = r.conv, r.mul_int, self.ja
        ja[k].append(mul_int(r.div_int(self.rows[k][j], self.fact[k]), k))
        if k > 1:
            self.p[k - 1].append(mul_int(self._square(ja, k - 1, j, mul_int(ja[k - 1][j], 0)), 4))
        h = None
        for (w, f), c, q in zip(self.terms, self.cot, self.q):
            if k > 1:
                square = self._square(c, k - 1, j, r.mul(c[0], c[k - 1][j]))
                q[k - 1].append(r.add_int(square, 0) if j == 0 else square)
            dot = self._fold(j, r.mul(q[0], ja[k][j]),
                             (conv(ja[k - i], q[i], j) for i in range(1, k)))
            c[k].append(r.div_int(mul_int(dot, -f), k))
            term = mul_int(c[k][j], w * f)
            h = self._fold(j, term, ()) if h is None else r.add(h, term)
        iz = mul_int(ja[k][j], 2 * k)
        if k == 1:
            iz = r.sub_int(iz, 0) if j == 0 else iz
        else:
            iz = r.sub(iz, self._fold(j, conv(self.iz[1], self.p[k - 1], j),
                                      (conv(self.iz[i], self.p[k - i], j) for i in range(2, k))))
        self.iz[k].append(iz)
        t = r.add(mul_int(r.sub(mul_int(ja[k][j], self.n), iz), 2), h)
        self.rhs[k].append(mul_int(t, self.fact[k]))


# series order when none is given: the default of `--K` on the CLI
DEFAULT_K = 40

# the shadow run that measures the rounding error of the working-precision run
SHADOW_EXTRA_BITS = 64
# largest measured relative rounding error of a coefficient before the
# working precision counts as exhausted
REL_ERROR_LIMIT = 1e-6


def compute_coefficients(curvature: CurvatureProfile, K: int,
                         prec: int = DOUBLE_PREC) -> FormalSeries:
    """Run the explicit recursion of the profile ``curvature`` up to A_K at
    ``prec`` bits.

    The same recursion is run again in :class:`_MpRing` at ``prec + 64``
    bits, correctly rounded as the working run is, and the measured relative
    difference, formed exactly and rounded once to a float, is stored per
    coefficient; raises :class:`PrecisionExhausted` when a coefficient
    overflows or that difference crosses REL_ERROR_LIMIT.
    """
    if K < 1:
        raise OutOfRange("K must be >= 1")
    ring = _ring(prec)
    a = [ring.out(v) for v in _taylor_coefficients(curvature, K, ring)]
    for k, v in enumerate(a, start=1):
        if not _isfinite(v):
            raise PrecisionExhausted(
                k, float("inf"),
                f"A_{k} overflows at {prec} bits; raise the working precision",
            )
    shadow_prec = prec + SHADOW_EXTRA_BITS
    shadow = _MpRing(shadow_prec)
    rel_errs = []
    for k, (v, ref) in enumerate(zip(a, _taylor_coefficients(curvature, K, shadow)), start=1):
        rel_err = shadow.rel_diff(v, ref)
        if rel_err > REL_ERROR_LIMIT:
            raise PrecisionExhausted(
                k, rel_err,
                f"raise the working precision above {prec} bits "
                f"(measured against a {shadow_prec}-bit run)",
            )
        rel_errs.append(rel_err)
    return FormalSeries(curvature=curvature, precision_bits=prec, a=tuple(a),
                        rel_error_estimates=tuple(rel_errs))


# ---------------------------------------------------------------------------
# Gevrey diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GevreyReport:
    running_sup: tuple
    C_est: float
    verdict: str
    max_late: float
    median_late: float
    median_mid: float

    @property
    def bounded(self):
        return self.verdict == "bounded"


def _median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def gevrey_diagnostics(series: FormalSeries) -> GevreyReport:
    """Growth verdict for rho_k = (|A_k| / (k!)^2)^(1/k).

    Bounded requires the late-window maximum (k > K/2) to stay within twice
    the late-window median and within twice the mid-window median
    (K/4 < k <= K/2); the second clause catches slow polynomial growth of
    rho_k that the same-window comparison alone cannot see."""
    if series.K < 5:
        raise OutOfRange("gevrey diagnostics need K >= 5")
    rho = series.gevrey_rho
    sup = []
    cur = 0.0
    for r in rho:
        cur = max(cur, r)
        sup.append(cur)
    K = series.K
    late = [rho[k - 1] for k in range(K // 2 + 1, K + 1)]
    mid = [rho[k - 1] for k in range(K // 4 + 1, K // 2 + 1)]
    max_late = max(late)
    med_late = _median(late)
    med_mid = _median(mid) if mid else med_late
    bounded = max_late <= 2.0 * med_late and max_late <= 2.0 * med_mid
    return GevreyReport(
        running_sup=tuple(sup), C_est=sup[-1],
        verdict="bounded" if bounded else "unbounded",
        max_late=max_late, median_late=med_late, median_mid=med_mid,
    )


# ---------------------------------------------------------------------------
# Regularization corrections B_i
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonCorrections:
    """B_0..B_N and the derivatives gamma^(k)(0; eps) they produce.

    ``gamma_eps[k-1]`` holds only the orders of gamma^(k)(0; eps) that the
    recursion determines from gamma'(0) and gamma''(0) at degree N + 1
    (taking B_{N+1} = B_{N+2} = 0): degree N + 1 for k <= 2, N + 3 - k
    above; its constant term is A_k."""

    B: tuple                 # B_0 .. B_N
    gamma_eps: tuple         # EpsilonPolynomial for gamma^(k)(0; eps), k = 1..N+1
    slopes: tuple            # measured affine slopes, should be (-1)^m
    max_snap_residual: float

    def initial_slope(self, eps):
        """B(eps) = sum B_i eps^i."""
        return EpsilonPolynomial(self.B)(eps)


# tolerance of the affine fit behind each B_m: slope (-1)^m and second difference
SLOPE_TOL = 1e-6


def compute_epsilon_corrections(series: FormalSeries, N: int) -> EpsilonCorrections:
    """Determine B_0..B_N so the eps^0 coefficient of every gamma^(k)(0; eps)
    equals A_k (k <= N+1), for the profile of ``series`` and at its
    precision, in one pass over the lattice of values
    [eps^j] gamma^(k)(0; eps), taken by diagonals D = k + j.

    One engine (:class:`_EpsilonRecursion`) runs on eps series held as
    coefficient lists, and
    [eps^j] gamma^(k+2) = [eps^(j+1)] (k! T_k) - [eps^(j+1)] gamma^(k+1),
    with T_k as :meth:`TaylorRecursion.push` returns it; [eps^i] T_k
    depends on the lattice only through diagonals <= k + i.  B_m enters as
    [eps^m] gamma'(0) and -[eps^(m-1)] gamma''(0), both on diagonal m + 1,
    so stage m finds diagonals <= m fixed.  It extends the engine by
    diagonal m + 1 once, forms that diagonal for each trial value
    t = 0, 1, 2 of B_m (m subtractions), fits B_m from the affine
    dependence of its eps^0 end, with slope (-1)^m asserted and the third
    point guarding affinity, and keeps the diagonal formed at t = B_m with
    its constant pinned to A_(m+1), which keeps every division by eps
    exact.  Two more diagonals, at B_(N+1) = B_(N+2) = 0, complete
    ``gamma_eps``.  Above 53 bits every value is an integer mantissa with
    an exponent (:class:`_MpRing`); mpf objects are made only for the
    results and the messages.

    Each coefficient is formed by the same operations, in the same order, as
    an engine run from scratch for one trial value forms it, and every check
    a sequence of such runs makes is made here, with the same tolerance and
    in the same order."""
    if N < 1:
        raise OutOfRange("N must be >= 1")
    if series.K < N + 1:
        raise OutOfRange(f"series must carry at least N+1 = {N + 1} coefficients")
    # every check below compares False against a nan: reject it at the source
    for k in range(1, N + 2):
        if not _isfinite(series.coefficient(k)):
            raise OutOfRange(f"A_{k} is not finite: {series.coefficient(k)}")
    profile, prec = series.curvature, series.precision_bits
    eps_m = machine_eps(prec)
    ring = _ring(prec)
    # the mpf arithmetic of the messages, at the ring's precision
    with mpmath.workprec(ring.prec):
        sub, absolute, gt, larger = ring.sub, ring.abs, ring.gt, ring.max
        # the tolerances are formed in the ring: |A_k| may pass the float range
        vanishing, one = ring.value(64 * math.sqrt(eps_m)), ring.value(1)
        slope_tol = ring.value(SLOPE_TOL)
        a = [None] + [ring.value(series.coefficient(k)) for k in range(1, series.K + 1)]
        zero = ring.mul_int(a[1], 0)
        # rows[k]: [eps^j] gamma^(k)(0; eps), one coefficient per diagonal,
        # the constant pinned to A_k; resid[k]: that constant's offset, and
        # off[k]: whether it exceeds 64 sqrt(eps) max(|A_k|, 1)
        rows, resid, off = [None], [None], [None]
        # rhs[k] = k! T_k; numer0[k] and numer_max[k]: the constant of
        # k! T_k - gamma^(k+1) and the running max of its |coefficients|
        rhs, numer0, numer_max = [None], [None], [None]
        engine = _EpsilonRecursion(profile, ring)

        def fix(col):
            """Append diagonal ``col`` (indexed by k) to the lattice."""
            for k, value in enumerate(col[1:], start=1):
                if value is None:
                    continue
                if k < len(rows):
                    rows[k].append(value)
                else:
                    rows.append([a[k]])
                    resid.append(absolute(sub(value, a[k])))
                    off.append(gt(resid[k], ring.mul(vanishing, larger(absolute(a[k]), one))))
            for k in range(1, len(col) - 2):
                numer_max[k] = larger(numer_max[k], absolute(col[k + 2]))

        def diagonal(d, *head):
            """Diagonal d from its entries in the rows of gamma'(0) and
            gamma''(0): [eps^(d-k)] gamma^(k)(0; eps) at index k."""
            engine.extend(d)
            col = [None, *head]
            for k in range(1, min(d - 1, N)):
                col.append(sub(rhs[k][d - 1 - k], col[k + 1]))
            return col

        def check_pin(k):
            if off[k]:
                raise DivisionByEpsilonFailed(
                    f"eps^0 coefficient of derivative {k} is off by "
                    f"{_scientific(ring.out(resid[k]))}; "
                    "inconsistent series coefficients or precision loss"
                )

        def audit(upto, pinned, trial=None):
            """The checks of an engine run through gamma^(upto) with the
            constants through gamma^(pinned) pinned, in that run's order; the
            tolerance of each dropped constant is set by the whole numerator,
            whose newest coefficient is the trial diagonal's, if one is given.
            gamma' and gamma'' need no pin check: their constants are A_1, A_2."""
            for k in range(1, upto - 1):
                scale = numer_max[k] if trial is None else larger(numer_max[k], absolute(trial[k + 2]))
                _require_vanishing(ring, numer0[k], ring.mul(vanishing, larger(scale, one)))
                if k + 2 <= pinned:
                    check_pin(k + 2)

        def unresolved_step(consts):
            """Advice when the unit trial step is below the rounding unit of
            the eps^0 coefficients ``consts``, so the measured slope is noise.
            In mpf arithmetic: |A_k| may exceed the float range."""
            size = mpmath.mpf(max(1, *(abs(ring.out(cv)) for cv in consts)))
            if 1 >= eps_m * size:
                return ""
            largest = max(size, *(abs(ring.out(a[k])) for k in range(1, N + 2)))
            needed = mpmath.mag(largest / SLOPE_TOL) + 1  # floor(log2) + 1
            shown = mpmath.nstr(size, 4, strip_zeros=False, min_fixed=0, max_fixed=0)
            return (f"; the trial step 1 is below the rounding unit of an eps^0 "
                    f"coefficient of size {shown} at {prec} bits: corrections "
                    f"up to N = {N} need at least {needed} bits (--precision {needed} or more)")

        b = [a[1], ring.neg(a[2])]
        fix([None, b[0]])
        fix([None, b[1], ring.neg(b[1])])
        slopes = []
        for m in range(2, N + 1):
            rhs.append(engine.push(rows[m - 1]))
            engine.extend(m)
            numer0.append(sub(rhs[m - 1][0], rows[m][0]))
            numer_max.append(absolute(numer0[m - 1]))
            consts = []
            for t in (0.0, 1.0, 2.0):
                t = ring.value(t)
                trial = diagonal(m + 1, t, ring.neg(t))
                audit(m + 1, m, trial)
                consts.append(trial[m + 1])
            slope_ring = sub(consts[1], consts[0])
            slope = ring.to_float(slope_ring)
            # in the ring: the eps^0 coefficients may exceed the float range
            curvature = ring.add(sub(consts[2], ring.mul_int(consts[1], 2)), consts[0])
            scale = one
            for cv in consts:
                scale = larger(scale, absolute(cv))
            if gt(absolute(curvature), ring.mul(slope_tol, scale)):
                raise NonlinearDependence(
                    f"second difference {_scientific(ring.out(curvature))} "
                    f"at correction order {m}" + unresolved_step(consts)
                )
            expected = (-1.0) ** m
            if abs(slope - expected) > SLOPE_TOL * max(1.0, abs(expected)):
                raise NonlinearDependence(
                    f"slope {slope:.6f} at correction order {m}, expected {expected:+.0f}"
                    + unresolved_step(consts)
                )
            slopes.append(slope)
            b.append(ring.div(sub(a[m + 1], consts[0]), slope_ring))
            fix(diagonal(m + 1, b[m], ring.neg(b[m])))
        # gamma'(0) and gamma''(0) at the full degree N + 1, taking
        # B_(N+1) = B_(N+2) = 0
        fix(diagonal(N + 2, zero, ring.neg(zero)))
        fix(diagonal(N + 3, None, ring.neg(zero)))
        audit(N + 1, N + 1)
        worst = resid[1]
        for r in resid[2:]:
            worst = larger(worst, r)
        return EpsilonCorrections(
            B=tuple(map(ring.out, b)),
            gamma_eps=tuple(EpsilonPolynomial(tuple(map(ring.out, row))) for row in rows[1:]),
            slopes=tuple(slopes), max_snap_residual=ring.to_float(worst),
        )


# ---------------------------------------------------------------------------
# Optimally truncated evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedValue:
    value: object
    error_estimate: float
    k_star: int


def evaluate_truncated(series: FormalSeries, s, derivative: int = 0,
                       threshold: float = 1e-2, start_k: int = 1) -> TruncatedValue:
    """Partial sum of the (termwise differentiated) series cut at the smallest
    term; the error model is the first omitted term plus the rounding floor.

    Raises :class:`NoUsefulTruncation` when even the smallest term exceeds
    ``threshold``: s is too large for series evaluation."""
    if not s > 0:
        raise OutOfRange(f"series evaluation needs s > 0, got {s!r}")
    if derivative < 0:
        raise OutOfRange("derivative order must be >= 0")
    with mpmath.workprec(series.precision_bits):
        ss = to_real(s, series.precision_bits)
        k_lo = max(start_k, derivative if derivative > 0 else 1)
        # term k is A_k s^p / p! with p = k - derivative; p! is carried as an
        # exact integer product, so each term is the one math.factorial gives
        p = k_lo - derivative
        p_fact = math.factorial(p)
        terms = []
        mags = []
        for a_k in series.a[k_lo - 1:]:
            t = a_k * ss ** p / p_fact
            terms.append(t)
            mags.append(abs(float(t)))
            p += 1
            p_fact *= p
        if not terms:
            raise OutOfRange("no admissible terms for the requested derivative")
        i_star = min(range(len(mags)), key=mags.__getitem__)
        if mags[i_star] > threshold:
            raise NoUsefulTruncation(
                f"smallest term {mags[i_star]:.3e} exceeds threshold {threshold:.3e} "
                f"at s = {float(s)!r}"
            )
        value = terms[0]
        for t in terms[1: i_star + 1]:
            value = value + t
        omitted = mags[i_star + 1] if i_star + 1 < len(mags) else mags[i_star]
        floor = machine_eps(series.precision_bits) * left_sum(mags[: i_star + 1])
        k_star = k_lo + i_star
    return TruncatedValue(value=value, error_estimate=max(omitted, floor), k_star=k_star)


def series_value_tail(series: FormalSeries, s) -> TruncatedValue:
    """sum_{k >= 2} A_k s^k / k! with the same truncation policy; used for
    cancellation-free asymptotic deviations."""
    return evaluate_truncated(series, s, derivative=0, threshold=float("inf"), start_k=2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def series_to_json_dict(series: FormalSeries) -> dict:
    return {
        "family": series.curvature.family.as_dict(),
        "profile_mode": series.curvature.mode,
        "K": series.K,
        "precision_bits": series.precision_bits,
        "A": [decimal_str(v, series.precision_bits) for v in series.a],
        "gevrey": [float(r) for r in series.gevrey_rho],
        "rel_error_estimates": [float(e) for e in series.rel_error_estimates],
    }
