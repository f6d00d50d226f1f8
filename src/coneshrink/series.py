"""Formal power-series engine for the singular profile equation.

The unknown gamma(s) (inverse of the profile reparameterization g(d)) has a
formal solution sum_k A_k s^k / k! whose coefficients satisfy the explicit
recursion

    A_1 = H(0),
    A_{k+1} = 2nk A_k + (d/ds)^k { H(gamma) - 2k arctan(2 s gamma') } (0),

evaluated by truncated Taylor arithmetic (:class:`TaylorRecursion`): the
Taylor series of H(gamma) and arctan(2 s gamma') grow by one coefficient per
A_k, in O(k) ring operations each, so A_1..A_K cost O(K^2).  The rounding
error is measured, not modelled: the recursion runs a second time at 64 more
bits and the relative difference is kept per coefficient.  The series
diverges like a Gevrey-2 series (|A_k| <= C^k (k!)^2); this module provides
the growth diagnostics and optimally truncated evaluation.

The same recursion, run once in online (relaxed) series arithmetic in eps,
determines the regularization corrections B_i: with initial slope
gamma'(0) = B(eps) = sum B_i eps^i and gamma''(0) = -sum_{i>=1} B_i eps^{i-1},
each derivative at zero is

    gamma^(k+2)(0; eps) = (-gamma^(k+1)(0; eps) + A^eps_{k+1}) / eps,

and B_m is fixed so the eps^0 coefficient of gamma^(m+1)(0; eps) equals
A_{m+1}.  That dependence is affine with slope (-1)^m, solved by a
two-evaluation linear fit and cross-checked with a third point.  The values
[eps^j] gamma^(k)(0; eps) form a lattice whose diagonal k + j = D depends
only on diagonals below it and on B_(D-1), so one pass fixes it diagonal by
diagonal, each coefficient computed once, with no restarted runs.
"""

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import mpmath
from mpmath.libmp import from_man_exp, fzero

from .catalog import COT_SUM, CurvatureProfile, make_family
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
from .numutil import DOUBLE_PREC, RealContext, decimal_str, machine_eps, parse_real


# ---------------------------------------------------------------------------
# Dot products
# ---------------------------------------------------------------------------

def _dot(xs, ys):
    """sum_i xs[i] * ys[i], accumulated left to right from 0 (any ring)."""
    return sum(map(operator.mul, xs, ys))


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
    """A growing sequence of mpmath floats that keeps, beside its items,
    their signed integer mantissas over one exponent, the least among its
    nonzero items: item i is exactly ``man[i] * 2**exp``.  Each item is
    converted once, when appended; one with a lower exponent shifts the
    earlier mantissas to it.  An index gives the item, a slice the run of
    mantissas (:class:`_Aligned`) that :func:`_exact_dot` multiplies."""

    __slots__ = ("man", "exp")

    def __init__(self, items=()):
        super().__init__()
        self.man = []
        self.exp = None
        for x in items:
            self.append(x)

    def append(self, x):
        list.append(self, x)
        sign, man, exp, _ = x._mpf_ if type(x) is mpmath.mpf else mpmath.mp.convert(x)._mpf_
        if not man:
            if exp:
                raise OutOfRange(f"non-finite value {x} in the series arithmetic")
            self.man.append(0)
            return
        if sign:
            man = -man
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


def _exact_dot(xs, ys):
    """sum_i xs[i] * ys[i] over aligned mantissas (:class:`_Aligned` or
    :class:`_MpSequence`): the exact sum of the exact products, one integer,
    rounded once to the working precision.  That is the arithmetic of
    mpmath's own exact dot product, and its result bit for bit while the
    exponents of the nonzero products span at most twice the precision;
    beyond that span mpmath's summation may drop a term or a partial sum,
    where this still rounds the exact sum."""
    total = sum(map(operator.mul, xs.man, ys.man))
    if not total:       # a sequence of zeros has no exponent
        return mpmath.mp.make_mpf(fzero)
    prec, rnd = mpmath.mp._prec_rounding
    return mpmath.mp.make_mpf(from_man_exp(total, xs.exp + ys.exp, prec, rnd))


def _dot_for(value):
    """The dot product and the sequence type of the ring of ``value``: for
    mpmath floats :func:`_exact_dot` over :class:`_MpSequence`, whose slices
    are aligned mantissas; else :func:`_dot` over lists, whose left-to-right
    sum fixes the rounding of binary64 and whose operand order the eps
    series ring relies on."""
    if isinstance(value, mpmath.mpf):
        return _exact_dot, _MpSequence
    return _dot, list


# ---------------------------------------------------------------------------
# Series in the regularization parameter
# ---------------------------------------------------------------------------

def _unknown(j):
    raise IndexError(f"the eps^{j} coefficient of this series is not known yet")


class _OnlineSeries:
    """sum_j c_j eps^j whose coefficients are formed on first request, each
    from its operands' coefficients up to the same order (relaxed, or online,
    series arithmetic: van der Hoeven, "Relax, but don't be too lazy",
    J. Symbolic Comput. 34, 2002).

    A leaf holds the coefficients its owner appends to ``coeffs``; any other
    series is a rule over its operands that forms coefficient j, once, by the
    same operations however many coefficients are ever requested.  The ring
    is closed under +, -, * and division by a scalar; a scalar operand
    enters the constant term of a sum and every term of a product."""

    __slots__ = ("coeffs", "_rule")

    def __init__(self, rule=_unknown, coeffs=()):
        self.coeffs = list(coeffs)
        self._rule = rule

    def __getitem__(self, j):
        c = self.coeffs
        while len(c) <= j:
            c.append(self._rule(len(c)))
        return c[j]

    def _zip(self, other, op):
        if isinstance(other, _OnlineSeries):
            return _OnlineSeries(lambda j: op(self[j], other[j]))
        return _OnlineSeries(lambda j: self[j] if j else op(self[0], other))

    def __add__(self, other):
        return self._zip(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _OnlineSeries(lambda j: -self[j])

    def __mul__(self, other):
        if isinstance(other, _OnlineSeries):
            return _OnlineSeries(_product_rule(self, other))
        return _OnlineSeries(lambda j: other * self[j])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return _OnlineSeries(lambda j: self[j] / scalar)


def _product_rule(x, y):
    """[eps^k] (x * y) = sum_i x_i y_(k-i) from x_0..x_k and y_0..y_k.  For
    mpmath floats: :func:`_exact_dot` over the two operands' aligned
    mantissas, each coefficient converted once, when first used; otherwise
    :func:`_dot` from 0."""
    xs, ys = _MpSequence(), _MpSequence()

    def rule(k):
        x_k, y_k = x[k], y[k]
        if not isinstance(x[0], mpmath.mpf):
            return _dot(x.coeffs[:k + 1], y.coeffs[k::-1])
        xs.append(x_k)
        ys.append(y_k)
        return _exact_dot(xs, ys[::-1])
    return rule


def _scientific(x, digits=3):
    """``x`` as ``%.<digits>e`` prints its float; an mpf past the float
    range through ``mpmath.nstr``, with the same significant digits."""
    value = float(x)
    if math.isinf(value) and isinstance(x, mpmath.mpf):
        return mpmath.nstr(x, digits + 1, strip_zeros=False, min_fixed=0, max_fixed=0)
    return f"{value:.{digits}e}"


def _require_vanishing(c0, tol_abs):
    """The check behind each division by eps: the constant term it drops,
    compared in its ring, so also past the float range."""
    if abs(c0) > tol_abs:
        raise DivisionByEpsilonFailed(
            f"constant term {_scientific(c0, 6)} exceeds tolerance {_scientific(tol_abs, 6)}"
        )


@dataclass(frozen=True)
class EpsilonPolynomial:
    """sum_i c_i eps^i known through order ``degree``: a finite prefix of an
    online series (:class:`_OnlineSeries`), whose ring forms it."""

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
    difference from a run of the same recursion at ``precision_bits + 64``."""

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

def _self_dot(dot, c, m):
    """[s^m] of the square of the series with coefficients c (needs c_0..c_m).

    The s = 0 seed c_0 is a scalar and multiplies c_m from the right, so an
    eps series c_m forms the product itself (a scalar product is
    commutative, and mpmath would otherwise try, and fail, to convert c_m).
    Its operands are slices only, so mpmath floats enter as runs of aligned
    mantissas (:class:`_MpSequence`)."""
    half = (m + 1) // 2
    acc = 2 * dot(c[m:m + 1] + c[1:half], c[:1] + c[m - 1:m - half:-1]) if half else 0
    if m % 2 == 0:
        acc = acc + c[half] * c[half]
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

    They divide only by integers and by values at s = 0, so the pushed
    coefficients may be floats, mpmath floats or eps series.  Run it inside
    the working precision of ``ctx``.
    """

    def __init__(self, profile: CurvatureProfile, ctx: RealContext):
        fam = profile.family
        self.n = fam.n
        self.ja = [0]       # j a_j, the coefficients of s gamma'
        self.iz = [0]       # i z_i, z = arctan(w)
        self.p = [1]        # [s^m] (1 + w^2)
        self.dot = _dot     # fixed by the ring of the first pushed coefficient
        t1 = ctx.convert(fam.theta1)
        self.terms = profile.terms
        self.cot = [[ctx.cot(f * t1)] for _, f in self.terms]
        self.q = [[] for _ in self.terms]        # [s^m] (1 + c_i^2)
        self.t0 = sum(w * f * c[0] for (w, f), c in zip(self.terms, self.cot))

    def push(self, a_k):
        k = len(self.ja)
        if k == 1:
            self._bind(a_k)
        self.ja.append(k * a_k)
        h_k = self._h_cot(k)
        # arctan: (i z_i) follows from z' (1 + w^2) = w' with w_j = 2 j a_j, p_0 = 1
        if k > 1:
            self.p.append(4 * _self_dot(self.dot, self.ja, k - 1))
        iz_k = 2 * k * self.ja[k] - self.dot(self.iz[1:k], self.p[k - 1:0:-1])
        self.iz.append(iz_k)
        return 2 * (self.n * self.ja[k] - iz_k) + h_k

    def _bind(self, a_1):
        """Fix the ring by the first pushed coefficient: the dot product,
        and the type of the sequences it reads, each holding its seed."""
        self.dot, seq = _dot_for(a_1)
        self.ja, self.iz, self.p = seq(self.ja), seq(self.iz), seq(self.p)
        self.cot = [seq(c) for c in self.cot]
        self.q = [seq(q) for q in self.q]

    def push_derivatives(self, derivs):
        """Push a_j = derivs[j-1] / j! for the orders j not yet pushed, up to
        k = len(derivs), and return k! T_k: the derivative form
        2nk gamma^(k)(0) + (d/ds)^k{H(gamma) - 2k arctan(2 s gamma')}(0)."""
        fact = math.factorial(len(self.ja) - 1)
        t = None
        for j in range(len(self.ja), len(derivs) + 1):
            fact *= j
            t = self.push(derivs[j - 1] / fact)
        return t * fact

    def _h_cot(self, k):
        ja = self.ja[k:0:-1]
        h_k = 0
        for (w, f), c, q in zip(self.terms, self.cot, self.q):
            q.append(_self_dot(self.dot, c, k - 1) + (1 if k == 1 else 0))
            c.append(-f * self.dot(ja, q) / k)
            h_k = h_k + w * f * c[k]
        return h_k


def _taylor_coefficients(profile, K, prec):
    """A_1..A_K at ``prec`` bits: a_{k+1} = T_k / (k+1), A_k = k! a_k."""
    ctx = RealContext(prec)
    with ctx.workprec():
        engine = TaylorRecursion(profile, ctx)
        t = engine.t0
        fact = ctx.convert(1)
        out = []
        for k in range(1, K + 1):
            a_k = t / k
            fact = fact * k
            out.append(fact * a_k)
            if k < K:
                t = engine.push(a_k)
    return out


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

    The same recursion is run again at ``prec + 64`` bits and the measured
    relative difference is stored per coefficient; raises
    :class:`PrecisionExhausted` when a coefficient overflows or that
    difference crosses REL_ERROR_LIMIT.
    """
    if K < 1:
        raise OutOfRange("K must be >= 1")
    a = _taylor_coefficients(curvature, K, prec)
    for k, v in enumerate(a, start=1):
        if not mpmath.isfinite(v):
            raise PrecisionExhausted(
                k, float("inf"),
                f"A_{k} overflows at {prec} bits; raise the working precision",
            )
    shadow_prec = prec + SHADOW_EXTRA_BITS
    shadow = _taylor_coefficients(curvature, K, shadow_prec)
    rel_errs = []
    with mpmath.workprec(shadow_prec):
        for k, (v, ref) in enumerate(zip(a, shadow), start=1):
            diff = abs(v - ref)
            rel_err = float(diff / abs(ref)) if ref else (0.0 if not diff else math.inf)
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

    def initial_curvature(self, eps):
        """gamma''(0; eps) = -sum_{i>=1} B_i eps^{i-1}."""
        return -EpsilonPolynomial(self.B[1:])(eps)


# tolerance of the affine fit behind each B_m: slope (-1)^m and second difference
SLOPE_TOL = 1e-6


def compute_epsilon_corrections(series: FormalSeries, N: int) -> EpsilonCorrections:
    """Determine B_0..B_N so the eps^0 coefficient of every gamma^(k)(0; eps)
    equals A_k (k <= N+1), for the profile of ``series`` and at its
    precision, in one pass over the lattice of values
    [eps^j] gamma^(k)(0; eps), taken by diagonals D = k + j.

    One engine runs in online epsilon-series arithmetic, and
    [eps^j] gamma^(k+2) = [eps^(j+1)] (k! T_k) - [eps^(j+1)] gamma^(k+1),
    with T_k as :meth:`TaylorRecursion.push` returns it; [eps^i] T_k
    depends on the lattice only through diagonals <= k + i.  B_m enters as
    [eps^m] gamma'(0) and -[eps^(m-1)] gamma''(0), both on diagonal m + 1,
    so stage m finds diagonals <= m fixed.  It takes
    the engine's coefficients on diagonal m once, forms diagonal m + 1 for
    each trial value t = 0, 1, 2 of B_m (m subtractions), fits B_m from the
    affine dependence of its eps^0 end, with slope (-1)^m asserted and the
    third point guarding affinity, and keeps the diagonal formed at t = B_m
    with its constant pinned to A_(m+1), which keeps every division by eps
    exact.  Two more diagonals, at B_(N+1) = B_(N+2) = 0, complete
    ``gamma_eps``.

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
        if not mpmath.isfinite(series.coefficient(k)):
            raise OutOfRange(f"A_{k} is not finite: {series.coefficient(k)}")
    profile, prec = series.curvature, series.precision_bits
    ctx = RealContext(prec)
    eps_m = machine_eps(prec)
    with ctx.workprec():
        # the tolerances are formed in the ring: |A_k| may pass the float range
        vanishing, one = ctx.convert(64 * math.sqrt(eps_m)), ctx.convert(1)
        a = [None] + [series.coefficient(k) for k in range(1, series.K + 1)]
        zero = 0 * a[1]
        # rows[k]: [eps^j] gamma^(k)(0; eps), one coefficient per diagonal,
        # the constant pinned to A_k; resid[k]: that constant's offset, and
        # off[k]: whether it exceeds 64 sqrt(eps) max(|A_k|, 1)
        rows, resid, off = [None], [None], [None]
        # rhs[k] = k! T_k; numer0[k] and numer_max[k]: the constant of
        # k! T_k - gamma^(k+1) and the running max of its |coefficients|
        rhs, numer0, numer_max = [None], [None], [None]
        engine = TaylorRecursion(profile, ctx)

        def fix(col):
            """Append diagonal ``col`` (indexed by k) to the lattice."""
            for k, value in enumerate(col[1:], start=1):
                if value is None:
                    continue
                if k < len(rows):
                    rows[k].coeffs.append(value)
                else:
                    rows.append(_OnlineSeries(coeffs=[a[k]]))
                    resid.append(abs(value - a[k]))
                    off.append(resid[k] > vanishing * max(abs(a[k]), one))
            for k in range(1, len(col) - 2):
                numer_max[k] = max(numer_max[k], abs(col[k + 2]))

        def diagonal(d, *head):
            """Diagonal d from its entries in the rows of gamma'(0) and
            gamma''(0): [eps^(d-k)] gamma^(k)(0; eps) at index k."""
            col = [None, *head]
            for k in range(1, min(d - 1, N)):
                col.append(rhs[k][d - 1 - k] - col[k + 1])
            return col

        def check_pin(k):
            if off[k]:
                raise DivisionByEpsilonFailed(
                    f"eps^0 coefficient of derivative {k} is off by {_scientific(resid[k])}; "
                    "inconsistent series coefficients or precision loss"
                )

        def audit(upto, pinned, trial=None):
            """The checks of an engine run through gamma^(upto) with the
            constants through gamma^(pinned) pinned, in that run's order; the
            tolerance of each dropped constant is set by the whole numerator,
            whose newest coefficient is the trial diagonal's, if one is given."""
            check_pin(1)
            check_pin(2)
            for k in range(1, upto - 1):
                scale = numer_max[k] if trial is None else max(numer_max[k], abs(trial[k + 2]))
                _require_vanishing(numer0[k], vanishing * max(scale, one))
                if k + 2 <= pinned:
                    check_pin(k + 2)

        def unresolved_step(consts):
            """Advice when the unit trial step is below the rounding unit of
            the eps^0 coefficients ``consts``, so the measured slope is noise.
            In mpf arithmetic: |A_k| may exceed the float range."""
            size = mpmath.mpf(max(1, *(abs(cv) for cv in consts)))
            if 1 >= eps_m * size:
                return ""
            largest = max(size, *(abs(a[k]) for k in range(1, N + 2)))
            needed = mpmath.mag(largest / SLOPE_TOL) + 1  # floor(log2) + 1
            shown = mpmath.nstr(size, 4, strip_zeros=False, min_fixed=0, max_fixed=0)
            return (f"; the trial step 1 is below the rounding unit of an eps^0 "
                    f"coefficient of size {shown} at {prec} bits: corrections "
                    f"up to N = {N} need at least {needed} bits (--precision {needed} or more)")

        b = [a[1], -a[2]]
        fix([None, b[0]])
        fix([None, b[1], -b[1]])
        slopes = []
        for m in range(2, N + 1):
            rhs.append(engine.push_derivatives(rows[1:m]))
            numer0.append(rhs[m - 1][0] - rows[m][0])
            numer_max.append(abs(numer0[m - 1]))
            consts = []
            for t in (0.0, 1.0, 2.0):
                t = ctx.convert(t)
                trial = diagonal(m + 1, t, -t)
                audit(m + 1, m, trial)
                consts.append(trial[m + 1])
            slope_ring = consts[1] - consts[0]
            slope = float(slope_ring)
            # in the ring: the eps^0 coefficients may exceed the float range
            curvature = consts[2] - 2 * consts[1] + consts[0]
            scale = max(1, *(abs(cv) for cv in consts))
            if abs(curvature) > SLOPE_TOL * scale:
                raise NonlinearDependence(
                    f"second difference {_scientific(curvature)} at correction order {m}"
                    + unresolved_step(consts)
                )
            expected = (-1.0) ** m
            if abs(slope - expected) > SLOPE_TOL * max(1.0, abs(expected)):
                raise NonlinearDependence(
                    f"slope {slope:.6f} at correction order {m}, expected {expected:+.0f}"
                    + unresolved_step(consts)
                )
            slopes.append(slope)
            b.append((a[m + 1] - consts[0]) / slope_ring)
            fix(diagonal(m + 1, b[m], -b[m]))
        # gamma'(0) and gamma''(0) at the full degree N + 1, taking
        # B_(N+1) = B_(N+2) = 0
        fix(diagonal(N + 2, zero, -zero))
        fix(diagonal(N + 3, None, -zero))
        audit(N + 1, N + 1)
    return EpsilonCorrections(
        B=tuple(b),
        gamma_eps=tuple(EpsilonPolynomial(tuple(row.coeffs)) for row in rows[1:]),
        slopes=tuple(slopes), max_snap_residual=float(max(resid[1:])),
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
    ctx = RealContext(series.precision_bits)
    with ctx.workprec():
        ss = ctx.convert(s)
        k_lo = max(start_k, derivative if derivative > 0 else 1)
        terms = []
        mags = []
        for k in range(k_lo, series.K + 1):
            p = k - derivative
            t = series.coefficient(k) * ss ** p / math.factorial(p)
            terms.append(t)
            mags.append(abs(float(t)))
        if not terms:
            raise OutOfRange("no admissible terms for the requested derivative")
        i_star = min(range(len(mags)), key=lambda i: mags[i])
        if mags[i_star] > threshold:
            raise NoUsefulTruncation(
                f"smallest term {mags[i_star]:.3e} exceeds threshold {threshold:.3e} "
                f"at s = {float(s)!r}"
            )
        value = terms[0]
        for t in terms[1: i_star + 1]:
            value = value + t
        omitted = mags[i_star + 1] if i_star + 1 < len(mags) else mags[i_star]
        floor = machine_eps(series.precision_bits) * sum(mags[: i_star + 1])
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


def series_to_json(series: FormalSeries) -> str:
    return json.dumps(series_to_json_dict(series), indent=2)


def _field(rec, key, kind=(int, float)):
    """``rec[key]`` of a series record if it is a ``kind`` (a JSON boolean
    is no number); else :class:`OutOfRange` naming the field."""
    value = rec.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise OutOfRange(f"series record: field {key!r} is missing or malformed: {value!r}")
    return value


def _numbers(rec, key, convert):
    try:
        return tuple(map(convert, _field(rec, key, list)))
    except (TypeError, ValueError):
        raise OutOfRange(f"series record: field {key!r} holds a malformed number") from None


def series_from_json(text: str) -> FormalSeries:
    """The series of a ``coeffs`` record; its family and profile mode are
    validated as they are read (:class:`ConstraintViolation` for an
    inadmissible family, :class:`UnsupportedMode` for an unknown mode), and
    a missing or malformed field raises :class:`OutOfRange` naming it."""
    rec = json.loads(text)
    if not isinstance(rec, dict):
        raise OutOfRange(f"series record: a JSON object expected, got {rec!r}")
    family = _field(rec, "family", dict)
    fam = make_family(*(_field(family, key) for key in ("g", "m_minus", "m_plus", "n", "theta1")))
    prec, K = _field(rec, "precision_bits", int), _field(rec, "K", int)
    a = _numbers(rec, "A", lambda t: parse_real(t, prec))
    n_gevrey = len(_numbers(rec, "gevrey", float))
    rel = _numbers(rec, "rel_error_estimates", float) if "rel_error_estimates" in rec else (0.0,) * K
    if not K == len(a) == n_gevrey == len(rel):
        raise OutOfRange(f"series record: K = {K} with {len(a)} coefficients in 'A', "
                         f"{n_gevrey} in 'gevrey' and {len(rel)} in 'rel_error_estimates'")
    return FormalSeries(curvature=CurvatureProfile(fam, rec.get("profile_mode", COT_SUM)),
                        precision_bits=prec, a=a, rel_error_estimates=rel)
