"""Isoparametric families on the sphere and their parallel mean-curvature profile.

A family is the abstract tuple (g, m_minus, m_plus, n, theta1): g equally
spaced principal angles theta_k = theta1 + (k-1)*pi/g carrying alternating
focal multiplicities m_1 = m_plus, m_2 = m_minus, ..., living in S^n.  The
parallel hypersurface at distance d has mean curvature, with x = theta1 + d,

    H(d) = sum_k m_k cot(theta_k + d) = m_2 g cot(g x) + (m_1 - m_2) (g/2) cot(g x/2)

by Muenzner (Math. Ann. 251, 1980; Cecil & Ryan, *Geometry of Hypersurfaces*,
ch. 3).  The closed form is the only definition of H here: every path sums
w f cot(f x) over the (weight, frequency) terms of
:attr:`CurvatureProfile.terms`.  H decreases strictly from H(0) > 0
to -inf at the focal distance d_focal = pi/g - theta1, with a unique zero
d0 (the minimal member).

Multiplicity convention: angles are assigned m_plus, m_minus, m_plus, ...
starting at theta1.  For g = 2 with (p, q) = (m_minus, m_plus) this makes
H(d) = q*cot(theta1+d) - p*tan(theta1+d), so the minimal distance satisfies
tan^2(theta1 + d0) = q/p (the product-sphere law).  Only the (m_1 - m_2)
term sees the choice: g in {2, 4} with m_minus != m_plus.

``eq030_literal`` is an alternative profile mode driven by the level-set
function f(d) = cos(g*(theta1+d)),

    H(f) = [(n+g-1)*f - g*(m_minus-m_plus)/2] / sqrt(1-f^2),

signed so H(0) > 0.  Since sqrt(1 - f^2) = sin(g x) and
cot(y/2) = cot y + 1/sin y, it is the cot sum plus g cot(g x): the same sum
with weight m_minus + 1 at frequency g, so both modes run one algorithm.
It is kept for fidelity experiments; it disagrees with the cot-sum profile
for g = 1 (coefficient n instead of n-1) and for g = 2 with unequal
multiplicities (minimal level (p-q)/(p+q+2) instead of the classical
(p-q)/(p+q)), so cot_sum is the default everywhere, and a run in this mode
has its own minimal distance :attr:`CurvatureProfile.d0`.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import mpmath

from .errors import (
    ConstraintViolation,
    NotMeanConvex,
    OutOfRange,
    RootNotBracketed,
    UnsupportedMode,
)
from .numutil import is_ndarray, lazy_numpy

np = lazy_numpy()

ALLOWED_G = (1, 2, 3, 4, 6)

COT_SUM = "cot_sum"
EQ030_LITERAL = "eq030_literal"
PROFILE_MODES = (COT_SUM, EQ030_LITERAL)

MAX_DERIVATIVE_ORDER = 80


@dataclass(frozen=True)
class IsoparametricFamily:
    """Validated cone data: the five defining numbers, everything else
    derived from them; construct through :func:`make_family`."""

    g: int
    m_minus: int
    m_plus: int
    n: int
    theta1: float

    @property
    def theta(self):
        """Principal angles theta_k, ascending."""
        return tuple(self.theta1 + k * math.pi / self.g for k in range(self.g))

    @property
    def multiplicities(self):
        """m_k matched to theta, alternating from m_plus."""
        return _multiplicities(self.g, self.m_minus, self.m_plus)

    @property
    def d_focal(self):
        """Focal distance, where H blows down to -inf."""
        return math.pi / self.g - self.theta1

    @property
    def s_end(self):
        """End of the s-side integration, 1/(4n)."""
        return 1.0 / (4.0 * self.n)

    @cached_property
    def d0(self):
        """The minimal distance of the cot-sum profile."""
        return CurvatureProfile(self).d0

    def as_dict(self):
        return {
            "g": self.g,
            "m_minus": self.m_minus,
            "m_plus": self.m_plus,
            "n": self.n,
            "theta1": self.theta1,
        }


@dataclass(frozen=True)
class CurvatureProfile:
    """The mean-curvature profile of ``family`` in profile mode ``mode``."""

    family: IsoparametricFamily
    mode: str = COT_SUM

    def __post_init__(self):
        if self.mode not in PROFILE_MODES:
            raise UnsupportedMode(f"unknown profile mode {self.mode!r}")

    @cached_property
    def terms(self):
        """(w, f) pairs with H(d) = sum w f cot(f (theta1 + d)): (m_minus, g)
        and (m_plus - m_minus, g/2), zero weights dropped; eq030_literal adds
        g cot(g (theta1 + d)), one more unit of weight at frequency g."""
        fam = self.family
        lead = fam.m_minus + (1 if self.mode == EQ030_LITERAL else 0)
        terms = ((lead, fam.g), (fam.m_plus - fam.m_minus, fam.g // 2))
        return tuple((w, f) for w, f in terms if w)

    @cached_property
    def h0(self):
        """H(0) at binary64: positive exactly when this profile is mean convex."""
        return float(mean_curvature(self, 0.0))

    @cached_property
    def d0(self):
        """The unique zero of this H on (0, d_focal): the minimal member."""
        return minimal_distance(self)


def _validate(g, m_minus, m_plus, n, theta1):
    for name, v in (("g", g), ("m_minus", m_minus), ("m_plus", m_plus), ("n", n)):
        if not isinstance(v, int):
            raise ConstraintViolation("integer_fields", f"{name} must be an integer, got {v!r}")
    if g not in ALLOWED_G:
        raise ConstraintViolation("g_allowed", f"g must be in {{1,2,3,4,6}}, got {g}")
    if m_minus < 1 or m_plus < 1:
        raise ConstraintViolation("positive_multiplicities", "multiplicities must be >= 1")
    if n < 2:
        raise ConstraintViolation("ambient_dimension", f"n must be >= 2, got {n}")
    if g % 2 == 1 and m_minus != m_plus:
        raise ConstraintViolation(
            "odd_g_equal_multiplicities",
            f"g = {g} is odd so m_minus must equal m_plus, got ({m_minus}, {m_plus})",
        )
    if g == 6 and not (m_minus == m_plus and m_minus in (1, 2)):
        raise ConstraintViolation(
            "abresch_g6", f"g = 6 requires m_minus = m_plus in {{1, 2}}, got ({m_minus}, {m_plus})"
        )
    mult = _multiplicities(g, m_minus, m_plus)
    if sum(mult) != n - 1:
        raise ConstraintViolation(
            "multiplicity_sum",
            f"sum of multiplicities {sum(mult)} must equal n - 1 = {n - 1}",
        )
    theta1 = float(theta1)
    if not math.isfinite(theta1) or not 0.0 < theta1 < math.pi / g:
        raise ConstraintViolation(
            "theta1_range", f"theta1 must lie in (0, pi/g) = (0, {math.pi / g:.6g}), got {theta1}"
        )
    return theta1


def _multiplicities(g, m_minus, m_plus):
    return tuple(m_plus if k % 2 == 0 else m_minus for k in range(g))


def make_family(g, m_minus, m_plus, n, theta1) -> IsoparametricFamily:
    """Validate the structural constraints.

    Raises :class:`ConstraintViolation` naming the failed invariant, or
    :class:`NotMeanConvex` when H(0) <= 0.
    """
    theta1 = _validate(g, m_minus, m_plus, n, theta1)
    fam = IsoparametricFamily(g=g, m_minus=m_minus, m_plus=m_plus, n=n, theta1=theta1)
    h0 = CurvatureProfile(fam, COT_SUM).h0
    if h0 <= 0.0:
        raise NotMeanConvex(f"H(0) = {h0:.6g} <= 0 for theta1 = {theta1:.6g}")
    return fam


def _check_d(family, d, name="d"):
    """Reject d outside [0, d_focal), for an array at its first such element."""
    if is_ndarray(d):
        outside = d[~((d >= 0) & (d < family.d_focal))]
        if not outside.size:
            return
        d = float(outside[0])
    if not 0 <= d < family.d_focal:
        raise OutOfRange(
            f"{name} = {d!r} outside [0, d_focal) = [0, {family.d_focal!r})"
        )


def _in_number_type(fam, d):
    """(theta1, d, elementary functions) in d's number type: numpy for an
    array, mpmath at the caller's working precision for an mpf, else math."""
    if is_ndarray(d):
        return fam.theta1, d, np
    if isinstance(d, mpmath.mpf):
        return mpmath.mpf(fam.theta1), d, mpmath
    return fam.theta1, float(d), math


def _cot_sum(terms, x, lib, order):
    """sum w f^(order+1) P_order(cot(f x)) over the (weight, frequency) terms:
    the order-th derivative of H."""
    poly = _cot_derivative_poly(order)
    total = 0
    for w, f in terms:
        y = f * x
        total = total + w * f ** (order + 1) * _polyval_int(poly, lib.cos(y) / lib.sin(y))
    return total


def cot_sum_source(n_terms):
    """``(names, expression)``: H as one binary64 expression in
    ``x = t1 + d``, for an H of ``n_terms`` cot terms, over the constants
    ``names`` (``t1`` and ``wf0, f0, wf1, f1, ...``) to which
    :func:`cot_sum_constants` gives values.  The terms ``wf * cot(f x)``
    are summed left to right, the binary64 value of :func:`mean_curvature`
    bit for bit; the expression reads ``cos`` and ``sin`` from the math
    module."""
    names = ("t1", *(f"{p}{i}" for i in range(n_terms) for p in ("wf", "f")))
    expr = " + ".join(f"wf{i} * (cos(f{i} * x) / sin(f{i} * x))" for i in range(n_terms))
    return names, expr


def cot_sum_constants(profile: CurvatureProfile):
    """The values of :func:`cot_sum_source`'s names for ``profile``: theta1,
    then weight times frequency and frequency per term."""
    return (profile.family.theta1, *(v for w, f in profile.terms for v in (w * f, f)))


def _log_sin_sum_source(n_terms):
    """``(names, expression)``: the antiderivative of H as one binary64
    expression in ``x = t1 + d`` over ``t1`` and ``w0, f0, c0, ...``, the
    weight, frequency and ln sin(f t1) of each term, summed left to right:
    the binary64 value of :func:`curvature_antiderivative` bit for bit."""
    names = ("t1", *(f"{p}{i}" for i in range(n_terms) for p in ("w", "f", "c")))
    expr = " + ".join(f"w{i} * (log(sin(f{i} * x)) - c{i})" for i in range(n_terms))
    return names, expr


@lru_cache(maxsize=None)
def _binary64_kernel(source, n_terms):
    """``make(*constants)`` -> a function of d that evaluates ``source``'s
    expression, compiled once per source and number of terms."""
    names, expr = source(n_terms)
    text = (f"def make({', '.join(names)}):\n"
            "    def h(d):\n"
            "        x = t1 + d\n"
            f"        return {expr}\n"
            "    return h\n")
    namespace = {"cos": math.cos, "sin": math.sin, "log": math.log}
    exec(compile(text, f"<{source.__name__} of {n_terms} terms>", "exec"), namespace)
    return namespace["make"]


def binary64_curvature(profile: CurvatureProfile):
    """H(d) for binary64 callers that check d themselves: mean_curvature's
    value, bit for bit, without its per-call validation.  It is compiled
    from :func:`cot_sum_source`, the expression that the solver's fused
    right-hand sides inline, once per number of terms; the profile's
    constants are bound per call of this function."""
    return _binary64_kernel(cot_sum_source, len(profile.terms))(*cot_sum_constants(profile))


def binary64_antiderivative(profile: CurvatureProfile):
    """The antiderivative of H at x for binary64 callers that check x
    themselves: curvature_antiderivative's value, bit for bit, without its
    per-call validation; compiled as :func:`binary64_curvature` is."""
    t1 = profile.family.theta1
    return _binary64_kernel(_log_sin_sum_source, len(profile.terms))(
        t1, *(v for w, f in profile.terms for v in (w, f, math.log(math.sin(f * t1)))))


def mean_curvature(profile: CurvatureProfile, d):
    """Mean curvature of the parallel hypersurface at distance d, in d's number type."""
    return curvature_derivative(profile, d, 0)


@lru_cache(maxsize=None)
def _cot_derivative_poly(order: int):
    """Integer coefficients of P_l with (d/dx)^l cot x = P_l(cot x).

    P_0(c) = c and P_{l+1} = -(1 + c^2) * P_l'."""
    if order == 0:
        return (0, 1)
    prev = _cot_derivative_poly(order - 1)
    dprev = tuple(i * prev[i] for i in range(1, len(prev)))
    out = [0] * (len(dprev) + 2)
    for i, coeff in enumerate(dprev):
        out[i] -= coeff
        out[i + 2] -= coeff
    return tuple(out)


def _polyval_int(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def curvature_derivative(profile: CurvatureProfile, d, order: int):
    """Order-th derivative of H at d (order 0 is H) in d's number type, exact at every order."""
    fam = profile.family
    _check_d(fam, d)
    if order < 0 or order > MAX_DERIVATIVE_ORDER:
        raise OutOfRange(f"derivative order {order} outside [0, {MAX_DERIVATIVE_ORDER}]")
    t1, dd, lib = _in_number_type(fam, d)
    return _cot_sum(profile.terms, t1 + dd, lib, order)


def curvature_antiderivative(profile: CurvatureProfile, x):
    """Antiderivative of H normalized to vanish at 0, in x's number type, at a
    scalar or an array of nodes: sum w [ln sin(f (theta1 + x)) - ln sin(f theta1)]
    over the profile's (weight, frequency) terms."""
    fam = profile.family
    _check_d(fam, x, name="x")
    t1, xx, lib = _in_number_type(fam, x)
    total = 0
    for w, f in profile.terms:
        total = total + w * (lib.log(lib.sin(f * (t1 + xx))) - lib.log(lib.sin(f * t1)))
    return total


# relative step at which the Newton polish of minimal_distance stops
MINIMAL_DISTANCE_TOL = 1e-14


def minimal_distance(profile: CurvatureProfile) -> float:
    """Unique zero of the profile's H on (0, d_focal): bracketed bisection to
    1e-3 followed by a Newton polish using the exact derivative."""
    if profile.h0 <= 0:
        raise RootNotBracketed(f"H(0) = {profile.h0:.6g} <= 0")
    # keep hi strictly interior: H blows down to -inf at d_focal
    lo, hi = 0.0, profile.family.d_focal * (1 - 1e-7)
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if float(mean_curvature(profile, mid)) > 0:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    for _ in range(60):
        h = float(mean_curvature(profile, d))
        dh = float(curvature_derivative(profile, d, 1))
        step = h / dh
        d_new = d - step
        # Newton left the bracket, or left the domain when d0 is within
        # rounding of 0 (theta1 at the mean-convex limit)
        if not max(lo - 1e-3, 0.0) <= d_new <= hi + 1e-3:
            d_new = 0.5 * (lo + hi)
        if float(mean_curvature(profile, d_new)) > 0:
            lo = max(lo, min(d_new, hi))
        else:
            hi = min(hi, max(d_new, lo))
        if abs(d_new - d) <= MINIMAL_DISTANCE_TOL * max(1.0, abs(d_new)):
            return d_new
        d = d_new
    return d


# Built-in example tuples for the catalog listing: g = 1 spheres, g = 2
# sphere products, g = 3 with the four admissible multiplicities, and
# representative g = 4 / g = 6 tuples.  theta1 defaults keep H(0) > 0.
BUILTIN_FAMILIES = (
    ("g1_sphere_n2", 1, 1, 1, 2, math.pi / 4),
    ("g1_sphere_n3", 1, 2, 2, 3, math.pi / 4),
    ("g2_product_11", 2, 1, 1, 3, math.pi / 6),
    ("g2_product_12", 2, 1, 2, 4, math.pi / 6),
    ("g2_product_22", 2, 2, 2, 5, math.pi / 6),
    ("g3_m1", 3, 1, 1, 4, math.pi / 12),
    ("g3_m2", 3, 2, 2, 7, math.pi / 12),
    ("g3_m4", 3, 4, 4, 13, math.pi / 12),
    ("g3_m8", 3, 8, 8, 25, math.pi / 12),
    ("g4_m11", 4, 1, 1, 5, math.pi / 16),
    ("g4_m22", 4, 2, 2, 9, math.pi / 16),
    ("g4_m45", 4, 4, 5, 19, math.pi / 16),
    ("g6_m1", 6, 1, 1, 7, math.pi / 24),
    ("g6_m2", 6, 2, 2, 13, math.pi / 24),
)


def builtin_catalog():
    """Name -> validated family for the built-in examples."""
    return {name: make_family(g, mm, mp_, n, t1)
            for name, g, mm, mp_, n, t1 in BUILTIN_FAMILIES}
