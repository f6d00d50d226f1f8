"""Singular initial value problem: bootstrap, integration, monitors,
d-side conversion, and continuation past the minimal parallel hypersurface.

The s-side unknown gamma(s) solves

    (1 - 2ns) gamma' - H(gamma) + 4 (s gamma' + s^2 gamma'')/(1 + 4 s^2 gamma'^2) = 0,
    gamma(0) = 0,

singular at s = 0; integration starts at a bootstrap point s_b where the
optimally truncated formal series is accurate to a fraction of the local
tolerance.  The regularized variant adds eps*gamma'' and starts at s = 0 with
slope B(eps).  Runs carry the energy first integral

    eps (gamma'^2 - gamma'(0)^2)/2 + (1/2) ln(1 + 4 s^2 gamma'^2)
        + int_0^s (1 - 2nt) gamma'^2 dt - Hcal(gamma(s)) = 0

as an exact-zero monitor (Hcal the closed-form antiderivative of H).

Past the handoff the d-side chart takes over:

    phi'' = (1 + phi'^2) (n - e^{2 phi}/2 - phi' H(d)),

monitored through the first integral
ln(1 + phi'^2) + 2 int H phi'^2 - 2n phi + e^{2 phi}/2 = const, which also
justifies continuing through d0 (where H changes sign) to d0 + margin.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Optional

from .catalog import (
    CurvatureProfile,
    binary64_antiderivative,
    binary64_curvature,
    cot_sum_constants,
    cot_sum_source,
    curvature_antiderivative,
    mean_curvature,
)
from .errors import (
    BlowUpDetected,
    IdentityDrift,
    MonotonicityLost,
    NotInvertible,
    NotMeanConvex,
    NoUsefulTruncation,
    OutOfRange,
    StepSizeCollapse,
)
from .numutil import (DOUBLE_PREC, GAUSS4_NODES, GAUSS4_WEIGHTS, cubic_hermite, hermite_eval,
                      lazy_numpy, left_sum, loglog_slope, max_abs, pairwise_sum, write_csv)
from .series import (DEFAULT_K, FormalSeries, compute_coefficients, compute_epsilon_corrections,
                     evaluate_truncated)
from .stepper import Rhs, compile_rhs, integrate
# unused here: perfbench's tracing tests expect this module to bind it (EXPECTED_BINDINGS)
from .stepper import integrate_implicit  # noqa: F401

np = lazy_numpy()

S_SIDE = "s_side"
D_SIDE = "d_side"

S_SIDE_COLUMNS = ("s", "gamma", "dgamma", "d2gamma", "local_err", "energy_residual")
D_SIDE_COLUMNS = ("d", "phi", "dphi", "g", "eq130_residual", "eq350_drift")


BOOTSTRAP_FACTOR = 0.01   # series error target at the bootstrap point = factor * tol
D_MARGIN = 0.05           # continuation overshoot past d0 (capped)
HANDOFF_FRACTION = 0.5    # d-side handoff at s ~ fraction * s_end
BLOWUP_PHI = 30.0         # |phi| past which continuation reports a blow-up
BLOWUP_DPHI = 1e8         # |phi'| past which continuation reports a blow-up
IDENTITY_DRIFT_TOL = 1e-5  # largest first-integral drift continuation accepts
MAX_STEPS = 400_000       # step budget (accepted + rejected) of each explicit integration
# continuation probes once for a vertical tangent at the first step past this
# |phi'|; no run that reaches its default target comes near it (max ~15)
TANGENT_PROBE_DPHI = 32.0
# arclength the probe covers before it gives up; its steps are capped at a
# hundredth of it, so the cubic Hermite that locates the tangent stays sharp
TANGENT_PROBE_ARCLENGTH = 1.0
# rows a stored profile needs: the d-side check differences phi' at interior nodes
MIN_PROFILE_ROWS = 3
# the regularizations of an epsilon study, decreasing
DEFAULT_EPS_LIST = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10                 # local error tolerance (atol = rtol)
    eps: float = 0.0                   # regularization (0 = direct singular problem)
    s_bootstrap: Optional[float] = None  # explicit handoff point (overrides the scan)
    correction_N: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise OutOfRange(f"SolverConfig: tol must be finite and > 0, got {self.tol!r}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise OutOfRange(f"SolverConfig: eps must be finite and >= 0, got {self.eps!r}")


@dataclass
class SolutionProfile:
    """Sampled solution on one chart of the run whose H is ``curvature``; ``columns``
    maps names to equal-length columns, lists of floats as the solver and
    :func:`read_profile_csv` make them, and ``profile[name]`` is that
    column as an ndarray, for callers that compute on arrays; ``meta``
    records this chart's own integration (eps, tol, steps, rejects, ...)
    and no other's."""

    side: str
    curvature: CurvatureProfile
    columns: dict
    meta: dict = field(default_factory=dict)

    def __getitem__(self, name):
        return np.asarray(self.columns[name])


def equation_residual(s, gamma, dgamma, d2gamma, eps, profile: CurvatureProfile):
    """Left side of the profile equation at supplied state (exact zero for a
    true solution); scalars or arrays of nodes."""
    h = mean_curvature(profile, gamma)
    n = profile.family.n
    w2 = 1 + 4 * s * s * dgamma * dgamma
    return (eps * d2gamma + 4 * (s * s * d2gamma + s * dgamma) / w2
            + (1 - 2 * n * s) * dgamma - h)


def _bootstrap_point(series: FormalSeries, target: float, s_hi: float):
    """(s, gamma, gamma') at the largest sampled s where both truncations
    (:func:`evaluate_truncated`) estimate their error below ``target``;
    gamma' is evaluated only where gamma's estimate passes.  Raises
    NoUsefulTruncation, naming what to change, when no sampled point
    qualifies."""
    s = s_hi
    while s > 1e-8:
        try:
            ev0 = evaluate_truncated(series, s, derivative=0)
            # the max below rejects this point whatever ev1 reads
            if not ev0.error_estimate > target:
                ev1 = evaluate_truncated(series, s, derivative=1)
                if max(ev0.error_estimate, ev1.error_estimate) <= target:
                    return s, ev0, ev1
        except NoUsefulTruncation:
            pass
        s *= 0.85
    raise NoUsefulTruncation(
        f"series cannot reach bootstrap error {target:.3e} anywhere below {s_hi!r}; "
        f"raise the series precision (--precision, {series.precision_bits} bits here) "
        "or loosen --tol"
    )


def _series_energy_integral(series: FormalSeries, s_b: float, n: int, k_star: int):
    """int_0^{s_b} (1 - 2nt) gamma'(t)^2 dt with gamma' as the truncated
    series polynomial (exact polynomial integration).  Each coefficient of
    gamma'^2 is summed left to right, and the terms over the powers of s_b
    in numpy's pairwise order: the run's step control reads the last bits
    of this value, and through it every later s-side node does.  At large
    k* the products overflow binary64 to inf or nan, which the caller
    rejects."""
    c = [float(series.coefficient(k)) / math.factorial(k - 1) for k in range(1, k_star + 1)]
    # coefficients of gamma'(t)^2: sq[p] = sum over i + j = p of c[i] c[j], i ascending
    sq = []
    for p in range(2 * k_star - 1):
        part = c[max(0, p - k_star + 1):p + 1]
        sq.append(left_sum(map(operator.mul, part, reversed(part))))
    val = pairwise_sum([q * s_b ** (p + 1) / (p + 1) for p, q in enumerate(sq)])
    return val - 2.0 * n * pairwise_sum([q * s_b ** (p + 2) / (p + 2) for p, q in enumerate(sq)])


def _require_series_of(curvature: CurvatureProfile, series: FormalSeries):
    """Raise :class:`OutOfRange` naming both when ``series`` is of another
    profile mode or family than the run's ``curvature``."""
    if series.curvature != curvature:
        theirs = series.curvature
        raise OutOfRange(f"a series of profile mode {theirs.mode} and family "
                         f"{theirs.family.as_dict()} for a run of profile mode "
                         f"{curvature.mode} and family {curvature.family.as_dict()}")


# ---------------------------------------------------------------------------
# the right-hand sides, as source that the stepper compiles with a fused
# attempt; each is compiled once per number of cot terms of H (catalog's
# cot_sum_source, in x = theta1 + d) and bound to a run's constants by
# calling it
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _s_side_kernel(n_terms):
    """The s-side equation solved for gamma'' (eps = 0 is the direct
    problem), and the energy integrand; H is not defined off [0, d_focal)."""
    h_names, h = cot_sum_source(n_terms)
    return compile_rhs(Rhs(
        name="s_side_rhs", module=__name__, t="s", y=("gamma", "dgamma", "energy"),
        consts=("n", "eps", "d_focal", *h_names),
        lines=("w2 = 1 + 4 * s * s * dgamma * dgamma",
               "x = t1 + gamma",
               f"hg = {h}",
               "d2 = ((hg - (1 - 2 * n * s) * dgamma) * w2 - 4 * s * dgamma) "
               "/ (4 * s * s + eps * w2)"),
        out="dgamma, d2, (1 - 2 * n * s) * dgamma * dgamma",
        domain="0 <= gamma < d_focal"))


# the largest phi whose e^{2 phi} is finite in binary64 (log of the largest
# float, halved): past it the d-side and curve-chart bodies are not defined,
# and the attempt rejects the stage instead of math.exp raising OverflowError
PHI_EXP_MAX = math.log(sys.float_info.max) / 2


@functools.lru_cache(maxsize=None)
def _d_side_kernel(n_terms):
    """phi'' in the d-side chart, and the integrand H phi'^2 of its first
    integral."""
    h_names, h = cot_sum_source(n_terms)
    return compile_rhs(Rhs(
        name="d_side_rhs", module=__name__, t="d", y=("phi", "dphi", "q"),
        consts=("n", *h_names),
        lines=("x = t1 + d",
               f"hd = {h}",
               "d2 = (1 + dphi * dphi) * (n - 0.5 * exp(2 * phi) - dphi * hd)"),
        out="dphi, d2, hd * dphi * dphi",
        domain=f"phi <= {PHI_EXP_MAX!r}"))


@functools.lru_cache(maxsize=None)
def _curve_kernel(n_terms):
    """The d-side equation in arclength sigma and tangent angle alpha, the
    tangent probe's chart (:func:`_probe_vertical_tangent`)."""
    h_names, h = cot_sum_source(n_terms)
    return compile_rhs(Rhs(
        name="curve_rhs", module=__name__, t="sigma", y=("d", "phi", "alpha"),
        consts=("n", *h_names),
        lines=("c = cos(alpha)", "s = sin(alpha)", "x = t1 + d"),
        out=f"c, s, (n - 0.5 * exp(2 * phi)) * c - ({h}) * s",
        domain=f"phi <= {PHI_EXP_MAX!r}"))


def _rhs(kernel, curvature: CurvatureProfile, *consts):
    """``kernel``'s RHS for H of ``curvature``, bound to ``consts`` and H's constants."""
    return kernel(len(curvature.terms))(*consts, *cot_sum_constants(curvature))


def integrate_gamma(curvature: CurvatureProfile, series: Optional[FormalSeries],
                    config: SolverConfig,
                    initial_slope: Optional[float] = None) -> SolutionProfile:
    """Integrate the s-side problem of ``curvature`` to s_end.

    Direct problem (eps = 0): bootstrap state comes from the truncated series
    at s_b (series error <= BOOTSTRAP_FACTOR * tol).  Regularized problem
    (eps > 0): starts at s = 0 with slope ``initial_slope``, the corrected
    B(eps) (a bare H(0) reproduces the uncorrected regularization for
    ablation runs).

    Raises :class:`NotMeanConvex` when this H has H(0) <= 0, and
    :class:`OutOfRange` for a series of another profile mode or family, or
    for a direct run without a series (a regularized run reads none).  A
    trial stage outside [0, d_focal) is rejected and the step shrinks; a
    run whose step size collapses raises :class:`StepSizeCollapse`.
    """
    family = curvature.family
    if series is not None:
        _require_series_of(curvature, series)
    if curvature.h0 <= 0.0:
        raise NotMeanConvex(f"H(0) = {curvature.h0:.6g} <= 0 in profile mode {curvature.mode} "
                            f"for theta1 = {family.theta1:.6g}")
    n = family.n
    eps = config.eps
    s_end = family.s_end
    tol = config.tol
    f = _rhs(_s_side_kernel, curvature, n, eps, family.d_focal)

    def guard(t, y):
        if y[1] <= 0:
            raise MonotonicityLost(t)

    series_meta = {}
    if eps == 0:
        if series is None:
            raise OutOfRange("a direct run (eps = 0) needs the formal series of its profile "
                             "for its bootstrap state; none was given")
        if config.s_bootstrap is not None:
            s_b = config.s_bootstrap
            ev0 = evaluate_truncated(series, s_b, derivative=0)
            ev1 = evaluate_truncated(series, s_b, derivative=1)
        else:
            s_b, ev0, ev1 = _bootstrap_point(series, BOOTSTRAP_FACTOR * tol, s_end / 2)
        g0, dg0 = float(ev0.value), float(ev1.value)
        e0 = _series_energy_integral(series, s_b, n, ev1.k_star)
        y0 = (g0, dg0, e0)
        if not all(math.isfinite(v) for v in y0):
            raise OutOfRange(
                f"bootstrap state (gamma, gamma', energy) = {y0!r} at s_b = {s_b!r} is "
                f"not finite: the series energy integral over the K = {series.K} series, "
                f"cut at k* = {ev1.k_star}, overflows binary64; retry with a smaller --K "
                f"(the default is {DEFAULT_K})"
            )
        t0 = s_b
        series_meta = {
            "s_b": s_b,
            "series_error_gamma": ev0.error_estimate,
            "series_error_dgamma": ev1.error_estimate,
            "series_K": series.K,
        }
    else:
        if initial_slope is None:
            raise OutOfRange("eps > 0 needs an explicit initial slope")
        y0 = (0.0, initial_slope, 0.0)
        t0 = 0.0

    result = integrate(f, t0, list(y0), s_end, rtol=tol, atol=tol,
                       max_step=(s_end - t0) / 8, max_steps=MAX_STEPS, accept_hook=guard)

    s_nodes = result.ts
    gam, dgam, energy = map(list, zip(*result.ys))
    d2gam = [k[1] for k in result.fs]
    # dgam[0] is the initial slope of a regularized run; at eps = 0 the term
    # is 0; the stepper kept every node's gamma in [0, d_focal)
    dg0 = dgam[0]
    cal = binary64_antiderivative(curvature)
    res_energy = [eps * (dg * dg - dg0 * dg0) / 2.0 + 0.5 * math.log1p(4 * (s * s) * (dg * dg))
                  + e - cal(g)
                  for s, g, dg, e in zip(s_nodes, gam, dgam, energy)]
    return SolutionProfile(
        side=S_SIDE, curvature=curvature,
        columns={
            "s": s_nodes, "gamma": gam, "dgamma": dgam, "d2gamma": d2gam,
            "local_err": result.errs, "energy": energy,
            "energy_residual": res_energy,
        },
        meta={
            "eps": eps, "tol": tol, "s_end": s_end,
            "n_steps": result.n_steps, "n_rejected": result.n_rejected,
            "sum_local_err": math.fsum(result.errs), **series_meta,
        },
    )


@dataclass(frozen=True)
class ResidualReport:
    """A monitor's residual at the stored nodes and its largest magnitude."""

    values: np.ndarray
    max_abs: float

    @classmethod
    def of(cls, values):
        return cls(values=values, max_abs=float(np.max(np.abs(values))))


def energy_residual(profile_s: SolutionProfile) -> ResidualReport:
    """Recompute the energy-identity residual at the stored nodes, with the
    run's eps from ``meta["eps"]`` (0 when absent, as in a profile read back
    from CSV), the integral rebuilt by per-interval Gauss quadrature on the
    cubic Hermite reconstruction of gamma' and anchored so the first node
    has zero residual."""
    eps = profile_s.meta.get("eps", 0.0)
    cols = profile_s.columns
    s = profile_s["s"]
    gam = profile_s["gamma"]
    dgam = profile_s["dgamma"]
    n = profile_s.curvature.family.n
    cal = curvature_antiderivative(profile_s.curvature, gam)
    vals = (eps * dgam ** 2 / 2.0 + 0.5 * np.log1p(4 * s ** 2 * dgam ** 2) - cal
            + _cumulative_energy(cols["s"], cols["dgamma"], cols["d2gamma"], n))
    return ResidualReport.of(vals - vals[0])


# the cubic Hermite basis (h00, h10, h01, h11) at each Gauss node, formed as
# numutil.cubic_hermite forms it
_HERMITE_AT_GAUSS = tuple(((1 + 2 * x) * (1 - x) ** 2, x * (1 - x) ** 2,
                           x * x * (3 - 2 * x), x * x * (x - 1)) for x in GAUSS4_NODES)


def _quadrature_source(hermites, lines, integrand, consts):
    """Source of ``cumulative(s, *columns, *consts)``: the running integral
    from the first node of the grid s, 0.0 there, with the 4-point Gauss
    rule on each interval, as straight-line code per interval.

    ``hermites`` maps a name to the (value, slope) columns of the cubic
    Hermite that the name holds at each Gauss node; ``lines`` are statements
    over those names and ``t``, the node's abscissa; ``integrand`` is the
    integrand there.  The Gauss weight multiplies it first, the four terms
    are summed left to right and their sum times the width is added to the
    running sum: the order in which numpy's vectorised rule summed them."""
    columns = list(dict.fromkeys(c for pair in hermites.values() for c in pair))
    ends = ", ".join(f"{c}0, {c}1" for c in columns)
    pairs = ", ".join(f"{c}, {c}[1:]" for c in columns)
    body = ["w = b - a"]
    for k, (x, weight, (h00, h10, h01, h11)) in enumerate(
            zip(GAUSS4_NODES, GAUSS4_WEIGHTS, _HERMITE_AT_GAUSS)):
        body.append(f"t = a + {x!r} * w")
        body += [f"{name} = {h00!r} * {y}0 + {h10!r} * w * {dy}0 "
                 f"+ {h01!r} * {y}1 + {h11!r} * w * {dy}1"
                 for name, (y, dy) in hermites.items()]
        body += [*lines, f"p{k} = {weight!r} * {integrand}"]
    body += ["acc = acc + (p0 + p1 + p2 + p3) * w", "out.append(acc)"]
    return "\n".join([f"def cumulative(s, {', '.join(columns + list(consts))}):",
                      "    out = [0.0]",
                      "    acc = 0.0",
                      f"    for a, b, {ends} in zip(s, s[1:], {pairs}):",
                      *(f"        {line}" for line in body),
                      "    return out"]) + "\n"


def _compile_quadrature(source, filename):
    namespace = {"cos": math.cos, "sin": math.sin}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["cumulative"]


@functools.lru_cache(maxsize=None)
def _energy_quadrature():
    """cumulative(s, dgam, d2gam, n): int (1 - 2nt) gamma'^2 dt, gamma' the
    cubic Hermite through (dgam, d2gam)."""
    return _compile_quadrature(_quadrature_source(
        {"dg": ("dgam", "d2gam")}, (), "(1 - 2 * n * t) * dg * dg", ("n",)),
        "<energy quadrature>")


@functools.lru_cache(maxsize=None)
def _q_quadrature(n_terms):
    """cumulative(s, gam, dgam, d2gam, d_focal, check, *cot_sum_constants):
    int H(gamma) / (4 t^2 gamma') dt, gamma and gamma' the cubic Hermites
    through (gam, dgam) and (dgam, d2gam), H inlined from
    :func:`cot_sum_source`; ``check(d)`` is called on a gamma outside
    [0, d_focal), where H is not defined, and raises."""
    h_names, h = cot_sum_source(n_terms)
    return _compile_quadrature(_quadrature_source(
        {"gv": ("gam", "dgam"), "dg": ("dgam", "d2gam")},
        ("if not 0.0 <= gv < d_focal:", "    check(gv)", "x = t1 + gv"),
        f"({h}) / (4.0 * t * t * dg)", ("d_focal", "check", *h_names)),
        f"<H quadrature of {n_terms} cot terms>")


def _cumulative_energy(s, dgam, d2gam, n):
    """Cumulative int (1-2nt) gamma'^2 dt over the node grid s, as a list;
    gamma' is reconstructed per interval as the cubic Hermite matching
    (dgam, d2gam)."""
    return _energy_quadrature()(s, dgam, d2gam, n)


def phi_equation_residual(phi, dphi, d2phi, h, n):
    """phi''/(1 + phi'^2) + phi' H - n + e^{2 phi}/2 at one node, zero for
    the true solution; h is H(d) there.  Past PHI_EXP_MAX it is inf, as
    numpy's exp would make it."""
    e = math.inf if phi > PHI_EXP_MAX else 0.5 * math.exp(2 * phi)
    return d2phi / (1 + dphi * dphi) + dphi * h - n + e


def phi_first_integral(phi, dphi, q, n):
    """ln(1 + phi'^2) + 2q - 2n phi + e^{2 phi}/2 at one node, with
    q = int H phi'^2; it stays constant along a solution.  Past PHI_EXP_MAX
    it is inf, as numpy's exp would make it."""
    e = math.inf if phi > PHI_EXP_MAX else 0.5 * math.exp(2 * phi)
    return math.log1p(dphi * dphi) + 2.0 * q - 2.0 * n * phi + e


def to_d_profile(profile_s: SolutionProfile) -> SolutionProfile:
    """Invert s -> d = gamma(s) and change chart: g(d) = s, phi = -ln(s)/2,
    phi' = -1/(2 s gamma'); cross-checks the g-equation residual at each node."""
    cols = profile_s.columns
    first = bisect.bisect_right(cols["s"], 0.0)   # the nodes with s > 0; s ascends
    s, gam, dgam, d2gam = (cols[c][first:] for c in ("s", "gamma", "dgamma", "d2gamma"))
    if any(v <= 0 for v in dgam):
        raise NotInvertible("gamma' <= 0 at a stored node")
    prof = profile_s.curvature
    n = prof.family.n
    phi = [-0.5 * math.log(v) for v in s]
    dphi = [-1.0 / (2.0 * a * b) for a, b in zip(s, dgam)]
    d2phi = [(b + a * c) / (2.0 * (a * a) * b ** 3) for a, b, c in zip(s, dgam, d2gam)]
    h_vals = list(map(binary64_curvature(prof), gam))
    eq130 = list(map(phi_equation_residual, phi, dphi, d2phi, h_vals, repeat(n)))
    # g-equation residual: g' = 1/gamma', g'' = -gamma''/gamma'^3
    eq140 = []
    for a, b, c, hv in zip(s, dgam, d2gam, h_vals):
        gp = 1.0 / b
        gpp = -c / b ** 3
        eq140.append((1.0 - hv * gp) / (2.0 * a)
                     + 2.0 * (gp * gp - a * gpp) / (gp * gp + 4.0 * (a * a)) - n)
    # continuation first integral, anchored at the first node; the integral
    # int H phi'^2 dd is pulled back to the s-grid: H(gamma)/(4 s^2 gamma') ds
    q = _cumulative_q_from_s(s, gam, dgam, d2gam, prof)
    ident = list(map(phi_first_integral, phi, dphi, q, repeat(n)))
    return SolutionProfile(
        side=D_SIDE, curvature=prof,
        columns={
            "d": gam, "phi": phi, "dphi": dphi, "d2phi": d2phi, "g": s,
            "eq130_residual": eq130, "eq140_residual": eq140,
            "eq350_drift": [v - ident[0] for v in ident],
        },
    )


def _cumulative_q_from_s(s, gam, dgam, d2gam, prof):
    """Cumulative int H(gamma) / (4 t^2 gamma') dt over the node grid s, as
    a list, gamma and gamma' as the cubic Hermites through (gam, dgam) and
    (dgam, d2gam); a gamma outside [0, d_focal) raises
    :class:`OutOfRange`."""
    return _q_quadrature(len(prof.terms))(
        s, gam, dgam, d2gam, prof.family.d_focal, functools.partial(mean_curvature, prof),
        *cot_sum_constants(prof))


def _probe_vertical_tangent(curvature, d, phi, dphi, d_target, tol):
    """Raise :class:`BlowUpDetected` at the first vertical tangent of the
    curve (d, phi) of ``curvature``'s H past the point (d, phi, phi') if it
    lies clearly below ``d_target``; otherwise return the probe's run (None
    if its steps collapse), which stops at the tangent, at ``d_target`` or
    after TANGENT_PROBE_ARCLENGTH.

    In arclength sigma and tangent angle alpha = atan(phi') the phi chart's
    equation is regular through the tangent (Kleene & Moller, Trans. AMS 366,
    2014):

        d' = cos(alpha),  phi' = sin(alpha),
        alpha' = (n - e^{2 phi}/2) cos(alpha) - H(d) sin(alpha),

    and the tangent is the event cos(alpha) = 0, located on the run's last
    step by cubic Hermite interpolation of alpha (slopes alpha') and of d
    (slopes cos(alpha)).  "Clearly below" is by sqrt(tol): on every
    built-in window, at tol 1e-12 to 1e-6, the located d was within
    1e-4 sqrt(tol) of the phi chart's step-collapse abscissa at tol 1e-12."""
    try:
        run = integrate(_rhs(_curve_kernel, curvature, curvature.family.n), 0.0,
                        [d, phi, math.atan(dphi)], TANGENT_PROBE_ARCLENGTH, rtol=tol, atol=tol,
                        max_step=TANGENT_PROBE_ARCLENGTH / 100,
                        accept_hook=lambda sigma, y: math.cos(y[2]) <= 0.0 or y[0] >= d_target)
    except StepSizeCollapse:
        return None
    sigma0, sigma1 = run.ts[-2:]
    (d0, _, a0), (d1, _, a1) = run.ys[-2:]
    (c0, _, da0), (c1, _, da1) = run.fs[-2:]
    if c1 > 0.0:
        return run
    h = sigma1 - sigma0
    # bisect for the odd multiple of pi/2 that alpha crossed on this step
    a_cross = math.pi * (round((a0 + a1) / (2 * math.pi) - 0.5) + 0.5)
    side = a0 - a_cross
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (cubic_hermite(mid, h, a0, da0, a1, da1) - a_cross) * side > 0:
            lo = mid
        else:
            hi = mid
    d_window = float(cubic_hermite(0.5 * (lo + hi), h, d0, c0, d1, c1))
    if d_window < d_target - math.sqrt(tol):
        raise BlowUpDetected(d_window, "vertical tangent of the curve (d, phi); "
                                       f"retry with d_target below {d_window!r}")
    return run


def continue_phi(profile_d: SolutionProfile, d_target: Optional[float] = None,
                 config: Optional[SolverConfig] = None) -> SolutionProfile:
    """Continue the d-side solution from a handoff node to d_target
    (default d0 + margin), guarding with the first-integral drift; d0 is the
    zero of the run's own profile (:attr:`CurvatureProfile.d0`).  A target
    at or below the handoff node d_h, or past d0 + margin or d_focal, raises
    :class:`OutOfRange`.

    Past d0 the chart exists only for a family-dependent distance: the curve
    (d, phi) can meet a vertical tangent before d_target.  At the first
    accepted step with |phi'| > TANGENT_PROBE_DPHI the accept hook probes for
    that tangent once, in the tangent-angle chart
    (:func:`_probe_vertical_tangent`), and raises :class:`BlowUpDetected` at
    the tangent's d if it lies clearly below d_target; the phi chart's own
    steps are left as they are.  A step-size collapse of the phi chart (a
    tangent the probe left to it) raises :class:`BlowUpDetected` at the last
    good d."""
    config = config or SolverConfig()
    prof = profile_d.curvature
    family = prof.family
    d0 = prof.d0
    margin_cap = 0.5 * (family.d_focal - d0)
    margin = min(D_MARGIN, margin_cap)
    if d_target is None:
        d_target = d0 + margin
    if not d_target < family.d_focal:
        raise OutOfRange(f"d_target {d_target!r} must stay below d_focal {family.d_focal!r}")
    if d_target > d0 + margin + 1e-12:
        raise OutOfRange(
            f"d_target {d_target!r} exceeds d0 + margin = {d0 + margin!r}"
        )

    cols = profile_d.columns
    s_vals = cols["g"]
    s_handoff = HANDOFF_FRACTION * float(s_vals[-1])
    idx = min(range(len(s_vals)), key=lambda i: abs(s_vals[i] - s_handoff))
    d_h = float(cols["d"][idx])
    phi_h = float(cols["phi"][idx])
    dphi_h = float(cols["dphi"][idx])
    if not d_target > d_h:
        raise OutOfRange(f"d_target {d_target!r} must exceed the handoff d_h = {d_h!r}, "
                         "where continuation starts")

    h_fast = binary64_curvature(prof)
    n = family.n
    f = _rhs(_d_side_kernel, prof, n)
    probed = False

    def guard(d, y):
        nonlocal probed
        if abs(y[0]) > BLOWUP_PHI:
            raise BlowUpDetected(d, f"|phi| exceeded {BLOWUP_PHI}")
        if abs(y[1]) > BLOWUP_DPHI:
            raise BlowUpDetected(d, f"|phi'| exceeded {BLOWUP_DPHI}")
        # the mean curvature must stay nonnegative up to the minimal member;
        # the margin past d0 is where it may go negative
        if d <= d0 and h_fast(d) < -1e-12:
            raise OutOfRange(f"H({d!r}) < 0 before d0 = {d0!r}")
        if not probed and abs(y[1]) > TANGENT_PROBE_DPHI:
            probed = True
            _probe_vertical_tangent(prof, d, y[0], y[1], d_target, config.tol)

    # the step cap keeps the stored nodes dense enough that downstream cubic
    # Hermite resampling (meshing) stays below the discrete-operator error
    try:
        result = integrate(f, d_h, [phi_h, dphi_h, 0.0], d_target,
                           rtol=config.tol, atol=config.tol,
                           max_step=(d_target - d_h) / 64,
                           max_steps=MAX_STEPS, accept_hook=guard)
    except StepSizeCollapse as collapse:
        # existence past d0 is only guaranteed for a family-dependent margin;
        # a stall en route marks the chart's vertical tangent
        raise BlowUpDetected(
            collapse.last_good,
            "step collapse approaching a vertical tangent; "
            f"retry with d_target below {collapse.last_good!r}",
        ) from collapse

    d_nodes = result.ts
    phi, dphi, q = map(list, zip(*result.ys))
    d2phi = [k[1] for k in result.fs]
    eq130 = list(map(phi_equation_residual, phi, dphi, d2phi, map(h_fast, d_nodes), repeat(n)))
    ident = list(map(phi_first_integral, phi, dphi, q, repeat(n)))
    drift = [v - ident[0] for v in ident]
    max_drift = max_abs(drift)
    if max_drift > IDENTITY_DRIFT_TOL:
        raise IdentityDrift(
            f"first-integral drift {max_drift:.3e} exceeds {IDENTITY_DRIFT_TOL:.3e}"
        )

    # overlap against the incoming profile on [d_h, d_max]: the continuation's
    # cubic Hermite (as hermite_eval extends it) at each incoming node there
    diffs = []
    last = len(d_nodes) - 2
    for x, phi_old in zip(cols["d"], cols["phi"]):
        if x >= d_h:
            i = min(max(bisect.bisect_right(d_nodes, x) - 1, 0), last)
            w = d_nodes[i + 1] - d_nodes[i]
            t = (x - d_nodes[i]) / w if w > 0 else 0.0
            diffs.append(cubic_hermite(t, w, phi[i], dphi[i], phi[i + 1], dphi[i + 1])
                         - phi_old)
    overlap_max = max_abs(diffs) if diffs else 0.0

    return SolutionProfile(
        side=D_SIDE, curvature=prof,
        columns={
            "d": d_nodes, "phi": phi, "dphi": dphi, "d2phi": d2phi,
            "g": [math.exp(-2 * p) for p in phi],
            "eq130_residual": eq130, "eq350_drift": drift,
            "local_err": result.errs,
        },
        meta={
            "d_h": d_h, "s_h": float(s_vals[idx]), "d_target": d_target, "d0": d0,
            "max_identity_drift": max_drift, "overlap_max_diff": overlap_max,
            "n_steps": result.n_steps, "n_rejected": result.n_rejected,
            "sum_local_err": math.fsum(result.errs),
        },
    )


@dataclass(frozen=True)
class EpsilonStudyReport:
    eps_list: tuple
    errors: tuple
    slope: float
    monotone: bool
    statuses: tuple


def epsilon_convergence_study(curvature: CurvatureProfile, config: SolverConfig,
                              eps_list, series: FormalSeries,
                              direct: SolutionProfile) -> EpsilonStudyReport:
    """Slope of max|gamma_eps - gamma_0| on [0, s_end] against eps
    (first-order convergence of the corrected regularization).

    The corrections B(eps) are fitted here to order ``config.correction_N``
    from ``series``, at its precision; a series of another profile raises
    :class:`OutOfRange`.  ``direct`` is the eps = 0 profile that
    :func:`integrate_gamma` returns for this ``curvature``, ``series`` and
    ``config``; only the eps > 0 runs are integrated here."""
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 3 or any(e <= 0 for e in eps_list):
        raise OutOfRange("need >= 3 positive eps values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise OutOfRange("eps values must decrease")
    _require_series_of(curvature, series)
    corrections = compute_epsilon_corrections(series, config.correction_N)
    s_end = curvature.family.s_end
    s_b = direct.meta["s_b"]
    grid = np.linspace(0.0, s_end, 401)
    gamma0 = np.empty_like(grid)
    low = grid < s_b
    gamma0[~low] = hermite_eval(direct["s"], direct["gamma"], direct["dgamma"], grid[~low])
    for i in np.nonzero(low)[0]:
        gamma0[i] = 0.0 if grid[i] == 0 else float(
            evaluate_truncated(series, grid[i]).value)

    errors, statuses = [], []
    for e in eps_list:
        try:
            prof = integrate_gamma(
                curvature, series, replace(config, eps=e),
                initial_slope=float(corrections.initial_slope(e)))
            g_eps = hermite_eval(prof["s"], prof["gamma"], prof["dgamma"], grid)
            errors.append(float(np.max(np.abs(g_eps - gamma0))))
            statuses.append("ok")
        except (StepSizeCollapse, MonotonicityLost, OutOfRange) as exc:
            errors.append(float("nan"))
            statuses.append(f"{type(exc).__name__}: {exc}")
    good = [(e, v) for e, v in zip(eps_list, errors) if math.isfinite(v) and v > 0]
    if len(good) < 3:
        raise StepSizeCollapse("too few successful eps runs for a slope fit",
                               last_good=float("nan"))
    slope = loglog_slope([e for e, _ in good], [v for _, v in good])
    monotone = all(a >= b for a, b in zip(errors, errors[1:]))
    return EpsilonStudyReport(
        eps_list=eps_list, errors=tuple(errors), slope=float(slope),
        monotone=monotone, statuses=tuple(statuses),
    )


# ---------------------------------------------------------------------------
# the whole chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Run:
    """One run of :func:`solve`: the formal ``series`` at the vertex, the
    s-side profile from its bootstrap point, that profile in the d-side
    chart, its continuation ``end`` past d0, and the epsilon study when
    one was asked for."""

    series: FormalSeries
    s_side: SolutionProfile
    d_side: SolutionProfile
    end: SolutionProfile
    eps_study: Optional[EpsilonStudyReport] = None

    def summary(self) -> dict:
        """The run's record as ``coneshrink solve`` writes it to
        summary.json; a failed eps run's error is a NaN here."""
        curvature = self.s_side.curvature
        family = curvature.family
        s_meta, end_meta = self.s_side.meta, self.end.meta
        summary = {
            "family": family.as_dict(),
            "profile_mode": curvature.mode,
            "tol": s_meta["tol"],
            "d0": end_meta["d0"],
            "d_focal": family.d_focal,
            "s_end": s_meta["s_end"],
            "s_bootstrap": s_meta.get("s_b"),
            "d_handoff": end_meta["d_h"],
            "d_target": end_meta["d_target"],
            # NaNs skipped, as numpy's nanmax skips them
            "max_energy_residual": max_abs(
                v for v in self.s_side.columns["energy_residual"] if v == v),
            "max_eq130_residual": max_abs(self.end.columns["eq130_residual"]),
            "max_eq350_drift": end_meta["max_identity_drift"],
            "overlap_max_diff": end_meta["overlap_max_diff"],
        }
        study = self.eps_study
        if study is not None:
            summary["eps_study"] = {
                "eps": list(study.eps_list),
                "errors": list(study.errors),
                "slope": study.slope,
                "monotone": study.monotone,
                "statuses": list(study.statuses),
            }
        return summary


def solve(curvature: CurvatureProfile, config: SolverConfig, K: int = DEFAULT_K,
          prec: int = DOUBLE_PREC, to_d=None, eps_list=None) -> Run:
    """The end of ``curvature``'s self-shrinker: the series to order ``K``
    at ``prec`` bits, the direct s-side run, its d-side chart and the
    continuation to ``to_d``, and, when ``eps_list`` is given, the
    epsilon study of that series and run.

    ``to_d`` is a pair ``(relative, x)``: the target is ``curvature.d0 + x``
    when ``relative``, else ``x``; None is :func:`continue_phi`'s default.
    A relative target is resolved after the s-side run, so that a profile
    that is not mean convex, which has no d0, raises
    :class:`NotMeanConvex` there."""
    series = compute_coefficients(curvature, K, prec)
    s_side = integrate_gamma(curvature, series, config)
    d_target = None
    if to_d is not None:
        relative, x = to_d
        d_target = curvature.d0 + x if relative else x
    d_side = to_d_profile(s_side)
    end = continue_phi(d_side, d_target=d_target, config=config)
    eps_study = None
    if eps_list is not None:
        eps_study = epsilon_convergence_study(curvature, config, eps_list, series, s_side)
    return Run(series, s_side, d_side, end, eps_study)


# ---------------------------------------------------------------------------
# CSV round trip (pinned headers)
# ---------------------------------------------------------------------------

def write_profile_csv(profile: SolutionProfile, path):
    cols = S_SIDE_COLUMNS if profile.side == S_SIDE else D_SIDE_COLUMNS
    return write_csv(path, cols, [profile.columns[c] for c in cols])


def read_profile_csv(path, curvature: CurvatureProfile) -> SolutionProfile:
    """A profile of the run whose H is ``curvature``, as
    :func:`write_profile_csv` writes it.  The first header
    column names the side (:class:`OutOfRange` if it names none); a file
    that is not UTF-8, lacks a column of its side, has a row that is not
    one number per column or whose first column (s or d) does not exceed
    the row before, or has fewer than MIN_PROFILE_ROWS rows is malformed,
    an ``OSError`` naming the file and the line, the columns or the row
    count."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            lines = [(ln, line.strip()) for ln, line in enumerate(fh, start=2) if line.strip()]
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None
    if header[0] == "s":
        side, pinned = S_SIDE, S_SIDE_COLUMNS
    elif header[0] == "d":
        side, pinned = D_SIDE, D_SIDE_COLUMNS
    else:
        raise OutOfRange(f"unrecognized profile header {header!r}")
    missing = [name for name in pinned if name not in header]
    if missing:
        raise OSError(f"{path}: the header lacks the {side} column(s) {', '.join(missing)}")
    rows = []
    for ln, line in lines:
        cells = line.split(",")
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells under a header of {len(header)}")
            row = [float(c) for c in cells]
            if rows and not row[0] > rows[-1][0]:
                raise ValueError(f"{header[0]} = {row[0]!r} does not exceed the previous "
                                 f"row's {rows[-1][0]!r}: {header[0]} must strictly increase")
            rows.append(row)
        except ValueError as exc:
            raise OSError(f"{path}:{ln}: {exc}") from None
    if len(rows) < MIN_PROFILE_ROWS:
        raise OSError(f"{path}: {len(rows)} data row(s); a {side} profile needs at least "
                      f"{MIN_PROFILE_ROWS}")
    data = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    return SolutionProfile(side=side, curvature=curvature, columns=data)
