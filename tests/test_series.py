import functools
import hashlib
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from coneshrink import series as series_mod
from coneshrink.catalog import (EQ030_LITERAL, PROFILE_MODES, CurvatureProfile, builtin_catalog,
                                curvature_derivative, mean_curvature)
from coneshrink.errors import NoUsefulTruncation, OutOfRange, PrecisionExhausted
from coneshrink.numutil import DOUBLE_PREC, left_sum, machine_eps, to_real
from coneshrink.series import (
    FormalSeries,
    TaylorRecursion,
    TruncatedValue,
    compute_coefficients,
    evaluate_truncated,
    gevrey_diagnostics,
    series_to_json_dict,
    series_value_tail,
)
from test_catalog import admissible_family
from test_epsilon import _OperatorRing, push_derivatives


class TestClosedForms:
    def test_reference_values(self, series1):
        assert float(series1.coefficient(1)) == pytest.approx(1.0, abs=1e-14)
        assert float(series1.coefficient(2)) == pytest.approx(-2.0, abs=1e-13)
        assert float(series1.coefficient(3)) == pytest.approx(24.0, abs=1e-11)

    def test_a1_a2_all_catalog_families(self):
        for name, fam in builtin_catalog().items():
            prof = CurvatureProfile(fam)
            fs = compute_coefficients(prof, 2)
            h0 = mean_curvature(prof, 0.0)
            hp = curvature_derivative(prof, 0.0, 1)
            a1 = float(fs.coefficient(1))
            a2 = float(fs.coefficient(2))
            assert a1 == pytest.approx(h0, rel=1e-15), name
            assert a2 == pytest.approx((2 * fam.n + hp - 4) * h0, rel=1e-13), name

    @given(admissible_family(), st.sampled_from(PROFILE_MODES))
    def test_closed_forms_and_prefix_on_random_families(self, fam, mode):
        """At 53 bits: A_1 is H(0) bit for bit; A_2 is (2n + H'(0) - 4) H(0)
        within 8 units of the last place per term; a longer series keeps
        the coefficients and error estimates of a shorter one bit for bit,
        and a shorter series that fails makes the longer one fail alike."""
        prof = CurvatureProfile(fam, mode)
        assume(prof.h0 > 0)
        runs = []
        for K in (12, 16):
            try:
                runs.append(compute_coefficients(prof, K))
            except PrecisionExhausted as exc:
                runs.append(exc)
        short, longer = runs
        if isinstance(short, PrecisionExhausted):
            # e.g. where 2n + H'(0) - 4 cancels, A_2 keeps no correct bit
            assert str(longer) == str(short)
            return
        assert not isinstance(longer, PrecisionExhausted) or longer.order > 12
        h0, hp = mean_curvature(prof, 0.0), curvature_derivative(prof, 0.0, 1)
        assert short.coefficient(1).hex() == h0.hex()
        bound = 8 * 2.0 ** -52 * (2 * fam.n + abs(hp) + 4) * abs(h0)
        assert abs(short.coefficient(2) - (2 * fam.n + hp - 4) * h0) <= bound
        if isinstance(longer, FormalSeries):
            for got, prefix in ((short.a, longer.a),
                                (short.rel_error_estimates, longer.rel_error_estimates)):
                assert [v.hex() for v in got] == [v.hex() for v in prefix[:12]]

    def test_prefix_stability(self, fam1):
        short = compute_coefficients(CurvatureProfile(fam1), 8)
        longer = compute_coefficients(CurvatureProfile(fam1), 14)
        for k in range(1, 9):
            assert float(short.coefficient(k)) == float(longer.coefficient(k))

    def test_53_bit_coefficients_are_pinned(self):
        """The bits of A_1..A_40 at 53 bits over the built-ins in both
        profile modes: one line per family and mode, the float.hex of each
        coefficient joined by spaces, hashed.  A change of operand order in
        the float recursion changes them."""
        lines = []
        for fam in builtin_catalog().values():
            for mode in ("cot_sum", "eq030_literal"):
                fs = compute_coefficients(CurvatureProfile(fam, mode), 40)
                lines.append(" ".join(float(a).hex() for a in fs.a) + "\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "9e4ef14151edb968f3352c2b837e2a2bb8d75760e92ebc5c5d3e1eec20cd0a2e"

    def test_float_sums_round_each_addition(self):
        """The float ring sums left to right from 0, one rounding per
        addition, on every Python: from 3.12 on, the builtin ``sum``
        compensates float sums, and here it would return the exact 1.0."""
        ring = series_mod._FloatRing()
        xs, ones = [1e16, 1.0, -1e16], [1.0, 1.0, 1.0]
        assert math.fsum(xs) == 1.0
        assert ring.dot(xs, ones) == 0.0
        assert ring.conv(xs, ones, 2) == 0.0
        assert ring.sum(iter(xs)) == 0.0

    def test_precision_agreement_k15(self, fam1):
        lo = compute_coefficients(CurvatureProfile(fam1), 15, prec=53)
        hi = compute_coefficients(CurvatureProfile(fam1), 15, prec=256)
        for k in range(1, 16):
            a, b = float(lo.coefficient(k)), float(hi.coefficient(k))
            assert abs(a - b) <= 1e-10 * abs(b)  # >= 10 significant digits

    def test_precision_exhausted_raised(self, fam1, monkeypatch):
        monkeypatch.setattr(series_mod, "REL_ERROR_LIMIT", 1e-18)
        with pytest.raises(PrecisionExhausted) as err:
            compute_coefficients(CurvatureProfile(fam1), 30)
        assert "precision" in str(err.value)

    @pytest.mark.parametrize("prec, mpf_checks", [(53, 0), (256, 12 + 9)])
    def test_finiteness_checks_by_number_type(self, fam1, monkeypatch, prec, mpf_checks):
        """The coefficients' finiteness checks use ``math`` on the floats of
        a 53-bit run and ``mpmath`` on mpf values, one check per A_k of
        the series and per A_1..A_(N+1) of the corrections."""
        calls = []

        def counted(x):
            calls.append(type(x))
            return mpmath.mp.isfinite(x)

        monkeypatch.setattr(series_mod.mpmath, "isfinite", counted)
        fs = compute_coefficients(CurvatureProfile(fam1), 12, prec)
        series_mod.compute_epsilon_corrections(fs, 8)
        assert len(calls) == mpf_checks and set(calls) <= {mpmath.mpf}


class TestCotChains:
    def test_one_chain_per_closed_form_term(self):
        # Muenzner's form needs a second chain only for even g with unequal
        # multiplicities; the g-angle sum ran one per principal angle
        from coneshrink.series import TaylorRecursion
        two = {"g2_product_12", "g4_m45"}
        for name, fam in builtin_catalog().items():
            engine = TaylorRecursion(CurvatureProfile(fam), series_mod._FloatRing())
            assert len(engine.cot) == (2 if name in two else 1), name


class TestStateOracle:
    def test_a3_from_integrated_solution(self, fam1, series1):
        """Fit gamma'''(0) from a high-precision integration bootstrapped with
        only the hand-derived A_1, A_2 (independent of the recursion at k=3).

        The unregularized equation relaxes perturbations at rate ~ 1/(4 s^2),
        so the explicit fixed-order ladder keeps h ~ 6 s^2 inside the
        stability region."""
        a3_expect = float(series1.coefficient(3))
        with mpmath.workprec(80):
            th = +mpmath.pi / 4
            n = 2

            def h_fun(d):
                return mpmath.cos(th + d) / mpmath.sin(th + d)

            def rhs(s, y):
                g, dg = y
                w2 = 1 + 4 * s * s * dg * dg
                return (dg, ((h_fun(g) - (1 - 2 * n * s) * dg) * w2 - 4 * s * dg)
                        / (4 * s * s))

            a1 = h_fun(0)
            a2 = (2 * n - (1 + a1 * a1) - 4) * a1
            s = mpmath.mpf("1e-4")
            y = (a1 * s + a2 * s * s / 2, a1 + a2 * s)
            s_hi = mpmath.mpf("0.0102")
            samples = []
            while s < s_hi:
                h = min(6 * s * s, s_hi - s + mpmath.mpf("1e-30"))
                k1 = rhs(s, y)
                k2 = rhs(s + h / 2, (y[0] + h / 2 * k1[0], y[1] + h / 2 * k1[1]))
                k3 = rhs(s + h / 2, (y[0] + h / 2 * k2[0], y[1] + h / 2 * k2[1]))
                k4 = rhs(s + h, (y[0] + h * k3[0], y[1] + h * k3[1]))
                y = (y[0] + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                     y[1] + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))
                s += h
                if s > mpmath.mpf("0.002"):
                    samples.append((s, y[0]))
            xs, ys = [], []
            for sv, gv in samples[:: max(1, len(samples) // 25)]:
                r = gv - a1 * sv - a2 * sv * sv / 2
                xs.append(float(sv))
                ys.append(float(r / sv ** 3))
        design = np.vander(np.array(xs), 4, increasing=True)
        coef, *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
        a3_fit = 6 * coef[0]
        assert abs(a3_fit - a3_expect) <= 2e-3 * abs(a3_expect)


def _drifted_coefficients(curvature, K, c):
    """A_1..A_K at binary64 of the equation whose drift factor (1 - 2ns) is
    replaced by (c - 2ns): a_{k+1} = T_k / (c (k+1)), A_k = k! a_k."""
    engine = TaylorRecursion(curvature, series_mod._FloatRing())
    t, fact, out = engine.t0, 1, []
    for k in range(1, K + 1):
        a_k = t / (c * k)
        fact *= k
        out.append(fact * a_k)
        if k < K:
            t = engine.push(a_k)
    return out


class TestScaling:
    def test_rescaled_coefficients(self, fam1):
        # gamma(lambda s) solves the equation with drift (1/lambda - 2ns);
        # its coefficients are lambda^k A_k
        lam = 0.37
        base = compute_coefficients(CurvatureProfile(fam1), 6)
        scaled = _drifted_coefficients(CurvatureProfile(fam1), 6, 1.0 / lam)
        for k in range(1, 7):
            expect = lam ** k * float(base.coefficient(k))
            assert float(scaled[k - 1]) == pytest.approx(expect, rel=1e-11)


def probe_linear_coefficient(curvature, k, prec=DOUBLE_PREC):
    """Measured d A_{k+1} / d A_k of the recursion (exactly linear, probed with
    a unit shift), together with the two closed-form candidates.

    Returns dict with ``measured``, ``derived`` (2nk - 4k^2 + H'(0)) and
    ``printed`` ((2n + H'(0))k - 4k^2); the recursion follows ``derived``,
    which the k = 1 closed form pins down; the ``printed`` variant differs
    for k >= 2 and the mismatch is reported, not assumed."""
    series = compute_coefficients(curvature, K=k, prec=prec)
    ring = _OperatorRing(prec)
    with mpmath.workprec(prec):
        gd = list(series.a)
        base = push_derivatives(TaylorRecursion(curvature, ring), gd)
        shifted = push_derivatives(TaylorRecursion(curvature, ring),
                                   gd[:-1] + [gd[-1] + 1])
        measured = float(shifted - base)
        hp0 = float(curvature_derivative(curvature, to_real(0.0, prec), 1))
    n = curvature.family.n
    derived = 2.0 * n * k - 4.0 * k * k + hp0
    printed = (2.0 * n + hp0) * k - 4.0 * k * k
    return {
        "k": k,
        "measured": measured,
        "derived": derived,
        "printed": printed,
        "matches_derived": abs(measured - derived) <= 1e-8 * max(1.0, abs(derived)),
        "matches_printed": abs(measured - printed) <= 1e-8 * max(1.0, abs(printed)),
    }


class TestLinearCoefficient:
    def test_probe_matches_derived_form(self, fam1, fam2):
        # measured d A_{k+1}/d A_k equals 2nk - 4k^2 + H'(0); the printed
        # claim (2n + H'(0))k - 4k^2 coincides only at k = 1 and the probe
        # records the mismatch for k >= 2 rather than asserting it
        for fam in (fam1, fam2):
            for k in (1, 2, 3, 5):
                rep = probe_linear_coefficient(CurvatureProfile(fam), k)
                assert rep["matches_derived"], rep
                if k == 1:
                    assert rep["matches_printed"]
                else:
                    assert not rep["matches_printed"]


class TestGevrey:
    def test_exact_gevrey2_bounded(self, fam1):
        a = [float(math.factorial(k)) ** 2 for k in range(1, 41)]
        fs = FormalSeries(CurvatureProfile(fam1), DOUBLE_PREC, tuple(a), (0.0,) * len(a))
        rep = gevrey_diagnostics(fs)
        assert rep.verdict == "bounded"
        assert all(abs(r - 1.0) < 1e-12 for r in fs.gevrey_rho)
        assert rep.C_est == pytest.approx(1.0)

    def test_super_gevrey_unbounded(self, fam1):
        with mpmath.workprec(400):
            a = [mpmath.mpf(math.factorial(k)) ** 3 for k in range(1, 41)]
        fs = FormalSeries(CurvatureProfile(fam1), 400, tuple(a), (0.0,) * len(a))
        rep = gevrey_diagnostics(fs)
        assert rep.verdict == "unbounded"

    def test_reference_family_bounded(self, series1):
        rep = gevrey_diagnostics(series1)
        assert rep.verdict == "bounded"
        assert rep.running_sup[-1] == rep.C_est

    def test_needs_five(self, fam1):
        fs = compute_coefficients(CurvatureProfile(fam1), 4)
        with pytest.raises(OutOfRange):
            gevrey_diagnostics(fs)


def _evaluate_truncated_oracle(series, s, derivative=0, threshold=1e-2, start_k=1):
    """The per-term loop that evaluate_truncated replaced, kept as its
    oracle: coefficient(k) and math.factorial(p) for every term."""
    with mpmath.workprec(series.precision_bits):
        ss = to_real(s, series.precision_bits)
        k_lo = max(start_k, derivative if derivative > 0 else 1)
        terms = []
        mags = []
        for k in range(k_lo, series.K + 1):
            p = k - derivative
            t = series.coefficient(k) * ss ** p / math.factorial(p)
            terms.append(t)
            mags.append(abs(float(t)))
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
        floor = machine_eps(series.precision_bits) * left_sum(mags[: i_star + 1])
        k_star = k_lo + i_star
    return TruncatedValue(value=value, error_estimate=max(omitted, floor), k_star=k_star)


@functools.lru_cache(maxsize=None)
def _oracle_series(name, bits):
    return compute_coefficients(CurvatureProfile(builtin_catalog()[name]), 32, bits)


def _outcome(evaluate, *args):
    """Every bit of a truncated evaluation, or the type and text of its raise."""
    try:
        ev = evaluate(*args)
    except NoUsefulTruncation as exc:
        return type(exc), str(exc)
    value = ev.value._mpf_ if isinstance(ev.value, mpmath.mpf) else ev.value.hex()
    return type(ev.value), value, ev.error_estimate.hex(), ev.k_star


class TestEvaluateTruncated:
    def test_leading_behavior(self, series1):
        for s in (1e-6, 1e-5, 1e-4):
            ev = evaluate_truncated(series1, s)
            assert float(ev.value) / s == pytest.approx(float(series1.coefficient(1)),
                                                        rel=1e-4)

    def test_synthetic_kstar_location(self, fam1):
        with mpmath.workprec(400):
            a = [mpmath.mpf(math.factorial(k)) ** 2 for k in range(1, 121)]
        fs = FormalSeries(CurvatureProfile(fam1), 400, tuple(a), (0.0,) * len(a))
        s = 0.01
        ev = evaluate_truncated(fs, s, threshold=float("inf"))
        assert 0.7 / s <= ev.k_star <= 1.3 / s
        # error model equals the scan minimum's neighbor
        mags = [float(abs(a[k - 1]) * mpmath.mpf(s) ** k / math.factorial(k))
                for k in range(1, 121)]
        assert ev.error_estimate == pytest.approx(min(mags), rel=1e-6)

    def test_no_useful_truncation(self, series1):
        with pytest.raises(NoUsefulTruncation):
            evaluate_truncated(series1, 10.0, threshold=1e-2)

    @pytest.mark.parametrize("bits", [DOUBLE_PREC, 256])
    @pytest.mark.parametrize("derivative, start_k", [(0, 1), (1, 1), (2, 1), (0, 2)])
    def test_terms_match_the_per_term_oracle(self, bits, derivative, start_k):
        """The one-pass terms, with p! carried as a running product, give
        every value, error estimate, k* and raise of the per-term loop that
        calls coefficient(k) and math.factorial(p), to the bit."""
        for name in ("g1_sphere_n2", "g3_m2", "g6_m1"):
            fs = _oracle_series(name, bits)
            s_end = fs.curvature.family.s_end
            for s in (1e-6, 1e-3, 0.05 * s_end, 0.2 * s_end, 0.5 * s_end, 10.0):
                for threshold in (1e-2, float("inf")):
                    args = (fs, s, derivative, threshold, start_k)
                    assert _outcome(evaluate_truncated, *args) == _outcome(
                        _evaluate_truncated_oracle, *args), (name, s, threshold)

    def test_requires_positive_s(self, series1):
        with pytest.raises(OutOfRange):
            evaluate_truncated(series1, 0.0)

    def test_derivatives_consistent(self, series1):
        # termwise derivative matches a finite difference of the value series
        s, h = 5e-3, 1e-7
        v_plus = float(evaluate_truncated(series1, s + h).value)
        v_minus = float(evaluate_truncated(series1, s - h).value)
        d1 = float(evaluate_truncated(series1, s, derivative=1).value)
        assert (v_plus - v_minus) / (2 * h) == pytest.approx(d1, rel=1e-6)

    def test_tail_evaluation(self, series1):
        s = 2e-3
        full = float(evaluate_truncated(series1, s).value)
        tail = float(series_value_tail(series1, s).value)
        a1 = float(series1.coefficient(1))
        assert tail == pytest.approx(full - a1 * s, rel=1e-6)

    def test_matches_integrated_solution(self, fam1):
        """Series value at s = 1e-3 against an independent high-precision
        integration started from series data at s = 1e-4.

        The optimal-truncation error estimate at this s is far below any
        attainable integrator accuracy, so the comparison budget adds the
        integrator's own error (measured by step halving)."""
        fs = compute_coefficients(CurvatureProfile(fam1), 40, prec=160)
        target = mpmath.mpf("1e-3")

        def integrate(step_scale):
            with mpmath.workprec(160):
                th = +mpmath.pi / 4
                n = 2

                def h_fun(d):
                    return mpmath.cos(th + d) / mpmath.sin(th + d)

                def rhs(s, y):
                    g, dg = y
                    w2 = 1 + 4 * s * s * dg * dg
                    return (dg, ((h_fun(g) - (1 - 2 * n * s) * dg) * w2
                                 - 4 * s * dg) / (4 * s * s))

                s = mpmath.mpf("1e-4")
                y = (evaluate_truncated(fs, s).value,
                     evaluate_truncated(fs, s, derivative=1).value)
                while s < target:
                    h = min(step_scale * s * s, target - s)
                    k1 = rhs(s, y)
                    k2 = rhs(s + h / 2, (y[0] + h / 2 * k1[0], y[1] + h / 2 * k1[1]))
                    k3 = rhs(s + h / 2, (y[0] + h / 2 * k2[0], y[1] + h / 2 * k2[1]))
                    k4 = rhs(s + h, (y[0] + h * k3[0], y[1] + h * k3[1]))
                    y = (y[0] + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                         y[1] + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))
                    s += h
                return y[0]

        coarse = integrate(6)
        fine = integrate(3)
        rk_budget = abs(float(coarse - fine)) * 16 / 15
        ev = evaluate_truncated(fs, float(target))
        diff = abs(float(ev.value - fine))
        assert diff <= 10 * ev.error_estimate + 10 * rk_budget + 1e-30


class TestSerialization:
    """A ``coeffs`` record carries every bit of each A_k: ``to_real`` at
    the record's precision reads the decimal text back exactly."""

    @staticmethod
    def _record(series):
        return json.loads(json.dumps(series_to_json_dict(series)))

    def test_round_trip_double(self, fam2, series1):
        eq030 = compute_coefficients(CurvatureProfile(fam2, EQ030_LITERAL), 12)
        for fs in (series1, eq030):
            rec = self._record(fs)
            assert rec["K"] == fs.K
            assert rec["precision_bits"] == fs.precision_bits
            assert rec["family"] == fs.curvature.family.as_dict()
            assert rec["profile_mode"] == fs.curvature.mode
            back = [to_real(t, rec["precision_bits"]) for t in rec["A"]]
            assert all(type(x) is float for x in back)
            assert back == list(fs.a)

    def test_round_trip_mpf(self, fam1):
        fs = compute_coefficients(CurvatureProfile(fam1), 10, prec=192)
        rec = self._record(fs)
        back = [to_real(t, rec["precision_bits"]) for t in rec["A"]]
        assert [x._mpf_ for x in back] == [x._mpf_ for x in fs.a]

    def test_record_fields(self, series1):
        rec = self._record(series1)
        assert set(rec) >= {"family", "K", "precision_bits", "A", "gevrey"}
        assert isinstance(rec["A"][0], str)
        assert len(rec["A"]) == series1.K
