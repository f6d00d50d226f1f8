import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coneshrink import cli, stepper
from coneshrink import ivp as ivp_mod
from coneshrink.catalog import (EQ030_LITERAL, PROFILE_MODES, CurvatureProfile, builtin_catalog,
                                make_family, mean_curvature)
from coneshrink.errors import (
    BlowUpDetected,
    MonotonicityLost,
    NotInvertible,
    NotMeanConvex,
    NoUsefulTruncation,
    OutOfRange,
    StepSizeCollapse,
)
from coneshrink.ivp import (
    SolutionProfile,
    SolverConfig,
    continue_phi,
    energy_residual,
    epsilon_convergence_study,
    equation_residual,
    integrate_gamma,
    read_profile_csv,
    to_d_profile,
    write_profile_csv,
    _cumulative_energy,
    _cumulative_q_from_s,
)
from coneshrink.numutil import (DOUBLE_PREC, GAUSS4_NODES, GAUSS4_WEIGHTS, hermite_eval,
                               loglog_slope, write_csv)
from coneshrink.series import (DEFAULT_K, EpsilonPolynomial, FormalSeries, TruncatedValue,
                               compute_coefficients, compute_epsilon_corrections,
                               evaluate_truncated)


def gamma_rhs(s, gamma, dgamma, eps, profile):
    """gamma'' solved from the (regularized) profile equation, written out
    apart from the right-hand side that integrate_gamma builds:

    [(H(gamma) - (1-2ns) gamma') (1 + 4 s^2 gamma'^2) - 4 s gamma']
        / (4 s^2 + eps (1 + 4 s^2 gamma'^2)).
    """
    h = mean_curvature(profile, gamma)
    n = profile.family.n
    w2 = 1 + 4 * s * s * dgamma * dgamma
    return ((h - (1 - 2 * n * s) * dgamma) * w2 - 4 * s * dgamma) / (4 * s * s + eps * w2)


class TestGammaRhs:
    def test_singular_at_zero(self, fam1):
        with pytest.raises(ZeroDivisionError):
            gamma_rhs(0.0, 0.0, 1.0, 0.0, CurvatureProfile(fam1))

    def test_regularized_initial_curvature(self, fam1, series1):
        # at s = 0 with slope B(eps): gamma'' = (H(0) - B(eps))/eps
        corr = compute_epsilon_corrections(series1, 6)
        prof = CurvatureProfile(fam1)
        for eps in (1e-2, 1e-3):
            b = float(corr.initial_slope(eps))
            got = gamma_rhs(0.0, 0.0, b, eps, prof)
            expect = (float(mean_curvature(prof, 0.0)) - b) / eps
            assert got == pytest.approx(expect, rel=1e-12)
            assert got == pytest.approx(float(-EpsilonPolynomial(corr.B[1:])(eps)), rel=1e-9)

    def test_residual_is_algebraic_inverse(self, fam1):
        prof = CurvatureProfile(fam1)
        for s, g, dg, eps in ((0.05, 0.04, 0.95, 0.0), (0.1, 0.09, 0.9, 1e-3)):
            d2 = gamma_rhs(s, g, dg, eps, prof)
            assert equation_residual(s, g, dg, d2, eps, prof) == pytest.approx(
                0.0, abs=1e-12)

    def test_matches_series_second_derivative(self, fam1, series1):
        # combined budget: truncation of the gamma'' series plus the input
        # errors amplified through the 1/(4 s^2) sensitivity of the rhs
        for s in (0.02, 0.05):
            e0 = evaluate_truncated(series1, s, threshold=10.0)
            e1 = evaluate_truncated(series1, s, derivative=1, threshold=10.0)
            e2 = evaluate_truncated(series1, s, derivative=2, threshold=10.0)
            got = gamma_rhs(s, float(e0.value), float(e1.value), 0.0,
                            CurvatureProfile(fam1))
            amplified = (2 * e0.error_estimate + e1.error_estimate) / (4 * s * s)
            assert abs(got - float(e2.value)) <= e2.error_estimate + amplified

    def test_domain_guard(self, fam1):
        with pytest.raises(OutOfRange):
            gamma_rhs(0.1, fam1.d_focal + 0.1, 1.0, 0.0, CurvatureProfile(fam1))


class TestIntegrateGamma:
    def test_monotone_and_bounded(self, solved1, fam1):
        g = solved1["gamma"]
        assert np.all(np.diff(g) > 0)
        assert np.all(solved1["dgamma"] > 0)
        assert g[-1] < fam1.d_focal

    def test_leading_behavior(self, solved1, series1):
        # gamma(s)/s -> A_1 along stored nodes: the deviation shrinks toward
        # the smallest node and is bounded by the next series term there
        s, g = solved1["s"], solved1["gamma"]
        a1 = float(series1.coefficient(1))
        a2 = float(series1.coefficient(2))
        dev = np.abs(g / s - a1)
        assert dev[0] < dev[-1]
        assert dev[0] <= 0.6 * abs(a2) * s[0] * 1.5

    def test_ode_residual_at_nodes(self, solved1, fam1):
        prof = CurvatureProfile(fam1)
        for i in range(0, len(solved1["s"]), 7):
            r = equation_residual(solved1["s"][i], solved1["gamma"][i],
                                  solved1["dgamma"][i], solved1["d2gamma"][i],
                                  0.0, prof)
            assert abs(r) <= 10 * max(solved1.meta["tol"], 1e-13)

    def test_self_convergence(self, fam1, series1, solved1):
        loose = integrate_gamma(CurvatureProfile(fam1), series1, SolverConfig(tol=1e-8))
        assert abs(loose["gamma"][-1] - solved1["gamma"][-1]) <= 1e-7

    def test_bootstrap_invariance(self, fam1, series1, solved1):
        s_b = solved1.meta["s_b"]
        half = integrate_gamma(CurvatureProfile(fam1), series1,
                               SolverConfig(tol=1e-10, s_bootstrap=s_b / 2))
        diff = abs(half["gamma"][-1] - solved1["gamma"][-1])
        budget = (solved1.meta["sum_local_err"] + half.meta["sum_local_err"]
                  + solved1.meta["series_error_gamma"] + half.meta["series_error_gamma"])
        assert diff <= 10 * budget

    def test_bootstrap_energy_sums_its_terms_as_numpy_sums(self, fam1, series1):
        # step control reads the last bits of the bootstrap energy, so its
        # terms over the powers of s_b add in numpy's pairwise order, which
        # a left-to-right sum misses on some of these cuts
        n = fam1.n
        missed = 0
        for k_star in range(4, 37, 4):
            c = [float(series1.coefficient(k)) / math.factorial(k - 1)
                 for k in range(1, k_star + 1)]
            sq = []
            for p in range(2 * k_star - 1):
                acc = 0.0
                for i in range(max(0, p - k_star + 1), min(p, k_star - 1) + 1):
                    acc += c[i] * c[p - i]
                sq.append(acc)
            for s_b in (0.003, 0.0067, 0.02):
                terms = [[q * s_b ** (p + j) / (p + j) for p, q in enumerate(sq)]
                         for j in (1, 2)]
                expect = float(np.sum(terms[0])) - 2.0 * n * float(np.sum(terms[1]))
                assert ivp_mod._series_energy_integral(series1, s_b, n, k_star) == expect
                left = [0.0, 0.0]
                for j in (0, 1):
                    for v in terms[j]:
                        left[j] += v
                missed += left[0] - 2.0 * n * left[1] != expect
        assert missed > 0

    def test_monotonicity_lost_detected(self, fam1, series1):
        # a wildly wrong slope overshoots d0, where H < 0 pulls gamma'
        # through zero (the equation relaxes gamma' toward H(gamma))
        cfg = SolverConfig(tol=1e-8, eps=1e-2)
        with pytest.raises(MonotonicityLost):
            integrate_gamma(CurvatureProfile(fam1), series1, cfg, initial_slope=150.0)

    def test_stages_below_zero_are_rejected_until_the_step_collapses(self, fam1, series1):
        # a negative slope at gamma(0) = 0 sends every trial stage below 0,
        # where H is not defined: each is rejected as a non-finite stage is
        # and the step shrinks until it underflows; the message names the
        # abscissa as Python prints a float
        cfg = SolverConfig(tol=1e-8, eps=1e-2)
        with pytest.raises(StepSizeCollapse, match="step size underflow") as info:
            integrate_gamma(CurvatureProfile(fam1), series1, cfg, initial_slope=-1.0)
        assert "np.float64" not in str(info.value)
        assert info.value.last_good == 0.0 and type(info.value.last_good) is float

    def test_regularized_run_at_eps_1e_7_completes(self, monkeypatch):
        # the first trial stage of g1_sphere_n2 at eps = 1e-7 reaches
        # gamma = -0.0069: it is rejected, the step shrinks, and the run
        # reaches s_end with its monitors under their limits
        fam = builtin_catalog()["g1_sphere_n2"]
        prof = CurvatureProfile(fam)
        corr = compute_epsilon_corrections(compute_coefficients(prof, 20), 8)
        eps = 1e-7
        outside = []

        def counted(f, *args, **kwargs):
            def rhs(s, y):
                if not 0 <= y[0] < fam.d_focal:
                    outside.append(s)
                return f(s, y)
            return stepper.integrate(rhs, *args, **kwargs)

        monkeypatch.setattr(ivp_mod, "integrate", counted)
        run = integrate_gamma(prof, None, SolverConfig(tol=1e-10, eps=eps),
                              initial_slope=float(corr.initial_slope(eps)))
        assert outside and run.meta["n_rejected"] >= len(outside)
        assert run["s"][-1] == pytest.approx(fam.s_end)
        assert np.all(np.diff(run["gamma"]) > 0) and np.all(run["dgamma"] > 0)
        assert energy_residual(run).max_abs <= 1e-6
        resid = equation_residual(run["s"], run["gamma"], run["dgamma"], run["d2gamma"], eps, prof)
        assert np.max(np.abs(resid) / (1 + np.abs(run["d2gamma"]))) <= 1e-8

    def test_series_of_another_mode_or_family_raises(self, fam1, fam2, series1):
        # the run's profile owns its H: an eq030_literal run refuses the
        # cot_sum series, whose bootstrap state solves another equation
        with pytest.raises(OutOfRange, match="profile mode cot_sum.*profile mode eq030_literal"):
            integrate_gamma(CurvatureProfile(fam1, EQ030_LITERAL), series1, SolverConfig())
        with pytest.raises(OutOfRange, match="'g': 1.*for a run .*'g': 2"):
            integrate_gamma(CurvatureProfile(fam2), series1, SolverConfig())

    def test_direct_run_needs_a_series(self, fam1):
        # the caller computes the series; the run computes none of its own
        with pytest.raises(OutOfRange, match="direct run .* needs the formal series"):
            integrate_gamma(CurvatureProfile(fam1), None, SolverConfig())

    @pytest.mark.parametrize("field, value", [("tol", 0.0), ("tol", -1.0), ("tol", math.nan),
                                              ("tol", math.inf), ("eps", -1e-3),
                                              ("eps", math.nan), ("eps", math.inf)])
    def test_config_outside_its_domain_names_the_field(self, field, value):
        with pytest.raises(OutOfRange, match=f"SolverConfig: {field} must be finite"):
            SolverConfig(**{field: value})

    def test_regularized_run_needs_initial_slope(self, fam1):
        with pytest.raises(OutOfRange, match="eps > 0 needs an explicit initial slope"):
            integrate_gamma(CurvatureProfile(fam1), None, SolverConfig(eps=1e-3))

    def test_not_mean_convex_profile_raises(self):
        # cot-sum H(0) > 0, so make_family accepts the family; the level-set
        # H(0) of eq030_literal is negative
        fam = make_family(2, 1, 2, 4, 0.95)
        with pytest.raises(NotMeanConvex, match="H\\(0\\) = -0.65143 <= 0 in profile mode "
                                                "eq030_literal"):
            integrate_gamma(CurvatureProfile(fam, EQ030_LITERAL), None, SolverConfig())

    def test_regularized_run_past_its_step_budget_raises(self, fam1, series1, monkeypatch):
        # a regularized run that collapses raises, as a direct run does: the
        # eps study records that eps as failed
        corr = compute_epsilon_corrections(series1, 6)
        eps = 1e-6
        cfg = SolverConfig(tol=1e-8, eps=eps)
        slope = float(corr.initial_slope(eps))
        prof = integrate_gamma(CurvatureProfile(fam1), series1, cfg, initial_slope=slope)
        assert prof.meta["n_steps"] > 100 and "used_fallback" not in prof.meta
        assert prof["s"][-1] == pytest.approx(fam1.s_end)
        # regularized runs start at s = 0 where every identity term vanishes
        assert prof["s"][0] == 0.0
        assert prof["energy_residual"][0] == 0.0
        monkeypatch.setattr(ivp_mod, "MAX_STEPS", 100)
        with pytest.raises(StepSizeCollapse, match="step budget exhausted"):
            integrate_gamma(CurvatureProfile(fam1), series1, cfg, initial_slope=slope)


class TestEnergyResidual:
    def test_small_on_converged_run(self, solved1, fam1):
        rep = energy_residual(solved1)
        assert rep.max_abs <= 1e-8

    def test_scales_with_tolerance(self, fam1, series1):
        tols = (1e-8, 1e-10, 1e-12)
        res = []
        for tol in tols:
            p = integrate_gamma(CurvatureProfile(fam1), series1, SolverConfig(tol=tol))
            res.append(float(np.nanmax(np.abs(p["energy_residual"]))))
        slope = loglog_slope(tols, res)
        assert 0.7 <= slope <= 1.3

    def test_detects_scaled_profile(self, solved1, fam1):
        cols = {k: np.array(v) for k, v in solved1.columns.items()}
        for name in ("gamma", "dgamma", "d2gamma"):
            cols[name] = cols[name] * 1.01
        del cols["energy"]
        bad = SolutionProfile(side="s_side", curvature=solved1.curvature, columns=cols,
                              meta=dict(solved1.meta))
        rep = energy_residual(bad)
        assert rep.max_abs > 1e-3

    def test_quadrature_route_matches_stored(self, solved1, fam1):
        rep = energy_residual(solved1)
        assert np.max(np.abs(rep.values - solved1["energy_residual"])) <= 1e-9

    def test_unsupported_without_closed_antiderivative(self, fam1):
        # the literal mode has the closed antiderivative too, so a real
        # eq030_literal solve carries the energy monitor
        curvature = CurvatureProfile(fam1, EQ030_LITERAL)
        prof = integrate_gamma(curvature, compute_coefficients(curvature, DEFAULT_K),
                               SolverConfig(tol=1e-10))
        assert prof.curvature.mode == EQ030_LITERAL
        assert energy_residual(prof).max_abs <= 1e-9
        assert np.nanmax(np.abs(prof["energy_residual"])) <= 1e-9


# The per-interval loops the vectorised Gauss/Hermite quadrature replaced,
# kept as oracles: same basis, same node order, same running sum.
def _cumulative_energy_loop(s, dgam, d2gam, n):
    out = np.zeros_like(s)
    for i in range(len(s) - 1):
        a, b = s[i], s[i + 1]
        h = b - a
        total = 0.0
        for x, w in zip(GAUSS4_NODES, GAUSS4_WEIGHTS):
            h00 = (1 + 2 * x) * (1 - x) ** 2
            h10 = x * (1 - x) ** 2
            h01 = x * x * (3 - 2 * x)
            h11 = x * x * (x - 1)
            dg = (h00 * dgam[i] + h10 * h * d2gam[i]
                  + h01 * dgam[i + 1] + h11 * h * d2gam[i + 1])
            t = a + x * h
            total += w * (1 - 2 * n * t) * dg * dg
        out[i + 1] = out[i] + total * h
    return out


def _cumulative_q_loop(s, gam, dgam, d2gam, h_of):
    out = np.zeros_like(s)
    for i in range(len(s) - 1):
        a, b = s[i], s[i + 1]
        h = b - a
        total = 0.0
        for x, w in zip(GAUSS4_NODES, GAUSS4_WEIGHTS):
            h00 = (1 + 2 * x) * (1 - x) ** 2
            h10 = x * (1 - x) ** 2
            h01 = x * x * (3 - 2 * x)
            h11 = x * x * (x - 1)
            gv = h00 * gam[i] + h10 * h * dgam[i] + h01 * gam[i + 1] + h11 * h * dgam[i + 1]
            dg = (h00 * dgam[i] + h10 * h * d2gam[i]
                  + h01 * dgam[i + 1] + h11 * h * d2gam[i + 1])
            t = a + x * h
            total += w * h_of(gv) / (4.0 * t * t * dg)
        out[i + 1] = out[i] + total * h
    return out


class TestGaussHermiteQuadrature:
    @pytest.mark.parametrize("which", ["fam1", "fam2"])
    def test_bit_identical_to_interval_loops(self, which, request, series1, series2):
        fam = request.getfixturevalue(which)
        series = series1 if which == "fam1" else series2
        run = integrate_gamma(CurvatureProfile(fam), series, SolverConfig(tol=1e-10))
        s, gam, dgam, d2gam = (run[c] for c in ("s", "gamma", "dgamma", "d2gamma"))
        prof = CurvatureProfile(fam)
        assert np.array_equal(_cumulative_energy(s, dgam, d2gam, fam.n),
                              _cumulative_energy_loop(s, dgam, d2gam, fam.n))
        # the loop is handed the same H: the array evaluation, one node at a time
        h_of = lambda v: mean_curvature(prof, np.array([v]))[0]  # noqa: E731
        assert np.array_equal(_cumulative_q_from_s(s, gam, dgam, d2gam, prof),
                              _cumulative_q_loop(s, gam, dgam, d2gam, h_of))

    def test_single_node(self, fam1):
        s = np.array([0.01])
        assert np.array_equal(_cumulative_energy(s, s, s, fam1.n), np.zeros(1))


class TestEpsilonStudy:
    def test_first_order_convergence(self, fam1, series1, solved1):
        config = SolverConfig(tol=1e-10)
        rep = epsilon_convergence_study(
            CurvatureProfile(fam1), config, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4), series1, solved1)
        assert 0.8 <= rep.slope <= 1.2
        assert rep.monotone
        assert all(s == "ok" for s in rep.statuses)
        # ablation: with B truncated to B_0 the initial second derivative is
        # pinned at 0, an O(1) defect |A_2|; corrected B tracks A_2 to O(eps)
        corr = compute_epsilon_corrections(series1, config.correction_N)
        a2 = float(series1.coefficient(2))
        corrected = abs(float(-EpsilonPolynomial(corr.B[1:])(rep.eps_list[-1])) - a2)
        assert corrected <= 0.05 * abs(a2)
        assert abs(a2) == pytest.approx(2.0, rel=1e-6)

    def test_given_direct_profile_gives_the_same_report(self, fam1, series1, solved1,
                                                         monkeypatch):
        """A caller that holds the eps = 0 profile passes it in; the study
        then integrates only the eps > 0 runs and reports the same values."""
        config = SolverConfig(tol=1e-10)
        eps_list = (1e-2, 3e-3, 1e-3)
        own = epsilon_convergence_study(solved1.curvature, config, eps_list, series1,
                                        integrate_gamma(solved1.curvature, series1, config))
        seen = []

        def recording(curvature, series, cfg, **kwargs):
            seen.append(cfg.eps)
            return integrate_gamma(curvature, series, cfg, **kwargs)

        monkeypatch.setattr(ivp_mod, "integrate_gamma", recording)
        given = epsilon_convergence_study(solved1.curvature, config, eps_list, series=series1,
                                          direct=solved1)
        assert seen == list(eps_list)
        assert given == own

    def test_series_of_another_family_raises(self, fam2, series1, solved1):
        # named up front: with the eps = 0 profile given, every eps > 0 run
        # would fail alone and the study would report too few runs instead
        with pytest.raises(OutOfRange, match="'g': 1.*for a run .*'g': 2"):
            epsilon_convergence_study(CurvatureProfile(fam2), SolverConfig(tol=1e-10),
                                      (1e-2, 3e-3, 1e-3), series=series1, direct=solved1)

    def test_eps_list_validation(self, fam1, series1, solved1):
        with pytest.raises(OutOfRange):
            epsilon_convergence_study(CurvatureProfile(fam1), SolverConfig(),
                                      (1e-3, 1e-2, 1e-4), series1, solved1)
        with pytest.raises(OutOfRange):
            epsilon_convergence_study(CurvatureProfile(fam1), SolverConfig(),
                                      (1e-2, 1e-3), series1, solved1)


class TestToDProfile:
    def test_chart_relations(self, dside1, solved1):
        s = solved1["s"][solved1["s"] > 0]
        assert np.allclose(dside1["g"], s)
        assert np.allclose(dside1["phi"], -0.5 * np.log(s))
        # round trip: s = e^{-2 phi}
        assert np.allclose(np.exp(-2 * dside1["phi"]), s, rtol=1e-13)

    def test_endpoint_inside_focal(self, dside1, fam1):
        assert dside1["d"][-1] < fam1.d_focal

    def test_phi_decreasing(self, dside1):
        assert np.all(np.diff(dside1["phi"]) < 0)

    def test_g_equation_residual(self, dside1):
        assert np.max(np.abs(dside1["eq140_residual"])) <= 1e-8

    def test_phi_equation_residual(self, dside1):
        assert np.max(np.abs(dside1["eq130_residual"])) <= 1e-8

    def test_g_over_d_limit(self, fam2, series2):
        # g(d)/d -> 1/A_1 (inverse slope of gamma) checked on a family with
        # A_1 != 1 so the direction of the inversion is unambiguous
        prof = integrate_gamma(CurvatureProfile(fam2), series2, SolverConfig(tol=1e-10))
        dp = to_d_profile(prof)
        a1 = float(series2.coefficient(1))
        ratio = dp["g"][0] / dp["d"][0]
        assert ratio == pytest.approx(1.0 / a1, rel=2e-2)

    def test_not_invertible(self, fam1, solved1):
        cols = {k: v.copy() for k, v in solved1.columns.items()}
        cols["dgamma"][5] = -1e-3
        bad = SolutionProfile(side="s_side", curvature=solved1.curvature, columns=cols,
                              meta=dict(solved1.meta))
        with pytest.raises(NotInvertible):
            to_d_profile(bad)


class TestContinuePhi:
    def test_reaches_target_past_d0(self, continued1, fam1):
        assert continued1["d"][-1] == pytest.approx(fam1.d0 + 0.05, abs=1e-12)
        assert np.all(np.isfinite(continued1["phi"]))
        assert np.all(np.isfinite(continued1["dphi"]))

    def test_identity_drift_small(self, continued1):
        assert continued1.meta["max_identity_drift"] <= 1e-6

    def test_overlap_with_incoming_chart(self, continued1, solved1):
        budget = (continued1.meta["sum_local_err"]
                  + solved1.meta["sum_local_err"]
                  + solved1.meta["series_error_gamma"])
        assert continued1.meta["overlap_max_diff"] <= 100 * budget + 1e-9

    def test_handoff_is_not_tiny(self, continued1, solved1):
        assert continued1.meta["s_h"] >= 0.1 * solved1.meta["s_end"]

    def test_reports_its_own_steps_and_rejects(self, monkeypatch):
        # on g3_m4 the continuation rejects 6 steps and the s-side 1; the
        # continued profile counts its own integration, not the s-side's
        curvature = CurvatureProfile(builtin_catalog()["g3_m4"])
        prof_s = integrate_gamma(curvature, compute_coefficients(curvature, DEFAULT_K),
                                 SolverConfig())
        runs = []

        def recording(*args, **kwargs):
            runs.append(stepper.integrate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(ivp_mod, "integrate", recording)
        cont = continue_phi(to_d_profile(prof_s))
        (run,) = [r for r in runs if r.ts[0] == cont.meta["d_h"]]
        assert (cont.meta["n_steps"], cont.meta["n_rejected"]) == (run.n_steps, run.n_rejected)
        assert run.n_rejected != prof_s.meta["n_rejected"]
        assert "n_rejected" not in to_d_profile(prof_s).meta

    def test_target_validation(self, dside1, fam1):
        with pytest.raises(OutOfRange):
            continue_phi(dside1, d_target=fam1.d_focal + 0.1)
        with pytest.raises(OutOfRange):
            continue_phi(dside1, d_target=fam1.d0 + 0.4)

    def test_target_at_or_below_handoff(self, dside1, continued1):
        # the phi chart starts at the handoff node; a target there or below
        # names it, where the stepper would reject the empty span
        d_h = continued1.meta["d_h"]
        for d_target in (d_h, 0.5 * d_h, 0.0):
            with pytest.raises(OutOfRange, match=f"handoff d_h = {d_h!r}"):
                continue_phi(dside1, d_target=d_target)

    def test_g_column_consistent(self, continued1):
        assert np.allclose(continued1["g"], np.exp(-2 * continued1["phi"]))

    def test_blowup_guard(self, dside1, fam1, monkeypatch):
        from coneshrink.errors import BlowUpDetected
        monkeypatch.setattr(ivp_mod, "BLOWUP_PHI", 0.5)  # phi starts above 0.5
        with pytest.raises(BlowUpDetected):
            continue_phi(dside1, config=SolverConfig(tol=1e-10))

    def test_identity_drift_guard(self, dside1, fam1, monkeypatch):
        from coneshrink.errors import IdentityDrift
        monkeypatch.setattr(ivp_mod, "IDENTITY_DRIFT_TOL", 1e-15)
        with pytest.raises(IdentityDrift):
            continue_phi(dside1, config=SolverConfig(tol=1e-10))

    def test_family_dependent_existence_window(self):
        # every family continues past d0, but the chart reaches a vertical
        # tangent at a family-dependent distance; the g=6 example survives
        # only a slim margin and reports BlowUpDetected beyond it
        from coneshrink.catalog import builtin_catalog
        from coneshrink.errors import BlowUpDetected
        from coneshrink.series import compute_coefficients
        fam = builtin_catalog()["g6_m2"]
        curvature = CurvatureProfile(fam)
        fs = compute_coefficients(curvature, 36)
        cfg = SolverConfig(tol=1e-10)
        dp = to_d_profile(integrate_gamma(curvature, fs, cfg))
        with pytest.raises(BlowUpDetected) as err:
            continue_phi(dp, config=cfg)
        assert err.value.d > fam.d0  # it did get past the minimal member
        ext = continue_phi(dp, d_target=fam.d0 + 0.005, config=cfg)
        assert ext["d"][-1] > fam.d0
        assert np.all(np.isfinite(ext["dphi"]))


# ---------------------------------------------------------------------------
# The tangent-angle probe against the phi chart alone: with
# TANGENT_PROBE_DPHI = inf the probe never runs, and a vertical tangent is
# found only by the phi chart's step-size collapse.
# ---------------------------------------------------------------------------

WINDOW_FAMILIES = ("g3_m8", "g4_m22", "g4_m45", "g6_m1", "g6_m2")
SOLVING_FAMILIES = tuple(sorted(set(builtin_catalog()) - set(WINDOW_FAMILIES)))


@pytest.fixture(scope="module")
def builtin_d_profile():
    """The d-side profile of a built-in family at the default config, cached."""
    cache = {}

    def get(name):
        if name not in cache:
            curvature = CurvatureProfile(builtin_catalog()[name])
            config = SolverConfig()
            series = compute_coefficients(curvature, DEFAULT_K)
            cache[name] = to_d_profile(integrate_gamma(curvature, series, config))
        return cache[name]

    return get


def _continue_counted(monkeypatch, profile_d, probe_dphi, d_target=None):
    """(continuation or the BlowUpDetected it raised, RHS calls, integrate
    calls) of ``continue_phi`` with the probe threshold ``probe_dphi``."""
    rhs_calls = integrate_calls = 0

    def counting(f, *args, **kwargs):
        nonlocal integrate_calls

        def counted(t, y):
            nonlocal rhs_calls
            rhs_calls += 1
            return f(t, y)

        integrate_calls += 1
        return stepper.integrate(counted, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ivp_mod, "integrate", counting)
        m.setattr(ivp_mod, "TANGENT_PROBE_DPHI", probe_dphi)
        try:
            out = continue_phi(profile_d, d_target=d_target)
        except BlowUpDetected as exc:
            out = exc
    return out, rhs_calls, integrate_calls


def _assert_bit_identical(got, want):
    assert got.columns.keys() == want.columns.keys()
    for name in want.columns:
        assert np.array_equal(got[name], want[name]), name
    assert got.meta == want.meta


@pytest.mark.parametrize("name", WINDOW_FAMILIES)
def test_probe_locates_the_window_at_the_collapse_abscissa(name, builtin_d_profile,
                                                           monkeypatch):
    profile_d = builtin_d_profile(name)
    got, got_calls, _ = _continue_counted(monkeypatch, profile_d, ivp_mod.TANGENT_PROBE_DPHI)
    want, want_calls, _ = _continue_counted(monkeypatch, profile_d, math.inf)
    assert type(got) is type(want) is BlowUpDetected
    assert "step collapse" in str(want)
    assert "vertical tangent of the curve (d, phi)" in str(got)
    assert type(got.d) is float
    assert abs(got.d - want.d) <= 1e-5
    assert 2 * got_calls <= want_calls, (got_calls, want_calls)


@pytest.mark.parametrize("name", SOLVING_FAMILIES)
def test_probe_leaves_solving_runs_bit_identical(name, builtin_d_profile, monkeypatch):
    profile_d = builtin_d_profile(name)
    got, _, got_integrations = _continue_counted(monkeypatch, profile_d,
                                                 ivp_mod.TANGENT_PROBE_DPHI)
    want, _, _ = _continue_counted(monkeypatch, profile_d, math.inf)
    assert got_integrations == 1  # no step came near the probe threshold
    _assert_bit_identical(got, want)


def test_probe_returns_its_run_up_to_the_target(builtin_d_profile, monkeypatch):
    # g6_m2 to just short of its tangent: the probe's run stops at its first
    # node with cos(alpha) <= 0 or d >= d_target, and the probe returns it
    profile_d = builtin_d_profile("g6_m2")
    window, _, _ = _continue_counted(monkeypatch, profile_d, ivp_mod.TANGENT_PROBE_DPHI)
    d_target = window.d - 1e-6
    probe, runs = ivp_mod._probe_vertical_tangent, []

    def recording(*args):
        runs.append(probe(*args))
        return runs[-1]

    monkeypatch.setattr(ivp_mod, "_probe_vertical_tangent", recording)
    continue_phi(profile_d, d_target=d_target)
    (run,) = runs
    ys = np.array(run.ys)
    d, alpha = ys[:, 0], ys[:, 2]
    assert np.all(d[:-1] < d_target) and np.all(np.cos(alpha[:-1]) > 0)
    assert d[-1] >= d_target or math.cos(alpha[-1]) <= 0
    assert run.n_steps == len(run.ts) - 1


def test_probe_short_of_the_window_solves_bit_identical(builtin_d_profile, monkeypatch):
    # g6_m2 to just short of its tangent: the probe runs, reaches d_target
    # before the tangent, and leaves the phi chart to finish
    profile_d = builtin_d_profile("g6_m2")
    window, _, _ = _continue_counted(monkeypatch, profile_d, ivp_mod.TANGENT_PROBE_DPHI)
    d_target = window.d - 1e-6
    got, _, got_integrations = _continue_counted(monkeypatch, profile_d,
                                                 ivp_mod.TANGENT_PROBE_DPHI, d_target)
    want, _, _ = _continue_counted(monkeypatch, profile_d, math.inf, d_target)
    assert got_integrations == 2  # the phi chart and the probe
    assert np.max(np.abs(got["dphi"])) > ivp_mod.TANGENT_PROBE_DPHI
    assert got["d"][-1] == pytest.approx(d_target, abs=1e-12)
    _assert_bit_identical(got, want)


# ---------------------------------------------------------------------------
# The bootstrap scan against the linear scan that evaluates both truncations
# at every grid point, and the RHS state form in a default solve.
# ---------------------------------------------------------------------------

def _bootstrap_oracle(series, target, s_hi):
    """The bootstrap point by the linear scan over s_hi * 0.85^j that
    evaluates gamma and gamma' at every grid point."""
    s = s_hi
    while s > 1e-8:
        try:
            ev0 = ivp_mod.evaluate_truncated(series, s, derivative=0)
            ev1 = ivp_mod.evaluate_truncated(series, s, derivative=1)
            if max(ev0.error_estimate, ev1.error_estimate) <= target:
                return s, ev0, ev1
        except NoUsefulTruncation:
            pass
        s *= 0.85
    raise NoUsefulTruncation(
        f"series cannot reach bootstrap error {target:.3e} anywhere below {s_hi!r}")


def _bootstrap_outcome(scan, series, target, s_hi):
    """Every bit of a scan's (s_b, ev0, ev1), or its raise up to the advice."""
    try:
        s, ev0, ev1 = scan(series, target, s_hi)
    except NoUsefulTruncation as exc:
        return "raised", str(exc).partition("; ")[0]
    return (s.hex(), *((float(ev.value).hex(), ev.error_estimate.hex(), ev.k_star)
                       for ev in (ev0, ev1)))


def test_bootstrap_point_matches_the_linear_scan():
    """Over the 14 built-ins in both profile modes at theta1 x0.90-1.10, at
    K 40 and tol 1e-8 to 1e-13, and at K 20 and tol 1e-12, the scan that
    skips gamma' where gamma's estimate fails returns the oracle's
    (s_b, ev0, ev1) to the bit, or raises where it raises."""
    outcomes = {"returned": 0, "raised": 0}
    for name, fam in sorted(builtin_catalog().items()):
        for mode in PROFILE_MODES:
            for scale in (0.90, 0.95, 1.00, 1.05, 1.10):
                member = make_family(fam.g, fam.m_minus, fam.m_plus, fam.n, fam.theta1 * scale)
                for K, tols in ((40, (1e-8, 1e-10, 1e-12, 1e-13)), (20, (1e-12,))):
                    series = compute_coefficients(CurvatureProfile(member, mode), K)
                    for tol in tols:
                        args = (series, ivp_mod.BOOTSTRAP_FACTOR * tol, member.s_end / 2)
                        got = _bootstrap_outcome(ivp_mod._bootstrap_point, *args)
                        assert got == _bootstrap_outcome(_bootstrap_oracle, *args), (
                            name, mode, scale, K, tol)
                        outcomes["raised" if got[0] == "raised" else "returned"] += 1
    assert min(outcomes.values()) > 0, outcomes


_ESTIMATE = st.sampled_from([1e-20, 1e-12, 1.0, math.nan, math.inf, None])


@given(st.lists(st.tuples(_ESTIMATE, _ESTIMATE), min_size=1, max_size=8))
def test_bootstrap_point_decides_nan_and_raises_as_the_linear_scan(script):
    """With scripted error estimates per grid point (None: the evaluation
    raises NoUsefulTruncation), NaN among them, the scan returns or raises
    as the oracle does, and evaluates gamma' only where gamma's estimate
    does not exceed the target."""
    fam = builtin_catalog()["g1_sphere_n2"]
    series = FormalSeries(CurvatureProfile(fam), DOUBLE_PREC, (1.0,), (0.0,))
    s_hi, target = 0.1, 1e-12
    grid = [s_hi]
    while grid[-1] > 1e-8:
        grid.append(grid[-1] * 0.85)
    calls = []

    def scripted(series, s, derivative=0):
        calls.append(derivative)
        j = grid.index(s)
        est = script[j][derivative] if j < len(script) else None
        if est is None:
            raise NoUsefulTruncation(f"scripted at s = {s!r}")
        return TruncatedValue(value=s, error_estimate=est, k_star=j)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ivp_mod, "evaluate_truncated", scripted)
        got = _bootstrap_outcome(ivp_mod._bootstrap_point, series, target, s_hi)
        got_calls = list(calls)
        calls.clear()
        want = _bootstrap_outcome(_bootstrap_oracle, series, target, s_hi)
    assert got == want
    ev0_calls = got_calls.count(0)
    assert ev0_calls == calls.count(0)
    # gamma' is evaluated at exactly the points whose gamma estimate passes
    passing = [j for j, (e0, _) in enumerate(script[:ev0_calls])
               if e0 is not None and not e0 > target]
    assert got_calls.count(1) == len(passing) <= calls.count(1)


def test_no_ndarray_reaches_an_rhs_closure_in_a_default_solve(tmp_path, monkeypatch, capsys):
    """In default solves, one that exits 0 and one that meets its vertical
    tangent, the s-side, d-side and tangent-probe RHS receive every state
    as a list of floats."""
    seen = {}

    def spying(f, *args, **kwargs):
        def rhs(t, y):
            seen.setdefault(f.__qualname__, set()).update({type(y), *map(type, y)})
            return f(t, y)
        return stepper.integrate(rhs, *args, **kwargs)

    monkeypatch.setattr(ivp_mod, "integrate", spying)
    for name, code in (("g1_sphere_n2", 0), ("g6_m2", 4)):
        fam = builtin_catalog()[name]
        argv = ["solve", "--g", str(fam.g), "--m-minus", str(fam.m_minus),
                "--m-plus", str(fam.m_plus), "--n", str(fam.n), "--theta1", repr(fam.theta1),
                "--out", str(tmp_path / name)]
        assert cli.main(argv) == code, capsys.readouterr().err
    assert seen == {"s_side_rhs": {list, float},
                    "d_side_rhs": {list, float},
                    "curve_rhs": {list, float}}


# ---------------------------------------------------------------------------
# The fused kernels against the generic attempt on their own callables.
# ---------------------------------------------------------------------------

ALL_PROFILES = [CurvatureProfile(fam, mode) for fam in builtin_catalog().values()
                for mode in PROFILE_MODES]
KERNELS = (ivp_mod._s_side_kernel, ivp_mod._d_side_kernel, ivp_mod._curve_kernel)


def _bits(value):
    """``value`` with each float as its hex form, so that == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _outcome(attempt, *args):
    """What ``attempt(*args)`` returns, in bits, or the type of what it raises."""
    try:
        return _bits(attempt(*args))
    except ArithmeticError as exc:
        return type(exc)


def _kernel_cases(profile):
    """(name, f, states) per kernel and constants of ``profile``; a state
    is (t, y, h).  The s-side states include ones whose stages leave
    [0, d_focal), below 0 or past d_focal."""
    fam = profile.family
    n, d_focal, s_end = fam.n, fam.d_focal, fam.s_end
    cases = [("s_side_rhs", ivp_mod._rhs(ivp_mod._s_side_kernel, profile, n, eps, d_focal),
              [(s * s_end, [g * d_focal, dg, 0.1], h * s_end)
               for s in (0.01, 0.5) for g in (0.02, 0.5, 0.99) for dg in (-3.0, 0.5, 3.0)
               for h in (1e-4, 1e-2, 0.5)])
             for eps in (0.0, 1e-3)]
    cases.append(("d_side_rhs", ivp_mod._rhs(ivp_mod._d_side_kernel, profile, n),
                  [(x * d_focal, [phi, dphi, 0.0], h)
                   for x in (0.1, 0.6) for phi in (-1.0, 0.5) for dphi in (-4.0, 0.3, 20.0)
                   for h in (1e-4, 1e-2, 0.1)]))
    cases.append(("curve_rhs", ivp_mod._rhs(ivp_mod._curve_kernel, profile, n),
                  [(0.0, [x * d_focal, phi, alpha], h)
                   for x in (0.1, 0.6) for phi in (-1.0, 0.5) for alpha in (-1.2, 0.3, 1.5)
                   for h in (1e-3, 0.1)]))
    return cases


@pytest.mark.parametrize("profile", ALL_PROFILES,
                         ids=[f"{name}-{mode}" for name in builtin_catalog()
                              for mode in PROFILE_MODES])
def test_fused_attempts_equal_the_generic_attempt(profile):
    """Each kernel's fused attempt returns, bit for bit, what the generic
    attempt returns on the kernel's own callable: the step or None (or
    raises what it raises: exp overflows on some d-side stages)."""
    generic = stepper._attempt(3)
    for name, f, states in _kernel_cases(profile):
        assert (f.__qualname__, f.__module__) == (name, "coneshrink.ivp")
        outcomes = set()
        for t, y, h in states:
            k1 = list(map(float, f(t, y)))
            want = _outcome(generic, f, t, y, h, k1, 1e-10, 1e-10)
            assert _outcome(f.fused_attempt, f, t, y, h, k1, 1e-10, 1e-10) == want, (t, y, h)
            outcomes.add(want is None)
        if name == "s_side_rhs":
            assert outcomes == {False, True}


@pytest.mark.parametrize("kernel, t0, y0, t_end, first_step, last_good", [
    # from d = 0.1 d_focal: the run climbs until its step collapses at d = 1.2474
    (ivp_mod._d_side_kernel, 0.1, [0.5, 20.0, 0.0], 0.6, 0.1, 1.2473873543720917),
    # the curve chart from phi just below PHI_EXP_MAX: no step is accepted
    (ivp_mod._curve_kernel, 0.0, [None, 354.8, 1.5], 1.0, 1.0, 0.0),
], ids=["d_side", "curve"])
def test_exp_overflow_rejects_the_stage(kernel, t0, y0, t_end, first_step, last_good, fam1):
    """A stage whose e^{2 phi} overflows binary64 is outside the d-side and
    curve-chart bodies' domain: the attempt rejects it as it rejects a
    non-finite stage, in the fused and the generic attempt alike, where
    math.exp raised OverflowError."""
    profile = CurvatureProfile(fam1)
    d_focal = fam1.d_focal
    f = ivp_mod._rhs(kernel, profile, fam1.n)
    y0 = [0.1 * d_focal if v is None else v for v in y0]
    for rhs in (f, lambda t, y: f(t, y)):
        with pytest.raises(StepSizeCollapse, match="step size underflow") as err:
            stepper.integrate(rhs, t0 * d_focal, y0, t_end * d_focal, first_step=first_step)
        assert err.value.last_good == last_good


@pytest.mark.parametrize("name, mode, eps_list, kernels", [
    ("g1_sphere_n2", "cot_sum", ivp_mod.DEFAULT_EPS_LIST, {"s_side_rhs", "d_side_rhs"}),
    ("g2_product_12", "cot_sum", None, {"s_side_rhs", "d_side_rhs"}),
    ("g2_product_12", EQ030_LITERAL, None, {"s_side_rhs", "d_side_rhs"}),
    ("g4_m45", "cot_sum", None, {"s_side_rhs", "curve_rhs"}),
    ("g6_m2", EQ030_LITERAL, None, {"s_side_rhs", "curve_rhs"}),
])
def test_fused_runs_equal_generic_runs(name, mode, eps_list, kernels, monkeypatch):
    """Every integration of a solve that returns (the d-side run of a
    family that meets its vertical tangent raises), rerun with the kernel
    and with a plain wrapper around it (which takes the generic attempt),
    gives the same nodes, derivatives, errors and counts, bit for bit."""
    runs = []

    def recording(f, *args, **kwargs):
        result = stepper.integrate(f, *args, **kwargs)
        runs.append((f, args, kwargs))
        return result

    monkeypatch.setattr(ivp_mod, "integrate", recording)
    try:
        ivp_mod.solve(CurvatureProfile(builtin_catalog()[name], mode), SolverConfig(),
                      eps_list=eps_list)
    except BlowUpDetected:
        pass
    assert {f.__qualname__ for f, _, _ in runs} == kernels
    for f, args, kwargs in runs:
        fused = stepper.integrate(f, *args, **kwargs)
        generic = stepper.integrate(lambda t, y: f(t, y), *args, **kwargs)
        for field in ("ts", "ys", "fs", "errs"):
            assert np.array_equal(getattr(fused, field), getattr(generic, field)), field
        assert (fused.n_steps, fused.n_rejected) == (generic.n_steps, generic.n_rejected)


def test_kernels_compile_per_structure_not_per_solve(fam1):
    """The default solves of the 14 built-ins in both profile modes and one
    epsilon study compile at most two kernels per side (one per number of
    cot terms), and solving them all again compiles none."""
    def solve_all():
        for profile in ALL_PROFILES:
            try:
                ivp_mod.solve(profile, SolverConfig())
            except (BlowUpDetected, NotMeanConvex):
                pass
        ivp_mod.solve(CurvatureProfile(fam1), SolverConfig(), eps_list=ivp_mod.DEFAULT_EPS_LIST)

    for kernel in KERNELS:
        kernel.cache_clear()
    solve_all()
    compiled = [kernel.cache_info().misses for kernel in KERNELS]
    assert all(1 <= count <= 2 for count in compiled), compiled
    solve_all()
    assert [kernel.cache_info().misses for kernel in KERNELS] == compiled


class TestSolve:
    """``solve`` is the chain that ``coneshrink solve`` writes out."""

    @pytest.mark.parametrize("flags, K, tol, eps_list", [
        ([], DEFAULT_K, 1e-10, None),
        (["--K", "20", "--tol", "1e-12", "--eps-study"], 20, 1e-12, ivp_mod.DEFAULT_EPS_LIST),
    ], ids=["defaults", "eps_study"])
    def test_summary_is_the_written_summary(self, fam1, flags, K, tol, eps_list, tmp_path,
                                            capsys):
        argv = ["solve", "--g", "1", "--m", "1", "--n", "2", "--theta1", repr(fam1.theta1),
                *flags, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        written = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        run = ivp_mod.solve(CurvatureProfile(fam1), SolverConfig(tol=tol), K, eps_list=eps_list)
        assert cli._finite_or_null(run.summary()) == written

    def test_relative_target_without_d0_is_not_mean_convex(self):
        # the eq030 H of this family is negative at 0 and has no d0: the
        # s-side run must reject it before the target is resolved
        curvature = CurvatureProfile(make_family(2, 1, 2, 4, 0.95), EQ030_LITERAL)
        with pytest.raises(NotMeanConvex):
            ivp_mod.solve(curvature, SolverConfig(), to_d=(True, 0.01))


class TestCsvRoundTrip:
    def test_s_side(self, solved1, fam1, tmp_path):
        path = tmp_path / "s.csv"
        write_profile_csv(solved1, path)
        back = read_profile_csv(path, CurvatureProfile(fam1))
        assert back.side == "s_side"
        for col in ("s", "gamma", "dgamma", "d2gamma", "local_err"):
            assert np.array_equal(back[col], solved1[col])

    def test_d_side(self, continued1, fam1, tmp_path):
        path = tmp_path / "d.csv"
        write_profile_csv(continued1, path)
        back = read_profile_csv(path, CurvatureProfile(fam1))
        assert back.side == "d_side"
        header = path.read_text().splitlines()[0]
        assert header == "d,phi,dphi,g,eq130_residual,eq350_drift"

    def test_eq030_s_side_keeps_its_mode(self, tmp_path):
        # read back under its own profile, an eq030_literal run keeps its
        # energy monitor; under the cot-sum H it reads 0.1 on this family
        from coneshrink.catalog import builtin_catalog
        curvature = CurvatureProfile(builtin_catalog()["g2_product_12"], EQ030_LITERAL)
        series = compute_coefficients(curvature, 40)
        run = integrate_gamma(curvature, series, SolverConfig(tol=1e-10))
        assert np.max(np.abs(run["energy_residual"])) <= 1e-8
        path = tmp_path / "s.csv"
        write_profile_csv(run, path)
        back = read_profile_csv(path, curvature)
        assert back.curvature.mode == EQ030_LITERAL
        assert energy_residual(back).max_abs <= 1e-8

    def test_s_header_pinned(self, solved1, tmp_path):
        path = tmp_path / "s.csv"
        write_profile_csv(solved1, path)
        header = path.read_text().splitlines()[0]
        assert header == "s,gamma,dgamma,d2gamma,local_err,energy_residual"

    def test_values_print_as_their_float_repr(self, tmp_path):
        """Every value as repr(float(v)): an int column prints 1.0, a float32
        column its exact widening, and -0.0, nan and inf keep their text."""
        cols = [np.array([1, 2, 3]), np.array([0.1, -0.0, np.nan], dtype=np.float32),
                [1e-310, float("inf"), 2.0 ** 60 + 1]]
        path = tmp_path / "c.csv"
        write_csv(path, ["a", "b", "c"], cols)
        rows = [",".join(repr(float(v)) for v in row) for row in zip(*cols)]
        assert path.read_text() == "\n".join(["a,b,c", *rows]) + "\n"
        assert path.read_text().splitlines()[1].startswith("1.0,0.10000000149011612,1e-310")


def test_gamma_dense_interpolation(solved1):
    s = solved1["s"]
    mid = 0.5 * (s[10] + s[11])
    val = hermite_eval(s, solved1["gamma"], solved1["dgamma"], mid)
    assert solved1["gamma"][10] < val < solved1["gamma"][11]
