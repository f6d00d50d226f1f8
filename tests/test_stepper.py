import copy
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coneshrink import ivp
from coneshrink.catalog import CurvatureProfile, builtin_catalog
from coneshrink.errors import BlowUpDetected, StepSizeCollapse
from coneshrink.numutil import hermite_eval
from coneshrink.series import DEFAULT_K, compute_coefficients
from coneshrink.stepper import (_A, _B4, _B5, _C, IntegrationResult, _attempt, _error_norm,
                                integrate, integrate_implicit)


def test_accuracy_on_harmonic_oscillator():
    def f(t, y):
        return (y[1], -y[0])

    res = integrate(f, 0.0, np.array([1.0, 0.0]), 2 * math.pi, rtol=1e-10, atol=1e-10)
    assert res.ys[-1, 0] == pytest.approx(1.0, abs=1e-8)
    assert res.ys[-1, 1] == pytest.approx(0.0, abs=1e-8)


def test_dense_output():
    # cubic Hermite between nodes: needs steps capped to stay at ~1e-8
    def f(t, y):
        return (math.cos(t),)

    res = integrate(f, 0.0, np.array([0.0]), 3.0, rtol=1e-9, atol=1e-9,
                    max_step=0.05)
    for t in (0.37, 1.51, 2.93):
        y = hermite_eval(res.ts, res.ys[:, 0], res.fs[:, 0], t)
        assert y == pytest.approx(math.sin(t), abs=1e-7)


def test_tolerance_scaling():
    def f(t, y):
        return (y[1], -y[0])

    ends = []
    for tol in (1e-6, 1e-8, 1e-10):
        res = integrate(f, 0.0, np.array([1.0, 0.0]), 10.0, rtol=tol, atol=tol)
        ends.append(abs(res.ys[-1, 0] - math.cos(10.0)))
    assert ends[0] > ends[1] > ends[2]


def test_collapse_near_blowup():
    # y' = y^2 blows up at t = 1; the controller must stall, not loop forever
    def f(t, y):
        return (y[0] * y[0],)

    with pytest.raises(StepSizeCollapse) as err:
        integrate(f, 0.0, np.array([1.0]), 2.0, rtol=1e-8, atol=1e-8, max_steps=20000)
    assert 0.9 < err.value.last_good <= 1.05


def test_step_budget_collapse():
    def f(t, y):
        return (-2000.0 * (y[0] - math.cos(t)),)

    with pytest.raises(StepSizeCollapse):
        integrate(f, 0.0, np.array([0.0]), 1.0, rtol=1e-8, atol=1e-8, max_steps=40)


def test_implicit_handles_stiff():
    lam = 2000.0

    def f(t, y):
        return (-lam * (y[0] - math.cos(t)),)

    res = integrate_implicit(f, 0.0, np.array([0.0]), 1.0, rtol=1e-8, atol=1e-8)
    # quasi-steady solution: y ~ cos t + sin t / lam + O(1/lam^2)
    expect = math.cos(1.0) + math.sin(1.0) / lam
    assert res.ys[-1, 0] == pytest.approx(expect, abs=1e-5)
    # comfortably below the ~714 steps the explicit stability bound would force
    assert res.n_steps < 600


def test_accept_hook_abort():
    def f(t, y):
        return (1.0,)

    class Abort(RuntimeError):
        pass

    def hook(t, y):
        if y[0] > 0.5:
            raise Abort

    with pytest.raises(Abort):
        integrate(f, 0.0, np.array([0.0]), 1.0, rtol=1e-8, atol=1e-8,
                  accept_hook=hook)


def test_accept_hook_true_ends_the_run():
    """A hook that returns a true value ends the run at that node; the nodes
    up to it are those of the run without the hook."""
    def f(t, y):
        return (1.0,)

    full = integrate(f, 0.0, np.array([0.0]), 1.0, rtol=1e-8, atol=1e-8)
    cut = integrate(f, 0.0, np.array([0.0]), 1.0, rtol=1e-8, atol=1e-8,
                    accept_hook=lambda t, y: y[0] > 0.5)
    assert cut.ys[-1, 0] > 0.5 >= cut.ys[-2, 0]
    assert len(cut.ts) < len(full.ts) and cut.n_steps == len(cut.ts) - 1
    for field in ("ts", "ys", "fs", "errs"):
        assert np.array_equal(getattr(cut, field), getattr(full, field)[:len(cut.ts)]), field


def test_abscissa_stays_a_python_float():
    # the first step comes from np.max; a collapse message prints the abscissa
    with pytest.raises(StepSizeCollapse) as err:
        integrate(lambda t, y: (1.0 / (1.0 - t),), 0.0, np.array([0.0]), 2.0)
    assert type(err.value.last_good) is float


def test_rhs_gets_and_may_return_ndarray():
    seen = []

    def f(t, y):
        seen.append(type(y))
        return -y

    res = integrate(f, 0.0, np.array([1.0]), 1.0, rtol=1e-8, atol=1e-8)
    assert set(seen) == {np.ndarray}
    assert res.ys[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-7)
    assert res.ys.shape == res.fs.shape == (len(res.ts), 1)


# ---------------------------------------------------------------------------
# The numpy stage loop that the scalar loop replaced, kept as the oracle: the
# scalar loop must reproduce it bit for bit, RHS calls included.
# ---------------------------------------------------------------------------

def _numpy_error_norm(err, y0, y1, atol, rtol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _integrate_oracle(f, t0, y0, t_end, rtol=1e-10, atol=1e-10, max_step=np.inf,
                      first_step=None, max_steps=1_000_000, accept_hook=None):
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    t_end = float(t_end)
    max_step = float(max_step)
    span = t_end - t
    if span <= 0:
        raise ValueError("t_end must exceed t0")
    k1 = np.asarray(f(t, y), dtype=float)
    if first_step is None:
        scale = np.max(np.abs(k1)) + 1e-30
        first_step = min(span * 1e-3, 0.1 * (1.0 + np.max(np.abs(y))) / scale, max_step)
    h = float(max(min(first_step, max_step, span), 1e-300))
    h_floor = max(span * 1e-14, abs(t_end) * 2.3e-16, 1e-300)

    ts, ys, fs, errs = [t], [y.copy()], [k1.copy()], [0.0]
    n_steps = n_rejected = 0
    while t < t_end:
        if n_steps + n_rejected > max_steps:
            raise StepSizeCollapse("step budget exhausted", last_good=t)
        h = min(h, t_end - t, max_step)
        if h < h_floor:
            raise StepSizeCollapse("step size underflow", last_good=t)
        ks = [k1]
        failed = False
        for i in range(1, 7):
            # sum() over arrays adds elementwise with no compensation
            yi = y + h * sum(a * k for a, k in zip(_A[i], ks))
            if not np.all(np.isfinite(yi)):
                failed = True
                break
            ks.append(np.asarray(f(t + _C[i] * h, yi), dtype=float))
        if failed or not all(np.all(np.isfinite(k)) for k in ks):
            n_rejected += 1
            h *= 0.25
            continue
        y5 = y + h * sum(b * k for b, k in zip(_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_B4, ks))
        err_vec = y5 - y4
        err = _numpy_error_norm(err_vec, y, y5, atol, rtol)
        if err <= 1.0:
            t = t + h
            y = y5
            k1 = ks[6]
            ts.append(t)
            ys.append(y.copy())
            fs.append(k1.copy())
            errs.append(float(np.max(np.abs(err_vec))))
            n_steps += 1
            if accept_hook is not None and accept_hook(t, y):
                break
            factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            n_rejected += 1
            h *= max(0.1, 0.9 * err ** -0.2)
    return IntegrationResult(
        ts=np.array(ts), ys=np.array(ys), fs=np.array(fs), errs=np.array(errs),
        n_steps=n_steps, n_rejected=n_rejected,
    )


def _run_counted(integrator, f, *args, **kwargs):
    """(result or raised exception, RHS call count)."""
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        return f(t, y)

    try:
        return integrator(counted, *args, **kwargs), calls
    except StepSizeCollapse as exc:
        return exc, calls


def _osc(t, y):
    return (y[1], -y[0])


def _stiff(t, y):
    return (-2000.0 * (y[0] - math.cos(t)),)


def _inf_below(t, y):
    # infinite below the solution's range, where a large step's stages land
    return (-y[0] if y[0] > 0.5 else math.inf,)


def _decay(t, y):
    return [-v for v in y]


class _FailsOnCall:
    """y' = -y, except that component ``j`` of call ``n`` returns ``value``."""

    def __init__(self, n, value, j=0):
        self.n, self.value, self.j, self.calls = n, value, j, 0

    def __call__(self, t, y):
        self.calls += 1
        k = _decay(t, y)
        if self.calls == self.n:
            k[self.j] = self.value
        return k


ORACLE_CASES = {
    "oscillator": (_osc, 0.0, [1.0, 0.0], 2 * math.pi, dict(rtol=1e-10, atol=1e-10)),
    "oscillator_1e-6": (_osc, 0.0, [1.0, 0.0], 10.0, dict(rtol=1e-6, atol=1e-6)),
    "cos_capped": (lambda t, y: (math.cos(t),), 0.0, [0.0], 3.0,
                   dict(rtol=1e-9, atol=1e-9, max_step=0.05)),
    "ndarray_rhs": (lambda t, y: -y, 0.0, [1.0, -2.0, 0.5], 1.0, dict(rtol=1e-8, atol=1e-8)),
    "stiff": (_stiff, 0.0, [0.0], 0.1, dict(rtol=1e-8, atol=1e-8)),
    "inf_region": (_inf_below, 0.0, [1.0], 0.6, dict(rtol=1e-9, atol=1e-9, first_step=2.0)),
    # call 7 is the last stage of the first attempt: only its own check sees it
    "inf_last_stage": (_FailsOnCall(7, math.inf), 0.0, [1.0], 1.0, dict(rtol=1e-9, atol=1e-9)),
    "nan_last_stage": (_FailsOnCall(7, math.nan), 0.0, [1.0], 1.0, dict(rtol=1e-9, atol=1e-9)),
    # call 2 is k2, finite, but -56/15 * k2 overflows the third stage state
    "overflow_stage": (_FailsOnCall(2, 1.5e308), 0.0, [1.0], 1.0, dict(rtol=1e-9, atol=1e-9)),
    # three components, with only the last or the middle one non-finite: a
    # check that reads fewer components than the state has fails these
    "inf_last_component": (_FailsOnCall(4, math.inf, j=2), 0.0, [1.0, -2.0, 0.5], 1.0,
                           dict(rtol=1e-9, atol=1e-9)),
    "nan_middle_last_stage": (_FailsOnCall(7, math.nan, j=1), 0.0, [1.0, -2.0, 0.5], 1.0,
                              dict(rtol=1e-9, atol=1e-9)),
    # k2 finite, but -56/15 * k2 overflows component 2 of the third stage state only
    "overflow_last_component": (_FailsOnCall(2, 1.5e308, j=2), 0.0, [1.0, -2.0, 0.5], 1.0,
                                dict(rtol=1e-9, atol=1e-9)),
    "blowup_collapse": (lambda t, y: (y[0] * y[0],), 0.0, [1.0], 2.0,
                        dict(rtol=1e-8, atol=1e-8, max_steps=20000)),
    "budget_collapse": (_stiff, 0.0, [0.0], 1.0, dict(rtol=1e-8, atol=1e-8, max_steps=40)),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the oracle's
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_scalar_loop_matches_numpy_oracle(name):
    f, t0, y0, t_end, kw = ORACLE_CASES[name]
    # each run gets its own copy of a stateful RHS
    got, got_calls = _run_counted(integrate, copy.copy(f), t0, np.array(y0), t_end, **kw)
    want, want_calls = _run_counted(_integrate_oracle, copy.copy(f), t0, np.array(y0),
                                    t_end, **kw)
    assert got_calls == want_calls
    if isinstance(want, StepSizeCollapse):
        assert type(got) is StepSizeCollapse
        assert str(got) == str(want) and got.last_good == want.last_good
        return
    for field in ("ts", "ys", "fs", "errs"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert (got.n_steps, got.n_rejected) == (want.n_steps, want.n_rejected)


@pytest.mark.parametrize("name", ["inf_region", "inf_last_stage", "nan_last_stage",
                                  "overflow_stage", "inf_last_component",
                                  "nan_middle_last_stage", "overflow_last_component"])
def test_non_finite_stage_rejects(name):
    # with a finite RHS everywhere the same run rejects fewer steps
    f, t0, y0, t_end, kw = ORACLE_CASES[name]
    finite = integrate(_decay, t0, np.array(y0), t_end, **kw)
    res = integrate(copy.copy(f), t0, np.array(y0), t_end, **kw)
    assert res.n_rejected > finite.n_rejected
    assert np.all(np.isfinite(res.ys))


@pytest.mark.parametrize("form", [list, np.array])
@pytest.mark.parametrize("call, returned", [(1, 2), (1, 4), (3, 2), (7, 4)])
def test_rhs_length_mismatch_raises(form, call, returned):
    """An RHS that returns fewer or more components than the state has
    raises ValueError naming both lengths, at the first call (k1) or at a
    stage, instead of running on a shortened state."""
    calls = 0

    def f(t, y):
        nonlocal calls
        calls += 1
        n = returned if calls == call else len(y)
        return [-y[j % len(y)] for j in range(n)]

    with pytest.raises(ValueError, match=f"^f returned {returned} components for a state of 3$"):
        integrate(f, 0.0, form([1.0, -2.0, 0.5]), 1.0, rtol=1e-8, atol=1e-8)
    assert calls == call


def test_empty_state_raises():
    with pytest.raises(ValueError, match="at least one component"):
        integrate(lambda t, y: [], 0.0, [], 1.0, first_step=0.1)


def test_attempt_is_compiled_once_per_dimension():
    """integrate looks the attempt up once per run, by the state's length;
    every run of one dimension shares one compiled attempt."""
    _attempt.cache_clear()
    for y0 in ([1.0, 0.0], (2.0, 0.5), np.array([0.0, 1.0]), [1.0]):
        integrate(_decay, 0.0, y0, 0.5)
    info = _attempt.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)


# the oracle cases whose RHS takes a list as well as an ndarray
LIST_STATE_CASES = sorted(set(ORACLE_CASES) - {"ndarray_rhs"})


@pytest.mark.parametrize("form, kind", [(list, list), (tuple, list), (np.array, np.ndarray)])
def test_rhs_gets_the_state_in_the_form_of_y0(form, kind):
    """A list or tuple y0 gives the RHS lists of floats, an ndarray y0
    ndarrays, at the first call and at every stage."""
    seen = set()

    def f(t, y):
        seen.add(type(y))
        seen.update(type(v) for v in y)
        return (y[1], -y[0])

    integrate(f, 0.0, form([1.0, 0.0]), 1.0, rtol=1e-8, atol=1e-8)
    assert seen == {kind, float if kind is list else np.float64}


@pytest.mark.parametrize("name", LIST_STATE_CASES)
def test_state_forms_give_identical_runs(name):
    """The list, tuple and ndarray forms of y0 give the same nodes, states,
    derivatives and error estimates to the bit, with the same RHS calls,
    or the same collapse."""
    f, t0, y0, t_end, kw = ORACLE_CASES[name]
    runs = [_run_counted(integrate, copy.copy(f), t0, form(y0), t_end, **kw)
            for form in (list, tuple, np.array)]
    (want, want_calls), others = runs[-1], runs[:-1]
    for got, got_calls in others:
        assert got_calls == want_calls
        if isinstance(want, StepSizeCollapse):
            assert type(got) is StepSizeCollapse
            assert str(got) == str(want) and got.last_good == want.last_good
            continue
        for field in ("ts", "ys", "fs", "errs"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert (got.n_steps, got.n_rejected) == (want.n_steps, want.n_rejected)


class _Linear:
    """y' = M y + w cos(t), returning an ndarray or a tuple of floats."""

    def __init__(self, m, w, as_array):
        self.m, self.w, self.as_array = np.array(m), np.array(w), as_array

    def __call__(self, t, y):
        k = self.m @ y + self.w * math.cos(t)
        return k if self.as_array else tuple(k.tolist())


_tol_strategy = st.builds(lambda mant, exp: mant * 10.0 ** exp,
                          st.floats(1.0, 9.99), st.integers(-10, -3))


@st.composite
def _linear_cases(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.floats(-2.0, 2.0)
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    w = draw(st.lists(entry, min_size=n, max_size=n))
    y0 = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    t_end = draw(st.floats(0.05, 1.0))
    kw = dict(rtol=draw(_tol_strategy), atol=draw(_tol_strategy),
              max_step=draw(st.one_of(st.just(np.inf), st.floats(1e-3, 1.0))))
    return _Linear(m, w, draw(st.booleans())), y0, t_end, kw


@given(_linear_cases())
def test_straight_line_stages_match_numpy_oracle(case):
    """On random linear systems of dimension 1-7, with random tolerances,
    step caps and forcing, and RHS returning ndarrays or tuples, the
    straight-line stage sums reproduce the numpy stage loop to the bit,
    RHS calls included.  A re-associated stage sum fails this; a dropped
    zero weight cannot: every stage that reaches a sum is finite, so its
    term is +-0.0, added to an accumulator that starts at the integer 0
    and so is never -0.0, and it changes no bit."""
    f, y0, t_end, kw = case
    got, got_calls = _run_counted(integrate, f, 0.0, np.array(y0), t_end, **kw)
    want, want_calls = _run_counted(_integrate_oracle, f, 0.0, np.array(y0), t_end, **kw)
    assert got_calls == want_calls
    for field in ("ts", "ys", "fs", "errs"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert (got.n_steps, got.n_rejected) == (want.n_steps, want.n_rejected)


def _solve_chain(fam):
    """(s-side profile, d-side continuation or the BlowUpDetected it raised)."""
    cfg = ivp.SolverConfig(tol=1e-10)
    curvature = CurvatureProfile(fam)
    series = compute_coefficients(curvature, DEFAULT_K)
    prof = ivp.integrate_gamma(curvature, series, cfg)
    try:
        cont = ivp.continue_phi(ivp.to_d_profile(prof), config=cfg)
    except BlowUpDetected as exc:
        cont = exc
    reg = ivp.integrate_gamma(CurvatureProfile(fam), None,
                              ivp.SolverConfig(tol=1e-8, eps=1e-2),
                              initial_slope=float(series.coefficient(1)))
    return prof, cont, reg


def _assert_profiles_equal(got, want):
    assert got.columns.keys() == want.columns.keys()
    for name in want.columns:
        assert np.array_equal(got[name], want[name], equal_nan=True), name
    assert got.meta == want.meta


@pytest.mark.parametrize("name", ["g1_sphere_n2", "g6_m2"])
def test_solver_chain_matches_numpy_oracle(name, monkeypatch):
    fam = builtin_catalog()[name]
    got = _solve_chain(fam)
    with monkeypatch.context() as m:
        m.setattr(ivp, "integrate", _integrate_oracle)
        want = _solve_chain(fam)
    for g, w in zip(got, want):
        if isinstance(w, BlowUpDetected):
            assert type(g) is BlowUpDetected
            assert g.d == w.d and str(g) == str(w)
        else:
            _assert_profiles_equal(g, w)
    # g6_m2 meets its vertical tangent before the default target
    assert isinstance(got[1], BlowUpDetected) == (name == "g6_m2")


_component = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-310, 1e300, -1.7e308,
                                        1.0, 1e-8, -3e-9]),
                       st.floats(allow_nan=False, allow_infinity=False))
_tolerance = st.one_of(st.sampled_from([0.0, 1e-12, 1e-10, 1e-6, 5e-324, 1e300]),
                       st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))


@given(st.integers(min_value=1, max_value=7).flatmap(
           lambda n: st.tuples(*[st.lists(_component, min_size=n, max_size=n)] * 3)),
       _tolerance, _tolerance)
# squares 1, 1e-16, 1e-16: summed left to right they round to 1
@example(([1.0, 1e-8, 1e-8], [0.0] * 3, [0.0] * 3), 1.0, 0.0)
@example(([1e-8, 1e-8, 1.0], [0.0] * 3, [0.0] * 3), 1.0, 0.0)
def test_error_norm_matches_numpy(vectors, atol, rtol):
    """The scalar error norm equals numpy's to the bit on states of
    dimension 1-7, zero, subnormal and huge components and zero scales
    included; the explicit loop passes lists, the implicit one arrays."""
    err, y0, y1 = vectors
    with np.errstate(all="ignore"):
        want = _numpy_error_norm(np.array(err), np.array(y0), np.array(y1), atol, rtol)
        got_arrays = _error_norm(np.array(err), np.array(y0), np.array(y1), atol, rtol)
    got = _error_norm(err, y0, y1, atol, rtol)
    assert type(got) is float
    assert got.hex() == want.hex() == float(got_arrays).hex()
