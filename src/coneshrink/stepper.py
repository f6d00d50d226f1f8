"""Adaptive one-step integration: Dormand-Prince 5(4).

The explicit pair carries an embedded 4th-order error estimate and PI-style
step control; accepted steps are all recorded (abscissa, state, derivative,
error estimate), which gives cubic Hermite dense output for free.  The
implicit trapezoid integrator below it is unused: no pipeline path calls it,
and it is kept only because perfbench's tracing pins its name.

The explicit pair runs its stage arithmetic on Python floats: the state has
two or three components, where numpy's per-call overhead outweighs the work.
The seven stage states and the two solutions are written out as straight-line
sums, one list comprehension each over the state and the stages it reads,
with the tableau's constants unpacked once from ``_A``, ``_B5``, ``_B4`` and
``_C``.  Each stage value is formed in one fixed order, per component
``y[j] + h * (((0 + a1 * k1[j]) + a2 * k2[j]) + ...)`` over the tableau row
from left to right, with the zero weights of the tableau kept in the rows.
Reordering these sums moves results in the last bits, and a stored
trajectory with them.  The builtin ``sum`` must not replace the written-out
sums: from Python 3.12 it compensates float sums and would round
differently.

The RHS receives the state in the form of the initial state ``y0``: for a
list or tuple, the stage's list of floats itself, with no conversion per
stage; for an ndarray, a fresh ndarray made from that list by a wrapper
that :func:`integrate` puts around ``f`` once, at entry.  The lists are
not copied (the initial state's list is also the first record of the
result), so ``f`` must not mutate its state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StepSizeCollapse
from .numutil import lazy_numpy

np = lazy_numpy()

# Dormand-Prince 5(4) tableau (FSAL)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
       -92097 / 339200, 187 / 2100, 1 / 40)

# the same constants by name, for the written-out stage sums
_C2, _C3, _C4, _C5, _C6, _C7 = _C[1:]
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_A71, _A72, _A73, _A74, _A75, _A76)) = _A[1:]
_B51, _B52, _B53, _B54, _B55, _B56, _B57 = _B5
_B41, _B42, _B43, _B44, _B45, _B46, _B47 = _B4


@dataclass
class IntegrationResult:
    ts: np.ndarray        # accepted abscissae, ascending
    ys: np.ndarray        # states, shape (len(ts), dim)
    fs: np.ndarray        # derivatives at the nodes
    errs: np.ndarray      # local error estimate of the step ending at each node
    n_steps: int
    n_rejected: int
    used_fallback: bool = False  # set only by integrate_implicit; perfbench's tracer reads it


def _error_norm(err, y0, y1, atol, rtol):
    """RMS of err / (atol + rtol * max(|y0|, |y1|)) in Python floats.  Below
    8 components this is numpy's value to the bit: squares as x * x, summed
    left to right from 0.0, divided by the count; a zero scale divides as
    IEEE does (inf, or nan for 0 / 0)."""
    acc = 0.0
    for e, u, v in zip(err, y0, y1):
        scale = atol + rtol * max(abs(u), abs(v))
        x = e / scale if scale else e * math.inf
        acc = acc + x * x
    return math.sqrt(acc / len(err))


def _ndarray_state(f):
    """``f`` called on each state list as a fresh 1-d ndarray."""
    def on_array(t, y):
        return f(t, np.array(y))
    return on_array


def _stage(f, t, yi):
    """f(t, yi) as a list of floats, or None when the stage state yi or the
    derivative has a non-finite component (f is not called on a non-finite
    state)."""
    if not all(map(math.isfinite, yi)):
        return None
    k = list(map(float, f(t, yi)))
    return k if all(map(math.isfinite, k)) else None


def _dp_step(f, t, y, h, k1):
    """One Dormand-Prince attempt from (t, y) with k1 = f(t, y): the 5th- and
    4th-order solutions and k7, f at the last stage (t + h), or None at the
    first non-finite stage.  Every tableau row ends in a nonzero weight, so the
    state after a non-finite k_i (k1 included) is non-finite too: stopping
    at k_i skips no RHS call that a finite attempt would need."""
    k2 = _stage(f, t + _C2 * h, [v + h * (0 + _A21 * p1) for v, p1 in zip(y, k1)])
    if k2 is None:
        return None
    k3 = _stage(f, t + _C3 * h, [v + h * ((0 + _A31 * p1) + _A32 * p2)
                                 for v, p1, p2 in zip(y, k1, k2)])
    if k3 is None:
        return None
    k4 = _stage(f, t + _C4 * h, [v + h * (((0 + _A41 * p1) + _A42 * p2) + _A43 * p3)
                                 for v, p1, p2, p3 in zip(y, k1, k2, k3)])
    if k4 is None:
        return None
    k5 = _stage(f, t + _C5 * h,
                [v + h * ((((0 + _A51 * p1) + _A52 * p2) + _A53 * p3) + _A54 * p4)
                 for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
    if k5 is None:
        return None
    k6 = _stage(f, t + _C6 * h,
                [v + h * (((((0 + _A61 * p1) + _A62 * p2) + _A63 * p3) + _A64 * p4)
                          + _A65 * p5)
                 for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
    if k6 is None:
        return None
    k7 = _stage(f, t + _C7 * h,
                [v + h * ((((((0 + _A71 * p1) + _A72 * p2) + _A73 * p3) + _A74 * p4)
                           + _A75 * p5) + _A76 * p6)
                 for v, p1, p2, p3, p4, p5, p6 in zip(y, k1, k2, k3, k4, k5, k6)])
    if k7 is None:
        return None
    y5 = [v + h * (((((((0 + _B51 * p1) + _B52 * p2) + _B53 * p3) + _B54 * p4)
                     + _B55 * p5) + _B56 * p6) + _B57 * p7)
          for v, p1, p2, p3, p4, p5, p6, p7 in zip(y, k1, k2, k3, k4, k5, k6, k7)]
    y4 = [v + h * (((((((0 + _B41 * p1) + _B42 * p2) + _B43 * p3) + _B44 * p4)
                     + _B45 * p5) + _B46 * p6) + _B47 * p7)
          for v, p1, p2, p3, p4, p5, p6, p7 in zip(y, k1, k2, k3, k4, k5, k6, k7)]
    return y5, y4, k7


def integrate(f, t0, y0, t_end, rtol=1e-10, atol=1e-10, max_step=math.inf,
              first_step=None, max_steps=1_000_000, accept_hook=None):
    """Integrate y' = f(t, y) from t0 to t_end (t_end > t0).

    ``f`` receives the state in the form of ``y0``: a list of floats when
    ``y0`` is a list or tuple, else a 1-d ndarray; it may return any
    sequence of numbers, and must not mutate the state it receives (the
    stepper does not copy it).  ``accept_hook(t, y)`` runs after every
    accepted step, with the state as a list of floats; it may raise to
    abort with a domain-specific error, or return a true value to end the
    run at that node, the result holding the nodes so far.  Raises
    :class:`StepSizeCollapse` when the controller stalls (step underflow or
    step budget exhausted); its abscissa is a Python float, as is every
    step.
    """
    if not isinstance(y0, (list, tuple)):
        f = _ndarray_state(f)
    # states and stages are lists of floats from here on; none is mutated
    # after it is made, so the records need no copies
    y = np.asarray(y0, dtype=float).tolist()
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

    k1 = k1.tolist()
    ts, ys, fs, errs = [t], [y], [k1], [0.0]
    n_steps = n_rejected = 0
    while t < t_end:
        if n_steps + n_rejected > max_steps:
            raise StepSizeCollapse("step budget exhausted", last_good=t)
        h = min(h, t_end - t, max_step)
        if h < h_floor:
            raise StepSizeCollapse("step size underflow", last_good=t)
        attempt = _dp_step(f, t, y, h, k1)
        if attempt is None:  # a non-finite stage: reject
            n_rejected += 1
            h *= 0.25
            continue
        y5, y4, k7 = attempt
        err_vec = [a - b for a, b in zip(y5, y4)]
        err = _error_norm(err_vec, y, y5, atol, rtol)
        if err <= 1.0:
            t = t + h
            y = y5
            k1 = k7  # FSAL: last stage is f at the new point
            ts.append(t)
            ys.append(y)
            fs.append(k1)
            errs.append(max(abs(e) for e in err_vec))
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


def _trapezoid_step(f, t, y, h, f_t):
    """One implicit trapezoid step of integrate_implicit: damped Newton, FD Jacobian."""
    n = len(y)
    y_new = y + h * f_t  # Euler predictor
    for _ in range(12):
        f_new = np.asarray(f(t + h, y_new), dtype=float)
        res = y_new - y - 0.5 * h * (f_t + f_new)
        if np.max(np.abs(res)) <= 1e-13 * (1.0 + np.max(np.abs(y_new))):
            return y_new, f_new
        jac = np.eye(n)
        for j in range(n):
            dy = 1e-7 * (1.0 + abs(y_new[j]))
            yp = y_new.copy()
            yp[j] += dy
            jac[:, j] = (np.asarray(f(t + h, yp), dtype=float) - f_new) * (-0.5 * h / dy)
            jac[j, j] += 1.0
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        y_new = y_new + delta
    f_new = np.asarray(f(t + h, y_new), dtype=float)
    return y_new, f_new


def integrate_implicit(f, t0, y0, t_end, rtol=1e-8, atol=1e-8,
                       max_step=math.inf, max_steps=200_000):
    """Adaptive implicit trapezoid (order 2), error by step doubling.

    Unused: kept only because perfbench's tracing pins this name in
    ``stepper`` and ``ivp``, and goes with those pins."""
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    span = float(t_end) - t
    h = min(span * 1e-2, max_step)
    h_floor = max(span * 1e-13, 1e-300)
    f_t = np.asarray(f(t, y), dtype=float)
    ts, ys, fs, errs = [t], [y.copy()], [f_t.copy()], [0.0]
    n_steps = n_rejected = 0
    while t < t_end:
        if n_steps + n_rejected > max_steps:
            raise StepSizeCollapse("implicit step budget exhausted", last_good=t)
        h = min(h, t_end - t, max_step)
        if h < h_floor:
            raise StepSizeCollapse("implicit step size underflow", last_good=t)
        y_full, _ = _trapezoid_step(f, t, y, h, f_t)
        y_half, f_half = _trapezoid_step(f, t, y, 0.5 * h, f_t)
        y_two, f_two = _trapezoid_step(f, t + 0.5 * h, y_half, 0.5 * h, f_half)
        err_vec = (y_full - y_two) / 3.0
        err = _error_norm(err_vec, y, y_two, atol, rtol)
        if err <= 1.0:
            t = t + h
            y = y_two + err_vec  # local extrapolation
            f_t = np.asarray(f(t, y), dtype=float)
            ts.append(t)
            ys.append(y.copy())
            fs.append(f_t.copy())
            errs.append(float(np.max(np.abs(err_vec))))
            n_steps += 1
            h *= min(4.0, max(0.2, 0.85 * err ** -(1.0 / 3.0))) if err > 0 else 4.0
        else:
            n_rejected += 1
            h *= max(0.1, 0.85 * err ** -(1.0 / 3.0))
    return IntegrationResult(
        ts=np.array(ts), ys=np.array(ys), fs=np.array(fs), errs=np.array(errs),
        n_steps=n_steps, n_rejected=n_rejected, used_fallback=True,
    )
