"""Adaptive one-step integration: Dormand-Prince 5(4) with an implicit
trapezoid fallback for stiff stretches.

The explicit pair carries an embedded 4th-order error estimate and PI-style
step control; accepted steps are all recorded (abscissa, state, derivative,
error estimate), which gives cubic Hermite dense output for free.  The
trapezoid fallback estimates error by step doubling and solves its implicit
stage with a damped Newton iteration on a finite-difference Jacobian.

The explicit pair runs its stage arithmetic on Python floats: the state has
two or three components, where numpy's per-call overhead outweighs the work.
Each stage value is formed in one fixed order, per component
``acc = 0; acc = acc + c * k[j]`` over the tableau row from left to right,
then ``y[j] + h * acc``, with the zero weights of the tableau kept in the
rows.  Reordering these sums moves results in the last bits, and a stored
trajectory with them.  The builtin ``sum`` must not replace the loop: from
Python 3.12 it compensates float sums and would round differently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepSizeCollapse

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


@dataclass
class IntegrationResult:
    ts: np.ndarray        # accepted abscissae, ascending
    ys: np.ndarray        # states, shape (len(ts), dim)
    fs: np.ndarray        # derivatives at the nodes
    errs: np.ndarray      # local error estimate of the step ending at each node
    n_steps: int
    n_rejected: int
    used_fallback: bool = False


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


def _combine(y, h, coeffs, ks):
    """``y + h * sum(c * k)`` on lists of floats, in the order the module
    docstring fixes."""
    out = []
    for j, yj in enumerate(y):
        acc = 0
        for c, k in zip(coeffs, ks):
            acc = acc + c * k[j]
        out.append(yj + h * acc)
    return out


def integrate(f, t0, y0, t_end, rtol=1e-10, atol=1e-10, max_step=np.inf,
              first_step=None, max_steps=1_000_000, accept_hook=None):
    """Integrate y' = f(t, y) from t0 to t_end (t_end > t0).

    ``f`` receives the state as a 1-d ndarray and may return any sequence of
    numbers.  ``accept_hook(t, y)`` runs after every accepted step, with the
    state as a list of floats, and may raise to abort with a domain-specific
    error.  Raises :class:`StepSizeCollapse` when the controller stalls (step
    underflow or step budget exhausted).
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    span = float(t_end) - t
    if span <= 0:
        raise ValueError("t_end must exceed t0")
    k1 = np.asarray(f(t, y), dtype=float)
    if first_step is None:
        scale = np.max(np.abs(k1)) + 1e-30
        first_step = min(span * 1e-3, 0.1 * (1.0 + np.max(np.abs(y))) / scale, max_step)
    h = max(min(first_step, max_step, span), 1e-300)
    h_floor = max(span * 1e-14, abs(t_end) * 2.3e-16, 1e-300)

    # states and stages are lists of floats from here on; none is mutated
    # after it is made, so the records need no copies
    y = y.tolist()
    k1 = k1.tolist()
    ts, ys, fs, errs = [t], [y], [k1], [0.0]
    n_steps = n_rejected = 0
    while t < t_end:
        if n_steps + n_rejected > max_steps:
            raise StepSizeCollapse("step budget exhausted", last_good=t)
        h = min(h, t_end - t, max_step)
        if h < h_floor:
            raise StepSizeCollapse("step size underflow", last_good=t)
        ks = [k1]
        for i in range(1, 7):
            yi = _combine(y, h, _A[i], ks)
            if not all(map(math.isfinite, yi)):
                break
            k = list(map(float, f(t + _C[i] * h, np.array(yi))))
            if not all(map(math.isfinite, k)):
                break
            ks.append(k)
        if len(ks) < 7:
            # a non-finite stage: reject.  Every tableau row ends in a nonzero
            # weight, so the state after a non-finite k_i (k1 included) is
            # non-finite too: stopping at k_i skips no RHS call
            n_rejected += 1
            h *= 0.25
            continue
        y5 = _combine(y, h, _B5, ks)
        y4 = _combine(y, h, _B4, ks)
        err_vec = [a - b for a, b in zip(y5, y4)]
        err = _error_norm(err_vec, y, y5, atol, rtol)
        if err <= 1.0:
            t = t + h
            y = y5
            k1 = ks[6]  # FSAL: last stage is f at the new point
            ts.append(t)
            ys.append(y)
            fs.append(k1)
            errs.append(max(abs(e) for e in err_vec))
            n_steps += 1
            if accept_hook is not None:
                accept_hook(t, y)
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
    """One implicit trapezoid step via damped Newton with FD Jacobian."""
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
                       max_step=np.inf, max_steps=200_000, accept_hook=None):
    """Adaptive implicit trapezoid (order 2), error by step doubling.

    Slow but stable; used as the fallback when the explicit pair collapses on
    a stiff stretch of a regularized problem."""
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
            if accept_hook is not None:
                accept_hook(t, y)
            h *= min(4.0, max(0.2, 0.85 * err ** -(1.0 / 3.0))) if err > 0 else 4.0
        else:
            n_rejected += 1
            h *= max(0.1, 0.85 * err ** -(1.0 / 3.0))
    return IntegrationResult(
        ts=np.array(ts), ys=np.array(ys), fs=np.array(fs), errs=np.array(errs),
        n_steps=n_steps, n_rejected=n_rejected, used_fallback=True,
    )
