"""Adaptive one-step integration: Dormand-Prince 5(4).

The explicit pair carries an embedded 4th-order error estimate and PI-style
step control; accepted steps are all recorded (abscissa, state, derivative,
error estimate), which gives cubic Hermite dense output for free.  The
implicit trapezoid integrator below it is unused: no pipeline path calls it,
and it is kept only because perfbench's tracing pins its name.

One attempt of the explicit pair is straight-line code on Python floats,
generated for the state's dimension ``n`` (:func:`_attempt_source`),
compiled once per ``n`` and cached.  The state has two or three
components, where numpy's per-call overhead outweighs the work, and where
a loop over the components costs more than the arithmetic: the generated
code unpacks the state and each stage into scalar locals, writes every
stage state's components out, checks finiteness by a chain of
``isfinite`` calls, and forms the 5th-order solution, the error norm and
the largest error component in place.  ``exec`` gives this code for any
``n`` from one generator, with no hand-written copy per dimension and no
fallback path.

Each stage value is formed in one fixed order, per component
``y_j + h * (((0 + a1 * k1_j) + a2 * k2_j) + ...)`` over the tableau row
from left to right, with the zero weights of the tableau kept in the rows;
the generator reads the row's constants by name (``_A21`` ... ``_B47``).
The error norm is :func:`_error_norm`'s sum, in its order.  Reordering
these sums moves results in the last bits, and a stored trajectory with
them.  The builtin ``sum`` must not replace the written-out sums: from
Python 3.12 it compensates float sums and would round differently.

The RHS receives the state in the form of the initial state ``y0``: for a
list or tuple, the stage's list of floats itself, with no conversion per
stage; for an ndarray, a fresh ndarray made from that list by a wrapper
that :func:`integrate` puts around ``f`` once, at entry.  The lists are
not copied (the initial state's list is also the first record of the
result), so ``f`` must not mutate its state.  ``f`` must return as many
components as the state has; :func:`integrate` raises ``ValueError``
naming both lengths where it does not.
"""

from __future__ import annotations

import functools
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

# the same constants by name, as the generated attempt reads them
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
    IEEE does (inf, or nan for 0 / 0).  The explicit pair's attempt forms
    the same sum inline."""
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


def _length_mismatch(got, n):
    return ValueError(f"f returned {got} components for a state of {n}")


def _weighted(weights, j):
    """Component j of ``y + h * (row . k)``, the row's terms summed left to
    right from the integer 0, zero weights included."""
    acc = "0"
    for i, w in enumerate(weights, start=1):
        acc = f"({acc} + {w} * k{i}_{j})"
    return f"y_{j} + h * {acc}"


def _attempt_source(n):
    """Source of ``attempt(f, t, y, h, k1, atol, rtol)``, one Dormand-Prince
    attempt from (t, y) with k1 = f(t, y), for an ``n``-component state.

    It returns ``(y5, k7, err, err_max)``: the 5th-order solution, f at the
    last stage (t + h), the error norm of ``y5 - y4`` and its largest
    component; or None at the first non-finite stage state, or at a
    non-finite k7.  Every tableau row ends in a nonzero weight, so the state
    after a non-finite k_i (k1 included) is non-finite too: its check
    returns None before ``f`` is called again, and k1 to k6 need no check of
    their own."""
    comps = range(n)

    def names(prefix):
        return ", ".join(f"{prefix}_{j}" for j in comps)

    def finite(prefix):
        return " and ".join(f"isfinite({prefix}_{j})" for j in comps)

    lines = ["def attempt(f, t, y, h, k1, atol, rtol):",
             f"    {names('y')}, = y",
             f"    {names('k1')}, = k1"]
    for i in range(2, 8):
        row = [f"_A{i}{l}" for l in range(1, i)]
        k = "k7" if i == 7 else "k"
        lines += [f"    s_{j} = {_weighted(row, j)}" for j in comps]
        lines += [f"    if not ({finite('s')}):",
                  "        return None",
                  f"    {k} = list(map(float, f(t + _C{i} * h, [{names('s')}])))",
                  f"    if len({k}) != {n}:",
                  f"        raise _length_mismatch(len({k}), {n})",
                  f"    {names(f'k{i}')}, = {k}"]
    lines += [f"    if not ({finite('k7')}):",
              "        return None"]
    b5 = [f"_B5{l}" for l in range(1, 8)]
    b4 = [f"_B4{l}" for l in range(1, 8)]
    lines += [f"    y5_{j} = {_weighted(b5, j)}" for j in comps]
    lines += [f"    e_{j} = y5_{j} - ({_weighted(b4, j)})" for j in comps]
    # _error_norm's sum, and max(|e|) as the builtin max keeps its first maximum
    lines.append("    acc = 0.0")
    for j in comps:
        lines += [f"    u = abs(y_{j})",
                  f"    v = abs(y5_{j})",
                  "    scale = atol + rtol * (v if v > u else u)",
                  f"    x = e_{j} / scale if scale else e_{j} * inf",
                  "    acc = acc + x * x"]
    lines.append("    err_max = abs(e_0)")
    for j in comps[1:]:
        lines += [f"    a = abs(e_{j})",
                  "    if a > err_max:",
                  "        err_max = a"]
    lines.append(f"    return [{names('y5')}], k7, sqrt(acc / {n}), err_max")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _attempt(n):
    """The attempt of :func:`_attempt_source`, compiled once per dimension."""
    namespace = {**globals(), "isfinite": math.isfinite, "sqrt": math.sqrt, "inf": math.inf}
    exec(compile(_attempt_source(n), f"<dormand-prince attempt, n={n}>", "exec"), namespace)
    return namespace["attempt"]


def integrate(f, t0, y0, t_end, rtol=1e-10, atol=1e-10, max_step=math.inf,
              first_step=None, max_steps=1_000_000, accept_hook=None):
    """Integrate y' = f(t, y) from t0 to t_end (t_end > t0).

    ``f`` receives the state in the form of ``y0``: a list of floats when
    ``y0`` is a list or tuple, else a 1-d ndarray; it may return any
    sequence of as many numbers as the state has components (else
    ``ValueError``, naming both lengths), and must not mutate the state it
    receives (the stepper does not copy it).  ``accept_hook(t, y)`` runs
    after every accepted step, with the state as a list of floats; it may
    raise to abort with a domain-specific error, or return a true value to
    end the run at that node, the result holding the nodes so far.  Raises
    :class:`StepSizeCollapse` when the controller stalls (step underflow or
    step budget exhausted); its abscissa is a Python float, as is every
    step.
    """
    if not isinstance(y0, (list, tuple)):
        f = _ndarray_state(f)
    # states and stages are lists of floats from here on; none is mutated
    # after it is made, so the records need no copies
    y = np.asarray(y0, dtype=float).tolist()
    if not y:
        raise ValueError("y0 must have at least one component")
    t = float(t0)
    t_end = float(t_end)
    max_step = float(max_step)
    span = t_end - t
    if span <= 0:
        raise ValueError("t_end must exceed t0")
    k1 = np.asarray(f(t, y), dtype=float)
    if k1.shape != (len(y),):
        raise _length_mismatch(k1.size, len(y))
    attempt = _attempt(len(y))
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
        step = attempt(f, t, y, h, k1, atol, rtol)
        if step is None:  # a non-finite stage: reject
            n_rejected += 1
            h *= 0.25
            continue
        y5, k7, err, err_max = step
        if err <= 1.0:
            t = t + h
            y = y5
            k1 = k7  # FSAL: last stage is f at the new point
            ts.append(t)
            ys.append(y)
            fs.append(k1)
            errs.append(err_max)
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
