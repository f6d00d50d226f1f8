"""In-memory spans around coneshrink's public functions, installed from outside.

``from .x import y`` copies the binding, so each target is replaced in every
coneshrink module namespace whose attribute *is* the original function; calls
through any of those names then record a span (name, start, end, parent,
op id).  Counters ride on the same wrappers: integrator steps, rejects and
fallback use from the returned ``IntegrationResult``, RHS evaluations by
wrapping the ``f`` handed to the integrator (a span named after the module
that defined ``f``, e.g. ``ivp.rhs``), and bytes written.
"""

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, function, span name); the arctan term's two public entry points
# share one span name.
TARGETS = (
    ("catalog", "make_family", "catalog.make_family"),
    ("catalog", "mean_curvature", "catalog.mean_curvature"),
    ("catalog", "curvature_antiderivative", "catalog.curvature_antiderivative"),
    ("jets", "fdb_kth_derivative", "jets.fdb_kth_derivative"),
    ("jets", "arctan_term_at_zero", "jets.arctan_term"),
    ("jets", "arctan_term_abs_mass", "jets.arctan_term"),
    ("series", "compute_coefficients", "series.compute_coefficients"),
    ("series", "compute_epsilon_corrections", "series.compute_epsilon_corrections"),
    ("series", "gevrey_diagnostics", "series.gevrey_diagnostics"),
    ("series", "evaluate_truncated", "series.evaluate_truncated"),
    ("stepper", "integrate", "stepper.integrate"),
    ("stepper", "integrate_implicit", "stepper.integrate_implicit"),
    ("ivp", "integrate_gamma", "ivp.integrate_gamma"),
    ("ivp", "epsilon_convergence_study", "ivp.epsilon_convergence_study"),
    ("ivp", "continue_phi", "ivp.continue_phi"),
    ("ivp", "to_d_profile", "ivp.to_d_profile"),
    ("ivp", "energy_residual", "ivp.energy_residual"),
    ("ivp", "write_profile_csv", "ivp.write_profile_csv"),
    ("ivp", "read_profile_csv", "ivp.read_profile_csv"),
    ("geometry", "shrinker_residual", "geometry.shrinker_residual"),
    ("geometry", "export_mesh", "geometry.export_mesh"),
    ("geometry", "discrete_shrinker_residual", "geometry.discrete_shrinker_residual"),
    ("numutil", "atomic_write_text", "numutil.atomic_write_text"),
    ("cli", "main", "cli.main"),
)

PACKAGE = "coneshrink"


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1, op id)
        self.counters = defaultdict(float)
        self.op = None         # id of the op being traced
        self._stack = []
        self._patched = []     # (module, attribute, original)
        self.bindings = defaultdict(list)   # span name -> ["module.attr", ...]

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
        return wrapper

    def _integrator(self, name, fn):
        timed = self._span(name, fn)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            # the RHS is the caller's code: its span keeps that time out of
            # the integrator's self time
            rhs = self._span(f"{f.__module__.rsplit('.', 1)[-1]}.rhs", f)
            evals = 0

            def counted(t, y):
                nonlocal evals
                evals += 1
                return rhs(t, y)

            try:
                result = timed(counted, *args, **kwargs)
            except Exception:
                counters["stepper.collapses"] += 1
                raise
            finally:
                counters["stepper.rhs_evals"] += evals
            counters["stepper.steps"] += result.n_steps
            counters["stepper.rejects"] += result.n_rejected
            counters["stepper.fallbacks"] += bool(result.used_fallback)
            return result
        return wrapper

    def _writer(self, name, fn):
        timed = self._span(name, fn)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(path, text):
            result = timed(path, text)
            counters[f"{name}.bytes"] += len(text.encode("utf-8"))
            return result
        return wrapper

    # -- install / remove ---------------------------------------------------

    def install(self):
        """Replace every coneshrink binding of each target by its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, span in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            if span.startswith("stepper."):
                wrapper = self._integrator(span, original)
            elif span == "numutil.atomic_write_text":
                wrapper = self._writer(span, original)
            else:
                wrapper = self._span(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
                        self.bindings[span].append(f"{mod.__name__}.{attr}")

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        """Spans as gzipped JSON: {"names": [...], "spans": [[i, start, end, parent, op]]}."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "spans": [[index[n], a, b, p, op] for n, a, b, p, op in self.spans],
               "counters": dict(self.counters)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def span_totals(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus its children's; children of one span never overlap, as spans are
    recorded on one thread."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["s"] += end - start
    return dict(totals)
