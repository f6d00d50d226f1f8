"""Metric specs and the statistics that turn op records into them (stdlib only)."""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# name -> (unit, better, bound).  Bounds are shares of the parent's median.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_s.p50": ("s", "lower", 0.25),
    "op_s.tail": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "success_frac": ("frac", "higher", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_TIMED_SPANS = (
    ("jets.fdb_kth_derivative", ("calls", "s")),
    ("jets.arctan_term", ("calls", "s")),
    ("series.compute_coefficients", ("calls", "s", "self_s")),
    ("series.compute_epsilon_corrections", ("calls", "s", "self_s")),
    ("series.gevrey_diagnostics", ("s",)),
    ("series.evaluate_truncated", ("calls", "s")),
    ("stepper.integrate", ("calls", "s")),
    ("stepper.integrate_implicit", ("calls",)),
    ("ivp.integrate_gamma", ("s", "self_s")),
    ("ivp.rhs", ("s",)),
    ("ivp.epsilon_convergence_study", ("s", "self_s")),
    ("ivp.continue_phi", ("s", "self_s")),
    ("catalog.mean_curvature", ("calls", "s")),
    ("catalog.curvature_antiderivative", ("calls", "s")),
    ("ivp.to_d_profile", ("s",)),
    ("ivp.energy_residual", ("s",)),
    ("geometry.shrinker_residual", ("s",)),
    ("geometry.export_mesh", ("s", "self_s")),
    ("geometry.discrete_shrinker_residual", ("s",)),
    ("ivp.write_profile_csv", ("s",)),
    ("ivp.read_profile_csv", ("s",)),
    ("numutil.atomic_write_text", ("calls", "s")),
    ("catalog.make_family", ("s",)),
    ("cli.main", ("calls", "s")),
)

LAYERS = ("catalog", "jets", "series", "stepper", "ivp", "geometry", "numutil", "cli")

# Per-layer metrics are per traced op; counters count work, so fewer is better
# for a fixed op.  name -> (unit, better)
PER_LAYER = {}
for _span, _fields in _TIMED_SPANS:
    for _f in _fields:
        PER_LAYER[f"{_span}.{_f}"] = ("count/op", "lower") if _f == "calls" else ("s/op", "lower")
PER_LAYER.update({
    "numutil.atomic_write_text.bytes": ("bytes/op", "lower"),
    "stepper.steps": ("count/op", "lower"),
    "stepper.rejects": ("count/op", "lower"),
    "stepper.attempts": ("count/op", "lower"),
    "stepper.accept_ratio": ("frac", "higher"),
    "stepper.rhs_evals": ("count/op", "lower"),
    "stepper.fallbacks": ("count/op", "lower"),
    "stepper.collapses": ("count/op", "lower"),
})
for _layer in LAYERS:
    PER_LAYER[f"layer.{_layer}.self_s"] = ("s/op", "lower")
PER_LAYER.update({
    "share.series_jets": ("frac", "lower"),
    "share.stepper_ivp_geometry": ("frac", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.op_s.p50": ("s", "lower"),
    "trace.untraced_op_s.p50": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
})


def check_names(names_units):
    """Problems with metric names and units: charset, length, duplicates."""
    problems, seen = [], set()
    for name, unit in names_units:
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not UNIT_RE.match(unit):
            problems.append(f"bad unit {unit!r} for {name!r}")
        if name in seen:
            problems.append(f"duplicate metric name {name!r}")
        seen.add(name)
    return problems


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------

def family_median(values, families):
    """Median over families of each family's median.

    With one sample per family this is the plain median.  With two families
    of different cost, as on eps_study_mesh, the plain median of the pooled
    samples falls in the gap between them and follows the two extremes next
    to the gap; this follows each family's middle instead."""
    by_family = {}
    for v, f in zip(values, families):
        by_family.setdefault(f, []).append(v)
    return statistics.median(statistics.median(v) for v in by_family.values())


def tail(values, median, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it, but
    never below the median.  Returns (value, percentile, samples_beyond).

    With n samples sorted ascending, x[n - beyond - 1] has exactly ``beyond``
    samples above it; it sits at or above the pooled median once
    n >= 2*beyond + 1, and is raised to ``median`` (the median per family)
    where that is higher.  Smaller runs cannot resolve a tail, and report
    ``median``."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n >= 2 * beyond + 1:
        k = n - beyond - 1
        return max(xs[k], median), 100.0 * (k + 1) / n, beyond
    return median, 50.0, n // 2


# ---------------------------------------------------------------------------
# Op records -> end-to-end metrics
# ---------------------------------------------------------------------------

def count_ops(records):
    """records: dicts with "solved" (every call exited 0) and "problems"
    (wrong outputs).  An op fails if it did not solve or its output is wrong;
    it is wrong only if its outcome disagrees with the reference."""
    attempted = len(records)
    wrong = sum(1 for r in records if r["problems"])
    failed = sum(1 for r in records if r["problems"] or not r["solved"])
    return attempted, failed, wrong


def op_time_stats(records, key="ref_op_s"):
    """(op_s.p50, (tail value, percentile, samples beyond)) of op records,
    from their reference-speed times (``key="op_s"`` for wall times)."""
    op_s = [r[key] for r in records]
    p50 = family_median(op_s, [r["family"] for r in records])
    return p50, tail(op_s, p50)


def end_to_end(records, setup_samples, peak_rss_mb):
    """End-to-end metrics; times are in reference seconds (calibrate.py)."""
    attempted, failed, _ = count_ops(records)
    op_s = [r["ref_op_s"] for r in records]
    p50, (tail_value, _, _) = op_time_stats(records)
    return {
        "setup_s": statistics.median(setup_samples),
        "op_s.p50": p50,
        "op_s.tail": tail_value,
        "ops_per_s": (attempted - failed) / math.fsum(op_s),
        "success_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# Span totals -> per-layer metrics
# ---------------------------------------------------------------------------

def per_layer(totals, counters, traced, untraced):
    """Per-layer metrics, each per traced op.

    ``totals`` is tracing.span_totals() output, ``counters`` the tracer's
    counters; ``traced`` and ``untraced`` are the op records of the traced and
    untraced rounds of one run.  Span times and the shares of op time are in
    wall seconds; the ``trace.*op_s.p50`` medians are in reference seconds."""
    traced_op_s = [r["op_s"] for r in traced]
    n = len(traced_op_s)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for span, fields in _TIMED_SPANS:
        t = totals.get(span, zero)
        for f in fields:
            out[f"{span}.{f}"] = t[f] / n
    for key in ("steps", "rejects", "rhs_evals", "fallbacks", "collapses"):
        out[f"stepper.{key}"] = counters.get(f"stepper.{key}", 0) / n
    out["numutil.atomic_write_text.bytes"] = counters.get("numutil.atomic_write_text.bytes", 0) / n
    attempts = out["stepper.steps"] + out["stepper.rejects"]
    out["stepper.attempts"] = attempts
    out["stepper.accept_ratio"] = out["stepper.steps"] / attempts if attempts else 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = math.fsum(
            t["self_s"] for span, t in totals.items() if span.split(".", 1)[0] == layer) / n
    mean_op = math.fsum(traced_op_s) / n
    out["share.series_jets"] = (out["layer.series.self_s"] + out["layer.jets.self_s"]) / mean_op
    out["share.stepper_ivp_geometry"] = (out["layer.stepper.self_s"] + out["layer.ivp.self_s"]
                                         + out["layer.geometry.self_s"]) / mean_op
    traced_p50, _ = op_time_stats(traced)
    untraced_p50, _ = op_time_stats(untraced)
    out["trace.ops"] = n
    out["trace.op_s.p50"] = traced_p50
    out["trace.untraced_op_s.p50"] = untraced_p50
    out["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    return out
