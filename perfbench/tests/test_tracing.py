import numpy as np
import pytest

import tracing


def test_self_time_subtracts_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("b", 6.0, 7.0, 2, 0),
    ]
    t = tracing.span_totals(spans)
    assert t["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert t["b"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert t["c"] == {"calls": 1, "s": 4.0, "self_s": 3.0}


def test_recursive_span_counted_once_inclusive():
    spans = [("d", 0.0, 5.0, -1, 0), ("d", 1.0, 3.0, 0, 0)]
    assert tracing.span_totals(spans)["d"] == {"calls": 2, "s": 5.0, "self_s": 5.0}


# every namespace the library binds these names in today
EXPECTED_BINDINGS = {
    "catalog.mean_curvature": {"coneshrink.catalog.mean_curvature", "coneshrink.ivp.mean_curvature",
                               "coneshrink.geometry.mean_curvature", "coneshrink.cli.mean_curvature"},
    "series.compute_coefficients": {"coneshrink.series.compute_coefficients",
                                    "coneshrink.ivp.compute_coefficients",
                                    "coneshrink.geometry.compute_coefficients"},
    "series.evaluate_truncated": {"coneshrink.series.evaluate_truncated",
                                  "coneshrink.ivp.evaluate_truncated",
                                  "coneshrink.geometry.evaluate_truncated"},
    "stepper.integrate": {"coneshrink.stepper.integrate", "coneshrink.ivp.integrate"},
    "stepper.integrate_implicit": {"coneshrink.stepper.integrate_implicit",
                                   "coneshrink.ivp.integrate_implicit"},
    "jets.fdb_kth_derivative": {"coneshrink.jets.fdb_kth_derivative",
                                "coneshrink.series.fdb_kth_derivative"},
    "jets.arctan_term": {"coneshrink.jets.arctan_term_at_zero", "coneshrink.series.arctan_term_at_zero",
                         "coneshrink.jets.arctan_term_abs_mass",
                         "coneshrink.series.arctan_term_abs_mass"},
    "numutil.atomic_write_text": {"coneshrink.numutil.atomic_write_text",
                                  "coneshrink.cli.atomic_write_text",
                                  "coneshrink.geometry.atomic_write_text"},
}


@pytest.fixture
def tracer():
    import coneshrink.cli  # noqa: F401  (loads every module)
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.remove()


def test_wrappers_cover_every_binding_and_come_off(tracer):
    from coneshrink import ivp, stepper
    for span, names in EXPECTED_BINDINGS.items():
        assert names <= set(tracer.bindings[span]), span
    assert ivp.integrate is stepper.integrate and hasattr(ivp.integrate, "__wrapped__")
    tracer.remove()
    assert not hasattr(ivp.integrate, "__wrapped__")
    assert not hasattr(stepper.integrate, "__wrapped__")


def test_integrator_counters_read_from_outside(tracer):
    from coneshrink import ivp
    tracer.op = 0
    res = ivp.integrate(lambda t, y: -y, 0.0, np.array([1.0]), 1.0, rtol=1e-8, atol=1e-8)
    assert tracer.counters["stepper.steps"] == res.n_steps > 0
    assert tracer.counters["stepper.rejects"] == res.n_rejected
    # FSAL Dormand-Prince: one start evaluation, six per attempted step
    assert tracer.counters["stepper.rhs_evals"] == 1 + 6 * (res.n_steps + res.n_rejected)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "stepper.integrate" and tracer.spans[0][4] == 0
    assert names[1:] == ["test_tracing.rhs"] * int(tracer.counters["stepper.rhs_evals"])
    assert all(s[3] == 0 for s in tracer.spans[1:])


def test_writer_counts_bytes(tracer, tmp_path):
    from coneshrink import cli
    cli.atomic_write_text(tmp_path / "x.txt", "héllo\n")
    assert tracer.counters["numutil.atomic_write_text.bytes"] == 7
    tracer.write(tmp_path / "spans.json.gz")
    assert (tmp_path / "spans.json.gz").stat().st_size > 0
