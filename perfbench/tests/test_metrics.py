import json
import os

import pytest

import calibrate
import metrics
import workloads
from worker import another_round
from conftest import BENCH


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(28))
    value, pct, beyond = metrics.tail(xs[::-1], 13.5)
    assert value == 17 and beyond == 10
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 18 / 28)
    value, pct, beyond = metrics.tail(range(100), 49.5)
    assert (value, pct, beyond) == (89, 90.0, 10)


def test_tail_never_below_the_median():
    assert metrics.tail(range(21), 10) == (10, 100 * 11 / 21, 10)   # x[10] is the median
    assert metrics.tail([3.0, 1.0, 2.0, 4.0, 6.0, 5.0], 3.5) == (3.5, 50.0, 3)
    assert metrics.tail([7.0], 7.0) == (7.0, 50.0, 0)
    assert metrics.tail(range(22), 12.5)[0] == 12.5     # x[11] = 11 is below it
    with pytest.raises(ValueError):
        metrics.tail([], 0.0)


def test_family_median_stays_inside_each_family():
    assert metrics.family_median([3.0, 1.0, 2.0], ["a", "b", "c"]) == 2.0
    # two families of different cost: the pooled median would be the gap
    # midpoint (1.1 + 1.9) / 2; the family median follows each middle
    values = [1.0, 1.05, 1.1, 1.9, 2.0, 2.1]
    fams = ["a", "a", "a", "b", "b", "b"]
    assert metrics.family_median(values, fams) == pytest.approx((1.05 + 2.0) / 2)


def _rec(op_s, solved, problems=(), family="f", ref_op_s=None):
    return {"op_s": op_s, "ref_op_s": op_s if ref_op_s is None else ref_op_s,
            "solved": solved, "problems": list(problems), "family": family}


def test_failure_counting():
    records = [_rec(1.0, True), _rec(1.0, False),            # documented exit 4
               _rec(2.0, True, ["A[3] differs"]),           # exit 0, wrong output
               _rec(4.0, False, ["exit codes [4], reference [0]"])]
    assert metrics.count_ops(records) == (4, 3, 2)
    e2e = metrics.end_to_end(records, [3.0, 1.0, 2.0], 100.0)
    assert e2e["success_frac"] == 0.25
    assert e2e["ops_per_s"] == pytest.approx(1 / 8.0)
    assert e2e["setup_s"] == 2.0
    assert e2e["op_s.p50"] == 1.5 and e2e["op_s.tail"] == 1.5
    assert set(e2e) == set(metrics.END_TO_END)


def test_metric_names_and_units():
    specs = [(n, s[0]) for n, s in {**metrics.END_TO_END, **metrics.PER_LAYER}.items()]
    assert metrics.check_names(specs) == []
    bad = metrics.check_names([("_x", "s"), ("a b", "s"), ("x" * 65, "s"),
                               ("ok", "s s"), ("ok", "s")])
    assert len(bad) == 5


def test_benchmark_json_matches_the_specs():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == metrics.PER_LAYER
    assert len(doc["per_layer"]) <= 128
    assert all(0 < b <= 0.25 for _, _, b in metrics.END_TO_END.values())
    assert metrics.END_TO_END["setup_s"][2] == max(b for _, _, b in metrics.END_TO_END.values())


def test_per_layer_reports_every_metric_per_op():
    totals = {"series.compute_coefficients": {"calls": 2, "s": 3.0, "self_s": 1.0},
              "jets.fdb_kth_derivative": {"calls": 80, "s": 2.0, "self_s": 2.0},
              "cli.main": {"calls": 2, "s": 3.5, "self_s": 0.5}}
    counters = {"stepper.steps": 30, "stepper.rejects": 10}
    out = metrics.per_layer(totals, counters, [_rec(2.0, True), _rec(2.0, True)],
                            [_rec(1.0, True), _rec(2.0, True), _rec(3.0, True)])
    assert set(out) == set(metrics.PER_LAYER)
    assert out["series.compute_coefficients.s"] == 1.5
    assert out["jets.fdb_kth_derivative.calls"] == 40
    assert out["stepper.attempts"] == 20 and out["stepper.accept_ratio"] == 0.75
    assert out["share.series_jets"] == pytest.approx((0.5 + 1.0) / 2.0)
    assert out["trace.overhead_frac"] == 0.0


def test_runs_time_the_nearest_whole_number_of_rounds():
    assert another_round(0.0, 0, 30)                  # always one round
    assert another_round(19.0, 1, 30)                 # 19 + 9.5 <= 30: a second round
    assert not another_round(22.0, 1, 30)             # 22 + 11 > 30: stop at 22 s
    assert another_round(40.0, 1, 30, min_rounds=2)   # a traced run needs two
    assert another_round(28.0, 14, 30)                # 2 s rounds: 28 + 1 <= 30
    assert not another_round(30.0, 15, 30)


def test_times_are_scaled_to_the_reference_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.to_reference(3.0, ref) == pytest.approx(3.0)
    assert calibrate.to_reference(3.0, 1.5 * ref) == pytest.approx(2.0)   # slow stretch
    assert calibrate.sample() > 0
    # end-to-end times come from the scaled times, not the wall times
    records = [_rec(2.0, True, ref_op_s=1.0), _rec(4.0, True, ref_op_s=3.0)]
    e2e = metrics.end_to_end(records, [1.0], 50.0)
    assert e2e["op_s.p50"] == 2.0 and e2e["ops_per_s"] == 0.5
    assert metrics.op_time_stats(records, key="op_s")[0] == 3.0
