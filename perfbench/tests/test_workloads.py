import workloads

THETA = {"g1_sphere_n2": 0.78, "g2_product_11": 0.52, "g3_m4": 0.26, "g6_m2": 0.13,
         "g3_m8": 0.26}


def _ops(workload, seed, rounds=3):
    stream = workloads.OpStream(workload, seed, THETA)
    it = stream.rounds()
    return [stream.warmup()] + [op for _ in range(rounds) for op in next(it)]


def test_ops_follow_the_seed():
    for w in workloads.WORKLOADS:
        assert _ops(w, 7) == _ops(w, 7)
        assert _ops(w, 7) != _ops(w, 8)


def test_rounds_are_balanced_and_draws_on_the_grid():
    stream = workloads.OpStream("series_deep", 3, THETA)
    rnd = next(stream.rounds())
    assert sorted(op["family"] for op in rnd) == sorted(workloads.SERIES_DEEP_FAMILIES)
    for op in rnd:
        scale = workloads.THETA1_SCALES[op["scale_index"]]
        assert 0.9 <= scale <= 1.1
        assert op["theta1"] == THETA[op["family"]] * scale
    stream = workloads.OpStream("catalog_solve", 3, THETA)
    rnd = next(stream.rounds())
    assert sorted(op["family"] for op in rnd) == sorted(THETA)
    assert all(op["theta1"] == THETA[op["family"]] for op in rnd)


def test_documented_failure_is_not_wrong_but_a_new_one_is():
    op = {"family": "g3_m8", "scale_index": None, "theta1": 0.26}
    ref = {"exit_codes": [4], "error": "BlowUpDetected"}
    assert workloads.check("catalog_solve", op, dict(ref), ref) == (False, [])
    ok_ref = {"exit_codes": [0]}
    solved, problems = workloads.check("catalog_solve", op, dict(ref), ok_ref)
    assert not solved and problems
    solved, problems = workloads.check("catalog_solve", op, dict(ref), None)
    assert problems


def test_series_mismatch_is_wrong():
    op = {"family": "g3_m4", "scale_index": 10, "theta1": 0.26}
    ref = {"exit_codes": [0], "K": 40, "precision_bits": 256, "A": ["1.5", "2.25"],
           "B": ["3.0"], "gevrey_C_est": 0.5, "gevrey_verdict": "bounded"}
    assert workloads.check("series_deep", op, dict(ref), ref) == (True, [])
    bad = dict(ref, A=["1.5", "2.2500000000000000000000000000000001"])
    solved, problems = workloads.check("series_deep", op, bad, ref)
    assert solved and problems == ["A[1] = 2.2500000000000000000000000000000001 != reference 2.25"]
