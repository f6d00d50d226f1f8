"""One fresh benchmark process: set up coneshrink, then time ops.

    python3 perfbench/worker.py --mode setup|measure --workload W --seed N \
        --seconds S --trace 0|1 --run-dir DIR --hard-limit H

Run from the checkout root (run.py does this).  Prints one JSON line.  Set-up
is the cold import of coneshrink (numpy and mpmath included) plus one untimed
warm-up op, which fills the partition tables every CLI invocation pays for.
Set-up and every op are bracketed by samples of the calibration kernel
(calibrate.py), untimed, and also reported in reference seconds.
In ``measure`` mode ops run in whole rounds (see workloads.OpStream), as
many as come nearest to ``--seconds`` in total; with ``--trace 1``
odd rounds run traced and even rounds untraced, at least one of each, so one
run yields both the spans and the tracing overhead.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import calibrate
import metrics
import tracing
import workloads

# Set-up is one event per process, so its kernel samples are medians of
# several runs; ops are many per run and take one run on each side.
SETUP_KERNEL_RUNS = 5


def run_calls(cli, calls):
    """Run CLI calls in-process, stopping at the first nonzero exit code.
    Returns [(argv, exit code, stdout, stderr)]."""
    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:      # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:              # an op must not end the run
                traceback.print_exc()
                rc = -1
        results.append((argv, rc, out.getvalue(), err.getvalue()))
        if rc != 0:
            break
    return results


def another_round(elapsed, rounds, seconds, min_rounds=1):
    """Whether to start another round after ``rounds`` rounds took ``elapsed``
    seconds.  A run times the whole number of rounds whose total is nearest
    ``seconds``: another round starts only if at least half of it, at the
    mean round length so far, fits."""
    if rounds < min_rounds:
        return True
    return elapsed + 0.5 * elapsed / rounds <= seconds


def run_op(cli, workload, op, family, out_dir):
    """Time one op; returns (seconds, results).  Outputs go to a fresh out_dir."""
    os.makedirs(out_dir)
    calls = workloads.op_calls(workload, op, family, out_dir)
    gc.collect()
    start = time.perf_counter()
    results = run_calls(cli, calls)
    return time.perf_counter() - start, results


def evaluate(workload, op, results, out_dir, reference):
    """(solved, problems) of one op against the reference."""
    try:
        obs = workloads.observe(workload, results, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        solved = all(rc == 0 for _, rc, _, _ in results)
        return solved, [f"unreadable output: {type(exc).__name__}: {exc}"]
    return workloads.check(workload, op, obs, reference.get(workloads.ref_key(op)))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--hard-limit", type=float, default=120.0)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    reference = workloads.load_reference()[args.workload]

    kernel_before = calibrate.sample(SETUP_KERNEL_RUNS)
    setup_start = time.perf_counter()
    from coneshrink import cli
    from coneshrink.catalog import builtin_catalog
    families = builtin_catalog()
    stream = workloads.OpStream(args.workload, args.seed,
                                {name: fam.theta1 for name, fam in families.items()})
    warm = stream.warmup()
    warm_dir = os.path.join(args.run_dir, f"{args.mode}-warmup")
    _, results = run_op(cli, args.workload, warm, families[warm["family"]], warm_dir)
    setup_s = time.perf_counter() - setup_start
    kernel_s = (kernel_before + calibrate.sample(SETUP_KERNEL_RUNS)) / 2
    _, warm_problems = evaluate(args.workload, warm, results, warm_dir, reference)
    shutil.rmtree(warm_dir)
    report = {"setup_s": setup_s, "setup_kernel_s": kernel_s,
              "ref_setup_s": calibrate.to_reference(setup_s, kernel_s),
              "warmup": workloads.ref_key(warm), "warmup_problems": warm_problems}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    import mpmath
    import numpy
    report["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "mpmath": mpmath.__version__}
    tracer = tracing.Tracer() if args.trace else None
    min_rounds = 2 if tracer else 1   # a traced run needs one round of each kind
    records = []
    kernel_before = calibrate.sample()
    start = time.perf_counter()
    for r, rnd in enumerate(stream.rounds()):
        elapsed = time.perf_counter() - start
        if elapsed >= args.hard_limit or not another_round(elapsed, r, args.seconds,
                                                             min_rounds):
            break
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in rnd:
                if time.perf_counter() - start >= args.hard_limit:
                    break
                out_dir = os.path.join(args.run_dir, f"op{len(records)}")
                if traced:
                    tracer.op = len(records)
                op_s, results = run_op(cli, args.workload, op, families[op["family"]], out_dir)
                if traced:
                    tracer.op = None
                kernel_after = calibrate.sample()
                kernel_s = (kernel_before + kernel_after) / 2
                kernel_before = kernel_after
                solved, problems = evaluate(args.workload, op, results, out_dir, reference)
                shutil.rmtree(out_dir)
                records.append({"op": workloads.ref_key(op), "family": op["family"],
                                "round": r, "traced": traced,
                                "op_s": op_s, "kernel_s": kernel_s,
                                "ref_op_s": calibrate.to_reference(op_s, kernel_s),
                                "exit_codes": [rc for _, rc, _, _ in results],
                                "solved": solved, "problems": problems})
        finally:
            if traced:
                tracer.remove()
    report["measure_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["records"] = records
    if tracer is not None:
        tracer.write(os.path.join(args.run_dir, "spans.json.gz"))
        report["bindings"] = dict(tracer.bindings)
        report["per_layer"] = metrics.per_layer(
            tracing.span_totals(tracer.spans), tracer.counters,
            [r for r in records if r["traced"]], [r for r in records if not r["traced"]])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
