"""coneshrink benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout holding src/coneshrink.  One closed-loop
client in a single process drives ``coneshrink.cli.main(argv)`` in-process;
BLAS threads are pinned to 1 and ``--jobs`` stays at its default of 1.
Set-up (cold import plus one warm-up op) is sampled in three fresh processes
and reported as the median.  Times are in reference seconds: wall seconds
scaled by a calibration kernel timed around each op (calibrate.py).  Prints
the metrics by name with units, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
``--trace 0``, per-layer with ``--trace 1``.
Run records go to .bench_runs/<run>/results.json under the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate
import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".bench_runs"
# Set-up-only processes run before the measuring one, which is a sample too.
SETUP_PROBES = 2
RUN_BUDGET_S = 170.0    # the whole run, set-up probes included
PIN_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def _source_digest(root):
    src = os.path.join(root, "src", "coneshrink")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker(root, args, mode, run_dir, timeout, hard_limit=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--run-dir", run_dir]
    if hard_limit is not None:
        cmd += ["--hard-limit", f"{hard_limit:.1f}"]
    try:
        proc = subprocess.run(cmd, cwd=root, env=dict(os.environ, **PIN_ENV),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _facts(root, args, measure):
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(), "cpu_affinity": affinity,
        "machine": platform.machine(),
        "versions": measure["versions"],
        "commit": _commit(root), "source_sha256_16": _source_digest(root),
        "clients": 1, "loop": "closed", "jobs": 1, "blas_threads": 1,
        "page_cache": "not dropped: the sandbox forbids it, so set-up reads warm files",
        "warmup_op": measure["warmup"],
        "drawn_ops": [r["op"] for r in measure["records"]],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t_begin = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coneshrink", "cli.py")):
        print(f"error: no coneshrink sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(root, RUNS_DIR,
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)

    def remaining():
        return RUN_BUDGET_S - (time.monotonic() - t_begin)

    try:
        probes = [_worker(root, args, "setup", run_dir, remaining())
                  for _ in range(SETUP_PROBES)]
        worst_setup = max(pr["setup_s"] for pr in probes)
        hard_limit = remaining() - 1.5 * worst_setup - 10.0
        if hard_limit < args.seconds:
            raise BenchError(f"{remaining():.0f} s left after set-up: too little for "
                             f"{args.seconds} s of measurement")
        measure = _worker(root, args, "measure", run_dir, remaining(), hard_limit)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = measure["records"]
    if not records:
        print("error: no op completed", file=sys.stderr)
        return 1
    setup_samples = [pr["ref_setup_s"] for pr in probes] + [measure["ref_setup_s"]]
    wall_setup = [pr["setup_s"] for pr in probes] + [measure["setup_s"]]
    warm_problems = [w for pr in probes + [measure] for w in pr["warmup_problems"]]
    untraced = [r for r in records if not r["traced"]]
    attempted, failed, wrong = metrics.count_ops(records)
    e2e = metrics.end_to_end(untraced, setup_samples, measure["peak_rss_mb"])
    _, (tail_value, tail_pct, tail_beyond) = metrics.op_time_stats(untraced)
    wall_p50, _ = metrics.op_time_stats(untraced, key="op_s")
    kernel_median = statistics.median(r["kernel_s"] for r in records)

    facts = _facts(root, args, measure)
    result = {"facts": facts, "setup_samples_s": setup_samples,
              "wall_setup_samples_s": wall_setup, "wall_op_s.p50": wall_p50,
              "kernel_s.median": kernel_median,
              "warmup_problems": warm_problems, "records": records,
              "end_to_end": e2e,
              "op_s_tail": {"value": tail_value, "percentile": tail_pct,
                            "samples_beyond": tail_beyond, "samples": len(untraced)},
              "fail_frac": failed / attempted}
    if args.trace:
        result["per_layer"] = measure["per_layer"]
        result["bindings"] = measure["bindings"]
        reported = {k: (v, metrics.PER_LAYER[k][0]) for k, v in measure["per_layer"].items()}
    else:
        reported = {k: (v, metrics.END_TO_END[k][0]) for k, v in e2e.items()}
    results_path = os.path.join(run_dir, "results.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {measure['measure_s']:.1f} s, "
          f"{facts['cpu_count']} CPUs, Python {facts['versions']['python']}, "
          f"numpy {facts['versions']['numpy']}, mpmath {facts['versions']['mpmath']}, "
          f"commit {facts['commit'] or 'unknown'} (src {facts['source_sha256_16']})")
    print(f"page cache {facts['page_cache']}")
    print(f"ops: warm-up {facts['warmup_op']}, then {' '.join(facts['drawn_ops'])}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f} "
          f"(nonzero exit or wrong output); wrong outputs {wrong}")
    print(f"op_s.tail is p{tail_pct:.1f} of {len(untraced)} untraced ops "
          f"({tail_beyond} beyond it)")
    print(f"times in reference seconds: calibration kernel median {kernel_median * 1e3:.2f} ms "
          f"against {calibrate.REFERENCE_S * 1e3:.1f} ms; wall op_s.p50 {wall_p50:.4f} s, "
          f"wall setup_s {statistics.median(wall_setup):.4f} s")
    for r in records:
        for problem in r["problems"]:
            print(f"WRONG {r['op']}: {problem}")
    for problem in warm_problems:
        print(f"WRONG warm-up: {problem}")
    print(f"results {os.path.relpath(results_path, root)}")
    for name, (value, unit) in reported.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0 and not warm_problems,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
