"""Alternating parent/change benchmark pairs, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --label L --workload W [--workload W2 ...] \
        [--pairs 10] [--seeds 1-10] [--trace 0|1] \
        [--base HEAD~1] [--head HEAD] [--workdir DIR] [--out FILE] [--append]

Run from the root of the repository.  Exports the two commits (``git
archive``, so nothing is added to the repository's own metadata) into fresh
directories under ``--workdir`` (the system temporary directory by default),
then, per workload and pair, runs each checkout's own
``perfbench/run.py --workload W --seed S --seconds N --trace T`` once, with
N the ``run_seconds`` of BENCHMARK.json, the base first in even pairs and
the change first in odd ones, so a slow stretch of the machine does not
favour one side.  Pair i uses the i-th seed of ``--seeds``.  The exports
are removed at the end, also on failure.

The output holds each pair's metrics (the final JSON line of run.py, plus
the wall-time op_s.p50, fail_frac and calibration-kernel median from its
results.json) and, per metric, both sides' median and quartiles
(statistics.quantiles, n=4), the relative change of the median, and how
many pairs the change won in the metric's better direction, as
BENCHMARK.json declares it.  With ``--append`` the study is added to an
existing file instead of replacing it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 200.0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(rev, dest):
    """The tree of ``rev`` in ``dest``; returns the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    os.makedirs(dest)
    archive = git("archive", "--format=tar", commit)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return commit


def run_once(checkout, workload, seed, seconds, trace):
    """Metric values of one run.py call in ``checkout``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
                           f"{proc.stderr.strip()[-2000:]}")
    final = json.loads(lines[-1])
    results = next(ln.split(" ", 1)[1] for ln in lines if ln.startswith("results "))
    with open(os.path.join(checkout, results), encoding="utf-8") as fh:
        detail = json.load(fh)
    values = {k: v["value"] for k, v in final["metrics"].items()}
    for key in ("wall_op_s.p50", "fail_frac", "kernel_s.median"):
        values[key] = detail[key]
    return {"correct": final["correct"], "attempted": final["attempted"],
            "failed": final["failed"], "metrics": values}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarise(pairs, better):
    """Per metric: both sides' median and quartiles, relative change of the
    median, and the pairs the change won."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        row = {}
        for side, values in (("base", base), ("head", head)):
            q1, q2, q3 = quartiles(values)
            row[side] = {"median": q2, "q1": q1, "q3": q3}
        b, h = row["base"]["median"], row["head"]["median"]
        row["change"] = (h - b) / b if b else None
        direction = better.get(name)
        if direction is not None:
            won = [(hv < bv) if direction == "lower" else (hv > bv)
                   for bv, hv in zip(base, head)]
            row["better"] = direction
            row["wins"] = sum(won)
            row["pairs"] = len(won)
        out[name] = row
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", default=None, help="one seed per pair (default 1-PAIRS)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base", default="HEAD~1")
    p.add_argument("--head", default="HEAD")
    p.add_argument("--workdir", default=None)
    p.add_argument("--out", default=None, help="default BENCH_<label>.json")
    p.add_argument("--append", action="store_true")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds) if args.seeds else list(range(1, args.pairs + 1))
    if len(seeds) < args.pairs:
        p.error(f"{len(seeds)} seeds for {args.pairs} pairs")
    seeds = seeds[:args.pairs]
    out_path = args.out or f"BENCH_{args.label}.json"

    top = tempfile.mkdtemp(prefix="bench_pairs-", dir=args.workdir)
    try:
        dirs = {"base": os.path.join(top, "base"), "head": os.path.join(top, "head")}
        commits = {side: export(getattr(args, side), d) for side, d in dirs.items()}
        with open(os.path.join(dirs["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        better = {m["name"]: m["better"]
                  for m in bench["end_to_end"] + bench.get("per_layer", [])}
        better["wall_op_s.p50"] = "lower"
        study = {"workloads": {}, "seconds": seconds, "trace": args.trace,
                 "base": {"rev": args.base, "commit": commits["base"]},
                 "head": {"rev": args.head, "commit": commits["head"]},
                 "cpu_count": os.cpu_count(), "python": sys.version.split()[0]}
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(dirs[side], workload, seed, seconds, args.trace)
                pairs.append(pair)
                m = "op_s.p50" if "op_s.p50" in pair["base"]["metrics"] else "trace.op_s.p50"
                print(f"{workload} seed {seed}: {m} base {pair['base']['metrics'][m]:.5g} "
                      f"head {pair['head']['metrics'][m]:.5g}", flush=True)
            study["workloads"][workload] = {"seeds": seeds, "pairs": pairs,
                                            "summary": summarise(pairs, better)}
    finally:
        shutil.rmtree(top, ignore_errors=True)

    doc = {"label": args.label, "studies": []}
    if args.append and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["studies"].append(study)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
