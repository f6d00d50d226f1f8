"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/stability.py --workload W [--workload W2 ...] \
        --seeds 1-10 [--trace 0|1] [--seconds S] [--out FILE.json]

Run from the checkout root.  Runs run.py once per (workload, seed), one at a
time, and reports for every metric the median, quartiles and quartile spread
(Q3 - Q1) / median, as statistics.quantiles(n=4) gives them, next to the
metric's bound, and the same for the wall-time op_s.p50 and the calibration
kernel.  With --out, writes the runs and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    path = next(ln.split(" ", 1)[1] for ln in lines if ln.startswith("results "))
    with open(path, encoding="utf-8") as fh:
        detail = json.load(fh)
    return final, detail


def summarise(values, bound=None):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    row = {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / q2 if q2 else None}
    if bound is not None:
        row["bound"] = bound
    return row


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    if args.seconds is None:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    specs = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    doc = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds, "trace": args.trace,
           "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in doc["seeds"]:
            final, detail = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "correct": final["correct"],
                         "attempted": final["attempted"], "failed": final["failed"],
                         "fail_frac": detail["fail_frac"], "op_s_tail": detail["op_s_tail"],
                         "wall_op_s.p50": detail["wall_op_s.p50"],
                         "kernel_s.median": detail["kernel_s.median"],
                         "metrics": {k: v["value"] for k, v in final["metrics"].items()},
                         "facts": detail["facts"]})
            print(f"{workload} seed {seed}: correct {final['correct']} "
                  f"attempted {final['attempted']} failed {final['failed']}", flush=True)
        summary = {}
        for name, spec in specs.items():
            bound = spec[2] if len(spec) > 2 else None
            summary[name] = summarise([r["metrics"][name] for r in runs], bound)
        for name in ("fail_frac", "wall_op_s.p50", "kernel_s.median"):
            summary[name] = summarise([r[name] for r in runs])
        doc["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, row in summary.items():
            line = f"{workload:<15} {name:<44} median {row['median']:<12.6g}"
            if row["spread"] is not None:
                line += f" spread {row['spread']:.4f}"
            if "bound" in row:
                line += f" bound {row['bound']}"
                if name != "setup_s":
                    line += "  OK" if row["spread"] <= row["bound"] / 3 else "  WIDE"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
