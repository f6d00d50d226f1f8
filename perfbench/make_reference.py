"""Record the reference outputs the benchmark checks ops against.

    python3 perfbench/make_reference.py [--workload W ...]

Run from the checkout root.  Runs every op any seed can draw (all 14
built-ins for catalog_solve; every family and theta1 grid point for
series_deep and eps_study_mesh) and writes perfbench/reference.json.  The
reference belongs to the commit it was recorded at; re-record only when an
output is meant to change, and say why in the change that does it.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import workloads
from worker import run_calls

RUNS_DIR = ".bench_runs"


def all_ops(workload, families):
    if workload == "catalog_solve":
        return [{"family": n, "scale_index": None, "theta1": families[n].theta1}
                for n in sorted(families)]
    names = (workloads.SERIES_DEEP_FAMILIES if workload == "series_deep"
             else workloads.MESH_FAMILIES)
    return [{"family": n, "scale_index": i, "theta1": families[n].theta1 * s}
            for n in names for i, s in enumerate(workloads.THETA1_SCALES)]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = p.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from coneshrink import cli
    from coneshrink.catalog import builtin_catalog

    families = builtin_catalog()
    os.makedirs(RUNS_DIR, exist_ok=True)
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    for workload in args.workload or workloads.WORKLOADS:
        entries = {}
        for op in all_ops(workload, families):
            with tempfile.TemporaryDirectory(dir=RUNS_DIR, prefix="reference-") as tmp:
                out_dir = os.path.join(tmp, "out")
                os.makedirs(out_dir)
                calls = workloads.op_calls(workload, op, families[op["family"]], out_dir)
                obs = workloads.observe(workload, run_calls(cli, calls), out_dir)
            entries[workloads.ref_key(op)] = obs
            print(workload, workloads.ref_key(op), obs["exit_codes"], flush=True)
        reference[workload] = entries
    reference["recorded_at"] = commit
    tmp_path = workloads.REFERENCE_PATH + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp_path, workloads.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
