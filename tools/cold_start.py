"""Cold-start wall times of coneshrink calls at two commits.

    python3 tools/cold_start.py [--base HEAD~1] [--head HEAD] [--runs 9] [--workdir DIR]

Run from the root of the repository.  Exports both commits the way
``tools/bench_pairs.py`` does (its ``export``) into fresh directories
under ``--workdir`` (the system temporary directory by default), then
times each call of ``CALLS`` in a fresh interpreter per run, from the
start of the process to its exit.  The runs interleave: in each round
every call runs once per side, the base first in even rounds and the
change first in odd ones, so a slow stretch of the machine does not
favour one side.  The calls, on the reference family g = 1, m = 1, n = 2,
theta1 = pi/4:

- ``import``: ``import coneshrink.cli`` alone;
- ``catalog``: the built-in listing;
- ``coeffs``: ``coeffs --K 12 --corrections --gevrey --out -``;
- ``solve``: a default ``solve``.

None of them needs numpy: ``coneshrink`` imports it lazily, and the series,
the catalog and a solve without ``--eps-study`` hold no array.  Before the
timed runs, each call runs once per side untimed, with a probe that reports
at exit whether numpy's import ran (a ``numpy.`` submodule in
``sys.modules``).

Prints, per call and side, the min and median in ms over the runs, the
relative change of each, and whether numpy's import ran.  A call that
exits non-zero stops the tool.  The exports are removed at the end, also
on failure.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import export  # noqa: E402

CALL_TIMEOUT_S = 120.0
ENTRY = "from coneshrink.cli import entry; entry()"
FAMILY_FLAGS = ["--g", "1", "--m", "1", "--n", "2", "--theta1", "0.7853981633974483"]
# name -> (the code of ``python -c``, its arguments)
CALLS = {
    "import": ("import coneshrink.cli", []),
    "catalog": (ENTRY, ["catalog"]),
    "coeffs": (ENTRY, ["coeffs", *FAMILY_FLAGS, "--K", "12", "--corrections", "--gevrey",
                       "--out", "-"]),
    "solve": (ENTRY, ["solve", *FAMILY_FLAGS, "--out", "solve_out"]),
}
# run before a call's code: prints on stderr's last line, at exit, whether
# numpy's import ran; the lazy module alone is "numpy", with no submodule
NUMPY_PROBE = ("import atexit, sys\n"
               "atexit.register(lambda: print('numpy', any(m.startswith('numpy.') "
               "for m in sys.modules), file=sys.stderr))\n")


def run_call(checkout, code, args):
    """Wall seconds and stderr of one fresh interpreter running ``python -c
    code *args`` in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=checkout, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CALL_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {args} exited {proc.returncode}\n"
                           f"{proc.stderr.decode()[-2000:]}")
    return elapsed, proc.stderr.decode()


def numpy_ran(checkout, code, args):
    """Whether numpy's import ran in one untimed run of the call."""
    _, stderr = run_call(checkout, NUMPY_PROBE + code, args)
    return stderr.strip().splitlines()[-1] == "numpy True"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD~1")
    p.add_argument("--head", default="HEAD")
    p.add_argument("--runs", type=int, default=9)
    p.add_argument("--workdir", default=None)
    args = p.parse_args(argv)
    top = tempfile.mkdtemp(prefix="cold_start-", dir=args.workdir)
    try:
        dirs = {"base": os.path.join(top, "base"), "head": os.path.join(top, "head")}
        commits = {side: export(getattr(args, side), d) for side, d in dirs.items()}
        numpy = {(name, side): numpy_ran(d, *call)
                 for name, call in CALLS.items() for side, d in dirs.items()}
        times = {(name, side): [] for name in CALLS for side in dirs}
        for r in range(args.runs):
            order = ("base", "head") if r % 2 == 0 else ("head", "base")
            for name, call in CALLS.items():
                for side in order:
                    times[name, side].append(run_call(dirs[side], *call)[0])
    finally:
        shutil.rmtree(top, ignore_errors=True)
    print(f"base {commits['base'][:12]} head {commits['head'][:12]}: {args.runs} runs, "
          f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs; wall ms")
    print(f"{'call':<8} {'base min':>9} {'head min':>9} {'change':>7} "
          f"{'base med':>9} {'head med':>9} {'change':>7}  numpy base/head")
    for name in CALLS:
        row = [name]
        for stat in (min, statistics.median):
            b, h = stat(times[name, "base"]), stat(times[name, "head"])
            row.append(f"{1e3 * b:9.1f} {1e3 * h:9.1f} {(h - b) / b:+7.1%}")
        ran = "/".join("ran" if numpy[name, side] else "no" for side in dirs)
        print(f"{row[0]:<8} {row[1]} {row[2]}  {ran}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
