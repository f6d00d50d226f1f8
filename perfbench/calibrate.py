"""Machine-speed calibration: a fixed pure-Python kernel timed between ops.

The VM this benchmark was built on runs the same work up to 1.6x slower for
stretches of tens of seconds to minutes, as its neighbours load the host.
Every op is timed with the calibration kernel just before and just after it,
and its time is scaled to the kernel's reference speed:

    ref_s = wall_s * REFERENCE_S / kernel_s

The kernel does not call coneshrink, so a change to the program moves
``ref_s`` exactly as it moves wall time, while a slow stretch of the machine
moves the kernel too and largely cancels.  Stdlib only.
"""

import statistics
import time

# Seconds the kernel takes on an unloaded 2-vCPU VM (Python 3.11); it only
# sets the scale, so reference seconds read close to wall seconds there.
REFERENCE_S = 0.012


def _kernel():
    """Interpreter-bound work like coneshrink's: integer and float arithmetic,
    dict updates and calls."""
    acc, x, table = 0, 0.5, {}
    for i in range(50000):
        acc += i * i
        x = x * 0.999 + 1.0 / (i + 1)
        key = i & 1023
        table[key] = table.get(key, 0) + 1
    return acc, x, len(table)


def sample(runs=1):
    """Seconds one run of the kernel takes now: the median of ``runs`` runs."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def to_reference(wall_s, kernel_s):
    """Scale wall seconds measured while the kernel took ``kernel_s``."""
    return wall_s * REFERENCE_S / kernel_s
