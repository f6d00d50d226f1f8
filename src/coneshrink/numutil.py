"""Shared numerical helpers: precision, decimal text, left-to-right and
pairwise sums, Hermite interpolation, Gauss-Legendre nodes, atomic file
writes and the release of free C heap pages.  A
``prec`` in bits means binary64 at 53 bits and below, mpmath above;
mpmath's global precision is set with ``workprec`` only inside the calls
that make mpf objects (the series' scalar rings carry their own).

numpy is imported lazily (:func:`lazy_numpy`), and a call that never holds
an array never pays for its import.  The series, the corrections and the
catalog run on mpmath and floats, and a solve runs on floats and lists:
the stepper, the s-side run, the d-side chart, the continuation, the
summary and the CSV files.  So ``coneshrink catalog``, ``coeffs`` and
``solve`` without ``--eps-study`` never execute numpy's import; ``verify``,
``export`` and ``solve --eps-study`` hold arrays and do.
"""

import functools
import importlib.util
import math
import operator
import os
import sys
import tempfile

import mpmath

from .errors import ExportIOError

DOUBLE_PREC = 53


def lazy_numpy():
    """The numpy module, executed on its first attribute access.

    Returns numpy itself if it is already in ``sys.modules``; else puts
    there a module whose ``LazyLoader`` runs numpy's import when an
    attribute is first read, after which it is the real numpy module.  So
    ``np = lazy_numpy()`` at a module's top costs nothing until ``np.``
    is used, and nothing on the paths that use it.  Python 3.11's
    ``LazyLoader`` takes no lock around that first load, so a threaded
    caller should use numpy once on one thread before it starts others."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = lazy_numpy()


@functools.lru_cache(maxsize=None)
def _is_ndarray_type(cls):
    return any(c.__name__ == "ndarray" and c.__module__ == "numpy" for c in cls.__mro__)


def is_ndarray(x) -> bool:
    """``isinstance(x, numpy.ndarray)``, decided from the names in
    ``type(x)``'s MRO, so a check of a float or an mpf does not load numpy.
    A numpy scalar such as ``np.float64`` is not an ndarray."""
    return _is_ndarray_type(type(x))


def max_abs(xs) -> float:
    """``np.max(np.abs(xs))`` on floats: NaN if any of ``xs`` is NaN or there
    are none."""
    top = -1.0
    for x in xs:
        a = abs(x)
        if not a <= top:   # larger, or NaN
            if a != a:
                return a
            top = a
    return top if top >= 0.0 else math.nan


def machine_eps(prec: int) -> float:
    """Unit roundoff at ``prec`` bits (2^(1-prec))."""
    return 2.0 ** (1 - prec)


def decimal_str(x, prec: int) -> str:
    """Decimal text carrying the full information content of ``prec`` bits."""
    if prec <= DOUBLE_PREC:
        return repr(float(x))
    digits = int(prec * 0.30103) + 5
    with mpmath.workprec(prec):
        return mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)


def to_real(x, prec: int):
    """``x``, a number or its decimal text, as a float at 53 bits and below,
    else as an mpf rounded to ``prec`` bits."""
    if prec <= DOUBLE_PREC:
        return float(x)
    with mpmath.workprec(prec):
        return mpmath.mpf(x)


def left_sum(xs):
    """The sum of ``xs`` from the integer 0, left to right, one rounding per
    addition.  The builtin ``sum`` does this up to Python 3.11; from 3.12 on
    it compensates float sums, which would change the bits of the results."""
    return functools.reduce(operator.add, xs, 0)


# numpy sums a run of at most this many items with 8 accumulators, and
# splits a longer run in two at a multiple of 8
_PAIRWISE_BLOCK = 128


def pairwise_sum(xs):
    """The sum of the floats ``xs`` in the order in which numpy's ``sum``
    adds a contiguous float64 array: fewer than 8 items left to right; up
    to 128 in 8 interleaved accumulators, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest left
    to right; more split in two at a multiple of 8; none, 0.0.  Only
    additions, so the result is the same on every machine, and a sum moved
    off numpy keeps its bits."""
    xs = list(xs)
    n = len(xs)
    if n < 8:
        return functools.reduce(operator.add, xs[1:], xs[0]) if n else 0.0
    if n <= _PAIRWISE_BLOCK:
        m = n - n % 8
        r = [functools.reduce(operator.add, xs[k + 8:m:8], xs[k]) for k in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return functools.reduce(operator.add, xs[m:], res)
    half = n // 2
    half -= half % 8
    return pairwise_sum(xs[:half]) + pairwise_sum(xs[half:])


def loglog_slope(xs, ys):
    """Least-squares slope of log|y| against log|x| (both entrywise positive)."""
    lx = [math.log(float(x)) for x in xs]
    ly = [math.log(float(y)) for y in ys]
    n = len(lx)
    mx = left_sum(lx) / n
    my = left_sum(ly) / n
    sxx = left_sum((u - mx) ** 2 for u in lx)
    sxy = left_sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    return sxy / sxx


def cubic_hermite(t, h, y0, dy0, y1, dy1):
    """Cubic Hermite at local coordinate t in [0, 1] on an interval of width h
    with end values y0, y1 and end slopes dy0, dy1."""
    h00 = (1 + 2 * t) * (1 - t) ** 2
    h10 = t * (1 - t) ** 2
    h01 = t * t * (3 - 2 * t)
    h11 = t * t * (t - 1)
    return h00 * y0 + h10 * h * dy0 + h01 * y1 + h11 * h * dy1


def hermite_eval(xs, ys, dys, x_query):
    """The piecewise cubic Hermite through the nodes xs (ascending) with
    values ys and slopes dys, at x_query; beyond the nodes the end
    intervals' cubics extend."""
    idx = np.clip(np.searchsorted(xs, x_query, side="right") - 1, 0, len(xs) - 2)
    x0, x1 = xs[idx], xs[idx + 1]
    h = x1 - x0
    t = np.where(h > 0, (x_query - x0) / np.where(h > 0, h, 1.0), 0.0)
    return cubic_hermite(t, h, ys[idx], dys[idx], ys[idx + 1], dys[idx + 1])


# 4-point Gauss-Legendre rule on [0, 1]; exact through degree 7, enough to
# integrate products of cubic Hermite reconstructions against linear weights.
GAUSS4_NODES = (
    0.06943184420297371,
    0.33000947820757187,
    0.6699905217924281,
    0.9305681557970262,
)
GAUSS4_WEIGHTS = (
    0.1739274225687269,
    0.3260725774312731,
    0.3260725774312731,
    0.1739274225687269,
)


def atomic_write_text(path, text):
    """Write-then-rename so readers never observe a partial file."""
    return atomic_write_chunks(path, (text,))


def atomic_write_chunks(path, chunks):
    """Write the strings of ``chunks`` in turn to a temporary file, then
    rename it over ``path``: readers never observe a partial file, and
    only the chunk being written need be held in memory.

    The one place a failed write becomes :class:`ExportIOError` naming the
    path.  On any exception, one raised by ``chunks`` included, the
    temporary file is removed and ``path`` keeps its old contents."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ExportIOError(path, exc) from exc
    return path


def release_free_heap():
    """Hand the C heap's free pages back to the system where the C library
    can (glibc's ``malloc_trim``); elsewhere do nothing.

    glibc keeps the pages of freed chunks resident, and returns only a
    free top of its heap larger than twice its mmap threshold.  A call that
    frees megabytes of arrays and text, as a mesh export does, would leave
    them resident, and the process's peak memory would then hang on where
    its next large buffer lands: in those pages, or in a fresh mapping
    beside them when no free chunk is large enough."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@functools.lru_cache(maxsize=None)
def _malloc_trim():
    try:
        import ctypes
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):   # not glibc, or no C library handle
        return None


def write_csv(path, header, columns):
    """CSV with the ``header`` names, then one row per index of the
    ``columns`` (sequences of numbers), each value as the round-trip repr
    of its float."""
    lines = [",".join(header)]
    rows = zip(*(map(float, col) for col in columns))
    lines.extend(",".join(map(repr, row)) for row in rows)
    return atomic_write_text(path, "\n".join(lines) + "\n")
