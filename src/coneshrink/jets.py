"""Truncated jets and high-order composition machinery.

A jet is the tuple (u(a), u'(a), ..., u^(m)(a)); sums and products close at
order m (Leibniz), and composition is available through two independent
algorithms:

* ``partition`` -- the classical multi-index sum over

      A_{m,l} = { b in N^m : sum b_j = l, sum j*b_j = m },

  (d/ds)^m f(g(s)) = sum_{l<=m} f^(l)(g) sum_{b in A_{m,l}}
                     m!/(prod b_j!) prod_j (g^(j)/j!)^{b_j};

* ``abadie`` -- the divided-difference form
  (d/ds)^m f(g(s)) = sum_l C(m,l) f^(l)(g) (d/dh)^{m-l} q(h)^l |_{h=0}
  with q(h) = (g(s+h) - g(s))/h.

The series engine (:class:`coneshrink.series.TaylorRecursion`) does not use
this module: it extends truncated Taylor series one order at a time.  What
stays here are the independent oracles the tests cross-check it against --
the partition enumeration, both composition algorithms, and the partition
form of the arctan term (d/ds)^k {2s d/ds arctan(2 s gamma'(s))}(0).  Their
cost grows with the number of partitions of k, like exp(pi sqrt(2k/3)).

All kernels are ring-generic: values may be floats, mpmath floats, or
truncated epsilon-polynomials; combinatorial factors are exact integers.
"""

import math
import threading
from dataclasses import dataclass, field

from .errors import (
    BasepointMismatch,
    InsufficientOrder,
    OrderMismatch,
    OutOfRange,
)


# ---------------------------------------------------------------------------
# Partition multi-indices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionMultiIndex:
    """b = (b_1, ..., b_m) with sum b_j = l and sum j*b_j = m."""

    b: tuple

    @property
    def l(self):
        return sum(self.b)

    @property
    def m(self):
        return sum((j + 1) * bj for j, bj in enumerate(self.b))


_partition_cache = {}
_partition_lock = threading.Lock()


def _ascending_partitions(m):
    """All partitions of m as ascending tuples (iterative; Kelleher's accelAsc)."""
    if m == 0:
        yield ()
        return
    a = [0] * (m + 1)
    k = 1
    a[1] = m
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield tuple(a[: k + 1])


def _partition_table(m):
    """l -> list of (b, C_b, J_b): C_b = m!/(prod b_j! prod (j!)^{b_j}) and
    J_b = prod j^{b_j}, both exact integers, rows in lexicographic order of b."""
    with _partition_lock:
        cached = _partition_cache.get(m)
    if cached is not None:
        return cached
    table = {}
    fact_m = math.factorial(m)
    for part in _ascending_partitions(m):
        b = [0] * m
        for piece in part:
            b[piece - 1] += 1
        b = tuple(b)
        denom = 1
        jprod = 1
        for j, bj in enumerate(b, start=1):
            if bj:
                denom *= math.factorial(bj) * math.factorial(j) ** bj
                jprod *= j ** bj
        table.setdefault(len(part), []).append((b, fact_m // denom, jprod))
    for rows in table.values():
        rows.sort(key=lambda row: row[0])
    with _partition_lock:
        _partition_cache[m] = table
    return table


def enumerate_partitions(m: int, l: int):
    """Every element of A_{m,l} exactly once, lexicographically ordered."""
    if not 1 <= l <= m:
        raise OutOfRange(f"need 1 <= l <= m, got (m, l) = ({m}, {l})")
    rows = _partition_table(m).get(l, ())
    return [PartitionMultiIndex(b) for b, _, _ in rows]


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """Derivatives (u(a), u'(a), ..., u^(m)(a)) of one function at one point.

    ``basepoint`` is an optional tag recording where the jet is expanded;
    it takes no part in arithmetic but composition cross-checks it against
    the inner jet's value.
    """

    derivs: tuple
    basepoint: object = field(default=None, compare=False)

    @property
    def order(self):
        return len(self.derivs) - 1

    @property
    def value(self):
        return self.derivs[0]

    def _merge_tag(self, other):
        a, b = self.basepoint, other.basepoint
        if a is not None and b is not None and a != b:
            raise BasepointMismatch(f"jets at different basepoints: {a!r} vs {b!r}")
        return a if a is not None else b

    def _check_order(self, other):
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order} differ")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_order(other)
            return Jet(tuple(a + b for a, b in zip(self.derivs, other.derivs)),
                       self._merge_tag(other))
        return Jet((self.derivs[0] + other,) + self.derivs[1:], self.basepoint)

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-a for a in self.derivs), self.basepoint)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_order(other)
            out = []
            for k in range(self.order + 1):
                acc = self.derivs[0] * other.derivs[k]
                for j in range(1, k + 1):
                    acc = acc + math.comb(k, j) * (self.derivs[j] * other.derivs[k - j])
                out.append(acc)
            return Jet(tuple(out), self._merge_tag(other))
        return Jet(tuple(other * a for a in self.derivs), self.basepoint)

    __rmul__ = __mul__

    def power(self, exponent: int):
        if exponent < 0:
            raise OutOfRange("negative jet powers are not defined here")
        result = Jet((1,) + (0,) * self.order, self.basepoint)
        for _ in range(exponent):
            result = result * self
        return result

    def reciprocal(self):
        """Jet of 1/u, solving the Leibniz triangle; u(a) must be invertible."""
        inv0 = 1 / self.derivs[0]
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = math.comb(k, 1) * (self.derivs[1] * out[k - 1])
            for j in range(2, k + 1):
                acc = acc + math.comb(k, j) * (self.derivs[j] * out[k - j])
            out.append(-inv0 * acc)
        return Jet(tuple(out), self.basepoint)

    def truncate(self, order: int):
        if order > self.order:
            raise InsufficientOrder(f"cannot extend a jet of order {self.order} to {order}")
        return Jet(self.derivs[: order + 1], self.basepoint)


def identity_jet(value, order: int, basepoint=None) -> Jet:
    """Jet of x -> x at ``value``."""
    return Jet((value, 1) + (0,) * (order - 1) if order >= 1 else (value,), basepoint)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def fdb_kth_derivative(outer_derivs, inner_derivs, k: int):
    """(d/ds)^k f(g(s)) from f^(l)(g(s)) = outer_derivs[l] (l <= k) and
    g^(j)(s) = inner_derivs[j] (j <= k), by the partition sum."""
    if k == 0:
        return outer_derivs[0]
    powers = _power_tables(inner_derivs, k)
    acc = None
    for l, rows in sorted(_partition_table(k).items()):
        if l >= len(outer_derivs):
            continue
        fl = outer_derivs[l]
        part = None
        for b, cb, _ in rows:
            term = cb
            for j, bj in enumerate(b, start=1):
                if bj:
                    term = term * powers[j][bj]
            part = term if part is None else part + term
        contrib = fl * part
        acc = contrib if acc is None else acc + contrib
    return acc


def _power_tables(values, k):
    """powers[j][e] = values[j] ** e for 1 <= j <= k, e <= k // j."""
    powers = {}
    for j in range(1, k + 1):
        v = values[j]
        row = [1, v]
        for _ in range(k // j - 1):
            row.append(row[-1] * v)
        powers[j] = row
    return powers


def fdb_kth_derivative_abadie(outer_derivs, inner_derivs, k: int, _qpow=None):
    """Same derivative through the divided-difference (Abadie) form."""
    if k == 0:
        return outer_derivs[0]
    if _qpow is None:
        _qpow = _abadie_qpowers(inner_derivs, k)
    acc = None
    for l in range(1, k + 1):
        if l >= len(outer_derivs):
            break
        term = (math.comb(k, l) * outer_derivs[l]) * _qpow[l].derivs[k - l]
        acc = term if acc is None else acc + term
    return acc


def _abadie_qpowers(inner_derivs, k):
    """Jets at h = 0 of q(h)^l for l <= k, q(h) = (g(s+h)-g(s))/h, to order k-1."""
    q = Jet(tuple(inner_derivs[i + 1] / (i + 1) for i in range(k)))
    qpow = [None, q]
    for _ in range(2, k + 1):
        qpow.append(qpow[-1] * q)
    return qpow


def compose(f_jet: Jet, g_jet: Jet, algorithm: str = "partition") -> Jet:
    """Jet of f o g at g's basepoint; f_jet must be expanded at g's value."""
    if f_jet.order != g_jet.order:
        raise OrderMismatch(
            f"outer order {f_jet.order} != inner order {g_jet.order}"
        )
    if f_jet.basepoint is not None and f_jet.basepoint != g_jet.value:
        raise BasepointMismatch(
            f"outer jet expanded at {f_jet.basepoint!r} but inner value is {g_jet.value!r}"
        )
    m = f_jet.order
    out = [f_jet.derivs[0]]
    if algorithm == "partition":
        for k in range(1, m + 1):
            out.append(fdb_kth_derivative(f_jet.derivs, g_jet.derivs, k))
    elif algorithm == "abadie":
        qpow = _abadie_qpowers(g_jet.derivs, m) if m >= 1 else None
        for k in range(1, m + 1):
            out.append(fdb_kth_derivative_abadie(f_jet.derivs, g_jet.derivs, k,
                                                 _qpow=qpow))
    else:
        raise OutOfRange(f"unknown composition algorithm {algorithm!r}")
    return Jet(tuple(out), g_jet.basepoint)


# ---------------------------------------------------------------------------
# The arctan term by partitions
# ---------------------------------------------------------------------------

def _arctan_term_impl(gamma_derivs_at_zero, k: int, absolute: bool):
    if k == 0:
        return 0
    if len(gamma_derivs_at_zero) < k:
        raise InsufficientOrder(
            f"need gamma derivatives through order {k}, got {len(gamma_derivs_at_zero)}"
        )
    gd = [None] + list(gamma_derivs_at_zero)  # gd[j] = gamma^(j)(0)
    powers = _power_tables(gd, k)
    acc = None
    for l, rows in sorted(_partition_table(k).items()):
        if l % 2 == 0:
            continue
        sign = -1 if (l - 1) // 2 % 2 else 1
        coeff_l = (1 if absolute else sign) * 2 ** l * math.factorial(l - 1)
        part = None
        for b, cb, jb in rows:
            term = cb * jb
            for j, bj in enumerate(b, start=1):
                if bj:
                    term = term * powers[j][bj]
            part = term if part is None else part + term
        contrib = coeff_l * part
        acc = contrib if acc is None else acc + contrib
    return (2 * k) * acc


def arctan_term_at_zero(gamma_derivs_at_zero, k: int):
    """(d/ds)^k { 2s * d/ds arctan(2 s gamma'(s)) } (0)
    = 2k * (d/ds)^k arctan(2 s gamma'(s)) (0).

    ``gamma_derivs_at_zero`` lists gamma'(0), gamma''(0), ...; entries may be
    scalars or epsilon-polynomials.  Only odd partition levels survive at
    s = 0 (arctan^(l)(0) = (l-1)! sin(l*pi/2)), with alternating sign.
    """
    return _arctan_term_impl(gamma_derivs_at_zero, k, absolute=False)


def arctan_term_abs_mass(gamma_derivs_at_zero, k: int):
    """Sum of term magnitudes of :func:`arctan_term_at_zero`: feed it absolute
    values to bound the cancellation in the signed sum.  No caller in the
    package; the per-layer tracing in ``perfbench/tracing.py`` wraps it by
    name together with the other two partition kernels."""
    return _arctan_term_impl(gamma_derivs_at_zero, k, absolute=True)
