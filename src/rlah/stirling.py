"""Exact r-Stirling and r-Lah numbers for rational r >= 0.

The two kinds satisfy the recurrences

    first kind:  c(n,k) = (n+r-1) * c(n-1,k) + c(n-1,k-1)
    second kind: S(n,k) = (k+r)   * S(n-1,k) + S(n-1,k-1)

with c(0,0) = S(0,0) = 1 and value 0 outside 0 <= k <= n.  Production
values come from two exact integer slices, with the denominator q of r
cleared: the first-kind row n is the coefficient list of
(x+r)(x+r+1)...(x+r+n-1), so its columns [lo, hi] are grown in
O(n * min(hi + 1, n - lo + 1)) big-integer operations, and a single
second-kind column is a linear recurrence in n.  ``stirling_r`` reads one
entry from them; the PMF rows of :mod:`rlah.distribution` read whole
slices.  A Fraction is built only at the boundary.

``check_n_max`` is the one row-cap check: n may not exceed the ``n_max``
given with the call, else 4096.  PMF heads take no row cap; the work of
their first-kind runs is bounded by the cost model of
:func:`rlah.distribution.pmf_head`.

``RStirlingTable`` fills the whole triangle of one kind by the recurrences
above, in Fractions.  No production path reads it; the tests' oracles
(``tests/law_oracle.py``) build on it.
"""

from __future__ import annotations

import enum
import math
import threading
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import CapacityExceeded, InadmissibleParameters, InvalidParameter
from .rational import RationalLike, as_rational

DEFAULT_N_MAX = 4096


class StirlingKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


def effective_n_max(n_max: int | None = None) -> int:
    """The row cap for exact tables: ``n_max`` when given, else 4096."""
    return DEFAULT_N_MAX if n_max is None else n_max


def check_n_max(n: int, n_max: int | None = None) -> None:
    """Raise CapacityExceeded when row n lies past the cap ``effective_n_max(n_max)``."""
    cap = effective_n_max(n_max)
    if n > cap:
        raise CapacityExceeded(f"n={n} exceeds n_max={cap}")


def _check_r(r: Fraction) -> Fraction:
    if r < 0:
        raise InvalidParameter(f"r must be >= 0, got {r}")
    return r


class RStirlingTable:
    """Memoized triangle of r-Stirling numbers of one kind, for one fixed r:
    the oracle side of the tests, never a production route.  It stays in
    this module only because the benchmark's tracer wraps
    ``RStirlingTable.ensure``; it moves into the tests once the tracer no
    longer rebinds library names.

    Rows are immutable tuples once appended; growing the table is
    single-writer (guarded by a per-table lock), concurrent reads of filled
    rows are safe.
    """

    def __init__(self, kind: StirlingKind, r: Fraction):
        self.kind = kind
        self.r = _check_r(as_rational(r))
        self._rows: List[Tuple[Fraction, ...]] = [(Fraction(1),)]
        self._lock = threading.Lock()

    @property
    def max_filled(self) -> int:
        return len(self._rows) - 1

    def ensure(self, n: int) -> None:
        if n <= self.max_filled:
            return
        with self._lock:
            r = self.r
            first = self.kind is StirlingKind.FIRST
            zero = Fraction(0)
            while self.max_filled < n:
                m = self.max_filled + 1
                prev = self._rows[-1]
                factor = m + r - 1 if first else None
                row = []
                for k in range(m + 1):
                    above = prev[k] if k < m else zero
                    diag = prev[k - 1] if k >= 1 else zero
                    coeff = factor if first else k + r
                    row.append(coeff * above + diag)
                self._rows.append(tuple(row))

    def value(self, n: int, k: int) -> Fraction:
        """Entry (n, k); 0 when k < 0 or k > n."""
        if n < 0:
            raise InvalidParameter(f"n must be >= 0, got {n}")
        if k < 0 or k > n:
            return Fraction(0)
        self.ensure(n)
        return self._rows[n][k]


def stirling_r(
    kind: StirlingKind,
    n: int,
    k: int,
    r: RationalLike,
    *,
    n_max: int | None = None,
) -> Fraction:
    """r-Stirling number of the given kind, read from one scaled integer slice.

    The first kind is entry k of row n, run on the one-column band [k, k],
    over q^(n-k); the second kind is entry n of column k, over q^n.
    """
    check_n_max(n, n_max)
    r = _check_r(as_rational(r))
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    q = r.denominator
    if kind is StirlingKind.FIRST:
        return Fraction(_first_kind_prefix_scaled(n, r, k, lo=k)[k], q ** (n - k))
    return Fraction(_second_kind_column_scaled(k, r, n)[n], q ** n)


def _log10_lower(kind: StirlingKind, n: int, k: int, r: Fraction) -> float:
    """A lower bound on log10 of the r-Stirling number (kind, n, k), 0 <= k <= n,
    r >= 0, from n - k float logs, without running a kernel.

    The first kind is the elementary symmetric sum e_{n-k} of r, r+1, ...,
    r+n-1, a sum of products of n - k of them, so it is at least the product
    of the n - k largest, prod_{i=k}^{n-1} (r+i).  The second kind satisfies
    S(n,k) >= (k+r) S(n-1,k), so it is at least (k+r)^(n-k).  -inf for a
    zero entry (k = r = 0 < n).
    """
    if n == k:
        return 0.0  # c(n,n) = S(n,n) = 1
    p, q = r.numerator, r.denominator
    if p == 0 and k == 0:
        return -math.inf
    if kind is StirlingKind.FIRST:
        return math.fsum(math.log10(p + q * i) for i in range(k, n)) - (n - k) * math.log10(q)
    return (n - k) * (math.log10(p + q * k) - math.log10(q))


def gen_binomial(top_offset: RationalLike, gap: int) -> Fraction:
    """Generalized binomial binom(x, x-gap) as the product over j=1..gap of (x-gap+j)/j.

    With x = p/q the numerator prod (p - (gap-j) q) and the denominator
    q^gap gap! are integer products, reduced once.  The empty product
    (gap=0) is 1.  A zero factor in numerator position is rejected: it
    cannot occur for admissible callers and signals a misuse.
    """
    if gap < 0:
        raise InvalidParameter(f"gap must be >= 0, got {gap}")
    x = as_rational(top_offset)
    p, q = x.numerator, x.denominator
    num = 1
    for j in range(1, gap + 1):
        factor = p - (gap - j) * q  # q * (x - gap + j)
        if factor == 0:
            raise InvalidParameter(
                f"gen_binomial({x}, {gap}): zero factor at j={j}; parameters inadmissible"
            )
        num *= factor
    return Fraction(num, q ** gap * math.factorial(gap))


def _check_admissible(n: int, k: int, r: Fraction) -> None:
    if n < 1 or k < 0 or k > n or r < 0 or max(k, r) <= 0:
        raise InadmissibleParameters(
            f"(n={n}, k={k}, r={r}) is not admissible: need n >= 1, 0 <= k <= n, "
            f"r >= 0 and max(k, r) > 0"
        )


def lah_r(n: int, k: int, r: RationalLike, *, n_max: int | None = None) -> Fraction:
    """r-Lah number via the closed form binom(n+2r-1, k+2r-1) * n!/k!."""
    r = as_rational(r)
    _check_admissible(n, k, r)
    check_n_max(n, n_max)
    return gen_binomial(n + 2 * r - 1, n - k) * math.factorial(n) / math.factorial(k)


def harmonic_diff(alpha: RationalLike, m: int) -> Fraction:
    """Exact sum of 1/(alpha+j) for j=1..m, a difference of harmonic numbers."""
    alpha = as_rational(alpha)
    if alpha <= -1:
        raise InvalidParameter(f"alpha must be > -1, got {alpha}")
    if m < 0:
        raise InvalidParameter(f"m must be >= 0, got {m}")
    return _power_sum(alpha, m, 1)


def _power_sum(alpha: Fraction, m: int, e: int) -> Fraction:
    """Exact sum of 1/(alpha+j)^e for j=1..m, alpha = p/q > -1: the terms
    q^e/(p + qj)^e are added pairwise over the products of their
    denominators (binary splitting) and reduced once."""
    p, q = alpha.numerator, alpha.denominator
    terms = [(q**e, (p + q * j) ** e) for j in range(1, m + 1)] or [(0, 1)]
    while len(terms) > 1:
        unpaired = terms[len(terms) // 2 * 2:]
        terms = [(a * d + c * b, b * d) for (a, b), (c, d) in zip(terms[::2], terms[1::2])] + unpaired
    return Fraction(*terms[0])


# -- exact row/column slices for large n ------------------------------------

def _first_kind_prefix_scaled(
    n: int, r: Fraction, j_max: int, start: Tuple[int, Sequence[int]] = (0, (1,)), lo: int = 0
) -> List[int]:
    """Integer coefficients b with c(n,j)_r = b[j] * q^(j-n), q = r.denominator,
    on the band lo <= j <= min(j_max, n), with b[j] = 0 below the edge lo.

    b is a band of the coefficient list of the monic integer polynomial
    prod_{i=0}^{n-1} (y + p + q*i).  Column j of a row needs only columns j-1
    and j of the row before, so row i carries only max(0, lo-(n-i))..min(i,
    j_max): about n * min(j_max, n - lo) steps; lo = 0 is the whole prefix.

    ``start`` = (m, s) is the scaled row m <= n, exact from column
    max(0, lo-(n-m)), full (m + 1 entries) or reaching column min(j_max, n);
    only the factors i = m..n-1 are multiplied in, as in a run from row 0 ([1]).
    """
    p, q, top = r.numerator, r.denominator, n - 1 - lo
    j_max = min(j_max, n)
    m, s = start
    b = list(s[: j_max + 1])
    b += [0] * (j_max + 1 - len(b))
    for i in range(m, n):
        c = p + q * i
        e = i - top if i > top else 0  # the edge of row i + 1, max(0, lo - (n - 1 - i))
        for j in range(min(i + 1, j_max), e, -1):
            b[j] = b[j - 1] + c * b[j]
        b[e] = c * b[e] + b[e - 1] if e else c * b[0]
    return [0] * lo + b[lo:]


def _second_kind_column_scaled(k: int, r: Fraction, j_max: int) -> List[int]:
    """Integers T with S(j,k)_r = T[j] * q^(-j), j = 0..j_max, from the scaled recurrence

    T[j, kk] = (kk*q + p) * T[j-1, kk] + q * T[j-1, kk-1],  T[0, 0] = 1.

    T[j, kk] is 0 for j < kk, and T[j_max, k] needs T[j, kk] only for
    j - kk <= j_max - k, so each column is carried on that band alone:
    u[d] = T[kk+d, kk].  Cost is O(k * (j_max - k)) big-integer operations.
    """
    p, q = r.numerator, r.denominator
    u = [p ** d for d in range(j_max - k + 1)]
    for kk in range(1, k + 1):
        c = kk * q + p
        acc = 0
        for d, below in enumerate(u):
            acc = c * acc + q * below
            u[d] = acc
    return ([0] * k + u)[: j_max + 1]


def first_kind_prefix(n: int, r: RationalLike, j_max: int) -> List[Fraction]:
    """Exact c(n,j)_r for j = 0..min(j_max, n), without filling the triangle.

    Cost is O(j_max * n) big-integer operations, so rows far beyond the
    table cap are reachable when only a prefix is needed.
    """
    r = _check_r(as_rational(r))
    if n < 0 or j_max < 0:
        raise InvalidParameter("n and j_max must be >= 0")
    q = r.denominator
    b = _first_kind_prefix_scaled(n, r, j_max)
    return [Fraction(bj, q ** (n - j)) for j, bj in enumerate(b)]
