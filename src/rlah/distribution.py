"""The r-Lah distribution, materialized exactly on one integer kernel.

For an admissible triple (n, k, r) the law lives on {k, ..., n} with

    P[X = j] = c(n,j)_r * S(j,k)_r / L(n,k)_r,

where c and S are the r-Stirling numbers of the first and second kind and
L(n,k)_r the r-Lah number.  Everything in this module is exact: PMF, CDF,
moments, parity split, mode, and the probability generating function.
A float appears in two places.  Each float of an exact value
(``pmf_float``, ``log_pmf``, their bulk forms and the CDF floats) is that
value rounded once, by one int true division of its integer pair; and the
window rule ``_head_window`` sizes heads in binary64, which sets how far a
head reaches, never what a value is.

Every PMF value comes from one kind of object, an integer head row.  With b
the scaled first-kind prefix of row n and t the scaled second-kind column k,
the weight of j is w[j] = b[j] * t[j] and P[X = j] = w[j] / den, where
den = q^n L(n,k)_r is the sum of all weights.  A row holds the prefix sums
of the weights, is grown upward and is shared by every window of its
(n, k, r); one first-kind row per (n, r), run exactly as wide as asked from
column max(0, 2k - n) for the k that asks, is shared by every k' >= 2k - n:
a prefix for k <= n/2, a band near k = n.  Row n is row m < n times the
factors m..n-1, so a row steps up from the nearest cached row of the same r
that covers it, and rows at nearby n share their kernel work.

``pmf_head`` is a view of a row's prefix {k, ..., j_hi}, at about
n * min(j_hi + 1, n - max(0, 2k - n) + 1) big-integer steps, which is what
makes exact tail sums, CDF heads and modes reachable at n = 10^4.  One rule
sizes every certified window (``_head_window``, from the mean of the
e^{zX}-tilted law), one cost model prices the run a head needs from its
sizes alone (``_kernel_cost``: n, the band and the bit length of the
factors), and ``_admit_head`` refuses a head whose cost passes
``_HEAD_COST_CAP`` before any kernel runs.  The limit statistics take their
first head from ``_window_head``, whose floor, the default study's widest
window, ``_prefix`` clamps to the cap: one (n, k, r) study runs the kernel once.
``build_distribution`` checks the row cap and returns the view at full
width, j_hi = n; its row is built on the first read that needs it (tables,
CDF, log-concavity).  ``den``, the normalizer, mean, variance
and parity split are closed forms and the mode is read on a window.  Set
probabilities (``mass``), CDF values, tails and floats are integer sums
over ``den``, and a Fraction is built only at the API boundary.  The
generating function is evaluated by its closed alternating sum
(``pgf_eval``), in integers.  Rows and prefixes share one byte budget,
``_CACHE_BUDGET_BYTES``, and the least recently used are evicted first.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Set, Tuple

from .errors import CapacityExceeded, DomainError, InadmissibleParameters, InvalidParameter
from .rational import (
    RationalLike,
    as_rational,
    format_rational,  # unused here, but rlahbench/tracing.py wraps rlah.distribution.format_rational
)
from .stirling import (
    _first_kind_prefix_scaled,
    _power_sum,
    _second_kind_column_scaled,
    check_n_max,
    gen_binomial,
    harmonic_diff,
    lah_r,
    stirling_r,  # unused here, but rlahbench/tracing.py wraps rlah.distribution.stirling_r
)


@dataclass(frozen=True)
class AdmissibleTriple:
    """Parameters (n, k, r) of an r-Lah distribution; max(k, r) > 0 required."""

    n: int
    k: int
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", as_rational(self.r))
        if self.n < 1 or not isinstance(self.n, int):
            raise InadmissibleParameters(f"n must be a positive integer, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise InadmissibleParameters(f"k must lie in [0, n], got k={self.k}, n={self.n}")
        if self.r < 0:
            raise InadmissibleParameters(f"r must be >= 0, got {self.r}")
        if max(self.k, self.r) <= 0:
            raise InadmissibleParameters("k = r = 0 is excluded (L(n,0)_0 = 0)")


def expectation_exact(n: int, k: int, r: RationalLike) -> Fraction:
    """E[Lah(n,k)_r] by closed form, without materializing the distribution.

    Cost is one harmonic difference (O(n) rational terms), so this reaches n
    far beyond the table cap.
    """
    params = AdmissibleTriple(n, k, as_rational(r))
    n, k, r = params.n, params.k, params.r
    h = harmonic_diff(k + 2 * r - 1, n - k)
    return (k + (k * (n + r) + r * (n + 1)) * h) / (n - (k - 1))


def pgf_eval(params: AdmissibleTriple, t: RationalLike) -> Fraction:
    """P_{n,k,r}(t) = E[t^X] via the finite alternating sum

        (1/binom(n+2r-1, k+2r-1)) * sum_{m=0}^{k} (-1)^{k-m} C(k,m)
            * (a)(a+1)...(a+n-1) / n!,    a = r(t+1) + t*m,

    the gamma-quotient factor expanded as an exact rising factorial.  With
    r = p/q and t = u/v, a = (a0 + m*c)/b for the integers a0 = p(u+v),
    c = q*u and b = q*v, so each rising factorial is the integer product of
    a0 + m*c + i*b over i < n, divided by b^n, and the whole sum is one
    integer over b^n n!.  For r = 0 the m = 0 term vanishes on its own: its
    product starts at a0 = 0.  Exact for rational t; equals the PMF sum.
    """
    t = as_rational(t)
    n, k, r = params.n, params.k, params.r
    p, q, u, v = r.numerator, r.denominator, t.numerator, t.denominator
    a0, c, b = p * (u + v), q * u, q * v
    total = 0
    for m in range(k + 1):
        a = a0 + m * c
        total += (-1) ** (k - m) * math.comb(k, m) * math.prod(range(a, a + n * b, b))
    return Fraction(total, b ** n * math.factorial(n)) / gen_binomial(n + 2 * r - 1, n - k)


# -- exact prefix of the PMF for large n --------------------------------------

_CACHE_BUDGET_BYTES = 64 * 2**20  # head rows and first-kind prefixes together
_HEAD_COST_CAP = 120 * 10**9  # bound on the _kernel_cost of one PMF head
DEFAULT_ZS = (-0.5, 0.3, 1.0)  # mod-Poisson points of the default convergence study


class _ByteLRU:
    """Least-recently-used store whose entries' byte sizes sum to at most
    ``_CACHE_BUDGET_BYTES``.  The entry just stored is never evicted by its
    own insertion, so an entry larger than the whole budget is still served
    until the next one arrives."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, Tuple[object, int]]" = OrderedDict()
        self.nbytes = 0

    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: tuple, value, nbytes: int) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        self._entries[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > _CACHE_BUDGET_BYTES and len(self._entries) > 1:
            _, (_, size) = self._entries.popitem(last=False)
            self.nbytes -= size


class _HeadRow:
    """Integer PMF weights of one (n, k, r) over one integer denominator.

    With b and t the scaled first- and second-kind slices, the weight of j
    is w[j] = b[j] * t[j] and P[X = j] = w[j] / den, where den = q^n L(n,k)_r
    is the sum of all weights.  ``cum[i]`` is w[k] + ... + w[k+i]; the row
    only grows upward, so one row serves every window of its key.  It holds
    integers only, and ``nbytes`` counts each of them: every float a head
    reads (``pmf_float``, ``log_pmf``, the CDF floats) is one short true
    division on them, taken afresh.
    """

    __slots__ = ("k", "den", "cum", "nbytes")

    def __init__(self, k: int, den: int):
        self.k = k
        self.den = den
        self.cum: List[int] = []
        self.nbytes = sys.getsizeof(den)

    def weight(self, j: int) -> int:
        i = j - self.k
        return self.cum[i] - self.cum[i - 1] if i else self.cum[0]

    def weights(self, j_hi: int) -> List[int]:
        """w[k..j_hi], all over ``den``."""
        cum = self.cum[: j_hi - self.k + 1]
        return [cum[0]] + [b - a for a, b in zip(cum, cum[1:])]


class _Band(list):
    """A cached first-kind row, exact from column ``lo`` up and 0 below it."""

    def __init__(self, b: List[int], lo: int):
        super().__init__(b)
        self.lo = lo


_cache = _ByteLRU()
_cache_lock = threading.Lock()


def _kernel_cost(n: int, r: Fraction, band: int) -> int:
    """Predicted work of a cold run of ``band`` first-kind columns of row n:
    the cost model of every exact head, a function of sizes alone.

    The run is charged from row 0, whatever is cached, so an admission never
    depends on the cache.  Row i holds integers of about i * bits bits, bits
    the bit length of p + q*n, which bounds every factor p + q*i, and each
    band step multiplies one of them by a factor of ceil(bits / 30) machine
    digits: a 1000-bit factor makes every step 34 digits long.  So a run costs
    about band * n^2 * bits * ceil(bits / 30) / 2 units.  On one core of a
    2.1 GHz Intel Xeon a unit took 0.05 to 0.06 ns at n = 10^4 and 2 * 10^4
    (r = 1/2), 0.09 ns at n = 3000, where the interpreter's overhead per step
    still shows, and 0.02 ns for factors of several digits: the cap of
    1.2 * 10^11 units is 2 to 12 s of kernel.
    """
    bits = (r.numerator + r.denominator * n).bit_length()
    return band * ((n * n * bits * -(-bits // 30) + 1) // 2)  # at least 1 per column


def _prefix(n: int, r: Fraction, j_max: int, size: int = 0, lo: int = 0) -> List[int]:
    """Scaled first-kind row n on the columns [lo, j_max] (0 below its edge), shared by every k.

    A cached row m covers a width w = min(j_max, n) when it has more than w
    entries or is the full row (m + 1 entries), and its edge ``s.lo`` is at
    most max(0, lo - (n - m)).  Row n is computed only when its cached row
    does not cover the request, and then min(max(j_max, size), n) wide from
    column max(0, 2 * lo - n): at most twice the narrowest band, serving every
    later lo' >= 2 * lo - n.  That edge is 0 for lo <= n / 2, so heads at fixed
    k run the whole prefix.  The one caller with a ``size``, :func:`_window_head`,
    passes the default study's widest window, clamped here to the widest run
    whose :func:`_kernel_cost` is within ``_HEAD_COST_CAP``.  The kernel
    steps up from the largest cached row m < n of the same r that covers the
    run, multiplying in only the factors m..n-1, so rows of one r at nearby n
    share their work.  The distribution layer's one kernel caller; its one caller, :func:`_head_row`,
    holds ``_cache_lock``.
    """

    def covers(m: int, s: _Band, width: int, lo: int) -> bool:
        return (len(s) > width or len(s) == m + 1) and s.lo <= max(0, lo - (n - m))

    key = ("prefix", n, r)
    b = _cache.get(key)
    if b is None or not covers(n, b, min(j_max, n), lo):
        j_max = max(j_max, min(size, _HEAD_COST_CAP // _kernel_cost(n, r, 1) - 1))
        width, lo = min(j_max, n), max(0, 2 * lo - n)
        start = (0, (1,))
        for (kind, m, rr, *_), (s, _) in _cache._entries.items():  # a peek: LRU order stays
            if kind == "prefix" and rr == r and start[0] < m < n and covers(m, s, width, lo):
                start = (m, s)
        b = _Band(_first_kind_prefix_scaled(n, r, j_max, start, lo), lo)
        _cache.put(key, b, sum(map(sys.getsizeof, b)))
    return b


def _den(n: int, k: int, r: Fraction) -> int:
    """q^n L(n,k)_r, the integer sum of the weights, by the closed form (no row cap)."""
    return (r.denominator ** n * lah_r(n, k, r, n_max=n)).numerator


def _head_row(n: int, k: int, r: Fraction, j_hi: int, size: int = 0) -> _HeadRow:
    """The cached row of (n, k, r), grown to cover j_hi <= n; ``size`` as in :func:`_prefix`."""
    key = ("head", n, k, r)
    with _cache_lock:
        row = _cache.get(key)
        if row is None:
            row = _HeadRow(k, _den(n, k, r))
        top = k + len(row.cum) - 1
        if j_hi > top:
            b = _prefix(n, r, j_hi, size, k)
            t = _second_kind_column_scaled(k, r, j_hi)
            acc = row.cum[-1] if row.cum else 0
            for j in range(top + 1, j_hi + 1):
                acc += b[j] * t[j]
                row.cum.append(acc)
                row.nbytes += sys.getsizeof(acc)
            if j_hi == n and acc != row.den:
                raise AssertionError("PMF does not sum to 1: the head row is broken")
            _cache.put(key, row, row.nbytes)
        return row


def _log_ratio(w: int, den: int) -> float:
    """log(w / den) for 0 < w <= den, the log of the ratio rounded once to 53
    bits, with no gcd and no Fraction: ``math.log(w / den)`` where that float
    is normal (at least 2^-1022).  Below it, where the float loses bits, the
    ratio is rounded with its exponent e = den.bit_length() - w.bit_length()
    set aside: log(m) - e log 2, m = (w << e) / den in (1/2, 2), one short
    true division.  The one rule of ``log_pmf`` and ``log_pmfs``."""
    p = w / den
    if p >= sys.float_info.min:
        return math.log(p)
    e = den.bit_length() - w.bit_length()
    return math.log((w << e) / den) - e * math.log(2.0)


@dataclass(frozen=True)
class PmfHead:
    """Exact PMF on the support prefix {k, ..., j_hi}, a view of a cached row.

    ``mass(js)`` is the exact P[X in js] and ``head_cdf(j)`` the exact P[X <= j]
    for j <= j_hi, each one integer sum over ``den``; the complement gives exact
    upper tails without ever touching the (astronomical) right end of the row.
    The view holds no big integers: each read looks its (n, k, r) row up in
    the budgeted cache, regrowing it if it was evicted, so the budget bounds
    what heads keep alive.
    """

    params: AdmissibleTriple
    j_hi: int

    def _row(self) -> _HeadRow:
        p = self.params
        return _head_row(p.n, p.k, p.r, self.j_hi)

    def _in_head(self, j: int) -> bool:
        """False outside the support; raises beyond the computed head."""
        if j < self.params.k or j > self.params.n:
            return False
        if j > self.j_hi:
            raise InvalidParameter(f"j={j} beyond computed head j_hi={self.j_hi}")
        return True

    @property
    def den(self) -> int:
        """q^n L(n,k)_r, the one denominator of the law; reads no row."""
        return _den(self.params.n, self.params.k, self.params.r)

    def mass(self, js: Iterable[int]) -> Fraction:
        """Exact P[X in js]; each j as in ``pmf`` (0 off the support, raises past j_hi)."""
        js = [j for j in js if self._in_head(j)]
        if not js:
            return Fraction(0)
        row = self._row()
        return Fraction(sum(map(row.weight, js)), row.den)

    def pmf(self, j: int) -> Fraction:
        return self.mass((j,))

    def pmf_float(self, j: int) -> float:
        """float(pmf(j)): int true division is correctly rounded, as is the
        float of the reduced Fraction, so the two agree bit for bit."""
        if not self._in_head(j):
            return 0.0
        row = self._row()
        return row.weight(j) / row.den

    def pmf_floats(self) -> List[float]:
        """``pmf_float(j)`` for j = k..j_hi, read off one row lookup."""
        row = self._row()
        den = row.den
        return [w / den for w in row.weights(self.j_hi)]

    def log_pmf(self, j: int) -> float:
        """log P[X = j] by :func:`_log_ratio`; -inf off the support, and
        raises past j_hi as ``pmf`` does."""
        if not self._in_head(j):
            return -math.inf
        row = self._row()
        return _log_ratio(row.weight(j), row.den)

    def log_pmfs(self) -> List[float]:
        """``log_pmf(j)`` for j = k..j_hi, read off one row lookup."""
        row = self._row()
        den = row.den
        return [_log_ratio(w, den) for w in row.weights(self.j_hi)]

    def _weights(self) -> List[int]:
        """Integer weights w[k..j_hi], all over the same denominator."""
        return self._row().weights(self.j_hi)

    def head_cdf(self, j: int) -> Fraction:
        """Exact P[X <= j] for j <= j_hi (or any j when the head covers n)."""
        j = min(j, self.params.n)
        if not self._in_head(j):
            return Fraction(0)
        row = self._row()
        return Fraction(row.cum[j - self.params.k], row.den)

    def upper_tail(self, j: int) -> Fraction:
        """Exact P[X >= j], via 1 - P[X <= j-1]."""
        return 1 - self.head_cdf(j - 1)

    def _cdf_float(self, j: int, complement: bool = False) -> float:
        """float(head_cdf(j)), or float(upper_tail(j + 1)) with ``complement``,
        bit for bit and with no gcd: int true division of the unreduced pair
        is correctly rounded, as is the float of the reduced Fraction."""
        j = min(j, self.params.n)
        if not self._in_head(j):
            return float(complement)
        row = self._row()
        c = row.cum[j - self.params.k]
        return (row.den - c if complement else c) / row.den


class LahDistribution(PmfHead):
    """The whole r-Lah distribution: the PMF head whose window is the support.

    A view of the full-width head row of (n, k, r), j_hi = n, so that
    ``pmf``, ``cdf`` and the integer weights are read from the same cached
    row as every narrower head, over the one denominator
    ``den = q^n L(n,k)_r``.  ``den``, the normalizer, mean, variance and
    parity split are closed forms that read no row, the mode is
    ``mode_exact``'s window, and log-concavity compares integer weights.
    Like any head it holds no big integers, so the cache budget bounds
    whole distributions too.  Use :func:`build_distribution` to construct.
    """

    cdf = PmfHead.head_cdf  # the head covers n, so every j is answered

    @property
    def support(self) -> range:
        return range(self.params.k, self.params.n + 1)

    @property
    def normalizer(self) -> Fraction:
        """L(n,k)_r = den / q^n, by the closed form."""
        return lah_r(self.params.n, self.params.k, self.params.r, n_max=self.params.n)

    # -- moments -------------------------------------------------------------

    def expectation(self) -> Fraction:
        """E[X] by the closed form

            (k + [k(n+r) + r(n+1)] * [H_{n+2r-1} - H_{k+2r-1}]) / (n - (k-1)).
        """
        return expectation_exact(self.params.n, self.params.k, self.params.r)

    def variance(self) -> Fraction:
        """Var X = E[X(X-1)] + E[X] - E[X]^2 by two harmonic sums: with
        alpha = k+2r-1, x = 2r+n, h0 and s0 the sums of 1/(alpha+j) and
        1/(alpha+j)^2 over j = 1..n-k, h1 = h0 + 1/x, h2 = h1 + 1/(x+1), s1 and
        s2 likewise, c1 = kx/(n-k+1) and c2 = c1(k-1)(x+1)/(n-k+2), E[X] =
        r h0 + c1 h1 and E[X(X-1)] = r^2(h0^2-s0) + (2r+1)c1(h1^2-s1) + c2(h2^2-s2).
        At t = 1, ``pgf_eval``'s sum is the k-th difference of (2r+m)_n in m,
        whose i-th difference is (n)_i (2r+m+i)_{n-i}; each t-derivative brings
        down (r+m) d/dm, and (r+m)^2 has three nonzero differences at m = 0
        (r^2, 2r+1, 2), so the Leibniz rule for differences leaves three rising
        factorials from 2r+k, each differentiated twice into (H^2 - S) times it."""
        n, k, r = self.params.n, self.params.k, self.params.r
        h0, s0 = (_power_sum(k + 2 * r - 1, n - k, e) for e in (1, 2))
        x = 2 * r + n
        h1, s1 = h0 + 1 / x, s0 + 1 / x**2
        h2, s2 = h1 + 1 / (x + 1), s1 + 1 / (x + 1) ** 2
        c1 = k * x / (n - k + 1)
        c2 = c1 * (k - 1) * (x + 1) / (n - k + 2)
        mean = r * h0 + c1 * h1
        falling = r * r * (h0 * h0 - s0) + (2 * r + 1) * c1 * (h1 * h1 - s1) + c2 * (h2 * h2 - s2)
        return falling + mean - mean * mean

    # -- shape ---------------------------------------------------------------

    def parity_probabilities(self) -> Tuple[Fraction, Fraction]:
        """(P[X even], P[X odd]): (1/2, 1/2) whenever n > k, as the paper
        proves, and the point mass at k when n = k."""
        odd = Fraction(1, 2) if self.params.n > self.params.k else Fraction(self.params.k % 2)
        return 1 - odd, odd

    def mode(self) -> Set[int]:
        """All maximizers of the PMF; log-concavity makes them 1 or 2 adjacent ints."""
        return mode_exact(self.params.n, self.params.k, self.params.r)

    def certify_log_concavity(self) -> Tuple[bool, int | None]:
        """Check w[i]^2 >= w[i-1]*w[i+1] on the interior (the PMF scaled by
        den); returns (True, None) or (False, first violating index)."""
        w = self._weights()
        for i in range(1, len(w) - 1):
            if w[i] * w[i] < w[i - 1] * w[i + 1]:
                return False, i + self.params.k
        return True, None

    # -- export ---------------------------------------------------------------

    def to_rows(self, *, include_cdf: bool = False) -> List[dict]:
        """One row per j: P[X = j] (and P[X <= j]) reduced by one gcd each, and
        ``pmf_float`` as ``pmf_float`` computes it, with no Fraction built."""
        head = self._row()  # one lookup for the table, not one per read
        den = head.den
        rows = []
        for j, w, c in zip(self.support, head.weights(self.j_hi), head.cum):
            g = math.gcd(w, den)
            row = {"j": j, "pmf_num": w // g, "pmf_den": den // g, "pmf_float": w / den}
            if include_cdf:
                g = math.gcd(c, den)
                row["cdf_num"], row["cdf_den"] = c // g, den // g
            rows.append(row)
        return rows


def build_distribution(params: AdmissibleTriple, *, n_max: int | None = None) -> LahDistribution:
    """The exact r-Lah distribution, after the row cap check: a lazy view of
    the full head row of (n, k, r), the same cached row that ``pmf_head``
    windows grow, built on the first read that needs it."""
    check_n_max(params.n, n_max)
    return LahDistribution(params, params.n)


@lru_cache(maxsize=32)
def _pmf_head_cached(n: int, k: int, r: Fraction, j_hi: int) -> PmfHead:
    _head_row(n, k, r, j_hi)
    return PmfHead(AdmissibleTriple(n, k, r), j_hi)


def digamma(x: float) -> float:
    """Gamma'(x)/Gamma(x) for x > 0: recurrence shift to x >= 10, then the
    asymptotic series; absolute error below 1e-12 on the shifted range."""
    if x <= 0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = (
        math.log(x)
        - 0.5 / x
        - inv2
        * (
            1.0 / 12
            - inv2
            * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 * (1.0 / 240 - inv2 * (1.0 / 132 - inv2 * 691.0 / 32760))))
        )
    )
    return acc + series


def _head_window(n: int, k: int, r: RationalLike, z: float = 0.0) -> int:
    """End j_hi of the certified window for e^{zX} weights (a z below 0
    takes the window of z = 0): past the tilted mass, clamped to n.

    Tilted by e^{zj}, the first-kind factor c(n,j)_r of the weights is the
    law of n independent steps of means x / (x + r + i), x = (k+r) e^z, and
    the mass sits near their mean mu_z = x (psi(n + x + r) - psi(x + r)).
    That is the mod-Poisson centre e^z (lambda_n - (k+r) psi(x + r)),
    lambda_n = (k+r) log n, with log n refined to psi(n + x + r), which keeps
    mu_z near n where x nears n and the tilt no longer holds.  The window
    ends where a Poisson law at max(mu_z, k, 1) falls 48 nats below its top,
    which the tests find at least two terms past the last one within 40 nats
    of the top, the last that can change a mod-Poisson sum.
    """
    r = AdmissibleTriple(n, k, r).r  # before the logs, which a negative k + r breaks
    try:
        x = (k + float(r)) * math.exp(max(z, 0.0))
        a = x + float(r)
        # psi(n + a) - psi(a) is a sum of n terms 1 / (a + i) > 1 / (n + a): the
        # bound holds it up where a >> n and the two floats cancel
        mean = x * max(digamma(n + a) - digamma(a), n / (n + a)) if a else 0.0
    except OverflowError:
        return n
    if not mean < n:  # past n, or past binary64
        return n
    center = max(mean, k, 1.0)
    top, log_center = math.floor(center), math.log(center)
    lo, hi = top, n  # bisect for the first j whose Poisson drop from the top reaches 48 nats, else n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.lgamma(mid + 1) - math.lgamma(top + 1) - (mid - top) * log_center < 48.0:
            lo = mid
        else:
            hi = mid
    return hi


def pmf_head(n: int, k: int, r: RationalLike, j_hi: int) -> PmfHead:
    """Exact PMF prefix on {k, ..., j_hi}; j_hi is clamped to n.

    Unlike :func:`build_distribution` this takes no row cap: its work is the
    first-kind run of :func:`_kernel_cost`, and a head whose run costs more
    than ``_HEAD_COST_CAP`` raises CapacityExceeded before any kernel runs.
    Windows of one (n, k, r) share one row, every k at one (n, r) one prefix,
    run exactly as wide as asked: a caller that widens a head should double
    its requests.
    """
    r = as_rational(r)
    params = AdmissibleTriple(n, k, r)  # validate eagerly
    return _pmf_head_cached(params.n, params.k, params.r, _admit_head(n, k, params.r, j_hi))


def _admit_head(n: int, k: int, r: Fraction, j_hi: int) -> int:
    """The window end j_hi clamped to n, once it covers k and the run it
    needs, the columns [max(0, 2k - n), j_hi] of row n, has a
    :func:`_kernel_cost` within ``_HEAD_COST_CAP``: the admission rule of
    every exact head."""
    j_hi = min(j_hi, n)
    if j_hi < k:
        raise InvalidParameter(f"j_hi={j_hi} is below the support start k={k}")
    if _kernel_cost(n, r, min(j_hi + 1, n - max(0, 2 * k - n) + 1)) > _HEAD_COST_CAP:
        raise CapacityExceeded(
            f"exact head window {j_hi} x n={n} exceeds the work cap; reduce n, z or the denominator of r"
        )
    return j_hi


def _window_end(n: int, k: int, r: Fraction, z: float = 0.0, reach: int = 0) -> int:
    """The admitted end of a limit statistic's first head: the window of
    e^{zX} weights, widened to cover min(reach, n)."""
    return _admit_head(n, k, r, max(_head_window(n, k, r, z), reach))  # validates (n, k, r) first


def _window_head(n: int, k: int, r: Fraction, z: float = 0.0, reach: int = 0) -> PmfHead:
    """``pmf_head`` on :func:`_window_end`, the first head of every limit
    statistic, admitted (its cost tested) before any kernel run.  A run it
    starts is at least as wide as the window at z = max(DEFAULT_ZS), a floor
    :func:`_prefix` clamps to the cap: a default study runs it once."""
    j_hi = _window_end(n, k, r, z, reach)
    _head_row(n, k, r, j_hi, _head_window(n, k, r, max(DEFAULT_ZS)))
    return pmf_head(n, k, r, j_hi)


def mode_exact(n: int, k: int, r: RationalLike) -> Set[int]:
    """Exact argmax set of the PMF, computed on a certified prefix.

    The head starts at :func:`_window_head` and grows until the (strictly
    log-concave) weights decrease at its right edge, which certifies that no
    maximizer lies beyond it.  The weights share one denominator, so they
    are compared as integers.
    """
    head = _window_head(n, k, as_rational(r))
    while True:
        w = head._weights()
        if head.j_hi >= n or (len(w) >= 2 and w[-1] < w[-2]):
            break
        head = pmf_head(n, k, r, min(n, 2 * head.j_hi))
    best = max(w)
    return {j + k for j, v in enumerate(w) if v == best}
