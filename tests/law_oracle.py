"""Independent routes to quantities of the r-Lah law, used only by the tests.

rlah computes each quantity one way; the functions here compute it another
way, so the tests can hold the two together:

- the harmonic difference and the sum of squares 1/(alpha+j)^2 as running
  Fraction sums, one reduction per term, against the binary splitting of
  :mod:`rlah.stirling`;
- r-Stirling numbers by the polynomial-in-r formula over ordinary Stirling
  numbers, which come from the shared recurrence triangles (``table_for``),
  against :func:`rlah.stirling.stirling_r`'s integer slices;
- E[X] by the second closed form (split into its k-part and r-part) and by
  the PMF sum, against :meth:`rlah.distribution.LahDistribution.expectation`;
- Var X and the parity split (P[X even], P[X odd]) as PMF sums, against
  the closed forms of :meth:`rlah.distribution.LahDistribution.variance`
  and :meth:`~rlah.distribution.LahDistribution.parity_probabilities`;
- the generating function as the PMF sum, against
  :func:`rlah.distribution.pgf_eval`'s alternating sum;
- the face-ratio complement 2 P[Lah(n,k)_{1/2} in {d+1, d+3, ...}] summed
  over the whole distribution, against :func:`rlah.cones.face_ratio`'s head
  sum over {d-1, d-3, ...};
- E[f_k] by the alternating r-Stirling sum, against
  :func:`rlah.cones.expected_face_count`, which is binom(n,k) times the head
  sum;
- the mod-Poisson residual through the exact pgf, through a binary64
  log-space PMF row, through an mpmath sum over the exact PMF at 40 digits,
  and through the same certified head sum with each term's log taken from
  ``float(Fraction)``, against :func:`rlah.asymptotics.mod_poisson_residual`,
  whose terms are ``log_pmf``: the log of each P rounded once, read off the
  unreduced integer pair.

The log-space row rolls the r-Stirling slices through log-sum-exp and costs
O(n^2) flops; the Fraction sums cost a full row each.  Neither is used
outside the tests.
"""

from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction
from typing import Dict, Tuple

import mpmath
import numpy as np

from rlah.asymptotics import lambda_n
from rlah.cones import ConeFaceQuery
from rlah.distribution import (
    AdmissibleTriple,
    LahDistribution,
    build_distribution,
    pgf_eval,
    pmf_head,
)
from rlah.errors import CapacityExceeded, InvalidParameter
from rlah.rational import RationalLike, as_rational
from rlah.stirling import (
    RStirlingTable,
    StirlingKind,
    _check_r,
    _first_kind_prefix_scaled,
    check_n_max,
    harmonic_diff,
    stirling_r,
)

DEFAULT_N_MAX_FLOAT = 20_000
_PGF_METHOD_N_CAP = 512
_HALF = Fraction(1, 2)


# -- harmonic differences ---------------------------------------------------------

def harmonic_diff_by_terms(alpha: RationalLike, m: int) -> Fraction:
    """Sum of 1/(alpha+j) for j=1..m, one Fraction term at a time."""
    alpha = as_rational(alpha)
    return sum((Fraction(1) / (alpha + j) for j in range(1, m + 1)), Fraction(0))


def harmonic_squares_by_terms(alpha: RationalLike, m: int) -> Fraction:
    """Sum of 1/(alpha+j)^2 for j=1..m, one Fraction term at a time."""
    alpha = as_rational(alpha)
    return sum((Fraction(1) / (alpha + j) ** 2 for j in range(1, m + 1)), Fraction(0))


# -- r-Stirling numbers -----------------------------------------------------------

_registry: Dict[Tuple[StirlingKind, Fraction], RStirlingTable] = {}
_registry_lock = threading.Lock()


def table_for(kind: StirlingKind, r: RationalLike) -> RStirlingTable:
    """Shared recurrence triangle for (kind, canonical r); created on first use."""
    key = (kind, _check_r(as_rational(r)))
    table = _registry.get(key)
    if table is None:
        with _registry_lock:
            table = _registry.setdefault(key, RStirlingTable(*key))
    return table


def stirling_r_poly(kind: StirlingKind, n: int, k: int, r: RationalLike) -> Fraction:
    """r-Stirling number via the polynomial-in-r formula over ordinary Stirling numbers.

    first kind:  sum_j c(n,j) * C(j,k) * r^(j-k)
    second kind: sum_j C(n,j) * S(j,k) * r^(n-j)

    The ordinary Stirling numbers come from the r = 0 recurrence triangle.
    """
    r = _check_r(as_rational(r))
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    plain = table_for(kind, Fraction(0))
    if kind is StirlingKind.FIRST:
        return sum(
            (plain.value(n, j) * math.comb(j, k) * r ** (j - k) for j in range(k, n + 1)),
            Fraction(0),
        )
    return sum(
        (math.comb(n, j) * plain.value(j, k) * r ** (n - j) for j in range(k, n + 1)),
        Fraction(0),
    )


# -- expectation and generating function -----------------------------------------

def expectation_alt(n: int, k: int, r: RationalLike) -> Fraction:
    """E[X] by the other closed form, split into the k-part and the r-part."""
    r = as_rational(r)
    h_top = harmonic_diff(k + 2 * r - 1, n - k + 1)  # H_{n+2r}   - H_{k+2r-1}
    h_low = harmonic_diff(k + 2 * r - 1, n - k)      # H_{n+2r-1} - H_{k+2r-1}
    return Fraction(k) * (n + 2 * r) / (n - (k - 1)) * h_top + r * h_low


def mean_via_pmf(dist: LahDistribution) -> Fraction:
    """E[X] as sum_j j w[j] / den over the integer weights."""
    return Fraction(sum(j * w for j, w in zip(dist.support, dist._weights())), dist.den)


def variance_via_pmf(dist: LahDistribution) -> Fraction:
    """Var X as (den * sum_j j^2 w[j] - (sum_j j w[j])^2) / den^2."""
    first = second = 0
    for j, w in zip(dist.support, dist._weights()):
        first += j * w
        second += j * j * w
    den = dist.den
    return Fraction(den * second - first * first, den * den)


def parity_via_pmf(dist: LahDistribution) -> Tuple[Fraction, Fraction]:
    """(P[X even], P[X odd]) as the sum of every other weight over den."""
    even = Fraction(sum(dist._weights()[dist.params.k % 2:: 2]), dist.den)
    return even, 1 - even


def pgf_via_pmf(dist: LahDistribution, t: RationalLike) -> Fraction:
    """E[t^X] summed directly over the PMF.

    With t = a/b this is sum_j w[j] a^j b^(n-j) / (den b^n), one integer sum.
    """
    t = as_rational(t)
    a, b, n = t.numerator, t.denominator, dist.params.n
    total = sum(w * a ** j * b ** (n - j) for j, w in zip(dist.support, dist._weights()))
    return Fraction(total, dist.den * b ** n)


# -- face ratio ---------------------------------------------------------------------

def face_ratio_complement(q: ConeFaceQuery, *, n_max: int | None = None) -> Fraction:
    """1 - E[f_k]/binom(n,k) as 2 P[Lah(n,k)_{1/2} in {d+1, d+3, ...}].

    Valid for n > k, where the distribution splits evenly between parities.
    """
    if q.n <= q.k:
        raise InvalidParameter(f"complement identity needs n > k, got n={q.n}, k={q.k}")
    dist = build_distribution(AdmissibleTriple(q.n, q.k, _HALF), n_max=n_max)
    total = Fraction(0)
    j = q.d + 1
    while j <= q.n:
        total += dist.pmf(j)
        j += 2
    return 2 * total


def alternating_stirling_sum(n: int, d: int, k: int, *, n_max: int | None = None) -> Fraction:
    """sum_{l>=0} c(n, d-2l-1)_{1/2} * S(d-2l-1, k)_{1/2}; finite by construction.

    Only the first d columns of row n enter, so they are read from one
    kernel run of the scaled first-kind prefix from row 0, outside the PMF
    heads' cache that steps rows up from one another:
    c(n, j)_{1/2} = b[j] / 2^(n-j).
    """
    check_n_max(n, n_max)
    if d - 1 < k:
        return Fraction(0)  # no term; d = 0 would ask for an empty prefix
    b = _first_kind_prefix_scaled(n, _HALF, d - 1)
    total = Fraction(0)
    for j in range(d - 1, k - 1, -2):
        total += Fraction(b[j], 2 ** (n - j)) * stirling_r(StirlingKind.SECOND, j, k, _HALF, n_max=n_max)
    return total


def expected_face_count_alt(q: ConeFaceQuery, *, n_max: int | None = None) -> Fraction:
    """E[f_k] = (2 k!/n!) * the alternating Stirling sum."""
    return 2 * math.factorial(q.k) * alternating_stirling_sum(q.n, q.d, q.k, n_max=n_max) / math.factorial(q.n)


# -- binary64 log-space PMF row -------------------------------------------------------

def log_first_kind_row(n: int, r: float) -> np.ndarray:
    """log c(n, j)_r for j = 0..n (-inf for 0), rolled forward row by row
    through log-sum-exp without storing the triangle."""
    fir = np.full(n + 1, -math.inf)
    fir[0] = 0.0
    buf = np.empty(n + 1)
    for m in range(1, n + 1):
        coeff = math.log(m + r - 1) if m + r - 1 > 0 else -math.inf
        np.add(fir[: m], coeff, out=buf[: m])
        buf[1: m] = np.logaddexp(buf[1: m], fir[: m - 1])
        buf[m] = fir[m - 1]
        fir[: m + 1] = buf[: m + 1]
    return fir


def log_second_kind_column(k: int, r: float, n: int) -> np.ndarray:
    """log S(j, k)_r for j = 0..n (-inf for 0), one column by its linear
    recurrence; S(j,0)_r = r^j with S(0,0) = 1 for every r."""
    col = np.full(n + 1, -math.inf)
    col[0] = 0.0
    if r > 0:
        col[1:] = np.arange(1, n + 1) * math.log(r)
    for kk in range(1, k + 1):
        prev, col = col, np.full(n + 1, -math.inf)
        lc = math.log(kk + r)
        for j in range(1, n + 1):
            col[j] = np.logaddexp(col[j - 1] + lc, prev[j - 1])
    return col


def log_pmf_row(n: int, k: int, r: float, *, n_max: int = DEFAULT_N_MAX_FLOAT) -> np.ndarray:
    """log P[X = j] for j = 0..n in binary64, O(n^2) flops and O(n) memory.

    The products of the log-space first-kind row and second-kind column are
    normalized by their log-sum-exp, so the float PMF sums to 1.
    """
    if n > n_max:
        raise CapacityExceeded(f"n={n} exceeds n_max_float={n_max}")
    if n < 1 or not 0 <= k <= n:
        raise InvalidParameter(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    if r < 0 or (k == 0 and r == 0):
        raise InvalidParameter("need r >= 0 and max(k, r) > 0")
    r = float(r)
    out = log_first_kind_row(n, r) + log_second_kind_column(k, r, n)
    finite = out[np.isfinite(out)]
    top = finite.max()
    out -= top + math.log(np.exp(finite - top).sum())
    return out


# -- mod-Poisson residual -------------------------------------------------------------

def log_fraction(v: Fraction) -> float:
    """log v as log(numerator) - log(denominator); -inf for 0."""
    if v == 0:
        return -math.inf
    return math.log(v.numerator) - math.log(v.denominator)


def log_rounded(p: Fraction) -> float:
    """log float(p), the log of p rounded once by the Fraction's own
    division; -inf for 0.  Raises below 2^-1022, where the float loses bits."""
    if p == 0:
        return -math.inf
    f = float(p)
    if f < sys.float_info.min:
        raise ValueError(f"{f!r} is below the normal range of binary64")
    return math.log(f)


def _scale(n: int, k: int, r: Fraction, z: float) -> float:
    return lambda_n(n, k, float(r)) * (math.exp(z) - 1.0)


def residual_via_pgf(n: int, k: int, r: RationalLike, z: float) -> float:
    """E[e^{z X}] / e^{lambda_n (e^z - 1)} from the exact pgf at e^z rounded
    once to its 53-bit dyadic; exact-rational in n, so small n only."""
    r = as_rational(r)
    if n > _PGF_METHOD_N_CAP:
        raise CapacityExceeded(f"pgf route is exact-rational in n={n}; capped at {_PGF_METHOD_N_CAP}")
    t = Fraction(math.exp(z))  # nearest 53-bit dyadic; error propagates linearly
    value = pgf_eval(AdmissibleTriple(n, k, r), t)
    return math.exp(log_fraction(value) - _scale(n, k, r, z))


def residual_via_logspace(n: int, k: int, r: RationalLike, z: float) -> float:
    """The same residual summed over the binary64 log-space PMF row."""
    r = as_rational(r)
    row = log_pmf_row(n, k, float(r))
    terms = row + z * np.arange(n + 1, dtype=float)
    finite = terms[np.isfinite(terms)]
    top = finite.max()
    log_sum = top + math.log(np.exp(finite - top).sum())
    return math.exp(log_sum - _scale(n, k, r, z))


def residual_via_mpmath(n: int, k: int, r: RationalLike, z: float, dps: int = 40) -> float:
    """The residual in mpmath at ``dps`` digits, rounded once: e^{zj} P[X = j]
    summed over the exact PMF Fractions from j = k until the terms, past
    their peak (they are log-concave in j), fall below 10^-dps of the sum,
    over e^{lambda_n (e^z - 1)} with lambda_n and e^z taken in mpmath."""
    r = as_rational(r)
    with mpmath.workdps(dps):
        ez, eps = mpmath.exp(z), mpmath.mpf(10) ** -dps
        total = prev = mpmath.mpf(0)
        head = pmf_head(n, k, r, k)
        for j in range(k, n + 1):
            if j > head.j_hi:
                head = pmf_head(n, k, r, 2 * head.j_hi + 32)
            p = head.pmf(j)
            term = mpmath.mpf(p.numerator) / p.denominator * ez**j
            total += term
            if term < prev and term < eps * total:
                break
            prev = term
        lam = (k + mpmath.mpf(r.numerator) / r.denominator) * mpmath.log(n)
        return float(total / mpmath.exp(lam * (ez - 1)))


def residual_all_exact(n: int, k: int, r: RationalLike, z: float, j_hi: int) -> float:
    """The residual summed as :func:`rlah.asymptotics.mod_poisson_residual`
    sums it, from the first window {k, ..., j_hi}, with every term from the
    Fraction route: z j + :func:`log_rounded` of P[X = j] for each j of the
    window.  The window doubles until the same geometric tail certificate
    holds (or it covers n)."""
    r = as_rational(r)
    j_hi = min(j_hi, n)
    while True:
        head = pmf_head(n, k, r, j_hi)
        terms = [z * j + log_rounded(head.pmf(j)) for j in range(k, j_hi + 1)]
        top = max(terms)
        log_sum = top + math.log(sum(math.exp(t - top) for t in terms))
        if j_hi >= n:
            break
        u_last, u_prev = terms[-1], terms[-2]
        if u_last < u_prev:
            ratio = math.exp(u_last - u_prev)
            if ratio == 0.0 or u_last + math.log(ratio / (1.0 - ratio)) < log_sum - 27.7:
                break
        j_hi = min(n, 2 * j_hi)
    return math.exp(log_sum - _scale(n, k, r, z))
