"""Face counts of the random-walk cone and unique-recovery probabilities.

Everything here is a finite exact-rational sum over r-Stirling numbers with
r = 1/2, read from the scaled integer slices that the PMF rows share.  The
expected number of k-dimensional faces of the cone spanned by the partial
sums of an n-step walk in R^d is

    E[f_k] = (2 k!/n!) * sum_l c(n, d-2l-1)_{1/2} * S(d-2l-1, k)_{1/2},

a finite sum (terms vanish once d-2l-1 < k).  Dividing by binom(n, k) turns
it into twice the probability that a Lah(n,k)_{1/2} variable lands in
{d-1, d-3, ...}; since that variable is even or odd with probability 1/2
each (for n > k), the complement identity

    1 - E[f_k]/binom(n,k) = 2 P[Lah(n,k)_{1/2} in {d+1, d+3, ...}]

holds exactly.  That probability is one integer parity sum on the exact
PMF head (``PmfHead.mass``), so it is the one route: E[f_k] is binom(n,k)
times it, and the alternating Stirling sum above is the tests' oracle.  The
same ratio is the probability of uniquely recovering a random k-jump
monotone signal from d Gaussian measurements, which is what the threshold
classifiers in this module are about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .asymptotics import normal_cdf
from .distribution import (
    build_distribution,  # unused here, but rlahbench/tracing.py wraps rlah.cones.build_distribution
    pmf_head,
)
from .errors import DomainError, InvalidParameter
from .rational import as_rational
from .stirling import (
    check_n_max,
    effective_n_max,
    first_kind_prefix,  # unused here, but rlahbench/tracing.py wraps rlah.cones.first_kind_prefix
    stirling_r,  # unused here, but rlahbench/tracing.py wraps rlah.cones.stirling_r
)

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ConeFaceQuery:
    """Face-count query: ambient dimension d, walk length n >= d, face dim k <= d-1."""

    d: int
    n: int
    k: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidParameter(f"d must be >= 1, got {self.d}")
        if self.n < self.d:
            raise InvalidParameter(f"n must be >= d, got n={self.n}, d={self.d}")
        if not 0 <= self.k <= self.d - 1:
            raise InvalidParameter(f"k must lie in [0, d-1], got k={self.k}, d={self.d}")


def expected_face_count(q: ConeFaceQuery, *, n_max: int | None = None) -> Fraction:
    """Exact E[f_k(C_n^B)] = binom(n,k) * face ratio."""
    return math.comb(q.n, q.k) * face_ratio(q, n_max=n_max)


def face_ratio(q: ConeFaceQuery, *, n_max: int | None = None) -> Fraction:
    """E[f_k]/binom(n,k) as 2 P[Lah(n,k)_{1/2} in {d-1, d-3, ...}], exact.

    One integer parity sum on the exact PMF head up to d-1: O(d * n) work.
    """
    check_n_max(q.n, n_max)
    return 2 * pmf_head(q.n, q.k, _HALF, q.d - 1).mass(range(q.d - 1, q.k - 1, -2))


@dataclass(frozen=True)
class WeakThresholdResult:
    """Limit classification of E[f_k]/binom(n,k) along n(d) = e^(gamma d) scales."""

    regime: str  # "subcritical" | "supercritical" | "critical"
    limit: Optional[float]
    boundary: Fraction  # the threshold 1/(k + 1/2)


def weak_threshold(k: int, gamma, c: float | None = None) -> WeakThresholdResult:
    """Classify the face-ratio limit for log(n(d))/d -> gamma.

    Below 1/(k+1/2) the ratio tends to 1, above it to 0.  At the boundary
    the limit is Phi(-c) for the second-order constant c of the scaling
    log n(d) = (d + c sqrt(d) + o(sqrt(d)))/(k+1/2); pass ``c`` to obtain it.
    ``gamma`` may be math.inf, or anything :func:`as_rational` accepts (the
    boundary comparison is then exact).  A NaN ``c`` raises DomainError
    whatever the regime; c = +-inf gives the limits 0 and 1.
    """
    if k < 0:
        raise InvalidParameter(f"k must be >= 0, got {k}")
    if c is not None and math.isnan(c):
        raise DomainError("c must be a number, got nan")
    boundary = Fraction(2, 2 * k + 1)
    if isinstance(gamma, float) and math.isinf(gamma) and gamma > 0:
        return WeakThresholdResult("supercritical", 0.0, boundary)
    g = as_rational(gamma)
    if g < 0:
        raise InvalidParameter(f"gamma must be >= 0, got {g}")
    if g < boundary:
        return WeakThresholdResult("subcritical", 1.0, boundary)
    if g > boundary:
        return WeakThresholdResult("supercritical", 0.0, boundary)
    limit = None if c is None else normal_cdf(-c)
    return WeakThresholdResult("critical", limit, boundary)


@dataclass(frozen=True)
class StrongThresholdResult:
    """Neighbourliness check: does the O(n^-1/2) envelope regime apply, and
    what do the exact finite-n bounds say."""

    applies: bool
    envelope: float  # 2 / sqrt(n)
    exact_defect_bound: Optional[Fraction]  # 2 binom(n,k) P[Lah in {d+1, d+3, ...}]
    exact_tail_bound: Optional[Fraction]  # 2 n^k P[Lah >= d]


def strong_threshold_check(k: int, d: int, n: int, *, n_max: int | None = None) -> StrongThresholdResult:
    """Check the k-neighbourliness regime n <= e^(d/((k+1/2) e)).

    ``applies`` reports whether that growth condition holds, in which case
    P[f_k != binom(n,k)] is O(n^-1/2) with explicit envelope 2/sqrt(n).  For
    k < n within the row cap, the finite-n quantities from the proof chain
    are returned as exact rationals; otherwise they are None.  n < d is allowed
    (every such cone is simplicial, so the defect probability is 0).
    """
    if k < 0 or d < 1 or n < 1:
        raise InvalidParameter(f"need k >= 0, d >= 1, n >= 1; got k={k}, d={d}, n={n}")
    applies = (k + 0.5) * math.e * math.log(n) <= d
    envelope = 2.0 / math.sqrt(n)
    defect = tail = None
    if n > k and n <= effective_n_max(n_max):
        if d <= k:
            tail = 2 * Fraction(n) ** k  # support starts at k >= d: tail mass is 1
        else:
            head = pmf_head(n, k, _HALF, min(d - 1, n))
            tail = 2 * Fraction(n) ** k * head.upper_tail(d)
        if k <= d - 1 <= n - 1:
            # 1 - ratio = 2 P[Lah in {d+1, d+3, ...}], as the parities split evenly for n > k
            defect = math.comb(n, k) * (1 - face_ratio(ConeFaceQuery(d, n, k), n_max=n_max))
    return StrongThresholdResult(applies, envelope, defect, tail)


def recovery_probability(d: int, n: int, k: int, *, n_max: int | None = None) -> Fraction:
    """Exact P[unique recovery of a random k-jump monotone signal from d
    Gaussian measurements of an n-vector].

    Equals the face ratio E[f_k]/binom(n,k) for k <= d-1: G maps the
    monotone chamber's generators 1_[1..i] to a Gaussian random walk, and the
    signal is recovered uniquely iff its jump set spans a k-face of that
    walk's cone.  At the boundary k = d the alternating sum has no terms
    (d - 2l - 1 < k), so this returns the formula's 0; callers surfacing it
    should flag the boundary (the CLI does).  That is the event's probability
    only for n > d: at n = d, G is square and invertible and recovery is sure.
    """
    if not 0 <= k <= d <= n:
        raise InvalidParameter(f"need 0 <= k <= d <= n, got k={k}, d={d}, n={n}")
    if k <= d - 1:
        return face_ratio(ConeFaceQuery(d, n, k), n_max=n_max)
    check_n_max(n, n_max)
    return Fraction(0)
