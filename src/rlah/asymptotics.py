"""Limit-theorem approximants, and the statistics that compare them with
the exact distribution.

The approximants are asymptotic predictions for the r-Lah distribution
with k, r fixed and n large: the Poisson-scale parameter
lambda_n = (k+r) log n, the mod-Poisson limit

    Psi(z) = Gamma(k+2r) / Gamma((k+r) e^z + r),

the Gaussian central/local approximants, the two-candidate mode prediction,
and the precise large-deviation formulas for the point mass and both tails.
They live in binary64.

Convergence statistics (Kolmogorov distance, local-limit sup gap,
mod-Poisson residual, tail ratios) compare those predictions against the
*exact* distribution.  For large n the exact side is evaluated on a
certified prefix of the support (see :func:`rlah.distribution.pmf_head`):
the distributions concentrate around lambda_n ~ log n, so a window of a
hundred-odd support points carries all mass that matters, and exact upper
tails come from complementing the head CDF.  The window rule and its work
bound live in :mod:`rlah.distribution`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .distribution import AdmissibleTriple, _head_window, mode_exact, pmf_head
from .errors import DomainError, InvalidParameter
from .rational import RationalLike, as_rational


# -- real special functions ---------------------------------------------------

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


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; Phi(0) = 1/2 exactly."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# -- approximants --------------------------------------------------------------

def lambda_n(n: int, k: int, r: float) -> float:
    """Poisson-scale parameter (k+r) log n."""
    if n < 2:
        raise InvalidParameter(f"n must be >= 2 for the asymptotic scale, got {n}")
    return (k + float(r)) * math.log(n)


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0.

    Taken from math.gamma where both values are finite.  Where one of them
    overflows (a large argument, or a tiny one near the pole at 0) the ratio
    is exp(lgamma(a) - lgamma(b)) instead.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"Gamma ratio needs positive arguments, got {a} and {b}")
    try:
        return math.gamma(a) / math.gamma(b)
    except OverflowError:
        pass
    try:
        return math.exp(math.lgamma(a) - math.lgamma(b))
    except OverflowError:
        raise DomainError(f"Gamma({a})/Gamma({b}) overflows binary64") from None


def psi_limit(k: int, r: float, z: float) -> float:
    """Mod-Poisson limit Gamma(k+2r)/Gamma((k+r) e^z + r); Psi(0) = 1 exactly.

    A z whose (k+r) e^z + r is not finite in binary64 raises DomainError.
    """
    kr = k + float(r)

    def arg(u: float) -> float:
        try:
            value = kr * math.exp(u) + float(r)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"Psi({u}) needs (k+r) e^z + r finite in binary64")
        return value

    return _gamma_ratio(arg(0.0), arg(z))


def expectation_asymptotic(
    n: int,
    r: float,
    *,
    k: int | None = None,
    alpha: float | None = None,
    linear: bool = False,
) -> float:
    """Leading-order E[Lah(n,k)_r] in the three growth regimes of k(n).

    Exactly one of ``k`` (sublinear regime, evaluated as (k+r) log(n/k)),
    ``alpha`` (k ~ alpha*n, giving n*alpha*log(1/alpha)/(1-alpha)) or
    ``linear`` (k ~ n, giving n) must be selected.
    """
    if n < 2:
        raise InvalidParameter(f"n must be >= 2, got {n}")
    chosen = sum((k is not None, alpha is not None, bool(linear)))
    if chosen != 1:
        raise InvalidParameter("select exactly one regime: k=, alpha= or linear=True")
    if linear:
        return float(n)
    if alpha is not None:
        if not 0 < alpha < 1:
            raise InvalidParameter(f"alpha must lie in (0, 1), got {alpha}")
        return n * alpha * math.log(1.0 / alpha) / (1.0 - alpha)
    if k < 1:
        raise InvalidParameter(f"fixed-k regime needs k >= 1, got {k}")
    return (k + float(r)) * math.log(n / k)


def clt_normalize(x: float, n: int, k: int, r: float) -> float:
    """Standardize: (x - lambda_n) / sqrt(lambda_n)."""
    lam = lambda_n(n, k, r)
    return (x - lam) / math.sqrt(lam)


def llt_gaussian_pmf(j: float, n: int, k: int, r: float) -> float:
    """Gaussian local approximant exp(-(j-lam)^2/(2 lam)) / sqrt(2 pi lam)."""
    lam = lambda_n(n, k, r)
    return math.exp(-((j - lam) ** 2) / (2.0 * lam)) / math.sqrt(2.0 * math.pi * lam)


def mode_prediction(n: int, k: int, r: float) -> Tuple[int, int]:
    """Floor/ceil candidate pair around (k+r) log n - (k+r) psi(k+2r) - 1/2."""
    if k + 2 * float(r) <= 0:
        raise DomainError(f"mode prediction needs k + 2r > 0, got k={k}, r={r}")
    v = lambda_n(n, k, r) - (k + float(r)) * digamma(k + 2 * float(r)) - 0.5
    return math.floor(v), math.ceil(v)


def ldp_lattice_point(n: int, k: int, r: float, x: float) -> Tuple[int, float]:
    """The integer j nearest (k+r) x log n, and x_n = j / ((k+r) log n).

    Recomputing x_n from j makes (k+r) x_n log n an integer by construction,
    which is the lattice condition the large-deviation formulas assume.
    """
    if not x > 0:  # also refuses a NaN x
        raise DomainError(f"x must be > 0, got {x}")
    lam = lambda_n(n, k, r)
    if x * lam == math.inf:
        raise DomainError(f"x={x} puts the lattice point past binary64")
    j = round(x * lam)
    if j < 1:
        raise DomainError(f"x={x} is too small: nearest lattice point is j={j}")
    return j, j / lam


def _ldp_common(n: int, k: int, r: float, x: float) -> float:
    j, x_n = ldp_lattice_point(n, k, r, x)
    kr = k + float(r)
    exponent = -kr * (x_n * math.log(x_n) - x_n + 1.0) * math.log(n)
    gamma_ratio = _gamma_ratio(k + 2 * float(r), kr * x + float(r))
    return math.exp(exponent) / math.sqrt(2.0 * math.pi * kr * x * math.log(n)) * gamma_ratio


def ldp_point(n: int, k: int, r: float, x: float) -> float:
    """Asymptotic P[X = (k+r) x_n log n] for x_n -> x > 0."""
    return _ldp_common(n, k, r, x)


def ldp_upper_tail(n: int, k: int, r: float, x: float) -> float:
    """Asymptotic P[X >= (k+r) x_n log n]; only valid for x > 1."""
    if x <= 1:
        raise DomainError(f"upper tail requires x > 1, got {x}")
    return _ldp_common(n, k, r, x) * x / (x - 1.0)


def ldp_lower_tail(n: int, k: int, r: float, x: float) -> float:
    """Asymptotic P[X <= (k+r) x_n log n]; only valid for 0 < x < 1."""
    if not 0 < x < 1:
        raise DomainError(f"lower tail requires 0 < x < 1, got {x}")
    return _ldp_common(n, k, r, x) / (1.0 - x)


# -- exact-window convergence statistics ---------------------------------------

def kolmogorov_distance(
    n: int, k: int, r: RationalLike, *, continuity_correction: bool = True
) -> float:
    """Kolmogorov distance between the standardized exact CDF and N(0, 1).

    With ``continuity_correction`` (default) the lattice CDF at j is compared
    against Phi at the standardized half-integer j + 1/2, the usual
    convention when a lattice law is measured against a continuous limit.
    Without it, the raw two-sided sup over the step function is returned
    (left limits included), which is larger by roughly half the mode mass.
    """
    r = as_rational(r)
    head = pmf_head(n, k, r, _head_window(n, k, r))
    shift = 0.5 if continuity_correction else 0.0
    best = 0.0
    cdf = 0.0
    for j in range(k, head.j_hi + 1):
        z = clt_normalize(j + shift, n, k, float(r))
        p = head.pmf_float(j)
        if not continuity_correction:
            best = max(best, abs(cdf - normal_cdf(z)))
        cdf += p
        best = max(best, abs(cdf - normal_cdf(z)))
    # beyond the window both CDFs sit within these exact tails of 1
    tail_exact = float(head.upper_tail(head.j_hi + 1))
    tail_normal = 1.0 - normal_cdf(clt_normalize(head.j_hi + shift, n, k, float(r)))
    return max(best, tail_exact, tail_normal)


def llt_sup_gap(n: int, k: int, r: RationalLike) -> float:
    """sqrt(log n) * sup_j |P[X = j] - Gaussian local approximant(j)|."""
    r = as_rational(r)
    head = pmf_head(n, k, r, _head_window(n, k, r))
    best = 0.0
    for j in range(k, head.j_hi + 1):
        gap = abs(head.pmf_float(j) - llt_gaussian_pmf(j, n, k, float(r)))
        best = max(best, gap)
    # beyond the window both terms are below their decreasing edge values
    edge = max(head.pmf_float(head.j_hi), llt_gaussian_pmf(head.j_hi + 1, n, k, float(r)))
    return math.sqrt(math.log(n)) * max(best, edge)


def _log_mgf_exact(n: int, k: int, r: Fraction, z: float) -> float:
    """log E[e^{z X}] from the exact head, with a certified truncation bound.

    The summand e^{z j} P[X = j] is log-concave in j, so once it decreases at
    the window edge the remainder is dominated by a geometric series; the
    window is grown until that bound is 1e-12-negligible.
    """
    head = pmf_head(n, k, r, _head_window(n, k, r, z))
    while True:
        terms = [z * j + head.log_pmf(j) for j in range(k, head.j_hi + 1)]
        top = max(terms)
        log_sum = top + math.log(sum(math.exp(t - top) for t in terms))
        if head.j_hi >= n:
            return log_sum
        u_last, u_prev = terms[-1], terms[-2]
        if u_last < u_prev:
            ratio = math.exp(u_last - u_prev)
            if ratio == 0.0:  # u_last - u_prev < -745: the tail is far below the sum
                return log_sum
            log_tail_bound = u_last + math.log(ratio / (1.0 - ratio))
            if log_tail_bound < log_sum - 27.7:  # tail below 1e-12 of the sum
                return log_sum
        head = pmf_head(n, k, r, min(n, head.j_hi * 2))


def mod_poisson_residual(n: int, k: int, r: RationalLike, z: float) -> float:
    """E[e^{z X}] / e^{lambda_n (e^z - 1)}, the quantity converging to Psi(z).

    The numerator sums e^{z j} against the exact head PMF with a certified
    truncation.  A z that is not finite, or whose lambda_n (e^z - 1) or
    residual overflows binary64, raises DomainError.
    """
    r = as_rational(r)
    AdmissibleTriple(n, k, r)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if z == 0.0:
        return 1.0  # numerator and denominator coincide identically
    lam = lambda_n(n, k, float(r))
    try:
        scale = lam * (math.exp(z) - 1.0)
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise DomainError(f"lambda_n (e^z - 1) overflows binary64 at z={z}")
    try:
        return math.exp(_log_mgf_exact(n, k, r, z) - scale)
    except OverflowError:
        raise DomainError(f"the residual at z={z} overflows binary64") from None


def ldp_tail_ratio(n: int, k: int, r: RationalLike, x: float) -> Tuple[float, float, float]:
    """(exact tail, asymptotic tail, ratio) at the lattice point nearest
    (k+r) x log n; upper tail for x > 1, lower tail for x < 1.  An
    approximant that underflows to 0 raises DomainError."""
    r = as_rational(r)
    j, _ = ldp_lattice_point(n, k, float(r), x)
    head = pmf_head(n, k, r, _head_window(n, k, r, math.log(max(x, 1.0)) + 0.1))
    if x > 1:
        exact = float(head.upper_tail(j))
        approx = ldp_upper_tail(n, k, float(r), x)
    elif 0 < x < 1:
        exact = float(head.lower_tail(j))
        approx = ldp_lower_tail(n, k, float(r), x)
    else:
        raise DomainError("x must differ from 1 for a tail ratio")
    if approx == 0.0:
        raise DomainError(f"the asymptotic tail at x={x} underflows to 0")
    return exact, approx, exact / approx


def convergence_table(
    ns: Sequence[int],
    k: int,
    r: RationalLike,
    *,
    zs: Iterable[float] = (-0.5, 0.3, 1.0),
    ldp_xs: Iterable[float] = (2.0, 0.5),
) -> List[dict]:
    """Rows (n, statistic, exact, approximant, gap) for convergence studies."""
    r = as_rational(r)
    rows: List[dict] = []

    def add(n, statistic, exact, approximant):
        rows.append(
            {
                "n": n,
                "statistic": statistic,
                "exact": exact,
                "approximant": approximant,
                "gap": abs(exact - approximant),
            }
        )

    for n in ns:
        add(n, "clt_kolmogorov", kolmogorov_distance(n, k, r), 0.0)
        add(n, "llt_sup_gap", llt_sup_gap(n, k, r), 0.0)
        for z in zs:
            add(n, f"mod_poisson_residual[z={z:g}]", mod_poisson_residual(n, k, r, z), psi_limit(k, float(r), z))
        lo, hi = mode_prediction(n, k, float(r))
        exact_mode = min(mode_exact(n, k, r))
        add(n, "mode", float(exact_mode), (lo + hi) / 2.0)
        for x in ldp_xs:
            try:
                exact, approx, _ = ldp_tail_ratio(n, k, r, x)
            except DomainError:
                continue
            add(n, f"ldp_tail[x={x:g}]", exact, approx)
    return rows
