"""Independent exact values for the benchmark's output checks.

Nothing here imports ``rlah``.  Each value is computed by a route the
benchmark owns: r-Stirling numbers of the first kind from their recurrence
over integers scaled by the denominator of r, of the second kind from the
explicit alternating sum, r-Lah numbers from their closed form, and the
paper's closed forms for the expectation, the expected face count and the
recovery probability.  The probability generating function is evaluated with
mpmath at high precision for the mod-Poisson check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

HALF = Fraction(1, 2)


def first_kind_prefix(n: int, r: Fraction, j_max: int) -> List[Fraction]:
    """c(n, j)_r for j = 0..min(j_max, n).

    With r = p/q the integers C(m, j) = q^(m-j) c(m, j)_r obey
    C(m, j) = (q(m-1) + p) C(m-1, j) + C(m-1, j-1), C(0, 0) = 1.
    """
    p, q = r.numerator, r.denominator
    top = min(j_max, n)
    row = [1] + [0] * top
    for m in range(1, n + 1):
        factor = q * (m - 1) + p
        for j in range(min(m, top), 0, -1):
            row[j] = factor * row[j] + row[j - 1]
        row[0] *= factor
    return [Fraction(v, q ** (n - j)) for j, v in enumerate(row)]


def mode(n: int, k: int, r: Fraction) -> List[int]:
    """Argmax of P[X = j], which is proportional to c(n, j)_r S(j, k)_r.

    The law is log-concave, so a maximum inside a prefix of j = k..j_max is
    the global one; the prefix doubles while the maximum sits at its end.
    """
    j_max = min(n, 2 * k + 16)
    while True:
        first = first_kind_prefix(n, r, j_max)
        weights = [first[j] * second_kind(j, k, r) for j in range(k, j_max + 1)]
        best = max(weights)
        top = [k + i for i, w in enumerate(weights) if w == best]
        if top[-1] < j_max or j_max == n:
            return top
        j_max = min(n, 2 * j_max)


def second_kind(n: int, k: int, r: Fraction) -> Fraction:
    """S(n, k)_r = (1/k!) sum_i (-1)^(k-i) C(k, i) (i + r)^n."""
    if k < 0 or k > n:
        return Fraction(0)
    p, q = r.numerator, r.denominator
    total = sum((-1) ** (k - i) * math.comb(k, i) * (i * q + p) ** n for i in range(k + 1))
    return Fraction(total, math.factorial(k) * q ** n)


def lah_closed(n: int, k: int, r: Fraction) -> Fraction:
    """L(n, k)_r = binom(n + 2r - 1, k + 2r - 1) n!/k!, the binomial as a product."""
    value = Fraction(math.factorial(n), math.factorial(k))
    for i in range(1, n - k + 1):
        value = value * (k + 2 * r - 1 + i) / i
    return value


def lah_convolution(n: int, k: int, r: Fraction) -> Fraction:
    """L(n, k)_r = sum_j c(n, j)_r S(j, k)_r."""
    first = first_kind_prefix(n, r, n)
    return sum((first[j] * second_kind(j, k, r) for j in range(k, n + 1)), Fraction(0))


def expectation(n: int, k: int, r: Fraction) -> Fraction:
    """E[X] = (k + [k(n+r) + r(n+1)] (H_{n+2r-1} - H_{k+2r-1})) / (n - k + 1)."""
    base = k + 2 * r - 1
    h = sum((1 / (base + j) for j in range(1, n - k + 1)), Fraction(0))
    return (k + (k * (n + r) + r * (n + 1)) * h) / (n - k + 1)


def expected_faces(d: int, n: int, k: int) -> Fraction:
    """E[f_k] = (2 k!/n!) sum_l c(n, d-2l-1)_{1/2} S(d-2l-1, k)_{1/2}."""
    first = first_kind_prefix(n, HALF, d - 1)
    total = Fraction(0)
    for j in range(d - 1, k - 1, -2):
        total += first[j] * second_kind(j, k, HALF)
    return 2 * math.factorial(k) * total / math.factorial(n)


def recovery(d: int, n: int, k: int) -> Fraction:
    """P[unique recovery] = E[f_k] / binom(n, k); the sum is empty when k = d."""
    return expected_faces(d, n, k) / math.comb(n, k)


def threshold(k: int, gamma: str, c: float | None) -> dict:
    """Regime, boundary 2/(2k+1) and limit of the face ratio along n = e^(gamma d)."""
    boundary = Fraction(2, 2 * k + 1)
    if gamma == "inf":
        return {"regime": "supercritical", "boundary": boundary, "limit": 0.0}
    g = Fraction(gamma)
    if g < boundary:
        return {"regime": "subcritical", "boundary": boundary, "limit": 1.0}
    if g > boundary:
        return {"regime": "supercritical", "boundary": boundary, "limit": 0.0}
    limit = None if c is None else 0.5 * math.erfc(c / math.sqrt(2.0))
    return {"regime": "critical", "boundary": boundary, "limit": limit}


def mod_poisson(n: int, k: int, r: Fraction, z: float) -> float:
    """P_{n,k,r}(e^z) / e^(lambda_n (e^z - 1)) from the closed-form PGF in mpmath.

    P(t) = binom(n+2r-1, k+2r-1)^(-1) sum_m (-1)^(k-m) C(k, m) rf(a_m, n) / n!,
    with a_m = r(t+1) + t m and rf the rising factorial.
    """
    import mpmath

    with mpmath.workdps(60):
        rr = mpmath.mpf(r.numerator) / r.denominator
        t = mpmath.exp(z)
        total = mpmath.mpf(0)
        for m in range(k + 1):
            a = rr * (t + 1) + t * m
            total += (-1) ** (k - m) * math.comb(k, m) * mpmath.rf(a, n)
        pgf = total / mpmath.factorial(n) / mpmath.binomial(n + 2 * rr - 1, k + 2 * rr - 1)
        lam = (k + rr) * mpmath.log(n)
        return float(pgf / mpmath.exp(lam * (t - 1)))
