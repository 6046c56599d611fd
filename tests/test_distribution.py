"""Tests for the exact r-Lah distribution.

Two oracles are independent of the integer head rows.  The bivariate series
expansion of ((1-x)^-t - 1)^k (1-x)^-(rt+r): its coefficient of t^j x^n must
reproduce (k!/n!) c(n,j)_r S(j,k)_r, which pins the PMF numerators to the
generating function.  And the recurrence triangles (``table_for``): every
method of the distribution and every head window is compared with values
built from them in Fractions.
"""

import contextlib
import hashlib
import json
import math
import random
import time
from fractions import Fraction as F
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlah import distribution
from rlah.asymptotics import (
    DEFAULT_XS,
    DEFAULT_ZS,
    convergence_table,
    kolmogorov_distance,
    ldp_tail_ratio,
    llt_sup_gap,
    mod_poisson_residual,
)
from rlah.cli import main as cli_main
from rlah.distribution import (
    AdmissibleTriple,
    build_distribution,
    mode_exact,
    pgf_eval,
    pmf_head,
)
from rlah.errors import CapacityExceeded, InadmissibleParameters, InvalidParameter
from rlah.stirling import StirlingKind, lah_r, stirling_r

from law_oracle import (
    expectation_alt,
    log_fraction,
    mean_via_pmf,
    parity_via_pmf,
    pgf_via_pmf,
    table_for,
    variance_via_pmf,
)

HALF = F(1, 2)


def dist(n, k, r):
    return build_distribution(AdmissibleTriple(n, k, F(r)))


def triangle_law(n, k, r):
    """(L(n,k)_r, [P[X = j] for j = k..n]) from the recurrence triangles."""
    first, second = table_for(StirlingKind.FIRST, r), table_for(StirlingKind.SECOND, r)
    weights = [first.value(n, j) * second.value(j, k) for j in range(k, n + 1)]
    total = sum(weights)
    return total, [w / total for w in weights]


# -- admissibility -------------------------------------------------------------

def test_admissibility_rejections():
    with pytest.raises(InadmissibleParameters):
        AdmissibleTriple(0, 0, F(1))
    with pytest.raises(InadmissibleParameters):
        AdmissibleTriple(3, 4, F(1))
    with pytest.raises(InadmissibleParameters):
        AdmissibleTriple(3, -1, F(1))
    with pytest.raises(InadmissibleParameters):
        AdmissibleTriple(3, 0, F(0))
    with pytest.raises(InadmissibleParameters):
        AdmissibleTriple(3, 1, F(-1, 2))


def test_capacity_guard():
    with pytest.raises(CapacityExceeded):
        build_distribution(AdmissibleTriple(100, 1, HALF), n_max=10)


# -- frozen PMFs ---------------------------------------------------------------

def test_pmf_2_1_half():
    d = dist(2, 1, HALF)
    assert d.pmf_items() == [(1, HALF), (2, HALF)]
    assert d.normalizer == 4


def test_pmf_3_1_half():
    d = dist(3, 1, HALF)
    assert d.pmf_items() == [(1, F(23, 72)), (2, F(1, 2)), (3, F(13, 72))]


def test_point_mass_at_n_equals_k():
    d = dist(5, 5, F(7, 3))
    assert d.pmf_items() == [(5, F(1))]
    assert d.mode() == {5}
    assert d.expectation() == 5


def test_support_for_r_zero():
    d = dist(6, 2, F(0))
    assert all(p > 0 for _, p in d.pmf_items())
    assert d.pmf(1) == 0 and d.pmf(7) == 0


@pytest.mark.parametrize("r", [F(0), HALF, F(1), F(7, 3)])
def test_normalization_exact(r):
    for n in (1, 2, 5, 17, 33, 64):
        for k in range(0, n + 1, max(1, n // 4)):
            if k == 0 and r == 0:
                continue
            d = dist(n, k, r)
            assert d.cdf(n) == 1


# -- expectation ---------------------------------------------------------------

@pytest.mark.parametrize("r", [F(0), HALF, F(1), F(5, 2)])
def test_expectation_triple_agreement(r):
    for n in range(1, 21):
        for k in range(n + 1):
            if k == 0 and r == 0:
                continue
            d = dist(n, k, r)
            assert d.expectation() == expectation_alt(n, k, r) == mean_via_pmf(d)


def test_expectation_values():
    assert dist(2, 1, HALF).expectation() == F(3, 2)
    assert dist(7, 7, F(7, 3)).expectation() == 7
    # r = 0 closed form: nk/(n-(k-1)) [H_n - H_{k-1}]
    assert dist(3, 1, F(0)).expectation() == F(11, 6)
    for n, k in ((5, 2), (9, 4)):
        h = sum(F(1, j) for j in range(k, n + 1))
        assert dist(n, k, F(0)).expectation() == F(n * k, n - (k - 1)) * h


# -- parity, mode, log-concavity -------------------------------------------------

def test_parity_split():
    cases = [(3, 1, HALF, (HALF, HALF)), (2, 1, HALF, (HALF, HALF)), (6, 6, F(1), (1, 0)), (5, 5, F(1), (0, 1))]
    for n, k, r, want in cases:
        d = dist(n, k, r)
        assert d.parity_probabilities() == parity_via_pmf(d) == want


@pytest.mark.parametrize("r", [F(0), HALF, F(1), F(7, 3)])
def test_parity_half_half_whenever_n_gt_k(r):
    for n in range(1, 16):
        for k in range(n):
            if k == 0 and r == 0:
                continue
            d = dist(n, k, r)
            assert d.parity_probabilities() == parity_via_pmf(d) == (HALF, HALF)


def test_variance_closed_form_matches_the_row_sum():
    rng = random.Random(20261019)
    cases = [(n, k, r) for n in (1, 2, 7) for k in (0, n) for r in (F(0), HALF, F(7, 3)) if k or r]
    for _ in range(150):
        n, r = rng.randint(1, 40), rng.choice((F(0), F(1, 3), HALF, F(1), F(5, 4), F(7, 3)))
        cases.append((n, rng.randint(0 if r else 1, n), r))
    cases += [(1, 0, HALF), (1, 1, F(0)), (1, 1, F(5, 4))]
    for _ in range(150):  # n = k, r = 0, k near n and k small, r = a/b
        n = rng.randint(1, 60)
        r = rng.choice((F(0), F(rng.randint(1, 12), rng.randint(1, 12))))
        k = rng.choice((n, max(n - rng.randint(1, 3), 0), min(rng.randint(0, 3), n)))
        if k or r:
            cases.append((n, k, r))
    for n, k, r in cases:
        d = dist(n, k, r)
        assert d.variance() == variance_via_pmf(d), (n, k, r)


@pytest.mark.parametrize("k", [1, 700, 1390])
def test_variance_closed_form_matches_the_row_sum_at_n_1400(k):
    d = dist(1400, k, HALF)
    assert d.variance() == variance_via_pmf(d)


def test_mode_examples():
    assert dist(2, 1, HALF).mode() == {1, 2}
    assert dist(3, 1, HALF).mode() == {2}


def test_mode_small_sets_and_contiguous():
    for r in (F(0), HALF, F(1), F(7, 3)):
        for n in range(1, 26):
            for k in range(n + 1):
                if k == 0 and r == 0:
                    continue
                m = sorted(dist(n, k, r).mode())
                assert len(m) in (1, 2)
                if len(m) == 2:
                    assert m[1] == m[0] + 1


def test_certify_log_concavity():
    assert dist(12, 3, HALF).certify_log_concavity() == (True, None)
    assert dist(6, 6, F(2)).certify_log_concavity() == (True, None)
    assert dist(10, 0, HALF).certify_log_concavity() == (True, None)


# -- generating function ---------------------------------------------------------

def test_pgf_at_one_is_one():
    for n, k, r in ((5, 2, HALF), (7, 0, F(1)), (4, 4, F(7, 3))):
        assert pgf_eval(AdmissibleTriple(n, k, r), 1) == 1


def test_pgf_example_two_paths():
    params = AdmissibleTriple(2, 1, HALF)
    assert pgf_eval(params, 2) == 3
    assert pgf_via_pmf(dist(2, 1, HALF), 2) == 3


def test_pgf_at_minus_one_vanishes_for_n_gt_k():
    for n, k, r in ((5, 2, HALF), (3, 1, F(0)), (9, 0, F(7, 3))):
        assert pgf_eval(AdmissibleTriple(n, k, r), -1) == 0
    # point mass keeps sign (-1)^n
    assert pgf_eval(AdmissibleTriple(4, 4, HALF), -1) == 1
    assert pgf_eval(AdmissibleTriple(5, 5, HALF), -1) == -1


@pytest.mark.parametrize("r", [F(0), HALF, F(1)])
def test_pgf_two_path_agreement(r):
    ts = [F(-1), F(0), F(1, 3), F(1), F(2)]
    for n in range(1, 13):
        for k in range(n + 1):
            if k == 0 and r == 0:
                continue
            d = dist(n, k, r)
            params = AdmissibleTriple(n, k, r)
            for t in ts:
                assert pgf_eval(params, t) == pgf_via_pmf(d, t)


def test_pgf_of_the_point_mass_at_k_equal_n_is_t_to_the_n():
    # k = n puts all mass on X = n, so the alternating sum must collapse to t^n exactly
    t = F(1, 3)
    assert pgf_eval(AdmissibleTriple(1000, 1000, HALF), t) == t ** 1000


# -- bivariate coefficient-extraction oracle -------------------------------------

def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _rising_poly(a, count):
    # product (a)(a+1)...(a+count-1) of a polynomial argument, in t
    out = [F(1)]
    for m in range(count):
        shifted = a[:]
        shifted[0] = a[0] + m
        out = _poly_mul(out, shifted)
    return out


def _series_pow_neg(a, order):
    # x-coefficients of (1-x)^(-a): [x^i] = rising(a, i)/i!, each a t-poly
    return [[c / math.factorial(i) for c in _rising_poly(a, i)] for i in range(order + 1)]


def _series_mul(f, g, order):
    out = [[F(0)] for _ in range(order + 1)]
    for i in range(order + 1):
        for j in range(order + 1 - i):
            prod = _poly_mul(f[i], g[j])
            cur = out[i + j]
            if len(cur) < len(prod):
                cur.extend([F(0)] * (len(prod) - len(cur)))
            for idx, v in enumerate(prod):
                cur[idx] += v
    return out


@pytest.mark.parametrize("r", [F(0), HALF, F(7, 3)])
def test_coefficient_extraction_identity(r):
    order = 8
    base = _series_pow_neg([F(0), F(1)], order)  # (1-x)^-t
    base[0] = [F(0)]  # subtract 1
    for k in range(0, 4):
        f = [[F(1)]] + [[F(0)]] * order  # series 1
        for _ in range(k):
            f = _series_mul(f, base, order)
        tail = _series_pow_neg([r, r], order)  # (1-x)^-(rt+r)
        full = _series_mul(f, tail, order)
        for n in range(max(k, 1), order + 1):
            coeff_poly = full[n]
            for j in range(0, n + 2):
                got = coeff_poly[j] if j < len(coeff_poly) else F(0)
                want = (
                    F(math.factorial(k), math.factorial(n))
                    * stirling_r(StirlingKind.FIRST, n, j, r)
                    * stirling_r(StirlingKind.SECOND, j, k, r)
                )
                if k == 0 and r == 0:
                    continue
                assert got == want, (r, k, n, j)


# -- sampling ---------------------------------------------------------------------

def test_sampling_point_mass():
    d = dist(4, 4, HALF)
    out = d.sample(np.random.default_rng(1), 5)
    assert out.tolist() == [4, 4, 4, 4, 4]


def test_sampling_empty():
    assert dist(3, 1, HALF).sample(np.random.default_rng(0), 0).tolist() == []


def test_sampling_mean_and_determinism():
    d = dist(2, 1, HALF)
    count = 100_000
    draws = d.sample(np.random.default_rng(20240817), count)
    # exact variance from the PMF is 1/4
    assert abs(draws.mean() - 1.5) <= 3 * 0.5 / math.sqrt(count)
    again = d.sample(np.random.default_rng(20240817), count)
    assert (draws == again).all()


def test_sampling_negative_count():
    with pytest.raises(InvalidParameter):
        dist(3, 1, HALF).sample(np.random.default_rng(0), -1)


# -- export -------------------------------------------------------------------------

def _cli_stdout(capsys, *argv):
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


def test_csv_roundtrip(capsys):
    text = _cli_stdout(capsys, "pmf", "--n", "3", "--k", "1", "--r", "1/2")
    lines = text.strip().splitlines()
    assert lines[0] == "j,pmf_num,pmf_den,pmf_float"
    parsed = [line.split(",") for line in lines[1:]]
    values = {int(j): F(int(num), int(den)) for j, num, den, _ in parsed}
    assert values == {1: F(23, 72), 2: F(1, 2), 3: F(13, 72)}


def test_json_roundtrip(capsys):
    rows = json.loads(_cli_stdout(capsys, "--format", "json", "pmf", "--n", "3", "--k", "1", "--r", "1/2", "--cdf"))
    by_j = {row["j"]: row for row in rows["rows"]}
    assert F(by_j[1]["pmf_num"], by_j[1]["pmf_den"]) == F(23, 72)
    assert F(by_j[2]["cdf_num"], by_j[2]["cdf_den"]) == F(59, 72)
    record = json.loads(_cli_stdout(capsys, "stats", "--n", "3", "--k", "1", "--r", "1/2"))
    assert F(record["normalizer"]) == 18
    assert F(record["r"]) == HALF


def test_csv_with_cdf_columns(capsys):
    text = _cli_stdout(capsys, "pmf", "--n", "3", "--k", "1", "--r", "1/2", "--cdf")
    lines = text.strip().splitlines()
    assert lines[0] == "j,pmf_num,pmf_den,pmf_float,cdf_num,cdf_den"
    last = lines[-1].split(",")
    assert F(int(last[4]), int(last[5])) == 1


# -- exact heads ---------------------------------------------------------------------

@pytest.mark.parametrize("r", [F(0), HALF, F(7, 3)])
def test_pmf_head_matches_full_distribution(r):
    for n, k in ((9, 0), (30, 1), (41, 3)):
        if k == 0 and r == 0:
            continue
        d = dist(n, k, r)
        head = pmf_head(n, k, r, 12)
        for j in range(k, 13):
            assert head.pmf(j) == d.pmf(j)
        assert head.head_cdf(12) == d.cdf(12)
        assert head.upper_tail(7) == 1 - d.cdf(6)
        assert head.head_cdf(9) == d.cdf(9)


def test_pmf_head_guards():
    head = pmf_head(30, 2, HALF, 10)
    with pytest.raises(InvalidParameter):
        head.pmf(11)
    with pytest.raises(InvalidParameter):
        pmf_head(30, 5, HALF, 3)


@pytest.mark.parametrize("r", [F(0), HALF, F(1)])
def test_mode_exact_matches_distribution(r):
    for n, k in ((25, 1), (60, 2), (120, 0), (7, 7)):
        if k == 0 and r == 0:
            continue
        d = dist(n, k, r)
        best = max(d.pmf(j) for j in d.support)
        assert mode_exact(n, k, r) == {j for j in d.support if d.pmf(j) == best}


@pytest.mark.parametrize(
    "n,k,r,z,j_hi",
    [
        (300, 1, HALF, 0.0, 96),
        (3000, 1, HALF, 0.3, 128),
        (3000, 1, HALF, 1.0, 160),
        (10**4, 2, F(0), 0.0, 128),
        (10**4, 1, HALF, math.log(2) + 0.1, 160),
        (40, 1, HALF, 0.0, 40),  # clamped to n
        (7, 0, F(1000), 0.0, 7),
        (2, 1, F(0), 710.0, 2),  # e^z overflows binary64: the whole support
    ],
)
def test_head_window_golden(n, k, r, z, j_hi):
    assert distribution._head_window(n, k, r, z) == j_hi


def test_pmf_head_past_the_work_cap_raises_before_any_kernel_call(monkeypatch):
    calls = []
    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", lambda *args: calls.append(args))
    n = 400_000
    j_hi = distribution._HEAD_COST_CAP // n + 1
    with fresh_cache(), pytest.raises(CapacityExceeded) as info:
        pmf_head(n, 1, HALF, j_hi)
    assert str(info.value) == f"exact head window {j_hi} x n={n} exceeds the work cap; reduce n or z"
    assert calls == []


def test_mode_exact_past_the_work_cap_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded):
        mode_exact(400_000, 1, HALF)
    assert time.perf_counter() - start < 0.3


# -- property test -------------------------------------------------------------------

@st.composite
def triples(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    k = draw(st.integers(min_value=0, max_value=n))
    num = draw(st.integers(min_value=0, max_value=9))
    den = draw(st.integers(min_value=1, max_value=6))
    r = F(num, den)
    if k == 0 and r == 0:
        k = 1
    return n, k, r


@given(triples())
@settings(max_examples=60, deadline=None)
def test_distribution_invariants(triple):
    n, k, r = triple
    d = dist(n, k, r)
    assert d.cdf(n) == 1
    ok, witness = d.certify_log_concavity()
    assert ok and witness is None
    m = sorted(d.mode())
    assert len(m) in (1, 2) and (len(m) == 1 or m[1] == m[0] + 1)
    assert d.parity_probabilities() == parity_via_pmf(d)
    if n > k:
        assert parity_via_pmf(d) == (HALF, HALF)


@given(triples())
@settings(max_examples=60, deadline=None)
def test_every_method_matches_the_triangle_oracle(triple):
    n, k, r = triple
    normalizer, pmf = triangle_law(n, k, r)
    cdf = list(accumulate(pmf))
    support = range(k, n + 1)
    d = dist(n, k, r)
    assert d.normalizer == normalizer
    assert d.pmf_items() == list(zip(support, pmf))
    assert [d.pmf(j) for j in range(k - 1, n + 2)] == [0, *pmf, 0]
    assert [d.cdf(j) for j in range(k - 1, n + 2)] == [0, *cdf, 1]
    mean = sum(j * p for j, p in zip(support, pmf))
    assert mean_via_pmf(d) == d.expectation() == expectation_alt(n, k, r) == mean
    assert d.variance() == sum(j * j * p for j, p in zip(support, pmf)) - mean * mean
    even = sum(p for j, p in zip(support, pmf) if j % 2 == 0)
    assert d.parity_probabilities() == (even, 1 - even)
    assert d.mode() == {j for j, p in zip(support, pmf) if p == max(pmf)}
    violation = next((i + k for i in range(1, len(pmf) - 1) if pmf[i] ** 2 < pmf[i - 1] * pmf[i + 1]), None)
    assert d.certify_log_concavity() == (violation is None, violation)
    for t in (F(-1), F(0), F(1, 3), F(2), F(-5, 2)):
        assert pgf_via_pmf(d, t) == sum(t ** j * p for j, p in zip(support, pmf))
    thresholds = np.array([float(c) for c in cdf])
    want = np.searchsorted(thresholds, np.random.default_rng(n).random(64), side="right") + k
    assert d.sample(np.random.default_rng(n), 64).tolist() == want.tolist()
    rows = d.to_rows(include_cdf=True)
    assert [(row["j"], F(row["pmf_num"], row["pmf_den"]), row["pmf_float"], F(row["cdf_num"], row["cdf_den"]))
            for row in rows] == [(j, p, float(p), c) for j, p, c in zip(support, pmf, cdf)]
    assert all(F(row["pmf_num"], row["pmf_den"]).numerator == row["pmf_num"] for row in rows)  # reduced
    for j in range(n + 2):
        assert stirling_r(StirlingKind.FIRST, n, j, r) == table_for(StirlingKind.FIRST, r).value(n, j)
        assert stirling_r(StirlingKind.SECOND, n, j, r) == table_for(StirlingKind.SECOND, r).value(n, j)


# -- integer head rows and their cache ------------------------------------------------

@contextlib.contextmanager
def fresh_cache(budget=None):
    """Run with empty head and prefix caches (and, optionally, another budget)."""
    saved = distribution._cache, distribution._CACHE_BUDGET_BYTES
    distribution._cache = distribution._ByteLRU()
    if budget is not None:
        distribution._CACHE_BUDGET_BYTES = budget
    distribution._pmf_head_cached.cache_clear()
    try:
        yield distribution._cache
    finally:
        distribution._cache, distribution._CACHE_BUDGET_BYTES = saved
        distribution._pmf_head_cached.cache_clear()


def assert_head_matches(head, pmf):
    """``pmf`` is the triangle oracle's P[X = j] for j = k..n."""
    n, k, j_hi = head.params.n, head.params.k, head.j_hi
    cdf = [F(0), *accumulate(pmf)]  # cdf[j - k + 1] = P[X <= j]
    for j in range(k - 1, j_hi + 1):
        assert head.pmf(j) == (pmf[j - k] if j >= k else 0)
        assert head.head_cdf(j) == cdf[j - k + 1]
        assert head.upper_tail(j + 1) == 1 - cdf[j - k + 1]
    for parity in (0, 1):  # both parity sets of the window, from the top down
        js = range(j_hi - parity, k - 1, -2)
        assert head.mass(js) == sum((pmf[j - k] for j in js), F(0))
    assert head.mass(range(k - 3, j_hi + 1)) == cdf[j_hi - k + 1]  # reaches below k
    assert head.mass(()) == 0
    for j in range(j_hi + 1, n + 1):
        with pytest.raises(InvalidParameter):
            head.mass((k, j))


def test_head_grown_in_any_window_order_matches_fresh_and_oracle():
    n, k, r = 90, 1, HALF
    _, pmf = triangle_law(n, k, r)
    with fresh_cache() as cache:
        heads = [pmf_head(n, k, r, w) for w in (40, 12, 80)]
        assert [key[0] for key in cache._entries] == ["prefix", "head"]  # one row, grown 40 -> 80
        for head in heads:
            window = range(k, head.j_hi + 1)
            grown = [head.pmf(j) for j in window]
            with fresh_cache():
                assert [pmf_head(n, k, r, head.j_hi).pmf(j) for j in window] == grown
            assert_head_matches(head, pmf)


@given(triples(), st.lists(st.integers(min_value=0, max_value=18), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_head_windows_in_random_order(triple, windows):
    n, k, r = triple
    _, pmf = triangle_law(n, k, r)
    with fresh_cache():
        for w in windows:
            head = pmf_head(n, k, r, max(w, k))
            assert_head_matches(head, pmf)
        full = pmf_head(n, k, r, n)
        assert full.head_cdf(n + 5) == 1 and full.upper_tail(n + 1) == 0


@pytest.mark.parametrize("n,k,r", [(40, 2, HALF), (1000, 1, HALF), (3000, 0, F(7, 3)), (300, 2, F(0))])
def test_float_and_log_accessors_are_bit_identical(n, k, r):
    head = pmf_head(n, k, r, 200)
    for j in range(k - 1, head.j_hi + 1):
        p = head.pmf(j)
        assert head.pmf_float(j) == float(p)
        assert head.log_pmf(j) == log_fraction(p)
        assert head.log_pmf(j) == log_fraction(p)  # memoized value


def test_log_pmf_raises_past_its_head_even_when_a_wider_head_memoized_j():
    n, k, r = 300, 1, HALF
    with fresh_cache():
        with pytest.raises(InvalidParameter):
            pmf_head(n, k, r, 100).log_pmf(150)
        assert pmf_head(n, k, r, 200).log_pmf(150) < 0  # memoizes j = 150 on the shared row
        narrow = pmf_head(n, k, r, 100)
        for read in (narrow.pmf, narrow.log_pmf):
            with pytest.raises(InvalidParameter):
                read(150)
        assert narrow.log_pmf(k - 1) == narrow.log_pmf(n + 1) == -math.inf


def test_two_k_share_one_first_kind_prefix(monkeypatch):
    calls = []
    kernel = distribution._first_kind_prefix_scaled

    def counted(n, r, j_max, *start):
        calls.append(j_max)
        return kernel(n, r, j_max, *start)

    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", counted)
    with fresh_cache():
        pmf_head(500, 1, HALF, 30)
        pmf_head(500, 2, HALF, 25)
        assert calls == [30]
        pmf_head(500, 2, HALF, 40)  # past the cached prefix: recomputed, exactly as wide as asked
        assert calls == [30, 40]
        pmf_head(500, 1, HALF, 55)
        assert calls == [30, 40, 55]
        pmf_head(500, 2, HALF, 50)  # k = 1's wider prefix covers it
        assert calls == [30, 40, 55]


def test_a_row_steps_up_from_the_nearest_covering_row(monkeypatch):
    calls = []
    kernel = distribution._first_kind_prefix_scaled

    def counted(n, r, j_max, start, lo):
        calls.append((n, j_max, start[0]))
        return kernel(n, r, j_max, start, lo)

    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", counted)
    with fresh_cache(), distribution._cache_lock:
        distribution._prefix(500, HALF, 30)
        distribution._prefix(480, HALF, 30)  # no lower row: from row 0
        distribution._prefix(520, HALF, 30)  # one call, the factors 500..519 only
        assert calls == [(500, 30, 0), (480, 30, 0), (520, 30, 500)]
        b = distribution._prefix(520, HALF, 30)
        distribution._prefix(530, F(1, 3), 30)  # another r: from row 0
        distribution._prefix(540, HALF, 31)  # no cached row of width 31: from row 0
        assert calls[3:] == [(530, 30, 0), (540, 31, 0)]
        third = F(1, 3)
        short = distribution._prefix(40, third, 39)  # row 40 less its last entry
        full = distribution._prefix(45, third, 50)  # so not a full row: from row 0
        wide = distribution._prefix(47, third, 47)  # the full row 45 covers any width
        assert calls[5:] == [(40, 39, 0), (45, 50, 0), (47, 47, 45)]
    assert b == kernel(520, HALF, 30)
    assert (short, full, wide) == (kernel(40, third, 39), kernel(45, third, 45), kernel(47, third, 47))


@pytest.mark.parametrize("seed", range(4))
def test_stepped_prefixes_equal_fresh_kernel_runs(seed):
    """Seeded request sequences through the cache, each answer against a
    kernel run from row 0: runs of nearby n with jumps between them, four
    r, narrow and wide windows (so sources are both wider and narrower than
    the request), full rows and widths past n, a lower edge on half the
    requests (so bands step up from bands), and on odd seeds a budget that
    evicts sources mid-sequence."""
    rng = np.random.default_rng(seed)
    kernel = distribution._first_kind_prefix_scaled
    budget = 50_000 if seed % 2 else None
    runs = []

    def spy(n, r, j_max, start, lo):
        runs.append((start[0], lo))
        return kernel(n, r, j_max, start, lo)

    evicted = 0
    with fresh_cache(budget) as cache, pytest.MonkeyPatch.context() as mp:
        mp.setattr(distribution, "_first_kind_prefix_scaled", spy)
        n = int(rng.integers(1, 601))
        for _ in range(150):
            r = (F(0), HALF, F(7, 3), F(5, 4))[rng.integers(4)]
            n = int(rng.integers(1, 601)) if rng.integers(4) == 0 else int(np.clip(n + rng.integers(-30, 31), 1, 600))
            widths = [rng.integers(0, 12), rng.integers(0, 60)] + ([n, n + 5] if n <= 200 else [])
            j_max = int(widths[rng.integers(len(widths))])
            lo = int(rng.integers(0, min(j_max, n) + 1)) if rng.integers(2) else 0
            before = set(cache._entries)
            with distribution._cache_lock:
                b = distribution._prefix(n, r, j_max, 0, lo)
            evicted += len(before - set(cache._entries))
            assert len(b) > min(j_max, n) and b.lo <= lo
            assert b[: b.lo] == [0] * b.lo
            assert b[lo : j_max + 1] == kernel(n, r, j_max)[lo:]
    assert any(m for m, _ in runs) and any(not m for m, _ in runs)  # both stepped and fresh runs happened
    assert any(m and lo for m, lo in runs)  # and some of the stepped runs were bands
    assert (evicted > 0) == (budget is not None)


def test_cache_stays_under_a_small_budget():
    budget = 60_000
    with fresh_cache(budget) as cache:
        heads = []
        for n in (200, 250, 300):
            for k, r in ((1, HALF), (2, F(0)), (0, F(7, 3))):
                heads.append((pmf_head(n, k, r, 60), (n, k, r)))
                assert 0 < cache.nbytes <= budget
        assert len(cache._entries) < 2 * len(heads)  # something was evicted
        for head, (n, k, r) in heads[:3]:  # evicted rows regrow to the same values
            with fresh_cache():
                fresh = pmf_head(n, k, r, 60)
                want = [fresh.head_cdf(j) for j in range(k, 61)]
            assert [head.head_cdf(j) for j in range(k, 61)] == want
            assert cache.nbytes <= budget


# -- one prefix-kernel run per (n, r) for the limit statistics -------------------------

# a limit-sweep family: three (k, r) at two n, two of them sharing r = 1/2
LIMIT_FAMILY = [(n, k, r) for n in (300, 1000) for k, r in ((1, HALF), (0, HALF), (2, F(0)))]


def limit_statistics(n, k, r):
    """Every statistic of the default convergence study at (n, k, r), each
    as a thunk, in the order ``convergence_table`` calls them."""
    return [
        lambda: kolmogorov_distance(n, k, r),
        lambda: kolmogorov_distance(n, k, r, continuity_correction=False),
        lambda: llt_sup_gap(n, k, r),
        *[lambda z=z: mod_poisson_residual(n, k, r, z) for z in DEFAULT_ZS],
        lambda: mode_exact(n, k, r),
        *[lambda x=x: ldp_tail_ratio(n, k, r, x) for x in DEFAULT_XS],
    ]


@pytest.fixture
def kernel_runs(monkeypatch):
    """The (n, r) of every first-kind prefix kernel run."""
    runs = []
    kernel = distribution._first_kind_prefix_scaled

    def counted(n, r, j_max, *start):
        runs.append((n, r))
        return kernel(n, r, j_max, *start)

    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", counted)
    return runs


def test_limit_statistics_run_the_kernel_once_per_n_r(kernel_runs):
    with fresh_cache():
        family = [[repr(stat()) for stat in limit_statistics(*t)] for t in LIMIT_FAMILY]
    assert sorted(kernel_runs) == sorted({(n, r) for n, _, r in LIMIT_FAMILY})
    for t, values in zip(LIMIT_FAMILY, family):  # same bits alone, on a cold cache
        for stat, value in zip(limit_statistics(*t), values):
            with fresh_cache():
                assert repr(stat()) == value


def test_convergence_table_runs_the_kernel_once_per_n_r(kernel_runs):
    with fresh_cache():
        for k, r in ((1, HALF), (0, HALF), (2, F(0))):
            convergence_table([300, 1000], k, r)
    assert sorted(kernel_runs) == [(300, F(0)), (300, HALF), (1000, F(0)), (1000, HALF)]


def test_a_statistic_whose_default_window_passes_the_cap_still_returns(monkeypatch, kernel_runs):
    n, k, r = 300, 1, HALF
    assert (distribution._head_window(n, k, r), distribution._head_window(n, k, r, max(DEFAULT_ZS))) == (96, 128)
    monkeypatch.setattr(distribution, "_HEAD_COST_CAP", 100 * n)  # the 96-column window fits, the 128 does not
    with fresh_cache() as cache:
        # the values of ASYMPTOTICS_GOLDEN below, now from one run sized at the cap
        assert kolmogorov_distance(n, k, r) == 0.1145645783959024
        assert llt_sup_gap(n, k, r) == 0.08691924840582875
        assert mode_exact(n, k, r) == {8}
        assert len(cache.get(("prefix", n, r))) == 101
        with pytest.raises(CapacityExceeded):
            mod_poisson_residual(n, k, r, max(DEFAULT_ZS))
    assert kernel_runs == [(n, r)]


def test_no_kernel_run_is_wider_than_its_admitted_request(monkeypatch):
    """Each run is max(request, floor) wide, and within the work cap: a
    widening head does not double past what ``pmf_head`` admitted."""
    r = HALF
    cap = 100 * 300
    monkeypatch.setattr(distribution, "_HEAD_COST_CAP", cap)
    widths = []
    kernel = distribution._first_kind_prefix_scaled

    def counted(n, r, j_max, start, lo):
        widths.append(min(j_max, n))
        return kernel(n, r, j_max, start, lo)

    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", counted)

    requests = [
        (300, 1, 60),
        (300, 1, 70),  # twice the cached width would be 120 > cap // n
        (300, 2, None),  # _window_head: 96 columns, floored at the cap's 100
        (300, 0, 100),
        (301, 1, 80),  # stepped up from row 300
        (250, 0, None),
    ]
    with fresh_cache():
        for n, k, j_hi in requests:
            before, floor = len(widths), 0
            if j_hi is None:
                j_hi = distribution._window_head(n, k, r).j_hi
                floor = min(distribution._head_window(n, k, r, max(DEFAULT_ZS)), cap // n)
            else:
                pmf_head(n, k, r, j_hi)
            assert all(w <= max(j_hi, floor) and w <= cap // n for w in widths[before:]), (n, k, widths)
    assert widths == [60, 70, 100, 80, 96]


def test_the_sum_check_fires_on_the_first_full_width_read(monkeypatch):
    real = distribution._second_kind_column_scaled

    def broken(k, r, j_max):
        t = real(k, r, j_max)
        t[-1] += 1
        return t

    monkeypatch.setattr(distribution, "_second_kind_column_scaled", broken)
    n, k, r = 40, 2, HALF
    with fresh_cache():
        d = build_distribution(AdmissibleTriple(n, k, r))  # lazy: reads no row
        assert pmf_head(n, k, r, 20).pmf(5) > 0  # a narrower read does not check the sum
        with pytest.raises(AssertionError):
            d.cdf(n)
    with fresh_cache(), pytest.raises(AssertionError):
        pmf_head(n, k, r, n)


def test_den_and_normalizer_are_closed_forms_that_read_no_row(monkeypatch):
    n, k, r = 1400, 1, HALF

    def no_row(*args):
        raise AssertionError(f"a row was read: {args}")

    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", no_row)
    monkeypatch.setattr(distribution, "_head_row", no_row)
    with fresh_cache() as cache:
        d = build_distribution(AdmissibleTriple(n, k, r))
        assert d.den == 2**n * lah_r(n, k, r)
        assert d.normalizer == lah_r(n, k, r)
        assert not cache._entries


@pytest.mark.parametrize("n, k", [(60, 1), (4000, 3990)])
def test_the_variance_reads_no_kernel_and_no_cache(monkeypatch, n, k):
    with fresh_cache() as cache:
        pmf_head(n, 1, HALF, 32)  # a cached row and prefix of (n, 1/2), which the variance must not touch
        before = [(key, id(value)) for key, (value, _) in cache._entries.items()], cache.nbytes
        d = build_distribution(AdmissibleTriple(n, k, HALF), n_max=n)
        with monkeypatch.context() as mp:
            for name in ("_first_kind_prefix_scaled", "_prefix"):
                mp.setattr(distribution, name, lambda *args, name=name: pytest.fail(f"{name} {args}"))
            var = d.variance()
        assert ([(key, id(value)) for key, (value, _) in cache._entries.items()], cache.nbytes) == before
    if n == 60:
        assert var == variance_via_pmf(d)


# stats stdout as the row-sum variance and parity printed it: (argv, stdout length, SHA-256)
STATS_GOLDEN = [
    ("stats --n 245 --k 2 --r 1/2", 1361, "f4ecd2224e169e1460f03db858edd685e679e8452d8bec1a60067b4eda233eae"),
    ("stats --n 1400 --k 1 --r 1/2", 7640, "45b5a496f483b6ea43590295c9e1e3690a0bc64a7f2395052325cb0b92328f80"),
]


@pytest.mark.parametrize("argv, length, sha", STATS_GOLDEN)
def test_stats_grows_no_row_to_full_width(monkeypatch, capsys, argv, length, sha):
    reads = []
    real = distribution._head_row

    def spy(n, k, r, j_hi, size=0):
        reads.append((n, j_hi))
        return real(n, k, r, j_hi, size)

    monkeypatch.setattr(distribution, "_head_row", spy)
    with fresh_cache():
        assert cli_main(argv.split()) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (length, sha)
    assert reads and all(j_hi < n for n, j_hi in reads)


# stats stdout of the row-free summaries, pinned before the variance became the
# two-harmonic-sum closed form: (argv, stdout length, SHA-256)
STATS_PINNED = [
    ("--format json stats --n 250 --k 0 --r 1/2", 1356, "160c260fe50189948a12f85f8fff4fc685146c5f3ff584f80829006e49a9b903"),
    ("--format json stats --n 236 --k 3 --r 0", 1296, "ede0ef5bf01a50796db17132560eefb876ba1a253026177201b39281e9003ea7"),
    ("--format json stats --n 260 --k 1 --r 1", 1412, "6805886b5ef91e1ebb51f8054d38e6de0e6eded27104f7564e096528af6cd76d"),
    ("--format json stats --n 1400 --k 1390 --r 1/2", 457, "2f2bfc0460f3afdb3a6f8cf36c65a3e50c13adfb2bac8d3e84707964fc50976b"),
    ("--format json stats --n 1400 --k 700 --r 1/3", 9940, "542bd9787e096f9be9d1ccb6e69889805721dfc70644021ea41d7748a225aab7"),
    ("--format json stats --n 1 --k 1 --r 0", 184, "7d427d20e77d284d8271b6c29a4d9d3d9e51ecf1f66257c86dbe25b31eaa1de7"),
    ("--format json stats --n 2 --k 0 --r 1/2", 199, "4342115abae80988c863005baef49f72e920e41530647cf72bf9bc3dcc76114c"),
    ("--format json stats --n 3 --k 3 --r 3/2", 186, "7ea792a4c0e19f8fc212b230d76c01c1f367ab147b38b4c2ea871b8f37061815"),
    ("--format csv stats --n 250 --k 0 --r 1/2", 1297, "cbbdf71073a49b1ae7275b91115520b51a87c73f667706fceaa6ede865933c80"),
    ("--format csv stats --n 236 --k 3 --r 0", 1237, "f6c45d8bb77b0b01947249076313f67ddba62afd7c86eca8ccb1629f964a0650"),
    ("--format csv stats --n 260 --k 1 --r 1", 1353, "2ea384185e4bcb38831dcf3e430923e772a47f59cf6b986bbb5a91f9b6fb2b49"),
    ("--format csv stats --n 1400 --k 1390 --r 1/2", 398, "649179af4227c31e9a574baa1d5f5ec8ad373d755e728f0b81b44117d01e8e3d"),
    ("--format csv stats --n 1400 --k 700 --r 1/3", 9881, "dea54e82cba262d0196582153959fd26a0f12231d3ddd9ef88cf69b44db3db7d"),
    ("--format csv stats --n 1 --k 1 --r 0", 125, "2bf92199b4333e43cce10a8b9396eb4926b25851c4b072aef370d620e2f60802"),
    ("--format csv stats --n 2 --k 0 --r 1/2", 140, "b4602ec6c1f20eb1a597daa55ad7fc46da910816417c879c4957bf24806965af"),
    ("--format csv stats --n 3 --k 3 --r 3/2", 127, "32e3d46363d69039710d0168d116f79cb629f69b5c12425a4a0abf05435538d3"),
]


@pytest.mark.parametrize("argv, length, sha", STATS_PINNED)
def test_stats_stdout_is_pinned(capsys, argv, length, sha):
    with fresh_cache():
        assert cli_main(argv.split()) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (length, sha)


# stdout of the reads near k = n and of first-kind entries across a row, pinned
# before the first-kind kernel took a lower column edge: (argv, stdout length, SHA-256)
BAND_PINNED = [
    ("--format json stats --n 4000 --k 3990 --r 1/2", 500, "2ab82874f4df3f70f403308137ce8dcee0a254233b524402868a0ed8413b7cd7"),
    ("--format csv stats --n 4000 --k 3990 --r 1/2", 441, "831cb21be63b3c1701787c71eb0c5d35a7d4c92c4e227925eb38da69e8cb16c0"),
    ("--format json stats --n 4000 --k 3900 --r 1/2", 2161, "06e11e6f4123b6f304284bfe40507fc29766bae8d4055214bd5f35e2dc0044ce"),
    ("--format csv stats --n 4000 --k 3900 --r 1/2", 2102, "3f67ea8d96727a3442f8d7cf88814ae39523024cee2ccb3741334631b3d4acdf"),
    ("--format csv pmf --n 4000 --k 3990 --r 1/2", 1068, "7d8eb277ce6461c4f61fd5ca6911b5e8348927b2d8907b75a25b1dcd0185a719"),
    ("--format json pmf --n 4000 --k 3990 --r 1/2 --cdf", 2630, "42a55216243e3db88e4e28d97d500992d05418861c24f9b8d271e086c91f54a3"),
    ("pmf --n 1400 --k 1390 --r 1/2 --cdf", 1705, "5beb9085aace2e79d1ffdb821b70575c3a4654a7169fa55ded2ca7bc8a7b99ce"),
    ("stirling --kind first --n 4096 --k 4000 --r 1/2", 576, "800f1f7c46a371c46c11f2e8fcd8abdfcf3e1b82f84684164eea5cb08b699038"),
    ("stirling --kind first --n 2000 --k 1990 --r 1/2", 70, "0bec4b613751cb551cd9516a3845f9dc34a83563f06e6ec74f57578dc24c3ad5"),
    ("stirling --kind first --n 1400 --k 700 --r 1/3", 3052, "79e360d62ef72d5e5e81a727bddbd96e5a5442c698d4a1a25a3a7d0316400343"),
    ("stirling --kind first --n 260 --k 259 --r 1", 12, "a139c055f12c6e672ce15933b146afa7da879a0f9d1750e8e194cc76d49a15bc"),
    ("stirling --kind first --n 10 --k 0 --r 0", 8, "42c469b328e1dc5fc2b08960fcc2590e14cef8f59c0197a604bd353ec47320c2"),
]


@pytest.mark.parametrize("argv, length, sha", BAND_PINNED)
def test_band_reads_stdout_is_pinned(capsys, argv, length, sha):
    with fresh_cache():
        assert cli_main(argv.split()) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (length, sha)


def test_stats_near_k_equals_n_runs_one_band(monkeypatch, capsys):
    """The mode's row at (4000, 3990) is the band from column 2k - n = 3980 up,
    about 21 columns a row, not the 4001-column prefix."""
    runs = []
    kernel = distribution._first_kind_prefix_scaled

    def spy(n, r, j_max, start, lo):
        runs.append((n, min(j_max, n), start[0], lo))
        return kernel(n, r, j_max, start, lo)

    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", spy)
    with fresh_cache():
        assert cli_main("stats --n 4000 --k 3990 --r 1/2".split()) == 0
    assert '"mode": "3995"' in capsys.readouterr().out
    [(n, width, m, lo)] = runs
    assert (n, width, m) == (4000, 4000, 0) and lo >= 3980


# -- byte-identical CLI output ---------------------------------------------------------

ASYMPTOTICS_GOLDEN = """\
n,statistic,exact,approximant,gap
300,clt_kolmogorov,0.1145645783959024,0.0,0.1145645783959024
300,llt_sup_gap,0.08691924840582875,0.0,0.08691924840582875
300,mod_poisson_residual[z=-0.5],1.1016814187505843,1.1276831220846328,0.026001703334048498
300,mod_poisson_residual[z=0.3],0.7434008606257798,0.7391437027322936,0.004257157893486241
300,mod_poisson_residual[z=1],0.07927436170935567,0.07714970570030037,0.0021246560090553007
300,mode,8.0,7.5,0.5
300,ldp_tail[x=2],0.001321355403378738,0.0023000433690076854,0.0009786879656289475
300,ldp_tail[x=0.5],0.07742583986751934,0.09360085225902287,0.016175012391503527
1000,clt_kolmogorov,0.10494201163097494,0.0,0.10494201163097494
1000,llt_sup_gap,0.07884402726240389,0.0,0.07884402726240389
1000,mod_poisson_residual[z=-0.5],1.1149561823602194,1.1276831220846328,0.01272693972441341
1000,mod_poisson_residual[z=0.3],0.7404704447540648,0.7391437027322936,0.0013267420217711878
1000,mod_poisson_residual[z=1],0.07778310524468707,0.07714970570030037,0.0006333995443866952
1000,mode,9.0,9.5,0.5
1000,ldp_tail[x=2],0.0004553112596811729,0.000793790572232428,0.00033847931255125504
1000,ldp_tail[x=0.5],0.06025588519819109,0.06937184971378466,0.009115964515593565
"""

# the faces table has 170574 bytes of exact integers; its SHA-256 pins every byte
FACES_GOLDEN_SHA256 = "72878406fbe4be1ea4ddb29e78ef3f8d1da66bee2d9d258cd2617c63a7b6c741"


def test_cli_stdout_is_byte_identical_to_the_fraction_heads(capsys):
    with fresh_cache():
        assert cli_main(["asymptotics", "--n", "300,1000", "--k", "1", "--r", "1/2"]) == 0
        assert capsys.readouterr().out == ASYMPTOTICS_GOLDEN
        assert cli_main(["faces", "--d-range", "3:7", "--n-range", "1500:1503", "--k", "2"]) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (170574, FACES_GOLDEN_SHA256)


# pmf, pmf --cdf, stats, stirling (both kinds) and lah, in CSV and JSON, at warm
# and fresh r, n from 150 to 260: (argv, stdout length, stdout SHA-256) as the
# recurrence triangles printed them
TABLES_GOLDEN = [
    ("--format csv pmf --n 150 --k 1 --r 0", 53618, "c296b92f82969dd5494708a88ee75fb1b19047638fcbeeedf6219191b8ead125"),
    ("--format csv pmf --n 260 --k 2 --r 0 --cdf", 437095, "b8b4e9b18ac8a2444a46686fc998df85fb554ef116d80f73fee81862bbc703fa"),
    ("--format csv stats --n 200 --k 1 --r 0", 1068, "d632d484db1ba2ffde4f0db093871a8ae23da85c899170dcbf6e5f5c401f1127"),
    ("--format csv stirling --kind first --n 170 --k 40 --r 0", 287, "e63ffa2a01c6564c6a7d73d9e0b996bf1e2d7dcc37b037bcddceea18863e1a61"),
    ("--format csv stirling --kind second --n 250 --k 230 --r 0", 78, "60436bbe13bafad997bf43731bc9b8ba69983afe38efdd0e9b7fa7f9e6ecd6e9"),
    ("--format csv lah --n 160 --k 12 --r 0", 300, "b93668bd4cc921015fe1fc38387f196214136556441f39b323af7037eb0d8804"),
    ("--format json pmf --n 153 --k 1 --r 0", 62731, "d5e12d18972f44a8394ae1d0b6e39978874088270765ea7fe9b3b2234dbed77d"),
    ("--format json pmf --n 257 --k 2 --r 0 --cdf", 442087, "6146328ac90547992e1f91a6e860949dc95f99cfd855c3b0a93a9b5b5da05c79"),
    ("--format json stats --n 203 --k 1 --r 0", 1134, "3e9323f0a885665ad5947d3d5e9b733a372d69f441c7aa454638bf3e716a0a94"),
    ("--format json stirling --kind first --n 176 --k 43 --r 0", 304, "3483a88ae9f9871a16599f94af538a410c62b7602b3153bbab94f1305c81233d"),
    ("--format json stirling --kind second --n 247 --k 224 --r 0", 94, "58fa0f73011117239b9327f22dfd5708715cc68c71519fad1f66d9b1953267d4"),
    ("--format json lah --n 169 --k 15 --r 0", 327, "832b309567fa0f4811abc34ef832b2372533d413f6ab647eab2440e482687774"),
    ("--format csv pmf --n 157 --k 0 --r 1/2", 73551, "2cc12035e0de450626c6948cda1847f2f616c536980eefe4cbeb802d7a945a55"),
    ("--format csv pmf --n 253 --k 1 --r 1/2 --cdf", 497760, "d490f1254edd8f2763e36caac9adc30f1975ee7298561fe88d1d9238a05798c7"),
    ("--format csv stats --n 207 --k 0 --r 1/2", 1090, "da0c2b4a19668d858dbcd78c0d0cd45c153f44e8f668bcfd292a24893b4ad2eb"),
    ("--format csv stirling --kind first --n 184 --k 47 --r 1/2", 391, "4aca4337849939388860a4623016d2c43810872d763c3428a829a2daa50f35a8"),
    ("--format csv stirling --kind second --n 243 --k 216 --r 1/2", 115, "8b1e3ead26b12c1340ff49d267abfa3f38fda99739ab7df64df7115395a3f1b3"),
    ("--format csv lah --n 181 --k 19 --r 1/2", 347, "9d67cd2ecab830243e987c9509b7b21a5cde54debf9b1d5890fdcf61d987e949"),
    ("--format json pmf --n 160 --k 0 --r 1/2", 83598, "56f3f6dad140f6a2e55da3d4069771fce8d12b1a9e8fe70625681070397cb73f"),
    ("--format json pmf --n 250 --k 1 --r 1/2 --cdf", 503636, "e0b6559df28f71972c1608436bf53a6da06bb46de99510f7b727e912c063891a"),
    ("--format json stats --n 210 --k 0 --r 1/2", 1158, "d6b33d2b09c80ee3a82996aa1ccd99d65f8c3ebc0080c7700d5a03cd34d07496"),
    ("--format json stirling --kind first --n 190 --k 50 --r 1/2", 414, "7f30b6454be554a4ed2c61ce1904f327bba60e4c403f479d97d310a99cc123cc"),
    ("--format json stirling --kind second --n 240 --k 210 --r 1/2", 130, "29eb9eeb5efa0f74309d1b63c500a7fd9767fa63a80c337712d0c8b7e8263c44"),
    ("--format json lah --n 190 --k 22 --r 1/2", 374, "0c3871d9f42678d8f670fc8c5a245bd44b8ec1e1d08b5e09a0b9cfcd7e59374b"),
    ("--format csv pmf --n 164 --k 2 --r 1", 70938, "eccaf5cbbd18d17c13df5dc70c8f52bbe43a7e81ddf9962469442fac0a040299"),
    ("--format csv pmf --n 246 --k 3 --r 1 --cdf", 399342, "98d59e3f46ddbfeeec03a93ed21a2f4d18dd392d4d76357a3844721d0fff5c80"),
    ("--format csv stats --n 214 --k 2 --r 1", 1129, "4e947d440995777f0929aab7e149d075e5f99adcb14fd76302fee4d2826767a6"),
    ("--format csv stirling --kind first --n 198 --k 54 --r 1", 334, "1015db51ddd9c043e91be596262a6cd4c5a1ecf5e6fcf18f9417db13b0386049"),
    ("--format csv stirling --kind second --n 236 --k 202 --r 1", 117, "8f5b014125123bf5e6702e9c82a6ecb1e91ae73a9942c129878dba00d050224a"),
    ("--format csv lah --n 202 --k 26 --r 1", 394, "c84f8d6f564504db3cdbe18226580a7f6d8c72339e33206dc773514a850ae115"),
    ("--format json pmf --n 167 --k 2 --r 1", 81613, "dea70d9e9681e8d4a0842de2fe5dbbc70d2ed5b499ff5a70b2fd13769554fc75"),
    ("--format json pmf --n 243 --k 3 --r 1 --cdf", 405971, "72ee32cec95c98cb2608d7bbbd4f4bc08c27be3b11fd6abfeb1f32cb5de2b5b7"),
    ("--format json stats --n 217 --k 2 --r 1", 1192, "da510677cacfbf67a95f5de3cbc3f0663380b9e0dfc7ef454b6aae63fa37154d"),
    ("--format json stirling --kind first --n 204 --k 57 --r 1", 351, "0d1f13ec58d4d2ede93f33c5fd8d07865540e3411b70795c80dad943c19a7ccd"),
    ("--format json stirling --kind second --n 233 --k 196 --r 1", 132, "c5e5936d8b08865738fb3aac4bc13ca939ea290800d298f5dd4a144ab1d92375"),
    ("--format json lah --n 211 --k 29 --r 1", 420, "e7fd429c1783dcbf552b7a158c357d48d494ae2eedf1d21b75cbbe0aa5b906d6"),
    ("--format csv pmf --n 171 --k 0 --r 5/7", 111419, "c1845fee867e4681b1dcac9991854fe1e45a6e2de34b8203e63b987c73ae4924"),
    ("--format csv pmf --n 239 --k 1 --r 5/7 --cdf", 551761, "f037db6a0341e834f613b0a241b7e762aba585aad761feb9ba57aa74f703501f"),
    ("--format csv stats --n 221 --k 0 --r 5/7", 2599, "faa148bb1f478716c0ef0d492535c06867b7ed8e329b638e1d41be8d420be59e"),
    ("--format csv stirling --kind first --n 212 --k 61 --r 5/7", 612, "be43af5b8090b2225d700453279f047fd3e9a343fcb12ffa547068fc1598870e"),
    ("--format csv stirling --kind second --n 229 --k 188 --r 5/7", 202, "a3ccd32653b09f52396d41cdde0994d12bab3d9c421fd3fd7923b3f25ba431d0"),
    ("--format csv lah --n 223 --k 33 --r 5/7", 760, "b1ea2953f11810efeef7d405fdc7e25fb45c9803342fcfd9bc989201f87f55b0"),
    ("--format json pmf --n 174 --k 0 --r 5/7", 122820, "e9d4d3a6e2bc0aa21a61a5c19c1cb4a8abd4e3c7402b7e4b922480a2aed1d1cf"),
    ("--format json pmf --n 236 --k 1 --r 5/7 --cdf", 552852, "a17134f2dc4b964e09d37144430e435105e516f8fd17cd7ab5ae82237d3f162d"),
    ("--format json stats --n 224 --k 0 --r 5/7", 2689, "e88e5852d05ec21b26450a99ab0eb9cfda4255fd66d68343fb0e1dade5f3b6ee"),
    ("--format json stirling --kind first --n 218 --k 64 --r 5/7", 636, "9c903d4a7503d5ffed7897efaeced7793b037ca9b61c4863260eb70c5d84148b"),
    ("--format json stirling --kind second --n 226 --k 182 --r 5/7", 223, "345cfbef50912e3e71ce62e0fe059690236daf5b7ee4fb938248d9edd809c532"),
    ("--format json lah --n 232 --k 36 --r 5/7", 798, "21e916919e9bdf273b7ee0cbea4e53e5eee861334cda74504b47eb04768bfcb9"),
    ("--format csv pmf --n 178 --k 3 --r 13/11", 150630, "15bad8a266ac4e0f80e1d7f912a466f1461a3b96603045d4a815f0d6a80ff6af"),
    ("--format csv pmf --n 232 --k 4 --r 13/11 --cdf", 565072, "d9612211ff128e96c148dfa0e3d4c7a1eeaea68710f94438ff249652bd9b65c2"),
    ("--format csv stats --n 228 --k 3 --r 13/11", 2972, "d4463477d34c3256de12599211bfb40fa7b976a7c4cf5a04a47b360003e3f6ba"),
    ("--format csv stirling --kind first --n 226 --k 68 --r 13/11", 711, "bfc39f3dab4b99975f626b63b09e3c26c872267ba42db782cd69b7a5b36b9b29"),
    ("--format csv stirling --kind second --n 222 --k 174 --r 13/11", 250, "5d668ac554cdd546d6f3977045996c0a7c6f80d096a32636bd92ffdc32030a3f"),
    ("--format csv lah --n 244 --k 40 --r 13/11", 907, "38a0b844d74e6424481d4e9e05f75ecf6c5195ad60a8197c8ccad03954b734d8"),
    ("--format json pmf --n 181 --k 3 --r 13/11", 164769, "9de6432d659cc12f1a720101b739c7bfebecb23765fe66ff53198c839136166b"),
    ("--format json pmf --n 229 --k 4 --r 13/11 --cdf", 563466, "386b13d9907a78b05b007e3b6a3f1a87ca8a5de7e0aec9fd9416a5eba36b7661"),
    ("--format json stats --n 231 --k 3 --r 13/11", 3068, "bc76b8389cf3e8cedbf4626aca1caac4af71165b78d649018f7413c35e9eb80e"),
    ("--format json stirling --kind first --n 232 --k 71 --r 13/11", 732, "3e9ca88455fe6e3fdaf594cdd3a2777acbd384a242d9c500401ac34dfa90ec3a"),
    ("--format json stirling --kind second --n 219 --k 168 --r 13/11", 272, "cfb9a600fd51fe6db0a761222153d6159f2cac02424fb4012db0f41216accda1"),
    ("--format json lah --n 253 --k 43 --r 13/11", 946, "95db7c5d6e32a250b1ee80e45ab8310e494b998f6b069109b86a607c80b5347c"),
]


def test_cli_tables_are_byte_identical_to_the_triangle(capsys):
    wrong = []
    with fresh_cache():
        for argv, length, sha in TABLES_GOLDEN:
            assert cli_main(argv.split()) == 0
            out = capsys.readouterr().out.encode()
            if (len(out), hashlib.sha256(out).hexdigest()) != (length, sha):
                wrong.append(argv)
    assert wrong == []
