"""Tests for the exact r-Lah distribution.

The heavyweight oracle here is the bivariate series expansion of
((1-x)^-t - 1)^k (1-x)^-(rt+r): its coefficient of t^j x^n must reproduce
(k!/n!) c(n,j)_r S(j,k)_r, which pins the PMF numerators to the generating
function independently of the recurrence tables.
"""

import contextlib
import hashlib
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlah import distribution
from rlah.asymptotics import _log_fraction
from rlah.cli import main as cli_main
from rlah.distribution import (
    AdmissibleTriple,
    build_distribution,
    mode_exact,
    pgf_eval,
    pmf_head,
)
from rlah.errors import CapacityExceeded, InadmissibleParameters, InvalidParameter
from rlah.stirling import StirlingKind, stirling_r

HALF = F(1, 2)


def dist(n, k, r):
    return build_distribution(AdmissibleTriple(n, k, F(r)))


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
            assert d.expectation() == d.expectation_alt() == d.mean_via_pmf()


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
    assert dist(3, 1, HALF).parity_probabilities() == (HALF, HALF)
    assert dist(2, 1, HALF).parity_probabilities() == (HALF, HALF)
    even, odd = dist(6, 6, F(1)).parity_probabilities()
    assert (even, odd) == (1, 0)
    even, odd = dist(5, 5, F(1)).parity_probabilities()
    assert (even, odd) == (0, 1)


@pytest.mark.parametrize("r", [F(0), HALF, F(1), F(7, 3)])
def test_parity_half_half_whenever_n_gt_k(r):
    for n in range(1, 16):
        for k in range(n):
            if k == 0 and r == 0:
                continue
            assert dist(n, k, r).parity_probabilities() == (HALF, HALF)


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
    assert dist(2, 1, HALF).pgf(2) == 3


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
                assert pgf_eval(params, t) == d.pgf(t)


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

def test_csv_roundtrip():
    d = dist(3, 1, HALF)
    text = d.csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "j,pmf_num,pmf_den,pmf_float"
    parsed = [line.split(",") for line in lines[1:]]
    values = {int(j): F(int(num), int(den)) for j, num, den, _ in parsed}
    assert values == {1: F(23, 72), 2: F(1, 2), 3: F(13, 72)}


def test_json_roundtrip():
    d = dist(3, 1, HALF)
    blob = json.dumps(d.to_json_dict())
    back = json.loads(blob)
    assert F(back["pmf"]["1"]) == F(23, 72)
    assert F(back["cdf"]["2"]) == F(59, 72)
    assert F(back["normalizer"]) == 18
    assert F(back["r"]) == HALF


def test_csv_with_cdf_columns():
    text = dist(3, 1, HALF).csv_text(include_cdf=True)
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
        assert head.lower_tail(9) == d.cdf(9)


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
        assert mode_exact(n, k, r) == dist(n, k, r).mode()


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
    if n > k:
        assert d.parity_probabilities() == (HALF, HALF)


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


def assert_head_matches(head, d):
    k = d.params.k
    for j in range(k - 1, head.j_hi + 1):
        assert head.pmf(j) == d.pmf(j)
        assert head.head_cdf(j) == head.lower_tail(j) == d.cdf(j)
        assert head.upper_tail(j + 1) == 1 - d.cdf(j)


def test_head_grown_in_any_window_order_matches_fresh_and_oracle():
    n, k, r = 90, 1, HALF
    d = dist(n, k, r)
    with fresh_cache() as cache:
        heads = [pmf_head(n, k, r, w) for w in (40, 12, 80)]
        assert [key[0] for key in cache._entries] == ["prefix", "head"]  # one row, grown 40 -> 80
        for head in heads:
            window = range(k, head.j_hi + 1)
            grown = [head.pmf(j) for j in window]
            with fresh_cache():
                assert [pmf_head(n, k, r, head.j_hi).pmf(j) for j in window] == grown
            assert_head_matches(head, d)


@given(triples(), st.lists(st.integers(min_value=0, max_value=18), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_head_windows_in_random_order(triple, windows):
    n, k, r = triple
    d = dist(n, k, r)
    with fresh_cache():
        for w in windows:
            head = pmf_head(n, k, r, max(w, k))
            assert_head_matches(head, d)
        full = pmf_head(n, k, r, n)
        assert full.head_cdf(n + 5) == 1 and full.upper_tail(n + 1) == 0


@pytest.mark.parametrize("n,k,r", [(40, 2, HALF), (1000, 1, HALF), (3000, 0, F(7, 3)), (300, 2, F(0))])
def test_float_and_log_accessors_are_bit_identical(n, k, r):
    head = pmf_head(n, k, r, 200)
    for j in range(k - 1, head.j_hi + 1):
        p = head.pmf(j)
        assert head.pmf_float(j) == float(p)
        assert head.log_pmf(j) == _log_fraction(p)
        assert head.log_pmf(j) == _log_fraction(p)  # memoized value


def test_two_k_share_one_first_kind_prefix(monkeypatch):
    calls = []
    kernel = distribution._first_kind_prefix_scaled

    def counted(n, r, j_max):
        calls.append(j_max)
        return kernel(n, r, j_max)

    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", counted)
    with fresh_cache():
        pmf_head(500, 1, HALF, 30)
        pmf_head(500, 2, HALF, 25)
        assert calls == [30]
        pmf_head(500, 2, HALF, 40)  # past the cached prefix: recomputed, at least doubled
        assert calls == [30, 60]
        pmf_head(500, 1, HALF, 55)
        assert calls == [30, 60]


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
