"""Exact-core tests: r-Stirling numbers, r-Lah numbers, and their identities.

The integer slices behind ``stirling_r`` are cross-validated against the
recurrence triangles (``table_for``) and the polynomial-in-r formulas over
ordinary Stirling numbers, and the r-Lah closed form against the
convolution sum; the oracles are independent of the production path.
"""

import math
import random
import threading
from fractions import Fraction as F

import pytest

from rlah import stirling as stirling_module
from rlah.errors import CapacityExceeded, InadmissibleParameters, InvalidParameter
from rlah.stirling import (
    StirlingKind,
    _first_kind_prefix_scaled,
    _power_sum,
    _second_kind_column_scaled,
    first_kind_prefix,
    gen_binomial,
    harmonic_diff,
    lah_r,
    stirling_r,
)

from law_oracle import harmonic_diff_by_terms, harmonic_squares_by_terms, stirling_r_poly, table_for

FIRST, SECOND = StirlingKind.FIRST, StirlingKind.SECOND
R_GRID = [F(0), F(1, 2), F(1), F(7, 3)]


def lah_by_summation(n, k, r):
    return sum(
        stirling_r(FIRST, n, j, r) * stirling_r(SECOND, j, k, r) for j in range(k, n + 1)
    )


class TestSpecValues:
    def test_second_kind_column_zero_is_r_power(self):
        assert stirling_r(SECOND, 3, 0, F(1, 2)) == F(1, 8)
        for n in range(8):
            assert stirling_r(SECOND, n, 0, F(7, 3)) == F(7, 3) ** n

    def test_first_kind_column_zero_is_rising_factorial(self):
        for n in range(8):
            expected = math.prod((F(1, 2) + i for i in range(n)), start=F(1))
            assert stirling_r(FIRST, n, 0, F(1, 2)) == expected

    def test_diagonal_is_one(self):
        assert stirling_r(FIRST, 5, 5, F(7, 3)) == 1
        assert stirling_r(SECOND, 9, 9, F(1, 2)) == 1

    def test_first_kind_2_1_half(self):
        # oracle: 1 + 2r at r = 1/2
        assert stirling_r(FIRST, 2, 1, F(1, 2)) == 2
        assert stirling_r_poly(FIRST, 2, 1, F(1, 2)) == 2

    def test_poly_examples(self):
        assert stirling_r_poly(SECOND, 2, 1, F(1, 2)) == 2  # 2r + 1
        assert stirling_r_poly(FIRST, 3, 3, F(4)) == 1
        assert stirling_r_poly(FIRST, 3, 1, F(1, 2)) == F(23, 4)
        assert stirling_r(FIRST, 3, 1, F(1, 2)) == F(23, 4)

    def test_out_of_range_is_zero(self):
        assert stirling_r(FIRST, 3, 4, F(1, 2)) == 0
        assert stirling_r(SECOND, 3, -1, F(1, 2)) == 0

    def test_base_entry(self):
        assert stirling_r(FIRST, 0, 0, F(7, 3)) == 1
        assert stirling_r(SECOND, 0, 0, F(0)) == 1


class TestErrors:
    def test_negative_r(self):
        with pytest.raises(InvalidParameter):
            stirling_r(FIRST, 3, 1, F(-1, 2))

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            stirling_r(FIRST, 50, 1, F(1, 2), n_max=10)
        with pytest.raises(CapacityExceeded):
            lah_r(50, 1, F(1, 2), n_max=10)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RLAH_N_MAX", "5")
        with pytest.raises(CapacityExceeded):
            stirling_r(FIRST, 6, 1, F(1, 2))
        assert stirling_r(FIRST, 5, 1, F(1, 2)) > 0


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("kind", [FIRST, SECOND])
def test_recurrence_matches_polynomial_formula(kind, r):
    for n in range(13):
        for k in range(n + 1):
            assert stirling_r(kind, n, k, r) == stirling_r_poly(kind, n, k, r)


@pytest.mark.parametrize("r", R_GRID)
def test_lah_closed_form_matches_summation(r):
    for n in range(1, 13):
        for k in range(n + 1):
            if k == 0 and r == 0:
                continue
            assert lah_r(n, k, r) == lah_by_summation(n, k, r)


def test_lah_spec_values():
    assert lah_r(2, 1, F(1, 2)) == 4
    assert lah_r(3, 1, F(1, 2)) == 18
    assert lah_r(5, 5, F(3)) == 1


def test_lah_rejects_k0_r0():
    with pytest.raises(InadmissibleParameters):
        lah_r(3, 0, F(0))


@pytest.mark.parametrize("r", R_GRID)
def test_alternating_sum_vanishes(r):
    for n in range(1, 13):
        for k in range(n):
            total = sum(
                (-1) ** (n - j) * stirling_r(FIRST, n, j, r) * stirling_r(SECOND, j, k, r)
                for j in range(k, n + 1)
            )
            assert total == 0


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("kind", [FIRST, SECOND])
def test_rows_strictly_log_concave(kind, r):
    for n in range(1, 13):
        row = [stirling_r(kind, n, k, r) for k in range(n + 1)]
        for k in range(1, n):
            assert row[k] * row[k] > row[k - 1] * row[k + 1], (kind, r, n, k)


@pytest.mark.parametrize("r", R_GRID)
def test_second_kind_column_property(r):
    # Equality holds for k = 0 and, degenerately, for (k=1, r=0) where the
    # column is constant 1; strict inequality everywhere else.
    for k in range(0, 6):
        for j in range(k + 1, 12):
            left = stirling_r(SECOND, j, k, r) ** 2
            right = stirling_r(SECOND, j - 1, k, r) * stirling_r(SECOND, j + 1, k, r)
            if k == 0 or (k == 1 and r == 0):
                assert left == right
            else:
                assert left > right


@pytest.mark.parametrize("r", R_GRID)
def test_second_kind_ratio_monotonicity(r):
    for k in range(1, 5):
        rising = [
            stirling_r(SECOND, j + 1, k, r) / stirling_r(SECOND, j, k, r)
            for j in range(k, 12)
        ]
        if k == 1 and r == 0:
            # the degenerate constant column: ratios are all exactly 1
            assert all(v == 1 for v in rising)
        else:
            assert all(a > b for a, b in zip(rising, rising[1:]))
        cross = [
            stirling_r(SECOND, j, k + 1, r) / stirling_r(SECOND, j, k, r)
            for j in range(k + 1, 12)
        ]
        assert all(a < b for a, b in zip(cross, cross[1:]))


@pytest.mark.parametrize("r", [F(0), F(1, 2), F(7, 3)])
def test_first_kind_row_polynomial_identity(r):
    # sum_j c(n,j)_r x^j = (x+r)(x+r+1)...(x+r+n-1) at x in {1, 2, -r}
    for n in range(1, 11):
        for x in (F(1), F(2), -r):
            lhs = sum(stirling_r(FIRST, n, j, r) * x ** j for j in range(n + 1))
            rhs = math.prod((x + r + i for i in range(n)), start=F(1))
            assert lhs == rhs


class TestHarmonicDiff:
    def test_values(self):
        assert harmonic_diff(0, 3) == F(11, 6)
        assert harmonic_diff(F(7, 3), 0) == 0
        assert harmonic_diff(1, 1) == F(1, 2)

    def test_matches_the_running_sum(self):
        # one reduction at the end gives the same Fraction as one per term,
        # for the sum and for the sum of squares that the variance reads
        rng = random.Random(20)
        for _ in range(60):
            q = rng.choice([1, 1, 2, 3, 7, 10 ** 6 + 3])
            alpha = F(rng.randint(-q + 1, 5 * q), q)
            m = rng.choice([rng.randint(0, 12), rng.randint(13, 400)])
            assert harmonic_diff(alpha, m) == harmonic_diff_by_terms(alpha, m), (alpha, m)
            assert _power_sum(alpha, m, 2) == harmonic_squares_by_terms(alpha, m), (alpha, m)
        assert harmonic_diff(F(1, 2), 3000) == harmonic_diff_by_terms(F(1, 2), 3000)
        assert _power_sum(F(1, 2), 3000, 2) == harmonic_squares_by_terms(F(1, 2), 3000)

    def test_domain(self):
        with pytest.raises(InvalidParameter):
            harmonic_diff(F(-3, 2), 2)
        with pytest.raises(InvalidParameter):
            harmonic_diff(-1, 1)


class TestGenBinomial:
    def test_integer_case(self):
        assert gen_binomial(4, 2) == 6
        assert gen_binomial(F(7, 3), 0) == 1

    def test_reduces_to_binomial_at_r_half(self):
        # 2r - 1 = 0 turns binom(n+2r-1, k+2r-1) into binom(n, k)
        for n in range(1, 9):
            for k in range(n + 1):
                assert gen_binomial(n, n - k) == math.comb(n, k)

    def test_zero_factor_rejected(self):
        with pytest.raises(InvalidParameter):
            gen_binomial(1, 2)  # factor (1 - 2 + 1) = 0
        with pytest.raises(InvalidParameter):
            gen_binomial(2, 3)  # factor (2 - 3 + 1) = 0


class TestPrefixSlices:
    def test_first_kind_prefix_matches_table(self):
        for r in (F(0), F(1, 2), F(7, 3)):
            prefix = first_kind_prefix(30, r, 12)
            for j in range(13):
                assert prefix[j] == table_for(FIRST, r).value(30, j)

    def test_second_kind_column_matches_table(self):
        # every band edge: k = 0, k = j_max, and k past j_max (an all-zero column)
        for r in (F(0), F(1, 2), F(7, 3)):
            for k in range(7):
                for j_max in (*range(10), 25):
                    column = _second_kind_column_scaled(k, r, j_max)
                    want = [table_for(SECOND, r).value(j, k) for j in range(j_max + 1)]
                    assert [F(t, r.denominator ** j) for j, t in enumerate(column)] == want

    def test_prefix_clamps_to_n(self):
        assert len(first_kind_prefix(4, F(1, 2), 99)) == 5

    def test_first_kind_band_equals_the_prefix_slice(self):
        """Seeded bands [lo, hi] of row n against a fresh prefix run, from row 0
        and stepped up from a row m that is itself a band, exact only from
        column max(0, lo - (n - m)); nothing but 0 lies below the edge."""
        rng = random.Random(22)
        for _ in range(400):
            n = rng.randint(0, 80)
            r = rng.choice([F(0), F(1, 2), F(7, 3), F(rng.randint(0, 12), rng.randint(1, 12))])
            hi = rng.randint(0, n + 3)
            lo = rng.randint(0, min(hi, n))
            fresh = _first_kind_prefix_scaled(n, r, hi)
            m = rng.randint(0, n)
            row_m = _first_kind_prefix_scaled(m, r, m, lo=max(0, lo - (n - m)))
            for start in ((0, (1,)), (m, row_m), (m, row_m[: min(hi, n) + 1])):
                band = _first_kind_prefix_scaled(n, r, hi, start, lo)
                assert band[:lo] == [0] * lo and band[lo:] == fresh[lo:], (n, r, hi, lo, start[0])

    def test_stirling_r_first_kind_runs_only_its_band(self, monkeypatch):
        """c(4096, 4000) carries at most n - k + 1 = 97 columns per row, not 4001."""
        runs = []
        kernel = stirling_module._first_kind_prefix_scaled

        def spy(n, r, j_max, start=(0, (1,)), lo=0):
            runs.append((n, min(j_max, n), start[0], lo))
            return kernel(n, r, j_max, start, lo)

        monkeypatch.setattr(stirling_module, "_first_kind_prefix_scaled", spy)
        assert stirling_r(FIRST, 4096, 4000, F(1, 2)) > 0  # its digits are pinned in tests/test_distribution.py
        [(n, width, m, lo)] = runs
        assert max(min(i, width) - max(0, lo - (n - i)) + 1 for i in range(m, n + 1)) <= 97


def test_concurrent_reads_fill_consistently():
    table = table_for(FIRST, F(3, 7))
    results = []

    def worker(n):
        results.append(table.value(n, n // 2))

    threads = [threading.Thread(target=worker, args=(40 + i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(8):
        assert table.value(40 + i, (40 + i) // 2) == stirling_r_poly(FIRST, 40 + i, (40 + i) // 2, F(3, 7))
