"""Cone face counts, thresholds, and recovery probabilities.

The two representations of the face ratio act as mutual oracles: rlah
computes it as a parity sum over the Lah(n,k)_{1/2} PMF head, and
``law_oracle`` holds the k!/n! alternating Stirling sum.  The parity
identity ties ratio and complement together exactly.
"""

import math
from fractions import Fraction as F

import pytest

from rlah.cones import (
    ConeFaceQuery,
    expected_face_count,
    face_ratio,
    recovery_probability,
    strong_threshold_check,
    weak_threshold,
)
from rlah.errors import CapacityExceeded, InvalidParameter
from rlah.montecarlo import estimate_recovery_probability
from rlah.stirling import StirlingKind, lah_r, stirling_r

from law_oracle import alternating_stirling_sum, expected_face_count_alt, face_ratio_complement

HALF = F(1, 2)


class TestQueryValidation:
    def test_rejects_bad_queries(self):
        with pytest.raises(InvalidParameter):
            ConeFaceQuery(2, 1, 0)  # n < d
        with pytest.raises(InvalidParameter):
            ConeFaceQuery(2, 3, 2)  # k > d-1
        with pytest.raises(InvalidParameter):
            ConeFaceQuery(0, 3, 0)

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            expected_face_count(ConeFaceQuery(2, 50, 1), n_max=10)
        with pytest.raises(CapacityExceeded):
            expected_face_count_alt(ConeFaceQuery(2, 50, 1), n_max=10)


class TestExpectedFaceCount:
    def test_plane_two_steps(self):
        assert expected_face_count(ConeFaceQuery(2, 2, 1)) == 2

    def test_dimension_one(self):
        # E[f_0] for d=1 is 2 P[Lah(n,0)_{1/2} = 0] = 2 c(n,0)_{1/2} / L(n,0)_{1/2}
        for n in range(1, 9):
            want = (
                2
                * stirling_r(StirlingKind.FIRST, n, 0, HALF)
                * stirling_r(StirlingKind.SECOND, 0, 0, HALF)
                / lah_r(n, 0, HALF)
            )
            assert expected_face_count(ConeFaceQuery(1, n, 0)) == want

    def test_frozen_grid_values(self):
        assert expected_face_count(ConeFaceQuery(2, 4, 1)) == F(11, 6)
        assert expected_face_count(ConeFaceQuery(3, 4, 1)) == F(43, 12)
        assert expected_face_count(ConeFaceQuery(3, 4, 2)) == F(43, 12)
        assert expected_face_count(ConeFaceQuery(3, 6, 2)) == F(12139, 2880)

    def test_ratio_route_agreement(self):
        # Eq-(1)-style sum == binom * parity-sum route, exactly
        for d in range(1, 9):
            for n in range(d, 17):
                for k in range(0, d):
                    q = ConeFaceQuery(d, n, k)
                    assert expected_face_count_alt(q) == expected_face_count(q) == math.comb(n, k) * face_ratio(q)

    def test_large_n_prefix_path_consistent(self):
        # same value through the alternating Stirling sum and the PMF head
        for q in (ConeFaceQuery(3, 200, 1), ConeFaceQuery(10, 500, 2)):
            assert expected_face_count_alt(q) == expected_face_count(q)


class TestFaceRatio:
    def test_plane_two_steps(self):
        assert face_ratio(ConeFaceQuery(2, 2, 1)) == 1

    def test_ratio_plus_complement_is_one(self):
        for d in range(1, 9):
            for n in range(d, 17):
                for k in range(0, d):
                    if n <= k:
                        continue
                    q = ConeFaceQuery(d, n, k)
                    assert face_ratio(q) + face_ratio_complement(q) == 1

    def test_ratio_in_unit_interval(self):
        for d in range(1, 7):
            for n in range(d, 15):
                for k in range(0, d):
                    assert 0 <= face_ratio(ConeFaceQuery(d, n, k)) <= 1

    def test_monotonicity_probe_informational(self):
        # not a theorem; recorded as an empirical probe on the spec's grid
        violations = []
        for d in range(1, 7):
            for k in range(0, d):
                values = [face_ratio(ConeFaceQuery(d, n, k)) for n in range(d, 25)]
                for a, b in zip(values, values[1:]):
                    if b > a:
                        violations.append((d, k))
        print(f"face-ratio monotonicity probe violations: {violations or 'none'}")


class TestWeakThreshold:
    def test_branches(self):
        assert weak_threshold(1, F(1, 2)).limit == 1.0
        assert weak_threshold(1, F(1)).limit == 0.0
        assert weak_threshold(0, F(1)).limit == 1.0  # boundary is 2 for k = 0
        assert weak_threshold(0, F(3)).limit == 0.0
        assert weak_threshold(2, float("inf")).limit == 0.0

    def test_boundary_is_exact(self):
        result = weak_threshold(1, F(2, 3))
        assert result.regime == "critical"
        assert result.limit is None
        assert weak_threshold(1, F(2, 3), c=0.0).limit == 0.5

    def test_critical_values(self):
        assert weak_threshold(1, F(2, 3), c=0.0).limit == 0.5
        got = weak_threshold(0, F(2), c=1.0).limit
        assert got == pytest.approx(0.15865525393145707, abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(InvalidParameter):
            weak_threshold(1, F(-1))
        with pytest.raises(InvalidParameter):
            weak_threshold(-1, F(1))


class TestStrongThreshold:
    def test_applies_example(self):
        result = strong_threshold_check(0, 30, 10)
        assert result.applies
        assert result.envelope == pytest.approx(2 / math.sqrt(10))

    def test_n_equals_d(self):
        result = strong_threshold_check(1, 8, 8)
        assert result.envelope == pytest.approx(2 / math.sqrt(8))

    def test_exact_bounds_ordering(self):
        # the proof chain loosens the defect bound into the tail bound
        for d in range(2, 11):
            for n in range(d, 21):
                for k in range(0, min(3, d)):
                    res = strong_threshold_check(k, d, n)
                    assert res.exact_tail_bound is not None
                    if res.exact_defect_bound is not None:
                        assert res.exact_tail_bound >= res.exact_defect_bound

    def test_defect_equals_the_complement_route(self):
        # the criterion-12 grid plus larger n
        points = [(k, d, n) for d in range(1, 11) for n in range(1, 21) for k in range(3)]
        points += [(k, d, n) for d in (4, 10) for n in (200, 511, 512, 513, 1000) for k in range(3)]
        checked = 0
        for k, d, n in points:
            defect = strong_threshold_check(k, d, n).exact_defect_bound
            if n > k and k <= d - 1 <= n - 1:
                want = math.comb(n, k) * face_ratio_complement(ConeFaceQuery(d, n, k))
                assert defect == want
                checked += 1
            else:
                assert defect is None
        assert checked > 300

    def test_parity_sum_limit_boundary(self):
        # the defect bound is reported for every n within the row cap
        for n in (512, 513, 1000):
            res = strong_threshold_check(1, 8, n)
            assert res.exact_defect_bound == n * face_ratio_complement(ConeFaceQuery(8, n, 1))
            assert res.exact_tail_bound is not None
        capped = strong_threshold_check(1, 8, 513, n_max=512)
        assert capped.exact_defect_bound is None and capped.exact_tail_bound is None

    def test_n_below_d_is_allowed(self):
        # the spec's own example sits in this regime; the defect is 0 there
        res = strong_threshold_check(0, 30, 10)
        assert res.exact_tail_bound == 0

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            strong_threshold_check(-1, 5, 6)
        with pytest.raises(InvalidParameter):
            strong_threshold_check(0, 0, 1)


class TestRecoveryProbability:
    def test_values(self):
        assert recovery_probability(2, 2, 1) == 1
        assert recovery_probability(2, 3, 1) == F(23, 36)
        assert recovery_probability(2, 6, 1) == F(1627, 5760)
        assert recovery_probability(3, 6, 2) == F(12139, 43200)

    def test_matches_face_ratio(self):
        for d in range(1, 7):
            for n in range(d, 13):
                for k in range(0, d):
                    assert recovery_probability(d, n, k) == face_ratio(ConeFaceQuery(d, n, k))

    def test_unit_interval(self):
        for d in range(1, 7):
            for n in range(d, 13):
                for k in range(0, d + 1):
                    assert 0 <= recovery_probability(d, n, k) <= 1

    def test_boundary_k_equals_d(self):
        # the verbatim summation has no surviving terms at k = d
        for d, n in ((2, 8), (3, 6), (0, 5), (0, 200)):
            assert alternating_stirling_sum(n, d, d) == 0
        assert recovery_probability(2, 8, 2) == 0
        assert recovery_probability(3, 6, 3) == 0
        assert recovery_probability(0, 5, 0) == recovery_probability(0, 200, 0) == 0  # no prefix column at d = 0
        # at n = d the formula still reads 0, but G is square and invertible, so recovery is sure
        for d in (1, 2, 3, 6):
            assert alternating_stirling_sum(d, d, d) == recovery_probability(d, d, d) == 0
            assert estimate_recovery_probability(d, d, d, trials=20, seed=0).mean == 1.0

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            recovery_probability(3, 2, 1)  # d > n
        with pytest.raises(InvalidParameter):
            recovery_probability(2, 8, 3)  # k > d

    def test_threshold_reproduction(self):
        # along n = e^(gamma d): subcritical ratios climb toward 1,
        # supercritical ratios fall toward 0 (k = 1, boundary 2/3)
        sub = [
            float(recovery_probability(d, max(d, math.ceil(math.exp(0.35 * d))), 1, n_max=10**5))
            for d in (6, 10, 14)
        ]
        assert sub[0] < sub[1] < sub[2] and sub[2] > 0.99
        sup = [
            float(recovery_probability(d, math.ceil(math.exp(1.0 * d)), 1, n_max=10**5))
            for d in (6, 10)
        ]
        assert sup[0] > sup[1] and sup[1] < 0.15
