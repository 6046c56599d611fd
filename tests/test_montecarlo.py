"""Monte Carlo verifier tests.

Hand-built cones with known face lattices pin down the face
characterization, and a general LP on the original Fraction sums (the
Fraction tableau of ``lp_oracle``) is the oracle for the Farkas face test.  Recovery uniqueness, a face
test on the walk of the matrix's column sums, is held to the kernel-polytope
LPs of ``recovery_oracle``.  Walks and measurement matrices, integer rows at
one scale, are held to the exact Fraction sums of the same draws.  Seeded
estimator runs are checked against the exact closed forms from the cones
module (the runs are deterministic, so these are frozen comparisons, not
flaky statistics).
"""

import hashlib
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from lp_oracle import OPTIMAL, solve_lp_rational
from recovery_oracle import is_unique_recovery_lp, signal

from rlah import montecarlo
from rlah.cones import ConeFaceQuery, expected_face_count, recovery_probability
from rlah.errors import CapacityExceeded, DegenerateSample, InvalidParameter
from rlah.montecarlo import (
    ConeClass,
    RecoveryInstance,
    WalkSample,
    classify_cone,
    count_faces,
    estimate_expected_faces,
    estimate_recovery_probability,
    face_certificate,
    generate_walk,
    is_k_face,
    is_pointed,
    is_unique_recovery,
    make_recovery_instance,
)
from rlah.simplex import FEASIBLE, INFEASIBLE, LPResult


def integer_rows(rows):
    """Reference scaling: rational rows times the lcm L of their denominators."""
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return scale, tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows)


def fraction_sums(steps):
    """Partial sums of binary64 steps, added up in exact Fractions."""
    sums, acc = [], [F(0)] * len(steps[0])
    for step in steps:
        acc = [a + F(float(v)) for a, v in zip(acc, step)]
        sums.append(tuple(acc))
    return sums


def make_sample(d, vectors):
    scale, rows = integer_rows([[F(v) for v in vec] for vec in vectors])
    return WalkSample(d=d, n=len(rows), scale=scale, rows=rows)


class TestHandBuiltCones:
    def test_pointed_plane_cone(self):
        sample = make_sample(2, [(1, 0), (1, 1)])
        assert is_pointed(sample)
        assert classify_cone(sample) is ConeClass.POINTED
        assert is_k_face(sample, [0])
        assert is_k_face(sample, [1])
        assert count_faces(sample, 1) == 2
        assert count_faces(sample, 0) == 1

    def test_interior_generator_is_not_a_face(self):
        sample = make_sample(2, [(1, 0), (0, 1), (1, 1)])
        assert is_k_face(sample, [0])
        assert is_k_face(sample, [1])
        assert not is_k_face(sample, [2])
        assert count_faces(sample, 1) == 2

    def test_full_space_cone(self):
        sample = make_sample(2, [(1, 0), (-1, 1), (-1, -1)])
        assert classify_cone(sample) is ConeClass.FULL_SPACE
        assert count_faces(sample, 1) == 0
        assert count_faces(sample, 0) == 0

    def test_halfplane_is_proper_but_not_pointed(self):
        sample = make_sample(2, [(1, 0), (-1, 0), (0, 1)])
        assert not is_pointed(sample)
        assert classify_cone(sample) is ConeClass.PROPER_NOT_POINTED

    def test_rank_deficient_subset_is_not_a_face(self):
        sample = make_sample(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert not is_k_face(sample, [0])

    def test_simplicial_cone_in_r3(self):
        sample = make_sample(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert count_faces(sample, 1) == 3
        assert count_faces(sample, 2) == 3

    def test_duplicate_direction_collapses_face(self):
        sample = make_sample(2, [(1, 1), (2, 2)])
        # both generators span one ray; neither singleton supports strictly
        assert not is_k_face(sample, [0])
        assert not is_k_face(sample, [1])


def fraction_rank(rows):
    """Rank by plain Fraction elimination, independent of the integer route."""
    mat = [list(row) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def lp_supported(sample, subset):
    """Oracle: is there u with u.S_i = 0 on an independent subset, u.S_j <= -1 off it?"""
    chosen = [sample.sums[i] for i in subset]
    if fraction_rank(chosen) < len(chosen):
        return False
    rest = [sample.sums[j] for j in range(sample.n) if j not in subset]
    result = solve_lp_rational(
        [0] * sample.d, a_ub=rest, b_ub=[-1] * len(rest), a_eq=chosen, b_eq=[0] * len(chosen)
    )
    return result.status == OPTIMAL


def assert_certificate(sample, subset, u):
    dots = [sum(a * b for a, b in zip(u, s)) for s in sample.sums]
    assert all(dots[i] == 0 for i in subset)
    assert all(dots[j] <= -1 for j in range(sample.n) if j not in subset)


HAND_BUILT = [
    (2, [(1, 0), (1, 1)]),
    (2, [(1, 0), (0, 1), (1, 1)]),
    (2, [(1, 0), (-1, 1), (-1, -1)]),
    (2, [(1, 0), (-1, 0), (0, 1)]),
    (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (2, [(1, 1), (2, 2)]),
    (3, [(1, 2, 0), (2, 4, 0), (F(1, 3), 0, 0), (0, 0, 0)]),
]
# the criterion-09 grid, the mc-cone benchmark points, walks with n < d (whose
# certificates leave the span of the sums), pointedness at gaps g = 4, 6 and
# 8, and a walk of 30 steps
EQUIVALENCE_GRID = [(2, 2, 1), (2, 4, 1), (3, 4, 1), (3, 4, 2), (3, 6, 2), (3, 6, 0), (4, 6, 1),
                    (4, 6, 2), (3, 2, 1), (3, 2, 2), (4, 3, 2), (4, 3, 1), (10, 3, 1), (12, 6, 2),
                    (4, 10, 0), (6, 12, 0), (8, 12, 0), (3, 30, 1)]


class TestLPEquivalence:
    def check(self, sample, ks):
        assert is_pointed(sample) == lp_supported(sample, ())
        for k in ks:
            for subset in itertools.combinations(range(sample.n), k):
                u = face_certificate(sample, subset)
                assert is_k_face(sample, subset) == (u is not None) == lp_supported(sample, subset)
                if u is not None:
                    assert_certificate(sample, subset, u)

    def test_hand_built_cones(self):
        for d, vectors in HAND_BUILT:
            self.check(make_sample(d, vectors), range(1, d))

    @pytest.mark.parametrize("d,n,k", EQUIVALENCE_GRID)
    def test_seeded_walks(self, d, n, k):
        for seed in range(10 if n <= 12 else 1):  # the oracle's LPs take about 0.5 s each at n = 30
            sample = generate_walk(d, n, np.random.default_rng((2024, d, n, seed)))
            self.check(sample, [k] if k else [])


    def test_certificates_are_pinned(self):
        # SHA-256 of every face_certificate over the k-subsets of the grid's
        # walks, as computed from the phase-1 tableau's artificial columns;
        # the final basis gives the same rationals
        digest = hashlib.sha256()
        for d, n, k in EQUIVALENCE_GRID:
            for seed in range(10 if n <= 12 else 1) if k else ():
                sample = generate_walk(d, n, np.random.default_rng((2024, d, n, seed)))
                for subset in itertools.combinations(range(n), k):
                    digest.update(repr(face_certificate(sample, subset)).encode())
        assert digest.hexdigest() == "06848c1dce6a385493ffb530fde9f50294960c9b92ed472d32fc893a7f141329"


class TestCertificates:
    def test_verdicts_build_no_fraction_and_read_no_proof(self, monkeypatch):
        # the verdict routes read only the LP's status: no Fraction, no x, no y
        walks = [generate_walk(d, n, np.random.default_rng((41, d, n, seed)))
                 for d, n in [(2, 4), (2, 12), (3, 6), (4, 6), (4, 3), (6, 12)] for seed in range(3)]
        instances = [make_recovery_instance(d, n, k, np.random.default_rng((41, d, n, k)), rule)
                     for d, n, k in [(2, 6, 1), (3, 6, 2), (4, 8, 2), (3, 8, 0)] for rule in ("ones", "uniform")]
        built, statuses = [], set()
        new, solve = F.__new__, montecarlo.solve_lp
        monkeypatch.setattr(F, "__new__", lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))
        monkeypatch.setattr(montecarlo, "solve_lp", lambda *args: statuses.add((r := solve(*args)).status) or r)
        for attr in ("x", "y"):
            monkeypatch.setattr(LPResult, attr, property(lambda _, attr=attr: pytest.fail(f"LPResult.{attr} read")))
        faces = 0
        for walk in walks:
            faces += sum(count_faces(walk, k) for k in range(min(walk.d, 3)))
            faces += is_k_face(walk, [0])
            is_pointed(walk)
            classify_cone(walk)
        for inst in instances:
            is_unique_recovery(inst)
        assert built == []
        assert faces > 0 and statuses == {FEASIBLE, INFEASIBLE}

    def test_lp_soundness_recheck(self):
        # every accepted face certificate must satisfy all constraints in
        # exact rational arithmetic
        for seed in range(6):
            sample = generate_walk(3, 6, np.random.default_rng((31, seed)))
            for k in (1, 2):
                for subset in itertools.combinations(range(sample.n), k):
                    u = face_certificate(sample, subset)
                    assert (u is not None) == is_k_face(sample, subset)
                    if u is not None:
                        assert_certificate(sample, subset, u)

    def test_euler_alternation_diagnostic(self):
        # logged only: the alternating face-count sum for pointed cones
        records = []
        for seed in range(4):
            sample = generate_walk(3, 5, np.random.default_rng((77, seed)))
            counts = [count_faces(sample, k) for k in range(sample.d)]
            alternation = sum((-1) ** k * c for k, c in enumerate(counts))
            records.append((counts, alternation))
        print(f"euler-alternation diagnostic: {records}")


class TestGuards:
    def test_is_k_face_dimension_range(self):
        sample = make_sample(2, [(1, 0), (0, 1)])
        with pytest.raises(InvalidParameter):
            is_k_face(sample, [])
        with pytest.raises(InvalidParameter):
            is_k_face(sample, [0, 1])  # k = d not allowed

    def test_count_faces_range_and_cap(self):
        sample = make_sample(2, [(1, 0), (0, 1)])
        with pytest.raises(InvalidParameter):
            count_faces(sample, 2)
        big = generate_walk(14, 24, np.random.default_rng(0))
        with pytest.raises(CapacityExceeded):
            count_faces(big, 12)

    def test_walk_caps(self):
        # one bound, the simplex's design size: n <= 64 steps in d <= 63 dimensions
        for d, n in [(1, 65), (64, 1)]:
            with pytest.raises(CapacityExceeded, match="exceeds the LP design size"):
                generate_walk(d, n, np.random.default_rng(0))
        assert generate_walk(63, 64, np.random.default_rng(0)).n == 64
        with pytest.raises(InvalidParameter):
            generate_walk(0, 3, np.random.default_rng(0))

    def test_size_refusals_come_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for d, n in [(1, 65), (64, 1), (10**8, 1)]:
            with pytest.raises(CapacityExceeded):
                generate_walk(d, n, rng)
        with pytest.raises(CapacityExceeded):
            make_recovery_instance(64, 64, 0, rng)
        with pytest.raises(InvalidParameter):  # invalid parameters are named first
            make_recovery_instance(10**8, 1, 0, rng)
        assert rng.bit_generator.state == state

    def test_trials_validation(self):
        with pytest.raises(InvalidParameter):
            estimate_expected_faces(2, 2, 1, 0, 0)
        with pytest.raises(InvalidParameter):
            estimate_recovery_probability(2, 3, 1, 0, 0)

    def test_face_test_budget(self):
        # trials x binom(n, k) face tests (one per recovery trial) over 10^6
        # are refused before the first draw
        with pytest.raises(CapacityExceeded, match="1000001 trials of 1 face tests"):
            estimate_expected_faces(2, 2, 0, 10**6 + 1, 0)
        with pytest.raises(CapacityExceeded, match="1 trials of 2704156 face tests"):
            estimate_expected_faces(14, 24, 12, 1, 0)
        with pytest.raises(CapacityExceeded, match="500001 trials of 2 face tests"):
            estimate_expected_faces(2, 2, 1, 500001, 0)
        with pytest.raises(CapacityExceeded, match="1000001 trials of 1 face tests"):
            estimate_recovery_probability(2, 4, 1, 10**6 + 1, 0)


class TestWalkGeneration:
    def test_partial_sums_are_cumulative(self):
        walk = generate_walk(3, 5, np.random.default_rng(11))
        increments = np.random.default_rng(11).standard_normal((5, 3))
        assert walk.redraws == 0 and len(walk.sums) == 5
        acc = (F(0), F(0), F(0))
        for inc, total in zip(increments, walk.sums):
            acc = tuple(a + F(float(b)) for a, b in zip(acc, inc))
            assert acc == total

    @pytest.mark.parametrize("d,n", [(1, 1), (1, 24), (2, 2), (3, 6), (4, 6), (5, 3), (6, 24), (10, 4)])
    def test_integer_rows_match_the_fraction_sums(self, d, n):
        # same lcm and same primitive rows as scaling the Fraction sums, so
        # face certificates are the same integers either way
        for seed in range(10):
            walk = generate_walk(d, n, np.random.default_rng((5, d, n, seed)))
            steps = np.random.default_rng((5, d, n, seed)).standard_normal((n, d))
            assert walk.redraws == 0
            assert (walk.scale, walk.rows) == integer_rows(fraction_sums(steps))

    def test_deterministic(self):
        a = generate_walk(2, 4, np.random.default_rng(3))
        b = generate_walk(2, 4, np.random.default_rng(3))
        assert a.sums == b.sums


class TestFaceEstimates:
    def test_plane_two_steps_is_exactly_two(self):
        est = estimate_expected_faces(2, 2, 1, trials=200, seed=7)
        assert est.mean == 2.0
        assert est.stderr == 0.0

    def test_matches_exact_expectation(self):
        est = estimate_expected_faces(2, 4, 1, trials=400, seed=42)
        exact = float(expected_face_count(ConeFaceQuery(2, 4, 1)))
        assert abs(est.mean - exact) <= 3 * est.stderr

    @pytest.mark.parametrize("d,n,trials", [(3, 40, 400), (4, 64, 300)])
    def test_pointedness_past_24_steps_matches_exact(self, d, n, trials):
        # the pointed count is Binomial(trials, p); both exact tails at the
        # observed count must exceed 5e-7 (a two-sided rate of about 1e-6)
        p = float(expected_face_count(ConeFaceQuery(d, n, 0)))
        pointed = round(estimate_expected_faces(d, n, 0, trials=trials, seed=3).mean * trials)
        pmf = [math.comb(trials, i) * p**i * (1 - p) ** (trials - i) for i in range(trials + 1)]
        assert min(sum(pmf[: pointed + 1]), sum(pmf[pointed:])) > 5e-7, (pointed, p * trials)

    def test_deterministic_given_seed(self):
        a = estimate_expected_faces(3, 4, 2, trials=60, seed=5)
        b = estimate_expected_faces(3, 4, 2, trials=60, seed=5)
        assert (a.mean, a.stderr, a.rejects) == (b.mean, b.stderr, b.rejects)

    def test_json_record_shape(self):
        est = estimate_expected_faces(2, 2, 1, trials=5, seed=1)
        record = est.to_json_dict()
        assert set(record) == {"d", "n", "k", "trials", "seed", "mean", "stderr", "rejects"}


class TestRecovery:
    def test_signal_construction(self):
        inst = RecoveryInstance(
            d=3, n=5, k=2, jump_positions=(2, 4), amplitudes=(F(1), F(2)),
            scale=1, matrix=tuple(tuple(int(v) for v in row) for row in np.eye(3, 5)),
        )
        assert signal(inst) == (F(3), F(3), F(2), F(2), F(0))

    def test_signal_monotone_with_k_descents(self):
        for seed in range(8):
            inst = make_recovery_instance(4, 9, 3, np.random.default_rng(seed), "uniform")
            x = signal(inst)
            assert all(a >= b for a, b in zip(x, x[1:]))
            assert x[-1] >= 0
            descents = sum(1 for a, b in zip(x, x[1:]) if a > b) + (x[-1] > 0)
            assert descents == inst.k

    def test_injective_case_always_unique(self):
        for seed in range(5):
            inst = make_recovery_instance(4, 4, 2, np.random.default_rng(seed))
            assert is_unique_recovery(inst)

    def test_degenerate_matrix_detected(self):
        row = (1, 2, 3, 4)
        with pytest.raises(DegenerateSample):
            RecoveryInstance(2, 4, 1, (2,), (F(1),), 1, (row, row))

    def test_degenerate_draw_is_redrawn_whole_and_counted(self, monkeypatch):
        dyadic, left = montecarlo._dyadic, [2]  # degenerate matrices still to draw

        def degenerate(draws):
            scale, rows = dyadic(draws)
            if left[0]:
                left[0] -= 1
                return scale, (rows[0],) * len(rows)  # one row repeated: rank 1
            return scale, rows

        monkeypatch.setattr(montecarlo, "_dyadic", degenerate)
        inst = make_recovery_instance(3, 6, 2, np.random.default_rng(5), "uniform")
        rng = np.random.default_rng(5)
        for _ in range(3):  # the third draw: positions, amplitudes, matrix
            positions = tuple(sorted(int(v) + 1 for v in rng.choice(6, size=2, replace=False)))
            amplitudes = tuple(F(float(1.0 - v)) for v in rng.random(2))
            draws = rng.standard_normal((3, 6))
        assert (inst.jump_positions, inst.amplitudes, inst.matrix) == (positions, amplitudes, dyadic(draws)[1])
        assert inst.redraws == 2
        left[0] = 2
        assert estimate_recovery_probability(3, 6, 2, trials=3, seed=0).rejects == 2
        left[0] = montecarlo._MAX_REDRAWS
        assert make_recovery_instance(3, 6, 2, np.random.default_rng(5)).redraws == montecarlo._MAX_REDRAWS
        left[0] = montecarlo._MAX_REDRAWS + 1
        with pytest.raises(DegenerateSample):
            make_recovery_instance(3, 6, 2, np.random.default_rng(5))

    @pytest.mark.parametrize("rule", ["ones", "uniform"])
    def test_integer_matrix_and_walk_match_the_fractions(self, rule, monkeypatch):
        walks = []
        support = montecarlo._support
        monkeypatch.setattr(montecarlo, "_support", lambda s, a: walks.append(s) or support(s, a))
        for d, n, k in [(1, 1, 1), (1, 3, 0), (2, 5, 1), (3, 9, 2), (4, 24, 3), (2, 64, 2)]:
            for seed in range(5):
                inst = make_recovery_instance(d, n, k, np.random.default_rng((6, d, n, seed)), rule)
                rng = np.random.default_rng((6, d, n, seed))  # the same draws: positions, amplitudes, matrix
                rng.choice(n, size=k, replace=False)
                if rule == "uniform":
                    rng.random(k)
                draws = rng.standard_normal((d, n))
                assert (inst.scale, inst.matrix) == integer_rows([[F(float(v)) for v in row] for row in draws])
                walks.clear()
                is_unique_recovery(inst)
                if n > d:
                    (walk,) = walks
                    assert (walk.scale, walk.rows) == integer_rows(fraction_sums(draws.T))

    def test_amplitude_rules(self):
        inst = make_recovery_instance(3, 6, 2, np.random.default_rng(0), "uniform")
        assert all(0 < a <= 1 for a in inst.amplitudes)
        with pytest.raises(InvalidParameter):
            make_recovery_instance(3, 6, 2, np.random.default_rng(0), "gaussian")

    def test_amplitude_invariance(self):
        # the face route never reads the amplitudes, so the invariance it
        # rests on is checked on the kernel polytope, which does
        scales = [F(7, 3), F(1, 5), F(12)]
        for seed in range(25):
            inst = make_recovery_instance(3, 6, 2, np.random.default_rng((99, seed)))
            base = is_unique_recovery_lp(inst)
            for s in scales:
                rescaled = inst.with_amplitudes([a * s for a in inst.amplitudes])
                assert is_unique_recovery_lp(rescaled) == base

    @pytest.mark.parametrize("rule", ["ones", "uniform"])
    def test_face_route_matches_kernel_polytope_oracle(self, rule):
        outcomes = set()
        for d in range(1, 7):
            for n in range(d, 11):
                for k in range(d + 1):
                    inst = make_recovery_instance(d, n, k, np.random.default_rng((808, d, n, k)), rule)
                    unique = is_unique_recovery(inst)
                    assert unique == is_unique_recovery_lp(inst), (d, n, k, inst.jump_positions)
                    outcomes.add(unique)
        assert outcomes == {True, False}

    def test_with_amplitudes_validation(self):
        inst = make_recovery_instance(3, 6, 2, np.random.default_rng(1))
        with pytest.raises(InvalidParameter):
            inst.with_amplitudes([F(1)])
        with pytest.raises(InvalidParameter):
            inst.with_amplitudes([F(1), F(-1)])

    def test_estimate_injective(self):
        est = estimate_recovery_probability(3, 3, 1, trials=50, seed=0)
        assert est.mean == 1.0

    def test_estimate_matches_exact(self):
        est = estimate_recovery_probability(2, 3, 1, trials=400, seed=11)
        exact = float(recovery_probability(2, 3, 1))
        assert abs(est.mean - exact) <= 3 * est.stderr
