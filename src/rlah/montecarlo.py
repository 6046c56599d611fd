"""Monte Carlo ground truth for the cone and recovery formulas.

Walk increments and measurement matrices are drawn as binary64 Gaussians and
read as integers at one power-of-two scale; every geometric decision after
that point is exact.  A walk keeps its partial sums as integer rows S' = L S,
L the smallest such scale, and one fraction-free elimination routine in the
style of Bareiss serves the rank checks and the null-space bases on those
integers.  There are no tolerances to tune, and genericity violations are
detectable as exact rank deficiencies, which are rejected, redrawn and
counted.

A subset A of generators spans a k-face of the cone iff it is independent
and some functional u vanishes on A while being strictly negative on the
rest; strictness is encoded conically as S_j u <= -1.  With u = L N w, N an
integer basis of span(A)^perp in R^d, the question lives in g = d - k
variables: is {w : c_j.w <= -1} nonempty, c_j = S'_j N the projected rows
of the other generators?  (A solution's projection onto the span of the
sums has the same S_j.u, so this asks the same as a search within that
span.)  By Farkas' lemma it is empty iff 0 is a convex combination of the
c_j, which is one phase-1 LP with only g + 1 rows, however many generators
there are (the simplex of :mod:`rlah.simplex`, which pivots an
integer tableau over one common denominator).  When that LP is infeasible
its multipliers y = (v, s), s < 0, give w = v / s with c_j.w <= -1.  So one
route serves every g, and the certificate u is exact and can be re-checked
against the sums.  Pointedness is the case A = {} (g = d).

Uniqueness of monotone-signal recovery is the same face test.  The
monotone chamber is the simplicial cone of the indicators 1_[1..i], and a
measurement matrix G maps them to the walk S_i = G 1_[1..i] of its column
sums; a k-jump signal is the unique preimage of its measurements iff the
walk steps at its jump positions span a k-face of pos(S) (Donoho and
Tanner, *Discrete Comput. Geom.* 43, 2010, argue the same for orthants).
The three-way cone classification asks the same simplex once whether
sum_j (x_j + 1) S_j = 0 has a solution x >= 0.

Every walk is bounded by the simplex's design size, checked before any
draw: n <= 64 steps in d <= 63 dimensions.  A face test's Farkas LP has
n - k columns and d - k + 1 rows, and the classification LP n columns and
d rows, so every LP a walk asks fits.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityExceeded, DegenerateSample, InvalidParameter
from .simplex import _MAX_SIZE, FEASIBLE, INFEASIBLE, solve_lp

_ENUMERATION_CAP = 10 ** 6
_MAX_REDRAWS = 16

IntRow = Tuple[int, ...]


def _eliminate(rows: Sequence[Sequence[int]], width: int) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss).

    Pivots on the first ``width`` columns and carries any further columns
    along as right-hand sides.  Returns the reduced rows, the pivot columns
    and the last pivot D: row i < rank holds D in column ``pivots[i]`` and 0
    in the other pivot columns, and the rows from the rank on are zero in
    the first ``width`` columns.  Every division is exact, so the entries
    stay integers (they are minors of the input).
    """
    mat = [list(row) for row in rows]
    pivots: List[int] = []
    den = 1
    for col in range(width):
        top = len(pivots)
        if top == len(mat):
            break
        piv = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        prow = mat[top]
        p = prow[col]
        for i, row in enumerate(mat):
            if i != top:
                f = row[col]
                mat[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
        pivots.append(col)
        den = p
    return mat, pivots, den


def _null_space(rows: Sequence[Sequence[int]], width: int) -> Tuple[int, List[IntRow]]:
    """Rank and a primitive integer basis of {x : rows x = 0}."""
    mat, pivots, den = _eliminate(rows, width)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[free] = den
        for row, pc in zip(mat, pivots):
            v[pc] = -row[free]
        g = math.gcd(*v)
        basis.append(tuple(x // g for x in v))
    return len(pivots), basis


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix."""
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def _dyadic(draws: np.ndarray) -> Tuple[int, Tuple[IntRow, ...]]:
    """(L, X) with draws = X / L exactly: L the largest denominator of the
    binary64 entries (a power of two), X integers."""
    ratios = [[v.as_integer_ratio() for v in row] for row in draws.tolist()]
    scale = max((q for row in ratios for _, q in row), default=1)
    return scale, tuple(tuple(p * (scale // q) for p, q in row) for row in ratios)


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


class ConeClass(enum.Enum):
    POINTED = "pointed"
    PROPER_NOT_POINTED = "proper_not_pointed"
    FULL_SPACE = "full_space"


@dataclass(frozen=True)
class WalkSample:
    """An n-step walk in R^d: partial sums S_i kept as integer rows scale * S_i."""

    d: int
    n: int
    scale: int
    rows: Tuple[IntRow, ...]
    redraws: int = 0

    @cached_property
    def sums(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The partial sums S_i as exact rationals."""
        return tuple(tuple(Fraction(v, self.scale) for v in row) for row in self.rows)


def _walk(d: int, scale: int, steps: Sequence[IntRow], redraws: int = 0) -> WalkSample:
    """The walk in R^d with increments steps / scale: S_i is the sum of the
    first i.  A scale from :func:`_dyadic` is already the smallest with
    integer sums: some step has an odd entry over it, hence so does some S_i."""
    rows: List[IntRow] = []
    acc = (0,) * d
    for step in steps:
        acc = tuple(a + b for a, b in zip(acc, step))
        rows.append(acc)
    return WalkSample(d, len(rows), scale, tuple(rows), redraws)


def _check_size(d: int, n: int) -> None:
    """Refuse a walk whose LPs would not fit the simplex, before any draw."""
    if n > _MAX_SIZE or d + 1 > _MAX_SIZE:
        raise CapacityExceeded(f"a walk of n={n} steps in d={d} dimensions exceeds the LP design size "
                               f"(n <= {_MAX_SIZE}, d <= {_MAX_SIZE - 1})")


def generate_walk(d: int, n: int, rng: np.random.Generator) -> WalkSample:
    """Draw Gaussian increments, read them as scaled integers, form partial sums.

    Samples whose partial-sum matrix is rank deficient (an exact-rational
    event of essentially zero probability) are redrawn and counted.
    """
    if d < 1 or n < 1:
        raise InvalidParameter(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    _check_size(d, n)
    redraws = 0
    while True:
        sample = _walk(d, *_dyadic(rng.standard_normal((n, d))), redraws)
        if _rank(sample.rows) == min(n, d):
            return sample
        redraws += 1
        if redraws > _MAX_REDRAWS:
            raise DegenerateSample("persistent rank deficiency in walk generation")


def _support(sample: WalkSample, subset: Sequence[int]) -> Optional[List[Fraction]]:
    """u with S_i u = 0 on the subset and S_j u <= -1 off it, or None.

    None also when the subset is dependent.  The search runs in the g
    coordinates of u = L N w, N an integer basis of span(subset)^perp.
    """
    scale, rows = sample.scale, sample.rows
    rank, basis = _null_space([rows[i] for i in subset], sample.d)
    if rank < len(subset):
        return None
    chosen = set(subset)
    g = len(basis)
    projected = [tuple(_dot(row, v) for v in basis) for j, row in enumerate(rows) if j not in chosen]
    if not projected:
        return [Fraction(0)] * sample.d  # no inequality: w = 0
    # Farkas: M w <= -1 has no solution iff 0 is a convex combination of the
    # rows c_j of M; otherwise phase 1's multipliers y = (v, s), s < 0, give w = v / s
    result = solve_lp([c + (1,) for c in projected], [0] * g + [1])
    if result.status != INFEASIBLE:
        return None
    *v, s = result.y  # g >= 1 here: with g = 0 the LP is feasible
    return [Fraction(scale * _dot(v, coords), s) for coords in zip(*basis)]


def face_certificate(sample: WalkSample, subset: Iterable[int]) -> Optional[List[Fraction]]:
    """Supporting functional for the candidate face, or None.

    When pos{S_i : i in A} is a face, returns an exact u with u.S_i = 0 for
    i in A and u.S_j <= -1 off A, read off the multipliers of the
    infeasible Farkas LP.  Callers can re-verify the constraints in
    rational arithmetic.  None when the subset is dependent
    (dimension condition fails) or no supporting hyperplane exists.
    """
    a = sorted(set(subset))
    k = len(a)
    if not 1 <= k <= sample.d - 1:
        raise InvalidParameter(f"face dimension must lie in [1, d-1], got {k}")
    if any(i < 0 or i >= sample.n for i in a):
        raise InvalidParameter(f"subset {a} out of range for n={sample.n}")
    return _support(sample, a)


def is_k_face(sample: WalkSample, subset: Iterable[int]) -> bool:
    """Does pos{S_i : i in A} span a k-dimensional face of the cone?

    True iff the subset is linearly independent (else the dimension condition
    fails) and some u satisfies u.S_i = 0 on A and u.S_j <= -1 off A.
    """
    return face_certificate(sample, subset) is not None


def is_pointed(sample: WalkSample) -> bool:
    """Pointedness: some u has u.S_i <= -1 for every generator."""
    return _support(sample, []) is not None


def classify_cone(sample: WalkSample) -> ConeClass:
    """Three-way classification: pointed / proper but not pointed / all of R^d.

    The cone is all of R^d iff the sums span R^d and some x >= 0 has
    sum_j (x_j + 1) S_j = 0, which puts every -S_j in the cone: one
    feasibility LP on the scaled sums.
    """
    if is_pointed(sample):
        return ConeClass.POINTED
    rows = sample.rows
    if _rank(rows) == sample.d and solve_lp(rows, [-sum(c) for c in zip(*rows)]).status == FEASIBLE:
        return ConeClass.FULL_SPACE
    return ConeClass.PROPER_NOT_POINTED


def count_faces(sample: WalkSample, k: int) -> int:
    """Number of k-dimensional faces of the sample cone, by exhaustive search.

    k = 0 is the pointedness indicator; 1 <= k <= d-1 enumerates all
    binom(n, k) generator subsets (guarded).
    """
    if k == 0:
        return 1 if is_pointed(sample) else 0
    if not 1 <= k <= sample.d - 1:
        raise InvalidParameter(f"k must lie in [0, d-1], got k={k}, d={sample.d}")
    if math.comb(sample.n, k) > _ENUMERATION_CAP:
        raise CapacityExceeded(
            f"binom({sample.n},{k}) = {math.comb(sample.n, k)} subsets exceed the cap"
        )
    return sum(
        1 for a in itertools.combinations(range(sample.n), k) if is_k_face(sample, a)
    )


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean and standard error of a Monte Carlo run."""

    d: int
    n: int
    k: int
    trials: int
    seed: int
    mean: float
    stderr: float
    rejects: int

    def to_json_dict(self) -> dict:
        return asdict(self)  # the field order is the record's key order


def _check_run(trials: int, seed: int, face_tests: int) -> None:
    """Refuse a bad run, or one of more than the cap's face tests, before any draw."""
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if seed < 0:  # numpy seeds are non-negative
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    if trials * face_tests > _ENUMERATION_CAP:
        raise CapacityExceeded(f"{trials} trials of {face_tests} face tests each exceed the cap {_ENUMERATION_CAP}")


def estimate_expected_faces(d: int, n: int, k: int, trials: int, seed: int) -> MCEstimate:
    """Mean face count over independent walks; deterministic given seed.

    Per-trial generators are derived from (seed, trial_index), so the result
    is independent of execution order and trivially parallelizable.
    """
    # a walk past the size bound is refused at its first draw, before binom(n, k) matters
    _check_run(trials, seed, math.comb(n, k) if 0 <= k <= n <= _MAX_SIZE else 1)
    total = 0
    total_sq = 0
    rejects = 0
    for t in range(trials):
        sample = generate_walk(d, n, np.random.default_rng((seed, t)))
        rejects += sample.redraws
        f = count_faces(sample, k)
        total += f
        total_sq += f * f
    mean = total / trials
    var = (total_sq - trials * mean * mean) / (trials - 1) if trials > 1 else 0.0
    stderr = math.sqrt(max(var, 0.0) / trials)
    return MCEstimate(d, n, k, trials, seed, mean, stderr, rejects)


# -- monotone-signal recovery ---------------------------------------------------

@dataclass(frozen=True)
class RecoveryInstance:
    """A k-jump monotone signal and a Gaussian measurement matrix G.

    The signal is x_m = sum_l a_l [i_l >= m]: nonincreasing, nonnegative,
    with jumps exactly at the chosen positions.  G = matrix / scale.
    """

    d: int
    n: int
    k: int
    jump_positions: Tuple[int, ...]  # 1-based, strictly increasing
    amplitudes: Tuple[Fraction, ...]
    scale: int
    matrix: Tuple[IntRow, ...]  # d rows of n integers

    def with_amplitudes(self, amplitudes: Sequence[Fraction]) -> "RecoveryInstance":
        if len(amplitudes) != self.k or any(a <= 0 for a in amplitudes):
            raise InvalidParameter("need exactly k positive amplitudes")
        return RecoveryInstance(
            self.d, self.n, self.k, self.jump_positions, tuple(amplitudes), self.scale, self.matrix
        )


def make_recovery_instance(
    d: int,
    n: int,
    k: int,
    rng: np.random.Generator,
    amplitude_rule: str = "ones",
) -> RecoveryInstance:
    """Uniform jump positions, amplitudes by rule ("ones" or "uniform"),
    Gaussian measurement matrix read as integers at one power-of-two scale."""
    if not 0 <= k <= d <= n:
        raise InvalidParameter(f"need 0 <= k <= d <= n, got k={k}, d={d}, n={n}")
    if amplitude_rule not in ("ones", "uniform"):
        raise InvalidParameter(f"unknown amplitude rule {amplitude_rule!r}")
    _check_size(d, n)
    positions = tuple(sorted(int(v) + 1 for v in rng.choice(n, size=k, replace=False)))
    if amplitude_rule == "ones":
        amplitudes = tuple(Fraction(1) for _ in range(k))
    else:
        amplitudes = tuple(Fraction(float(1.0 - rng.random())) for _ in range(k))
    return RecoveryInstance(d, n, k, positions, amplitudes, *_dyadic(rng.standard_normal((d, n))))


# unused here, but tests/recovery_oracle.py calls it and rlahbench/tracing.py wraps it
def _kernel_basis(matrix: Sequence[IntRow], n: int) -> Optional[List[IntRow]]:
    """Integer basis of ker(G) for a d x n integer matrix of full row rank; None if deficient."""
    rank, basis = _null_space(matrix, n)
    return basis if rank == len(matrix) else None


def is_unique_recovery(inst: RecoveryInstance) -> bool:
    """Is x the only point of the monotone chamber in x + ker(G)?

    The chamber is the simplicial cone of the indicators 1_[1..i], and G
    maps 1_[1..i] to the walk step S_i = G 1_[1..i], the sum of G's first i
    columns.  So x, which lies in the relative interior of the chamber's face
    spanned by its jump indicators, is the unique preimage iff the walk steps
    at its jump positions span a k-face of pos(S).  That is one face test on
    the walk: pointedness when k = 0, and never a face when k = d < n.  The
    amplitudes do not enter.
    """
    d, n = inst.d, inst.n
    if _rank(inst.matrix) < d:
        raise DegenerateSample("measurement matrix is not of full row rank")
    if n == d:  # G is injective
        return True
    columns = [tuple(row[i] for row in inst.matrix) for i in range(n)]
    return _support(_walk(d, inst.scale, columns), [i - 1 for i in inst.jump_positions]) is not None


def estimate_recovery_probability(
    d: int,
    n: int,
    k: int,
    trials: int,
    seed: int,
    amplitude_rule: str = "ones",
) -> MCEstimate:
    """Fraction of trials with unique recovery; deterministic given seed.

    The uniqueness event is a face test on the jump positions, so the
    amplitudes never enter it: ``amplitude_rule`` changes only the draw
    sequence ("uniform" draws k uniforms between the positions and the
    matrix).
    """
    _check_run(trials, seed, 1)
    successes = 0
    rejects = 0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        attempts = 0
        while True:
            try:
                inst = make_recovery_instance(d, n, k, rng, amplitude_rule)
                unique = is_unique_recovery(inst)
                break
            except DegenerateSample:
                rejects += 1
                attempts += 1
                if attempts > _MAX_REDRAWS:
                    raise
        successes += unique
    p_hat = successes / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return MCEstimate(d, n, k, trials, seed, p_hat, stderr, rejects)
