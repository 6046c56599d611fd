"""Exact phase-1 simplex tests.

Every verdict of :func:`rlah.simplex.solve_lp` carries its own proof, a
point x >= 0 with sum_j x_j columns_j = b or a Farkas y with
y.columns_j >= 0 and y.b < 0, and each test re-checks it exactly.  The
verdicts are cross-validated against the Fraction-tableau oracle in
``lp_oracle`` (posed as {x >= 0, A x = b}) and against scipy's HiGHS
solver.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_oracle import OPTIMAL, solve_lp_rational
from scipy.optimize import linprog

from rlah import montecarlo
from rlah.errors import CapacityExceeded
from rlah.simplex import FEASIBLE, INFEASIBLE, solve_lp


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def checked(columns, b):
    """solve_lp's result, after re-checking its point or certificate exactly."""
    res = solve_lp(columns, b)
    if res.status == FEASIBLE:
        assert res.y is None and len(res.x) == len(columns)
        assert all(v >= 0 for v in res.x)
        assert [sum((xj * col[i] for xj, col in zip(res.x, columns)), F(0)) for i in range(len(b))] == list(b)
    else:
        assert res.status == INFEASIBLE and res.x is None
        assert all(isinstance(v, int) for v in res.y) and len(res.y) == len(b)
        assert all(_dot(res.y, col) >= 0 for col in columns)
        assert _dot(res.y, b) < 0
    return res


def rational_verdict(columns, b):
    """The oracle's status on {x >= 0, A x = b}: OPTIMAL (c = 0) or INFEASIBLE."""
    nv = len(columns)
    nonneg = [[-int(i == j) for j in range(nv)] for i in range(nv)]
    rows = [[col[i] for col in columns] for i in range(len(b))]
    return solve_lp_rational([0] * nv, a_ub=nonneg, b_ub=[0] * nv, a_eq=rows, b_eq=list(b)).status


def test_infeasible():
    res = checked([[1, 0], [0, 1]], [1, -1])
    assert res.status == INFEASIBLE


def test_negative_rhs_normalization():
    # rows with b_i < 0 are negated inside; x and y stay in the caller's signs
    res = checked([[-1, -2]], [-2, -4])
    assert res.status == FEASIBLE and res.x == [2]
    res = checked([[1]], [-1])
    assert res.status == INFEASIBLE and res.y[0] > 0


def test_degenerate_equalities_with_redundancy():
    # duplicated rows leave an artificial basic at level 0
    res = checked([[1, 1, 1], [-1, -1, 1]], [0, 0, 4])
    assert res.status == FEASIBLE and res.x == [2, 2]


def test_empty_systems():
    assert checked([], []).status == FEASIBLE
    assert checked([[1, 2]], [0, 0]).x == [0]
    res = checked([], [3, -1])
    assert res.status == INFEASIBLE


def test_farkas_face_shape():
    # rows c_j = (1,), (-1,), appended with 1: 0 = (c_1 + c_2) / 2 is a convex
    # combination, so {w : c_j.w <= -1} is empty
    assert checked([[1, 1], [-1, 1]], [0, 1]).status == FEASIBLE
    # rows (1,), (2,): w = -1 works, and the multipliers y = (v, s) give it as v / s
    res = checked([[1, 1], [2, 1]], [0, 1])
    v, s = res.y
    assert res.status == INFEASIBLE and s < 0
    assert all(F(c * v, s) <= -1 for c in (1, 2))


def test_capacity_guard():
    with pytest.raises(CapacityExceeded):
        solve_lp([[0]] * 65, [0])
    with pytest.raises(CapacityExceeded):
        solve_lp([[0] * 65], [0] * 65)


def test_against_scipy_on_random_instances():
    rng = np.random.default_rng(7)
    seen = set()
    for trial in range(80):
        nv = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        a = rng.integers(-4, 5, (m, nv))
        b = rng.integers(-3, 8, m)
        mine = checked(a.T.tolist(), b.tolist())
        ref = linprog(np.zeros(nv), A_eq=a, b_eq=b, bounds=[(0, None)] * nv, method="highs")
        assert ref.status == (0 if mine.status == FEASIBLE else 2), trial
        seen.add(mine.status)
    assert seen == {FEASIBLE, INFEASIBLE}


# -- the integer tableau against the Fraction-tableau oracle --------------------

@st.composite
def systems(draw):
    """(columns, b) over small integers.

    "random" rows have any signs, so negative right-hand sides are common;
    "zero" has b = 0, where x = 0 is feasible from the start; "duplicated"
    appends nonzero multiples of rows, which leave artificials at level 0;
    "farkas" has the face test's shape, rows (c_j, 1) against (0, ..., 0, 1).
    """
    kind = draw(st.sampled_from(["random", "zero", "duplicated", "farkas"]))
    nv = draw(st.integers(0, 5))
    m = draw(st.integers(0 if kind != "farkas" else 1, 4))
    entry = st.integers(-4, 4)
    columns = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(nv)]
    b = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    if kind == "zero":
        b = [0] * m
    elif kind == "duplicated" and m:
        for i in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3)):
            t = draw(entry.filter(bool))
            for col in columns:
                col.append(t * col[i])
            b.append(t * b[i])
    elif kind == "farkas":
        for col in columns:
            col[-1] = 1
        b = [0] * (m - 1) + [1]
    return columns, b


@settings(max_examples=300, deadline=None)
@given(systems())
def test_integer_tableau_matches_fraction_oracle(system):
    columns, b = system
    mine = checked(columns, b)
    assert (mine.status == FEASIBLE) == (rational_verdict(columns, b) == OPTIMAL)


# the criterion-09 and mc-cone points, one walk with n < d, pointedness at a
# wider gap, and the criterion-10 and mc-recovery points
CONE_GRID = [(2, 2, 1), (2, 4, 1), (3, 4, 1), (3, 4, 2), (3, 6, 2), (3, 6, 0), (4, 6, 1), (4, 6, 2),
             (4, 3, 1), (6, 12, 0)]
RECOVERY_GRID = [(2, 3, 1), (2, 6, 1), (3, 6, 2), (4, 8, 2)]


def test_monte_carlo_lps_match_fraction_oracle(monkeypatch):
    """Every LP the seeded face tests, cone classifications and recovery
    trials solve gets the oracle's verdict, and its proof re-checks."""
    lps_seen = []

    def recording(columns, b):
        lps_seen.append((columns, b))
        return solve_lp(columns, b)

    monkeypatch.setattr(montecarlo, "solve_lp", recording)
    for d, n, k in CONE_GRID:
        for seed in range(5):
            sample = montecarlo.generate_walk(d, n, np.random.default_rng((2024, d, n, seed)))
            montecarlo.count_faces(sample, k)
            montecarlo.classify_cone(sample)
    for d, n, k in RECOVERY_GRID:
        for rule in ("ones", "uniform"):
            for trial in range(6):
                inst = montecarlo.make_recovery_instance(d, n, k, np.random.default_rng((123, trial)), rule)
                montecarlo.is_unique_recovery(inst)
    statuses = set()
    for columns, b in lps_seen:
        mine = checked(columns, b)
        assert (mine.status == FEASIBLE) == (rational_verdict(columns, b) == OPTIMAL), (columns, b)
        statuses.add(mine.status)
    assert len(lps_seen) >= 300
    assert statuses == {FEASIBLE, INFEASIBLE}
