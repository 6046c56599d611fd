"""Exact simplex tests, cross-validated against scipy's HiGHS solver."""

from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linprog

from rlah.errors import CapacityExceeded
from rlah.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def test_simple_box():
    res = solve_lp([1, 1], a_ub=[[1, 0], [0, 1]], b_ub=[2, 3])
    assert res.status == OPTIMAL
    assert res.objective == 5
    assert res.x == [2, 3]


def test_unbounded():
    res = solve_lp([1], a_ub=[[-1]], b_ub=[0])
    assert res.status == UNBOUNDED


def test_infeasible():
    res = solve_lp([0, 0], a_ub=[[1, 0], [-1, 0]], b_ub=[-1, -1])
    assert res.status == INFEASIBLE


def test_equality_constraints():
    # max x + 2y  s.t.  x + y = 3, y <= 2
    res = solve_lp([1, 2], a_ub=[[0, 1]], b_ub=[2], a_eq=[[1, 1]], b_eq=[3])
    assert res.status == OPTIMAL
    assert res.objective == 5
    assert res.x == [1, 2]


def test_negative_rhs_normalization():
    # free x with x <= -1 and -x <= 3: feasible segment [-3, -1]
    res = solve_lp([1], a_ub=[[1], [-1]], b_ub=[-1, 3])
    assert res.status == OPTIMAL
    assert res.objective == -1


def test_exact_fraction_arithmetic():
    res = solve_lp([F(1, 3)], a_ub=[[F(2, 7)]], b_ub=[F(3, 5)])
    assert res.status == OPTIMAL
    assert res.objective == F(1, 3) * F(21, 10)


def test_capacity_guard():
    with pytest.raises(CapacityExceeded):
        solve_lp([0] * 65)


def test_degenerate_equalities_with_redundancy():
    # duplicated equality rows leave an artificial stuck in a redundant row
    res = solve_lp([1, 1], a_ub=[[1, 1]], b_ub=[4], a_eq=[[1, -1], [1, -1]], b_eq=[0, 0])
    assert res.status == OPTIMAL
    assert res.objective == 4


def test_against_scipy_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(40):
        nv = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        c = rng.integers(-4, 5, nv).tolist()
        a = rng.integers(-4, 5, (m, nv)).tolist()
        b = rng.integers(-3, 8, m).tolist()
        mine = solve_lp(c, a_ub=a, b_ub=b)
        ref = linprog(
            [-v for v in c], A_ub=a, b_ub=b, bounds=[(None, None)] * nv, method="highs"
        )
        if mine.status == OPTIMAL:
            assert ref.status == 0, trial
            assert abs(float(mine.objective) + ref.fun) < 1e-8, trial
            # the certificate itself must satisfy every constraint exactly
            for row, bound in zip(a, b):
                assert sum(F(ai) * xi for ai, xi in zip(row, mine.x)) <= bound
        elif mine.status == UNBOUNDED:
            assert ref.status == 3, trial
        else:
            assert ref.status == 2, trial
