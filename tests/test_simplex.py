"""Exact simplex tests, cross-validated against scipy's HiGHS solver and
against the Fraction-tableau oracle in ``lp_oracle``."""

from fractions import Fraction as F

import numpy as np
import pytest
import recovery_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_oracle import solve_lp_rational
from scipy.optimize import linprog

from rlah import montecarlo
from rlah.errors import CapacityExceeded, DegenerateSample
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


# -- the integer tableau against the Fraction-tableau oracle --------------------

RATIONALS = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=12)
)


@st.composite
def lps(draw):
    """(kind, c, a_ub, b_ub, a_eq, b_eq) over small exact rationals.

    "random" rows have any signs, so negative right-hand sides and phase 1
    are common; "redundant" adds nonzero multiples of equality rows, which
    leave artificials at level 0 to be pivoted out, on negative entries too;
    "infeasible" adds a contradicting pair of rows; "unbounded" keeps x = 0
    feasible while no row constrains the one variable that c rewards.
    """
    kind = draw(st.sampled_from(["random", "redundant", "infeasible", "unbounded"]))
    nv = draw(st.integers(1, 4))
    vec = st.lists(RATIONALS, min_size=nv, max_size=nv)
    c = draw(vec)
    a_ub = draw(st.lists(vec, max_size=4))
    b_ub = draw(st.lists(RATIONALS, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(vec, max_size=3))
    b_eq = draw(st.lists(RATIONALS, min_size=len(a_eq), max_size=len(a_eq)))
    if kind == "redundant" and a_eq:
        for i in draw(st.lists(st.integers(0, len(a_eq) - 1), min_size=1, max_size=3)):
            t = draw(RATIONALS.filter(bool))
            a_eq.append([t * v for v in a_eq[i]])
            b_eq.append(t * b_eq[i])
    elif kind == "infeasible":
        row, bound = draw(vec), draw(RATIONALS)
        a_ub += [row, [-v for v in row]]
        b_ub += [bound, -bound - draw(st.fractions(min_value=F(1, 12), max_value=3))]
    elif kind == "unbounded":
        c = [0] * nv
        c[draw(st.integers(0, nv - 1))] = draw(RATIONALS.filter(bool))
        free = c.index(next(v for v in c if v))
        for row in a_ub + a_eq:
            row[free] = 0
        b_ub = [abs(v) for v in b_ub]
        b_eq = [0] * len(a_eq)
    return kind, c, a_ub, b_ub, a_eq, b_eq


@settings(max_examples=250, deadline=None)
@given(lps())
def test_integer_tableau_matches_fraction_oracle(lp):
    kind, *args = lp
    mine = solve_lp(*args)
    assert mine == solve_lp_rational(*args)
    if kind == "infeasible":
        assert mine.status == INFEASIBLE
    elif kind == "unbounded":
        assert mine.status == UNBOUNDED


def test_degenerate_negative_pivot_out_matches_oracle():
    # both artificials stay at level 0 after phase 1; the first is pivoted
    # out on the entry -1, so the integer tableau is negated once
    args = ([1, 1], [[1, 1]], [4], [[-1, 1], [1, -1]], [0, 0])
    res = solve_lp(*args)
    assert res == solve_lp_rational(*args)
    assert res.status == OPTIMAL and res.objective == 4 and res.x == [2, 2]


# the criterion-09 and mc-cone points, one walk with n < d, and the
# criterion-10 and mc-recovery points; on the recovery points every face test
# is a vertex test, so their LPs come from the kernel-polytope oracle
CONE_GRID = [(2, 2, 1), (2, 4, 1), (3, 4, 1), (3, 4, 2), (3, 6, 2), (3, 6, 0), (4, 6, 1), (4, 6, 2),
             (4, 3, 1)]
RECOVERY_GRID = [(2, 3, 1), (2, 6, 1), (3, 6, 2), (4, 8, 2)]


def test_monte_carlo_lps_match_fraction_oracle(monkeypatch):
    """Every LP the seeded cone Monte Carlo and the recovery oracle solve,
    and the full face LPs on the Fraction sums, give the oracle's result."""
    lps_seen = []

    def recording(*args, **kwargs):
        lps_seen.append((args, kwargs))
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "solve_lp", recording)
    monkeypatch.setattr(recovery_oracle, "solve_lp", recording)
    for d, n, k in CONE_GRID:
        for seed in range(5):
            sample = montecarlo.generate_walk(d, n, np.random.default_rng((2024, d, n, seed)))
            montecarlo.count_faces(sample, k)
            montecarlo.classify_cone(sample)
            for subset in ([], [0], [n - 1]) if k else ([],):
                chosen = [sample.sums[i] for i in subset]
                rest = [sample.sums[j] for j in range(n) if j not in subset]
                lps_seen.append(
                    (([0] * d,), dict(a_ub=rest, b_ub=[-1] * len(rest), a_eq=chosen, b_eq=[0] * len(chosen)))
                )
    for d, n, k in RECOVERY_GRID:
        for rule in ("ones", "uniform"):
            for trial in range(6):
                inst = montecarlo.make_recovery_instance(d, n, k, np.random.default_rng((123, trial)), rule)
                try:
                    recovery_oracle.is_unique_recovery_lp(inst)
                except DegenerateSample:
                    continue
    statuses = set()
    for args, kwargs in lps_seen:
        mine = solve_lp(*args, **kwargs)
        assert mine == solve_lp_rational(*args, **kwargs), (args, kwargs)
        statuses.add(mine.status)
    assert len(lps_seen) >= 300
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
