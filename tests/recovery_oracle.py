"""Independent recovery oracle: uniqueness decided on the kernel polytope.

:func:`rlah.montecarlo.is_unique_recovery` decides uniqueness as one face
test on the walk of the measurement matrix's column sums.  This module
decides the same event without the walk: x is the only point of the
monotone chamber in x + ker(G) iff the kernel polytope
K = {w : x + N w is nonincreasing and nonnegative}, N an integer kernel
basis, is {0}.  K contains 0 always, and equals {0} iff each kernel
coordinate has maximum and minimum 0 over K (unboundedness counting as
failure), so it takes 2 dim(ker G) exact LPs over n rows, run on the
Fraction tableau of ``lp_oracle``.  Those LPs take seconds to minutes at
n from 25 up, so this route is used only by the tests, on small instances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from rlah.errors import DegenerateSample
from rlah.montecarlo import RecoveryInstance, _kernel_basis

from lp_oracle import OPTIMAL, UNBOUNDED, solve_lp_rational


def signal(inst: RecoveryInstance) -> Tuple[Fraction, ...]:
    """x_m = sum_l a_l [i_l >= m]: nonincreasing, nonnegative, with jumps
    exactly at the jump positions."""
    return tuple(
        sum(
            (a for a, i in zip(inst.amplitudes, inst.jump_positions) if i >= m),
            Fraction(0),
        )
        for m in range(1, inst.n + 1)
    )


def is_unique_recovery_lp(inst: RecoveryInstance) -> bool:
    """Is x the only point of the monotone chamber in x + ker(G)?

    Decided by 2 dim(ker G) exact LPs maximizing each +-kernel coordinate
    over K = {w : x + N w stays monotone nonnegative}; K = {0} iff all these
    maxima are 0, with unboundedness counting as non-uniqueness.
    """
    basis = _kernel_basis(inst.matrix, inst.n)
    if basis is None:
        raise DegenerateSample("measurement matrix is not of full row rank")
    m = len(basis)
    if m == 0:
        return True
    x = signal(inst)
    n = inst.n
    a_ub: List[List[int]] = []
    b_ub: List[Fraction] = []
    for i in range(n - 1):
        a_ub.append([basis[l][i + 1] - basis[l][i] for l in range(m)])
        b_ub.append(x[i] - x[i + 1])
    a_ub.append([-basis[l][n - 1] for l in range(m)])
    b_ub.append(x[n - 1])
    for l in range(m):
        for sign in (1, -1):
            c = [0] * m
            c[l] = sign
            result = solve_lp_rational(c, a_ub=a_ub, b_ub=b_ub)
            if result.status == UNBOUNDED:
                return False
            assert result.status == OPTIMAL  # w = 0 is always feasible
            if result.objective != 0:
                return False
    return True
