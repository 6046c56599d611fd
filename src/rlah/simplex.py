"""Exact phase-1 simplex on an integer tableau: is b a nonnegative combination of the columns?

:func:`solve_lp` decides whether some x >= 0 has sum_j x_j columns_j = b,
over integer inputs.  It either returns such an x or a Farkas certificate
y with y.columns_j >= 0 for every j and y.b < 0, which proves that no x
exists.  Rows with b_i < 0 are negated, one artificial per row forms the
starting basis, and phase 1 drives the artificials' sum down under
Bland's rule, which keeps the pivoting cycle-free.  Artificials never
re-enter once they leave.  There are no tolerances anywhere: every
decision is an exact comparison.

The tableau is kept fraction-free, after Bareiss (*Math. Comp.* 22, 1968):
integers T over one positive common denominator den, so that the rational
tableau is always T / den.  At the start the basis is the identity and
den = 1.  Then T = adj(B) A and den = det(B), B the columns of the current
basis.  A pivot on p = T[pr][pc] > 0 keeps the pivot row, replaces every
other row by (p T_i - f T_pr) / den with f = T_i[pc], and sets den = p,
the determinant of the new basis; the quotient is exact because each
entry is again a minor of A (Sylvester's identity).  :mod:`rlah.montecarlo`
eliminates with the same step, :func:`_pivot`.  Ratio-test candidates
are compared by cross multiplication.  At the end of phase 1 the
artificial columns hold adj(B), so the phase-1 duals, and with them the
Farkas certificate, are integer combinations of those columns.

At most 64 columns and 64 rows; a guard rejects anything larger.  The
walks of :mod:`rlah.montecarlo` are bounded by this size, so their LPs fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import CapacityExceeded

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_MAX_SIZE = 64


@dataclass
class LPResult:
    """x >= 0 with sum_j x_j columns_j = b when feasible, else the Farkas y."""

    status: str
    x: Optional[List[Fraction]]
    y: Optional[List[int]]


def _pivot(rows: List[List[int]], pr: int, pc: int, den: int) -> int:
    """Bareiss step on p = rows[pr][pc], in place: every other row becomes
    (p row_i - f row_pr) / den, f = row_i[pc], skipped when f = 0 and p = den.
    Returns p, the new common denominator."""
    prow = rows[pr]
    p = prow[pc]
    for i, row in enumerate(rows):
        if i != pr:
            f = row[pc]
            if f:
                rows[i] = [(p * a - f * c) // den for a, c in zip(row, prow)]
            elif p != den:
                rows[i] = [p * a // den for a in row]
    return p


def solve_lp(columns: Sequence[Sequence[int]], b: Sequence[int]) -> LPResult:
    """Find x >= 0 with sum_j x_j columns_j = b, or a y with y.columns_j >= 0 and y.b < 0."""
    nv, m = len(columns), len(b)
    if nv > _MAX_SIZE or m > _MAX_SIZE:
        raise CapacityExceeded(f"LP with {nv} columns / {m} rows exceeds the {_MAX_SIZE} design size")
    sign = [-1 if v < 0 else 1 for v in b]
    # columns 0..nv-1 are x, nv..nv+m-1 the artificials, the last is b; the
    # last row is the sum of the rows of basic artificials, whose x entries
    # are the phase-1 reduced costs (times den)
    tableau = [
        [s * col[i] for col in columns] + [int(j == i) for j in range(m)] + [s * b[i]]
        for i, s in enumerate(sign)
    ]
    tableau.append([sum(col) for col in zip(*tableau)] if m else [0] * (nv + 1))
    basis = list(range(nv, nv + m))
    den = 1

    while True:
        obj = tableau[m]
        enter = next((j for j in range(nv) if obj[j] > 0), -1)  # Bland: lowest index enters
        if enter < 0:
            break
        # a positive reduced cost has a positive entry in some row, so phase 1 is bounded
        leave = -1
        for i in range(m):
            row = tableau[i]
            coef = row[enter]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                # row[-1] / coef against the best ratio, both denominators > 0
                best = tableau[leave]
                lhs, rhs = row[-1] * best[enter], best[-1] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        den = _pivot(tableau, leave, enter, den)
        basis[leave] = enter

    obj = tableau[m]
    if obj[-1]:
        # the artificials keep a positive sum: y = -c_B B^-1 (times den) over
        # the negated rows, mapped back through the negations
        return LPResult(INFEASIBLE, None, [-s * obj[nv + i] for i, s in enumerate(sign)])
    x = [Fraction(0)] * nv
    for row, j in zip(tableau, basis):
        if j < nv:
            x[j] = Fraction(row[-1], den)
    return LPResult(FEASIBLE, x, None)
