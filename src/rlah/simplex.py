"""Exact phase-1 simplex on an integer tableau: is b a nonnegative combination of the columns?

:func:`solve_lp` decides whether some x >= 0 has sum_j x_j columns_j = b,
over integer inputs.  Its proof, read from the final basis B on first
access, is such an x or a Farkas certificate y with y.columns_j >= 0 for
every j and y.b < 0, which proves that no x exists.  Rows with b_i < 0 are
negated, one artificial per row forms the starting basis, and phase 1
drives the artificials' sum down under Bland's rule, which keeps the
pivoting cycle-free.  Artificials never re-enter once they leave, so the
rule reads only the structural columns, the right-hand side and the basis
labels: the tableau carries no artificial columns.  There are no
tolerances anywhere: every decision is an exact comparison.

The tableau is kept fraction-free, after Bareiss (*Math. Comp.* 22, 1968):
integers T over one positive common denominator den, so that the rational
tableau is always T / den.  At the start the basis is the identity and
den = 1.  Then T = adj(B) A and den = det(B).  A pivot on p = T[pr][pc] > 0
keeps the pivot row, replaces every other row by (p T_i - f T_pr) / den
with f = T_i[pc], and sets den = p, the determinant of the new basis; the
quotient is exact because each entry is again a minor of A (Sylvester's
identity).  :func:`_eliminate` runs the same step, :func:`_pivot`, as
Gauss-Jordan elimination for :mod:`rlah.montecarlo` and for y: the
phase-1 duals pi solve B^T pi = c_B (c_B one on the basic artificials),
and y is -pi at a positive integer scale.  Ratio-test candidates are
compared by cross multiplication.

At most 64 columns and 64 rows; a guard rejects anything larger.  The
walks of :mod:`rlah.montecarlo` are bounded by this size, so their LPs fit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .errors import CapacityExceeded

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_MAX_SIZE = 64


class LPResult:
    """The verdict, ``status``.  Built on first read from the final basis:
    ``x`` >= 0 with sum_j x_j columns_j = b when feasible, else the Farkas
    ``y``; the other reads None."""

    def __init__(self, status: str, nv: int, basis: List[int], tableau: List[List[int]], den: int,
                 sign: List[int], columns: Sequence[Sequence[int]]) -> None:
        # the final basis (nv + i: row i's artificial) and tableau, and the LP's columns
        self.status = status
        self._nv, self._basis, self._tableau, self._den = nv, basis, tableau, den
        self._sign, self._columns = sign, columns

    @cached_property
    def x(self) -> Optional[List[Fraction]]:
        if self.status != FEASIBLE:
            return None
        values = {j: row[-1] for j, row in zip(self._basis, self._tableau)}
        return [Fraction(values.get(j, 0), self._den) for j in range(self._nv)]

    @cached_property
    def y(self) -> Optional[List[int]]:
        if self.status != INFEASIBLE:
            return None
        sign, nv, m, columns = self._sign, self._nv, len(self._sign), self._columns
        system = [[s * v for s, v in zip(sign, columns[j])] + [0] if j < nv
                  else [int(i == j - nv) for i in range(m)] + [1] for j in self._basis]
        rows, _, det = _eliminate(system, m)  # B^T is regular: row i holds det at column i
        return [-s * row[m] if det > 0 else s * row[m] for s, row in zip(sign, rows)]


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
        den = _pivot(mat, top, col, den)
        pivots.append(col)
    return mat, pivots, den


def solve_lp(columns: Sequence[Sequence[int]], b: Sequence[int]) -> LPResult:
    """Find x >= 0 with sum_j x_j columns_j = b, or a y with y.columns_j >= 0 and y.b < 0."""
    nv, m = len(columns), len(b)
    if nv > _MAX_SIZE or m > _MAX_SIZE:
        raise CapacityExceeded(f"LP with {nv} columns / {m} rows exceeds the {_MAX_SIZE} design size")
    sign = [-1 if v < 0 else 1 for v in b]
    # columns 0..nv-1 are x and the last is b; the last row is the sum of the
    # rows of basic artificials, whose x entries are the phase-1 reduced
    # costs (times den)
    tableau = [[s * col[i] for col in columns] + [s * b[i]] for i, s in enumerate(sign)]
    tableau.append([sum(col) for col in zip(*tableau)] if m else [0] * (nv + 1))
    basis = list(range(nv, nv + m))
    den = 1

    while True:
        obj = tableau[m]
        for enter in range(nv):  # Bland: lowest index enters
            if obj[enter] > 0:
                break
        else:
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

    # the artificials keep a positive sum exactly when no x exists
    return LPResult(INFEASIBLE if tableau[m][-1] else FEASIBLE, nv, basis, tableau, den, sign, columns)
