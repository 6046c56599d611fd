"""Dense exact simplex on an integer tableau, for the small LPs of the Monte Carlo verifier.

Maximizes c.x over free x subject to A_ub x <= b_ub and A_eq x = b_eq, all
entries exact rationals.  Free variables are split into positive parts,
negative right-hand sides are normalized, and a phase-1 pass with artificial
variables establishes feasibility when the slack basis is not immediately
available.  Bland's rule keeps the pivoting cycle-free.  There are no
tolerances anywhere: feasibility, optimality and unboundedness are decided
by exact comparisons.

The tableau is kept fraction-free, after Bareiss (*Math. Comp.* 22, 1968):
integers T over one positive common denominator den, so that the rational
tableau is always T / den.  At the start, with s_i the lcm of the
denominators of constraint row i and its right-hand side, every row is
multiplied by P = prod(s_i) and den = P.  Then T = adj(B) A and den = det(B),
where A is the integer matrix of the rows scaled by their own s_i and B the
columns of A of the current basis (at the start, diag(s)).  A pivot on
p = T[pr][pc] keeps the pivot row, replaces every other row by
(p T_i - f T_pr) / den with f = T_i[pc], and sets den = p, which is the
determinant of the new basis; the quotient is exact because each entry is
again a minor of A (Sylvester's identity).  Only the pivot-out of a
degenerate artificial can meet p < 0; the tableau is then negated so that
den stays positive.  Reduced costs are compared as cost_j den - sum lam_i
T_ij with the costs scaled to integers, and ratio-test candidates by cross
multiplication.  Since T / den is the rational tableau at every step, the
pivots, and so the status, the point and the objective, are exactly those
of pivoting Fractions; Fractions are built only for the returned point and
objective.

Sized for the instances this package generates (a few dozen variables and
constraints); a guard rejects anything larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import CapacityExceeded

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_MAX_SIZE = 64


@dataclass
class LPResult:
    status: str
    objective: Optional[Fraction]
    x: Optional[List[Fraction]]


def _exact(v):
    """v as an int or Fraction, both of which carry numerator and denominator."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def solve_lp(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LPResult:
    """Maximize c.x, x free, subject to a_ub x <= b_ub and a_eq x = b_eq."""
    nv = len(c)
    if nv > _MAX_SIZE or len(a_ub) + len(a_eq) > _MAX_SIZE:
        raise CapacityExceeded(
            f"LP with {nv} variables / {len(a_ub) + len(a_eq)} constraints exceeds "
            f"the {_MAX_SIZE} design size"
        )
    ns = 2 * nv  # split each free variable into x+ - x-

    # (row, rhs, sense): sense 1 for a slack row (surplus + artificial once a
    # negative rhs is negated), 0 for an equality row (artificial)
    cons = [([_exact(v) for v in a], _exact(b), +1) for a, b in zip(a_ub, b_ub)]
    cons += [([_exact(v) for v in a], _exact(b), 0) for a, b in zip(a_eq, b_eq)]
    m = len(cons)
    den = math.prod(math.lcm(b.denominator, *(v.denominator for v in a)) for a, b, _ in cons)
    n_slack = sum(1 for _, _, s in cons if s)
    n_art = m - n_slack + sum(1 for _, b, s in cons if s and b < 0)
    ncols = ns + n_slack + n_art

    tableau: List[List[int]] = []
    basis = [-1] * m
    art_cols: List[int] = []
    js, ja = ns, ns + n_slack
    for i, (a, b, sense) in enumerate(cons):
        sign = -1 if b < 0 else 1
        row = [0] * (ncols + 1)
        for j, v in enumerate(a):
            row[2 * j] = t = sign * v.numerator * (den // v.denominator)
            row[2 * j + 1] = -t
        row[-1] = sign * b.numerator * (den // b.denominator)
        if sense and sign > 0:
            row[js] = den
            basis[i] = js
            js += 1
        else:
            if sense:
                row[js] = -den
                js += 1
            row[ja] = den
            basis[i] = ja
            art_cols.append(ja)
            ja += 1
        tableau.append(row)

    def pivot(pr: int, pc: int) -> None:
        nonlocal den, tableau
        prow = tableau[pr]
        p = prow[pc]
        for i, row in enumerate(tableau):
            if i != pr:
                f = row[pc]
                if f:
                    tableau[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
                elif p != den:
                    tableau[i] = [p * a // den for a in row]
        if p < 0:  # only a degenerate artificial's pivot-out; keep den > 0
            tableau = [[-v for v in row] for row in tableau]
            p = -p
        den = p
        basis[pr] = pc

    def run(cost: List[int], allowed: List[bool]) -> str:
        while True:
            in_basis = set(basis)
            lam = [(row, cost[j]) for row, j in zip(tableau, basis) if cost[j]]
            enter = -1
            for j in range(ncols):  # Bland: lowest eligible index enters
                if not allowed[j] or j in in_basis:
                    continue
                if cost[j] * den > sum(l * row[j] for row, l in lam):
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            for i, row in enumerate(tableau):
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
            if leave < 0:
                return UNBOUNDED
            pivot(leave, enter)

    allowed = [True] * ncols
    if art_cols:
        phase1 = [0] * ncols
        for j in art_cols:
            phase1[j] = -1
        status = run(phase1, allowed)
        assert status == OPTIMAL  # phase 1 is bounded by 0
        art_set = set(art_cols)
        if any(row[-1] for row, j in zip(tableau, basis) if j in art_set):
            return LPResult(INFEASIBLE, None, None)
        for i in range(m):
            if basis[i] in art_set:
                # degenerate artificial at level 0: pivot it out if the row
                # touches any real column, otherwise the row is redundant
                row = tableau[i]
                target = next((j for j in range(ncols) if j not in art_set and row[j]), None)
                if target is not None:
                    pivot(i, target)
        for j in art_cols:
            allowed[j] = False

    c = [_exact(v) for v in c]
    scale = math.lcm(*(v.denominator for v in c))
    cost = [0] * ncols
    for j, v in enumerate(c):
        cost[2 * j] = v.numerator * (scale // v.denominator)
        cost[2 * j + 1] = -cost[2 * j]
    status = run(cost, allowed)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    values = [0] * ncols
    for row, j in zip(tableau, basis):
        values[j] = row[-1]
    x = [values[2 * j] - values[2 * j + 1] for j in range(nv)]
    objective = Fraction(sum(cost[2 * j] * xj for j, xj in enumerate(x)), scale * den)
    return LPResult(OPTIMAL, objective, [Fraction(xj, den) for xj in x])
