"""Independent LP oracle: the dense two-phase simplex on a tableau of Fractions.

This is the only general LP in the project: it maximizes c.x over free x
subject to inequality and equality rows with exact rational entries,
splitting free variables into positive parts, negating negative
right-hand sides, running phase 1 with artificials and then phase 2, all
under Bland's rule, and it reports optimal, infeasible or unbounded.
:func:`rlah.simplex.solve_lp` asks only the phase-1 question (is b a
nonnegative combination of integer columns?) on an integer tableau; the
tests pose that question here as {x >= 0, A x = b} and hold the two
verdicts together, and the face and recovery oracles of the tests run
their LPs here.  Every pivot divides Fractions, so it is slow, and it is
not used outside the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class LPResult:
    status: str
    objective: Optional[Fraction]
    x: Optional[List[Fraction]]


_ZERO = Fraction(0)
_ONE = Fraction(1)


def solve_lp_rational(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LPResult:
    """Maximize c.x, x free, subject to a_ub x <= b_ub and a_eq x = b_eq."""
    nv = len(c)
    ns = 2 * nv  # split each free variable into x+ - x-

    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    senses: List[int] = []  # +1 slack, -1 surplus + artificial, 0 equality + artificial

    def split(a):
        row = []
        for v in a:
            f = Fraction(v)
            row.append(f)
            row.append(-f)
        return row

    for a, b in zip(a_ub, b_ub):
        row, b = split(a), Fraction(b)
        if b < 0:
            rows.append([-v for v in row]); rhs.append(-b); senses.append(-1)
        else:
            rows.append(row); rhs.append(b); senses.append(+1)
    for a, b in zip(a_eq, b_eq):
        row, b = split(a), Fraction(b)
        if b < 0:
            rows.append([-v for v in row]); rhs.append(-b); senses.append(0)
        else:
            rows.append(row); rhs.append(b); senses.append(0)

    m = len(rows)
    n_slack = sum(1 for s in senses if s != 0)
    n_art = sum(1 for s in senses if s != +1)
    ncols = ns + n_slack + n_art

    tableau = [[_ZERO] * (ncols + 1) for _ in range(m)]
    basis = [-1] * m
    art_cols: List[int] = []
    js, ja = ns, ns + n_slack
    for i in range(m):
        tableau[i][: ns] = rows[i]
        tableau[i][-1] = rhs[i]
        if senses[i] == +1:
            tableau[i][js] = _ONE
            basis[i] = js
            js += 1
        elif senses[i] == -1:
            tableau[i][js] = -_ONE
            js += 1
            tableau[i][ja] = _ONE
            basis[i] = ja
            art_cols.append(ja)
            ja += 1
        else:
            tableau[i][ja] = _ONE
            basis[i] = ja
            art_cols.append(ja)
            ja += 1

    def pivot(pr: int, pc: int) -> None:
        prow = tableau[pr]
        inv = _ONE / prow[pc]
        prow = [v * inv for v in prow]
        tableau[pr] = prow
        for i in range(m):
            if i == pr:
                continue
            f = tableau[i][pc]
            if f:
                tableau[i] = [a - f * b for a, b in zip(tableau[i], prow)]
        basis[pr] = pc

    def run(cost: List[Fraction], allowed: List[bool]) -> str:
        while True:
            in_basis = set(basis)
            lam = [cost[basis[i]] for i in range(m)]
            enter = -1
            for j in range(ncols):  # Bland: lowest eligible index enters
                if not allowed[j] or j in in_basis:
                    continue
                reduced = cost[j] - sum(lam[i] * tableau[i][j] for i in range(m))
                if reduced > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave, best = -1, None
            for i in range(m):
                coef = tableau[i][enter]
                if coef > 0:
                    ratio = tableau[i][-1] / coef
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, enter)

    allowed = [True] * ncols
    if art_cols:
        phase1 = [_ZERO] * ncols
        for j in art_cols:
            phase1[j] = -_ONE
        status = run(phase1, allowed)
        assert status == OPTIMAL  # phase 1 is bounded by 0
        infeasibility = -sum(phase1[basis[i]] * tableau[i][-1] for i in range(m))
        if infeasibility != 0:
            return LPResult(INFEASIBLE, None, None)
        art_set = set(art_cols)
        for i in range(m):
            if basis[i] in art_set:
                # degenerate artificial at level 0: pivot it out if the row
                # touches any real column, otherwise the row is redundant
                target = next(
                    (j for j in range(ncols) if j not in art_set and tableau[i][j] != 0), None
                )
                if target is not None:
                    pivot(i, target)
        for j in art_cols:
            allowed[j] = False

    cost = [_ZERO] * ncols
    for j in range(nv):
        cost[2 * j] = Fraction(c[j])
        cost[2 * j + 1] = -Fraction(c[j])
    status = run(cost, allowed)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    values = [_ZERO] * ncols
    for i in range(m):
        values[basis[i]] = tableau[i][-1]
    x = [values[2 * j] - values[2 * j + 1] for j in range(nv)]
    objective = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), _ZERO)
    return LPResult(OPTIMAL, objective, x)
