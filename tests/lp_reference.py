"""Reference two-phase simplex over a plain Fraction tableau (tests only).

This is the straightforward implementation that ``qqsystems.lp`` replaced
with an integer-row tableau.  Both use the same column layout (x+, x-,
slacks, one artificial per row), Bland's rule and the same artificial
drive-out, so they must return equal ``LPResult``s: the property tests in
``test_lp.py`` hold the fast kernel to this one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from qqsystems.lp import F0, INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult

F1 = Fraction(1)


def lp_solve(c: Sequence[Fraction],
             a_ub: Sequence[Sequence[Fraction]] = (),
             b_ub: Sequence[Fraction] = (),
             a_eq: Sequence[Sequence[Fraction]] = (),
             b_eq: Sequence[Fraction] = ()) -> LPResult:
    """Minimize c.x subject to a_ub x <= b_ub and a_eq x = b_eq, x free."""
    n = len(c)
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    n_slack = len(a_ub)
    # columns: x+ (n), x- (n), slacks (n_slack)
    for i, row in enumerate(a_ub):
        r = [Fraction(v) for v in row]
        line = r + [-v for v in r] + [F0] * n_slack
        line[2 * n + i] = F1
        rows.append(line)
        rhs.append(Fraction(b_ub[i]))
    for i, row in enumerate(a_eq):
        r = [Fraction(v) for v in row]
        rows.append(r + [-v for v in r] + [F0] * n_slack)
        rhs.append(Fraction(b_eq[i]))
    ncols = 2 * n + n_slack
    # normalize to rhs >= 0
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    nrows = len(rows)
    if nrows == 0:
        if any(Fraction(v) != 0 for v in c):
            return LPResult(UNBOUNDED, None, None)
        return LPResult(OPTIMAL, tuple([F0] * n), F0)

    # phase 1: artificial variable per row
    tableau = [rows[i] + [F1 if j == i else F0 for j in range(nrows)] + [rhs[i]]
               for i in range(nrows)]
    basis = [ncols + i for i in range(nrows)]
    total = ncols + nrows
    cost1 = [F0] * total
    for j in range(ncols, total):
        cost1[j] = F1
    if _simplex(tableau, basis, cost1, total) != OPTIMAL:
        raise RuntimeError("phase-1 simplex cannot be unbounded")
    if _objective(tableau, basis, cost1) != 0:
        return LPResult(INFEASIBLE, None, None)
    _drive_out_artificials(tableau, basis, ncols)

    # phase 2 on the original columns only
    cost2 = [F0] * total
    for j in range(n):
        cost2[j] = Fraction(c[j])
        cost2[n + j] = -Fraction(c[j])
    status = _simplex(tableau, basis, cost2, ncols)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    sol = [F0] * total
    for i, b in enumerate(basis):
        sol[b] = tableau[i][-1]
    x = tuple(sol[j] - sol[n + j] for j in range(n))
    obj = sum((Fraction(c[j]) * x[j] for j in range(n)), F0)
    return LPResult(OPTIMAL, x, obj)


def _objective(tableau, basis, cost) -> Fraction:
    return sum((cost[b] * tableau[i][-1] for i, b in enumerate(basis)), F0)


def _reduced_costs(tableau, basis, cost, ncols) -> List[Fraction]:
    red = [Fraction(cost[j]) for j in range(ncols)]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            row = tableau[i]
            for j in range(ncols):
                if row[j] != 0:
                    red[j] -= cb * row[j]
    return red


def _simplex(tableau, basis, cost, ncols) -> str:
    """Minimize; Bland's rule; pivots restricted to columns < ncols."""
    while True:
        red = _reduced_costs(tableau, basis, cost, ncols)
        enter = None
        for j in range(ncols):
            if red[j] < 0 and j not in basis:
                enter = j
                break
        if enter is None:
            return OPTIMAL
        # ratio test with Bland tie-break on the leaving basis index
        leave = None
        best = None
        for i in range(len(tableau)):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tableau, basis, leave, enter)


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[row])]
    basis[row] = col


def _drive_out_artificials(tableau, basis, ncols):
    """Pivot basic artificials onto real columns; drop redundant rows."""
    i = 0
    while i < len(tableau):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if col is None:
                del tableau[i]
                del basis[i]
                continue
            _pivot(tableau, basis, i, col)
        i += 1
