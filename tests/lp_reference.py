"""Reference two-phase simplex over a plain Fraction tableau (tests only).

This is the straightforward implementation that ``qqsystems.lp`` replaced
with an integer-row tableau.  It puts an artificial on every row, where
``qqsystems.lp`` starts at the slack basis and puts one only on each row
whose rhs is negative, so the two may stop at different vertices; the
status and the minimum do not depend on where phase 1 starts.  Both use
Bland's rule.  The property tests in ``test_lp.py`` hold the fast kernel's
``lp_solve`` to this one's, and its ``feasible`` to this one's verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from qqsystems.lp import F0, INFEASIBLE, OPTIMAL, UNBOUNDED

F1 = Fraction(1)


def lp_solve(c: Sequence[Fraction],
             a_ub: Sequence[Sequence[Fraction]] = (),
             b_ub: Sequence[Fraction] = ()
             ) -> Tuple[str, Optional[Fraction]]:
    """The status and minimum of c.x subject to a_ub x <= b_ub, x free; the
    minimum is None unless the status is OPTIMAL."""
    n = len(c)
    nrows = len(a_ub)
    if nrows == 0:
        if any(Fraction(v) != 0 for v in c):
            return UNBOUNDED, None
        return OPTIMAL, F0
    # columns: x+ (n), x- (n), slacks (nrows), artificials (nrows), rhs;
    # each row is normalized to rhs >= 0
    ncols = 2 * n + nrows
    tableau = []
    for i, (row, b) in enumerate(zip(a_ub, b_ub)):
        r = [Fraction(v) for v in row]
        line = r + [-v for v in r] + [F0] * nrows
        line[2 * n + i] = F1
        s = -1 if b < 0 else 1
        tableau.append([s * v for v in line] +
                       [F1 if j == i else F0 for j in range(nrows)] +
                       [s * Fraction(b)])
    basis = [ncols + i for i in range(nrows)]
    total = ncols + nrows
    cost1 = [F0] * ncols + [F1] * nrows
    if _simplex(tableau, basis, cost1, total) != OPTIMAL:
        raise RuntimeError("phase-1 simplex cannot be unbounded")
    if _objective(tableau, basis, cost1) != 0:
        return INFEASIBLE, None
    _drive_out_artificials(tableau, basis, ncols)

    # phase 2 on the original columns only
    cost2 = [F0] * total
    for j in range(n):
        cost2[j] = Fraction(c[j])
        cost2[n + j] = -Fraction(c[j])
    if _simplex(tableau, basis, cost2, ncols) == UNBOUNDED:
        return UNBOUNDED, None
    return OPTIMAL, _objective(tableau, basis, cost2)


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
