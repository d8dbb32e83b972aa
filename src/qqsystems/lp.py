"""Exact rational linear programming by fraction-free two-phase simplex.

Two entries share the row builder and the pivots.  `optimum` returns the
status and optimum value, which do not depend on where phase 1 starts: it
starts at the slack basis, with an artificial only on each row whose rhs
is negative.  `lp_solve` also returns a vertex, which does depend on it;
it puts an artificial on every row, as the tests' Fraction simplex does.

Variables are free (unrestricted in sign) at the interface and split
internally into nonnegative pairs.  The tableau columns are x+ (n), x- (n),
one slack per inequality row and, during phase 1, the artificials.
Pivoting uses Bland's rule (the smallest entering column with negative
reduced cost; ratio-test ties go to the smallest basic column), which
guarantees termination without perturbation.

Integer-row invariant: each constraint row is scaled to integers once, by
the lcm of its denominators, and row i is kept as a list of Python ints R
whose true value is R / R[basis[i]], with R[basis[i]] > 0 and the entries
of R coprime.  A pivot on (r, col) cross-multiplies every other row,
R_i <- p R_i - R_i[col] R_r with p = R_r[col] > 0, and divides the result
by its gcd; ratios are compared by cross-multiplying.  The reduced-cost row
lives in the tableau as ints over its own positive denominator and is
updated by the same pivots instead of being recomputed every iteration.

Every quantity the pivot rules look at (the sign of a reduced cost, the
sign of a column entry, the order of two ratios) is exactly the value the
plain Fraction tableau with the same columns would hold; only its
representation differs.  So the pivot sequence, and with it every returned
vertex, is that of the Fraction tableau.  Results are turned into
Fractions once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

F0 = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Optional[Tuple[Fraction, ...]]  # a solution of the original free variables
    objective: Optional[Fraction]


def lp_solve(c: Sequence[Fraction],
             a_ub: Sequence[Sequence[Fraction]] = (),
             b_ub: Sequence[Fraction] = ()) -> LPResult:
    """Minimize c.x subject to a_ub x <= b_ub, x free."""
    n = len(c)
    cost, cscale = _integers(c)
    scaled = [_integers([*a, b]) for a, b in zip(a_ub, b_ub)]
    status, objective, rows, basis = _solve(
        cost, cscale, [(r[:-1], r[-1], d) for r, d in scaled], every_row=True)
    if status != OPTIMAL:
        return LPResult(status, None, None)
    value = {b: Fraction(row[-1], row[b])
             for row, b in zip(rows, basis) if b < 2 * n}
    x = tuple(value.get(j, F0) - value.get(n + j, F0) for j in range(n))
    return LPResult(OPTIMAL, x, objective)


def optimum(c: Sequence[int], a_ub: Sequence[Sequence[int]] = (),
            b_ub: Sequence[int] = ()) -> Tuple[str, Optional[Fraction]]:
    """The status and minimum of c.x subject to a_ub x <= b_ub, x free, on
    integer data; the minimum is None unless the status is OPTIMAL."""
    return _solve(list(c), 1, [(a, b, 1) for a, b in zip(a_ub, b_ub)],
                  every_row=False)[:2]


def _solve(cost, cscale, constraints, every_row):
    """(status, objective, rows, basis) for the cost cost / cscale.

    Constraint (a, b, u) is a x <= b in integers, whose slack and
    artificial enter it as u > 0.  A row starts with an artificial basic
    when every_row is set or b < 0, else with its slack basic."""
    n = len(cost)
    nrows = len(constraints)
    ncols = 2 * n + nrows
    art = [i for i, (_, b, _) in enumerate(constraints)
           if every_row or b < 0]
    basis = list(range(2 * n, ncols))
    for k, i in enumerate(art):
        basis[i] = ncols + k
    total = ncols + len(art)

    # columns: x+ (n), x- (n), slacks (nrows), artificials (len(art)), rhs
    rows = []
    for i, (a, b, u) in enumerate(constraints):
        s = -1 if b < 0 else 1  # normalize to rhs >= 0
        line = [s * v for v in a] + [-s * v for v in a] + [0] * (total - 2 * n)
        line[2 * n + i] = s * u
        line[basis[i]] = u
        line.append(s * b)
        rows.append(_reduce(line))

    # phase 1: minimize the sum of the artificials
    if art:
        z = _cost_row(rows, basis, [0] * ncols + [1] * len(art) + [0, 1])
        if _simplex(rows, basis, z, total) != OPTIMAL:
            raise RuntimeError("phase-1 simplex cannot be unbounded")
        if z[-2] != 0:
            return INFEASIBLE, None, rows, basis
        _drive_out_artificials(rows, basis, ncols)
        # phase 2 runs on the original columns only: the artificials go
        rows = [_reduce(row[:ncols] + row[-1:]) for row in rows]
    if not any(cost):
        return OPTIMAL, F0, rows, basis

    z = _cost_row(rows, basis,
                  cost + [-v for v in cost] + [0] * (nrows + 1) + [cscale])
    if _simplex(rows, basis, z, ncols) == UNBOUNDED:
        return UNBOUNDED, None, rows, basis
    return OPTIMAL, Fraction(-z[-2], z[-1]), rows, basis


def _integers(vals) -> Tuple[List[int], int]:
    """(ints, d): the rationals vals times d, the lcm of their denominators."""
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in vals]
    d = lcm(*(v.denominator for v in vals))
    return [d * v.numerator // v.denominator for v in vals], d


def _reduce(row: List[int]) -> List[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _cost_row(rows, basis, cost) -> List[int]:
    """The tableau's cost row for the objective `cost` at `basis`.

    `cost` and the result hold integer column entries, then the rhs slot
    (minus the objective value), then a positive denominator D: each true
    value is its entry over D.  `cost` has 0 in its rhs slot.
    """
    z = cost
    for row, b in zip(rows, basis):
        f = z[b]
        if f:
            d = row[b]
            z = [d * a - f * v for a, v in zip(z, row)] + [d * z[-1]]
    return _reduce(z)


def _simplex(rows, basis, z, ncols) -> str:
    """Minimize; Bland's rule; pivots restricted to columns < ncols."""
    basic = set(basis)
    while True:
        enter = next((j for j in range(ncols) if z[j] < 0 and j not in basic),
                     None)
        if enter is None:
            return OPTIMAL
        # ratio test rhs/a by cross-multiplication, Bland tie-break on the
        # leaving basis index
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a <= 0:
                continue
            if leave is not None:
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_b, best_a = i, row[-1], a
        if leave is None:
            return UNBOUNDED
        basic.discard(basis[leave])
        basic.add(enter)
        _pivot(rows, basis, leave, enter, z)


def _pivot(rows, basis, r, col, z=None):
    """Make `col` basic in row r; also update the cost row z when given."""
    piv = rows[r]
    p = piv[col]
    if p < 0:
        piv = rows[r] = [-v for v in piv]
        p = -p
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            rows[i] = _reduce([p * a - f * b for a, b in zip(row, piv)])
    if z is not None and z[col]:
        f = z[col]
        z[:] = _reduce([p * a - f * b for a, b in zip(z, piv)] + [p * z[-1]])
    basis[r] = col


def _drive_out_artificials(rows, basis, ncols):
    """Pivot basic artificials onto real columns.

    Every row has a nonzero real column: the slack columns alone give the
    real part of the tableau full row rank.
    """
    for i in range(len(rows)):
        if basis[i] >= ncols:
            _pivot(rows, basis, i, next(j for j in range(ncols) if rows[i][j]))


def feasible(a_ub=(), b_ub=(), *, dim: int
             ) -> Optional[Tuple[Fraction, ...]]:
    """A feasible point of a_ub x <= b_ub in dim variables, or None."""
    res = lp_solve([F0] * dim, a_ub, b_ub)
    return res.x if res.status == OPTIMAL else None
