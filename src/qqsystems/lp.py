"""Exact rational linear programming by fraction-free two-phase simplex.

Variables are free (unrestricted in sign) at the interface and split
internally into nonnegative pairs.  The tableau columns are x+ (n), x- (n),
one slack per inequality row and, during phase 1, one artificial per row.
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
    c = [_rational(v) for v in c]
    n = len(c)
    nrows = len(a_ub)
    ncols = 2 * n + nrows
    total = ncols + nrows

    # columns: x+ (n), x- (n), slacks (nrows), artificials (nrows), rhs
    rows = []
    for i in range(nrows):
        vals = [_rational(v) for v in a_ub[i]]
        rhs = _rational(b_ub[i])
        scale = lcm(rhs.denominator, *(v.denominator for v in vals))
        s = -scale if rhs < 0 else scale  # normalize to rhs >= 0
        ints = [s * v.numerator // v.denominator for v in vals]
        line = ints + [-v for v in ints] + [0] * (2 * nrows)
        line[2 * n + i] = s
        line[ncols + i] = scale
        line.append(s * rhs.numerator // rhs.denominator)
        rows.append(_reduce(line))

    # phase 1: minimize the sum of the artificials
    basis = list(range(ncols, total))
    z = _cost_row(rows, basis, [0] * ncols + [1] * nrows + [0, 1])
    if _simplex(rows, basis, z, total) != OPTIMAL:
        raise RuntimeError("phase-1 simplex cannot be unbounded")
    if z[-2] != 0:
        return LPResult(INFEASIBLE, None, None)
    _drive_out_artificials(rows, basis, ncols)

    # phase 2 on the original columns only: the artificial columns go
    rows = [_reduce(row[:ncols] + row[-1:]) for row in rows]
    cscale = lcm(*(v.denominator for v in c))
    cost = [cscale * v.numerator // v.denominator for v in c]
    z = _cost_row(rows, basis,
                  cost + [-v for v in cost] + [0] * (nrows + 1) + [cscale])
    if _simplex(rows, basis, z, ncols) == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    value = {b: Fraction(row[-1], row[b])
             for row, b in zip(rows, basis) if b < 2 * n}
    x = tuple(value.get(j, F0) - value.get(n + j, F0) for j in range(n))
    return LPResult(OPTIMAL, x, Fraction(-z[-2], z[-1]))


def _rational(v) -> Fraction:
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


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
