"""Exact rational linear programming by fraction-free two-phase simplex.

Every LP starts phase 1 at the slack basis.  `extend` takes a feasible
tableau and adds rows to it: each new row enters with its slack
basic, reduced against the current basis, and phase 1 puts an artificial
only on each row whose rhs is then negative.  A reduced row with negative
rhs and no negative entry refutes the system at once, with no pivot.
`lp_solve` is `extend` of the empty tableau followed by phase 2, and
returns the status and the minimum; `feasible` returns the basic solution
of the tableau that `extend` builds from the empty one, a vertex of the
system.

Variables are free (unrestricted in sign) at the interface and split
internally into nonnegative pairs.  The tableau columns are x+ (n), x- (n),
one slack per inequality row and, during phase 1, the artificials.
Pivoting uses Bland's rule (the smallest entering column with negative
reduced cost; ratio-test ties go to the smallest basic column), which
guarantees termination without perturbation.  A feasible tableau, as
`extend` takes and returns it, is a tuple (n, rows, basis): n free
variables, rows over x+, x-, the slacks and a rhs that is >= 0 in every
row, and basis[i], row i's basic column.  The empty tableau (n, (), ())
holds no row.

Integer-row invariant: every entry point takes integer rows, and row i is
kept as a list of Python ints R whose true value is R / R[basis[i]], with
R[basis[i]] > 0 and the entries of R coprime.  A pivot on (r, col)
cross-multiplies every other row, R_i <- p R_i - R_i[col] R_r with
p = R_r[col] > 0, and divides the result by its gcd; ratios are compared
by cross-multiplying.  The reduced-cost row lives in the tableau as ints
over its own positive denominator and is updated by the same pivots
instead of being recomputed every iteration.

Every quantity the pivot rules look at (the sign of a reduced cost, the
sign of a column entry, the order of two ratios) is exactly the value the
plain Fraction tableau with the same columns would hold; only its
representation differs.  So the pivot sequence is that of the Fraction
tableau.  It depends on the scale of the rows: phase 1 minimizes the sum
of the artificials, each in its own row's units, so the vertex `feasible`
returns can move when a row is multiplied by a positive factor, while the
status and minimum of `lp_solve` cannot.  Results are turned into
Fractions once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

F0 = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def lp_solve(c: Sequence[int], a_ub: Sequence[Sequence[int]] = (),
             b_ub: Sequence[int] = ()) -> Tuple[str, Optional[Fraction]]:
    """The status and minimum of c.x subject to a_ub x <= b_ub, x free, on
    integer data; the minimum is None unless the status is OPTIMAL."""
    t = extend((len(c), (), ()), a_ub, b_ub)
    if t is None:
        return INFEASIBLE, None
    if not any(c):
        return OPTIMAL, F0
    _, rows, basis = t
    rows, basis = list(rows), list(basis)
    z = _cost_row(rows, basis,
                  [*c, *(-v for v in c)] + [0] * (len(rows) + 1) + [1])
    if _simplex(rows, basis, z, 2 * len(c) + len(rows)) == UNBOUNDED:
        return UNBOUNDED, None
    return OPTIMAL, Fraction(-z[-2], z[-1])


def feasible(a_ub: Sequence[Sequence[int]] = (), b_ub: Sequence[int] = (),
             *, dim: int) -> Optional[Tuple[Fraction, ...]]:
    """A vertex of the integer system a_ub x <= b_ub in dim free
    variables, the basic solution of its tableau from extend, or None
    when the system is infeasible."""
    t = extend((dim, (), ()), a_ub, b_ub)
    if t is None:
        return None
    _, rows, basis = t
    value = {b: Fraction(row[-1], row[b])
             for row, b in zip(rows, basis) if b < 2 * dim}
    return tuple(value.get(j, F0) - value.get(dim + j, F0)
                 for j in range(dim))


def extend(tableau, a_ub: Sequence[Sequence[int]], b_ub: Sequence[int]):
    """A feasible tableau of the tableau's system with the integer rows
    a_ub x <= b_ub added, or None when that system is infeasible.

    Each new row enters with its slack basic, reduced against the current
    basis; the tableau passed in is not changed.
    """
    n, old, basis = tableau
    width = 2 * n + len(old)  # the columns before the new slacks
    new = []  # each reduced row without the new slacks, and its own slack
    for a, b in zip(a_ub, b_ub):
        line, u = [*a, *(-v for v in a)] + [0] * len(old) + [b], 1
        for row, col in zip(old, basis):
            f = line[col]
            if f:
                p = row[col]
                line = [p * x - f * y for x, y in zip(line, row)]
                u *= p
        g = gcd(u, *line)
        line = [v // g for v in line]
        if line[-1] < 0 and all(v >= 0 for v in line[:-1]):
            return None  # nonnegative columns cannot reach a negative rhs
        new.append((line, u // g))
    k = len(new)
    rows = [row[:-1] + [0] * k + row[-1:] for row in old]
    for i, (line, u) in enumerate(new):
        rows.append(line[:-1] + [0] * k + line[-1:])
        rows[-1][width + i] = u
    basis = [*basis, *range(width, width + k)]
    art = [i for i in range(len(old), len(rows)) if rows[i][-1] < 0]
    if art:
        # phase 1 on the rows whose rhs is negative: each is negated and
        # gets an artificial of its slack's weight as its basic column
        ncols = width + k
        rows = [row[:-1] + [0] * len(art) + row[-1:] for row in rows]
        for j, i in enumerate(art):
            row = [-v for v in rows[i]]
            row[ncols + j] = -row[basis[i]]
            rows[i] = row
            basis[i] = ncols + j
        rows = _phase_1(rows, basis, ncols, len(art))
        if rows is None:
            return None
    return n, tuple(rows), tuple(basis)


def _phase_1(rows, basis, ncols, nart):
    """The rows of a feasible basis of the real columns < ncols, or None.

    Minimizes the sum of the nart artificials, the columns from ncols on;
    those still basic at 0 are driven out, and their columns dropped.
    """
    total = ncols + nart
    z = _cost_row(rows, basis, [0] * ncols + [1] * nart + [0, 1])
    if _simplex(rows, basis, z, total) != OPTIMAL:
        raise RuntimeError("phase-1 simplex cannot be unbounded")
    if z[-2] != 0:
        return None
    _drive_out_artificials(rows, basis, ncols)
    return [_reduce(row[:ncols] + row[-1:]) for row in rows]


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
