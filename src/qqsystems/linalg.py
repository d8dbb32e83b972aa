"""Exact linear algebra over the Gaussian rationals (Scalar entries).

Plain Gaussian elimination with exact division; no floating point
anywhere.  rref serves the ramified branch search; solve_unique, which
generic lifts no longer call (their J0^-1 has a closed form), is the
general inverse the tests hold that closed form to.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .scalar import Scalar


def rref(rows: List[List[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form (in place on a copy) and pivot columns."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not m[i][c].is_zero),
                     None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


class SingularJacobianError(ValueError):
    """A singular matrix: met by solve_unique, or by the closed-form
    inverse of the t = 0 Jacobian where a shift of Lambda repeats.  At
    such a degenerate base lifting goes through lift_ramified."""


def solve_unique(A: Sequence[Sequence[Scalar]], B: Sequence[Sequence[Scalar]]
                 ) -> List[List[Scalar]]:
    """X with A X = B for square nonsingular A; B has one column per
    right-hand side.  Raises SingularJacobianError on a singular A."""
    n = len(A)
    m, pivots = rref([list(a) + list(b) for a, b in zip(A, B)])
    rank = sum(1 for c in pivots if c < n)
    if rank < n:
        inconsistent = ", inconsistent" if len(pivots) > rank else ""
        raise SingularJacobianError(
            f"singular linear system (rank {rank} < {n}{inconsistent})")
    return [row[n:] for row in m]
