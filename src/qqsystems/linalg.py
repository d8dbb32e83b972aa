"""Exact linear algebra over a field (Gaussian rationals or Fractions).

Plain Gaussian elimination with exact division; no floating point
anywhere.  Generic over the coefficient field: callers pass the field's
zero.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def rref(rows: List[List], zero) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form (in place on a copy) and pivot columns."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def matrix_rank(rows: Sequence[Sequence], zero) -> int:
    if not rows:
        return 0
    _, pivots = rref([list(r) for r in rows], zero)
    return len(pivots)


def solve_unique(A: Sequence[Sequence], b: Sequence, zero) -> List:
    """Solve a square nonsingular system; raises on singularity."""
    ncols = len(A[0]) if A else 0
    m, pivots = rref([list(row) + [v] for row, v in zip(A, b)], zero)
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("singular linear system")
    return [row[ncols] for row in m[:ncols]]
