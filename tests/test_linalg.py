from fractions import Fraction

import pytest

from qqsystems.linalg import SingularJacobianError, rref, solve_unique
from qqsystems.scalar import Scalar, ZERO, ONE


def M(rows):
    return [[Scalar(v) for v in r] for r in rows]


def rank(rows, zero):
    return len(rref(rows, zero)[1])


def test_rank():
    assert rank(M([[1, 2], [2, 4]]), ZERO) == 1
    assert rank(M([[1, 0], [0, 1]]), ZERO) == 2
    assert rank(M([[0, 0]]), ZERO) == 0
    assert rank([], ZERO) == 0


def test_rref_pivots():
    m, pivots = rref(M([[2, 4], [1, 3]]), ZERO)
    assert pivots == [0, 1]
    assert m[0][0] == ONE and m[1][1] == ONE
    assert m[0][1] == ZERO


def test_solve_unique():
    x = solve_unique(M([[1, 1], [1, -1]]), M([[3], [1]]), ZERO)
    assert x == M([[2], [1]])


def test_solve_unique_identity_gives_inverse():
    a = M([[2, 1], [1, 1]])
    inverse = solve_unique(a, M([[1, 0], [0, 1]]), ZERO)
    assert inverse == M([[1, -1], [-1, 2]])


def test_solve_unique_singular_raises():
    with pytest.raises(SingularJacobianError, match="singular"):
        solve_unique(M([[1, 1], [1, 1]]), M([[1], [1]]), ZERO)
    with pytest.raises(SingularJacobianError, match="inconsistent"):
        solve_unique(M([[1, 1], [1, 1]]), M([[1], [2]]), ZERO)


def test_works_over_fractions_too():
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert rank(rows, Fraction(0)) == 2
    x = solve_unique(rows, [[Fraction(5)], [Fraction(11)]], Fraction(0))
    assert x == [[Fraction(1)], [Fraction(2)]]


def test_gaussian_rational_pivots():
    i = Scalar(0, 1)
    rows = [[i, Scalar(1)], [Scalar(1), i]]
    # det = i*i - 1 = -2, nonsingular
    (x0,), (x1,) = solve_unique(rows, M([[1], [0]]), ZERO)
    assert rows[0][0] * x0 + rows[0][1] * x1 == ONE
    assert rows[1][0] * x0 + rows[1][1] * x1 == ZERO
