import pytest

from qqsystems.linalg import SingularJacobianError, rref, solve_unique
from qqsystems.scalar import Scalar, ZERO, ONE


def M(rows):
    return [[Scalar(v) for v in r] for r in rows]


def rank(rows):
    return len(rref(rows)[1])


def test_rank():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(M([[1, 0], [0, 1]])) == 2
    assert rank(M([[0, 0]])) == 0
    assert rank([]) == 0


def test_rref_pivots():
    m, pivots = rref(M([[2, 4], [1, 3]]))
    assert pivots == [0, 1]
    assert m[0][0] == ONE and m[1][1] == ONE
    assert m[0][1] == ZERO


def test_solve_unique():
    x = solve_unique(M([[1, 1], [1, -1]]), M([[3], [1]]))
    assert x == M([[2], [1]])


def test_solve_unique_identity_gives_inverse():
    a = M([[2, 1], [1, 1]])
    inverse = solve_unique(a, M([[1, 0], [0, 1]]))
    assert inverse == M([[1, -1], [-1, 2]])


def test_solve_unique_singular_raises():
    with pytest.raises(SingularJacobianError, match="singular"):
        solve_unique(M([[1, 1], [1, 1]]), M([[1], [1]]))
    with pytest.raises(SingularJacobianError, match="inconsistent"):
        solve_unique(M([[1, 1], [1, 1]]), M([[1], [2]]))


def test_gaussian_rational_pivots():
    i = Scalar(0, 1)
    rows = [[i, Scalar(1)], [Scalar(1), i]]
    # det = i*i - 1 = -2, nonsingular
    (x0,), (x1,) = solve_unique(rows, M([[1], [0]]))
    assert rows[0][0] * x0 + rows[0][1] * x1 == ONE
    assert rows[1][0] * x0 + rows[1][1] * x1 == ZERO
