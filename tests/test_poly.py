import pytest

from qqsystems.poly import (Poly, SparsePoly, poly_from_shifts, poly_dilate,
                            wronskian)
from qqsystems.scalar import Scalar, ZERO, ONE


def P(*ints):
    """Polynomial with integer coefficients, lowest degree first."""
    return Poly(tuple(Scalar(c) for c in ints))


def test_degree_and_trim():
    assert P(1, 2, 0).degree == 1
    assert P(0).degree == -1
    assert P(5).degree == 0


def test_from_shifts_expansion():
    # (z+1)(z+2) = z^2 + 3z + 2
    p = poly_from_shifts([Scalar(1), Scalar(2)])
    assert p == P(2, 3, 1)
    assert p.is_monic


def test_eval_and_roots():
    p = poly_from_shifts([Scalar(1), Scalar(2)])
    assert p(Scalar(-1)) == ZERO
    assert p(Scalar(-2)) == ZERO
    assert p(Scalar(0)) == Scalar(2)


def test_arithmetic():
    a, b = P(1, 1), P(2, 3)
    assert a + b == P(3, 4)
    assert a * b == P(2, 5, 3)
    assert a - a == P(0)
    assert a * Scalar(2) == P(2, 2)


def test_derivative():
    assert P(2, 3, 1).derivative() == P(3, 2)
    assert P(7).derivative().degree == -1


def test_dilate():
    # p(z) = z^2 + z, p(3z) = 9z^2 + 3z
    assert poly_dilate(P(0, 1, 1), Scalar(3)) == P(0, 3, 9)


def test_divexact():
    lam = poly_from_shifts([Scalar(1), Scalar(2), Scalar(3)])
    quot = lam.divexact(poly_from_shifts([Scalar(2)]))
    assert quot == poly_from_shifts([Scalar(1), Scalar(3)])
    with pytest.raises(ValueError):
        lam.divexact(P(1, 1, 1))  # does not divide exactly


def test_wronskian():
    # W(f,g) = f g' - g f'; f = z, g = z^2 -> z*2z - z^2 = z^2
    f, g = P(0, 1), P(0, 0, 1)
    assert wronskian(f, g) == P(0, 0, 1)
    # degree bound: deg W = m + n - 1 for generic split
    f2 = poly_from_shifts([Scalar(1)])
    g2 = poly_from_shifts([Scalar(2)])
    assert wronskian(f2, g2).degree <= 1


class TestSparsePoly:
    X = SparsePoly.variable(0, 2)
    T = SparsePoly.variable(1, 2)

    def test_generators_and_constant(self):
        assert self.X.terms == {(1, 0): ONE}
        assert SparsePoly.constant(Scalar(3), 2).terms == {(0, 0): Scalar(3)}
        assert SparsePoly.constant(ZERO, 2).terms == {}

    def test_product_expands_exactly(self):
        # (x + t)(x - t) = x^2 - t^2: the cross terms cancel and drop out
        p = (self.X + self.T) * (self.X - self.T)
        assert p.terms == {(2, 0): ONE, (0, 2): Scalar(-1)}

    def test_gaussian_coefficients_and_int_scaling(self):
        i_const = SparsePoly.constant(Scalar(0, 1), 2)
        p = (self.X * i_const) * (self.X * i_const) * 3
        assert p.terms == {(2, 0): Scalar(-3)}

    def test_cancellation_to_zero(self):
        assert (self.X - self.X).terms == {}
        assert (-(self.X * 2) + self.X + self.X).terms == {}
