from fractions import Fraction

import pytest

from qqsystems.scalar import Scalar, ZERO, ONE
from qqsystems.series import (OnlineSeries, Series,
                              RamificationMismatchError,
                              NonInvertibleSeriesError)


def S(*ints, n_ram=1, offset=0):
    return Series(n_ram, tuple(Scalar(c) for c in ints), offset)


def test_window_bookkeeping():
    s = S(1, 2, 3)
    assert s.top == 2
    assert s.coeff(0) == Scalar(1)
    assert s.coeff(2) == Scalar(3)
    with pytest.raises(IndexError):
        s.coeff(3)


def test_exact_zero_below_offset():
    s = S(1, 2, offset=2)
    assert s.coeff(0) == ZERO
    assert s.coeff(1) == ZERO
    assert s.coeff(2) == Scalar(1)


def test_valuation():
    assert S(0, 0, 5).valuation() == Fraction(2)
    assert S(0, 0, 0).valuation() is None
    assert S(0, 3, n_ram=2).valuation() == Fraction(1, 2)
    assert S(4, offset=-2, n_ram=2).valuation() == Fraction(-1)


def test_addition_window_intersection():
    a = S(1, 1, 1, 1)           # known through s^3
    b = S(2, 2)                 # known through s^1
    c = a + b
    assert c.top == 1
    assert c.coeff(0) == Scalar(3)


def test_multiplication_window():
    a = S(1, 1)      # 1 + s through s^1
    b = S(1, -1)     # 1 - s through s^1
    c = a * b
    assert c.top == 1
    assert c.coeff(0) == ONE
    assert c.coeff(1) == ZERO


def test_mul_by_t_shift():
    s = S(1, 2, 3)
    shifted = s.shift(1)
    assert shifted.coeff(0) == ZERO
    assert shifted.coeff(1) == Scalar(1)
    assert shifted.top == 3


def test_reciprocal_unit():
    # 1/(1 - t) = 1 + t + t^2 + ...
    a = S(1, -1, 0, 0)
    inv = a.reciprocal()
    for k in range(inv.top + 1):
        assert inv.coeff(k) == ONE
    prod = a * inv
    for k in range(prod.top + 1):
        assert prod.coeff(k) == (ONE if k == 0 else ZERO)


def test_reciprocal_positive_valuation():
    # 1/(t - t^2) = t^{-1} + 1 + t + ... (Laurent with offset -1)
    a = S(0, 1, -1, 0, 0)
    inv = a.reciprocal()
    assert inv.offset == -1
    assert inv.coeff(-1) == ONE
    assert inv.coeff(0) == ONE
    assert inv.coeff(1) == ONE


def test_reciprocal_of_zero_raises():
    with pytest.raises(NonInvertibleSeriesError):
        S(0, 0, 0).reciprocal()


def test_ramification_mismatch():
    with pytest.raises(RamificationMismatchError):
        S(1, 1) + S(1, 1, n_ram=2)



def test_widen():
    s = S(1, 2)
    w = s.widen(4)
    assert w.top == 4 and w.coeff(4) == ZERO


def test_same_through_and_eq():
    assert S(1, 2, 3).same_through(S(1, 2, 99), 1)
    assert not S(1, 2).same_through(S(1, 3), 1)
    with pytest.raises(IndexError):
        S(1).same_through(S(1), 5)


def test_unhashable():
    with pytest.raises(TypeError):
        hash(S(1))


def test_eval_at():
    s = S(1, 1)  # 1 + t
    assert abs(s.eval_at(0.5) - 1.5) < 1e-12
    r = S(1, n_ram=2, offset=1)  # s = sqrt(t)
    assert abs(r.eval_at(0.25) - 0.5) < 1e-12


def test_json():
    s = S(1, -2, offset=-1, n_ram=2)
    obj = s.to_json()
    assert obj["N"] == 2 and obj["offset"] == -1
    assert obj["coeffs"] == ["1", "-2"]


def test_unreduced_coefficients_same_json():
    unreduced = Series(2, [Scalar(Fraction(2, 4), Fraction(6, 8)),
                           Scalar(Fraction(3, 9)), ZERO], -1)
    reduced = Series(2, [Scalar(Fraction(1, 2), Fraction(3, 4)),
                         Scalar(Fraction(1, 3)), ZERO], -1)
    assert unreduced.to_json() == reduced.to_json()
    # a product whose numerators share a factor reduces to the same jet
    doubled = unreduced * Scalar(2) * Scalar(Fraction(1, 2))
    assert doubled.to_json() == reduced.to_json()


def test_reciprocal_of_zero_laurent_jet_raises():
    with pytest.raises(NonInvertibleSeriesError):
        Series(3, [ZERO, ZERO], -2).reciprocal()


def test_online_series_ring_and_forget():
    # a constant on the left of a leaf still joins the leaves' family, so
    # forget_from drops what it computed from the old coefficient
    rows = [[Scalar(1), Scalar(2), Scalar(Fraction(1, 3))],
            [Scalar(0, 1), Scalar(-1), Scalar(4)]]
    x, y = OnlineSeries.leaves(rows)
    one = OnlineSeries.constant(ONE)
    expr = (one * 3 + x) * y - x.shift(1) + 2 + y * Scalar(1, 1)

    def expected():
        sx, sy = (Series(1, row) for row in rows)
        return (3 + sx) * sy - sx.shift(1) + 2 + Scalar(1, 1) * sy

    assert [expr.coeff(k) for k in range(3)] == list(expected().coeffs)
    rows[0][1] = Scalar(Fraction(-5, 2))
    x.forget_from(1)
    assert [expr.coeff(k) for k in range(3)] == list(expected().coeffs)
