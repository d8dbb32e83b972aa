from fractions import Fraction

import pytest

from qqsystems.scalar import Scalar, SpecValidationError, ZERO, ONE, I


def test_construction_and_equality():
    assert Scalar(1) == ONE
    assert Scalar(0) == ZERO
    assert Scalar(Fraction(1, 2), Fraction(-3, 4)) == \
        Scalar(Fraction(1, 2), Fraction(-3, 4))
    assert Scalar(1) != Scalar(1, 1)


def test_field_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(1, 3))
    b = Scalar(Fraction(-2), Fraction(5))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert a * ONE == a
    assert a + ZERO == a


def test_complex_multiplication():
    assert I * I == Scalar(-1)
    assert (ONE + I) * (ONE - I) == Scalar(2)


def test_division_exact():
    a = Scalar(3, 4)
    inv = ONE / a
    assert a * inv == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_power():
    a = Scalar(2, 1)
    assert a ** 0 == ONE
    assert a ** 3 == a * a * a
    assert a ** -2 == ONE / (a * a)


def test_abs2():
    a = Scalar(3, 4)
    assert a.abs2() == Fraction(25)
    assert (a * Scalar(3, -4)) == Scalar(Fraction(25))


def test_sort_key_total_order():
    vals = [Scalar(2), Scalar(1, 1), Scalar(1), ZERO]
    ordered = sorted(vals, key=lambda v: v.sort_key())
    assert ordered[0] == ZERO
    assert ordered[-1] == Scalar(2)


def test_json_round_trip():
    for v in (ZERO, ONE, Scalar(Fraction(-7, 3)), Scalar(Fraction(1, 2), Fraction(5))):
        assert Scalar.from_json(v.to_json()) == v
    assert Scalar.from_json("3/4") == Scalar(Fraction(3, 4))
    assert Scalar.from_json({"re": "1/2", "im": "-1"}) == \
        Scalar(Fraction(1, 2), Fraction(-1))


def test_from_json_bounds_the_digits():
    # a part may have at most sys.get_int_max_str_digits() digits; the
    # exponent is read before 10**exp is built, so a huge one is quick
    for bad in ("1e5000", "1e-5000", {"re": "1e5000"}, "1e1000000000",
                "1e-1000000000"):
        with pytest.raises(SpecValidationError) as exc:
            Scalar.from_json(bad)
        assert exc.value.code == "bad_scalar"
    assert Scalar.from_json("1e3") == Scalar(1000)
    assert Scalar.from_json("2.5e-2") == Scalar(Fraction(1, 40))
    assert Scalar.from_json({"re": "1e2", "im": "-1e-1"}) == \
        Scalar(100, Fraction(-1, 10))


def test_complex_conversion():
    assert complex(Scalar(Fraction(1, 2), Fraction(1, 4))) == 0.5 + 0.25j


def test_immutability():
    a = Scalar(1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)


def test_canonical_form():
    a = Scalar(Fraction(2, 4), Fraction(1, 2))
    b = Scalar(Fraction(1, 2), Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert Scalar(Fraction(1, 6), Fraction(1, 4)) * 12 == Scalar(2, 3)
    c = Scalar.reduced(2, 4, 6)
    assert c == Scalar(Fraction(1, 3), Fraction(2, 3))
    assert hash(c) == hash(Scalar(Fraction(1, 3), Fraction(2, 3)))


def test_division_by_zero_scalar_raises():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1
