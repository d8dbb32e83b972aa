"""Exact Gaussian-rational scalars.

All coefficient arithmetic in this package happens in Q(i).  A Scalar
is the integer triple (a, b, d) for (a + b*i)/d, with d > 0 and
gcd(a, b, d) = 1.  The form is canonical, so equality compares the
integers, and each operation does integer products and one gcd.  The
parts re and im read as Fractions.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Sequence, Union

_RatLike = Union[int, Fraction]


class SpecValidationError(ValueError):
    """A problem spec failed validation; code is machine-readable.

    Defined in this lowest module so that Scalar.from_json can raise it;
    systems re-exports it with the rest of the spec types.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _exact_rational(obj) -> Fraction:
    """A JSON rational: an integer or a "p/q" / decimal string whose
    numerator and denominator Python can write, with at most
    sys.get_int_max_str_digits() digits each (any number when that is 0).

    Fraction builds 10**exp for a decimal exponent without a bound, so the
    exponent is read first: int() holds the mantissa's two parts to the
    digit bound each, so past three times it no nonzero value fits.
    """
    limit = sys.get_int_max_str_digits() or inf
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            if abs(int(obj.lower().partition("e")[2] or 0)) <= 3 * limit:
                value = Fraction(obj)
                str(value)  # ValueError past the digit bound
                return value
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecValidationError(
        "bad_scalar", f"expected an integer or an exact rational string "
                      f"with at most {limit} digits in its numerator and "
                      f"denominator, got {obj!r:.80}")


class Scalar:
    """A Gaussian rational (a + b*i)/d with exact arithmetic."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: _RatLike = 0, im: _RatLike = 0):
        (an, ad), (bn, bd) = re.as_integer_ratio(), im.as_integer_ratio()
        d = lcm(ad, bd)
        return Scalar.reduced(an * (d // ad), bn * (d // bd), d)

    @staticmethod
    def reduced(a: int, b: int, d: int) -> "Scalar":
        """(a + b*i)/d for integers with d > 0, brought to lowest terms."""
        g = gcd(a, b, d)
        s = object.__new__(Scalar)
        s._a, s._b, s._d = a // g, b // g, d // g
        return s

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_json(obj) -> "Scalar":
        """Parse a "p/q" string, an integer, or {"re": ..., "im": ...}.

        Floats (and bools) are rejected rather than rounded: 0.1 has no
        exact binary value, so accepting it would change the problem.
        """
        if isinstance(obj, dict):
            if set(obj) - {"re", "im"}:
                raise SpecValidationError(
                    "bad_scalar", f"complex scalar keys are 're' and 'im', "
                                  f"got {sorted(obj)}")
            return Scalar(_exact_rational(obj.get("re", 0)),
                          _exact_rational(obj.get("im", 0)))
        return Scalar(_exact_rational(obj))

    def to_json(self):
        if self._b == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    # -- parts and predicates -------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar.reduced(self._a * o._d + o._a * self._d,
                              self._b * o._d + o._b * self._d, self._d * o._d)

    __radd__ = __add__

    def __neg__(self):
        return Scalar.reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar.reduced(self._a * o._d - o._a * self._d,
                              self._b * o._d - o._b * self._d, self._d * o._d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return Scalar.reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                              self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar.reduced(o._d * (a1 * a2 + b1 * b2),
                              o._d * (b1 * a2 - a1 * b2), self._d * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return Scalar(1) / self ** (-n)
        result = Scalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def abs2(self) -> Fraction:
        """Exact squared modulus |z|^2 as a rational."""
        return Fraction(self._a * self._a + self._b * self._b,
                        self._d * self._d)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        if self._b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        """Deterministic total order on (re, im); not compatible with field ops."""
        return (self.re, self.im)

    # -- conversion -----------------------------------------------------

    def __complex__(self):
        # int / int rounds the exact quotient, as Fraction's float does
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    def __repr__(self):
        if self._b == 0:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im})"

    def __str__(self):
        if self._b == 0:
            return str(self.re)
        if self._a == 0:
            return f"{self.im}i"
        sign = "+" if self._b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def dot(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> Scalar:
    """sum x_k y_k over the shorter length, as integer numerators over
    one common denominator, reduced once."""
    dens = [x._d * y._d for x, y in zip(xs, ys)]
    den = lcm(*dens)
    re = im = 0
    for x, y, d in zip(xs, ys, dens):
        f = den // d
        re += (x._a * y._a - x._b * y._b) * f
        im += (x._a * y._b + x._b * y._a) * f
    return Scalar.reduced(re, im, den)
