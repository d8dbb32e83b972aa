"""Exact Gaussian-rational scalars.

All coefficient arithmetic in this package happens in Q(i): complex
numbers whose real and imaginary parts are arbitrary-precision
rationals.  Equality is decidable and canonical, which downstream
valuation certificates and tropical membership tests rely on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

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
    """A JSON rational: an integer or a "p/q" / decimal string."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecValidationError(
        "bad_scalar", f"expected an integer or an exact rational string, "
                      f"got {obj!r}")


class Scalar:
    """A Gaussian rational re + im*i with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        # the Fractions that the arithmetic below builds are kept as given
        object.__setattr__(
            self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(
            self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

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
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

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
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar((self.re * o.re + self.im * o.im) / d,
                      (self.im * o.re - self.re * o.im) / d)

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
        return self.re * self.re + self.im * self.im

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        """Deterministic total order on (re, im); not compatible with field ops."""
        return (self.re, self.im)

    # -- conversion -----------------------------------------------------

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
