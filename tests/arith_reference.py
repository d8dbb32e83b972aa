"""Reference Gaussian-rational Scalar and Series over Fraction pairs (tests only).

These are the classes that ``qqsystems.scalar`` and ``qqsystems.series``
replaced with integer numerators over one denominator: a Scalar holds two
``Fraction``s and a Series a tuple of such Scalars.  The property tests in
``test_arith.py`` hold the integer classes to these: equal values, equal
windows, equal JSON, equal hashes and sort keys.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from qqsystems.scalar import SpecValidationError, _exact_rational
from qqsystems.series import NonInvertibleSeriesError, RamificationMismatchError

_RatLike = Union[int, Fraction]


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


def dot(xs, ys) -> Scalar:
    """sum x_k y_k over the shorter length."""
    acc = ZERO
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


class Series:
    __slots__ = ("n_ram", "offset", "coeffs")

    def __init__(self, n_ram: int, coeffs: Iterable[Scalar], offset: int = 0):
        if n_ram < 1:
            raise ValueError("ramification index must be positive")
        object.__setattr__(self, "n_ram", n_ram)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c: Scalar, top: int, n_ram: int = 1) -> "Series":
        """The exact constant c, known through s^top."""
        return Series(n_ram, (c,) + (ZERO,) * top, 0)

    # -- window bookkeeping ----------------------------------------------

    @property
    def top(self) -> int:
        """Largest s-exponent with a known coefficient."""
        return self.offset + len(self.coeffs) - 1

    def coeff(self, e: int) -> Scalar:
        """Coefficient of s^e; exact zero below the window, error above it."""
        if e > self.top:
            raise IndexError(f"s^{e} is beyond the known window (top {self.top})")
        if e < self.offset:
            return ZERO
        return self.coeffs[e - self.offset]

    def lowest_term(self) -> Optional[Tuple[int, Scalar]]:
        """(s-exponent, coefficient) of the lowest nonzero term; None if
        zero through top."""
        return next(((e, c) for e, c in enumerate(self.coeffs, self.offset)
                     if not c.is_zero), None)

    def valuation(self) -> Optional[Fraction]:
        """min exponent with nonzero coefficient, over N; None if zero through top."""
        low = self.lowest_term()
        return None if low is None else Fraction(low[0], self.n_ram)

    @property
    def is_zero(self) -> bool:
        """Zero through the knowledge window."""
        return all(c.is_zero for c in self.coeffs)

    def widen(self, new_top: int) -> "Series":
        """Extend the window with exact zeros: treats the jet as an exact polynomial."""
        if new_top <= self.top:
            return self
        pad = (ZERO,) * (new_top - self.top)
        return Series(self.n_ram, self.coeffs + pad, self.offset)

    def shift(self, e: int) -> "Series":
        """Exact multiplication by s^e."""
        return Series(self.n_ram, self.coeffs, self.offset + e)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Series"):
        if self.n_ram != other.n_ram:
            raise RamificationMismatchError(
                f"ramification mismatch: {self.n_ram} vs {other.n_ram}")

    def _embed(self, other):
        """Scalars and ints embed as exact constants matching this window."""
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Scalar)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            off = min(self.offset, 0)
            return Series(self.n_ram,
                          (ZERO,) * (-off) + (c,) + (ZERO,) * self.top, off)
        return None

    def __add__(self, other):
        o = self._embed(other)
        if o is None:
            return NotImplemented
        self._check(o)
        off = min(self.offset, o.offset)
        top = min(self.top, o.top)
        if top < off:
            raise ValueError("empty knowledge window in series addition")
        out = []
        for e in range(off, top + 1):
            a = self.coeffs[e - self.offset] if self.offset <= e <= self.top else ZERO
            b = o.coeffs[e - o.offset] if o.offset <= e <= o.top else ZERO
            out.append(a + b)
        return Series(self.n_ram, out, off)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.n_ram, tuple(-c for c in self.coeffs), self.offset)

    def __sub__(self, other):
        o = self._embed(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._embed(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            return Series(self.n_ram, tuple(a * c for a in self.coeffs), self.offset)
        if not isinstance(other, Series):
            return NotImplemented
        self._check(other)
        off = self.offset + other.offset
        top = min(self.top + other.offset, other.top + self.offset)
        n = top - off + 1
        if n <= 0:
            raise ValueError("empty knowledge window in series product")
        out = [ZERO] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k < n and not b.is_zero:
                    out[k] = out[k] + a * b
        return Series(self.n_ram, out, off)

    __rmul__ = __mul__

    def reciprocal(self) -> "Series":
        """Multiplicative inverse through the representable window.

        For a with lowest nonzero exponent v the result has offset -v and
        is known through s^(top - 2v); a * a.reciprocal() == 1 holds through
        that product window.
        """
        low = self.lowest_term()
        if low is None:
            raise NonInvertibleSeriesError("non-invertible series (zero through window)")
        v = low[0]
        rel = self.top - v  # unit part known through this relative order
        u = [self.coeff(v + r) for r in range(rel + 1)]
        inv = [ONE / u[0]]
        for r in range(1, rel + 1):
            acc = ZERO
            for j in range(1, r + 1):
                acc = acc + u[j] * inv[r - j]
            inv.append(-acc / u[0])
        # result exponents -v .. top - 2v
        return Series(self.n_ram, inv, -v)

    # -- comparison -----------------------------------------------------------

    def same_through(self, other: "Series", top: int) -> bool:
        """Equality of coefficients for all exponents <= top."""
        self._check(other)
        if top > min(self.top, other.top):
            raise IndexError("comparison beyond a knowledge window")
        lo = min(self.offset, other.offset)
        for e in range(lo, top + 1):
            if self.coeff(e) != other.coeff(e):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        top = min(self.top, other.top)
        return self.n_ram == other.n_ram and self.same_through(other, top)

    def __hash__(self):
        raise TypeError("Series equality is window-relative; not hashable")

    # -- numeric evaluation ------------------------------------------------------

    def eval_at(self, t0: float) -> complex:
        """Evaluate the jet at a small positive t0, using the real N-th root."""
        if t0 < 0:
            raise ValueError("evaluation expects t0 >= 0")
        s0 = t0 ** (1.0 / self.n_ram)
        acc = 0j
        for i, c in enumerate(self.coeffs):
            acc += complex(c) * s0 ** (self.offset + i)
        return acc

    def to_json(self):
        return {"N": self.n_ram, "offset": self.offset,
                "coeffs": [c.to_json() for c in self.coeffs]}

    def __repr__(self):
        return (f"Series(N={self.n_ram}, offset={self.offset}, "
                f"coeffs={[str(c) for c in self.coeffs]})")
