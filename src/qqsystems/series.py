"""Truncated (Laurent) series in the deformation parameter.

A Series is a finite jet in s, where t = s^N and N is the ramification
index, built as Series(N, coeffs, offset) or as an exact constant with
Series.const.  Coefficients live at s-exponents offset .. top; exponents
below offset are exactly zero, exponents above top are unknown (truncated
tail).  A negative offset gives a truncated Laurent object with bounded
pole order, which reciprocals of positive-valuation series require.

Coefficients are integer numerators (real and imaginary parts) over one
positive denominator, in lowest terms: a product is an integer convolution,
a sum scales to a common denominator, and each reduces by one final gcd.
A row of imaginary parts that is all zero (a real jet) is neither
convolved, scaled nor reduced: a product, sum or reciprocal of real jets
computes the real row only, and the reduction leaves a zero row out of
its gcd.

Operations track the knowledge window: mixing two series keeps only the
exponents both windows support.  Mixing different ramification indices
raises.

An OnlineSeries (N = 1) has no window: it computes each coefficient on
demand, once, from its operands' coefficients, which the Newton lift
needs while the coefficients of its unknowns are still being found.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Optional, Sequence, Tuple

from .scalar import Scalar, ZERO, dot


class RamificationMismatchError(ValueError):
    """Two series with different ramification indices were combined."""


class NonInvertibleSeriesError(ZeroDivisionError):
    """Reciprocal of a series that is zero through its whole window."""


class Series:
    __slots__ = ("n_ram", "offset", "_den", "_re", "_im")

    def __new__(cls, n_ram: int, coeffs: Iterable[Scalar], offset: int = 0):
        if n_ram < 1:
            raise ValueError("ramification index must be positive")
        coeffs = tuple(coeffs)
        den = lcm(*(c._d for c in coeffs))
        return Series._reduced(n_ram, offset, den,
                               [c._a * (den // c._d) for c in coeffs],
                               [c._b * (den // c._d) for c in coeffs])

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def _reduced(n_ram: int, offset: int, den: int,
                 re: Sequence[int], im: Sequence[int]) -> "Series":
        """sum (re[k] + im[k] i)/den s^(offset + k), in lowest terms."""
        real = not any(im)
        g = gcd(den, *re) if real else gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [a // g for a in re]
            if not real:
                im = [b // g for b in im]
        s = object.__new__(Series)
        for name, v in zip(Series.__slots__, (n_ram, offset, den, re, im)):
            object.__setattr__(s, name, v)
        return s

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c: Scalar, top: int, n_ram: int = 1) -> "Series":
        """The exact constant c, known through s^top."""
        return Series(n_ram, (c,) + (ZERO,) * top, 0)

    # -- window bookkeeping ----------------------------------------------

    @property
    def coeffs(self) -> Tuple[Scalar, ...]:
        """The coefficients of s^offset .. s^top, built as Scalars."""
        return tuple(Scalar.reduced(a, b, self._den)
                     for a, b in zip(self._re, self._im))

    @property
    def top(self) -> int:
        """Largest s-exponent with a known coefficient."""
        return self.offset + len(self._re) - 1

    def coeff(self, e: int) -> Scalar:
        """Coefficient of s^e; exact zero below the window, error above it."""
        if e > self.top:
            raise IndexError(f"s^{e} is beyond the known window (top {self.top})")
        if e < self.offset:
            return ZERO
        k = e - self.offset
        return Scalar.reduced(self._re[k], self._im[k], self._den)

    def lowest_term(self) -> Optional[Tuple[int, Scalar]]:
        """(s-exponent, coefficient) of the lowest nonzero term; None if
        zero through top."""
        return next(((e, self.coeff(e)) for e, (a, b)
                     in enumerate(zip(self._re, self._im), self.offset)
                     if a or b), None)

    def valuation(self) -> Optional[Fraction]:
        """min exponent with nonzero coefficient, over N; None if zero through top."""
        low = self.lowest_term()
        return None if low is None else Fraction(low[0], self.n_ram)

    @property
    def is_zero(self) -> bool:
        """Zero through the knowledge window."""
        return not any(self._re) and not any(self._im)

    def widen(self, new_top: int) -> "Series":
        """Extend the window with exact zeros: treats the jet as an exact polynomial."""
        if new_top <= self.top:
            return self
        pad = [0] * (new_top - self.top)
        return Series._reduced(self.n_ram, self.offset, self._den,
                               self._re + pad, self._im + pad)

    def shift(self, e: int) -> "Series":
        """Exact multiplication by s^e."""
        return Series._reduced(self.n_ram, self.offset + e, self._den,
                               self._re, self._im)

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

    def _row(self, row: Sequence[int], off: int, n: int, factor: int):
        """One numerator row times factor at exponents off .. off + n - 1."""
        return ([0] * (self.offset - off) + [a * factor for a in row])[:n]

    def _numerators(self, off: int, n: int, factor: int):
        """Both numerator rows times factor at exponents off .. off + n - 1."""
        return (self._row(self._re, off, n, factor),
                self._row(self._im, off, n, factor))

    def __add__(self, other):
        o = self._embed(other)
        if o is None:
            return NotImplemented
        self._check(o)
        off = min(self.offset, o.offset)
        top = min(self.top, o.top)
        if top < off:
            raise ValueError("empty knowledge window in series addition")
        g = gcd(self._den, o._den)
        n, f1, f2 = top - off + 1, o._den // g, self._den // g
        re = list(map(add, self._row(self._re, off, n, f1),
                      o._row(o._re, off, n, f2)))
        if any(self._im) or any(o._im):
            im = list(map(add, self._row(self._im, off, n, f1),
                          o._row(o._im, off, n, f2)))
        else:
            im = [0] * n
        return Series._reduced(self.n_ram, off, self._den // g * o._den,
                               re, im)

    __radd__ = __add__

    def __neg__(self):
        return Series._reduced(self.n_ram, self.offset, self._den,
                               [-a for a in self._re], [-b for b in self._im])

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
            return Series._reduced(
                self.n_ram, self.offset, self._den * c._d,
                [c._a * x - c._b * y for x, y in zip(self._re, self._im)],
                [c._a * y + c._b * x for x, y in zip(self._re, self._im)])
        if not isinstance(other, Series):
            return NotImplemented
        self._check(other)
        # the window through min(top1 + off2, top2 + off1): the shorter length
        n = min(len(self._re), len(other._re))
        if n <= 0:
            raise ValueError("empty knowledge window in series product")
        if any(self._im) or any(other._im):
            re, im = [], []
            for k in range(n):
                a, b = self._re[:k + 1], self._im[:k + 1]
                c, d = other._re[k::-1], other._im[k::-1]
                re.append(sum(map(mul, a, c)) - sum(map(mul, b, d)))
                im.append(sum(map(mul, a, d)) + sum(map(mul, b, c)))
        else:
            re = [sum(map(mul, self._re[:k + 1], other._re[k::-1]))
                  for k in range(n)]
            im = [0] * n
        return Series._reduced(self.n_ram, self.offset + other.offset,
                               self._den * other._den, re, im)

    __rmul__ = __mul__

    def reciprocal(self) -> "Series":
        """Multiplicative inverse through the representable window.

        For a with lowest nonzero exponent v the result has offset -v and
        is known through s^(top - 2v); a * a.reciprocal() == 1 holds through
        that product window.

        For the unit part U_r / D (Gaussian integers U_r, n0 = |U_0|^2) the
        inverse is D W_r / n0^(r+1): W_0 = conj(U_0), W_r = -conj(U_0) *
        sum_{j=1..r} U_j W_{r-j} n0^(j-1), all Gaussian integers.  A real
        unit part takes n0 = U_0 instead: W_0 = 1, W_r = -sum_{j=1..r} U_j
        W_{r-j} n0^(j-1), all integers, with no imaginary row to compute.
        """
        low = self.lowest_term()
        if low is None:
            raise NonInvertibleSeriesError("non-invertible series (zero through window)")
        v = low[0]
        ur, ui = self._re[v - self.offset:], self._im[v - self.offset:]
        rel = len(ur) - 1  # unit part known through this relative order
        x0, y0 = ur[0], ui[0]
        if any(ui):
            n0 = x0 * x0 + y0 * y0
            wr, wi = [x0], [-y0]
            for r in range(1, rel + 1):
                sr = si = 0
                for j in range(r, 0, -1):  # Horner in n0
                    a, b, c, d = ur[j], ui[j], wr[r - j], wi[r - j]
                    sr = sr * n0 + a * c - b * d
                    si = si * n0 + a * d + b * c
                wr.append(-(x0 * sr + y0 * si))
                wi.append(y0 * sr - x0 * si)
        else:
            n0 = x0
            wr, wi = [1], [0] * (rel + 1)
            for r in range(1, rel + 1):
                sr = 0
                for j in range(r, 0, -1):  # Horner in n0
                    sr = sr * n0 + ur[j] * wr[r - j]
                wr.append(-sr)
        den = n0 ** (rel + 1)
        scale = [self._den * n0 ** (rel - r) for r in range(rel + 1)]
        if den < 0:  # a negative real U_0 to an odd power
            den, scale = -den, [-f for f in scale]
        # result exponents -v .. top - 2v
        return Series._reduced(self.n_ram, -v, den, list(map(mul, wr, scale)),
                               list(map(mul, wi, scale)))

    # -- comparison -----------------------------------------------------------

    def same_through(self, other: "Series", top: int) -> bool:
        """Equality of coefficients for all exponents <= top."""
        self._check(other)
        if top > min(self.top, other.top):
            raise IndexError("comparison beyond a knowledge window")
        lo = min(self.offset, other.offset)
        n = max(top - lo + 1, 0)
        # cross-multiplied numerators over the two denominators
        return (self._numerators(lo, n, other._den)
                == other._numerators(lo, n, self._den))

    # equality is window-relative, so Series stays unhashable (defining
    # __eq__ sets __hash__ to None)
    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        top = min(self.top, other.top)
        return self.n_ram == other.n_ram and self.same_through(other, top)

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


class OnlineSeries:
    """A power series in s (N = 1) computed one coefficient at a time.

    Each series keeps the coefficients it has computed and a rule for the
    next one, so reading coefficient k of a sum or product computes only
    what its operands have not computed yet (relaxed evaluation, van der
    Hoeven 2002).  A leaf reads one row of a coefficient table that the
    caller fills in; when the caller changes coefficient k of a row,
    forget_from(k) drops coefficient k and above from every series built
    on the same leaves, and they are computed again on demand.
    Scalars and ints are constants: c at order 0 and 0 after it.
    """

    __slots__ = ("_known", "_next", "_family")

    def __init__(self, next_coeff, family: Optional[list]):
        self._known = []
        self._next = next_coeff
        # the coefficient lists of the series built on the same leaves
        # (lists, not series, so that no reference cycle keeps them alive);
        # None for a constant
        self._family = family
        if family is not None:
            family.append(self._known)

    @staticmethod
    def leaves(rows: Sequence[Sequence[Scalar]]) -> list:
        """One series per row: coefficient k of series i is rows[i][k]."""
        family: list = []
        return [OnlineSeries(row.__getitem__, family) for row in rows]

    @staticmethod
    def constant(c: Scalar) -> "OnlineSeries":
        """The exact constant c, in no family: it never changes."""
        return OnlineSeries(lambda k: c if k == 0 else ZERO, None)

    def coeff(self, k: int) -> Scalar:
        """Coefficient of s^k, computed on its first read."""
        known = self._known
        if k >= len(known):
            for j in range(len(known), k + 1):
                known.append(self._next(j))
        return known[k]

    def forget_from(self, k: int) -> None:
        """Drop coefficients k and above from every series built on this
        one's leaves: coefficient k of a row has changed."""
        for known in self._family:
            del known[k:]

    def _derived(self, other, next_coeff) -> "OnlineSeries":
        family = self._family
        if family is None and isinstance(other, OnlineSeries):
            family = other._family
        return OnlineSeries(next_coeff, family)

    def __add__(self, other):
        if isinstance(other, OnlineSeries):
            return self._derived(
                other, lambda k: self.coeff(k) + other.coeff(k))
        if isinstance(other, (int, Scalar)):
            return self._derived(
                None, lambda k: self.coeff(k) + other if k == 0
                else self.coeff(k))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, OnlineSeries):
            return self._derived(
                other, lambda k: self.coeff(k) - other.coeff(k))
        if isinstance(other, (int, Scalar)):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, OnlineSeries):
            return self._derived(other, lambda k: _convolution(self, other, k))
        if isinstance(other, (int, Scalar)):
            return self._derived(None, lambda k: self.coeff(k) * other)
        return NotImplemented

    def shift(self, e: int) -> "OnlineSeries":
        """Exact multiplication by s^e, e >= 0."""
        return self._derived(
            None, lambda k: self.coeff(k - e) if k >= e else ZERO)


def _convolution(a: OnlineSeries, b: OnlineSeries, k: int) -> Scalar:
    """Coefficient k of a * b: sum of a_i b_(k-i)."""
    a.coeff(k)
    b.coeff(k)
    return dot(a._known[:k + 1], b._known[k::-1])
