"""Exact polynomials over Q(i): dense univariate and sparse multivariate.

Poly is a polynomial in z with coefficients stored lowest degree first;
degrees at desk scale stay small (m + n <= ~12).  SparsePoly is a
polynomial in several variables stored as a map from exponent tuples to
nonzero coefficients, which is what the residual's supports are read from.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from .scalar import Scalar, ZERO, ONE


def _trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1].is_zero:
        i -= 1
    return tuple(coeffs[:i])


class Poly:
    """Polynomial in one variable z with Scalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(self, "coeffs", _trim(tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((c,))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((ONE,))

    # -- structure --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1 as a finite stand-in for -inf."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == ONE

    def coeff(self, k: int) -> Scalar:
        """Coefficient of z^k."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Scalar):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self * other
        return NotImplemented

    def derivative(self) -> "Poly":
        return Poly(tuple(self.coeffs[k] * k for k in range(1, len(self.coeffs))))

    def __call__(self, x: Scalar) -> Scalar:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divexact(self, other: "Poly") -> "Poly":
        """Exact quotient; raises if the division leaves a remainder."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        q = [ZERO] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.coeffs[-1]
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + other.degree] / lead
            q[k] = c
            if not c.is_zero:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        if any(not r.is_zero for r in rem):
            raise ValueError("inexact polynomial division")
        return Poly(q)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def poly_from_shifts(shifts: Sequence[Scalar]) -> Poly:
    """Monic product prod_k (z + shift_k); the empty multiset gives 1."""
    p = Poly.one()
    for a in shifts:
        p = p * Poly((a, ONE))
    return p


def poly_dilate(p: Poly, q: Scalar) -> Poly:
    """p(qz): the z^k coefficient picks up a factor q^k."""
    return Poly(tuple(c * q ** k for k, c in enumerate(p.coeffs)))


def wronskian(f: Poly, g: Poly) -> Poly:
    """f*g' - g*f'."""
    return f * g.derivative() - g * f.derivative()


class SparsePoly:
    """Multivariate polynomial: exponent tuple -> nonzero Scalar coefficient.

    All exponent tuples of one polynomial have the same length.  The
    residual builder uses (x_1..x_m, y_1..y_n, t), so a monomial's last
    exponent is its t-degree.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, ...], Scalar]):
        object.__setattr__(self, "terms",
                           {u: c for u, c in terms.items() if not c.is_zero})

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @staticmethod
    def constant(c: Scalar, nvars: int) -> "SparsePoly":
        return SparsePoly({(0,) * nvars: c})

    @staticmethod
    def variable(i: int, nvars: int) -> "SparsePoly":
        """The i-th of nvars variables (0-based)."""
        return SparsePoly({tuple(int(j == i) for j in range(nvars)): ONE})

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self.terms)
        for u, c in other.terms.items():
            out[u] = out[u] + c if u in out else c
        return SparsePoly(out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({u: -c for u, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            return SparsePoly({u: c * other for u, c in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        out: Dict[Tuple[int, ...], Scalar] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = tuple(i + j for i, j in zip(u, v))
                out[w] = out[w] + a * b if w in out else a * b
        return SparsePoly(out)
