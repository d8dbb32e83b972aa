"""Exact polynomials over Q(i).

SparsePoly stores a polynomial in several variables as a map from
exponent tuples to nonzero coefficients, which is what the residual's
expansions are read from.  poly_gcd is Euclid on dense univariate
coefficient lists.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .scalar import Scalar, ONE


class SparsePoly:
    """Multivariate polynomial: exponent tuple -> nonzero Scalar coefficient.

    All exponent tuples have length nvars, which is kept, so the zero
    polynomial knows it too.  Scalars and ints act as constants in +, -
    and *.  The residual expansion uses (delta_1..delta_{m+n}, t), so a
    monomial's last exponent is its t-degree.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Dict[Tuple[int, ...], Scalar], nvars: int):
        object.__setattr__(self, "terms",
                           {u: c for u, c in terms.items() if not c.is_zero})
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @staticmethod
    def constant(c: Scalar, nvars: int) -> "SparsePoly":
        return SparsePoly({(0,) * nvars: c}, nvars)

    @staticmethod
    def variable(i: int, nvars: int) -> "SparsePoly":
        """The i-th of nvars variables (0-based)."""
        return SparsePoly({tuple(int(j == i) for j in range(nvars)): ONE},
                          nvars)

    def __add__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Scalar)):
            other = SparsePoly.constant(ONE * other, self.nvars)
        out = dict(self.terms)
        for u, c in other.terms.items():
            out[u] = out[u] + c if u in out else c
        return SparsePoly(out, self.nvars)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({u: -c for u, c in self.terms.items()}, self.nvars)

    def __sub__(self, other) -> "SparsePoly":
        return self + (-other)

    def __rsub__(self, other) -> "SparsePoly":
        return -self + other

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Scalar)):
            return SparsePoly({u: c * other for u, c in self.terms.items()},
                              self.nvars)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        out: Dict[Tuple[int, ...], Scalar] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = tuple(i + j for i, j in zip(u, v))
                out[w] = out[w] + a * b if w in out else a * b
        return SparsePoly(out, self.nvars)

    __rmul__ = __mul__

    def subs(self, sol: Dict[int, "SparsePoly"]) -> "SparsePoly":
        """Each variable v in sol replaced by sol[v], all at once, so a
        value may hold the variable it replaces (v -> v + r shifts it)."""
        if not any(u[v] for u in self.terms for v in sol):
            return self
        out = SparsePoly({}, self.nvars)
        for u, c in self.terms.items():
            term = SparsePoly({tuple(0 if v in sol else e
                                     for v, e in enumerate(u)): c}, self.nvars)
            for v, value in sol.items():
                for _ in range(u[v]):
                    term = term * value
            out = out + term
        return out


def poly_gcd(a: List[Scalar], b: List[Scalar]) -> List[Scalar]:
    """A gcd of two polynomials over Q(i), coefficients lowest first and
    the leading one nonzero ([] is 0), not made monic: Euclid, a <- b,
    b <- a mod b."""
    while b:
        a = list(a)
        while len(a) >= len(b):
            lead = a[-1] / b[-1]
            shift = len(a) - len(b)
            for e, c in enumerate(b):
                a[shift + e] = a[shift + e] - lead * c
            while a and a[-1].is_zero:
                a.pop()
        a, b = b, a
    return a
