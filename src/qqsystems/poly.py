"""Exact sparse multivariate polynomials over Q(i).

SparsePoly stores a polynomial in several variables as a map from
exponent tuples to nonzero coefficients, which is what the residual's
expansions are read from.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
