"""Exact sparse multivariate polynomials over Q(i).

SparsePoly stores a polynomial in several variables as a map from
exponent tuples to nonzero coefficients, which is what the residual's
supports are read from.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .scalar import Scalar, ONE


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
