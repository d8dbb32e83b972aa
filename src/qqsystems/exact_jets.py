"""The ramified search's exact ring: jets over Q(i) in the kernel parameters.

lifting._branch_search carries each branch as correction jets whose
coefficients are polynomials in its kernel parameters brk_{order}_{c}.  It
runs first over ExactJets: SparsePoly over Q(i), one variable per
parameter, while every consistency-constraint system it meets is one that
exact_solutions solves without a radical (von zur Gathen & Gerhard,
"Modern Computer Algebra", ch. 3): none, a linear system, or a system in
one parameter whose gcd has degree <= 2 and roots in Q(i).  On any other
system it raises Declined, and the search takes that index again from its
first order over sympy (lifting._SympyJets).  exact_solutions returns the
maps the sympy half (lifting._constraint_solutions) returns, in the same
order, so the branches, and which of two permuted ones the search keeps,
are the same on either ring.

Only the ramified search imports this module, at its first call, so that
a generic lift or a tropical run does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional

from .linalg import rref
from .poly import SparsePoly
from .scalar import Scalar, ZERO, ONE


class Declined(Exception):
    """A constraint system outside exact_solutions' reach."""


class ExactJets:
    """The search's ring while every system stays in exact_solutions'
    reach: SparsePoly over Q(i) in one variable per parameter brk_{order}_{c},
    order by order and column by column, K N |free columns| in all.  A
    Scalar acts as a constant; no coefficient ever leaves Q(i), so nothing
    is pruned, and pinning the parameters to zero reads a constant term."""

    def __init__(self, orders: int, free_cols: List[int]):
        self.names = [f"brk_{order}_{c}" for order in range(1, orders + 1)
                      for c in free_cols]
        self.zero = SparsePoly({}, len(self.names))
        self.one = self.zero + ONE

    @staticmethod
    def const(c: Scalar) -> Scalar:
        return c

    def add(self, *terms) -> SparsePoly:
        return sum(terms, self.zero)

    @staticmethod
    def expand(poly: SparsePoly) -> SparsePoly:
        return poly

    def params(self, order: int, free_cols: List[int]) -> List[SparsePoly]:
        first = (order - 1) * len(free_cols)
        return [SparsePoly.variable(first + j, len(self.names))
                for j in range(len(free_cols))]

    def solve(self, constraints: List[SparsePoly]) -> List[dict]:
        sols = exact_solutions(constraints, self.names)
        if sols is None:
            raise Declined
        return sols

    @staticmethod
    def subs(poly: SparsePoly, sol: Dict[int, SparsePoly]) -> SparsePoly:
        if not any(u[v] for u in poly.terms for v in sol):
            return poly
        out = SparsePoly({}, poly.nvars)
        for u, c in poly.terms.items():
            term = SparsePoly({tuple(0 if v in sol else e
                                     for v, e in enumerate(u)): c}, poly.nvars)
            for v, value in sol.items():
                for _ in range(u[v]):
                    term = term * value
            out = out + term
        return out

    @staticmethod
    def prune(branches):
        return branches, 0

    def pinned(self, jets) -> List[List[Scalar]]:
        origin = (0,) * len(self.names)
        return [[c.terms.get(origin, ZERO) for c in jet[1:]] for jet in jets]


def exact_solutions(constraints: List[SparsePoly], names: List[str]
                    ) -> Optional[List[Dict[int, SparsePoly]]]:
    """The exact half of lifting._constraint_solutions: the same maps, in
    the same order, keyed by variable index, for the systems it solves
    over Q(i); None (it declines) on any other.
    - With no constraint left, one empty map; a nonzero constant, none.
    - Every constraint of total degree <= 1: rref with the unknowns in
      name order (brk_10_1 before brk_2_1), as sympy.solve is given them,
      so each pivot, leftmost, is solved for in terms of the free unknowns
      to its right: one map, or none when a pivot lies in the constants.
    - One unknown: the gcd of the constraints (Euclid over Q(i), which
      generates the ideal the Groebner basis does); no root at degree 0,
      its root at degree 1, and at degree 2 the quadratic formula with a
      square root in Q(i) (sqrt), the roots in sympy's default_sort_key
      order (sympy_order).  It declines at degree >= 3 and at a root
      outside Q(i).
    Two or more unknowns in a system that is not linear are declined."""
    live = [c for c in constraints if c.terms]
    if not live:
        return [{}]
    nvars = live[0].nvars
    origin = (0,) * nvars
    if any(list(c.terms) == [origin] for c in live):
        return []  # nonzero constant constraint
    involved = sorted({v for c in live for u in c.terms
                       for v, e in enumerate(u) if e}, key=names.__getitem__)
    if all(sum(u) <= 1 for c in live for u in c.terms):
        col = {v: j for j, v in enumerate(involved)}
        rows = []
        for c in live:
            row = [ZERO] * (len(involved) + 1)
            for u, a in c.terms.items():
                if u == origin:
                    row[-1] = -a
                else:
                    row[col[u.index(1)]] = a
            rows.append(row)
        reduced, pivots = rref(rows)
        if pivots[-1] == len(involved):
            return []
        free = [j for j in range(len(involved)) if j not in pivots]
        return [{involved[p]: sum((SparsePoly.variable(involved[j], nvars)
                                   * -row[j] for j in free),
                                  SparsePoly.constant(row[-1], nvars))
                 for row, p in zip(reduced, pivots)}]
    if len(involved) > 1:
        return None
    [v] = involved
    g: List[Scalar] = []
    for c in live:
        coeffs = [ZERO] * (max(u[v] for u in c.terms) + 1)
        for u, a in c.terms.items():
            coeffs[u[v]] = a
        g = poly_gcd(g, coeffs)
    if len(g) > 3:
        return None
    if len(g) == 3:
        p, q = g[1] / g[2], g[0] / g[2]
        root = sqrt(p * p - 4 * q)
        if root is None:
            return None
        roots = sorted({(root - p) / 2, (-root - p) / 2}, key=sympy_order)
    else:
        roots = [-g[0] / g[1]] if len(g) == 2 else []
    return [{v: SparsePoly.constant(r, nvars)} for r in roots]


def poly_gcd(a: List[Scalar], b: List[Scalar]) -> List[Scalar]:
    """A gcd of two polynomials over Q(i), coefficients lowest first and
    the leading one nonzero ([] is 0), not made monic: Euclid, a <- b,
    b <- a mod b.  lifting._largest_multiplicity runs it too."""
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


def sympy_order(z: Scalar):
    """sympy's default_sort_key order on a + bi: the reals by value, then
    the imaginaries by b, then the rest by (a, b)."""
    if z.im == 0:
        return (0, z.re)
    if z.re == 0:
        return (1, z.im)
    return (2, z.re, z.im)


def sqrt(w: Scalar) -> Optional[Scalar]:
    """A square root of w in Q(i), None when it has none there: x + yi
    squares to a + bi exactly when x^2 = (a + |w|)/2 and 2xy = b, so |w|
    and x must be rational."""
    a, b = w.re, w.im
    r = _rational_sqrt(a * a + b * b)
    x = None if r is None else _rational_sqrt((a + r) / 2)
    if x is None:
        return None
    if x == 0:  # w = a <= 0
        y = _rational_sqrt(-a)
        return None if y is None else Scalar(0, y)
    return Scalar(x, b / (2 * x))


def _rational_sqrt(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    n, d = isqrt(f.numerator), isqrt(f.denominator)
    return Fraction(n, d) if Fraction(n * n, d * d) == f else None
