"""The ramified search's constraint solving, on its two rings of jets.

lifting._branch_search carries each branch as correction jets whose
coefficients are polynomials in its kernel parameters brk_{order}_{c}, and
at each order branches on the solutions of a consistency-constraint system
in them.  This module holds the two rings those jets live in, how each
solves its systems, in which order it lists their solutions, and which
branches it drops outside Q(i).

The search runs first over ExactJets: SparsePoly over Q(i), one variable
per parameter, while every system it meets is one that exact_solutions
solves without a radical (von zur Gathen & Gerhard, "Modern Computer
Algebra", ch. 3): none, a linear system, or a system in one parameter
whose gcd has degree <= 2.  A quadratic with no root in Q(i) gives no
branch: its two roots are counted as dropped outside the field.  On any
other system it raises Declined, and the search takes that index again
from its first order over SympyJets: sympy expressions, whose systems
_constraint_solutions solves through sympy.groebner and sympy.solve, and
whose branches with a parameter-free coefficient outside Q(i)
_prune_outside_field drops (_try_scalar decides membership).
exact_solutions returns the maps _constraint_solutions returns, in the
same order, and drops the same branches at the same order, so the
branches, and which of two permuted ones the search keeps, are the same
on either ring.  larger_side_eliminant, the larger side's resultant that
lifting.admitted_indices reads indices from, is sympy's too.

Only the degenerate path imports this module, at its first call, so that a
generic lift or a tropical run does not load it; sympy itself is imported
only by SympyJets, its helpers and larger_side_eliminant.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, List, Optional, Tuple

from .lifting import LiftError
from .linalg import rref
from .poly import SparsePoly, poly_gcd
from .scalar import Scalar, ZERO, ONE


class Declined(Exception):
    """A constraint system outside exact_solutions' reach."""


class UndecidedConstraintsError(LiftError):
    """sympy can neither solve a consistency constraint system of the
    search nor prove it empty."""

    reason = "undecided_constraints"


# ---------------------------------------------------------------------------
# the exact ring


class ExactJets:
    """The search's ring while every system stays in exact_solutions'
    reach: SparsePoly over Q(i) in one variable per parameter brk_{order}_{c},
    order by order and column by column, K N |free columns| in all.  A
    Scalar acts as a constant, and pinning the parameters to zero reads a
    constant term.  No coefficient ever leaves Q(i): a solution outside it
    gives no branch, and the next prune counts it as dropped."""

    def __init__(self, orders: int, free_cols: List[int]):
        self.names = [f"brk_{order}_{c}" for order in range(1, orders + 1)
                      for c in free_cols]
        self.zero = SparsePoly({}, len(self.names))
        self.one = self.zero + ONE
        self.outside = 0  # solutions outside Q(i) since the last prune

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
        kept = [sol for sol in sols if sol is not None]
        self.outside += len(sols) - len(kept)
        return kept

    def prune(self, branches):
        dropped, self.outside = self.outside, 0
        return branches, dropped

    def pinned(self, jets) -> List[List[Scalar]]:
        origin = (0,) * len(self.names)
        return [[c.terms.get(origin, ZERO) for c in jet[1:]] for jet in jets]


def exact_solutions(constraints: List[SparsePoly], names: List[str]
                    ) -> Optional[List[Optional[Dict[int, SparsePoly]]]]:
    """The exact half of _constraint_solutions: the same maps, in the same
    order, keyed by variable index, for the systems it solves over Q(i),
    with None for each solution outside Q(i); None (it declines) on any
    other system.
    - With no constraint left, one empty map; a nonzero constant, none.
    - Every constraint of total degree <= 1: rref with the unknowns in
      name order (brk_10_1 before brk_2_1), as sympy.solve is given them,
      so each pivot, leftmost, is solved for in terms of the free unknowns
      to its right: one map, or none when a pivot lies in the constants.
    - One unknown: the gcd of the constraints (Euclid over Q(i), which
      generates the ideal the Groebner basis does); no root at degree 0,
      its root at degree 1, and at degree 2 the quadratic formula with a
      square root in Q(i) (sqrt), the roots in sympy's default_sort_key
      order (sympy_order).  Where the discriminant has no square root in
      Q(i) both roots lie outside it (their sum lies in it): [None, None].
      Each root r is the value of the parameter-free jet coefficient the
      unknown stands for, so the sympy ring drops both branches at once.
      It declines at degree >= 3.
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
            return [None, None]
        roots = sorted({(root - p) / 2, (-root - p) / 2}, key=sympy_order)
    else:
        roots = [-g[0] / g[1]] if len(g) == 2 else []
    return [{v: SparsePoly.constant(r, nvars)} for r in roots]


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


# ---------------------------------------------------------------------------
# the sympy ring


class SympyJets:
    """The search's ring once exact_solutions declines a system at the
    index: sympy expressions in the Symbols brk_{order}_{c}, solved by
    _constraint_solutions, pruned by _prune_outside_field and read out by
    _try_scalar."""

    def __init__(self):
        import sympy as sp
        self.zero, self.one = sp.Integer(0), sp.Integer(1)
        self.add, self.expand, self.symbol = sp.Add, sp.expand, sp.Symbol
        self.const = _scalar_to_sympy

    def params(self, order: int, free_cols: List[int]):
        return [self.symbol(f"brk_{order}_{c}") for c in free_cols]

    # solve and prune look their functions up at call time, where the
    # tests replace them
    @staticmethod
    def solve(constraints) -> List[dict]:
        return _constraint_solutions(constraints)

    @staticmethod
    def prune(branches):
        return _prune_outside_field(branches)

    def pinned(self, jets) -> List[List[Optional[Scalar]]]:
        pin = {p: 0 for jet in jets for c in jet for p in c.free_symbols}
        return [[_try_scalar(self.expand(c.subs(pin))) for c in jet[1:]]
                for jet in jets]


def _scalar_to_sympy(c: Scalar):
    import sympy as sp
    return sp.Rational(c.re) + sp.I * sp.Rational(c.im)


def _prune_outside_field(branches: List[list]) -> Tuple[List[list], int]:
    """The open branches none of whose parameter-free jet coefficients
    lies outside Q(i) (_try_scalar), and how many others there were.
    Run after every order, the last one included.  Substitution replaces
    only parameters, so such a coefficient reaches the readout unchanged,
    where it would drop the branch and every branch grown from it:
    dropping it now is exact, and counts it once.  What the readout still
    drops is a coefficient that holds a parameter and leaves Q(i) once the
    parameters are pinned to zero."""
    import sympy as sp
    kept = [jets for jets in branches
            if not any(not (c.is_Rational or c.free_symbols)
                       and _try_scalar(sp.expand(c)) is None
                       for jet in jets for c in jet)]
    return kept, len(branches) - len(kept)


def _try_scalar(expr) -> Optional[Scalar]:
    """The exact sympy number as a Scalar; None outside Q(i).
    Rational real and imaginary parts convert at once, and a part that
    sympy's assumptions prove irrational gives None at once.  Any other
    number, such as (sqrt(2) + 1)(sqrt(2) - 1) or sqrt(3 + 2 sqrt(2)) -
    sqrt(2), both 1, is decided by its minimal polynomial over Q(i): it
    lies in Q(i) exactly when that polynomial has degree 1, whose root it
    then is."""
    import sympy as sp
    re, im = expr.as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        if re.is_rational is False or im.is_rational is False:
            return None
        poly = sp.minimal_polynomial(expr, polys=True,
                                     domain=sp.QQ.algebraic_field(sp.I))
        if poly.degree() > 1:
            return None
        re, im = sp.expand(-poly.nth(0) / poly.LC()).as_real_imag()
    return Scalar(Fraction(re.p, re.q), Fraction(im.p, im.q))


def _constraint_solutions(constraints) -> List[dict]:
    """Exact solutions of the pending consistency constraints, as
    substitution dicts (one empty dict when nothing is constrained; none
    when the constraints are inconsistent): the sympy half, for the
    systems its exact half, exact_solutions, declines.  The
    reduced Groebner basis generates the same ideal, so sympy.solve is
    given the basis, which has the system's solutions and drops the
    proportional rows (e and 2e) the zero rows often give; a basis [1]
    proves the system empty over C (Nullstellensatz) without it.
    A radical of the parameters (a Pow with a non-integer exponent whose
    base holds one, such as the sqrt(1 - 6 brk_1_2 - 3 brk_1_2^2) an
    earlier order's solve leaves) is no polynomial to sympy.groebner, so
    each distinct one becomes a generator of its own, after the
    parameters (in default_sort_key order), and is put back into the
    basis.  This is exact: sending each generator back to its radical is
    a ring homomorphism, so the basis with its radicals put back generates
    the same ideal of functions as the system, with the same zeros.
    Where sympy.groebner still cannot take the system (a parameter in a
    denominator), the system itself is solved.
    sympy.solve keeps its simplify pass, though it takes much of the
    search's time: its check, which drops candidates that do not satisfy
    the system, evaluates the candidates numerically, and on the
    unsimplified candidates of a system over sqrt(-I) (QQ (z+1)^3, q = 1
    + i) it reads nan and raises TypeError.
    UndecidedConstraintsError when sympy can neither solve the system nor
    prove it empty."""
    import sympy as sp
    from sympy.polys.polyerrors import BasePolynomialError
    live = [c for c in map(sp.expand, constraints) if c != 0]
    if not live:
        return [{}]
    involved = sorted({p for c in live for p in c.free_symbols},
                      key=lambda p: p.name)
    if not involved:
        return []  # nonzero constant constraint
    radicals = sorted({e for c in live for e in c.atoms(sp.Pow)
                       if not e.exp.is_Integer and e.base.free_symbols},
                      key=sp.default_sort_key)
    gens = {r: sp.Dummy() for r in radicals}
    put_back = {g: r for r, g in gens.items()}
    try:
        basis = [b.xreplace(put_back) for b in sp.groebner(
            [c.xreplace(gens) for c in live], *involved, *gens.values(),
            order="grevlex", extension=True).exprs]
    except (BasePolynomialError, NotImplementedError):
        basis = live
    try:
        sols = [] if basis == [1] else sp.solve(basis, involved, dict=True)
    except NotImplementedError as exc:
        raise UndecidedConstraintsError(
            f"sympy cannot solve {len(live)} consistency constraint(s) on "
            + ", ".join(p.name for p in involved)) from exc
    return [{key: sp.expand(val) for key, val in sol_map.items()}
            for sol_map in sols]


def larger_side_eliminant(f: Optional[SparsePoly], larger: List[SparsePoly]
                          ) -> SparsePoly:
    """G(u, t) in (u, t), whose roots u are the larger side's roots on the
    system's solutions: Res_v(F, L(-u)) for L = sum_j larger[j] z^j, and
    L(-u) itself when there is no F.  Repeated factors of F and of G are
    removed first, as they add no branch.  Over the integers (the Gaussian
    ones where a coefficient is not real), after the denominators are
    cleared: sympy's modular resultant over ZZ takes a few milliseconds."""
    import sympy as sp
    v, u, t = sp.symbols("v u t")
    lu = {(a, j, b): c if j % 2 == 0 else -c
          for j, part in enumerate(larger) for (a, b), c in part.terms.items()}
    fv = {} if f is None else {(a, 0, b): c for (a, b), c in f.terms.items()}
    scalars = list(lu.values()) + list(fv.values())
    domain = sp.ZZ if all(c.im == 0 for c in scalars) else sp.ZZ_I
    scale = lcm(*(x.denominator for c in scalars for x in (c.re, c.im)))

    def integral(terms):
        return sp.Poly.from_dict({mono: _scalar_to_sympy(c * scale)
                                  for mono, c in terms.items()},
                                 v, u, t, domain=domain)

    g = integral(lu)
    if fv:
        g = sp.resultant(integral(fv).sqf_part(), g)  # in v, the first gen
    g = sp.Poly(g.as_expr(), u, t, domain=domain).sqf_part()
    return SparsePoly({mono: _try_scalar(c) for mono, c in g.terms()}, 2)
