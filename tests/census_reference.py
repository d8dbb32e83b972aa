"""An exact census of the branches at each base, for min(m, n) <= 1 (tests only).

The system is written here from its definition, in sympy, with no code
shared with ``qqsystems.lifting`` or ``qqsystems.systems.eliminant``.  P =
prod(z + x_i) has degree m and M = prod(z + y_j) degree n:

    qq:  P M + t (P M' - P' M) = Lambda,
    QQ:  P(q z) M(z) - t P(z) M(q z) = (q^m - t q^n) Lambda(z).

Fix the smaller side at z + v (M when m = n).  The z^0 .. z^(m+n-1)
coefficients of the residual are then affine in the larger side's l
coefficients c_0 .. c_(l-1), below its leading 1: l + 1 equations A c = b
in l unknowns.  Its top l rows are triangular with a unit of Q(i)[[t]] on
the diagonal, so the system is solvable exactly when the (l+1) x (l+1)
matrix [A | b] is singular, and F(v, t) = det [A | b] is the rank-one
eliminant.  Its roots v(t) are the smaller side's root on the solutions,
one per branch, counted with multiplicity (Weierstrass preparation), so
the branches through a base number ord_(v = v0) F(v, 0), v0 the base's
value of the smaller side.  F(v, 0) is a constant times Lambda(-v), or
Lambda(-v/q) where v is QQ's x, so these orders are the multiplicities of
Lambda's roots, and they add up to m + n = C(m + n, m).

With k = min(m, n) = 0 there is no v: the system is square, with one
solution, of multiplicity 1, when det A is a unit at t = 0.
"""

from __future__ import annotations

from typing import Dict, Optional

import sympy as sp

from qqsystems.systems import ProblemSpec

Z, V, T = sp.symbols("z v t")


def _number(c):
    return sp.Rational(c.re) + sp.I * sp.Rational(c.im)


def _residual(spec: ProblemSpec, p, m):
    """The residual polynomial in z, with P = p and M = m."""
    lam = sp.Integer(1)
    for a, mult in spec.lam.shifts:
        lam *= (Z + _number(a)) ** mult
    if spec.is_difference:
        q = _number(spec.q)
        return (p.subs(Z, q * Z) * m - T * p * m.subs(Z, q * Z)
                - (q ** spec.m - T * q ** spec.n) * lam)
    return p * m + T * (p * sp.diff(m, Z) - sp.diff(p, Z) * m) - lam


def system(spec: ProblemSpec) -> sp.Matrix:
    """[A | b]: the residual's z^0 .. z^(m+n-1) coefficients, one row
    each, in the larger side's coefficients and the constant term."""
    k, l = min(spec.m, spec.n), max(spec.m, spec.n)
    if k > 1:
        raise ValueError("the census needs min(m, n) <= 1")
    cs = sp.symbols(f"c0:{l}")
    larger = Z ** l + sum(c * Z ** j for j, c in enumerate(cs))
    smaller = Z + V if k else sp.Integer(1)
    p, m = (larger, smaller) if spec.m >= spec.n else (smaller, larger)
    residual = sp.Poly(sp.expand(_residual(spec, p, m)), Z)
    rows = []
    for e in range(spec.m + spec.n):
        coeff = sp.expand(residual.coeff_monomial(Z ** e))
        rows.append([coeff.coeff(c) for c in cs]
                    + [-coeff.subs({c: 0 for c in cs})])
    return sp.Matrix(rows)


def eliminant(spec: ProblemSpec) -> Optional[sp.Poly]:
    """F(v, t) = det [A | b] for k = 1; None for k = 0."""
    if min(spec.m, spec.n) == 0:
        return None
    return sp.Poly(system(spec).det(method="berkowitz"), V, T)


def multiplicities(spec: ProblemSpec) -> Dict[object, int]:
    """Each root v0 of F(v, 0) with its order, the number of branches
    through the base whose smaller side is z + v0; {None: 1} for k = 0,
    after checking that det A is a unit at t = 0."""
    f = eliminant(spec)
    if f is None:
        a = system(spec)[:, :-1].subs(T, 0)
        if a.det() == 0:
            raise ValueError("the square system is singular at t = 0")
        return {None: 1}
    at_zero = sp.Poly(f.as_expr().subs(T, 0), V)
    return dict(sp.roots(at_zero, V))
