"""Reference tropical supports by sympy expansion (tests only).

This is the expansion that ``qqsystems.systems.symbolic_support`` replaced
with the shared residual builder over ``SparsePoly``.  It writes the
residual out independently, as one sympy expression in (z, x, y, t), and
reads the supports off ``sp.Poly``; the property tests in
``test_systems.py`` hold the exact sparse path, the residual at arbitrary
points, and the t = 0 Jacobian at every base, to it.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

from qqsystems.scalar import Scalar
from qqsystems.systems import ProblemSpec
from qqsystems.tropical import TropicalSupport


def _scalar_to_sympy(c: Scalar):
    v = sp.Rational(c.re.numerator, c.re.denominator)
    if c.im != 0:
        v = v + sp.I * sp.Rational(c.im.numerator, c.im.denominator)
    return v


def _sympy_to_scalar(v) -> Scalar:
    v = sp.expand(v)
    re, im = v.as_real_imag()
    re, im = sp.Rational(re), sp.Rational(im)
    return Scalar(Fraction(re.p, re.q), Fraction(im.p, im.q))


def residual_expr(spec: ProblemSpec, z, t, xs, ys):
    """The residual in root form, one sympy expression in z, t, xs, ys."""
    m, n = spec.m, spec.n
    lam_expr = sp.prod(
        (z + _scalar_to_sympy(a)) ** mult for a, mult in spec.lam.shifts)
    if spec.is_difference:
        qs = _scalar_to_sympy(spec.q)
        a_expr = sp.prod(z + xi / qs for xi in xs) * sp.prod(z + yj for yj in ys)
        b_expr = sp.prod(z + xi for xi in xs) * sp.prod(z + yj / qs for yj in ys)
        return qs ** m * a_expr - t * qs ** n * b_expr \
            - (qs ** m - t * qs ** n) * lam_expr
    qp = sp.prod(z + xi for xi in xs)
    qm = sp.prod(z + yj for yj in ys)
    return qp * qm + t * (qp * sp.diff(qm, z) - qm * sp.diff(qp, z)) - lam_expr


def residual_at(spec: ProblemSpec, u, t0):
    """The z^{m+n-k} coefficients, k = 1..m+n, of the root form at
    (x, y) = u and t = t0, all Scalars."""
    z = sp.Symbol("z")
    vals = [_scalar_to_sympy(v) for v in u]
    expr = residual_expr(spec, z, _scalar_to_sympy(t0), vals[:spec.m],
                         vals[spec.m:])
    poly_z = sp.Poly(sp.expand(expr), z)
    dim = spec.m + spec.n
    return [_sympy_to_scalar(poly_z.coeff_monomial(z ** (dim - k)))
            for k in range(1, dim + 1)]


def jacobian_at_zero(spec: ProblemSpec, u):
    """The t = 0 Jacobian of the z^{m+n-k} coefficients, k = 1..m+n, of
    the root form, by sympy's partial derivatives in (x, y) read at
    (x, y) = u; rows are components, columns unknowns, all Scalars."""
    m, n = spec.m, spec.n
    dim = m + n
    z = sp.Symbol("z")
    xs = sp.symbols(f"x1:{m + 1}") if m else ()
    ys = sp.symbols(f"y1:{n + 1}") if n else ()
    unknowns = tuple(xs) + tuple(ys)
    poly_z = sp.Poly(sp.expand(residual_expr(spec, z, 0, xs, ys)), z)
    at = dict(zip(unknowns, (_scalar_to_sympy(v) for v in u)))
    return [[_sympy_to_scalar(
        sp.diff(poly_z.coeff_monomial(z ** (dim - k)), v).subs(at))
        for v in unknowns] for k in range(1, dim + 1)]


def symbolic_support(spec: ProblemSpec):
    """One TropicalSupport per residual component k = 1..m+n."""
    m, n = spec.m, spec.n
    dim = m + n
    z, t = sp.symbols("z t")
    xs = sp.symbols(f"x1:{m + 1}") if m else ()
    ys = sp.symbols(f"y1:{n + 1}") if n else ()
    expr = residual_expr(spec, z, t, xs, ys)
    poly_z = sp.Poly(sp.expand(expr), z)
    gens = tuple(xs) + tuple(ys) + (t,)
    supports = []
    for k in range(1, dim + 1):
        comp = poly_z.coeff_monomial(z ** (dim - k))
        terms = {}
        if comp != 0:
            pk = sp.Poly(sp.expand(comp), *gens)
            for mono, coeff in pk.terms():
                terms.setdefault(mono[:dim], {})[mono[dim]] = coeff
        items = []
        for u, by_t in sorted(terms.items()):
            vals = sorted(d for d, c in by_t.items() if c != 0)
            if not vals:
                continue
            v = vals[0]
            items.append((tuple(u), Fraction(v), _sympy_to_scalar(by_t[v])))
        supports.append(TropicalSupport(tuple(items)))
    return supports
