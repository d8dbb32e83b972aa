"""Reference tropical supports by sympy expansion (tests only).

This is the expansion that ``qqsystems.systems.symbolic_support`` replaced
with the shared residual builder over ``SparsePoly``.  It writes the
residual out independently, as one sympy expression in (z, x, y, t), and
reads the supports off ``sp.Poly``; the property test in
``test_systems.py`` holds the exact sparse path to it.
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


def symbolic_support(spec: ProblemSpec):
    """One TropicalSupport per residual component k = 1..m+n."""
    m, n = spec.m, spec.n
    dim = m + n
    z, t = sp.symbols("z t")
    xs = sp.symbols(f"x1:{m + 1}") if m else ()
    ys = sp.symbols(f"y1:{n + 1}") if n else ()
    lam_expr = sp.prod(
        (z + _scalar_to_sympy(a)) ** mult for a, mult in spec.lam.shifts)
    if spec.is_difference:
        qs = _scalar_to_sympy(spec.q)
        a_expr = sp.prod(z + xi / qs for xi in xs) * sp.prod(z + yj for yj in ys)
        b_expr = sp.prod(z + xi for xi in xs) * sp.prod(z + yj / qs for yj in ys)
        expr = qs ** m * a_expr - t * qs ** n * b_expr \
            - (qs ** m - t * qs ** n) * lam_expr
    else:
        qp = sp.prod(z + xi for xi in xs)
        qm = sp.prod(z + yj for yj in ys)
        expr = qp * qm + t * (qp * sp.diff(qm, z) - qm * sp.diff(qp, z)) - lam_expr
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
