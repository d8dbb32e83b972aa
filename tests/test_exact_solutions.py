"""The exact half of the constraint solve, held to sympy.

exact_jets.exact_solutions solves, over Q(i), the constraint systems of the
ramified search that need no radical: none, linear ones, and those in one
unknown whose gcd has degree <= 2.  Each map it returns, and their order,
must be what the sympy half (exact_jets._constraint_solutions,
sympy.groebner then sympy.solve) returns on the same system.  A quadratic
with no root in Q(i) gives no map, and both its roots count as outside
Q(i), where sympy's two roots both lie.  The search over its ring must
return what the search forced onto the sympy ring returns.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from test_admitted_indices import _degenerate_bases, _label, _ladder
from test_golden_reports import CASES
from qqsystems import exact_jets, lifting
from qqsystems.exact_jets import (_constraint_solutions, _try_scalar,
                                  exact_solutions, sqrt)
from qqsystems.lifting import _largest_multiplicity
from qqsystems.poly import SparsePoly, poly_gcd
from qqsystems.scalar import Scalar
from qqsystems.systems import ProblemSpec, expanded_residual

# the parameter names of a search with 12 s-orders and free columns 1 and
# 2: brk_10_1 sorts before brk_2_1
NAMES = [f"brk_{order}_{c}" for order in range(1, 13) for c in (1, 2)]
SYMBOLS = [sp.Symbol(name) for name in NAMES]


def _sympy(poly: SparsePoly):
    return sp.expand(sp.Add(*[
        (sp.Rational(c.re) + sp.I * sp.Rational(c.im))
        * sp.Mul(*[s ** e for s, e in zip(SYMBOLS, u)])
        for u, c in poly.terms.items()]))


def _as_sympy_maps(sols):
    return [{SYMBOLS[v]: _sympy(value) for v, value in sol.items()}
            for sol in sols]


def _sympy_half(constraints):
    return [{key: sp.expand(value) for key, value in sol.items()}
            for sol in _constraint_solutions([_sympy(c) for c in constraints])]


def _linear(coeffs, const):
    """sum coeffs[v] x_v + const as a SparsePoly in len(NAMES) variables."""
    terms = {tuple(int(j == v) for j in range(len(NAMES))): c
             for v, c in coeffs.items()}
    terms[(0,) * len(NAMES)] = const
    return SparsePoly(terms, len(NAMES))


GAUSS = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
# up to 4 unknowns, at least one of them at an order >= 10
UNKNOWNS = st.lists(st.sampled_from(range(len(NAMES))), min_size=1,
                    max_size=3, unique=True).flatmap(
    lambda low: st.sampled_from(range(18, len(NAMES))).map(
        lambda high: sorted(set(low) | {high})))


@settings(max_examples=60, deadline=None)
@given(UNKNOWNS.flatmap(lambda unknowns: st.lists(
    st.tuples(st.fixed_dictionaries({v: GAUSS for v in unknowns}), GAUSS),
    min_size=1, max_size=4)))
def test_linear_systems_match_sympy(rows):
    # the same one map, pivots leftmost in name order, or none
    constraints = [_linear(coeffs, const) for coeffs, const in rows]
    exact = exact_solutions(constraints, NAMES)
    assert exact is not None
    assert _as_sympy_maps(exact) == _sympy_half(constraints), constraints


def test_linear_pivots_follow_name_order():
    # x_brk_10_1 + x_brk_2_1 = 1: brk_10_1 is the pivot, brk_2_1 stays free
    ten, two = NAMES.index("brk_10_1"), NAMES.index("brk_2_1")
    system = [_linear({ten: Scalar(1), two: Scalar(1)}, Scalar(-1))]
    [sol] = exact_solutions(system, NAMES)
    assert list(sol) == [ten]
    assert _as_sympy_maps([sol]) == _sympy_half(system)


def _univariate(coeffs, v=NAMES.index("brk_11_2")):
    """sum coeffs[e] x_v^e as a SparsePoly in len(NAMES) variables."""
    return SparsePoly({tuple(e if j == v else 0 for j in range(len(NAMES))): c
                       for e, c in enumerate(coeffs)}, len(NAMES))


def _times(f, g):
    out = [Scalar(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


GAUSS_RATIONAL = st.builds(Scalar, st.fractions(-3, 3, max_denominator=3),
                           st.fractions(-3, 3, max_denominator=3))


@settings(max_examples=60, deadline=None)
@given(GAUSS_RATIONAL, GAUSS_RATIONAL, GAUSS_RATIONAL,
       GAUSS.filter(lambda c: not c.is_zero), st.booleans())
def test_quadratics_with_gaussian_roots_match_sympy(r1, r2, r3, lead, two):
    # c (x - r1)(x - r2), and with (x - r1)(x - r3) beside it their gcd:
    # the same roots in the same order, once each at a double root
    system = [_univariate(_times([-r1, Scalar(1)], [-r2 * lead, lead]))]
    roots = {r1, r2}
    if two:
        system.append(_univariate(_times([-r1, Scalar(1)],
                                         [-r3, Scalar(1)])))
        roots &= {r1, r3}
    exact = exact_solutions(system, NAMES)
    assert exact is not None
    assert len(exact) == len(roots)
    assert _as_sympy_maps(exact) == _sympy_half(system), (r1, r2, r3)


@pytest.mark.parametrize("r1,r2", [
    (Scalar(0), Scalar(-2)), (Scalar(0, 1), Scalar(0, -1)),
    (Scalar(1, 1), Scalar(1, -1)), (Scalar(2), Scalar(0, 3)),
    (Scalar(-1, 2), Scalar(3)), (Scalar(Fraction(1, 2), 1), Scalar(-5)),
    (Scalar(Fraction(-3, 2)), Scalar(Fraction(-3, 2))),
], ids=str)
def test_quadratic_roots_in_sympy_order(r1, r2):
    system = [_univariate(_times([-r1, Scalar(1)], [-r2, Scalar(1)]))]
    assert _as_sympy_maps(exact_solutions(system, NAMES)) == \
        _sympy_half(system)


@pytest.mark.parametrize("coeffs", [
    [Scalar(-2), Scalar(0), Scalar(1)],           # x^2 = 2
    [Scalar(3), Scalar(0), Scalar(1)],            # x^2 = -3
    [Scalar(-1, -2), Scalar(0), Scalar(1)],       # x^2 = 1 + 2i
    [Scalar(-1), Scalar(1), Scalar(1)],           # x^2 + x - 1
    [Scalar(1), Scalar(-6), Scalar(-3)],          # the order-1 conic's disc
], ids=str)
def test_declines_where_sympy_returns_a_radical(coeffs):
    # no map: both roots lie outside Q(i), as both of sympy's do
    system = [_univariate(coeffs)]
    assert exact_solutions(system, NAMES) == [None, None]
    values = [value for sol in _sympy_half(system) for value in sol.values()]
    assert len(values) == 2
    assert all(_try_scalar(value) is None for value in values)


def test_declines_a_cubic_with_rational_roots():
    # degree >= 3 is left to sympy even where its roots lie in Q(i)
    cubic = _times(_times([Scalar(-1), Scalar(1)], [Scalar(-2), Scalar(1)]),
                   [Scalar(-3), Scalar(1)])
    assert exact_solutions([_univariate(cubic)], NAMES) is None


def test_declines_a_nonlinear_system_in_two_unknowns():
    a, b = (SparsePoly.variable(v, len(NAMES)) for v in (0, 1))
    assert exact_solutions([a * a + b * b + a], NAMES) is None


@pytest.mark.parametrize("system,expected", [
    ([], [{}]),
    ([SparsePoly({}, len(NAMES))], [{}]),
    ([SparsePoly.constant(Scalar(2), len(NAMES))], []),
    # a nonzero constant among consistent constraints
    ([_univariate([Scalar(0), Scalar(1)]),
      SparsePoly.constant(Scalar(0, 1), len(NAMES))], []),
    # no common root: the gcd is a constant
    ([_univariate([Scalar(-1), Scalar(1)]),
      _univariate([Scalar(0), Scalar(0), Scalar(1)])], []),
])
def test_trivial_systems(system, expected):
    assert exact_solutions(system, NAMES) == expected
    assert _sympy_half(system) == expected


@pytest.mark.parametrize("w", [Scalar(4), Scalar(-9), Scalar(0, 2),
                               Scalar(Fraction(-7, 4), -6), Scalar(0),
                               Scalar(-3, 4)], ids=str)
def test_sqrt_in_the_gaussian_rationals(w):
    root = sqrt(w)
    assert root is not None and root * root == w


@pytest.mark.parametrize("w", [Scalar(2), Scalar(-3), Scalar(1, 2),
                               Scalar(0, 1), Scalar(Fraction(1, 2))], ids=str)
def test_sqrt_outside_the_gaussian_rationals(w):
    assert sqrt(w) is None


def test_one_euclid_serves_both_callers():
    # gcd((x - 1)^2 (x + i), (x - 1)(x - 2)) is x - 1 up to a unit, and
    # (x - 1)^2 (x + i) has a root of multiplicity 2
    f = _times(_times([Scalar(-1), Scalar(1)], [Scalar(-1), Scalar(1)]),
               [Scalar(0, 1), Scalar(1)])
    g = poly_gcd(f, _times([Scalar(-1), Scalar(1)], [Scalar(-2), Scalar(1)]))
    assert len(g) == 2 and g[0] == -g[1]
    assert _largest_multiplicity(f) == 2
    assert poly_gcd([], f) == f


def _searches(spec, monkeypatch, forced):
    """_branch_search at each index each degenerate base admits: the points
    and the dropped count, or the failure's type and message."""
    out = []
    with monkeypatch.context() as patch:
        if forced:
            patch.setattr(exact_jets, "exact_solutions", lambda *args: None)
        for base in _degenerate_bases(spec):
            expansion = expanded_residual(spec, base.x0 + base.y0)
            for n_ram in lifting.admitted_indices(base, spec):
                try:
                    out.append(lifting._branch_search(base, spec, expansion,
                                                      n_ram))
                except lifting.LiftError as exc:
                    out.append((type(exc), str(exc)))
    return out


# the ladder and every golden degenerate spec
EXACT_RING_SPECS = {_label(spec): spec for spec in _ladder()}
EXACT_RING_SPECS.update({
    label: ProblemSpec.from_json(spec) for label, (cmd, spec, _) in CASES.items()
    if cmd == "solve" and any(mult > 1 for _, mult in spec["lambda"]["shifts"])})


@pytest.mark.parametrize("label", EXACT_RING_SPECS)
def test_exact_ring_search_equals_the_sympy_ring_search(label, monkeypatch):
    spec = EXACT_RING_SPECS[label]
    assert _searches(spec, monkeypatch, False) == \
        _searches(spec, monkeypatch, True)


def test_the_exact_ring_finishes_the_ladder_quadratics(monkeypatch):
    # qq (z+a)^2 meets [b^2 + 2b], then [b]: no system reaches sympy
    def refuse():
        raise AssertionError("the search fell back to sympy")

    monkeypatch.setattr(exact_jets, "SympyJets", refuse)
    for a in (1, 2, 3):
        [(points, dropped)] = _searches(
            EXACT_RING_SPECS[f"qq (z+{a})^2 (1,1) K=2"], monkeypatch, False)
        assert len(points) == 2 and dropped == 0
        # QQ (z+a)^2, q = 3 admits only N = 2, where a quadratic in one
        # parameter has no root in Q(i): both its branches are dropped
        assert _searches(EXACT_RING_SPECS[f"QQ (z+{a})^2 (1,1) K=2"],
                         monkeypatch, False) == [([], 2)]
