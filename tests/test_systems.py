from dataclasses import replace
from types import SimpleNamespace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import support_reference
from qqsystems.linalg import rref, solve_unique
from qqsystems.poly import SparsePoly
from qqsystems.scalar import Scalar, ZERO, ONE
from qqsystems.series import OnlineSeries, Series
from qqsystems.systems import (MasterData, ProblemSpec, CandidatePoint,
                               SpecValidationError, coefficient_components,
                               eliminant, evaluate_residual,
                               expanded_residual, jacobian_at_zero,
                               jacobian_inverse_at_zero, online_residual,
                               residual_components, symbolic_support)
from qqsystems.infinite import enumerate_infinite_solutions


def master(*shifts):
    return MasterData(tuple((Scalar(a), m) for a, m in shifts))


def qq_spec(shifts, m, n, K=3):
    return ProblemSpec(mode="qq", lam=master(*shifts), m=m, n=n, K=K)


def QQ_spec(shifts, m, n, q, K=3):
    return ProblemSpec(mode="QQ", lam=master(*shifts), m=m, n=n,
                       q=Scalar(q), K=K)


def constant_point(x0, y0, top):
    """The point with exact constant jets x0, y0, known through t^top."""
    return CandidatePoint(tuple(Series.const(v, top) for v in x0),
                          tuple(Series.const(v, top) for v in y0))


class TestMasterData:
    def test_coefficients(self):
        lam = master((1, 1), (2, 1))  # (z+1)(z+2) = z^2 + 3z + 2
        assert lam.degree == 2
        assert lam.coeffs == (Scalar(2), Scalar(3), ONE)

    def test_multiplicity(self):
        lam = master((1, 2), (2, 1))  # (z+1)^2 (z+2)
        assert lam.degree == 3
        assert lam.root_shift_multiset() == [Scalar(1), Scalar(1), Scalar(2)]

    def test_repeated_shift_rejected(self):
        with pytest.raises(SpecValidationError):
            master((1, 1), (1, 1))

    def test_json_round_trip(self):
        lam = master((1, 2), (-3, 1))
        assert MasterData.from_json(lam.to_json()) == lam


class TestValidation:
    def test_degree_mismatch(self):
        with pytest.raises(SpecValidationError) as e:
            qq_spec([(1, 1), (2, 1)], 2, 1).validate()
        assert e.value.code == "degree_mismatch"

    def test_origin_shift_gate(self):
        # Lambda(0) = 0 is a valid spec; only solve refuses it
        qq_spec([(0, 1), (2, 1)], 1, 1).validate()

    def test_q_root_of_unity(self):
        # the roots of unity in Q(i) are exactly +-1 and +-i
        def spec(q):
            return ProblemSpec(mode="QQ", lam=master((1, 1), (2, 1)),
                               m=1, n=1, q=q)
        for q in (ONE, Scalar(-1), Scalar(0, 1), Scalar(0, -1)):
            with pytest.raises(SpecValidationError) as e:
                spec(q).validate()
            assert e.value.code == "q_root_of_unity"
        # other unit-modulus q and q off the unit circle validate
        for q in (Scalar(Fraction(3, 5), Fraction(4, 5)), Scalar(1, 1),
                  Scalar(0, 2)):
            spec(q).validate()

    def test_q_in_qq_mode_rejected(self):
        spec = ProblemSpec(mode="qq", lam=master((1, 1), (2, 1)),
                           m=1, n=1, q=Scalar(3))
        with pytest.raises(SpecValidationError) as e:
            spec.validate()
        assert e.value.code == "unexpected_q"

    def test_from_json_unknown_key(self):
        with pytest.raises(SpecValidationError) as e:
            ProblemSpec.from_json({"mode": "qq",
                                   "lambda": {"shifts": [["1", 1], ["2", 1]]},
                                   "m": 1, "n": 1, "frobnicate": True})
        assert e.value.code == "unknown_key"

    def test_from_json_round_trip(self):
        obj = {"mode": "QQ", "lambda": {"shifts": [["1", 1], ["2", 1]]},
               "m": 1, "n": 1, "q": "3", "K": 3}
        spec = ProblemSpec.from_json(obj)
        assert ProblemSpec.from_json(spec.to_json()) == spec


class TestQqResidual:
    def test_exact_base_is_zero_at_order_zero(self):
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        p = constant_point([Scalar(1)], [Scalar(2)], top=3)
        res = evaluate_residual(p, spec)
        for comp in res:
            assert comp.coeff(0) == ZERO

    def test_wronskian_term_at_order_one(self):
        # f_k = e_k + t p_{k-1} - d_k; at the base the order-1 coefficient
        # is the Wronskian coefficient p_{k-1} of the base polynomials.
        # q+ = z+1, q- = z+2: W = q+ q-' - q- q+' = (z+1) - (z+2) = -1.
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        p = constant_point([Scalar(1)], [Scalar(2)], top=3)
        res = evaluate_residual(p, spec)
        assert res[0].coeff(1) == ZERO          # p_0 = n - m = 0
        assert res[1].coeff(1) == Scalar(-1)    # p_1 = W coefficient

    def test_known_off_solution_residual(self):
        # x = 0, y = 0 against Lambda = (z+1)(z+2): e_1 - d_1 = -3,
        # e_2 - d_2 = -2, Wronskian of z*z is 0
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        p = constant_point([ZERO], [ZERO], top=2)
        res = evaluate_residual(p, spec)
        assert res[0].coeff(0) == Scalar(-3)
        assert res[1].coeff(0) == Scalar(-2)


class TestQQResidual:
    def test_base_vanishes_at_order_zero(self):
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3)
        # base split: x0 = 3*1, y0 = 2
        p = constant_point([Scalar(3)], [Scalar(2)], top=3)
        res = evaluate_residual(p, spec)
        for comp in res:
            assert comp.coeff(0) == ZERO

    def test_cleared_form_unit_factor(self):
        # residual of the true solution through K must vanish identically;
        # verified via the known K=4 solution of the q=3 instance
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3, K=4)
        x = Series(1, [Scalar(3), Scalar(-2), Scalar(Fraction(22, 3)),
                       Scalar(Fraction(-322, 9)), Scalar(Fraction(5462, 27))])
        y = Series(1, [Scalar(2), Scalar(Fraction(4, 3)), Scalar(-4),
                       Scalar(Fraction(484, 27)), Scalar(Fraction(-7876, 81))])
        res = evaluate_residual(CandidatePoint((x,), (y,)), spec)
        for comp in res:
            assert comp.is_zero

    def test_mode_dispatch(self):
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        p = constant_point([Scalar(1)], [Scalar(2)], top=2)
        assert evaluate_residual(p, spec)[0].coeff(0) == ZERO


def rank(matrix):
    return len(rref(matrix)[1])


def j0(sol, spec):
    """jacobian_at_zero at a base, from the expansion there."""
    return jacobian_at_zero(expanded_residual(spec, sol.x0 + sol.y0))


class TestJacobian:
    def test_generic_full_rank(self):
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        sol = enumerate_infinite_solutions(spec)[0]
        matrix = j0(sol, spec)
        assert rank(matrix) == 2
        # columns are coefficients of Lambda/(z+b_j)
        # b = (1,2): Lambda/(z+1) = z+2, Lambda/(z+2) = z+1
        assert matrix[0][0] == ONE and matrix[0][1] == ONE
        assert matrix[1][0] == Scalar(2) and matrix[1][1] == ONE

    def test_degenerate_rank_drop(self):
        spec = qq_spec([(1, 2)], 1, 1)
        sol = enumerate_infinite_solutions(spec)[0]
        assert rank(j0(sol, spec)) == 1

    def test_rank_equals_distinct_count(self):
        # Lemma: rank = number of distinct values among the shifts
        spec = qq_spec([(1, 2), (2, 1)], 2, 1)
        for sol in enumerate_infinite_solutions(spec):
            assert rank(j0(sol, spec)) == sol.l

    def test_difference_mode_scaling(self):
        # u = (x/q, y): x-columns are scaled by 1/q, and the whole matrix
        # by the clearing factor q^m = 3
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3)
        sol = enumerate_infinite_solutions(spec)[0]  # x0 = 3, y0 = 2
        matrix = j0(sol, spec)
        assert rank(matrix) == 2
        assert matrix[0][0] == ONE
        assert matrix[1][0] == Scalar(2)
        assert matrix[0][1] == Scalar(3)
        assert matrix[1][1] == Scalar(3)

    def test_q_collision_detected(self):
        # x0 = 3, y0 = 1 looks distinct but x0/q = y0: rank drops
        spec = QQ_spec([(1, 2)], 1, 1, 3)
        sol = enumerate_infinite_solutions(spec)[0]
        assert sol.tier == "degenerate"
        assert rank(j0(sol, spec)) == 1


def test_jacobian_rejects_non_solution():
    # qq (z+1)(z+2): the base x0 = 1, y0 = 2 with y0 moved off the root
    spec = qq_spec([(1, 1), (2, 1)], 1, 1)
    sol = enumerate_infinite_solutions(spec)[0]
    with pytest.raises(ValueError, match="not a solution"):
        j0(replace(sol, y0=(Scalar(3),)), spec)
    # QQ q = 3: the base has x0 = 3 = q * 1; x0 = 1 lacks the factor q
    spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3)
    sol = enumerate_infinite_solutions(spec)[0]
    assert sol.x0 == (Scalar(3),)
    with pytest.raises(ValueError, match="not a solution"):
        j0(replace(sol, x0=(ONE,)), spec)


class TestSymbolicSupport:
    def test_qq_f1_support(self):
        # f_1 = x + y - d_1 + t(n - m): with m = n the t-term drops and
        # the support is {x, y, 1}
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        sup = symbolic_support(spec)
        items = {u: (v, c) for u, v, c in sup[0].items}
        assert set(items) == {(1, 0), (0, 1), (0, 0)}
        assert items[(0, 0)] == (Fraction(0), Scalar(-3))

    def test_qq_f2_support_with_t_terms(self):
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        sup = symbolic_support(spec)
        items = {u: (v, c) for u, v, c in sup[1].items}
        # f_2 = xy + t(x - y) - d_2 with the W(q+, q-) orientation
        assert items[(1, 1)] == (Fraction(0), ONE)
        assert items[(1, 0)] == (Fraction(1), ONE)
        assert items[(0, 1)] == (Fraction(1), Scalar(-1))
        assert items[(0, 0)] == (Fraction(0), Scalar(-2))


# Gaussian shifts with small rational parts
SHIFTS = st.builds(lambda a, b, im: Scalar(Fraction(a, b), im),
                   st.integers(-3, 3), st.integers(1, 3), st.integers(-2, 2))
QS = [Scalar(2), Scalar(3), Scalar(Fraction(1, 2)), Scalar(1, 1)]


@st.composite
def masters(draw, dim):
    """Lambda of degree dim: distinct shifts with multiplicities."""
    shifts = draw(st.lists(SHIFTS, min_size=1, max_size=dim, unique=True))
    mults = [1] * len(shifts)
    for _ in range(dim - len(shifts)):
        mults[draw(st.integers(0, len(shifts) - 1))] += 1
    return MasterData(tuple(zip(shifts, mults)))


@st.composite
def small_specs(draw):
    """Both modes, 1 <= m + n <= 4 (m = 0 and n = 0 included)."""
    mode = draw(st.sampled_from(["qq", "QQ"]))
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(0, dim))
    lam = draw(masters(dim))
    q = draw(st.sampled_from(QS)) if mode == "QQ" else None
    return ProblemSpec(mode=mode, lam=lam, m=m, n=dim - m, q=q)


@settings(max_examples=60, deadline=None)
@given(small_specs())
def test_symbolic_support_matches_sympy_reference(spec):
    assert symbolic_support(spec) == support_reference.symbolic_support(spec)


@settings(max_examples=60, deadline=None)
@given(small_specs(), st.data())
def test_residual_matches_root_form(spec, data):
    """residual_components over Scalars at random x, y and t0 equals the
    root form expanded by sympy: q+ q- + t W - Lambda, or
    q^m prod(z + x/q) prod(z + y) - t q^n prod(z + x) prod(z + y/q)
    - (q^m - t q^n) Lambda."""
    dim = spec.m + spec.n
    u = data.draw(st.lists(SHIFTS, min_size=dim, max_size=dim))
    t0 = data.draw(SHIFTS)
    got = residual_components(u[:spec.m], u[spec.m:], spec, ONE,
                              lambda v: v * t0)
    assert got == support_reference.residual_at(spec, u, t0)


def _at(poly, v, t0):
    """A SparsePoly in (v, t) at v and t = t0."""
    return sum((c * v ** a * t0 ** b for (a, b), c in poly.terms.items()),
               ZERO)


@settings(max_examples=60, deadline=None)
@given(small_specs().filter(lambda spec: min(spec.m, spec.n) <= 1),
       st.data())
def test_eliminant_solves_the_triangular_components(spec, data):
    """With the smaller side at z + v (k = 1) or 1 (k = 0) and the larger
    side's coefficients at N_j / D, every component above z^0 is zero and
    the z^0 one is F / D; F(v, 0) is a constant times Lambda(-v), or
    Lambda(-v/q) where v is QQ's x."""
    k = min(spec.m, spec.n)
    f, larger = eliminant(spec)
    v, t0 = data.draw(SHIFTS), data.draw(SHIFTS)
    den = _at(larger[-1], v, t0)
    assume(not den.is_zero)
    coeffs = [_at(p, v, t0) / den for p in larger[:-1]]
    ps, ms = (coeffs, [v] * k) if spec.m >= spec.n else ([v] * k, coeffs)
    comps = coefficient_components(ps, ms, spec, ONE, lambda c: c * t0)
    assert all(c.is_zero for c in comps[:spec.m + spec.n - k])
    if not k:
        assert f is None
        return
    assert comps[-1] == _at(f, v, t0) / den
    w = data.draw(SHIFTS)
    scale = spec.q if spec.is_difference and spec.n > spec.m else ONE

    def lam(z):
        return sum((c * z ** e for e, c in enumerate(spec.lam.coeffs)), ZERO)

    assert _at(f, v, ZERO) * lam(-w / scale) == \
        _at(f, w, ZERO) * lam(-v / scale)


def _has_nonzero_d(lam):
    return all(not c.is_zero for c in lam.coeffs)


def _support_pairs(spec):
    return [[(u, v) for u, v, _ in sup.items]
            for sup in symbolic_support(spec)]


@settings(max_examples=60, deadline=None)
@given(small_specs().filter(lambda spec: _has_nonzero_d(spec.lam)),
       st.data())
def test_support_pairs_do_not_depend_on_lambda_or_q(spec, data):
    """The sampled form of the support lemma: with every d_k nonzero,
    the (exponent, valuation) pairs of symbolic_support are the same for
    a second Lambda and, in QQ, a second q."""
    lam = data.draw(masters(spec.m + spec.n).filter(_has_nonzero_d))
    q = data.draw(st.sampled_from(QS)) if spec.is_difference else None
    assert _support_pairs(replace(spec, lam=lam, q=q)) == \
        _support_pairs(spec)


@settings(max_examples=60, deadline=None)
@given(small_specs())
def test_jacobian_matches_sympy_derivatives(spec):
    """At every base, jacobian_at_zero is sympy's Jacobian, at t = 0, of
    the root form's z-coefficients, which shares no code with
    residual_components."""
    for sol in enumerate_infinite_solutions(spec):
        assert j0(sol, spec) == \
            support_reference.jacobian_at_zero(spec, sol.x0 + sol.y0)


# real, rational and Gaussian shifts, each kind drawn on its own
KINDS_OF_SHIFTS = st.one_of(
    st.builds(Scalar, st.integers(-4, 4)),
    st.builds(lambda a, b: Scalar(Fraction(a, b)), st.integers(-4, 4),
              st.integers(2, 3)),
    st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2).filter(bool)))


@st.composite
def generic_specs(draw):
    """Both modes, 1 <= m + n <= 5 (m = 0 and n = 0 included), distinct
    simple shifts; q in {3, 1/2, -2, 2 + i}."""
    shifts = draw(st.lists(KINDS_OF_SHIFTS, min_size=1, max_size=5,
                           unique=True))
    mode = draw(st.sampled_from(["qq", "QQ"]))
    dim = len(shifts)
    m = draw(st.sampled_from([0, dim, draw(st.integers(0, dim))]))
    q = draw(st.sampled_from([Scalar(3), Scalar(Fraction(1, 2)), Scalar(-2),
                              Scalar(2, 1)])) if mode == "QQ" else None
    return ProblemSpec(mode=mode,
                       lam=MasterData(tuple((a, 1) for a in shifts)),
                       m=m, n=dim - m, q=q)


@settings(max_examples=100, deadline=None)
@given(generic_specs())
def test_closed_form_inverse_is_the_row_reduced_one(spec):
    """At every generic base the closed-form J0^-1 equals the inverse that
    row reduction of jacobian_at_zero gives."""
    dim = spec.m + spec.n
    identity = [[ONE if c == i else ZERO for c in range(dim)]
                for i in range(dim)]
    for sol in enumerate_infinite_solutions(spec):
        assert jacobian_inverse_at_zero(sol, spec) == \
            solve_unique(j0(sol, spec), identity)


@settings(max_examples=60, deadline=None)
@given(small_specs(), st.data())
def test_expanded_residual_evaluates_to_residual(spec, data):
    """expanded_residual at a point `at`, evaluated at (delta, t0), is
    residual_components over Scalars at at + delta with t = t0."""
    dim = spec.m + spec.n
    at = data.draw(st.lists(SHIFTS, min_size=dim, max_size=dim))
    delta = data.draw(st.lists(SHIFTS, min_size=dim, max_size=dim))
    t0 = data.draw(SHIFTS)
    point = list(delta) + [t0]
    u = [a + d for a, d in zip(at, delta)]
    expected = residual_components(u[:spec.m], u[spec.m:], spec, ONE,
                                   lambda v: v * t0)
    for comp, want in zip(expanded_residual(spec, at), expected, strict=True):
        value = ZERO
        for mono, c in comp.terms.items():
            for v, k in zip(point, mono):
                c = c * v ** k
            value = value + c
        assert value == want


@settings(max_examples=60, deadline=None)
@given(small_specs(), st.data())
def test_online_residual_matches_series_residual(spec, data):
    """Every coefficient of online_residual equals evaluate_residual's on
    the same jet, also after a leaf coefficient changes and what was
    computed from it is dropped."""
    dim = spec.m + spec.n
    top = data.draw(st.integers(0, 4))
    rows = [data.draw(st.lists(SHIFTS, min_size=top + 1, max_size=top + 1))
            for _ in range(dim)]

    def check(online):
        jets = [Series(1, row) for row in rows]
        fresh = evaluate_residual(
            CandidatePoint(tuple(jets[:spec.m]), tuple(jets[spec.m:])), spec)
        for comp, want in zip(online, fresh, strict=True):
            assert [comp.coeff(k) for k in range(top + 1)] == \
                [want.coeff(k) for k in range(top + 1)]

    leaves = OnlineSeries.leaves(rows)
    online = online_residual(leaves, spec)
    check(online)
    i = data.draw(st.integers(0, dim - 1))
    k = data.draw(st.integers(0, top))
    rows[i][k] = data.draw(SHIFTS)
    leaves[i].forget_from(k)
    check(online)


class _QPoly(SparsePoly):
    """SparsePoly with integer powers, so that q can be a variable."""

    def __pow__(self, k: int) -> "_QPoly":
        out = SparsePoly.constant(ONE, self.nvars)
        for _ in range(k):
            out = out * self
        return _QPoly(out.terms, out.nvars)


def _symbolic_residual(m, n, mode):
    """residual_components over SparsePoly in (x, y, t, d_1..d_{m+n}, q):
    Lambda = z^deg + d_1 z^(deg-1) + ... + d_deg, and q a variable."""
    deg = m + n
    nvars = 2 * deg + 2
    gens = [SparsePoly.variable(i, nvars) for i in range(nvars)]
    t, ds, q = gens[deg], gens[deg + 1:2 * deg + 1], gens[-1]
    spec = SimpleNamespace(
        m=m, n=n, is_difference=mode == "QQ",
        q=_QPoly(q.terms, nvars) if mode == "QQ" else None,
        lam=SimpleNamespace(degree=deg, coeffs=ds[::-1] + [ONE]))
    return residual_components(
        gens[:m], gens[m:deg], spec, SparsePoly.constant(ONE, nvars),
        lambda p: p * t)


@pytest.mark.parametrize("mode", ["qq", "QQ"])
@pytest.mark.parametrize("m, n", [(m, d - m) for d in range(1, 7)
                                  for m in range(d + 1)])
def test_least_t_coefficients_are_integer_multiples_of_q_powers(m, n, mode):
    """The support lemma, symbolic in Lambda and q: in component k, the
    least-t coefficient of each non-constant (x, y)-monomial is c q^i
    with c a nonzero integer and no d in it, and that of the constant
    monomial is c q^i d_k.  So the supports, and the prevariety, are the
    same for every Lambda with all d_k != 0 and for every q != 0."""
    deg = m + n
    for k, comp in enumerate(_symbolic_residual(m, n, mode), start=1):
        least = {}  # (x, y)-exponents -> (least t-degree, its terms)
        for mono, c in comp.terms.items():
            u, tdeg, rest = mono[:deg], mono[deg], mono[deg + 1:]
            if u not in least or tdeg < least[u][0]:
                least[u] = (tdeg, [])
            if tdeg == least[u][0]:
                least[u][1].append((rest, c))
        assert (0,) * deg in least
        for u, (_, terms) in least.items():
            assert len(terms) == 1, (k, u, terms)
            (rest, c), = terms
            d_exps, q_exp = rest[:deg], rest[deg]
            want_d = tuple(int(j == k - 1) for j in range(deg)) if not any(u) \
                else (0,) * deg
            assert d_exps == want_d, (k, u, rest)
            assert mode == "QQ" or q_exp == 0
            assert c.im == 0 and c.re.denominator == 1 and c.re != 0, (k, u, c)
