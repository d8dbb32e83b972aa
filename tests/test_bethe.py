from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bethe_reference
from qqsystems import bethe
from qqsystems.scalar import Scalar, ZERO, ONE
from qqsystems.series import Series
from qqsystems.systems import CandidatePoint, MasterData, ProblemSpec
from qqsystems.infinite import InfiniteSolution, enumerate_infinite_solutions
from qqsystems.lifting import lift_newton, lift_ramified, LiftedSolution
from qqsystems.bethe import (bethe_report, nondegeneracy_check,
                             gaudin_residual, xxz_residual,
                             NondegeneracyError,
                             UndecidableQDistinctnessError,
                             TWIST_GAUDIN, TWIST_XXZ)


def master(*shifts):
    return MasterData(tuple((Scalar(a), m) for a, m in shifts))


def qq_spec(shifts, m, n, K=4):
    return ProblemSpec(mode="qq", lam=master(*shifts), m=m, n=n, K=K)


def QQ_spec(shifts, m, n, q, K=3):
    return ProblemSpec(mode="QQ", lam=master(*shifts), m=m, n=n,
                       q=Scalar(q), K=K)


def closed_form_lift(K=4):
    spec = qq_spec([(1, 1), (2, 1)], 1, 1, K=K)
    return lift_newton(enumerate_infinite_solutions(spec)[0], spec), spec


class TestNondegeneracy:
    def test_generic_lift_passes(self):
        ls, spec = closed_form_lift()
        flags = nondegeneracy_check(ls, spec)
        assert flags == {"simple_zeros": True, "disjoint_from_lambda": True}

    def test_double_branch_zero_correction_fails_disjointness(self):
        # the constant branch (1, 1) of (z+1)^2 sits on a Lambda zero
        spec = qq_spec([(1, 2)], 1, 1, K=3)
        branches = lift_ramified(enumerate_infinite_solutions(spec)[0], spec)
        const = [b for b in branches if b.point.x[0].coeff(1) == ZERO][0]
        flags = nondegeneracy_check(const, spec)
        assert not flags["disjoint_from_lambda"]
        rep = bethe_report(const, spec)
        assert rep.residual_valuations is None  # gated

    def test_moving_branch_passes(self):
        spec = qq_spec([(1, 2)], 1, 1, K=3)
        branches = lift_ramified(enumerate_infinite_solutions(spec)[0], spec)
        moving = [b for b in branches if b.point.x[0].coeff(1) != ZERO][0]
        flags = nondegeneracy_check(moving, spec)
        assert all(flags.values())

    def test_q_distinct_collision(self):
        # q = 2, root at -1 (x = 1) and a Lambda zero at -2^k
        from qqsystems.systems import CandidatePoint
        from qqsystems.infinite import InfiniteSolution
        # construct a constant jet x = 1 directly (roots at -1)
        x = Series(1, [Scalar(1), ZERO, ZERO])
        y = Series(1, [Scalar(4), ZERO, ZERO])
        point = CandidatePoint((x,), (y,))
        base = InfiniteSolution(x0=(Scalar(1),), y0=(Scalar(4),),
                                l=2, tier="generic")
        ls = LiftedSolution(point=point, base=base, alpha=None,
                            residual_valuation=Fraction(0))
        for shifts in ([(2, 1), (8, 1)],       # 2^1 * (-1) = -2
                       [(3, 1), (512, 1)]):    # 2^9 * (-1) = -512
            spec = QQ_spec(shifts, 1, 1, 2, K=2)
            flags = nondegeneracy_check(ls, spec)
            assert not flags["q_distinct"], shifts

    def test_q_distinct_constant_terms_collide_jets_differ(self):
        # q = 2, roots w = -x: 2 * w_1(0) = -2 = w_2(0), so the constant
        # terms collide; only the t-coefficient of x_1 decides the flag
        from qqsystems.systems import CandidatePoint
        from qqsystems.infinite import InfiniteSolution
        spec = QQ_spec([(3, 1), (5, 1)], 2, 0, 2, K=2)
        base = InfiniteSolution(x0=(Scalar(1), Scalar(2)), y0=(), l=2,
                                tier="generic")
        x2 = Series(1, [Scalar(2), ZERO, ZERO])

        def flags_with_x1_slope(c):
            x1 = Series(1, [Scalar(1), Scalar(c), ZERO])
            ls = LiftedSolution(point=CandidatePoint((x1, x2), ()), base=base,
                                alpha=None, residual_valuation=Fraction(0))
            return nondegeneracy_check(ls, spec)

        assert flags_with_x1_slope(1) == {"simple_zeros": True,
                                          "disjoint_from_lambda": True,
                                          "q_distinct": True}
        assert not flags_with_x1_slope(0)["q_distinct"]

    def test_q_unit_modulus_undecidable(self):
        # q = (3+4i)/5 has |q| = 1 but is not a root of unity
        q = Scalar(Fraction(3, 5), Fraction(4, 5))
        spec = ProblemSpec(mode="QQ", lam=master((1, 1), (2, 1)),
                           m=1, n=1, q=q, K=2)
        ls = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        with pytest.raises(UndecidableQDistinctnessError):
            nondegeneracy_check(ls, spec)


class TestGaudin:
    def test_closed_form_vanishes_through_k(self):
        ls, spec = closed_form_lift()
        res = gaudin_residual(ls, spec)
        assert len(res) == 1
        val = res[0].valuation()
        assert val is None or val > Fraction(4)

    def test_truncated_lift_partial_vanishing(self):
        # the K = 1 lift is the K = 4 lift cut after t^1 (Newton's
        # coefficients do not depend on K; test_lifting checks that)
        ls, spec = closed_form_lift(K=1)
        res = gaudin_residual(ls, spec)[0]
        val = res.valuation()
        assert val is not None
        assert Fraction(1) <= val < Fraction(3)

    def test_exact_branch_residual_identically_zero(self):
        # (1+2t, 1-2t) solves the (z+1)^2 system exactly; its Gaudin
        # residual telescopes to zero at every computed order
        spec = qq_spec([(1, 2)], 1, 1, K=3)
        branches = lift_ramified(enumerate_infinite_solutions(spec)[0], spec)
        moving = [b for b in branches if b.point.x[0].coeff(1) != ZERO][0]
        res = gaudin_residual(moving, spec)[0]
        assert res.valuation() is None

    def test_mode_guard(self):
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3)
        ls = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        with pytest.raises(ValueError):
            gaudin_residual(ls, spec)

    def test_equal_roots_raise_nondegeneracy_error(self):
        # equal jets leave 1/(w_1 - w_2) undefined: the guard names both
        # roots before Series.reciprocal would fail
        spec = qq_spec([(1, 1), (2, 1), (3, 1)], 2, 1)
        w = Series(1, [Scalar(5), ONE, ZERO])
        ls = _lift_with_roots([w, w], top=2, n_ram=1)
        with pytest.raises(NondegeneracyError, match="roots 1 and 2 coincide"):
            gaudin_residual(ls, spec)

    def test_root_on_lambda_zero_raises_nondegeneracy_error(self):
        # w = -2 is the zero of the factor z + 2 of Lambda
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        ls = _lift_with_roots([Series.const(Scalar(-2), 2, 1)], top=2,
                              n_ram=1)
        with pytest.raises(NondegeneracyError,
                           match="root 1 collides with the Lambda zero -2"):
            gaudin_residual(ls, spec)

    def test_relabel_invariance(self):
        # two-root instance: residual multiset does not depend on ordering
        spec = qq_spec([(1, 1), (2, 1), (3, 1)], 2, 1, K=3)
        base = enumerate_infinite_solutions(spec)[0]
        ls = lift_newton(base, spec)
        vals = sorted(str(r.valuation()) for r in gaudin_residual(ls, spec))
        swapped = LiftedSolution(
            point=type(ls.point)((ls.point.x[1], ls.point.x[0]), ls.point.y),
            base=base, alpha=None,
            residual_valuation=ls.residual_valuation)
        vals2 = sorted(str(r.valuation())
                       for r in gaudin_residual(swapped, spec))
        assert vals == vals2


class TestXXZ:
    def test_constant_term_vanishes(self):
        # base x = q a: Lambda(w/q) = Lambda(-a) = 0 kills the t=0 term
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3)
        ls = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        res = xxz_residual(ls, spec)[0]
        assert res.coeff(0) == ZERO

    def test_order_k_lift_valuation(self):
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3, K=3)
        for base in enumerate_infinite_solutions(spec):
            ls = lift_newton(base, spec)
            res = xxz_residual(ls, spec)[0]
            val = res.valuation()
            assert val is None or val >= Fraction(spec.K)

    def test_two_point_form_matches_literal_quotient(self):
        # identity of rational functions in (w, t): dividing the cleared
        # two-point form C(w) = Q+(qw) Lambda(w/q) + t Q+(w/q) Lambda(w)
        # by t * Q+(w/q) * Lambda(w/q) yields the literal product form
        #   zeta^2 q^m prod_s (qw - w_s)/(w - q w_s)
        #     + q^{m+n} prod_p (w - q^{1-r_p} z_p)/(w - q z_p)
        # for Lambda given as q-strings (here two strings of length 1)
        import sympy as sp
        t, w = sp.symbols("t w")
        q = sp.Integer(3)
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3, K=3)
        ls = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        xjet = ls.point.x[0]
        x_expr = sum(sp.Rational(str(xjet.coeff(k).re)) * t ** k
                     for k in range(xjet.top + 1))
        w1 = -x_expr

        def lam_at(z):
            return (z + 1) * (z + 2)

        def qplus_at(z):
            return z + x_expr  # = z - w1

        zeta2 = 1 / t
        strings = [(-1, 1), (-2, 1)]  # (z_p, r_p): length-1 q-strings
        lit = zeta2 * q ** 1 * (q * w - w1) / (w - q * w1) \
            + q ** 2 * sp.prod((w - q ** (1 - r) * zp) / (w - q * zp)
                               for zp, r in strings)
        clearing = t * qplus_at(w / q) * lam_at(w / q)
        two_point = qplus_at(q * w) * lam_at(w / q) \
            + t * qplus_at(w / q) * lam_at(w)
        diff = sp.simplify(lit * clearing - two_point)
        assert diff == 0

    def test_mode_guard(self):
        ls, spec = closed_form_lift()
        with pytest.raises(ValueError):
            xxz_residual(ls, spec)


class TestReport:
    def test_gaudin_report(self):
        ls, spec = closed_form_lift()
        rep = bethe_report(ls, spec)
        assert rep.twist == TWIST_GAUDIN
        assert rep.residual_valuations is not None
        obj = rep.to_json()
        assert obj["flags"]["simple_zeros"] is True

    def test_xxz_report(self):
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3)
        ls = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        rep = bethe_report(ls, spec)
        assert rep.twist == TWIST_XXZ
        assert rep.flags["q_distinct"]
        assert rep.residual_valuations == (Fraction(4),)


# ---------------------------------------------------------------------------
# the one-pass flags against the three-pass reference

_PARTS = st.integers(-2, 2)
_COEFF = st.builds(Scalar, _PARTS, _PARTS)
_QS = [Scalar(2), Scalar(3), Scalar(Fraction(1, 2)), Scalar(-2),
       Scalar(1, 1), Scalar(Fraction(-1, 3))]
_UNIT_QS = [Scalar(Fraction(3, 5), Fraction(4, 5)), Scalar(0, 1), Scalar(-1)]


def _lift_with_roots(roots, top, n_ram):
    """A LiftedSolution whose Bethe roots -x_l are the given jets; with no
    roots, one constant y keeps the point nonempty."""
    x = tuple(-w for w in roots)
    y = () if roots else (Series.const(ONE, top, n_ram),)
    base = InfiniteSolution(x0=tuple(s.coeff(0) for s in x),
                            y0=tuple(s.coeff(0) for s in y), l=1,
                            tier="generic")
    return LiftedSolution(point=CandidatePoint(x, y), base=base, alpha=None,
                          residual_valuation=Fraction(0))


@st.composite
def _root_case(draw):
    """(roots, spec): jets in one window, drawn so that equal pairs,
    q^k-scaled pairs, root-Lambda collisions and zero jets all occur."""
    mode = draw(st.sampled_from(["qq", "QQ"]))
    q = draw(st.sampled_from(_QS)) if mode == "QQ" else None
    top, n_ram = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    shifts = draw(st.lists(st.builds(Scalar, st.integers(-3, 3),
                                     st.integers(-1, 1)),
                           min_size=1, max_size=3, unique_by=str))
    roots = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["random", "zero", "equal", "scaled", "lambda", "scaled_lambda"]))
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        if kind == "zero":
            w = Series.const(ZERO, top, n_ram)
        elif kind in ("equal", "scaled") and roots:
            w = draw(st.sampled_from(roots))
            if kind == "scaled":
                w = w * (q ** k if q is not None else Scalar(2))
        elif kind in ("lambda", "scaled_lambda"):
            w = Series.const(-draw(st.sampled_from(shifts)), top, n_ram)
            if kind == "scaled_lambda" and q is not None:
                w = w * q ** k
        else:
            w = Series(n_ram, draw(st.lists(_COEFF, min_size=top + 1,
                                            max_size=top + 1)))
        roots.append(w)
    lam = MasterData(tuple((a, 1) for a in shifts))
    spec = ProblemSpec(mode=mode, lam=lam, m=len(roots),
                       n=max(len(shifts) - len(roots), 0), q=q)
    return roots, spec


@settings(max_examples=400, deadline=None)
@given(_root_case())
def test_one_pass_flags_match_three_pass_reference(case):
    roots, spec = case
    top = roots[0].top if roots else 0
    n_ram = roots[0].n_ram if roots else 1
    ls = _lift_with_roots(roots, top, n_ram)
    assert (nondegeneracy_check(ls, spec)
            == bethe_reference.nondegeneracy_check(roots, spec))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.sampled_from(_UNIT_QS))
def test_unit_modulus_q_undecidable_for_any_m(m, q):
    roots = [Series(1, [Scalar(a + 1), Scalar(a)]) for a in range(m)]
    spec = ProblemSpec(mode="QQ", lam=master((1, 1), (2, 1)), m=m,
                       n=2 - min(m, 2), q=q)
    with pytest.raises(UndecidableQDistinctnessError):
        nondegeneracy_check(_lift_with_roots(roots, 1, 1), spec)
    with pytest.raises(UndecidableQDistinctnessError):
        bethe_reference.nondegeneracy_check(roots, spec)


# ---------------------------------------------------------------------------
# the collision exponent against the scan over every k in the bound

_COLLISION_QS = [Scalar(2), Scalar(3), Scalar(-2), Scalar(Fraction(1, 2)),
                 Scalar(Fraction(-1, 3)), Scalar(1, 1), Scalar(2, 1),
                 Scalar(Fraction(1, 3), Fraction(1, 3))]
_UNITS = [ONE, Scalar(-1), Scalar(0, 1), Scalar(0, -1)]
_NONZERO = _COEFF.filter(lambda c: not c.is_zero)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_COLLISION_QS), _NONZERO, st.integers(-9, 9),
       st.sampled_from(["power", "other", "exponents"]), st.data())
def test_collision_exponent_matches_scan(q, c, k, kind, data):
    """The one candidate, a multiplicity of q2's base in the ratio, gives
    what the scan of every k in +-bound gave: q2 above and below 1,
    exact powers with either sign of k (times a unit), ratios that are no
    power, and lowest terms at different exponents."""
    q2 = q.abs2()
    if kind == "power":
        d = c * q ** k * data.draw(st.sampled_from(_UNITS))
    else:
        d = data.draw(_NONZERO)
    tail = data.draw(_COEFF)
    e = 1 if kind == "exponents" else 0
    w = Series(1, [c, tail, ZERO])
    v = Series(1, [ZERO] * e + [d, tail] + [ZERO] * (1 - e))
    got = bethe._collision_exponent(w, v, q2)
    assert got == bethe_reference._collision_exponent(w, v, q2)
    if kind == "power":
        assert got == k


def _powers_within(q2, limit):
    """q2 whose powers past the limit fail rather than grow without end."""

    class Bounded(Fraction):
        def __pow__(self, k):
            assert abs(k) <= limit, k
            return Fraction(self) ** k

    return Bounded(q2)


@pytest.mark.parametrize("q", [1 + Fraction(1, 10 ** 9),
                               1 + Fraction(1, 10 ** 14),
                               1 + Fraction(1, 10 ** 18),
                               1 - Fraction(1, 2 ** 40),
                               Fraction(10 ** 6 + 1, 10 ** 6)])
@pytest.mark.parametrize("k", [None, -3, 1, 5])
def test_collision_exponent_q2_near_one(q, k):
    """q2 within 1e-6 to 1e-18 of 1, where a float log q2 reads 0.0 or is
    mostly rounding: no power past the ratio's bound is taken, a ratio
    that is no power (4) gives None and an exact power its k, as the scan
    does."""
    c = Scalar(3)
    d = c * 2 if k is None else c * Scalar(q) ** k
    ratio = d.abs2() / c.abs2()
    q2 = _powers_within(q * q, max(ratio.numerator.bit_length(),
                                   ratio.denominator.bit_length()))
    w, v = Series(1, [c, ZERO]), Series(1, [d, ONE])
    got = bethe._collision_exponent(w, v, q2)
    assert got == k
    assert got == bethe_reference._collision_exponent(w, v, q2)


# ---------------------------------------------------------------------------
# Bethe valuations read at the first window against WORK_GUARD alone


def _at_work_guard(ls, spec):
    residual = xxz_residual if spec.is_difference else gaudin_residual
    return tuple(r.valuation() for r in residual(ls, spec, bethe.WORK_GUARD))


def _assert_report_reads_work_guard(ls, spec):
    rep = bethe_report(ls, spec)
    if all(rep.flags.values()):
        assert rep.residual_valuations == _at_work_guard(ls, spec)
    else:
        assert rep.residual_valuations is None


_SHIFTS = st.builds(Scalar, st.integers(-4, 4), st.integers(-2, 2))


@st.composite
def _generic_specs(draw):
    """Both modes, 1 <= m + n <= 4, distinct simple nonzero shifts,
    1 <= K <= 4, q off the unit circle."""
    shifts = draw(st.lists(_SHIFTS.filter(lambda a: not a.is_zero),
                           min_size=1, max_size=4, unique=True))
    mode = draw(st.sampled_from(["qq", "QQ"]))
    m = draw(st.integers(0, len(shifts)))
    q = draw(st.sampled_from(_QS)) if mode == "QQ" else None
    return ProblemSpec(mode=mode,
                       lam=MasterData(tuple((a, 1) for a in shifts)),
                       m=m, n=len(shifts) - m, K=draw(st.integers(1, 4)), q=q)


@settings(max_examples=60, deadline=None)
@given(_generic_specs())
def test_report_valuations_are_those_at_work_guard_generic(spec):
    for base in enumerate_infinite_solutions(spec):
        _assert_report_reads_work_guard(lift_newton(base, spec), spec)


def _gaudin_every_ordered_pair(ls, spec, guard):
    """The Gaudin residuals with a reciprocal for each ordered root pair."""
    work_top = ls.order + guard * ls.n_ram
    roots = [(-s).widen(work_top) for s in ls.point.x]
    out = []
    for l, w in enumerate(roots):
        acc = Series.const(ZERO, work_top, ls.n_ram)
        for a, mult in spec.lam.shifts:
            acc = acc + (w + a).reciprocal() * Scalar(mult)
        for s, ws in enumerate(roots):
            if s != l:
                acc = acc - (w - ws).reciprocal() * Scalar(2)
        out.append(Series.const(ONE, work_top, ls.n_ram) + acc.shift(ls.n_ram))
    return out


@settings(max_examples=40, deadline=None)
@given(_generic_specs().filter(lambda spec: not spec.is_difference))
def test_gaudin_shared_pair_reciprocals(spec):
    # 1/(w_s - w_l) = -1/(w_l - w_s): the same residuals, windows included
    for base in enumerate_infinite_solutions(spec):
        ls = lift_newton(base, spec)
        for guard in (bethe.FIRST_GUARD, bethe.WORK_GUARD):
            assert [r.to_json() for r in gaudin_residual(ls, spec, guard)] \
                == [r.to_json()
                    for r in _gaudin_every_ordered_pair(ls, spec, guard)]


@pytest.mark.parametrize("shifts,m,n,K", [
    ([(1, 2)], 1, 1, 4), ([(1, 2), (5, 1)], 2, 1, 3),
    ([(1, 3)], 2, 1, 1), ([(1, 3)], 2, 1, 2)])
def test_report_valuations_are_those_at_work_guard_ramified(shifts, m, n, K):
    # the solved rungs of the ramified ladder, (z+a)^2, (z+a)^2 (z+b) and
    # (z+a)^3, at a = 1, b = 5
    spec = qq_spec(shifts, m, n, K=K)
    for base in enumerate_infinite_solutions(spec):
        for ls in lift_ramified(base, spec):
            _assert_report_reads_work_guard(ls, spec)


def test_exact_branch_is_read_once_at_work_guard(monkeypatch):
    # x = 1 + 2t solves the (z+1)^2 system exactly: its certificate is the
    # window bound, and its residuals are read once, at WORK_GUARD
    spec = qq_spec([(1, 2)], 1, 1, K=4)
    branches = lift_ramified(enumerate_infinite_solutions(spec)[0], spec)
    moving = [b for b in branches if b.point.x[0].coeff(1) != ZERO][0]
    assert moving.residual_valuation == Fraction(7)
    guards = []
    monkeypatch.setattr(bethe, "gaudin_residual", lambda ls, sp, guard: (
        guards.append(guard) or gaudin_residual(ls, sp, guard)))
    vals = bethe_report(moving, spec).residual_valuations
    assert guards == [bethe.WORK_GUARD]
    assert vals == _at_work_guard(moving, spec) == (None,)


@pytest.mark.parametrize("mode", ["qq", "QQ"])
def test_residual_zero_through_first_window_is_read_again(monkeypatch,
                                                          mode):
    # with no first guard the residual of an order-K lift is zero through
    # its window, and only the second reading finds its valuation
    monkeypatch.setattr(bethe, "FIRST_GUARD", 0)
    if mode == "qq":
        ls, spec = closed_form_lift()
    else:
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3)
        ls = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
    residual = xxz_residual if spec.is_difference else gaudin_residual
    assert all(r.is_zero for r in residual(ls, spec, 0))
    vals = bethe_report(ls, spec).residual_valuations
    assert vals == _at_work_guard(ls, spec)
    assert None not in vals
