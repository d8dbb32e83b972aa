import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lift_reference
from qqsystems.scalar import Scalar, ZERO, ONE
from qqsystems.series import Series
from qqsystems.systems import (MasterData, ProblemSpec, CandidatePoint,
                               evaluate_residual)
from qqsystems.infinite import enumerate_infinite_solutions
from qqsystems import lifting
from qqsystems.lifting import (lift_newton, lift_ramified,
                               certify_residual_point, SingularJacobianError,
                               LiftedSolution, UndecidedConstraintsError,
                               _constraint_solutions)


def master(*shifts):
    return MasterData(tuple((Scalar(a), m) for a, m in shifts))


def qq_spec(shifts, m, n, K=3, n_max=None):
    return ProblemSpec(mode="qq", lam=master(*shifts), m=m, n=n, K=K,
                       n_max=n_max)


def QQ_spec(shifts, m, n, q, K=3):
    return ProblemSpec(mode="QQ", lam=master(*shifts), m=m, n=n,
                       q=Scalar(q), K=K)


def t_coeffs(series):
    return [str(series.coeff(k)) for k in range(series.top + 1)]


class TestNewton:
    def test_closed_form_quadratic(self):
        # oracle: x^2 - (3+2t)x + 3t + 2 = 0 branch through x(0) = 1
        spec = qq_spec([(1, 1), (2, 1)], 1, 1, K=4)
        base = enumerate_infinite_solutions(spec)[0]
        ls = lift_newton(base, spec)
        assert t_coeffs(ls.point.x[0]) == ["1", "1", "-1", "0", "1"]
        assert t_coeffs(ls.point.y[0]) == ["2", "-1", "1", "0", "-1"]
        assert ls.certified()

    def test_sibling_base_other_root(self):
        # the other split lifts to the second root of the same quadratic;
        # the two x-roots sum to 3 + 2t
        spec = qq_spec([(1, 1), (2, 1)], 1, 1, K=4)
        base = enumerate_infinite_solutions(spec)[1]
        ls = lift_newton(base, spec)
        assert t_coeffs(ls.point.x[0]) == ["2", "1", "1", "0", "-1"]
        assert t_coeffs(ls.point.y[0]) == ["1", "-1", "-1", "0", "1"]

    def test_singular_jacobian_rejected(self):
        spec = qq_spec([(1, 2)], 1, 1)
        base = enumerate_infinite_solutions(spec)[0]
        with pytest.raises(SingularJacobianError):
            lift_newton(base, spec)

    def test_singular_jacobian_rejected_difference(self):
        # QQ (z+1)^2, q = 3: x0 = 3 and y0 = 1 differ, but x0/q = y0 is
        # the repeated shift of Lambda
        spec = QQ_spec([(1, 2)], 1, 1, 3)
        base = enumerate_infinite_solutions(spec)[0]
        assert (base.x0, base.y0) == ((Scalar(3),), (Scalar(1),))
        with pytest.raises(SingularJacobianError):
            lift_newton(base, spec)

    def test_non_solution_rejected(self):
        # the order-0 residual is the base check: y0 moved off its root
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        base = enumerate_infinite_solutions(spec)[0]
        with pytest.raises(ValueError, match="not a solution"):
            lift_newton(replace(base, y0=(Scalar(3),)), spec)

    def test_difference_generic(self):
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3, K=4)
        base = enumerate_infinite_solutions(spec)[0]
        ls = lift_newton(base, spec)
        assert t_coeffs(ls.point.x[0]) == \
            ["3", "-2", "22/3", "-322/9", "5462/27"]
        assert ls.certified()
        # alpha = 1/(q^m - t q^n) = 1/(3 - 3t) = (1/3)(1 + t + t^2 + ...)
        assert t_coeffs(ls.alpha) == ["1/3"] * 5

    def test_all_generic_bases_certify(self):
        spec = qq_spec([(1, 1), (2, 1), (3, 1)], 2, 1, K=3)
        for base in enumerate_infinite_solutions(spec):
            ls = lift_newton(base, spec)
            assert ls.residual_valuation >= Fraction(spec.K + 1)


# Gaussian shifts with small rational parts; q off the unit circle
SHIFTS = st.builds(lambda a, b, im: Scalar(Fraction(a, b), im),
                   st.integers(-3, 3), st.integers(1, 3), st.integers(-2, 2))
QS = [Scalar(2), Scalar(3), Scalar(Fraction(1, 2)), Scalar(1, 1),
      Scalar(Fraction(-2, 3), 1)]


@st.composite
def generic_specs(draw, max_dim=3, max_k=3):
    """Both modes, 1 <= m + n <= max_dim, distinct simple shifts,
    1 <= K <= max_k."""
    mode = draw(st.sampled_from(["qq", "QQ"]))
    shifts = draw(st.lists(SHIFTS, min_size=1, max_size=max_dim, unique=True))
    m = draw(st.integers(0, len(shifts)))
    return ProblemSpec(
        mode=mode, lam=MasterData(tuple((a, 1) for a in shifts)), m=m,
        n=len(shifts) - m, K=draw(st.integers(1, max_k)),
        q=draw(st.sampled_from(QS)) if mode == "QQ" else None)


@settings(max_examples=60, deadline=None)
@given(generic_specs())
def test_generic_lifts_certify_and_keep_invariants(spec):
    """Every lift certifies to order K + 1, and through order K
    qq: sum x + sum y = d_1 + (m - n) t;
    QQ: (1 - t) prod x prod y = Lambda(0) (q^m - t q^n)."""
    K = spec.K
    t = Series(1, [ZERO, ONE] + [ZERO] * (K - 1))
    for base in enumerate_infinite_solutions(spec):
        ls = lift_newton(base, spec)
        assert ls.residual_valuation >= K + 1
        xy = ls.point.x + ls.point.y
        if spec.is_difference:
            prod = Series.const(ONE, K)
            for s in xy:
                prod = prod * s
            lhs = (1 - t) * prod
            rhs = (spec.q ** spec.m - t * spec.q ** spec.n) * spec.lam.coeffs[0]
        else:
            lhs = sum(xy, Series.const(ZERO, K))
            rhs = spec.lam.coeffs[-2] + t * (spec.m - spec.n)  # d_1 + ...
        assert lhs.same_through(rhs, K)


@settings(max_examples=40, deadline=None)
@given(generic_specs(max_dim=4, max_k=4))
def test_newton_coefficients_do_not_depend_on_K(spec):
    """The lift at K = k is the first k + 1 coefficients of every jet of
    the lift at K = k + 2, with the certificate of that prefix: so a lower
    order lift is the higher order one cut short."""
    k = spec.K
    for base in enumerate_infinite_solutions(spec):
        ls = lift_newton(base, spec)
        longer = lift_newton(base, replace(spec, K=k + 2)).point
        prefix = [Series(1, s.coeffs[:k + 1]) for s in longer.x + longer.y]
        point = CandidatePoint(tuple(prefix[:spec.m]), tuple(prefix[spec.m:]))
        assert [s.to_json() for s in ls.point.x + ls.point.y] == \
            [s.to_json() for s in prefix]
        assert ls.residual_valuation == certify_residual_point(point, spec)


@settings(max_examples=40, deadline=None)
@given(generic_specs(max_dim=4, max_k=6))
def test_newton_matches_whole_residual_reference(spec):
    """The online lift equals the loop that evaluates the whole Series
    residual at every order."""
    for base in enumerate_infinite_solutions(spec):
        assert lift_newton(base, spec).to_json() == \
            lift_reference.lift_newton(base, spec).to_json()


def test_certificate_is_independent_of_online_residual(tmp_path, capsys,
                                                       monkeypatch):
    # one wrong coefficient in every online product: the lift follows it,
    # and the certificate, read from Series residuals, rejects every lift
    from qqsystems import cli, series
    convolution = series._convolution
    monkeypatch.setattr(series, "_convolution", lambda a, b, k: (
        convolution(a, b, k) + (ONE if k == 2 else ZERO)))
    spec_obj = {"mode": "qq", "lambda": {"shifts": [["1", 1], ["2", 1]]},
                "m": 1, "n": 1, "K": 4}
    spec = ProblemSpec.from_json(spec_obj)
    for base in enumerate_infinite_solutions(spec):
        ls = lift_newton(base, spec)
        assert ls.residual_valuation == 2
        assert not ls.certified()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_obj))
    assert cli.main(["solve", str(path)]) == cli.EXIT_CERTIFICATE
    report = json.loads(capsys.readouterr().out)
    assert not any(lift["certified"] for entry in report["bases"]
                   for lift in entry["lifts"])


class TestCertificate:
    def test_exact_polynomial_solution_certifies_everywhere(self):
        # (1, 1) solves the (z+1)^2 system identically
        spec = qq_spec([(1, 2)], 1, 1, K=4)
        p = CandidatePoint((Series.const(Scalar(1), 4),),
                           (Series.const(Scalar(1), 4),))
        val = certify_residual_point(p, spec)
        assert val > Fraction(spec.K + 1)

    def test_truncation_lowers_but_preserves_certificate(self):
        # the K = 1 lift is the K = 4 lift cut after t^1
        # (test_newton_coefficients_do_not_depend_on_K)
        spec = qq_spec([(1, 1), (2, 1)], 1, 1, K=1)
        ls1 = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        assert ls1.order == 1
        # truncated jet x = 1 + t: residual picks up at order 2
        assert ls1.residual_valuation == Fraction(2)
        assert ls1.certified()

    def test_base_only_jet(self):
        # order-0 jet of a generic base: residual valuation exactly 1
        spec = qq_spec([(1, 1), (2, 1)], 1, 1, K=0)
        ls0 = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        assert ls0.residual_valuation == Fraction(1)


# ---------------------------------------------------------------------------
# the two-window certificate against one reading at CERTIFY_GUARD


def _certify_once(point, spec):
    """The certificate as one reading of the residual at top + CERTIFY_GUARD
    * N: the least nonzero valuation, or the window bound."""
    n_ram = point.n_ram
    eval_top = point.top + lifting.CERTIFY_GUARD * n_ram
    vals = [comp.valuation()
            for comp in evaluate_residual(point.widen(eval_top), spec)]
    return min((v for v in vals if v is not None),
               default=Fraction(eval_top + 1, n_ram))


def _window_bound(point):
    return Fraction(point.top + lifting.CERTIFY_GUARD * point.n_ram + 1,
                    point.n_ram)


def _cut(point, top):
    """The point's jets cut after s^top."""
    def jet(s):
        return Series(s.n_ram, s.coeffs[:top - s.offset + 1], s.offset)
    return CandidatePoint(tuple(map(jet, point.x)), tuple(map(jet, point.y)))


@settings(max_examples=40, deadline=None)
@given(generic_specs(max_dim=4, max_k=4))
def test_certificate_equals_one_reading_generic(spec):
    # every prefix of each lift: the cut after s^0 leaves the residual
    # nonzero at t^1, inside the first window
    for base in enumerate_infinite_solutions(spec):
        point = lift_newton(base, spec).point
        for top in range(point.top + 1):
            cut = _cut(point, top)
            assert certify_residual_point(cut, spec) == \
                _certify_once(cut, spec)


@pytest.mark.parametrize("shifts,m,n,K", [
    ([(1, 2)], 1, 1, 4), ([(1, 2), (5, 1)], 2, 1, 3),
    ([(1, 3)], 2, 1, 1), ([(1, 3)], 2, 1, 2)])
def test_certificate_equals_one_reading_ramified(shifts, m, n, K):
    # every lift of the solved ramified ladder rungs, (z+a)^2, (z+a)^2 (z+b)
    # and (z+a)^3 at a = 1, b = 5, and every prefix of it
    spec = qq_spec(shifts, m, n, K=K)
    exact = 0
    for base in enumerate_infinite_solutions(spec):
        for ls in lift_ramified(base, spec):
            for top in range(ls.order + 1):
                cut = _cut(ls.point, top)
                val = certify_residual_point(cut, spec)
                assert val == _certify_once(cut, spec)
                exact += val == _window_bound(cut)
    # the (z+1)^2 branches (1, 1) and (1 + 2t, 1 - 2t) are exact, so the
    # residual is zero through both windows and the second is read
    assert exact or shifts != [(1, 2)]


def test_exact_branch_reads_the_second_window(monkeypatch):
    # x = 1 + 2t solves the (z+1)^2 system exactly: two readings, and the
    # bound of the second window
    spec = qq_spec([(1, 2)], 1, 1, K=4)
    point = CandidatePoint((Series(1, [ONE, Scalar(2)] + [ZERO] * 3),),
                           (Series(1, [ONE, Scalar(-2)] + [ZERO] * 3),))
    calls = []
    monkeypatch.setattr(lifting, "evaluate_residual",
                        lambda p, s: calls.append(p.top) or
                        evaluate_residual(p, s))
    assert certify_residual_point(point, spec) == Fraction(7) == \
        _window_bound(point)
    assert calls == [5, 6]


class TestRamified:
    def test_double_root_branches(self):
        # oracle (hand elimination): x + y = 2, xy + t(x - y) = 1 has the
        # exact polynomial solutions (1, 1) and (1 + 2t, 1 - 2t)
        spec = qq_spec([(1, 2)], 1, 1, K=4)
        base = enumerate_infinite_solutions(spec)[0]
        branches = lift_ramified(base, spec)
        assert len(branches) == 2
        keys = sorted(tuple(t_coeffs(b.point.x[0])) for b in branches)
        assert keys[0] == ("1", "0", "0", "0", "0")
        assert keys[1] == ("1", "2", "0", "0", "0")
        for b in branches:
            assert b.n_ram == 1
            # exact solutions: residual zero through the whole window
            assert b.residual_valuation > Fraction(spec.K + 1)

    def test_triple_instance_branches(self):
        # Lambda = (z+1)^2 (z+2), base x = (1,1), y = (2): complex pair
        spec = qq_spec([(1, 2), (2, 1)], 2, 1, K=3)
        base = [s for s in enumerate_infinite_solutions(spec)
                if [str(v) for v in s.x0] == ["1", "1"]][0]
        branches = lift_ramified(base, spec)
        assert len(branches) >= 1
        for b in branches:
            assert b.certified()
        # leading corrections are the conjugate pair 1 +- i
        leads = sorted(str(b.point.x[0].coeff(1)) for b in branches)
        assert any("i" in lead for lead in leads)

    def test_residual_expanded_once_per_base(self, monkeypatch):
        # the search reads J0 and every N and order from one expansion at
        # the base; the residual builder only ever sees Series or SparsePoly
        import sympy
        from qqsystems import systems
        residual_components = systems.residual_components
        expansions, rings = [], set()

        def expand(spec, at):
            expansions.append(at)
            return systems.expanded_residual(spec, at)

        def components(xs, ys, *args):
            values = list(xs) + list(ys)
            assert not any(isinstance(v, sympy.Basic) for v in values)
            rings.update(type(v).__name__ for v in values)
            return residual_components(xs, ys, *args)

        monkeypatch.setattr(lifting, "expanded_residual", expand)
        monkeypatch.setattr(systems, "residual_components", components)
        spec = qq_spec([(1, 2), (2, 1)], 2, 1, K=2)
        base = [s for s in enumerate_infinite_solutions(spec)
                if [str(v) for v in s.x0] == ["1", "1"]][0]
        assert lift_ramified(base, spec)
        assert expansions == [base.x0 + base.y0]
        assert rings == {"Series", "SparsePoly"}

    def test_generic_base_gives_the_newton_lift(self):
        # the search itself finds the one branch at N = 1, Newton's
        spec = qq_spec([(1, 1), (2, 1)], 1, 1, K=4)
        base = enumerate_infinite_solutions(spec)[0]
        branches = lift_ramified(base, spec)
        assert len(branches) == 1
        assert t_coeffs(branches[0].point.x[0]) == ["1", "1", "-1", "0", "1"]
        assert branches[0].to_json() == lift_newton(base, spec).to_json()

    def test_difference_degenerate_outside_field(self):
        # q-collision base x0 = 3, y0 = 1 over (z+1)^2, q = 3: solving
        # x^2 (1-3t) - (6-6t) x + 9 - 3t = 0 needs sqrt(48t), so both
        # branches have sqrt(3)-coefficients outside Q(i) and the search
        # must fail loudly rather than return a wrong series
        from qqsystems.lifting import RamificationBoundExceededError
        spec = QQ_spec([(1, 2)], 1, 1, 3, K=2)
        base = enumerate_infinite_solutions(spec)[0]
        with pytest.raises(RamificationBoundExceededError) as e:
            lift_ramified(base, spec)
        assert "outside the Gaussian rationals" in str(e.value)


class TestConstraintSolutions:
    @pytest.mark.parametrize("exc", [AssertionError, NotImplementedError])
    def test_empty_system_closed_without_solve(self, monkeypatch, exc):
        # p*q = 1 and p = 0 have no common zero: the basis is [1], so
        # sympy.solve is never asked, and a solve that would give up
        # does not make the empty system undecided
        import sympy
        p, q = sympy.symbols("p q")

        def refuse(*args, **kwargs):
            raise exc("sympy.solve reached")

        monkeypatch.setattr(sympy, "solve", refuse)
        assert _constraint_solutions([p * q - 1, p], {}) == []
        if exc is NotImplementedError:
            with pytest.raises(UndecidedConstraintsError):
                _constraint_solutions([p * q - 1], {})

    def test_each_system_solved_once_per_base(self, monkeypatch):
        import sympy
        spec = qq_spec([(1, 3)], 2, 1, K=1)
        base = enumerate_infinite_solutions(spec)[0]
        plain = [b.to_json() for b in lift_ramified(base, spec)]
        inputs = []
        solve = sympy.solve

        def recording(*args, **kwargs):
            inputs.append(sympy.srepr(args) + repr(sorted(kwargs.items())))
            return solve(*args, **kwargs)

        monkeypatch.setattr(sympy, "solve", recording)
        assert [b.to_json() for b in lift_ramified(base, spec)] == plain
        assert inputs
        assert len(set(inputs)) == len(inputs)

    @pytest.mark.parametrize("shifts,K", [([(1, 3)], 1),
                                          ([(1, 2), (7, 1)], 3)])
    def test_unit_basis_exactly_when_solve_finds_nothing(self, monkeypatch,
                                                         shifts, K):
        # an independent check of the emptiness shortcut on every system
        # the search meets: sympy.solve on the system itself agrees
        import sympy
        spec = qq_spec(shifts, 2, 1, K=K)
        systems = set()
        inner = lifting._constraint_solutions

        def recording(constraints, solved):
            live = tuple(c for c in map(sympy.expand, constraints) if c != 0)
            if any(c.free_symbols for c in live):
                systems.add(live)
            return inner(constraints, solved)

        monkeypatch.setattr(lifting, "_constraint_solutions", recording)
        for base in enumerate_infinite_solutions(spec):
            lift_ramified(base, spec)
        assert systems
        for live in systems:
            involved = sorted(set().union(*(c.free_symbols for c in live)),
                              key=lambda p: p.name)
            basis = sympy.groebner(live, *involved, order="grevlex",
                                   extension=True)
            sols = sympy.solve(list(live), involved, dict=True)
            assert (basis.exprs == [1]) == (sols == []), live


class TestNumericOracle:
    def test_generic_lift_agreement(self):
        from qqsystems.numeric import numeric_check
        spec = qq_spec([(1, 1), (2, 1)], 1, 1, K=4)
        ls = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        nc = numeric_check(ls, spec)
        assert nc.passed
        for err, tol in zip(nc.mismatches, nc.tolerances):
            assert err <= tol

    @pytest.mark.parametrize("shifts,m,n", [((1, 2), 0, 2), ((1, 2), 2, 0),
                                            ((1, 2, 3), 0, 3),
                                            ((1, 2, 3), 3, 0)])
    def test_one_sided_split_agreement(self, shifts, m, n):
        # with m = 0 or n = 0 one factor of the Wronskian is a constant
        from qqsystems.numeric import numeric_check
        spec = qq_spec([(a, 1) for a in shifts], m, n, K=3)
        ls = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        nc = numeric_check(ls, spec)
        assert nc.passed
        for err, tol in zip(nc.mismatches, nc.tolerances):
            assert err <= tol

    def test_difference_lift_agreement(self):
        # on (z+1)(z+2) the order-4 coefficients (about 200 and 310) exceed
        # the oracle's 10 t^(K+1) allowance; the x0 = 3 jet here has small
        # ones (3, 2/3, -14/81, -254/2187)
        from qqsystems.numeric import numeric_check
        spec = QQ_spec([(1, 1), (4, 1)], 1, 1, 3, K=3)
        ls = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        assert numeric_check(ls, spec).passed
        x = ls.point.x[0]
        bumped = Series(1, (x.coeffs[0], x.coeffs[1] + 1) + x.coeffs[2:])
        wrong = replace(ls, point=CandidatePoint((bumped,), ls.point.y))
        assert not numeric_check(wrong, spec).passed

    def test_difference_lift_large_coefficients(self):
        # on (z+1)(z+2) the order-4 coefficients (about 200 and 310) put
        # the mismatch at t = 1e-2 above 10 t^(K+1); inside the jet's disc
        # the tail bound 20 (rho t)^(K+1) allows it, on both bases
        from qqsystems.numeric import numeric_check
        spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3, K=3)
        for base in enumerate_infinite_solutions(spec):
            ls = lift_newton(base, spec)
            nc = numeric_check(ls, spec)
            assert nc.passed, (nc.mismatches, nc.tolerances)
            assert nc.mismatches[0] > 10 * nc.samples[0] ** 4
            x = ls.point.x[0]
            bumped = Series(1, (x.coeffs[0], x.coeffs[1] + 1) + x.coeffs[2:])
            wrong = replace(ls, point=CandidatePoint((bumped,), ls.point.y))
            assert not numeric_check(wrong, spec).passed

    def test_branch_agreement(self):
        from qqsystems.numeric import numeric_check
        spec = qq_spec([(1, 2)], 1, 1, K=4)
        for b in lift_ramified(enumerate_infinite_solutions(spec)[0], spec):
            nc = numeric_check(b, spec)
            assert nc.passed

    def test_decay_exponent_of_truncation(self):
        # truncating at order 1 leaves an O(t^2) gap: slope close to 2
        from qqsystems.numeric import numeric_check
        spec = qq_spec([(1, 1), (2, 1)], 1, 1, K=1)
        ls1 = lift_newton(enumerate_infinite_solutions(spec)[0], spec)
        nc = numeric_check(ls1, spec, samples=(1e-2, 1e-3, 1e-4))
        assert nc.decay_exponent is not None
        assert abs(nc.decay_exponent - 2.0) < 0.25
