"""Acceptance suite: the nine headline checks, one pass/fail line each.

Each test prints exactly one line "ACCEPTANCE <n> <PASS|FAIL> - <title>"
(visible with pytest -s or in captured output on failure).  Tolerances
are exact unless a numeric fit is explicitly involved.
"""

import math
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import conftest
from qqsystems.scalar import Scalar, ZERO, ONE
from qqsystems.series import Series
from qqsystems.systems import MasterData, ProblemSpec
from qqsystems.infinite import enumerate_infinite_solutions
from qqsystems.lifting import lift_newton, lift_ramified
from qqsystems.numeric import numeric_check, residual_function, damped_newton
from qqsystems.tropical import prevariety, exclusion_witness, TropicalPoint
from qqsystems.bethe import gaudin_residual, xxz_residual, bethe_report


def master(*shifts):
    return MasterData(tuple((Scalar(a), m) for a, m in shifts))


def qq_spec(shifts, m, n, K=3):
    return ProblemSpec(mode="qq", lam=master(*shifts), m=m, n=n, K=K)


def QQ_spec(shifts, m, n, q, K=3):
    return ProblemSpec(mode="QQ", lam=master(*shifts), m=m, n=n,
                       q=Scalar(q), K=K)


class _Verdict:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        line = f"ACCEPTANCE {self.number} {verdict} - {self.title}"
        print(line)
        conftest.acceptance_lines.append(line)
        return False


# shared instances -----------------------------------------------------------

# criterion 3/5/7/8 matrix: distinct rational shifts (small primes), K = 3
CRITERION3_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3)]
PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.fixture(scope="module")
def criterion1_lift():
    spec = qq_spec([(1, 1), (2, 1)], 1, 1, K=4)
    bases = enumerate_infinite_solutions(spec)
    return spec, [lift_newton(b, spec) for b in bases]


@pytest.fixture(scope="module")
def criterion2_branches():
    spec = qq_spec([(1, 2)], 1, 1, K=4)
    base = enumerate_infinite_solutions(spec)[0]
    return spec, lift_ramified(base, spec)


@pytest.fixture(scope="module")
def criterion3_lifts():
    out = []
    for m, n in CRITERION3_SHAPES:
        shifts = [(p, 1) for p in PRIMES[:m + n]]
        spec = qq_spec(shifts, m, n, K=3)
        bases = enumerate_infinite_solutions(spec)
        lifts = [lift_newton(b, spec) for b in bases]
        out.append((spec, bases, lifts))
    return out


@pytest.fixture(scope="module")
def criterion6_lifts():
    spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3, K=3)
    bases = enumerate_infinite_solutions(spec)
    return spec, [lift_newton(b, spec) for b in bases]


def t_coeffs(series):
    return [str(series.coeff(k)) for k in range(series.top + 1)]


# criteria -------------------------------------------------------------------


def test_criterion_1_closed_form(criterion1_lift):
    with _Verdict(1, "closed-form lift reproduction (qq, (z+1)(z+2), K=4)"):
        spec, lifts = criterion1_lift
        ls = lifts[0]
        assert t_coeffs(ls.point.x[0]) == ["1", "1", "-1", "0", "1"]
        # y1 = 3 - x1 coefficientwise
        x, y = ls.point.x[0], ls.point.y[0]
        assert (x + y).coeff(0) == Scalar(3)
        for k in range(1, 5):
            assert (x + y).coeff(k) == ZERO
        # oracle: the quadratic x^2 - (3+2t)x + 3t + 2 vanishes on the jet
        t = Series(1, [ZERO, ONE, ZERO, ZERO, ZERO])
        three_2t = Series.const(Scalar(3), 4) + t * Scalar(2)
        quad = x.widen(8) * x.widen(8) - (three_2t * x).widen(8) \
            + (t * Scalar(3) + Scalar(2)).widen(8)
        for k in range(5):
            assert quad.coeff(k) == ZERO


def test_criterion_2_degenerate_branches(criterion2_branches):
    with _Verdict(2, "degenerate branch set (qq, (z+1)^2): (1,1), (1+2t,1-2t)"):
        spec, branches = criterion2_branches
        assert len(branches) == 2
        got = sorted((tuple(t_coeffs(b.point.x[0])),
                      tuple(t_coeffs(b.point.y[0]))) for b in branches)
        assert got[0] == (("1", "0", "0", "0", "0"), ("1", "0", "0", "0", "0"))
        assert got[1] == (("1", "2", "0", "0", "0"), ("1", "-2", "0", "0", "0"))
        # residual identically zero at every computed order
        for b in branches:
            assert b.residual_valuation > Fraction(b.order + 1)


def test_criterion_3_count_rank_certificates(criterion3_lifts):
    with _Verdict(3, "solution count, Jacobian rank, residual certificates"):
        from qqsystems.linalg import rref
        from qqsystems.systems import expanded_residual, jacobian_at_zero
        for spec, bases, lifts in criterion3_lifts:
            dim = spec.m + spec.n
            assert len(bases) == comb(dim, spec.m)
            for base in bases:
                expansion = expanded_residual(spec, base.x0 + base.y0)
                _, pivots = rref(jacobian_at_zero(expansion))
                assert len(pivots) == dim
            for ls in lifts:
                assert ls.residual_valuation >= Fraction(spec.K + 1)


def test_criterion_4_tropical_theorems():
    with _Verdict(4, "tropical prevariety = {0} on the (m,n) x mode matrix"):
        for m, n, cells in [(1, 1, 3), (2, 1, 36), (1, 2, 36), (2, 2, 2100)]:
            shifts = [(k, 1) for k in range(1, m + n + 1)]
            for mode, spec in (("qq", qq_spec(shifts, m, n)),
                               ("QQ", QQ_spec(shifts, m, n, 3))):
                res = prevariety(spec)
                assert res.is_origin_only, f"{mode} ({m},{n})"
                assert res.cell_count == cells, f"{mode} ({m},{n})"
                assert res.points_bounded is True, f"{mode} ({m},{n})"
                assert res.witness is None, f"{mode} ({m},{n})"


def test_criterion_5_gaudin(criterion1_lift, criterion3_lifts):
    with _Verdict(5, "Gaudin Bethe residual valuations"):
        # every certified criterion-3 lift: cleared residual val >= K - 1
        for spec, _, lifts in criterion3_lifts:
            for ls in lifts:
                for r in gaudin_residual(ls, spec):
                    val = r.valuation()
                    assert val is None or val >= Fraction(spec.K - 1)
        # criterion 1's lift: vanishes through order t^4
        spec, lifts = criterion1_lift
        for r in gaudin_residual(lifts[0], spec):
            val = r.valuation()
            assert val is None or val > Fraction(4)


def test_criterion_6_xxz(criterion6_lifts):
    with _Verdict(6, "XXZ Bethe residual, alpha series, numeric decay fit"):
        spec, lifts = criterion6_lifts
        qm = Scalar(3)  # q^m = 3
        qn = Scalar(3)
        for ls in lifts:
            residuals = xxz_residual(ls, spec)
            exact_vals = []
            for r in residuals:
                val = r.valuation()
                assert val is not None and val >= Fraction(spec.K)
                exact_vals.append(val)
            # alpha = 1/(q^m - t q^n) coefficientwise: alpha * (q^m - t q^n) = 1
            denom = Series.const(qm, ls.order, ls.n_ram) \
                - Series.const(qn, ls.order, ls.n_ram).shift(ls.n_ram)
            prod = ls.alpha * denom
            assert prod.coeff(0) == ONE
            for k in range(1, prod.top + 1):
                assert prod.coeff(k) == ZERO
            # numeric cross-check: evaluate the cleared residual at small t
            # and fit the decay exponent; it must match the exact valuation
            # (the residual of an order-K lift vanishes to order exactly
            # K + 1 here, which is consistent with the >= K bound)
            samples = (1e-2, 1e-3)
            for r, exact in zip(residuals, exact_vals):
                errs = [abs(r.eval_at(t0)) for t0 in samples]
                assert all(e > 0 for e in errs)
                slope = (math.log(errs[0]) - math.log(errs[1])) / \
                    (math.log(samples[0]) - math.log(samples[1]))
                assert abs(slope - float(exact)) < 0.25
                assert slope > spec.K - 0.25


def test_criterion_7_exact_invariants(criterion3_lifts, criterion6_lifts):
    with _Verdict(7, "exact invariants: e1 sum rule (qq), product rule (QQ)"):
        # qq: e_1(x, y) = d_1 - (n - m) t coefficientwise
        for spec, _, lifts in criterion3_lifts:
            d1 = spec.lam.coeffs[-2]  # the coefficient of z^(m+n-1)
            p0 = Scalar(spec.n - spec.m)
            for ls in lifts:
                e1 = ls.point.x[0] - ls.point.x[0]  # zero series, same window
                for s in ls.point.x + ls.point.y:
                    e1 = e1 + s
                assert e1.coeff(0) == d1
                assert e1.coeff(1) == -p0
                for k in range(2, e1.top + 1):
                    assert e1.coeff(k) == ZERO
        # QQ: prod x * prod y = d_{m+n} (q^m - t q^n) / (1 - t)
        spec, lifts = criterion6_lifts
        q = spec.q
        dk = spec.lam.coeffs[0]  # Lambda(0)
        for ls in lifts:
            top, n_ram = ls.order, ls.n_ram
            prod = Series.const(ONE, top, n_ram)
            for s in ls.point.x + ls.point.y:
                prod = prod * s
            one = Series.const(ONE, top, n_ram)
            lhs = prod * (one - one.shift(n_ram))
            rhs = (Series.const(q ** spec.m, top, n_ram)
                   - Series.const(q ** spec.n, top, n_ram).shift(n_ram)) * dk
            for k in range(lhs.top + 1):
                assert lhs.coeff(k) == rhs.coeff(k)


def test_criterion_8_oracle_equivalence(criterion1_lift, criterion2_branches,
                                        criterion3_lifts):
    with _Verdict(8, "numeric oracle agreement at t in {1e-2, 1e-3}"):
        jobs = []
        spec1, lifts1 = criterion1_lift
        jobs += [(spec1, ls) for ls in lifts1]
        spec2, branches2 = criterion2_branches
        jobs += [(spec2, b) for b in branches2]
        for spec, _, lifts in criterion3_lifts:
            jobs += [(spec, ls) for ls in lifts]
        for spec, ls in jobs:
            nc = numeric_check(ls, spec, samples=(1e-2, 1e-3))
            assert nc.passed, (spec.m, spec.n, nc.mismatches, nc.tolerances)


def test_criterion_9_tropical_soundness(criterion1_lift, criterion6_lifts):
    with _Verdict(9, "lift valuations are 0 and lie in the prevariety"):
        for spec, lifts in (criterion1_lift, criterion6_lifts):
            assert prevariety(spec).is_origin_only
            for ls in lifts:
                vals = [s.valuation() for s in ls.point.x + ls.point.y]
                assert all(v == 0 for v in vals)
                w = TropicalPoint(tuple(Fraction(v) for v in vals))
                assert exclusion_witness(spec, w) is None
