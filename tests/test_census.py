"""The exact census (census_reference) against the bases and the solver.

At t = 0 the census's eliminant F(v, 0) must vanish at each base's value
of the smaller side to the base's multiplicity prod_k C(mu_k, c_k), where
the base puts c_k of the mu_k copies of Lambda's shift a_k on the x side,
and have no other root; so the multiplicities add up to C(m + n, m).
The solver's branch counts fall short of the census on bases that share a
repeated shift between both sides: those cases are strict xfails until
ROADMAP item 16 replaces the search.  Each lift's smaller-side leading
exponent must be one the census's Newton polygon at its base allows.
"""

import dataclasses
import json
import os
import tempfile
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

import census_reference
from test_admitted_indices import _label, _ladder, _spec
from test_golden_reports import CASES
from qqsystems import cli
from qqsystems.infinite import enumerate_infinite_solutions
from qqsystems.lifting import LiftError, lift_newton, lift_ramified
from qqsystems.scalar import Scalar
from qqsystems.systems import MasterData, ProblemSpec

POOL = [Scalar(1), Scalar(2), Scalar(-1), Scalar(Fraction(1, 2)),
        Scalar(1, 1), Scalar(1, -1)]
QS = [Scalar(2), Scalar(3), Scalar(Fraction(1, 2)), Scalar(-2), Scalar(1, 1)]


@st.composite
def rank_one_specs(draw):
    """Both modes, Lambda of degree <= 4 with at least one repeated
    shift, min(m, n) <= 1."""
    shifts = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3,
                           unique_by=Scalar.sort_key))
    lam = [(shifts[0], draw(st.integers(2, 3)))]
    lam += [(a, 1) for a in shifts[1:5 - lam[0][1]]]
    deg = sum(k for _, k in lam)
    m = draw(st.sampled_from(sorted({0, 1, deg - 1, deg})))
    mode = draw(st.sampled_from(["qq", "QQ"]))
    return ProblemSpec(mode=mode, lam=MasterData(tuple(lam)), m=m, n=deg - m,
                       q=draw(st.sampled_from(QS)) if mode == "QQ" else None)


def _multiplicity(base, spec):
    """prod_k C(mu_k, c_k), c_k the copies of a_k on the x side."""
    xs = [x / spec.q for x in base.x0] if spec.is_difference else base.x0
    return prod(comb(mu, xs.count(a)) for a, mu in spec.lam.shifts)


@settings(max_examples=20, deadline=None)
@given(rank_one_specs())
def test_census_orders_are_the_base_multiplicities(spec):
    census = census_reference.multiplicities(spec)
    bases = enumerate_infinite_solutions(spec)
    assert {census_reference.smaller_value(spec, b.x0, b.y0):
            _multiplicity(b, spec) for b in bases} == census
    assert sum(census.values()) == comb(spec.m + spec.n, spec.m)


def _branch_counts(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "r.json")
        with open(path, "w", encoding="utf-8") as file:
            json.dump(spec.to_json(), file)
        cli.main(["solve", path, "--out", out])
        with open(out, encoding="utf-8") as file:
            return [e.get("branch_count") for e in json.load(file)["bases"]]


# qq (z+1)^2 (z+2), (2, 1): bases (1, 1 | 2) and (1, 2 | 1), whose census
# is [1, 2]; the search gives [1, 1] at K = 1 and [2, 2] at K = 2
SHARED_DOUBLE = ProblemSpec(mode="qq", lam=MasterData(((Scalar(1), 2),
                                                       (Scalar(2), 1))),
                            m=2, n=1)


def test_census_of_a_shared_double_shift():
    census = census_reference.multiplicities(SHARED_DOUBLE)
    assert census == {1: 2, 2: 1}
    assert [census[census_reference.smaller_value(SHARED_DOUBLE, b.x0, b.y0)]
            for b in enumerate_infinite_solutions(SHARED_DOUBLE)] == [1, 2]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: the ramified search miscounts "
                   "the branches at a shared double shift")
@pytest.mark.parametrize("K", [1, 2])
def test_branch_counts_equal_the_census(K):
    assert _branch_counts(dataclasses.replace(SHARED_DOUBLE, K=K)) == [1, 2]


def _leading_exponent(jet):
    """k/N for the jet's first nonzero s^k with k >= 1; None when it is
    constant through its window."""
    return next((Fraction(k, jet.n_ram) for k in range(1, jet.top + 1)
                 if not jet.coeff(k).is_zero), None)


def _assert_leading_exponents(spec):
    """Every lift the solve lists: its smaller side moves at a slope of
    the census polygon at its base, or is constant through its window
    where the branch is exact or moves only past that window."""
    checked = 0
    for base in enumerate_infinite_solutions(spec):
        try:
            lifts = ([lift_newton(base, spec)] if base.tier == "generic"
                     else lift_ramified(base, spec))
        except LiftError:
            continue
        exact, slopes = census_reference.leading_exponents(
            spec, census_reference.smaller_value(spec, base.x0, base.y0))
        for ls in lifts:
            jet = ls.point.y[0] if spec.m >= spec.n else ls.point.x[0]
            g = _leading_exponent(jet)
            window = Fraction(jet.top, jet.n_ram)
            assert g in slopes if g is not None else (
                exact or any(s > window for s in slopes)), (spec, base, g)
            checked += 1
    assert checked, spec  # a spec whose every base fails checks nothing


# the golden and ladder QQ (z+a)^k specs are left out: every branch they
# have leaves Q(i) (exit 3), so they list no lift
RANK_ONE_GOLDEN = sorted(
    label for label, (cmd, spec, _) in CASES.items()
    if cmd == "solve" and spec["mode"] == "qq"
    and min(spec["m"], spec["n"]) == 1
    and any(mult > 1 for _, mult in spec["lambda"]["shifts"]))


@pytest.mark.parametrize("label", RANK_ONE_GOLDEN)
def test_golden_leading_exponents_lie_on_the_census_polygon(label):
    _assert_leading_exponents(ProblemSpec.from_json(CASES[label][1]))


# perfbench's qq ladders; bases with a wrong top coefficient (qq
# (z+1)^2(z+2) (2, 1) K = 3), with a branch the search finds twice (qq
# (z+1)^2(z+2)^2 (1, 3)), and where a q-scaled shift meets another (QQ)
@pytest.mark.parametrize("spec", [s for s in _ladder() if s.mode == "qq"] + [
    _spec("qq", [(1, 2), (2, 1)], 2, 1, 3),
    _spec("qq", [(1, 2), (2, 2)], 1, 3, 2),
    _spec("QQ", [(1, 2), (3, 1)], 2, 1, 2, q=3),
    _spec("QQ", [(1, 2), (2, 1)], 2, 1, 2, q=2),
    _spec("QQ", [(1, 2), (2, 1)], 1, 2, 2, q=Fraction(1, 2))], ids=_label)
def test_ladder_leading_exponents_lie_on_the_census_polygon(spec):
    _assert_leading_exponents(spec)
