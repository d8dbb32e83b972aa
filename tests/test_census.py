"""The exact census (census_reference) against the bases and the solver.

At t = 0 the census's eliminant F(v, 0) must vanish at each base's value
of the smaller side to the base's multiplicity prod_k C(mu_k, c_k), where
the base puts c_k of the mu_k copies of Lambda's shift a_k on the x side,
and have no other root; so the multiplicities add up to C(m + n, m).
The solver's branch counts fall short of the census on bases that share a
repeated shift between both sides: those cases are strict xfails until
ROADMAP item 16 replaces the search.
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
from qqsystems import cli
from qqsystems.infinite import enumerate_infinite_solutions
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
