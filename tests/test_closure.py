"""Closure tests: the symmetries of a real system map its reported
branches to reported branches.

With Lambda's shifts and q real, the system has real coefficients, so
complex conjugation of the coefficients maps each Puiseux branch at a base
with real values to a branch at the same base.  A branch of ramification
index N is a series in s = t^(1/N), and s -> zeta_N s, zeta_N a primitive
N-th root of unity, reads the same solution on another sheet.  So each
map sends every reported branch to a reported branch.  At a base of
multiplicity 1 (one branch through it, as tests/census_reference.py counts
them) that branch is the whole solution, and each map sends it to itself
up to the order of its roots.  s -> zeta_N s is mapped for N = 2 and 4
only: zeta_N lies in Q(i) for those and N = 1, where it is the identity.

The checks need no oracle, so they see what the certificate cannot: a
wrong coefficient at the top order of a root cluster, where the search
pins a kernel parameter still free at the last order to zero (ROADMAP
item 22).  The specs where a map fails are strict xfails of that
comparison alone; their plain checks (the spec is real, and every base
carries a census multiplicity) must pass.
"""

import functools
import json
import os
import tempfile
from fractions import Fraction
from math import comb

import pytest

import census_reference
from qqsystems import cli
from qqsystems.scalar import Scalar
from qqsystems.systems import MasterData, ProblemSpec

ZETA = {2: Scalar(-1), 4: Scalar(0, 1)}


def _spec(mode, lam, m, K, q=None):
    return ProblemSpec(mode=mode, lam=MasterData(tuple(
        (Scalar(a), mult) for a, mult in lam)),
        m=m, n=sum(mult for _, mult in lam) - m, K=K,
        q=None if q is None else Scalar(q))


# real specs whose reports each map keeps; N = 2 branches in the QQ ones
CLOSED = {
    "qq (z+1)^2 (1,1) K=4": _spec("qq", [(1, 2)], 1, 4),
    # a base of multiplicity 1 on each side: its one branch is fixed
    "qq (z+1)^2(z+2) (2,1) K=1": _spec("qq", [(1, 2), (2, 1)], 2, 1),
    "qq (z+1)^2(z+2) (1,2) K=1": _spec("qq", [(1, 2), (2, 1)], 1, 1),
    "qq (z+1)^3 (2,1) K=3": _spec("qq", [(1, 3)], 2, 3),
    "QQ (z+1)^2(z+5) q=2 (2,1) K=2": _spec("QQ", [(1, 2), (5, 1)], 2, 2, 2),
    "QQ (z+1)^2(z+5) q=1/2 (1,2) K=2": _spec("QQ", [(1, 2), (5, 1)], 1, 2,
                                             Fraction(1, 2)),
}
# the top coefficient of the cluster at (1, 1 | 2) is not conjugation
# closed: x = (1 + (1 - i) t - 2 t^2, 1 + (1 + i) t) and its conjugate
CONJUGATION_FAILS = {
    "qq (z+1)^2(z+2) (2,1) K=2": _spec("qq", [(1, 2), (2, 1)], 2, 2),
    "qq (z+1)^2(z+2) (2,1) K=3": _spec("qq", [(1, 2), (2, 1)], 2, 3),
}
# at (3, 3 | 2) s -> -s swaps the top coefficient 172/27 between the roots
ROTATION_FAILS = {
    "QQ (z+1)^2(z+2) q=3 (2,1) K=2": _spec("QQ", [(1, 2), (2, 1)], 2, 2, 3),
}
SPECS = {**CLOSED, **CONJUGATION_FAILS, **ROTATION_FAILS}


def _cases(failing):
    xfail = pytest.mark.xfail(strict=True, raises=AssertionError,
                              reason="ROADMAP item 22: the search pins the "
                              "top coefficient of a root cluster")
    return [pytest.param(name, marks=xfail) if name in failing else name
            for name in SPECS]


@functools.cache
def _report(name):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "r.json")
        with open(path, "w", encoding="utf-8") as file:
            json.dump(SPECS[name].to_json(), file)
        cli.main(["solve", path, "--out", out])
        with open(out, encoding="utf-8") as file:
            return json.load(file)


def _bases(name):
    """Each base of the report: its values, its census multiplicity and
    its lifts."""
    spec = SPECS[name]
    census = census_reference.multiplicities(spec)
    for entry in _report(name)["bases"]:
        values = [[Scalar.from_json(v) for v in entry["base"][side]]
                  for side in ("x0", "y0")]
        yield (values[0] + values[1],
               census[census_reference.smaller_value(spec, *values)],
               entry["lifts"])


def _same(c, e):
    return c


def _branch(item, coeff_map):
    """The lift's x and y jets as two multisets, coeff_map(c, e) applied
    to each coefficient c of s^e."""
    def jet(j):
        assert j["N"] == item["N"], item
        return json.dumps([coeff_map(Scalar.from_json(c), j["offset"] + k)
                           .to_json() for k, c in enumerate(j["coeffs"])])

    return tuple(tuple(sorted(map(jet, item[side]))) for side in ("x", "y"))


def _assert_closed(name, map_of):
    """map_of(values, item) is the coefficient map of the lift, or None
    where it does not apply."""
    for values, mult, lifts in _bases(name):
        found = {_branch(item, _same) for item in lifts}
        for item in lifts:
            coeff_map = map_of(values, item)
            if coeff_map is None:
                continue
            image = _branch(item, coeff_map)
            assert image in found, (values, item)
            if mult == 1:
                assert image == _branch(item, _same), (values, item)


@pytest.mark.parametrize("name", SPECS)
def test_the_spec_is_real(name):
    spec = SPECS[name]
    assert all(a.im == 0 for a, _ in spec.lam.shifts)
    assert spec.q is None or spec.q.im == 0


@pytest.mark.parametrize("name", SPECS)
def test_every_base_carries_its_census_multiplicity(name):
    # the closure comparisons read these, and each spec has a lift at a
    # base with real values for the maps to act on
    spec = SPECS[name]
    bases = list(_bases(name))
    assert sum(mult for _, mult, _ in bases) == comb(spec.m + spec.n, spec.m)
    assert any(lifts and all(v.im == 0 for v in values)
               for values, _, lifts in bases)


@pytest.mark.parametrize("name", _cases(CONJUGATION_FAILS))
def test_conjugation_maps_branches_to_branches(name):
    _assert_closed(name, lambda values, item: (
        (lambda c, e: Scalar(c.re, -c.im))
        if all(v.im == 0 for v in values) else None))


@pytest.mark.parametrize("name", _cases(ROTATION_FAILS))
def test_rotation_of_s_maps_branches_to_branches(name):
    def map_of(values, item):
        zeta = ZETA.get(item["N"])
        return None if zeta is None else (lambda c, e: c * zeta ** e)

    _assert_closed(name, map_of)
