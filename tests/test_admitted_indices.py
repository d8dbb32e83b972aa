"""The ramification indices a degenerate base admits, and the search at them.

lift_ramified searches only the indices N <= N_max that admitted_indices
reads from the rank-one eliminant's Newton polygons.  These tests hold the
index reader to hand-checked polygons and hold lift_ramified to the
every-index search (lift_reference.lift_ramified_every_index): the same
lifts, or the same failure, where only a smaller count of branches dropped
outside Q(i) may differ.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lift_reference
from test_golden_reports import CASES
from qqsystems.infinite import enumerate_infinite_solutions
from qqsystems.lifting import (LiftError, admitted_indices, lift_ramified,
                               ramification_indices)
from qqsystems.poly import SparsePoly
from qqsystems.scalar import Scalar
from qqsystems.systems import MasterData, ProblemSpec

V, T = SparsePoly.variable(0, 2), SparsePoly.variable(1, 2)


# the eliminants of ROADMAP item 16's Measurements table, and a polygon
# whose one edge has a double root
@pytest.mark.parametrize("poly,root,indices", [
    ((V - 1) * (V - 1 + 2 * T), 1, {1}),
    ((V - 1) * (V - 1) * (V - 1 + 3 * T), 1, {1}),
    (3 * (V - 1) * (V - 1) - T * (V - 3) * (V - 3), 1, {2}),
    (9 * (V - 1) * (V - 1) * (V - 1) - T * (V - 3) * (V - 3) * (V - 3), 1,
     {3}),
])
def test_indices_of_the_measured_eliminants(poly, root, indices):
    assert ramification_indices(poly, Scalar(root)) == indices


def test_a_repeated_characteristic_root_admits_its_multiples():
    # (w - t)^2 = t^3: one edge of slope 1 with characteristic polynomial
    # (c - 1)^2, and the branches w = t +- t^(3/2) have N = 2
    assert 2 in ramification_indices((V - T) * (V - T) - T * T * T, Scalar(0))


def _spec(mode, shifts, m, n, K, q=None):
    return ProblemSpec(mode=mode, lam=MasterData(tuple(
        (Scalar(a), mult) for a, mult in shifts)), m=m, n=n, K=K,
        q=None if q is None else Scalar(q))


def _degenerate_bases(spec):
    return [b for b in enumerate_infinite_solutions(spec)
            if b.tier != "generic"]


@pytest.mark.parametrize("a", [1, 2, 3])
def test_the_ladder_admits_one_index(a):
    # every qq ladder base has only N = 1 branches; the (z+a)^3 base
    # (a, a | a) repeats x0 = a, whose index comes from G, not from its
    # multiplicity; QQ (z+a)^2 at q = 3 needs N = 2
    for spec in (_spec("qq", [(a, 3)], 2, 1, 3),
                 _spec("qq", [(a, 2), (5, 1)], 2, 1, 3),
                 _spec("qq", [(a, 2)], 1, 1, 4)):
        for base in _degenerate_bases(spec):
            assert admitted_indices(base, spec) == [1]
    spec = _spec("QQ", [(a, 2)], 1, 1, 2, q=3)
    assert admitted_indices(_degenerate_bases(spec)[0], spec) == [2]


def test_every_index_above_rank_one():
    # min(m, n) = 2 has no one-variable eliminant: every N up to the cap
    spec = _spec("qq", [(1, 2), (2, 1), (3, 1)], 2, 2, 1)
    for base in _degenerate_bases(spec):
        assert admitted_indices(base, spec) == [1, 2, 3, 4]


def _outcome(lift, base, spec):
    """The lifts as JSON, or the failure: its type, reason, message with
    the count of dropped branches masked, and that count (0 when none)."""
    try:
        return [b.to_json() for b in lift(base, spec)], None
    except LiftError as exc:
        dropped = re.search(r"\((\d+) branch\(es\)", str(exc))
        masked = re.sub(r"\(\d+ branch\(es\)", "(# branch(es)", str(exc))
        return ((type(exc), exc.reason, masked),
                int(dropped.group(1)) if dropped else 0)


def _assert_equivalent(spec):
    for base in _degenerate_bases(spec):
        got, dropped = _outcome(lift_ramified, base, spec)
        want, every_dropped = _outcome(
            lift_reference.lift_ramified_every_index, base, spec)
        assert got == want, (spec, base)
        assert dropped is None or dropped <= every_dropped, (spec, base)


def _ladder():
    """perfbench's ramified-lift specs, with K at most 2."""
    specs = []
    for a in (1, 2, 3):
        specs += [_spec("qq", [(a, 2)], 1, 1, 2),
                  _spec("qq", [(a, 3)], 2, 1, 1),
                  _spec("qq", [(a, 3)], 2, 1, 2),
                  _spec("QQ", [(a, 2)], 1, 1, 2, q=3)]
        specs += [_spec("qq", [(a, 2), (b, 1)], 2, 1, 2) for b in (5, 7)]
    return specs


def _label(spec):
    shifts = "".join(f"(z+{a})^{mult}" for a, mult in spec.lam.shifts)
    return f"{spec.mode} {shifts} ({spec.m},{spec.n}) K={spec.K}"


@pytest.mark.parametrize("spec", _ladder(), ids=_label)
def test_ladder_lifts_equal_the_every_index_search(spec):
    _assert_equivalent(spec)


# the golden degenerate specs; the every-index search of qq (z+1)^3 at K = 3
# takes about 20 s at (2, 1) and 120 s at (1, 2), and their golden digests
# hold them instead
GOLDEN = sorted(label for label, (cmd, spec, _) in CASES.items()
                if cmd == "solve" and label not in ("qq (z+1)^3 m=2 n=1 K=3",
                                                    "qq (z+1)^3 m=1 n=2 K=3")
                and any(mult > 1 for _, mult in spec["lambda"]["shifts"]))


@pytest.mark.parametrize("label", GOLDEN)
def test_golden_lifts_equal_the_every_index_search(label):
    _assert_equivalent(ProblemSpec.from_json(CASES[label][1]))


POOL = [Scalar(1), Scalar(2), Scalar(-1), Scalar(Fraction(1, 2)),
        Scalar(1, 1), Scalar(1, -1)]
QS = [Scalar(2), Scalar(3), Scalar(Fraction(1, 2)), Scalar(-2), Scalar(1, 1)]


@st.composite
def degenerate_specs(draw):
    """Both modes, one repeated shift (twice or three times) and at most
    one simple one, m + n <= 3 (so min(m, n) <= 1), K <= 2, N_max <= 3.
    A QQ triple shift at K = 2, N_max = 3 takes 0.3 to 4 s of CPU in both
    searches together at a real shift and a real q, and 3 to 26 s at
    (z+1+-i)^3 or at q = 1 + i, m = 2: its branches that leave Q(i) are
    dropped at the first orders (exact_jets._prune_outside_field).  Only
    (z+1+-i)^3 at q = 1 + i, m = 2, N_max = 3 runs past 100 s, at K = 1
    and 2 alike, inside sympy.solve: about one run in 30 draws it."""
    mode = draw(st.sampled_from(["qq", "QQ"]))
    shifts = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=2,
                           unique=True))
    lam = [(shifts[0], draw(st.integers(2, 3)))]
    if len(shifts) > 1 and lam[0][1] == 2:
        lam.append((shifts[1], 1))
    deg = sum(mult for _, mult in lam)
    m = draw(st.integers(0, deg))
    return ProblemSpec(mode=mode, lam=MasterData(tuple(lam)), m=m, n=deg - m,
                       K=draw(st.integers(1, 2)),
                       q=draw(st.sampled_from(QS)) if mode == "QQ" else None,
                       n_max=draw(st.integers(1, 3)))


@settings(max_examples=25, deadline=None)
@given(degenerate_specs())
def test_drawn_lifts_equal_the_every_index_search(spec):
    _assert_equivalent(spec)
