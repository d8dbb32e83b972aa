"""Branches with a coefficient outside Q(i): decided once, dropped early.

lifting._try_scalar converts an exact sympy number to a Scalar and gives
None outside Q(i); a real or imaginary part that sympy's assumptions prove
irrational gives None without a minimal polynomial, and any other number is
decided by its minimal polynomial over Q(i).  The branch search runs the
same converter after every order, the last one included, on each jet
coefficient that holds no kernel parameter (lifting._prune_outside_field)
and drops a branch with such a coefficient outside Q(i) there, not at
readout.  These
tests hold the converter to hand-checked values and hold lift_ramified to
the unpruned search (the helper patched to keep every branch): the same
lifts, or the same failure with the same message, dropped count included.
"""

from fractions import Fraction

import pytest
import sympy as sp

from test_admitted_indices import (_degenerate_bases, _label, _ladder,
                                   _outcome, _spec)
from test_golden_reports import CASES
from qqsystems import lifting
from qqsystems.lifting import _try_scalar, lift_ramified
from qqsystems.scalar import Scalar
from qqsystems.systems import ProblemSpec

R2, R3 = sp.sqrt(2), sp.sqrt(3)


@pytest.fixture
def no_minimal_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.minimal_polynomial reached")

    monkeypatch.setattr(sp, "minimal_polynomial", refuse)


@pytest.mark.parametrize("expr", [
    2 * R3 / 9,
    1 + R2,
    # the real part -1/2 is rational: the imaginary part decides
    (-2 + 3 * R2 * sp.I) / 4,
], ids=str)
def test_proved_irrational_is_outside_without_simplify(
        expr, no_minimal_polynomial):
    assert _try_scalar(expr) is None


def test_rational_value_with_radicals_converts():
    # expanded, (1 + sqrt 2)^2 - 2 sqrt 2 is the Integer 3
    assert _try_scalar(sp.expand((1 + R2) ** 2 - 2 * R2)) == Scalar(3)
    assert _try_scalar(sp.Rational(3, 4) - 2 * sp.I) == Scalar(
        Fraction(3, 4), -2)


@pytest.mark.parametrize("expr,value", [
    ((R2 + 1) * (R2 - 1), 1),
    (1 / (1 + R2) - R2, -1),
], ids=str)
def test_undecided_value_goes_through_minimal_polynomial(expr, value):
    # sympy's assumptions cannot tell whether these are rational
    re, _ = expr.as_real_imag()
    assert re.is_rational is None
    assert _try_scalar(expr) == Scalar(value)


def test_nested_radical_value_converts():
    # sqrt(3 + 2 sqrt 2) = 1 + sqrt 2, a nesting sympy.simplify leaves
    nested = sp.sqrt(3 + 2 * R2) - R2
    assert nested.as_real_imag()[0].is_rational is None
    assert _try_scalar(nested) == Scalar(1)
    assert _try_scalar(sp.I * nested) == Scalar(0, 1)


@pytest.mark.parametrize("expr", [
    sp.sqrt(3 + 2 * R2),
    # as_real_imag writes both parts with cos and sin of atan(2) / 2
    sp.sqrt(1 + 2 * sp.I),
], ids=str)
def test_undecided_irrational_is_outside(expr):
    # the minimal polynomial has degree 2: x^2 - 2x - 1, x^2 - (1 + 2i)
    assert None in [part.is_rational for part in expr.as_real_imag()]
    assert _try_scalar(expr) is None


def _assert_equivalent(spec, monkeypatch):
    """The same lifts, or the same failure: type, reason, and message with
    its dropped count, with and without the pruning."""
    bases = _degenerate_bases(spec)
    pruned = [_outcome(lift_ramified, base, spec) for base in bases]
    monkeypatch.setattr(lifting, "_prune_outside_field",
                        lambda branches: (branches, 0))
    assert [_outcome(lift_ramified, base, spec) for base in bases] == pruned, \
        spec


@pytest.mark.parametrize("spec", _ladder(), ids=_label)
def test_ladder_lifts_equal_the_unpruned_search(spec, monkeypatch):
    _assert_equivalent(spec, monkeypatch)


# the golden degenerate specs; the unpruned search takes about 20 s on the
# QQ triple shift, whose golden digest, recorded from that search, holds it
GOLDEN = sorted(label for label, (cmd, spec, _) in CASES.items()
                if cmd == "solve" and label != "QQ (z+1)^3 q=3 m=2 n=1 K=2"
                and any(mult > 1 for _, mult in spec["lambda"]["shifts"]))


@pytest.mark.parametrize("label", GOLDEN)
def test_golden_lifts_equal_the_unpruned_search(label, monkeypatch):
    _assert_equivalent(ProblemSpec.from_json(CASES[label][1]), monkeypatch)


# QQ (z+1)^3 and (z-1)^3 at K = 1: every split, q in {3, 1/2, -2}
TRIPLES = {f"QQ (z{a:+d})^3 ({m},{3 - m}) K=1 q={q}":
           _spec("QQ", [(a, 3)], m, 3 - m, 1, q=q)
           for a in (1, -1) for m in range(4)
           for q in (3, Fraction(1, 2), -2)}


@pytest.mark.parametrize("label", TRIPLES)
def test_triple_shift_lifts_equal_the_unpruned_search(label, monkeypatch):
    _assert_equivalent(TRIPLES[label], monkeypatch)
