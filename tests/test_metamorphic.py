"""Metamorphic tests: the system's symmetries map whole solve reports.

qq translation: the shifts a_j -> a_j + c move every root of Lambda, P and
M by the same amount, and the Wronskian commutes with that move, so each
jet of x and y moves by c at order 0 and nowhere else (and each Bethe
root, -x, by -c).  QQ scaling: the shifts a_j -> a_j / lam, lam > 0,
divide every jet by lam with t unchanged; alpha depends on q alone.
Neither map changes a base's tier, a branch count, a ramification index,
a certificate or Bethe valuation, an exit code or a failure (reason and
message, its dropped-branch count included), and as lam > 0 and c is
real neither changes the order of the bases or of their lifts.

Each test draws a degenerate spec (a repeated shift, m + n <= 3,
K <= 2, Lambda(0) != 0 before and after the map), runs the CLI's solve
on it and on its image, and compares the image's report with the map
applied to the first.  The tropical block is left out: the supports at
the origin are not invariant.  These checks need no oracle, so they hold
on branches that no known answer covers.
"""

import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qqsystems import cli
from qqsystems.scalar import Scalar
from qqsystems.systems import MasterData, ProblemSpec

POOL = [Scalar(1), Scalar(2), Scalar(-1), Scalar(Fraction(1, 2)),
        Scalar(1, 1), Scalar(1, -1)]
# q = 1 + i is left out: QQ (z+1+-i)^3 there runs for minutes in sympy
QS = [Scalar(2), Scalar(3), Scalar(Fraction(1, 2)), Scalar(-2)]
MOVES = [Scalar(v) for v in (1, -3, 2, Fraction(1, 2), Fraction(-5, 2))]
SCALES = [Scalar(v) for v in (2, 3, Fraction(1, 2), Fraction(2, 3))]


@st.composite
def degenerate_lambda(draw, top=3):
    """One shift twice or up to `top` times, and at most one simple one."""
    shifts = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=2,
                           unique=True))
    lam = [(shifts[0], draw(st.integers(2, top)))]
    if len(shifts) > 1 and lam[0][1] == 2:
        lam.append((shifts[1], 1))
    return lam


def _spec(mode, lam, m, K, q=None):
    return ProblemSpec(mode=mode, lam=MasterData(tuple(lam)), m=m,
                       n=sum(mult for _, mult in lam) - m, K=K, q=q)


def _solve(spec):
    """The exit code and the report without its spec, tropical block and
    timing."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "r.json")
        with open(path, "w", encoding="utf-8") as file:
            json.dump(spec.to_json(), file)
        code = cli.main(["solve", path, "--out", out])
        with open(out, encoding="utf-8") as file:
            report = json.load(file)
    return code, {key: report.get(key) for key in ("bases", "failures")}


def _map_report(report, scalar_map, jet_map):
    """The report with scalar_map applied to each base value and jet_map
    to each x, y and Bethe root jet (given the jet's sign: -1 for a root,
    -x)."""
    def base(obj):
        return dict(obj, **{key: [scalar_map(Scalar.from_json(v)).to_json()
                                  for v in obj[key]] for key in ("x0", "y0")})

    def lift(item):
        item = dict(item, base=base(item["base"]),
                    x=[jet_map(s, 1) for s in item["x"]],
                    y=[jet_map(s, 1) for s in item["y"]])
        item["bethe"] = dict(item["bethe"], roots=[
            jet_map(s, -1) for s in item["bethe"]["roots"]])
        return item

    return {"failures": report["failures"],
            "bases": [dict(entry, base=base(entry["base"]),
                           lifts=[lift(item) for item in entry["lifts"]])
                      for entry in report["bases"]]}


@settings(max_examples=12, deadline=None)
@given(degenerate_lambda(), st.data())
def test_qq_translation_moves_only_order_zero(lam, data):
    c = data.draw(st.sampled_from([v for v in MOVES if all(
        not (a + v).is_zero for a, _ in lam)]))
    m = data.draw(st.integers(0, sum(mult for _, mult in lam)))
    K = data.draw(st.integers(1, 2))
    code, report = _solve(_spec("qq", lam, m, K))
    moved = _solve(_spec("qq", [(a + c, mult) for a, mult in lam], m, K))

    def jet_map(jet, sign):
        assert jet["offset"] == 0, jet
        first = Scalar.from_json(jet["coeffs"][0]) + c * sign
        return dict(jet, coeffs=[first.to_json()] + jet["coeffs"][1:])

    assert moved == (code, _map_report(report, lambda v: v + c, jet_map))


@settings(max_examples=12, deadline=None)
# a QQ triple shift takes 1.5 to 3 s per solve: test_outside_field and
# test_admitted_indices cover it
@given(degenerate_lambda(top=2), st.sampled_from(QS), st.sampled_from(SCALES),
       st.data())
def test_QQ_scaling_divides_every_jet(lam, q, scale, data):
    m = data.draw(st.integers(0, sum(mult for _, mult in lam)))
    K = data.draw(st.integers(1, 2))
    code, report = _solve(_spec("QQ", lam, m, K, q))
    scaled = _solve(_spec("QQ", [(a / scale, mult) for a, mult in lam], m, K,
                          q))

    def jet_map(jet, sign):
        return dict(jet, coeffs=[(Scalar.from_json(v) / scale).to_json()
                                 for v in jet["coeffs"]])

    assert scaled == (code, _map_report(report, lambda v: v / scale,
                                        jet_map))
