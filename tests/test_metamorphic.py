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

qq scaling: the shifts a_j -> a_j / lam, lam > 0, send x(t) to
x(lam t) / lam, so the t^e coefficient c_e of every jet becomes
c_e lam^(e - 1); with lam = mu^L, L the lcm of the indices N in the
report, every such power is an integer power of mu.  A positive lam keeps
the order of the bases and of their lifts.  qq swap: (m, n) -> (n, m)
exchanges P and M, and W(M, P) = -W(P, M), so the x and y jets of each
branch trade places and t -> -t; the Bethe roots move to the other
polynomial, so only the lifts and the branch counts are compared, as
multisets.  The search breaks the swap on a triple shift split between
the sides (ROADMAP item 16), which the drawn swap specs leave out and
strict xfails hold.  Conjugation, in both modes: conjugating the shifts and q
conjugates every base value and every jet (x, y, alpha, Bethe roots) and
changes no count, certificate, valuation, failure or exit code; as it may
reorder bases and lifts, the reports are compared as multisets.

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
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

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
# a QQ triple shift takes 0.1 to 2 s of CPU per solve at a real shift and
# 1 to 13 s at 1 +- i: test_outside_field and test_admitted_indices cover it
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


def _key(obj):
    return json.dumps(obj, sort_keys=True)


def _as_multisets(report):
    """The report with each list the system leaves unordered read as a
    multiset: the bases, each base's lifts, the failures, the values and
    jets of each side, and the Bethe roots, each with its valuation."""
    def values(base):
        return dict(base, x0=sorted(base["x0"], key=_key),
                    y0=sorted(base["y0"], key=_key))

    def lift(item):
        bethe, roots = item["bethe"], item["bethe"]["roots"]
        vals = bethe["residual_valuations"]
        pairs = sorted(zip(roots, vals or [None] * len(roots)), key=_key)
        return _key(dict(item, base=values(item["base"]),
                         x=sorted(item["x"], key=_key),
                         y=sorted(item["y"], key=_key),
                         bethe=dict(bethe, roots=pairs,
                                    residual_valuations=vals is None)))

    return {"failures": sorted(report["failures"], key=_key),
            "bases": sorted(_key(dict(entry, base=values(entry["base"]),
                                      lifts=sorted(map(lift, entry["lifts"]))))
                            for entry in report["bases"])}


def _jet_exponents(jet):
    """Each coefficient of the jet with its exponent in t."""
    return [(Fraction(jet["offset"] + k, jet["N"]), Scalar.from_json(c))
            for k, c in enumerate(jet["coeffs"])]


@settings(max_examples=10, deadline=None)
@given(degenerate_lambda(), st.sampled_from(SCALES), st.data())
def test_qq_scaling_weights_each_order(lam, mu, data):
    m = data.draw(st.integers(0, sum(mult for _, mult in lam)))
    K = data.draw(st.integers(1, 2))
    code, report = _solve(_spec("qq", lam, m, K))
    power = lcm(1, *(item["N"] for entry in report["bases"]
                     for item in entry["lifts"]))
    scale = mu ** power
    scaled = _solve(_spec("qq", [(a / scale, mult) for a, mult in lam], m,
                          K))

    def jet_map(jet, sign):
        # scale^(e - 1) = mu^(power (e - 1)), an integer power: N | power
        return dict(jet, coeffs=[(c * mu ** int(power * (e - 1))).to_json()
                                 for e, c in _jet_exponents(jet)])

    assert scaled == (code, _map_report(report, lambda v: v / scale,
                                        jet_map))


def _lifts_and_counts(report, swap):
    """Each base with its branch count and lifts, as multisets, and the
    jets of a side unordered, as the coordinates of a point; swap
    exchanges the x and y sides and maps t -> -t."""
    def flip(jet):
        assert jet["N"] == 1, jet  # qq draws have N = 1 branches only
        return dict(jet, coeffs=[(c * (-1) ** int(e)).to_json()
                                 for e, c in _jet_exponents(jet)])

    def jets(side):
        return sorted((flip(j) if swap else j for j in side), key=_key)

    x, y = ("y", "x") if swap else ("x", "y")
    return sorted(_key([entry["base"][x + "0"], entry["base"][y + "0"],
                        entry.get("branch_count"), sorted(_key({
                            "N": item["N"], "order": item["order"],
                            "x": jets(item[x]), "y": jets(item[y]),
                            "residual_valuation": item["residual_valuation"],
                            "certified": item["certified"]})
                            for item in entry["lifts"])])
                  for entry in report["bases"])


def _assert_swap(lam, m, K):
    deg = sum(mult for _, mult in lam)
    _, report = _solve(_spec("qq", lam, m, K))
    _, swapped = _solve(_spec("qq", lam, deg - m, K))
    assert _lifts_and_counts(swapped, False) == _lifts_and_counts(report, True)


def _shared_triple(lam, m):
    """A triple shift split between both sides: ROADMAP item 16's base,
    whose branch count and top coefficients the search gets wrong."""
    return lam[0][1] == 3 and 0 < m < 3


@settings(max_examples=10, deadline=None)
@given(degenerate_lambda(), st.data())
def test_qq_swap_exchanges_the_jets(lam, data):
    m = data.draw(st.integers(0, sum(mult for _, mult in lam)))
    assume(not _shared_triple(lam, m))  # test_swap_on_a_shared_triple
    _assert_swap(lam, m, data.draw(st.integers(1, 2)))


# qq (z+a)^3, (1, 2) against (2, 1): K = 1 gives x = 1 - t, y = (1, 1)
# against y = 1 - t and x = (1, 1) exactly, as the search pins a kernel
# parameter still free at the last order to 0, and K = 2 gives two
# branches against one (the census counts three at each base)
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: a shared triple shift's "
                   "branches depend on the side order")
@pytest.mark.parametrize("a", [POOL[0], POOL[4]], ids=str)
@pytest.mark.parametrize("K", [1, 2])
def test_swap_on_a_shared_triple(a, K):
    _assert_swap([(a, 3)], 1, K)


def _conj(v):
    return Scalar(v.re, -v.im)


@settings(max_examples=6, deadline=None)
# QQ draws a shift at most twice, as in test_QQ_scaling_divides_every_jet
@given(st.sampled_from(["qq", "QQ"]), st.sampled_from(QS), st.data())
def test_conjugation_conjugates_every_jet(mode, q, data):
    lam = data.draw(degenerate_lambda(top=3 if mode == "qq" else 2))
    assume(any(a.im for a, _ in lam))  # conjugation moves a shift
    m = data.draw(st.integers(0, sum(mult for _, mult in lam)))
    K = data.draw(st.integers(1, 2))
    q = q if mode == "QQ" else None
    code, report = _solve(_spec(mode, lam, m, K, q))
    conj = _solve(_spec(mode, [(_conj(a), mult) for a, mult in lam], m, K,
                        q and _conj(q)))

    def jet_map(jet, sign):
        return dict(jet, coeffs=[_conj(Scalar.from_json(c)).to_json()
                                 for c in jet["coeffs"]])

    image = _map_report(report, _conj, jet_map)
    for entry in image["bases"]:
        for item in entry["lifts"]:
            if item["alpha"] is not None:
                item["alpha"] = jet_map(item["alpha"], 1)
    assert (conj[0], _as_multisets(conj[1])) == (code, _as_multisets(image))
