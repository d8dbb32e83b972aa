"""Bethe-equation verification for lifted solutions.

The plus-part roots w_l = -x_l(t) are the Bethe roots.  Residuals are
checked in t-cleared form, so everything stays a truncated series:

  Gaudin:  R_l = 1 + t * (sum_j n_j/(w_l - z_j) - sum_{s != l} 2/(w_l - w_s)),
           from 2*zeta + sum_j n_j/(w_l - z_j) - sum_{s != l} 2/(w_l - w_s) = 0
           with the twist dictionary 2*zeta = 1/t;
  XXZ:     C_l = Q+(q w_l) * Lambda(w_l / q) + t * Q+(w_l / q) * Lambda(w_l),
           the two-point clearing of the quotient form, twist zeta^2 = 1/t.

Zero positions use z_j = -a_j for the master shifts a_j with n_j = m_j.
This module owns the Bethe rules; the CLI only collects what they say.
Nondegeneracy (simple, Lambda-disjoint, q-distinct) is decided at the
level of truncated series: the pairwise differences must be invertible
jets, which is exactly what makes the cleared residuals well-defined.
nondegeneracy_check is the only collision check: bethe_report computes
residuals only when every flag passes, and a residual called directly on
colliding roots fails in Series.reciprocal (NonInvertibleSeriesError).
QQ mode with |q| = 1 is one predicate, q_unit_modulus, and the least
residual valuation a lift must show, valuation_bound, sits with the
twists it follows from: bethe_report compares each valuation with it,
and BetheReport.failures states the ones below it.  The jets are exact
polynomials, so every coefficient inside a residual's window is exact:
bethe_report reads the residuals from jets widened by FIRST_GUARD
t-orders, and by WORK_GUARD only when some residual is zero through that
first window, and reports the valuations WORK_GUARD alone would give.  An exact branch
(LiftedSolution.exact: its residual certificate found every component
zero through its window) is read once, at WORK_GUARD.  The Gaudin sum
takes one reciprocal per unordered root pair: 1/(w_s - w_l) =
-1/(w_l - w_s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .lifting import LiftedSolution
from .scalar import Scalar, ZERO, ONE
from .series import Series
from .systems import ProblemSpec

# extra window (in t-orders) granted by treating the jet as an exact
# polynomial before dividing; reciprocal of a valuation-1 jet costs two.
# bethe_report reads the residuals at FIRST_GUARD, and at WORK_GUARD only
# when one of them is zero through that smaller window.  One t-order
# decides all 450 residuals of the 150 lifts of perfbench's generic-lift
# specs at seeds 1, 2 and 7; with none, the residual of an order-K lift is
# zero through its window and none of them is decided
FIRST_GUARD = 1
WORK_GUARD = 4

TWIST_GAUDIN = "2*zeta = 1/t"
TWIST_XXZ = "zeta^2 = 1/t"


def valuation_bound(spec: ProblemSpec) -> Fraction:
    """The least Bethe residual valuation an order-K lift must show: K
    under the XXZ twist zeta^2 = 1/t, K - 1 under the Gaudin twist
    2*zeta = 1/t."""
    return Fraction(spec.K if spec.is_difference else spec.K - 1)


def q_unit_modulus(spec: ProblemSpec) -> bool:
    """QQ mode with |q| = 1.  validate() already rejects the Q(i) roots of
    unity; for any other unit-modulus q the moduli of the roots do not fix
    the exponent k of a q-collision, so q-distinctness is undecidable:
    nondegeneracy_check raises, and the CLI refuses such a spec."""
    return spec.is_difference and spec.q.abs2() == 1


class UndecidableQDistinctnessError(ValueError):
    """|q| = 1 and q is not a root of unity: the moduli do not fix k."""


@dataclass(frozen=True)
class BetheReport:
    """Nondegeneracy flags and Bethe residual valuations of one lift.

    residual_valuations is None when some flag fails: the residuals are
    gated and never computed.  bound is valuation_bound of the spec; a
    valuation None (zero through its window) is above every bound.
    """

    roots: Tuple[Series, ...]
    twist: str
    flags: Dict[str, bool]
    residual_valuations: Optional[Tuple[Optional[Fraction], ...]]
    bound: Fraction

    @property
    def failures(self) -> List[str]:
        """One message per residual valuation below the bound."""
        return [f"Bethe residual valuation {v} < {self.bound}"
                for v in self.residual_valuations or ()
                if v is not None and v < self.bound]

    def to_json(self):
        return {"roots": [r.to_json() for r in self.roots],
                "twist": self.twist,
                "flags": dict(self.flags),
                "residual_valuations":
                    [None if v is None else str(v)
                     for v in self.residual_valuations]
                    if self.residual_valuations is not None else None}


def _roots(ls: LiftedSolution) -> Tuple[Series, ...]:
    return tuple(-s for s in ls.point.x)


def _lambda_zeros(spec: ProblemSpec) -> List[Tuple[Scalar, int]]:
    return [(-a, mult) for a, mult in spec.lam.shifts]


def nondegeneracy_check(ls: LiftedSolution, spec: ProblemSpec
                        ) -> Dict[str, bool]:
    """Series-level nondegeneracy flags for the Bethe correspondence.

    simple_zeros: the roots w_l are pairwise distinct jets.
    disjoint_from_lambda: no w_l coincides with a zero of Lambda as a jet.
    q_distinct (difference only): no q^k * w_l meets another root for an
    integer k != 0, nor a Lambda zero for any integer k.

    Each unordered pair of distinct roots, and each (root, Lambda zero)
    pair, is compared once, at its one candidate exponent: k = 0 in qq
    mode, _collision_exponent's k in QQ mode, which does not depend on the
    pair's order since q^k w = v iff q^-k v = w.
    """
    if q_unit_modulus(spec):
        raise UndecidableQDistinctnessError(
            "|q| = 1 with q not a root of unity: the moduli of the roots "
            "do not fix the exponent k of a q-collision")
    roots = _roots(ls)
    diff = spec.is_difference
    q2 = spec.q.abs2() if diff else None
    flags = {"simple_zeros": True, "disjoint_from_lambda": True}
    if diff:
        flags["q_distinct"] = True
    zeros = [Series.const(zv, w.top, w.n_ram)
             for w in roots[:1] for zv, _ in _lambda_zeros(spec)]
    pairs = ([(w, v, "simple_zeros")
              for i, w in enumerate(roots) for v in roots[i + 1:]]
             + [(w, v, "disjoint_from_lambda") for w in roots for v in zeros])
    for w, v, flag in pairs:
        k = _collision_exponent(w, v, q2) if diff else 0
        if k is None or not ((w * spec.q ** k if k else w) - v).is_zero:
            continue
        if k == 0:
            flags[flag] = False
        # two zero jets meet at k = 0 and at every other k
        if diff and (k != 0 or v.is_zero or flag == "disjoint_from_lambda"):
            flags["q_distinct"] = False
    return flags


def _collision_exponent(w: Series, v: Series, q2: Fraction) -> Optional[int]:
    """The only k for which q^k * w = v can hold (q2 = |q|^2 != 1), or None.

    Equal jets have equal lowest terms c s^e, so q2^k = |c_v|^2 / |c_w|^2.
    With q2 = p/r in lowest terms, q2^k is p^k / r^k for k >= 0 and
    r^-k / p^-k for k < 0, each in lowest terms.  Let g be p, or r when
    p = 1, and read the ratio as up/down, turned over when g = r.  Then g
    divides up exactly when k > 0, and k is g's multiplicity in up;
    otherwise -k is its multiplicity in down.  That one candidate is
    checked in exact arithmetic.  A zero jet meets only a zero jet, at
    every k; 0 stands in.
    """
    lw, lv = w.lowest_term(), v.lowest_term()
    if lw is None or lv is None:
        return 0 if lw is lv else None
    if lw[0] != lv[0]:
        return None
    ratio = lv[1].abs2() / lw[1].abs2()
    up, down = ratio.numerator, ratio.denominator
    g = q2.numerator
    if g == 1:  # then r > 1
        g, up, down = q2.denominator, down, up
    k = _multiplicity(g, up) or -_multiplicity(g, down)
    return k if q2 ** k == ratio else None


def _multiplicity(g: int, x: int) -> int:
    """The largest k with g^k dividing the positive integer x, for g > 1."""
    k = 0
    while x % g == 0:
        x //= g
        k += 1
    return k


def gaudin_residual(ls: LiftedSolution, spec: ProblemSpec,
                    guard: int = WORK_GUARD) -> List[Series]:
    """t-cleared Gaudin residuals R_l, one per root, computed from the
    jets widened to lift order + guard t-orders.  The roots must pass
    nondegeneracy_check: two that coincide, or one on a Lambda zero, fail
    in Series.reciprocal with NonInvertibleSeriesError."""
    if spec.is_difference:
        raise ValueError("Gaudin residuals apply to the differential mode")
    n_ram = ls.n_ram
    work_top = ls.order + guard * n_ram
    roots = [w.widen(work_top) for w in _roots(ls)]
    zeros = _lambda_zeros(spec)
    # pair[s, l] = 2/(w_s - w_l) for s < l, read as -2/(w_l - w_s) by root l
    pair = {}
    out = []
    for l, w in enumerate(roots):
        acc = Series.const(ZERO, work_top, n_ram)
        for zv, mult in zeros:
            acc = acc + (w - zv).reciprocal() * Scalar(mult)
        for s in range(l):
            acc = acc + pair[s, l]
        for s in range(l + 1, len(roots)):
            pair[l, s] = (w - roots[s]).reciprocal() * Scalar(2)
            acc = acc - pair[l, s]
        # the jet is exact as a polynomial, so the full work window is
        # meaningful: valuations beyond the lift order stay visible
        out.append(Series.const(ONE, work_top, n_ram) + acc.shift(n_ram))
    return out


def xxz_residual(ls: LiftedSolution, spec: ProblemSpec,
                 guard: int = WORK_GUARD) -> List[Series]:
    """Cleared two-point XXZ residuals C_l, one per root, computed from
    the jets widened to lift order + guard t-orders."""
    if not spec.is_difference:
        raise ValueError("XXZ residuals apply to the difference mode")
    q = spec.q
    qinv = ONE / q
    n_ram = ls.n_ram
    work_top = ls.order + guard * n_ram
    xs = [s.widen(work_top) for s in ls.point.x]
    roots = [-s for s in xs]
    lam = spec.lam.root_shift_multiset()

    def product_at(val: Series, shifts) -> Series:
        """prod (val + a) over the shifts: Q+ over the xs, Lambda over lam."""
        acc = val + shifts[0]
        for a in shifts[1:]:
            acc = acc * (val + a)
        return acc

    out = []
    for w in roots:
        term1 = product_at(w * q, xs) * product_at(w * qinv, lam)
        term2 = product_at(w * qinv, xs) * product_at(w, lam)
        out.append(term1 + term2.shift(n_ram))
    return out


def bethe_report(ls: LiftedSolution, spec: ProblemSpec) -> BetheReport:
    """Flags plus gated residuals for one lifted solution.

    Every coefficient inside a window is exact, so a valuation read at
    FIRST_GUARD is the one WORK_GUARD gives; the residuals are read again
    at WORK_GUARD only when one of them is zero through the first window,
    and at WORK_GUARD alone when the lift is exact (ls.exact).
    """
    roots = _roots(ls)
    flags = nondegeneracy_check(ls, spec)
    twist, residual = ((TWIST_XXZ, xxz_residual) if spec.is_difference
                       else (TWIST_GAUDIN, gaudin_residual))
    vals = None
    if all(flags.values()):
        # an exact branch has Bethe residuals zero through every window:
        # the first reading is skipped (the values are WORK_GUARD's either
        # way)
        for guard in (WORK_GUARD,) if ls.exact else (FIRST_GUARD, WORK_GUARD):
            vals = tuple(r.valuation() for r in residual(ls, spec, guard))
            if None not in vals:
                break
    return BetheReport(roots=roots, twist=twist, flags=flags,
                       residual_valuations=vals, bound=valuation_bound(spec))
