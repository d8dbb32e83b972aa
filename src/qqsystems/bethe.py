"""Bethe-equation verification for lifted solutions.

The plus-part roots w_l = -x_l(t) are the Bethe roots.  Residuals are
checked in t-cleared form, so everything stays a truncated series:

  Gaudin:  R_l = 1 + t * (sum_j n_j/(w_l - z_j) - sum_{s != l} 2/(w_l - w_s)),
           from 2*zeta + sum_j n_j/(w_l - z_j) - sum_{s != l} 2/(w_l - w_s) = 0
           with the twist dictionary 2*zeta = 1/t;
  XXZ:     C_l = Q+(q w_l) * Lambda(w_l / q) + t * Q+(w_l / q) * Lambda(w_l),
           the two-point clearing of the quotient form, twist zeta^2 = 1/t.

Zero positions use z_j = -a_j for the master shifts a_j with n_j = m_j.
Nondegeneracy (simple, Lambda-disjoint, q-distinct) is decided at the
level of truncated series: the pairwise differences must be invertible
jets, which is exactly what makes the cleared residuals well-defined.
Residuals are only emitted when the applicable flags pass.  The jets are
exact polynomials, so every coefficient inside a residual's window is
exact: bethe_report reads the residuals from jets widened by FIRST_GUARD
t-orders, and by WORK_GUARD only when some residual is zero through that
first window, and reports the valuations WORK_GUARD alone would give.  An
exact branch, whose residual certificate found every component zero
through its window, is read once, at WORK_GUARD.  The Gaudin sum takes one
reciprocal per unordered root pair: 1/(w_s - w_l) = -1/(w_l - w_s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .lifting import CERTIFY_GUARD, LiftedSolution
from .scalar import Scalar, ZERO, ONE
from .series import Series
from .systems import ProblemSpec

TWIST_GAUDIN = "2*zeta = 1/t"
TWIST_XXZ = "zeta^2 = 1/t"

# extra window (in t-orders) granted by treating the jet as an exact
# polynomial before dividing; reciprocal of a valuation-1 jet costs two.
# bethe_report reads the residuals at FIRST_GUARD, and at WORK_GUARD only
# when one of them is zero through that smaller window.  One t-order
# decides all 450 residuals of the 150 lifts of perfbench's generic-lift
# specs at seeds 1, 2 and 7; with none, the residual of an order-K lift is
# zero through its window and none of them is decided
FIRST_GUARD = 1
WORK_GUARD = 4


class UndecidableQDistinctnessError(ValueError):
    """|q| = 1 and q is not a root of unity: the moduli do not fix k."""


class NondegeneracyError(ValueError):
    """A residual denominator vanishes as a truncated series."""


@dataclass(frozen=True)
class BetheReport:
    """Nondegeneracy flags and Bethe residual valuations of one lift.

    residual_valuations is None when some flag fails: the residuals are
    gated and never computed.
    """

    roots: Tuple[Series, ...]
    twist: str
    flags: Dict[str, bool]
    residual_valuations: Optional[Tuple[Optional[Fraction], ...]]

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
    roots = _roots(ls)
    diff = spec.is_difference
    q2 = spec.q.abs2() if diff else None
    if q2 == 1:
        # validate() already rejects the Q(i) roots of unity; for any other
        # unit-modulus q the moduli do not fix k
        raise UndecidableQDistinctnessError(
            "|q| = 1 with q not a root of unity: the moduli of the roots "
            "do not fix the exponent k of a q-collision")
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
    jets widened to lift order + guard t-orders."""
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
            diff = w - zv
            if diff.is_zero:
                raise NondegeneracyError(
                    f"root {l + 1} collides with the Lambda zero {zv}")
            acc = acc + diff.reciprocal() * Scalar(mult)
        for s in range(l):
            acc = acc + pair[s, l]
        for s in range(l + 1, len(roots)):
            diff = w - roots[s]
            if diff.is_zero:
                raise NondegeneracyError(
                    f"roots {l + 1} and {s + 1} coincide")
            pair[l, s] = diff.reciprocal() * Scalar(2)
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
    at WORK_GUARD only when one of them is zero through the first window.
    """
    roots = _roots(ls)
    flags = nondegeneracy_check(ls, spec)
    twist = TWIST_XXZ if spec.is_difference else TWIST_GAUDIN
    if not all(flags.values()):
        return BetheReport(roots=roots, twist=twist, flags=flags,
                           residual_valuations=None)
    residual = xxz_residual if spec.is_difference else gaudin_residual
    # a certificate at its window bound found every residual component
    # zero, as on an exact branch, whose Bethe residuals are zero through
    # every window: the first reading is skipped (the values are
    # WORK_GUARD's either way)
    exact = (ls.residual_valuation * ls.n_ram
             > ls.order + CERTIFY_GUARD * ls.n_ram)
    for guard in (WORK_GUARD,) if exact else (FIRST_GUARD, WORK_GUARD):
        vals = [r.valuation() for r in residual(ls, spec, guard)]
        if None not in vals:
            break
    return BetheReport(roots=roots, twist=twist, flags=flags,
                       residual_valuations=tuple(vals))
