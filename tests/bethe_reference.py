"""Reference Bethe nondegeneracy flags in three passes (tests only).

This is the check that ``qqsystems.bethe.nondegeneracy_check`` replaced
with one comparison per pair.  It tests every root pair for equality,
every (root, Lambda zero) pair for equality, and then, in QQ mode, every
root against every other root and Lambda zero again, from both sides,
at the pair's one candidate exponent k.  The property tests in
``test_bethe.py`` hold the one-pass flags to these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from qqsystems.bethe import UndecidableQDistinctnessError
from qqsystems.series import Series


def nondegeneracy_check(roots, spec) -> Dict[str, bool]:
    """simple_zeros, disjoint_from_lambda and, in QQ mode, q_distinct of
    the roots w_l (jets sharing one window) against spec's Lambda."""
    flags = {"simple_zeros": True, "disjoint_from_lambda": True}
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if (roots[i] - roots[j]).is_zero:
                flags["simple_zeros"] = False
    zeros = [(-a, mult) for a, mult in spec.lam.shifts]
    for w in roots:
        for zv, _ in zeros:
            if (w - zv).is_zero:
                flags["disjoint_from_lambda"] = False
    if spec.is_difference:
        flags["q_distinct"] = _q_distinct(roots, zeros, spec)
    return flags


def _q_distinct(roots, zeros, spec) -> bool:
    q = spec.q
    q2 = q.abs2()
    if q2 == 1:
        raise UndecidableQDistinctnessError("|q| = 1")
    if not roots:
        return True
    targets = list(roots) + [Series.const(zv, roots[0].top, roots[0].n_ram)
                             for zv, _ in zeros]
    for i in range(len(roots)):
        for j in range(len(targets)):
            if i == j:
                continue
            k = _collision_exponent(targets[i], targets[j], q2)
            if k is None or (k == 0 and j < len(roots)):
                continue
            if (targets[i] * q ** k - targets[j]).is_zero:
                return False
    return True


def _collision_exponent(w: Series, v: Series, q2: Fraction) -> Optional[int]:
    lw, lv = w.lowest_term(), v.lowest_term()
    if lw is None or lv is None:
        return 1
    if lw[0] != lv[0]:
        return None
    ratio = lv[1].abs2() / lw[1].abs2()
    bound = max(ratio.numerator.bit_length(), ratio.denominator.bit_length())
    return next((k for k in range(-bound, bound + 1) if q2 ** k == ratio),
                None)
