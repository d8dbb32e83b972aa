"""Reference lifts that the solver's faster loops are held to (tests only).

lift_newton is the loop that ``qqsystems.lifting.lift_newton`` replaced
with an online residual: at every order k it evaluates the Series residual
of the jet truncated at k, reads only its s^k coefficient and sets
c_k = -J0^-1 defect_k, with the general J0^-1 that row reduction of
``jacobian_at_zero`` gives where ``lift_newton`` reads it in closed form.
The property test in ``test_lifting.py`` holds ``lift_newton`` to this
loop: equal lifts, equal JSON.

lift_ramified_every_index is the loop that
``qqsystems.lifting.lift_ramified`` replaced with a search at the indices
the base admits (``admitted_indices``): it runs the same branch search at
every N from 1 to N_max.  The equivalence tests hold ``lift_ramified`` to
it: equal lifts, and the same exception type and reason.
"""

from __future__ import annotations

from typing import List

from qqsystems.infinite import InfiniteSolution
from qqsystems.linalg import solve_unique
from qqsystems.lifting import (LiftedSolution, RamificationBoundExceededError,
                               _branch_key, _branch_search, _coeff_keys)
from qqsystems.scalar import ONE, ZERO
from qqsystems.series import Series
from qqsystems.systems import (CandidatePoint, ProblemSpec, evaluate_residual,
                               expanded_residual, jacobian_at_zero)


def lift_newton(sol: InfiniteSolution, spec: ProblemSpec) -> LiftedSolution:
    dim = spec.m + spec.n
    identity = [[ONE if c == i else ZERO for c in range(dim)]
                for i in range(dim)]
    j0 = jacobian_at_zero(expanded_residual(spec, sol.x0 + sol.y0))
    inverse = solve_unique(j0, identity)
    K = spec.K
    coeffs = [[v] + [ZERO] * K for v in list(sol.x0) + list(sol.y0)]

    def point_through(top: int) -> CandidatePoint:
        xs = tuple(Series(1, coeffs[i][:top + 1]) for i in range(spec.m))
        ys = tuple(Series(1, coeffs[spec.m + j][:top + 1])
                   for j in range(spec.n))
        return CandidatePoint(xs, ys)

    for k in range(1, K + 1):
        res = evaluate_residual(point_through(k), spec)
        defect = [comp.coeff(k) for comp in res]
        if all(d.is_zero for d in defect):
            continue
        for i, row in enumerate(inverse):
            coeffs[i][k] = -sum((a * d for a, d in zip(row, defect)), ZERO)
    return LiftedSolution.of(point_through(K), sol, spec)


def lift_ramified_every_index(sol: InfiniteSolution, spec: ProblemSpec
                              ) -> List[LiftedSolution]:
    n_max = spec.ramification_bound
    expansion = expanded_residual(spec, sol.x0 + sol.y0)
    found: List[LiftedSolution] = []
    seen_keys = set()
    dropped_outside_field = 0
    for n_ram in range(1, n_max + 1):
        points, dropped = _branch_search(sol, spec, expansion, n_ram)
        dropped_outside_field += dropped
        for point in points:
            key = _branch_key(point)
            if key in seen_keys:
                continue
            lifted = LiftedSolution.of(point, sol, spec)
            if not lifted.certified():
                continue
            seen_keys.add(key)
            found.append(lifted)
    if not found:
        extra = ""
        if dropped_outside_field:
            extra = (f" ({dropped_outside_field} branch(es) exist with "
                     "coefficients outside the Gaussian rationals and were "
                     "dropped; this base is not liftable in the exact field)")
        raise RamificationBoundExceededError(
            f"no branch certified for any ramification index <= {n_max}"
            + extra)
    found.sort(key=lambda ls: (ls.n_ram, _coeff_keys(ls.point.x),
                               _coeff_keys(ls.point.y)))
    return found
