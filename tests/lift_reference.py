"""Reference lifts that the solver's faster loops are held to (tests only).

lift_newton is the loop that ``qqsystems.lifting.lift_newton`` replaced
with an online residual: at every order k it evaluates the Series residual
of the jet truncated at k, reads only its s^k coefficient and sets
c_k = -J0^-1 defect_k, with the general J0^-1 that row reduction of
``jacobian_at_zero`` gives where ``lift_newton`` reads it in closed form.
The property test in ``test_lifting.py`` holds ``lift_newton`` to this
loop: equal lifts, equal JSON.

lift_ramified_every_index is ``qqsystems.lifting.lift_ramified`` with
``admitted_indices`` patched to return every N from 1 to N_max, as the
search ran before it read the indices a base admits.  It shares every
other line with production, so the equivalence tests that hold
``lift_ramified`` to it (equal lifts, and the same exception type and
reason) test the index reader alone.
"""

from __future__ import annotations

from typing import List
from unittest import mock

from qqsystems import lifting
from qqsystems.infinite import InfiniteSolution
from qqsystems.linalg import solve_unique
from qqsystems.lifting import LiftedSolution
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
    def every_index(sol, spec):
        return list(range(1, spec.ramification_bound + 1))

    with mock.patch.object(lifting, "admitted_indices", every_index):
        return lifting.lift_ramified(sol, spec)
