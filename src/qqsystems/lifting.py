"""Order-by-order lifting of infinite-system solutions.

Generic bases (invertible t=0 Jacobian) lift by exact Newton/Hensel
iteration: each order sets c_k = -J0^-1 defect_k over Q(i), with J0^-1
in closed form at Lambda's shifts (systems.jacobian_inverse_at_zero), and
reads defect_k from the online residual, built once per base, which
computes one new coefficient per intermediate series at each order.
Generic bases call neither jacobian_at_zero nor solve_unique; the
general inverse, solve_unique of J0 and the identity, lives on as the
test reference (tests/lift_reference.py) that the closed form is held
to.  solve_unique stays imported here because perfbench/spans.py wraps
it under this module's name (tests/test_call_sites.py).  Degenerate
bases go through a ramification search: expand the residual once in
(delta, t) at the base, read the base check and the J0 to row-reduce
from that expansion's constant and delta-linear terms
(jacobian_at_zero), substitute t = s^N, carry each branch as one sympy
correction jet per unknown (the delta) whose coefficients hold the
kernel directions of the singular Jacobian as symbolic parameters, and
branch on the finitely many parameter values that keep the next orders
consistent.  Each distinct constraint system is solved once per
base, and one whose Groebner basis is [1] is closed without sympy.solve.
A finished branch is read out once, with its ramification normalised.
Every returned branch carries an exact residual-valuation certificate,
which makes correctness independent of how the series was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .infinite import InfiniteSolution
from .linalg import SingularJacobianError, rref, solve_unique  # noqa: F401
from .scalar import Scalar, ZERO, ONE, dot
from .series import OnlineSeries, Series
from .systems import (CandidatePoint, ProblemSpec, evaluate_residual,
                      expanded_residual, jacobian_at_zero,
                      jacobian_inverse_at_zero, online_residual)


class LiftError(RuntimeError):
    """A base that cannot be lifted; `reason` names why in the report."""


class RamificationBoundExceededError(LiftError):
    """No branch certified at any ramification index up to the bound."""

    reason = "ramification_bound_exceeded"


class BranchExplosionError(LiftError):
    """The ramified search holds more than _MAX_BRANCHES open branches."""

    reason = "branch_explosion"


class UndecidedConstraintsError(LiftError):
    """sympy can neither solve a consistency constraint system of the
    search nor prove it empty."""

    reason = "undecided_constraints"


# extra window (in s-exponents, per unit of N) used when certifying: the
# truncated point is treated as an exact polynomial so that the residual's
# true leading order is visible slightly beyond the lift order
CERTIFY_GUARD = 2


@dataclass(frozen=True)
class LiftedSolution:
    """A truncated series solution with its residual certificate.

    lift_newton's coefficients do not depend on K, so the lift of a base
    at a lower K is the same jets cut short.
    """

    point: CandidatePoint
    base: InfiniteSolution
    alpha: Optional[Series]  # difference mode: 1/(q^m - t q^n), recomputed
    residual_valuation: Fraction

    @property
    def n_ram(self) -> int:
        return self.point.n_ram

    @property
    def order(self) -> int:
        return self.point.top

    def certified(self) -> bool:
        return self.residual_valuation >= Fraction(self.order + 1, self.n_ram)

    @staticmethod
    def of(point: CandidatePoint, base: InfiniteSolution, spec: ProblemSpec
           ) -> "LiftedSolution":
        """The point with its residual certificate and, in difference mode,
        alpha = 1/(q^m - t q^n) through the point's window."""
        top, n_ram = point.top, point.n_ram
        alpha = (Series.const(spec.q ** spec.m, top, n_ram)
                 - Series.const(spec.q ** spec.n, top, n_ram).shift(n_ram)
                 ).reciprocal() if spec.is_difference else None
        return LiftedSolution(point, base, alpha,
                              certify_residual_point(point, spec))

    def to_json(self):
        return {"N": self.n_ram, "order": self.order,
                "x": [s.to_json() for s in self.point.x],
                "y": [s.to_json() for s in self.point.y],
                "alpha": self.alpha.to_json() if self.alpha else None,
                "residual_valuation": str(self.residual_valuation),
                "base": self.base.to_json()}


def certify_residual_point(point: CandidatePoint, spec: ProblemSpec) -> Fraction:
    """Exact minimum valuation of the residual of the given truncated point.

    The point is widened (its unknown tail taken as exactly zero), so the
    value is the true valuation of the residual of the jet-as-polynomial.
    The residual is read first through s^(top + N).  A component that is
    zero there has a valuation above every nonzero one found, so any
    nonzero component decides the value.  Only when every component
    vanishes is it read again, through s^(top + CERTIFY_GUARD N), and when
    every component vanishes there too the returned value is that window's
    bound, a certified lower bound.
    """
    n_ram = point.n_ram
    for guard in (1, CERTIFY_GUARD):
        eval_top = point.top + guard * n_ram
        vals = [comp.valuation()
                for comp in evaluate_residual(point.widen(eval_top), spec)]
        found = [v for v in vals if v is not None]
        if found:
            return min(found)
    return Fraction(eval_top + 1, n_ram)


# ---------------------------------------------------------------------------
# generic (Newton/Hensel) path


def lift_newton(sol: InfiniteSolution, spec: ProblemSpec) -> LiftedSolution:
    """Unique order-K lift of a generic base (N = 1).

    Order k sets c_k = -J0^-1 defect_k, each entry one integer dot
    product (scalar.dot) of a row of -J0^-1 with the defect.  J0^-1 is
    read in closed form from Lambda's shifts at the base
    (jacobian_inverse_at_zero; SingularJacobianError at a repeated one),
    with no row reduction.  The residual is built once over online series
    whose leaves read the coefficient table; its order-0 coefficients are
    the base check (ValueError unless they vanish).  The order-k residual
    coefficient reads only coefficients of order <= k, so read with c_k = 0
    it is defect_k; once c_k is set, what was computed from c_k = 0 is
    dropped and computed again at the next order.
    """
    K = spec.K
    coeffs = [[v] + [ZERO] * K for v in list(sol.x0) + list(sol.y0)]
    unknowns = OnlineSeries.leaves(coeffs)
    residual = online_residual(unknowns, spec)
    if not all(comp.coeff(0).is_zero for comp in residual):
        raise ValueError("point is not a solution of the infinite system")
    step = [[-a for a in row] for row in jacobian_inverse_at_zero(sol, spec)]
    for k in range(1, K + 1):
        defect = [comp.coeff(k) for comp in residual]
        for i, row in enumerate(step):
            coeffs[i][k] = dot(row, defect)
        unknowns[0].forget_from(k)  # the leaves share one family
    jets = [Series(1, row) for row in coeffs]
    point = CandidatePoint(tuple(jets[:spec.m]), tuple(jets[spec.m:]))
    return LiftedSolution.of(point, sol, spec)


# ---------------------------------------------------------------------------
# degenerate (ramified, branching) path


_MAX_BRANCHES = 256


def lift_ramified(sol: InfiniteSolution, spec: ProblemSpec
                  ) -> List[LiftedSolution]:
    """All certified branches over ramification indices 1..N_max.

    N_max is spec.ramification_bound.  Each branch comes out of the search
    with its minimal ramification, and a series found again at a higher
    index is dropped, so each series solution appears once.  At a generic
    base the one branch, found at N = 1, is the Newton lift; the CLI sends
    such bases to lift_newton instead.
    """
    n_max = spec.ramification_bound
    expansion = expanded_residual(spec, sol.x0 + sol.y0)
    # [J0 | I] reduces to [R | L] with L * J0 = R, in sympy once per base
    red, pivots = rref([row + [ONE if c == i else ZERO for c in range(len(row))]
                        for i, row in enumerate(jacobian_at_zero(expansion))])
    reduced = ([[_scalar_to_sympy(e) for e in row] for row in red], pivots)
    residual = [[(mono, _scalar_to_sympy(c)) for mono, c in comp.terms.items()]
                for comp in expansion]
    found: List[LiftedSolution] = []
    seen_keys = set()
    dropped_outside_field = 0
    solved: Dict[tuple, List[dict]] = {}
    for n_ram in range(1, n_max + 1):
        points, dropped = _branch_search(sol, spec, reduced, residual, n_ram,
                                         solved)
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


def _coeff_keys(series: Sequence[Series]):
    return tuple(tuple(c.sort_key() for c in s.coeffs) for s in series)


def _branch_key(point: CandidatePoint):
    """The same for branches that differ by an order of the x's or y's."""
    return (point.n_ram, tuple(sorted(_coeff_keys(point.x))),
            tuple(sorted(_coeff_keys(point.y))))


def _branch_search(sol: InfiniteSolution, spec: ProblemSpec,
                   reduced: Tuple[list, List[int]], residual: List[list],
                   n_ram: int, solved: Dict[tuple, List[dict]]
                   ) -> Tuple[List[CandidatePoint], int]:
    """Symbolic order-by-order search in s (t = s^N) with kernel branching.

    A branch is one correction jet per unknown, the list [0, c_1, c_2, ...]
    of its s-coefficients in sympy, which may hold kernel parameters
    brk_{order}_{c}.  `reduced` is rref of [J0 | I] for the singular t=0
    Jacobian J0, in sympy, with its pivot columns, and `residual` the
    sympy terms of expanded_residual at the base.  At every s-order the
    residual at delta = the jets, t = s^N gives the defect, multiplied
    out only through that order, and the rows whose pivot lies in the L
    block give polynomial consistency constraints on the parameters,
    whose finitely many exact solutions are branched on.
    `solved` is the base's table of constraint systems already solved:
    sibling branches, and the same order at another N, often meet the
    same system again.  A system whose Groebner basis is [1] has no
    solution and closes its branch without sympy.solve.
    After the last order the parameters still free are pinned to zero
    and each branch is read out with its ramification normalised: when
    g = gcd(N, exponents of its nonzero coefficients) > 1 it is a series
    in s^g with index N/g.  Branches with a coefficient outside Q(i) are
    counted as dropped.
    """
    import sympy as sp

    dim = spec.m + spec.n
    k_s = spec.K * n_ram
    red, pivots = reduced
    # a row whose pivot lies in the L block is a zero row of R and yields
    # consistency constraints
    pivot_rows = [(i, c) for i, c in enumerate(pivots) if c < dim]
    zero_rows = [i for i, c in enumerate(pivots) if c >= dim]
    free_cols = [c for c in range(dim) if c not in pivots]

    def coeff_of_product(jets, powers, deg):
        """The s^deg coefficient of prod jets[i]^powers[i]; zip stops at
        the jets, so a residual term's exponents serve as the powers."""
        acc = [sp.Integer(1)] + [sp.Integer(0)] * deg
        for jet in [j for j, a in zip(jets, powers) for _ in range(a)]:
            acc = [sp.Add(*[acc[k - e] * c for e, c in enumerate(jet[:k + 1])])
                   for k in range(deg + 1)]
        return acc[deg]

    branches = [[[sp.Integer(0)]] * dim]
    for order in range(1, k_s + 1):
        next_branches = []
        for jets in branches:
            # a term c delta^a t^j reads s^(order - N j) of delta^a
            defect = [sp.expand(sp.Add(*[
                c * coeff_of_product(jets, u, order - n_ram * u[dim])
                for u, c in comp if n_ram * u[dim] <= order]))
                for comp in residual]
            rhs = [sp.Add(*[-l * d for l, d in zip(row[dim:], defect)])
                   for row in red]
            for subs in _constraint_solutions([rhs[i] for i in zero_rows],
                                              solved):
                params = [sp.Symbol(f"brk_{order}_{c}") for c in free_cols]
                corr = dict(zip(free_cols, params))
                for i, pc in pivot_rows:
                    val = rhs[i].subs(subs)
                    for p, c in zip(params, free_cols):
                        val = val - red[i][c] * p
                    corr[pc] = sp.expand(val)
                next_branches.append([[v.subs(subs) for v in jet] + [corr[i]]
                                      for i, jet in enumerate(jets)])
        if len(next_branches) > _MAX_BRANCHES:
            raise BranchExplosionError(
                f"{len(next_branches)} open branches at s-order {order} "
                f"for N = {n_ram} exceed the limit {_MAX_BRANCHES}")
        branches = next_branches

    points = []
    dropped = 0
    for jets in branches:
        pin = {p: 0 for jet in jets for c in jet for p in c.free_symbols}
        rows = [[b] + [_try_scalar(sp.expand(c.subs(pin))) for c in jet[1:]]
                for b, jet in zip(sol.x0 + sol.y0, jets)]
        if any(c is None for row in rows for c in row):
            dropped += 1
            continue
        g = gcd(n_ram, *(k for row in rows for k, c in enumerate(row)
                         if not c.is_zero))
        series = [Series(n_ram // g, row[::g]) for row in rows]
        points.append(CandidatePoint(tuple(series[:spec.m]),
                                     tuple(series[spec.m:])))
    return points, dropped


def _scalar_to_sympy(c: Scalar):
    import sympy as sp
    return sp.Rational(c.re) + sp.I * sp.Rational(c.im)


def _try_scalar(expr) -> Optional[Scalar]:
    """Convert an exact sympy number to a Scalar; None outside Q(i)."""
    import sympy as sp
    re, im = sp.simplify(expr).as_real_imag()
    try:
        re_q = sp.Rational(sp.simplify(re))
        im_q = sp.Rational(sp.simplify(im))
    except (TypeError, ValueError):
        return None
    return Scalar(Fraction(re_q.p, re_q.q), Fraction(im_q.p, im_q.q))


def _constraint_solutions(constraints, solved: Dict[tuple, List[dict]]
                          ) -> List[dict]:
    """Exact solutions of the pending consistency constraints, as
    substitution dicts (one empty dict when nothing is constrained; none
    when the constraints are inconsistent).  A system found in `solved`
    is not solved again.  A Groebner basis [1] proves the system empty
    over C (Nullstellensatz) before sympy.solve is tried.
    UndecidedConstraintsError when sympy can neither solve the system nor
    prove it empty."""
    import sympy as sp
    from sympy.polys.polyerrors import BasePolynomialError
    live = tuple(c for c in map(sp.expand, constraints) if c != 0)
    if live in solved:
        return solved[live]
    if not live:
        return [{}]
    involved = sorted({p for c in live for p in c.free_symbols},
                      key=lambda p: p.name)
    if not involved:
        return []  # nonzero constant constraint
    try:
        empty = sp.groebner(live, *involved, order="grevlex",
                            extension=True).exprs == [1]
    except (BasePolynomialError, NotImplementedError):
        empty = False
    try:
        sols = [] if empty else sp.solve(list(live), involved, dict=True)
    except NotImplementedError as exc:
        raise UndecidedConstraintsError(
            f"sympy cannot solve {len(live)} consistency constraint(s) on "
            + ", ".join(p.name for p in involved)) from exc
    solved[live] = [{key: sp.expand(val) for key, val in sol_map.items()}
                    for sol_map in sols]
    return solved[live]
