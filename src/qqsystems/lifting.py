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
bases go through a ramification search, run only at the indices N <=
N_max the base admits (admitted_indices).  Where min(m, n) <= 1 these
are read from Newton polygons of the rank-one eliminant
(systems.eliminant; Walker, Algebraic Curves, ch. IV) at the base: a
superset of the indices its branches have, searched in ascending order.
Where min(m, n) >= 2 every N <= N_max is searched.  The residual is
expanded once in (delta, t) at the base; the search at each N is a pure
function of the base, that expansion and N, exact types at both edges.
It reads the base check and the J0 to row-reduce from the expansion's
constant and delta-linear terms (jacobian_at_zero), substitutes t = s^N,
carries each branch as one correction jet per unknown (the delta) whose
coefficients hold the kernel directions of the singular Jacobian as
parameters, and branches on the finitely many parameter values that keep
the next orders consistent.  How each constraint system is solved, in
which ring the jets live and which branches leave the search outside Q(i)
is exact_jets' to decide: SparsePoly over Q(i) first, solved without a
radical, and sympy only where that declines a system.  This module
imports no sympy; exact_jets is imported on the degenerate path only, at
its first call.
Both rings share the search loop and its readout, and a finished branch
is read out once, with its ramification normalised.
Both paths return every branch they find in Q(i) with its exact
residual-valuation certificate and drop none for failing it: each lift
states its own verdict (LiftedSolution.certificate_failure, the one place
the bound (order + 1)/N is written), and the CLI records it for Newton and
ramified lifts alike, so correctness is independent of how the series was
found, and a branch whose certificate fails is reported, not dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .infinite import InfiniteSolution
from .linalg import SingularJacobianError, rref, solve_unique  # noqa: F401
from .poly import SparsePoly, poly_gcd
from .scalar import Scalar, ZERO, ONE, dot
from .series import OnlineSeries, Series
from .systems import (CandidatePoint, ProblemSpec, eliminant,
                      evaluate_residual, expanded_residual, jacobian_at_zero,
                      jacobian_inverse_at_zero, online_residual)


class LiftError(RuntimeError):
    """A base that cannot be lifted; `reason` names why in the report."""


class RamificationBoundExceededError(LiftError):
    """The search found no branch at any ramification index up to the
    bound."""

    reason = "ramification_bound_exceeded"


class BranchExplosionError(LiftError):
    """The ramified search holds more than _MAX_BRANCHES open branches."""

    reason = "branch_explosion"


# extra window (in s-exponents, per unit of N) used when certifying: the
# truncated point is treated as an exact polynomial so that the residual's
# true leading order is visible slightly beyond the lift order
CERTIFY_GUARD = 2


@dataclass(frozen=True)
class LiftedSolution:
    """A truncated series solution with its residual certificate and the
    certificate's verdict, which its JSON states as "certified".

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

    @property
    def certificate_failure(self) -> Optional[str]:
        """Why the certificate fails, or None: the residual valuation must
        reach (order + 1)/N, one s-order past the lift."""
        bound = Fraction(self.order + 1, self.n_ram)
        return (f"residual valuation {self.residual_valuation} < {bound}"
                if self.residual_valuation < bound else None)

    def certified(self) -> bool:
        return self.certificate_failure is None

    @property
    def exact(self) -> bool:
        """True when the certificate read every residual component as zero
        through top + CERTIFY_GUARD N, as on an exact branch: its value is
        then that window's bound (certify_residual_point)."""
        return (self.residual_valuation * self.n_ram
                > self.order + CERTIFY_GUARD * self.n_ram)

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
                "base": self.base.to_json(), "certified": self.certified()}


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
    """Every branch at the ramification indices the base admits, each
    with its certificate, none dropped for failing it: the CLI lists an
    uncertified lift and records the certificate_failure it states.

    The branch search runs at each N <= N_max that admitted_indices
    leaves (every N when min(m, n) >= 2); N_max, spec.ramification_bound,
    is a cap.  Each branch comes out of the search with its minimal
    ramification, and a series found again at a higher index is dropped,
    so each series solution appears once.  ramification_bound_exceeded is
    raised only when the search returns no branch; its message counts the
    branches dropped outside Q(i) at the searched indices only, each once
    where it was dropped: at the first order where a parameter-free
    coefficient leaves Q(i), or at readout where one leaves it once the
    free parameters are pinned to zero.  At a generic base the one
    branch, found at N = 1, is the Newton lift; the CLI sends such bases
    to lift_newton instead.
    """
    n_max = spec.ramification_bound
    expansion = expanded_residual(spec, sol.x0 + sol.y0)
    found: List[LiftedSolution] = []
    seen_keys = set()
    dropped_outside_field = 0
    for n_ram in admitted_indices(sol, spec):
        points, dropped = _branch_search(sol, spec, expansion, n_ram)
        dropped_outside_field += dropped
        for point in points:
            key = _branch_key(point)
            if key not in seen_keys:
                seen_keys.add(key)
                found.append(LiftedSolution.of(point, sol, spec))
    if not found:
        extra = ""
        if dropped_outside_field:
            extra = (f" ({dropped_outside_field} branch(es) exist with "
                     "coefficients outside the Gaussian rationals and were "
                     "dropped; this base is not liftable in the exact field)")
        raise RamificationBoundExceededError(
            f"no branch found at any ramification index <= {n_max}"
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
                   expansion: List[SparsePoly], n_ram: int
                   ) -> Tuple[List[CandidatePoint], int]:
    """Symbolic order-by-order search in s (t = s^N) with kernel branching.

    A pure function of the base, its expanded_residual `expansion` (the
    SparsePoly components in (delta, t)) and N: its inputs and outputs are
    exact types.  It reduces [J0 | I], J0 the singular t=0 Jacobian
    (jacobian_at_zero, which also checks the base), to [R | L] with L J0 =
    R.  A branch is one correction jet per unknown, the list [0, c_1, c_2,
    ...] of its s-coefficients, which may hold kernel parameters
    brk_{order}_{c}.  At every s-order the residual at delta = the jets, t
    = s^N gives the defect, multiplied out only through that order, and
    the rows whose pivot lies in the L block give polynomial consistency
    constraints on the parameters, whose finitely many exact solutions are
    branched on.
    The jets live in one of two rings, which share this loop and its
    readout: exact_jets.ExactJets first, and where it declines a system,
    exact_jets.SympyJets from the index's first order.  Both rings'
    elements substitute a solution map through their own subs.
    After every order, the last one included, the ring's prune drops the
    branches with a parameter-free coefficient outside Q(i), before the
    _MAX_BRANCHES check.
    After the last order the parameters still free are pinned to zero and
    each branch is read out with its ramification normalised: when g =
    gcd(N, exponents of its nonzero coefficients) > 1 it is a series in
    s^g with index N/g.  A branch with a coefficient that leaves Q(i) only
    once its parameters are pinned is dropped there.  Each dropped branch
    counts once in the returned count: a pruned branch is not followed to
    its leaves.
    """
    dim = spec.m + spec.n
    reduced, pivots = rref([row + [ONE if c == i else ZERO for c in range(dim)]
                            for i, row in enumerate(jacobian_at_zero(expansion))])
    # a row whose pivot lies in the L block is a zero row of R and yields
    # consistency constraints
    pivot_rows = [(i, c) for i, c in enumerate(pivots) if c < dim]
    zero_rows = [i for i, c in enumerate(pivots) if c >= dim]
    free_cols = [c for c in range(dim) if c not in pivots]

    def search(ring):
        red = [[ring.const(e) for e in row] for row in reduced]
        residual = [[(mono, ring.const(c)) for mono, c in comp.terms.items()]
                    for comp in expansion]

        def coeff_of_product(jets, powers, deg):
            """The s^deg coefficient of prod jets[i]^powers[i]; zip stops at
            the jets, so a residual term's exponents serve as the powers."""
            acc = [ring.one] + [ring.zero] * deg
            for jet in [j for j, a in zip(jets, powers) for _ in range(a)]:
                acc = [ring.add(*[acc[k - e] * c
                                  for e, c in enumerate(jet[:k + 1])])
                       for k in range(deg + 1)]
            return acc[deg]

        branches = [[[ring.zero]] * dim]
        dropped = 0
        for order in range(1, spec.K * n_ram + 1):
            next_branches = []
            for jets in branches:
                # a term c delta^a t^j reads s^(order - N j) of delta^a
                defect = [ring.expand(ring.add(*[
                    c * coeff_of_product(jets, u, order - n_ram * u[dim])
                    for u, c in comp if n_ram * u[dim] <= order]))
                    for comp in residual]
                rhs = [ring.add(*[-l * d for l, d in zip(row[dim:], defect)])
                       for row in red]
                for assignment in ring.solve([rhs[i] for i in zero_rows]):
                    params = ring.params(order, free_cols)
                    corr = dict(zip(free_cols, params))
                    for i, pc in pivot_rows:
                        val = rhs[i].subs(assignment)
                        for p, c in zip(params, free_cols):
                            val = val - red[i][c] * p
                        corr[pc] = ring.expand(val)
                    next_branches.append([[v.subs(assignment) for v in jet]
                                          + [corr[i]]
                                          for i, jet in enumerate(jets)])
            next_branches, pruned = ring.prune(next_branches)
            dropped += pruned
            if len(next_branches) > _MAX_BRANCHES:
                raise BranchExplosionError(
                    f"{len(next_branches)} open branches at s-order {order} "
                    f"for N = {n_ram} exceed the limit {_MAX_BRANCHES}")
            branches = next_branches

        points = []
        for jets in branches:
            rows = [[b] + coeffs
                    for b, coeffs in zip(sol.x0 + sol.y0, ring.pinned(jets))]
            if any(c is None for row in rows for c in row):
                dropped += 1
                continue
            g = gcd(n_ram, *(k for row in rows for k, c in enumerate(row)
                             if not c.is_zero))
            series = [Series(n_ram // g, row[::g]) for row in rows]
            points.append(CandidatePoint(tuple(series[:spec.m]),
                                         tuple(series[spec.m:])))
        return points, dropped

    from .exact_jets import Declined, ExactJets, SympyJets
    try:
        return search(ExactJets(spec.K * n_ram, free_cols))
    except Declined:
        return search(SympyJets())


# ---------------------------------------------------------------------------
# the ramification indices a degenerate base admits


def admitted_indices(sol: InfiniteSolution, spec: ProblemSpec) -> List[int]:
    """The indices N <= N_max at which a branch through the base can lie,
    ascending: every N when min(m, n) >= 2.

    For k = min(m, n) <= 1 they are read from the rank-one eliminant
    (systems.eliminant) by Newton polygons (ramification_indices), one
    set per coordinate: the smaller side's root v from F at its base
    value; a root x0 that the larger side repeats at the base from
    G(u, t) = Res_v(F, L(-u)) at x0 (L(-u) itself when k = 0); a simple
    root of the larger side is analytic in that side's coefficients, so
    its index divides v's.  A branch's index is the lcm of its
    coordinates' indices, so the lcms of one index per set, at most N_max,
    hold every branch's.
    """
    n_max = spec.ramification_bound
    k = min(spec.m, spec.n)
    if k > 1:
        return list(range(1, n_max + 1))
    f, larger = eliminant(spec)
    big, small = (sol.x0, sol.y0) if spec.m >= spec.n else (sol.y0, sol.x0)
    per_coordinate = [ramification_indices(f, small[0])] if k else []
    repeated = sorted({x for x in big if big.count(x) > 1},
                      key=Scalar.sort_key)
    if repeated:
        from .exact_jets import larger_side_eliminant
        g = larger_side_eliminant(f, larger)
        per_coordinate += [ramification_indices(g, x) for x in repeated]
    admitted = {1}
    for options in per_coordinate:
        admitted = {lcm(a, b) for a in admitted for b in options
                    if lcm(a, b) <= n_max}
    return sorted(admitted)


def ramification_indices(poly: SparsePoly, root: Scalar) -> Set[int]:
    """The ramification indices the branches v(t) -> root of poly(v, t) = 0
    can have: a superset of the true ones, read from the lower Newton
    polygon of H(w, t) = poly(root + w, t) (Walker, Algebraic Curves,
    ch. IV).

    A factor w^i0 of H is the branch v = root exactly: index 1.  The other
    branches through root lie on the polygon's edges of negative slope,
    from the point of least w-degree to the first point of least t-degree.
    An edge of slope -p/q in lowest terms gives branches w = c t^(p/q) +
    ..., c a root of its characteristic polynomial, a polynomial in c^q:
    of index exactly q where c is a simple root, and of index q j for some
    j up to r where c has multiplicity r.  So each edge adds q j for every
    j up to the largest multiplicity of its characteristic polynomial.
    """
    shifted = poly.subs({0: SparsePoly.variable(0, 2) + root}).terms
    low: Dict[int, int] = {}
    for i, j in shifted:
        if j < low.get(i, j + 1):
            low[i] = j
    bottom = min(low.values())
    right = min(i for i, j in low.items() if j == bottom)
    indices = {1} if min(low) > 0 else set()
    hull: List[Tuple[int, int]] = []
    for i, j in sorted(item for item in low.items() if item[0] <= right):
        while len(hull) > 1:  # drop a last vertex on or above the chord
            (i0, j0), (i1, j1) = hull[-2:]
            if (i1 - i0) * (j - j0) > (j1 - j0) * (i - i0):
                break
            hull.pop()
        hull.append((i, j))
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        q = Fraction(j1 - j2, i2 - i1).denominator
        step = (j1 - j2) * q // (i2 - i1)  # the t-degree falls by p per q
        chi = [shifted.get((i1 + q * e, j1 - step * e), ZERO)
               for e in range((i2 - i1) // q + 1)]
        indices |= {q * j for j in range(1, _largest_multiplicity(chi) + 1)}
    return indices


def _largest_multiplicity(f: List[Scalar]) -> int:
    """The largest multiplicity of a root of f (coefficients lowest first,
    degree >= 1): how often f <- gcd(f, f') runs until f is constant."""
    r = 0
    while len(f) > 1:
        f, r = poly_gcd(f, [c * e for e, c in enumerate(f)][1:]), r + 1
    return r
