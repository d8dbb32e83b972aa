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
function of the base, that expansion and N, exact types at both edges and
sympy only inside.  It reads the base check and the J0 to row-reduce from
the expansion's constant and delta-linear terms (jacobian_at_zero),
substitutes t = s^N, carries each branch as one sympy correction jet per
unknown (the delta) whose coefficients hold the kernel directions of the
singular Jacobian as symbolic parameters, and branches on the finitely
many parameter values that keep the next orders consistent.  Each
constraint system is solved through its reduced Groebner basis: the same
ideal, hence the same solutions, without the system's redundant rows.  A
basis [1] closes its branch without sympy.solve.  A branch leaves the
search as soon as a jet coefficient that holds no parameter lies outside
Q(i), decided exactly (_try_scalar), after every order: substitution
never changes such a coefficient, so the readout would drop the branch
and all that grow from it.  It is counted once, as a dropped branch.
A finished branch is read out once, with its ramification normalised.
Both paths return every branch they find in Q(i) with its exact
residual-valuation certificate and judge none: the caller (the CLI) is the
one judge, for Newton and ramified lifts alike, so correctness is
independent of how the series was found, and a branch whose certificate
fails is reported, not dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .infinite import InfiniteSolution
from .linalg import SingularJacobianError, rref, solve_unique  # noqa: F401
from .poly import SparsePoly
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
    """Every branch at the ramification indices the base admits, each
    with its certificate, which is not judged here: the CLI lists an
    uncertified lift and records a certificate_failure for it.

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
                   expansion: List[SparsePoly], n_ram: int
                   ) -> Tuple[List[CandidatePoint], int]:
    """Symbolic order-by-order search in s (t = s^N) with kernel branching.

    A pure function of the base, its expanded_residual `expansion` (the
    SparsePoly components in (delta, t)) and N: its inputs and outputs are
    exact types, and sympy lives only inside it.  It reduces [J0 | I],
    J0 the singular t=0 Jacobian (jacobian_at_zero, which also checks the
    base), to [R | L] with L J0 = R, and turns R, L and the expansion's
    terms into sympy.  A branch is one correction jet per unknown, the
    list [0, c_1, c_2, ...] of its s-coefficients in sympy, which may
    hold kernel parameters brk_{order}_{c}.  At every s-order the
    residual at delta = the jets, t = s^N gives the defect, multiplied
    out only through that order, and the rows whose pivot lies in the L
    block give polynomial consistency constraints on the parameters,
    whose finitely many exact solutions (_constraint_solutions) are
    branched on.
    After every order, the last one included, _prune_outside_field drops
    the branches with a parameter-free coefficient outside Q(i), before
    the _MAX_BRANCHES check.  After the last order the parameters still
    free are pinned to zero and each branch is read out with its
    ramification normalised: when g = gcd(N, exponents of its nonzero
    coefficients) > 1 it is a series in s^g with index N/g.  A branch
    with a coefficient that leaves Q(i) only once its parameters are
    pinned is dropped there.  Each dropped branch counts once in the
    returned count: a pruned branch is not followed to its leaves.
    """
    import sympy as sp

    dim = spec.m + spec.n
    reduced, pivots = rref([row + [ONE if c == i else ZERO for c in range(dim)]
                            for i, row in enumerate(jacobian_at_zero(expansion))])
    red = [[_scalar_to_sympy(e) for e in row] for row in reduced]
    residual = [[(mono, _scalar_to_sympy(c)) for mono, c in comp.terms.items()]
                for comp in expansion]
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
    dropped = 0
    for order in range(1, spec.K * n_ram + 1):
        next_branches = []
        for jets in branches:
            # a term c delta^a t^j reads s^(order - N j) of delta^a
            defect = [sp.expand(sp.Add(*[
                c * coeff_of_product(jets, u, order - n_ram * u[dim])
                for u, c in comp if n_ram * u[dim] <= order]))
                for comp in residual]
            rhs = [sp.Add(*[-l * d for l, d in zip(row[dim:], defect)])
                   for row in red]
            for subs in _constraint_solutions([rhs[i] for i in zero_rows]):
                params = [sp.Symbol(f"brk_{order}_{c}") for c in free_cols]
                corr = dict(zip(free_cols, params))
                for i, pc in pivot_rows:
                    val = rhs[i].subs(subs)
                    for p, c in zip(params, free_cols):
                        val = val - red[i][c] * p
                    corr[pc] = sp.expand(val)
                next_branches.append([[v.subs(subs) for v in jet] + [corr[i]]
                                      for i, jet in enumerate(jets)])
        next_branches, pruned = _prune_outside_field(next_branches)
        dropped += pruned
        if len(next_branches) > _MAX_BRANCHES:
            raise BranchExplosionError(
                f"{len(next_branches)} open branches at s-order {order} "
                f"for N = {n_ram} exceed the limit {_MAX_BRANCHES}")
        branches = next_branches

    points = []
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


def _prune_outside_field(branches: List[list]) -> Tuple[List[list], int]:
    """The open branches none of whose parameter-free jet coefficients
    lies outside Q(i) (_try_scalar), and how many others there were.
    Run after every order, the last one included.  Substitution replaces
    only parameters, so such a coefficient reaches the readout unchanged,
    where it would drop the branch and every branch grown from it:
    dropping it now is exact, and counts it once.  What the readout still
    drops is a coefficient that holds a parameter and leaves Q(i) once the
    parameters are pinned to zero."""
    import sympy as sp
    kept = [jets for jets in branches
            if not any(not (c.is_Rational or c.free_symbols)
                       and _try_scalar(sp.expand(c)) is None
                       for jet in jets for c in jet)]
    return kept, len(branches) - len(kept)


def _try_scalar(expr) -> Optional[Scalar]:
    """The exact sympy number as a Scalar; None outside Q(i).
    Rational real and imaginary parts convert at once, and a part that
    sympy's assumptions prove irrational gives None at once.  Any other
    number, such as (sqrt(2) + 1)(sqrt(2) - 1) or sqrt(3 + 2 sqrt(2)) -
    sqrt(2), both 1, is decided by its minimal polynomial over Q(i): it
    lies in Q(i) exactly when that polynomial has degree 1, whose root it
    then is."""
    import sympy as sp
    re, im = expr.as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        if re.is_rational is False or im.is_rational is False:
            return None
        poly = sp.minimal_polynomial(expr, polys=True,
                                     domain=sp.QQ.algebraic_field(sp.I))
        if poly.degree() > 1:
            return None
        re, im = sp.expand(-poly.nth(0) / poly.LC()).as_real_imag()
    return Scalar(Fraction(re.p, re.q), Fraction(im.p, im.q))


def _constraint_solutions(constraints) -> List[dict]:
    """Exact solutions of the pending consistency constraints, as
    substitution dicts (one empty dict when nothing is constrained; none
    when the constraints are inconsistent).  The reduced Groebner basis
    generates the same ideal, so sympy.solve is given the basis, which
    has the system's solutions and drops the proportional rows (e and 2e)
    the zero rows often give; a basis [1] proves the system empty over C
    (Nullstellensatz) without it.  Where sympy.groebner cannot take the
    system (a coefficient such as sqrt(brk_...) of a parameter), the
    system itself is solved.
    UndecidedConstraintsError when sympy can neither solve the system nor
    prove it empty."""
    import sympy as sp
    from sympy.polys.polyerrors import BasePolynomialError
    live = [c for c in map(sp.expand, constraints) if c != 0]
    if not live:
        return [{}]
    involved = sorted({p for c in live for p in c.free_symbols},
                      key=lambda p: p.name)
    if not involved:
        return []  # nonzero constant constraint
    try:
        basis = sp.groebner(live, *involved, order="grevlex",
                            extension=True).exprs
    except (BasePolynomialError, NotImplementedError):
        basis = live
    try:
        sols = [] if basis == [1] else sp.solve(basis, involved, dict=True)
    except NotImplementedError as exc:
        raise UndecidedConstraintsError(
            f"sympy cannot solve {len(live)} consistency constraint(s) on "
            + ", ".join(p.name for p in involved)) from exc
    return [{key: sp.expand(val) for key, val in sol_map.items()}
            for sol_map in sols]


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
        g = _larger_side_eliminant(f, larger)
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
    powers = [ONE]
    for _ in range(max(a for a, _ in poly.terms)):
        powers.append(powers[-1] * root)
    shifted: Dict[Tuple[int, int], Scalar] = {}
    for (a, b), c in poly.terms.items():
        for i in range(a + 1):  # (root + w)^a
            term = c * powers[a - i] * comb(a, i)
            shifted[i, b] = shifted[i, b] + term if (i, b) in shifted else term
    low: Dict[int, int] = {}
    for (i, j), c in shifted.items():
        if not c.is_zero and j < low.get(i, j + 1):
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
        a, b = f, [c * e for e, c in enumerate(f)][1:]
        while b:  # Euclid: a <- b, b <- a mod b
            a = list(a)
            while len(a) >= len(b):
                lead = a[-1] / b[-1]
                shift = len(a) - len(b)
                for e, c in enumerate(b):
                    a[shift + e] = a[shift + e] - lead * c
                while a and a[-1].is_zero:
                    a.pop()
            a, b = b, a
        f, r = a, r + 1
    return r


def _larger_side_eliminant(f: Optional[SparsePoly], larger: List[SparsePoly]
                           ) -> SparsePoly:
    """G(u, t) in (u, t), whose roots u are the larger side's roots on the
    system's solutions: Res_v(F, L(-u)) for L = sum_j larger[j] z^j, and
    L(-u) itself when there is no F.  Repeated factors of F and of G are
    removed first, as they add no branch.  Over the integers (the Gaussian
    ones where a coefficient is not real), after the denominators are
    cleared: sympy's modular resultant over ZZ takes a few milliseconds."""
    import sympy as sp
    v, u, t = sp.symbols("v u t")
    lu = {(a, j, b): c if j % 2 == 0 else -c
          for j, part in enumerate(larger) for (a, b), c in part.terms.items()}
    fv = {} if f is None else {(a, 0, b): c for (a, b), c in f.terms.items()}
    scalars = list(lu.values()) + list(fv.values())
    domain = sp.ZZ if all(c.im == 0 for c in scalars) else sp.ZZ_I
    scale = lcm(*(x.denominator for c in scalars for x in (c.re, c.im)))

    def integral(terms):
        return sp.Poly.from_dict({mono: _scalar_to_sympy(c * scale)
                                  for mono, c in terms.items()},
                                 v, u, t, domain=domain)

    g = integral(lu)
    if fv:
        g = sp.resultant(integral(fv).sqf_part(), g)  # in v, the first gen
    g = sp.Poly(g.as_expr(), u, t, domain=domain).sqf_part()
    return SparsePoly({mono: _try_scalar(c) for mono, c in g.terms()}, 2)
