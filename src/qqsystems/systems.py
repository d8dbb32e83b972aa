"""Problem data and the one definition of the residual system.

With q+ = P(z) = prod(z + x_i) of degree m and q- = M(z) = prod(z + y_j)
of degree n, the rank-one differential system compares z-coefficients of

    P(z) M(z) + t W(P, M)(z) - Lambda(z),   W(P, M) = P M' - M P',

and the difference system the cleared form

    q^m P~(z) M(z) - t q^n P(z) M~(z) - (q^m - t q^n) Lambda(z),
    P~(z) = q^(-m) P(qz) = prod(z + x_i/q),  M~(z) = q^(-n) M(qz).

The clearing factor q^m - t q^n is a unit at t = 0, so vanishing orders
are unchanged.

Both residuals are bilinear in the z-coefficients p_i of P and m_j of
M, so both are read from one table of products p_i m_j (p_m = m_n = 1),
each entry weighted by mode:

* qq: p_i m_j goes to z^{i+j} with weight 1, and to the t-part at
  z^{i+j-1} with weight j - i; Lambda enters as -lambda_e;
* QQ: q^m P~(z) = P(qz) = sum q^i p_i z^i, so p_i m_j goes to z^{i+j}
  with weight q^i, and to the t-part at z^{i+j} with weight -q^j;
  Lambda enters as -q^m lambda_e, and in the t-part as +q^n lambda_e.

coefficient_components reads these components from the z-coefficients
themselves, and residual_components expands the roots into them first,
over any commutative ring that takes Scalars and ints as constants; three
rings are used for the roots:

* Series jets in s with t = s^N (evaluate_residual): the residual
  certificate, which judges every lift;
* OnlineSeries in s with t = s (online_residual): built once per
  generic base, over leaves that read the Newton coefficient table, so
  that each order of the lift computes one new coefficient per
  intermediate series and reads the defect from it;
* SparsePoly in (delta, t) with the unknowns at a point plus delta
  (expanded_residual): read at the origin for the tropical supports
  (symbolic_support), and at a degenerate base, once, for lifting's
  ramified branch search, which reads the base check and the t = 0
  Jacobian J0 from its constant and delta-linear terms
  (jacobian_at_zero) and substitutes its sympy jets into it.  Generic
  lifts do not build J0: where Lambda's shifts are distinct its inverse
  has a closed form (jacobian_inverse_at_zero), which the tests hold to
  the row-reduced inverse of J0.

With min(m, n) <= 1 the components are also read once over SparsePoly in
the larger side's coefficients, v and t (eliminant): the smaller side
fixed at z + v leaves them triangular in the larger side's coefficients,
and solving that part leaves one polynomial F(v, t), from whose Newton
polygons lifting reads the ramification indices a degenerate base admits.

The floating-point residual in numeric.py is a separate encoding on
purpose, so that the numeric oracle stays an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from .linalg import SingularJacobianError
from .poly import SparsePoly
from .scalar import Scalar, SpecValidationError, ZERO, ONE
from .series import OnlineSeries, Series


def _integer(value, name: str) -> int:
    """A JSON integer; floats, bools, strings and null are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(
            "bad_integer", f"{name} must be an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# problem data


def _monic_from_shifts(shifts: Sequence) -> List:
    """z-coefficients (lowest first) of prod (z + s), below its leading 1."""
    p: List = []
    for sh in shifts:
        p = ([p[0] * sh] + [p[k - 1] + p[k] * sh for k in range(1, len(p))]
             + [p[-1] + sh]) if p else [sh]
    return p


@dataclass(frozen=True)
class MasterData:
    """The monic master polynomial, stored as shift/multiplicity pairs.

    Lambda(z) = prod_k (z + a_k)^{m_k}.  Its z-coefficients are expanded
    once from the shifts into coeffs, so d_k, the coefficient of
    z^{deg - k}, is coeffs[deg - k].
    """

    shifts: Tuple[Tuple[Scalar, int], ...]

    def __post_init__(self):
        seen = set()
        for a, mult in self.shifts:
            if mult < 1:
                raise SpecValidationError("bad_multiplicity",
                                          "multiplicities must be positive")
            if a in seen:
                raise SpecValidationError("repeated_shift",
                                          f"shift {a} listed twice")
            seen.add(a)
        canon = tuple(sorted(self.shifts, key=lambda p: p[0].sort_key()))
        object.__setattr__(self, "shifts", canon)

    @property
    def degree(self) -> int:
        return sum(mult for _, mult in self.shifts)

    def root_shift_multiset(self) -> List[Scalar]:
        """All shifts with multiplicity, sorted."""
        out: List[Scalar] = []
        for a, mult in self.shifts:
            out.extend([a] * mult)
        return out

    @cached_property
    def coeffs(self) -> Tuple[Scalar, ...]:
        """z-coefficients of Lambda, lowest degree first."""
        return tuple(_monic_from_shifts(self.root_shift_multiset())) + (ONE,)

    def nonzero_at_origin(self) -> bool:
        return all(not a.is_zero for a, _ in self.shifts)

    def to_json(self):
        return {"shifts": [[a.to_json(), mult] for a, mult in self.shifts]}

    @staticmethod
    def from_json(obj) -> "MasterData":
        shifts = obj.get("shifts") if isinstance(obj, dict) else None
        if not isinstance(shifts, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in shifts):
            raise SpecValidationError(
                "bad_lambda", "lambda shifts must be a list of "
                              "[shift, multiplicity] pairs")
        return MasterData(tuple((Scalar.from_json(a),
                                 _integer(mult, "multiplicity"))
                                for a, mult in shifts))


MODES = ("qq", "QQ")


@dataclass(frozen=True)
class ProblemSpec:
    """One solve instance: mode, master data, degrees, dilation, truncation."""

    mode: str
    lam: MasterData
    m: int
    n: int
    q: Optional[Scalar] = None
    K: int = 3
    n_max: Optional[int] = None

    @property
    def is_difference(self) -> bool:
        return self.mode == "QQ"

    @property
    def ramification_bound(self) -> int:
        return self.n_max if self.n_max is not None else self.m + self.n

    def validate(self) -> None:
        """Raises SpecValidationError with a machine-readable code."""
        if self.mode not in MODES:
            raise SpecValidationError("bad_mode", f"mode must be one of {MODES}")
        if self.m < 0 or self.n < 0 or self.m + self.n == 0:
            raise SpecValidationError(
                "bad_degrees", "m and n must be nonnegative, m + n positive")
        if self.m + self.n != self.lam.degree:
            raise SpecValidationError(
                "degree_mismatch",
                f"m + n = {self.m + self.n} != deg Lambda = {self.lam.degree}")
        if self.K < 0:
            raise SpecValidationError("bad_truncation", "K must be nonnegative")
        if self.n_max is not None and self.n_max < 1:
            raise SpecValidationError("bad_ramification_bound",
                                      "N_max must be positive")
        if self.is_difference:
            if self.q is None or self.q.is_zero:
                raise SpecValidationError("bad_q", "difference mode needs q != 0")
            if self.q ** 4 == ONE:  # the roots of unity in Q(i): +-1, +-i
                raise SpecValidationError("q_root_of_unity",
                                          f"q = {self.q} is a root of unity")
        elif self.q is not None:
            raise SpecValidationError("unexpected_q", "q is only valid in QQ mode")

    def to_json(self):
        obj = {"mode": self.mode, "lambda": self.lam.to_json(),
               "m": self.m, "n": self.n, "K": self.K}
        if self.q is not None:
            obj["q"] = self.q.to_json()
        if self.n_max is not None:
            obj["N_max"] = self.n_max
        return obj

    @staticmethod
    def from_json(obj) -> "ProblemSpec":
        """Parse and structurally validate a spec object; unknown keys rejected."""
        if not isinstance(obj, dict):
            raise SpecValidationError("bad_spec", "spec must be a JSON object")
        allowed = {"mode", "lambda", "m", "n", "q", "K", "N_max"}
        unknown = set(obj) - allowed
        if unknown:
            raise SpecValidationError(
                "unknown_key", f"unknown spec keys: {sorted(unknown)}")
        for key in ("mode", "lambda", "m", "n"):
            if key not in obj:
                raise SpecValidationError("missing_key", f"missing key {key!r}")
        lam_obj = obj["lambda"]
        if not isinstance(lam_obj, dict) or set(lam_obj) != {"shifts"}:
            raise SpecValidationError(
                "bad_lambda", "lambda must be an object with a 'shifts' list")
        lam = MasterData.from_json(lam_obj)
        # only the keys present are passed: the dataclass holds the defaults
        given = {}
        m, n = _integer(obj["m"], "m"), _integer(obj["n"], "n")
        if "q" in obj:
            given["q"] = Scalar.from_json(obj["q"])
        for key, field in (("K", "K"), ("N_max", "n_max")):
            if key in obj:
                given[field] = _integer(obj[key], key)
        spec = ProblemSpec(mode=str(obj["mode"]), lam=lam, m=m, n=n, **given)
        spec.validate()
        return spec


@dataclass(frozen=True)
class CandidatePoint:
    """Series values for the unknowns (x_1..x_m, y_1..y_n)."""

    x: Tuple[Series, ...]
    y: Tuple[Series, ...]

    def __post_init__(self):
        entries = self.x + self.y
        if not entries:
            raise ValueError("empty candidate point")
        n_ram = entries[0].n_ram
        top = entries[0].top
        for s in entries:
            if s.n_ram != n_ram or s.top != top:
                raise ValueError("candidate entries must share (N, window)")

    @property
    def n_ram(self) -> int:
        return (self.x + self.y)[0].n_ram

    @property
    def top(self) -> int:
        return (self.x + self.y)[0].top

    def widen(self, new_top: int) -> "CandidatePoint":
        return CandidatePoint(tuple(s.widen(new_top) for s in self.x),
                              tuple(s.widen(new_top) for s in self.y))


# ---------------------------------------------------------------------------
# the residual, once for every ring


def residual_components(xs: Sequence, ys: Sequence, spec: ProblemSpec, one,
                        times_t: Callable) -> List:
    """Components f_1..f_{m+n}: the z^{m+n-k} coefficients of the residual.

    xs and ys are elements of a commutative ring with +, -, * that takes
    Scalars and ints as constants; one is its one, and times_t maps an
    element to t times it.

    The roots are expanded once each into the z-coefficients of
    q+ = prod(z + x_i) and q- = prod(z + y_j), which coefficient_components
    reads.  Every x_i sits in one factor of p_i and every y_j in one factor
    of m_j, so each component is affine in each single unknown.
    """
    return coefficient_components(_monic_from_shifts(xs),
                                  _monic_from_shifts(ys), spec, one, times_t)


def coefficient_components(ps: Sequence, ms: Sequence, spec: ProblemSpec,
                           one, times_t: Callable) -> List:
    """The residual components from the z-coefficients p_0..p_{m-1} of q+
    and m_0..m_{n-1} of q-, lowest first, below their leading 1s.

    Both modes read one table of products p_i m_j (module docstring), so
    each component is bilinear in the two coefficient lists: with one side
    fixed it is linear in the other side's coefficients (eliminant).
    """
    deg = spec.lam.degree
    lam = spec.lam.coeffs
    # the leading 1s of q+ and q- enter the table without a product
    ab = [[a * b for b in ms] + [a] for a in ps]
    ab.append(list(ms) + [one])

    def read(weight, shift, lam_weight):
        """Sum weight(i, j) p_i m_j into z^{i+j-shift}, below z^deg, less
        lam_weight Lambda; at shift 0 every z^e has an entry."""
        acc = {}
        for i, row in enumerate(ab):
            for j, v in enumerate(row):
                e, w = i + j - shift, weight(i, j)
                if 0 <= e < deg and w != 0:
                    v = v if w == 1 else v * w
                    acc[e] = acc[e] + v if e in acc else v
        if lam_weight != 0:
            for e in acc:
                acc[e] = acc[e] - lam[e] * lam_weight
        return acc

    if spec.is_difference:
        qk = [spec.q ** k for k in range(deg + 1)]
        comps = read(lambda i, j: qk[i], 0, qk[spec.m])
        tp = read(lambda i, j: -qk[j], 0, -qk[spec.n])
    else:
        comps = read(lambda i, j: 1, 0, 1)
        tp = read(lambda i, j: j - i, 1, 0)
    return [comps[e] + times_t(tp[e]) if e in tp else comps[e]
            for e in range(deg - 1, -1, -1)]


def evaluate_residual(p: CandidatePoint, spec: ProblemSpec) -> List[Series]:
    """Residual components at a jet point; t = s^N is a shift by N."""
    return residual_components(p.x, p.y, spec,
                               Series.const(ONE, p.top, p.n_ram),
                               lambda s: s.shift(p.n_ram))


def online_residual(unknowns: Sequence[OnlineSeries], spec: ProblemSpec
                    ) -> List[OnlineSeries]:
    """Residual components over online series (N = 1): t = s is a shift
    by one."""
    return residual_components(
        unknowns[:spec.m], unknowns[spec.m:], spec, OnlineSeries.constant(ONE),
        lambda s: s.shift(1))


def expanded_residual(spec: ProblemSpec, at: Sequence[Scalar]
                      ) -> List[SparsePoly]:
    """Residual components expanded exactly as SparsePoly in
    (delta_1..delta_{m+n}, t), with the unknowns set to at + delta."""
    dim = spec.m + spec.n
    gens = [SparsePoly.variable(i, dim + 1) for i in range(dim + 1)]
    u = [g + a for g, a in zip(gens, at)]
    return residual_components(
        u[:spec.m], u[spec.m:], spec, SparsePoly.constant(ONE, dim + 1),
        lambda p: p * gens[dim])


# ---------------------------------------------------------------------------
# the rank-one eliminant


def eliminant(spec: ProblemSpec
              ) -> Tuple[Optional[SparsePoly], List[SparsePoly]]:
    """(F, L): the residual with the smaller side's root v left free and
    the larger side's coefficients eliminated, for k = min(m, n) <= 1.

    Fix the smaller side at z + v (k = 1; q- when m = n) or at 1 (k = 0).
    The components are then linear in the larger side's l = m + n - k
    coefficients c_j, and the component at z^e (e >= k) reads c_{e-k}
    last, with the diagonal 1 in qq and q^i - t q^j, a unit at t = 0, in
    QQ: a triangular system.  It is solved fraction-free, down from the
    top component, over SparsePoly in (v, t): c_j = N_j / D.  L is
    [N_0, .., N_{l-1}, D], the larger side times D, lowest power first.
    F(v, t) is the remaining z^0 component times D, whose roots v are the
    smaller side's root on the system's solutions; None when k = 0, where
    every component is triangular and L is its own eliminant.  F(v, 0)
    is a constant times Lambda(-v), or Lambda(-v/q) where v is QQ's x.
    """
    k, l = min(spec.m, spec.n), max(spec.m, spec.n)
    if k > 1:
        raise ValueError("the eliminant needs min(m, n) <= 1")
    nvars = l + 2  # c_0..c_{l-1}, v, t
    cs = [SparsePoly.variable(j, nvars) for j in range(l)]
    small = [SparsePoly.variable(l, nvars)] * k
    ps, ms = (cs, small) if spec.m >= spec.n else (small, cs)
    t = SparsePoly.variable(l + 1, nvars)
    comps = coefficient_components(ps, ms, spec,
                                   SparsePoly.constant(ONE, nvars),
                                   lambda p: p * t)
    num = {}
    den = SparsePoly.constant(ONE, 2)
    for e, comp in zip(range(spec.lam.degree - 1, -1, -1), comps):
        # c_j -> its coefficient in (v, t), and -1 -> the free term
        coef = {-1: SparsePoly({}, 2)}
        for mono, c in comp.terms.items():
            j = mono.index(1) if 1 in mono[:l] else -1
            term = SparsePoly({mono[l:]: c}, 2)
            coef[j] = coef[j] + term if j in coef else term
        rest = sum((a * num[j] for j, a in coef.items() if j in num),
                   coef[-1] * den)
        if e < k:
            return rest, [num[j] for j in range(l)] + [den]
        diag = coef[e - k]
        num = {j: a * diag for j, a in num.items()}
        num[e - k] = -rest
        den = den * diag
    return None, [num[j] for j in range(l)] + [den]


# ---------------------------------------------------------------------------
# the t = 0 Jacobian


def jacobian_at_zero(expansion: Sequence[SparsePoly]) -> List[List[Scalar]]:
    """Exact t = 0 Jacobian J0 at a base, read from expanded_residual there.

    J0[i][j] is the coefficient of delta_j t^0 in component i.  The base
    must solve the t = 0 system: every constant term is zero (ValueError
    otherwise).  J0's rank is the number l of distinct shifts of Lambda,
    which the enumeration already records on the base.
    """
    nvars = expansion[0].nvars
    if any((0,) * nvars in comp.terms for comp in expansion):
        raise ValueError("point is not a solution of the infinite system")
    units = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars - 1)]
    return [[comp.terms.get(u, ZERO) for u in units] for comp in expansion]


def jacobian_inverse_at_zero(sol, spec: ProblemSpec) -> List[List[Scalar]]:
    """J0^-1 in closed form at a base solution where Lambda's shifts are
    distinct.

    At a base, P M = Lambda at t = 0 (P(qz) M = q^m Lambda in QQ mode), so
    column v of J0 is the coefficient vector, highest power first, of
    w_v Lambda(z)/(z + rho_v): z + rho_v is the factor of Lambda that
    unknown v sits in, rho_v = x_i (x_i/q in QQ) or y_j, and w_v is 1 in
    qq, q^(m-1) for an x and q^m for a y in QQ.  A vector r, read as R(z) = sum_c r_c
    z^(deg-1-c), is sum_v a_v w_v Lambda/(z + rho_v) for the Lagrange
    values a_v = R(-rho_v)/(w_v prod_{u != v}(rho_u - rho_v)), so

        J0^-1[v][c] = (-rho_v)^(deg-1-c) / (w_v prod_{u != v}(rho_u - rho_v)),

    and -J0^-1 r is the Weierstrass (Durand-Kerner) correction.  A
    repeated rho makes J0 singular: SingularJacobianError.  The base is
    not checked here to be a solution: lift_newton checks it through its
    order-0 residual, and jacobian_at_zero through the expansion's
    constant terms.
    """
    if spec.is_difference:
        q, qm = spec.q, spec.q ** spec.m
        rhos = [x / q for x in sol.x0] + list(sol.y0)
        weights = [qm / q] * spec.m + [qm] * spec.n
    else:
        rhos = list(sol.x0) + list(sol.y0)
        weights = [ONE] * len(rhos)
    inverse = []
    for v, (rho, den) in enumerate(zip(rhos, weights)):
        for u, other in enumerate(rhos):
            if u != v:
                den = den * (other - rho)
        if den.is_zero:
            raise SingularJacobianError(
                f"the shift {rho} of Lambda is repeated at this base: the "
                "t = 0 Jacobian is singular")
        row = [ONE / den]
        for _ in rhos[1:]:
            row.append(row[-1] * -rho)
        inverse.append(row[::-1])
    return inverse


# ---------------------------------------------------------------------------
# symbolic supports for the tropical engine


def symbolic_support(spec: ProblemSpec):
    """Full multivariate supports of the residual components.

    Returns one TropicalSupport per component k = 1..m+n: the exponent
    vectors in (x_1..x_m, y_1..y_n) with the t-valuation and exact value
    of each monomial's coefficient, read from expanded_residual at the
    origin, where cancelling monomials have dropped out.  It works at
    every m + n: only the cell enumeration (tropical.prevariety) is
    capped.

    The exponents and valuations depend neither on Lambda, while every
    d_k is nonzero, nor on q.  The coefficient table shows why: each
    square-free monomial x^S y^T comes from exactly one entry p_i m_j
    (i = m - |S|, j = n - |T|), with weight 1 or q^i, or j - i on the
    t-part, and Lambda enters only the constant items.  The tests check
    this symbolically for every m + n <= 6 in both modes, with d_k and q
    as variables: each item's least-t coefficient is c q^i, or c q^i d_k
    for the constant item, with c a nonzero integer, so no q != 0 is
    exceptional.
    """
    from .tropical import TropicalSupport

    dim = spec.m + spec.n
    supports = []
    for comp in expanded_residual(spec, [ZERO] * dim):
        lowest = {}  # x/y exponents -> (least t-degree, its coefficient)
        for mono, c in comp.terms.items():
            u, tdeg = mono[:dim], mono[dim]
            if u not in lowest or tdeg < lowest[u][0]:
                lowest[u] = (tdeg, c)
        supports.append(TropicalSupport(tuple(
            (u, v, c) for u, (v, c) in sorted(lowest.items()))))
    return supports
