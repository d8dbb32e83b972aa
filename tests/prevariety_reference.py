"""Reference prevariety over an exact Fraction parametrisation (tests only).

This enumeration visits every cell.  ``qqsystems.tropical`` keeps its
cells as primitive integer rows in reduced echelon form and visits only the
lexicographically least cell of each S_m x S_n orbit.  Each cell here
stores a point w0 and a basis of Fraction columns, and rewrites every
inequality in the free parameters; the free parameters are the same
coordinates, in the same order, as the integer cell's free columns.  This
one decides every cell by per-coordinate min/max LPs; ``qqsystems.tropical``
skips those on cells it proves to be {0}, which yield no witness, and counts
the cells below a {0} cell without visiting them.  Both walk the cells in
the same order.  On the cells they share, this one scales each Fraction
row of a witness LP to the primitive integer row ``qqsystems.tropical``
hands to ``qqsystems.lp.feasible``, whose vertex depends on the scale of
the rows, so both get the same vertex, and they must return equal
``PrevarietyResult``s: the first cell that yields a witness is the least of
its orbit, so both find the same one.  The tests in ``test_tropical.py``
hold the orbit enumeration to this one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Tuple

from qqsystems import lp
from qqsystems.lp import F0, feasible
from qqsystems.systems import ProblemSpec, symbolic_support
from qqsystems.tropical import (PrevarietyResult, TropicalPoint,
                                TropicalSupport)

F1 = Fraction(1)


class _AffineState:
    """Solution set of the accumulated equalities, parametrized exactly.

    w = w0 + sum_j p_j * basis[j]; pending inequalities live in the free
    parameters p.  Adding an equality either detects inconsistency,
    eliminates one parameter (substituting into everything), or is
    redundant.  Inequalities that reduce to constants are checked on the
    spot, so LP is only ever needed for genuinely underdetermined cells.
    """

    __slots__ = ("w0", "basis", "ineqs")

    def __init__(self, w0, basis, ineqs):
        self.w0 = w0          # list of dim Fractions
        self.basis = basis    # list of columns, each a list of dim Fractions
        self.ineqs = ineqs    # list of (g: tuple of r Fractions, h: Fraction)

    @staticmethod
    def full(dim: int) -> "_AffineState":
        basis = [[F1 if i == j else F0 for i in range(dim)] for j in range(dim)]
        return _AffineState([F0] * dim, basis, [])

    def copy(self) -> "_AffineState":
        return _AffineState(list(self.w0), [list(c) for c in self.basis],
                            list(self.ineqs))

    def _to_params(self, row, rhs):
        """Rewrite row.w (<=|=) rhs in the free parameters."""
        g = tuple(sum((row[i] * col[i] for i in range(len(row))), F0)
                  for col in self.basis)
        h = rhs - sum((row[i] * self.w0[i] for i in range(len(row))), F0)
        return g, h

    def add_equality(self, row, rhs) -> bool:
        """False on inconsistency (with the equalities or a constant ineq)."""
        g, h = self._to_params(row, rhs)
        piv = next((j for j, v in enumerate(g) if v != 0), None)
        if piv is None:
            return h == 0
        coef = g[piv]
        pivcol = self.basis[piv]
        shift = h / coef
        dim = len(self.w0)
        self.w0 = [self.w0[i] + shift * pivcol[i] for i in range(dim)]
        new_basis = []
        keep = [j for j in range(len(self.basis)) if j != piv]
        for j in keep:
            f = g[j] / coef
            col = self.basis[j]
            new_basis.append([col[i] - f * pivcol[i] for i in range(dim)])
        self.basis = new_basis
        new_ineqs = []
        for gi, hi in self.ineqs:
            f = gi[piv] / coef
            g2 = tuple(gi[j] - f * g[j] for j in keep)
            h2 = hi - f * h
            if any(v != 0 for v in g2):
                new_ineqs.append((g2, h2))
            elif h2 < 0:
                return False
        self.ineqs = new_ineqs
        return True

    def add_inequality(self, row, rhs) -> bool:
        """False when the inequality is constant-infeasible."""
        g, h = self._to_params(row, rhs)
        if all(v == 0 for v in g):
            return h >= 0
        if (g, h) not in self.ineqs:
            self.ineqs.append((g, h))
        return True

    @property
    def rank_free(self) -> int:
        return len(self.basis)

    def lp_feasible(self) -> Optional[Tuple[Fraction, ...]]:
        """A feasible parameter point, or None."""
        a_ub = [list(g) for g, _ in self.ineqs]
        b_ub = [h for _, h in self.ineqs]
        return feasible(*_integer_rows(a_ub, b_ub), dim=self.rank_free)

    def point_at(self, p) -> Tuple[Fraction, ...]:
        dim = len(self.w0)
        return tuple(self.w0[i] +
                     sum((p[j] * self.basis[j][i] for j in range(len(p))), F0)
                     for i in range(dim))


def _pair_constraints(s: TropicalSupport, a: int, b: int):
    """val_a(w) = val_b(w) <= val_c(w) for the other items c, as rows."""
    ua, va, _ = s.items[a]
    ub, vb, _ = s.items[b]
    eq = (tuple(Fraction(i - j) for i, j in zip(ua, ub)), vb - va)
    ubs = []
    for c, (uc, vc, _) in enumerate(s.items):
        if c in (a, b):
            continue
        ubs.append((tuple(Fraction(i - j) for i, j in zip(ua, uc)), vc - va))
    return eq, ubs


def prevariety(spec: ProblemSpec) -> PrevarietyResult:
    """Enumerate the prevariety cells and decide whether their union is {0}."""
    dim = spec.m + spec.n
    # smallest supports first for maximal pruning; each level's pair
    # constraints are built once, in the order the cells are visited
    supports = sorted(symbolic_support(spec), key=lambda s: len(s.items))
    levels = [[_pair_constraints(s, a, b)
               for a in range(len(s.items))
               for b in range(a + 1, len(s.items))] for s in supports]

    cell_count = 0
    origin_only = True
    bounded = True
    witness: Optional[TropicalPoint] = None

    def leaf(state: _AffineState):
        nonlocal cell_count, origin_only, bounded, witness
        cell_count += 1
        r = state.rank_free
        a_ub = [list(g) for g, _ in state.ineqs]
        b_ub = [h for _, h in state.ineqs]
        target = [F0] * dim
        for i in range(dim):
            obj = [state.basis[j][i] for j in range(r)]
            if all(v == 0 for v in obj):
                if state.w0[i] != 0:
                    origin_only = False
                    target[i] = state.w0[i]
                continue
            # min/max of w_i = w0_i + obj . p over the cell
            res_min = lp_solve_obj(obj, a_ub, b_ub)
            res_max = lp_solve_obj([-v for v in obj], a_ub, b_ub)
            lo = state.w0[i] + res_min if res_min is not None else None
            hi = state.w0[i] - res_max if res_max is not None else None
            if lo is None or hi is None:
                bounded = False
                origin_only = False
                target[i] = F1 if hi is None else -F1
            elif lo < 0:
                origin_only = False
                target[i] = lo
            elif hi > 0:
                origin_only = False
                target[i] = hi
        if witness is None and any(v != 0 for v in target):
            extra_a = list(a_ub)
            extra_b = list(b_ub)
            for i, v in enumerate(target):
                obj = [state.basis[j][i] for j in range(r)]
                if v > 0:
                    extra_a.append([-o for o in obj])
                    extra_b.append(state.w0[i] - v)
                elif v < 0:
                    extra_a.append(list(obj))
                    extra_b.append(v - state.w0[i])
            pt = feasible(*_integer_rows(extra_a, extra_b), dim=r)
            if pt is not None:
                w = state.point_at(pt)
                if any(c != 0 for c in w):
                    witness = TropicalPoint(w)

    def dfs(level, state: _AffineState):
        if level == len(levels):
            leaf(state)
            return
        for eq, pair_ubs in levels[level]:
            st = state.copy()
            if not st.add_equality(eq[0], eq[1]):
                continue
            if not all(st.add_inequality(row, h) for row, h in pair_ubs):
                continue
            if st.rank_free > 0 and st.ineqs and st.lp_feasible() is None:
                continue
            dfs(level + 1, st)

    dfs(0, _AffineState.full(dim))
    if not cell_count:
        origin_only = False  # empty prevariety: the theorems expect {0}
    return PrevarietyResult(cell_count=cell_count, is_origin_only=origin_only,
                            points_bounded=bounded, witness=witness)


def lp_solve_obj(obj, a_ub, b_ub) -> Optional[Fraction]:
    """Minimum of obj . p subject to a_ub p <= b_ub; None when unbounded."""
    d = lcm(*(v.denominator for v in obj))
    # looked up on the module at call time, so that a wrapper installed on
    # qqsystems.lp.lp_solve also sees these calls
    value = lp.lp_solve([int(v * d) for v in obj],
                        *_integer_rows(a_ub, b_ub))[1]
    return None if value is None else value / d


def _integer_rows(a_ub, b_ub):
    """The Fraction rows a . p <= b as primitive integer rows."""
    rows = []
    for a, b in zip(a_ub, b_ub):
        d = lcm(*(Fraction(v).denominator for v in [*a, b]))
        row = [int(v * d) for v in [*a, b]]
        g = gcd(*row) or 1
        rows.append([v // g for v in row])
    return [r[:-1] for r in rows], [r[-1] for r in rows]
