"""Exact tropical verification: hypersurfaces, prevariety, exclusion.

The tropicalization of each coefficient polynomial is min over its
support of (coefficient valuation + w . exponent); a point lies on the
hypersurface when the minimum is attained at least twice.  The
prevariety of the system is enumerated as a finite union of polyhedral
cells, one per choice of minimizing pair for every polynomial.  A cell
is kept as primitive integer rows: its equalities in reduced echelon
form, its inequalities on the free columns.  Pair (a, b) of a support
asks R_a - R_b = 0 and R_a - R_c <= 0 for the other items c, where
R = (u, -v); each DFS node reduces the next level's item rows once, and
builds for each item a its least cell, the node's cell with
R_a - R_c <= 0 for every c != a.  Pair (a, b)'s cell is a's least cell
with R_a = R_b added, which turns R_a - R_b <= 0 into 0 <= 0, so it has
the pair's own rows in the pair's own order.  It lies in the least cells
of both a and b, so a pair is tried only when both are nonempty; an item
whose least cell is empty is refuted once, not once per pair.  The
search runs an LP on a cell only when the point with every free column 0
fails one of its inequalities, and reads only its verdict, from
lp.extend.  A least cell keeps its node's free columns and adds rows, so
its LP extends a feasible tableau of the node's cell by those rows alone:
the tableau the node's cell got when it was checked as a pair cell, or
its slack basis when the zero point lies in it.  A pair cell eliminates a
column, so its LP extends the empty tableau.  A cell holds the origin
exactly when every equality has h = 0 and every inequality h >= 0, and
is {0} when the rows tight there have full rank and one LP finds their
cone of feasible directions to be {0}.  Every node below the first level
takes this test.  Below a {0} cell every cell is {0} or empty, and a
pair's cell is {0} exactly when both of its items have the least
valuation of their support, so the subtree's leaves number the product
of C(k_s, 2) over the remaining supports s, k_s counting those items:
they are counted without a visit.  On theorem instances every feasible
cell is expected to collapse to the origin; any other leaf is decided by
per-coordinate min/max over the free columns, and its witness is the
vertex lp.feasible finds on the cell with each coordinate pinned to a
nonzero end of its range.

Every residual component is invariant under S_m x S_n, which permutes
the x's among themselves and the y's among themselves, so the group maps
cells onto cells and keeps their feasibility, their boundedness and
whether they hold nonzero points.  The enumeration visits only the
lexicographically least cell of each orbit and adds its orbit size to
cell_count, which still counts every cell.  The first cell in visiting
order that yields a witness is the least of its orbit, so the witness is
the one a visit of every cell would find.  A {0} subtree under the
canonical prefix P adds |G| / |Stab(P)| times its number of leaves: its
leaves fall into Stab(P)-orbits, and a visit would reach the least leaf L
of each with weight |G| / |Stab(L)|, where the orbit has
|Stab(P)| / |Stab(L)| leaves.  Such a subtree yields no witness and
keeps every cell bounded, so closing it changes no field of the result.

While every d_k is nonzero, the prevariety depends only on (m, n, mode).
Lambda enters the residual only through its constant items, and q only
as powers q^i: the least-t coefficient of every item of a support is
c q^i, or c q^i d_k for the constant item, with c a nonzero integer
(checked symbolically in the tests for every m + n <= 6 in both modes).
So each verdict holds for every Lambda with all d_k != 0 and for every
admissible q; no q is exceptional.

The exclusion rule proves the verdict {0} for every (m, n) in both modes.
Write d = m + n and f_k for the coefficient of z^(d-k).  The items of
valuation 0 in f_k are the C(d, k) square-free monomials of degree k in
(x, y) and the constant, a nonzero multiple of d_k; qq adds only
monomials of degree k - 1, at valuation 1, and QQ adds none.  Take w != 0
and mu = min w_i.  If mu < 0, let S = {i : w_i = mu} and s = |S|: f_s
excludes w.  Its degree-s monomials reach their least value s mu only at
x^S, since any other set of s indices holds one with w_i > mu; the
constant gives 0 > s mu; a degree-(s - 1) item gives at least
1 + (s - 1) mu > s mu, since mu < 1.  If mu >= 0, f_d excludes w: the
constant gives 0, the one degree-d monomial gives sum w_i > 0, and a
degree-(d - 1) item gives at least 1.  So every nonempty cell is {0},
both items of each of its pairs have valuation 0, and cell_count is the
product over k of C(C(d, k) + 1, 2).  The enumeration does not use the
rule and stays its independent check; the tests hold both to each other
(the rule for m + n <= 8, the count for m + n <= 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, gcd
from typing import List, Optional, Tuple

from . import lp
from .lp import feasible
from .scalar import Scalar
from .systems import ProblemSpec, SpecValidationError


@dataclass(frozen=True)
class TropicalSupport:
    """Support of one polynomial: (exponent vector, valuation, coefficient)."""

    items: Tuple[Tuple[Tuple[int, ...], int, Scalar], ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("empty tropical support")
        seen = set()
        for u, _, _ in self.items:
            if u in seen:
                raise ValueError(f"repeated exponent vector {u}")
            seen.add(u)

    def values_at(self, w: "TropicalPoint") -> List[Fraction]:
        if len(w.w) != len(self.items[0][0]):
            raise ValueError(f"a point with {len(w.w)} coordinates against "
                             f"exponents of length {len(self.items[0][0])}")
        return [v + sum(ui * wi for ui, wi in zip(u, w.w))
                for u, v, _ in self.items]


@dataclass(frozen=True)
class TropicalPoint:
    w: Tuple[Fraction, ...]

    @staticmethod
    def of(*coords) -> "TropicalPoint":
        return TropicalPoint(tuple(Fraction(c) for c in coords))


@dataclass(frozen=True)
class PrevarietyResult:
    cell_count: int  # feasible cells: one minimizing pair per polynomial
    is_origin_only: bool
    points_bounded: bool
    witness: Optional[TropicalPoint]  # a nonzero prevariety point, when found

    def to_json(self):
        return {"cell_count": self.cell_count,
                "is_origin_only": self.is_origin_only,
                "points_bounded": self.points_bounded,
                "witness": [str(c) for c in self.witness.w]
                if self.witness else None}


def hypersurface_contains(s: TropicalSupport, w: TropicalPoint) -> bool:
    """True iff the tropical minimum is attained by at least two items."""
    vals = s.values_at(w)
    lo = min(vals)
    return sum(1 for v in vals if v == lo) >= 2


def exclusion_witness(spec: ProblemSpec, w: TropicalPoint) -> Optional[int]:
    """Smallest k (1-based) whose hypersurface excludes w; None if none does."""
    from .systems import symbolic_support
    for k, s in enumerate(symbolic_support(spec), start=1):
        if not hypersurface_contains(s, w):
            return k
    return None


def check_theorem_hypothesis(spec: ProblemSpec) -> None:
    """SpecValidationError "zero_coefficient d_k" unless every master
    coefficient d_k is nonzero, the hypothesis of the tropical theorem."""
    lam = spec.lam
    for k in range(1, lam.degree + 1):
        if lam.coeffs[lam.degree - k].is_zero:
            raise SpecValidationError(
                f"zero_coefficient d_{k}",
                f"master coefficient d_{k} vanishes; theorem hypotheses "
                "require all d_k nonzero")


def _primitive(row) -> Tuple[int, ...]:
    """The integer row divided by the gcd of its entries (if nonzero)."""
    g = gcd(*row) or 1
    return tuple(v // g for v in row)


def _eliminate(row, pivot_row, col):
    """row with column col cleared by pivot_row, whose entry there is > 0.

    row is multiplied by that positive entry only, so an inequality row
    keeps its direction.
    """
    f = row[col]
    if not f:
        return row
    p = pivot_row[col]
    return _primitive([p * a - f * b for a, b in zip(row, pivot_row)])


class _Cell:
    """A polyhedral cell: equalities c.w = h and inequalities c.w <= h.

    Every row is a primitive integer tuple (c_1..c_dim, h).  The equalities
    are in reduced echelon form, keyed by their pivot column: the pivot
    entry is positive and every other row is zero there.  The inequalities
    are zero in the pivot columns, so they live on the free columns, which
    in increasing order are the LP variables.  An inequality must arrive
    zero there (see reduced); add_equality clears its new pivot column
    from those kept.  Inequalities that reduce to constants are checked
    on the spot, so LP is only ever needed for underdetermined cells.
    """

    __slots__ = ("eqs", "ineqs")

    def __init__(self, eqs, ineqs):
        self.eqs = eqs        # pivot column -> row
        self.ineqs = ineqs    # row -> None, in insertion order

    def copy(self) -> "_Cell":
        return _Cell(dict(self.eqs), dict(self.ineqs))

    def reduced(self, rows):
        """The rows zero in every pivot column: row -> p row - row[col] e
        for each equality e with pivot entry p > 0, so all rows share one
        positive factor and differences of rows reduce alike; no gcd."""
        for col, e in self.eqs.items():
            p = e[col]
            rows = [[p * a - r[col] * b for a, b in zip(r, e)] for r in rows]
        return rows

    def add_equality(self, row) -> bool:
        """False on inconsistency (with the equalities or a constant ineq)."""
        row = self.reduced([row])[0]
        col = next((j for j, v in enumerate(row[:-1]) if v), None)
        if col is None:
            return row[-1] == 0
        row = _primitive(row if row[col] > 0 else [-v for v in row])
        for c, e in self.eqs.items():
            self.eqs[c] = _eliminate(e, row, col)
        self.eqs[col] = row
        ineqs = {}
        for g in self.ineqs:
            g = _eliminate(g, row, col)
            if any(g[:-1]):
                ineqs[g] = None
            elif g[-1] < 0:
                return False
        self.ineqs = ineqs
        return True

    def add_inequality(self, row) -> bool:
        """False if constant-infeasible; row must be reduced already."""
        if not any(row[:-1]):
            return row[-1] >= 0
        self.ineqs[_primitive(row)] = None
        return True

    def on_free(self, dim: int, start: int = 0):
        """The free columns, and the inequalities on them from the start-th
        on as a_ub, b_ub."""
        free = [j for j in range(dim) if j not in self.eqs]
        ineqs = list(self.ineqs)[start:]
        return (free, [[g[j] for j in free] for g in ineqs],
                [g[-1] for g in ineqs])

    def coordinate(self, i: int, free):
        """(d, a, h) with d > 0 and d w_i = h - a . w_free on the cell."""
        e = self.eqs.get(i)
        if e is None:
            return 1, [-1 if j == i else 0 for j in free], 0
        return e[i], [e[j] for j in free], e[-1]


def _is_origin_cell(cell: _Cell, free) -> bool:
    """True iff the nonempty cell is exactly {0}.

    Unless every equality has h = 0 and every inequality h >= 0, the
    origin is not in the cell, which then holds a nonzero point.
    Otherwise the cell is {0} exactly when its cone of feasible
    directions at 0, A_act d <= 0 over the rows A_act tight there, is
    {0}: when those rows have rank len(free), so that A_act d = 0 forces
    d = 0, and min sum(A_act d) subject to A_act d <= 0 and
    -A_act d <= 1 is 0.
    """
    if (any(e[-1] for e in cell.eqs.values())
            or any(g[-1] < 0 for g in cell.ineqs)):
        return False
    tight = [g for g in cell.ineqs if not g[-1]]
    span = _Cell({}, {})  # the rank, by echelon form on the integer rows
    for g in tight:
        span.add_equality(g)  # consistent: every tight row has h = 0
    if len(span.eqs) < len(free):
        return False
    if not free:
        return True
    a_act = [[g[j] for j in free] for g in tight]
    return lp.lp_solve([sum(col) for col in zip(*a_act)],
                       a_act + [[-v for v in row] for row in a_act],
                       [0] * len(a_act) + [1] * len(a_act))[1] == 0


def _least_cell(cell: _Cell, rows, a: int) -> Optional[_Cell]:
    """The cell with R_a - R_c <= 0 for every other item c: item a least.

    rows are a level's item rows reduced against cell.  None when one of
    the new rows is a constant that fails; the cell may still be empty.
    Pair (a, b)'s cell is this one with the equality R_a = R_b, which
    reduces R_a - R_b <= 0 to 0 <= 0 and drops it, so its rows, and their
    order, are those of the pair's own R_a - R_c <= 0, then R_a = R_b.
    """
    c = cell.copy()
    if all(c.add_inequality([x - y for x, y in zip(rows[a], r)])
           for k, r in enumerate(rows) if k != a):
        return c
    return None


def _pair_images(s: TropicalSupport, pairs, group):
    """images[j][g]: the index of the pair that group[g] maps pairs[j] to.

    g permutes the coordinates, u -> (u[g[0]], u[g[1]], ...), and must map
    the support onto itself with the valuations kept.
    """
    index = {(u, v): k for k, (u, v, _) in enumerate(s.items)}
    where = {p: j for j, p in enumerate(pairs)}
    per_g = []
    for g in group:
        img = [index.get((tuple(u[i] for i in g), v)) for u, v, _ in s.items]
        if None in img:
            raise RuntimeError(f"coordinate permutation {g} does not map a "
                               "residual support onto itself")
        per_g.append([where[min(img[a], img[b]), max(img[a], img[b])]
                      for a, b in pairs])
    return list(zip(*per_g))


def prevariety(spec: ProblemSpec) -> PrevarietyResult:
    """Enumerate the prevariety cells and decide whether their union is {0}.

    It computes the prevariety of any spec within its size cap and checks
    no theorem hypothesis: a caller that wants the all-d_k-nonzero gate
    calls check_theorem_hypothesis first, as the CLI's tropical command
    does unless --no-theorem-mode is given.

    A depth-first search picks one pair per support, smallest supports
    first, and visits one cell per S_m x S_n orbit.  At each node, each
    item's least cell is built and decided once, and a pair is tried only
    when both of its items' least cells are nonempty.  A node whose cell
    is {0} adds |G| / |Stab(P)| * tail[level] to cell_count and stops,
    tail[level] being its number of leaves (see the module docstring).
    """
    from .systems import symbolic_support
    dim = spec.m + spec.n
    # smallest supports first for maximal pruning; each level keeps its
    # items as rows R = (u, -v), and its pairs in the order visited
    supports = sorted(symbolic_support(spec), key=lambda s: len(s.items))
    items = [[u + (-v,) for u, v, _ in s.items] for s in supports]
    pairs = [[(a, b) for a in range(len(s.items))
              for b in range(a + 1, len(s.items))] for s in supports]
    # S_m x S_n permutes the x's among themselves and the y's among
    # themselves; every support is invariant under it, so it permutes each
    # level's pairs and maps cells onto cells
    group = [xs + tuple(spec.m + j for j in ys)
             for xs in permutations(range(spec.m))
             for ys in permutations(range(spec.n))]
    images = [_pair_images(s, ps, group) for s, ps in zip(supports, pairs)]

    # below a {0} cell a pair's cell is {0} when both of its items have
    # the least valuation of their support, and empty otherwise: tail[l]
    # counts the leaves under a {0} cell at level l
    tail = [1]
    for s in reversed(supports):
        vals = [v for _, v, _ in s.items]
        tail.insert(0, tail[0] * comb(vals.count(min(vals)), 2))

    cell_count = 0
    origin_only = True
    bounded = True
    witness: Optional[TropicalPoint] = None

    def nonempty(cell: _Cell, held):
        """The cell's tableau, or None when the cell is empty.

        A tableau of a cell is a pair (t, k): t is a feasible lp tableau
        of the cell's first k inequalities, on its free columns.  held is one
        of this cell.  The simplex extends t by the other rows only when
        the point with every free column 0 fails one of them; when that
        point lies in the cell, held is returned as it is, and the rows
        wait for the extend that first needs them.
        """
        if all(g[-1] >= 0 for g in cell.ineqs):
            return held
        t, k = held
        _, a_ub, b_ub = cell.on_free(dim, k)
        t = lp.extend(t, a_ub, b_ub)
        return None if t is None else (t, len(cell.ineqs))

    def leaf(cell: _Cell):
        nonlocal origin_only, bounded, witness
        origin_only = False  # exact on a nonempty cell that is not {0}
        free, a_ub, b_ub = cell.on_free(dim)
        coords = [cell.coordinate(i, free) for i in range(dim)]
        # rows a . w_free <= b that hold a coordinate at a nonzero end of
        # its range; b is a Fraction when it is a coordinate's min or max
        pins = []
        for d, a, h in coords:
            if not any(a):
                if h:  # w_i = h/d on the whole cell: its pin is 0 <= 0
                    pins.append((a, 0))
                continue
            # d min(w_i) = h + lo and d max(w_i) = h - hi
            neg = [-v for v in a]
            # looked up on the module at call time, so that a wrapper
            # installed on qqsystems.lp.lp_solve also sees these calls
            lo = lp.lp_solve(neg, a_ub, b_ub)[1]
            hi = lp.lp_solve(a, a_ub, b_ub)[1]
            if lo is None or hi is None:
                bounded = False
                # w_i >= 1 when unbounded above, else w_i <= -1
                pins.append((a, h - d) if hi is None else (neg, -d - h))
            elif lo < -h:
                pins.append((neg, lo))
            elif hi < h:
                pins.append((a, hi))
        if witness is None and pins:
            # primitive integer rows, as the cell's own rows are
            rows = [_primitive([b.denominator * v for v in a] + [b.numerator])
                    for a, b in pins]
            pt = feasible(a_ub + [r[:-1] for r in rows],
                          b_ub + [r[-1] for r in rows], dim=len(free))
            if pt is not None:
                w = tuple(Fraction(h - sum(v * p for v, p in zip(a, pt))) / d
                          for d, a, h in coords)
                if any(w):
                    witness = TropicalPoint(w)

    def dfs(level, cell: _Cell, stab, held):
        # stab: the group elements that fix the chosen pairs so far; held:
        # the cell's tableau (see nonempty)
        nonlocal cell_count
        orbit_size = len(group) // len(stab)
        if level and _is_origin_cell(cell, cell.on_free(dim)[0]):
            cell_count += orbit_size * tail[level]
            return
        if level == len(supports):
            cell_count += orbit_size
            leaf(cell)
            return
        item = items[level]
        # only the lexicographically least cell of each orbit: a symmetry
        # of the prefix that maps pair j lower leads to a smaller cell of
        # the same orbit
        live = [j for j, img in enumerate(images[level])
                if not any(img[g] < j for g in stab)]
        # least[a]: the cell on which item a is least, or None when it is
        # empty; every pair's cell lies in both of its items' least cells.
        # A least cell adds rows and keeps the free columns, so its LP
        # extends the cell's tableau by the new rows alone
        rows = cell.reduced(item)
        least = {}
        for a in sorted({x for j in live for x in pairs[level][j]}):
            c = _least_cell(cell, rows, a)
            least[a] = c if c is not None and nonempty(c, held) else None
        for j in live:
            a, b = pairs[level][j]
            if least[a] is None or least[b] is None:
                continue
            # the equality eliminates a column: the LP starts empty
            c = least[a].copy()
            if not c.add_equality([x - y for x, y in zip(item[a], item[b])]):
                continue
            c_held = nonempty(c, ((dim - len(c.eqs), (), ()), 0))
            if c_held is not None:
                img = images[level][j]
                dfs(level + 1, c, [g for g in stab if img[g] == j], c_held)

    dfs(0, _Cell({}, {}), range(len(group)), ((dim, (), ()), 0))
    if not cell_count:
        origin_only = False  # empty prevariety: the theorems expect {0}
    return PrevarietyResult(cell_count=cell_count, is_origin_only=origin_only,
                            points_bounded=bounded, witness=witness)

