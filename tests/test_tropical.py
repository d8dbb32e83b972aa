from collections import Counter
from fractions import Fraction
from math import comb, gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import prevariety_reference
from qqsystems import lp, systems, tropical
from qqsystems.scalar import Scalar, ONE
from qqsystems.systems import (MasterData, ProblemSpec, SpecValidationError,
                               symbolic_support)
from qqsystems.tropical import (TropicalSupport, TropicalPoint,
                                hypersurface_contains, prevariety,
                                exclusion_witness, check_theorem_hypothesis,
                                _Cell, _is_origin_cell,
                                _least_cell, _pair_images, _primitive)

F = Fraction


def master(*shifts):
    return MasterData(tuple((Scalar(a), m) for a, m in shifts))


def qq_spec(shifts, m, n):
    return ProblemSpec(mode="qq", lam=master(*shifts), m=m, n=n)


def QQ_spec(shifts, m, n, q):
    return ProblemSpec(mode="QQ", lam=master(*shifts), m=m, n=n, q=Scalar(q))


def mode_spec(mode, shifts, m, n):
    """A qq spec, or a QQ spec at q = 3."""
    return qq_spec(shifts, m, n) if mode == "qq" else \
        QQ_spec(shifts, m, n, 3)


def support(items):
    return TropicalSupport(tuple(
        (tuple(u), F(v), Scalar(1)) for u, v in items))


F2_SUPPORT = support([((1, 1), 0), ((1, 0), 1), ((0, 1), 1), ((0, 0), 0)])
F1_SUPPORT = support([((1, 0), 0), ((0, 1), 0), ((0, 0), 0)])


class TestHypersurface:
    def test_origin_in_f2(self):
        assert hypersurface_contains(F2_SUPPORT, TropicalPoint.of(0, 0))

    def test_negative_diagonal_excluded(self):
        # at w = (-1,-1) the xy item gives -2, uniquely minimal
        assert not hypersurface_contains(F2_SUPPORT, TropicalPoint.of(-1, -1))

    def test_f1_ties_regardless_of_y(self):
        assert hypersurface_contains(F1_SUPPORT, TropicalPoint.of(0, 5))

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            TropicalSupport(())

    def test_repeated_exponent_rejected(self):
        with pytest.raises(ValueError):
            support([((1, 0), 0), ((1, 0), 1)])


class TestPrevariety:
    def test_qq_small_is_origin_only(self):
        res = prevariety(qq_spec([(1, 1), (2, 1)], 1, 1))
        assert res.is_origin_only
        assert res.points_bounded
        assert res.cell_count >= 1
        assert res.witness is None

    def test_QQ_small_is_origin_only(self):
        res = prevariety(QQ_spec([(1, 1), (2, 1)], 1, 1, 3))
        assert res.is_origin_only

    def test_qq_21_with_cell_count(self):
        res = prevariety(qq_spec([(1, 1), (2, 1), (3, 1)], 2, 1))
        assert res.is_origin_only
        assert res.cell_count == 36

    def test_hypothesis_gate(self):
        # Lambda = (z+1)(z-1): d_1 = 0 violates the theorem hypothesis
        spec = qq_spec([(1, 1), (-1, 1)], 1, 1)
        with pytest.raises(SpecValidationError) as e:
            check_theorem_hypothesis(spec)
        assert e.value.code == "zero_coefficient d_1"
        # the gate is the caller's: prevariety computes the cells anyway
        res = prevariety(spec)
        assert res.cell_count >= 1

    @pytest.mark.parametrize("shifts, m, n, cells, bounded, witness", [
        ([(0, 1), (1, 1)], 1, 1, 2, True, (1, 0)),     # z(z+1)
        ([(0, 2)], 1, 1, 3, False, (1, 1)),            # z^2
        ([(0, 3)], 2, 1, 216, False, (1, 1, 1)),       # z^3
    ])
    def test_zero_shift_leaves_the_origin(self, shifts, m, n, cells, bounded,
                                          witness):
        # a zero shift kills d_k, so cells reach nonzero points, some of
        # them fixed by the equalities alone (no free parameter left)
        res = prevariety(qq_spec(shifts, m, n))
        assert res.cell_count == cells
        assert not res.is_origin_only
        assert res.points_bounded is bounded
        assert res.witness == TropicalPoint.of(*witness)

    @pytest.mark.parametrize("mode, m, n", [
        ("qq", 3, 1), ("qq", 1, 3), ("QQ", 3, 1), ("QQ", 1, 3)])
    def test_dimension_4_is_origin_only(self, mode, m, n):
        shifts = [(k, 1) for k in range(1, 5)]
        res = prevariety(mode_spec(mode, shifts, m, n))
        assert res.cell_count == 2100
        assert res.is_origin_only
        assert res.witness is None

    @pytest.mark.parametrize("mode, m, n, cells", [
        ("qq", 2, 2, 2100), ("QQ", 2, 2, 2100), ("qq", 3, 1, 2100),
        ("QQ", 3, 1, 2100), ("qq", 1, 3, 2100), ("QQ", 1, 3, 2100),
        ("QQ", 3, 2, 680625)])
    def test_origin_only_count_from_the_supports(self, mode, m, n, cells):
        # every cell of a {0} prevariety is {0}, and at w = 0 a pair is
        # minimising exactly when both of its items have the least
        # valuation of their support: so the cells number prod C(k_s, 2)
        # over the supports s, k_s counting those items
        spec = mode_spec(mode, [(k, 1) for k in range(1, m + n + 1)], m, n)
        count = 1
        for s in symbolic_support(spec):
            vals = [v for _, v, _ in s.items]
            count *= comb(vals.count(min(vals)), 2)
        assert count == cells
        res = prevariety(spec)
        assert res.is_origin_only
        assert res.cell_count == count

    def test_permutation_invariance(self):
        # same shifts, m and n swapped: same verdict and cell count
        a = prevariety(qq_spec([(1, 1), (2, 1), (3, 1)], 2, 1))
        b = prevariety(qq_spec([(1, 1), (2, 1), (3, 1)], 1, 2))
        assert a.is_origin_only == b.is_origin_only
        assert a.cell_count == b.cell_count


class TestExclusionWitness:
    def test_derived_examples(self):
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        assert exclusion_witness(spec, TropicalPoint.of(-1, -1)) == 2
        assert exclusion_witness(spec, TropicalPoint.of(0, 3)) == 2
        assert exclusion_witness(spec, TropicalPoint.of(0, 0)) is None

    def test_point_of_the_wrong_length_rejected(self):
        # m + n = 2: a point with one or three coordinates is not in R^2
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        for w in (TropicalPoint.of(-1), TropicalPoint.of(0, 0, 7)):
            with pytest.raises(ValueError):
                exclusion_witness(spec, w)
            with pytest.raises(ValueError):
                hypersurface_contains(F2_SUPPORT, w)

    def test_consistency_with_prevariety(self):
        # points in no cell must have a witness; sampled rational points
        spec = qq_spec([(1, 1), (2, 1)], 1, 1)
        samples = [TropicalPoint.of(F(1, 2), 0), TropicalPoint.of(-2, 5),
                   TropicalPoint.of(1, 1), TropicalPoint.of(0, F(-1, 3))]
        for w in samples:
            assert exclusion_witness(spec, w) is not None

    def test_lift_valuations_inside_prevariety(self):
        # certified lifts have coordinatewise valuation 0, which must lie
        # in every hypersurface (soundness direction of the correspondence)
        from qqsystems.infinite import enumerate_infinite_solutions
        from qqsystems.lifting import lift_newton
        spec = ProblemSpec(mode="qq", lam=master((1, 1), (2, 1)),
                           m=1, n=1, K=3)
        for base in enumerate_infinite_solutions(spec):
            ls = lift_newton(base, spec)
            vals = [s.valuation() for s in ls.point.x + ls.point.y]
            assert all(v == 0 for v in vals)
            w = TropicalPoint(tuple(F(v) for v in vals))
            assert exclusion_witness(spec, w) is None


# shifts drawn with repetition: a repeated value is a multiplicity, and the
# zero shift kills d_k, so witnesses and unbounded cells occur
_SHIFTS = [0, 0, 1, -1, 2, F(1, 2), (1, 1)]
_Q = [2, -3, F(1, 2), (1, 1)]


def _scalar(v):
    return Scalar(*v) if isinstance(v, tuple) else Scalar(v)


@st.composite
def _small_specs(draw):
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(0, dim))
    counts = Counter(draw(st.lists(st.sampled_from(_SHIFTS),
                                   min_size=dim, max_size=dim)))
    lam = MasterData(tuple((_scalar(a), k) for a, k in counts.items()))
    if draw(st.booleans()):
        return ProblemSpec(mode="qq", lam=lam, m=m, n=dim - m)
    return ProblemSpec(mode="QQ", lam=lam, m=m, n=dim - m,
                       q=_scalar(draw(st.sampled_from(_Q))))


def _feasible_rows(patch, spec):
    """prevariety's result on spec, and each row it hands lp.feasible,
    with its rhs appended."""
    rows = []

    def recording(a_ub, b_ub, *, dim):
        rows.extend(list(a) + [b] for a, b in zip(a_ub, b_ub))
        return lp.feasible(a_ub, b_ub, dim=dim)

    patch.setattr(tropical, "feasible", recording)
    return prevariety(spec), rows


@settings(max_examples=150, deadline=None)
@given(_small_specs())
def test_prevariety_matches_fraction_reference(spec):
    # feasible's vertex moves with a row's positive scale, so the leaf
    # hands it primitive integer rows, its pins scaled like the cell's own
    # rows, and prevariety_reference scales its rows the same way
    with pytest.MonkeyPatch.context() as patch:
        res, rows = _feasible_rows(patch, spec)
    assert res == prevariety_reference.prevariety(spec)
    assert all(gcd(*row) == 1 or not any(row) for row in rows), rows
    _assert_witness_in_prevariety(spec, res)


def test_pin_row_with_a_common_factor_reaches_feasible_primitive(monkeypatch):
    # no residual support of a small spec gives a pin row with a common
    # factor, so this support is built by hand: its pair (0, 1) puts
    # w0 = -2 w1, items 2 and 3 bound w1 to [0, 1], and pinning w0 to its
    # minimum -2 is the row -2 w1 <= -2, which feasible gets as -w1 <= -1,
    # as it gets w1's pin to its maximum 1
    s = TropicalSupport(tuple((u, v, ONE) for u, v in [
        ((1, 2), 0), ((0, 0), 0), ((0, 1), 0), ((1, 1), 1)]))
    monkeypatch.setattr(systems, "symbolic_support", lambda spec: [s])
    res, rows = _feasible_rows(monkeypatch, qq_spec([(1, 1), (2, 1)], 1, 1))
    assert res.witness == TropicalPoint.of(-2, 1)
    # the cell's rows -w1 <= 0 and w1 <= 1, then the pins of w0 and w1
    assert rows == [[-1, 0], [1, 1], [-1, -1], [-1, -1]]


def _assert_witness_in_prevariety(spec, res):
    """A witness is a nonzero point that no hypersurface excludes."""
    if res.witness is not None:
        assert any(res.witness.w)
        assert exclusion_witness(spec, res.witness) is None


# dimension 4, where |S_m x S_n| reaches 6: the orbit enumeration against
# the reference, which visits every cell.  Zero shifts give witnesses and
# unbounded cells; each spec has cells with nontrivial stabilisers (of
# order up to 4 at (2,2)), which count for fewer than |G| cells.
_Z4 = [(0, 1), (1, 1), (2, 1), (-1, 1)]  # z(z+1)(z+2)(z-1)
_Z2 = [(0, 2), (1, 2)]                   # z^2 (z+1)^2
_R2 = [(1, 2), (2, 2)]                   # (z+1)^2 (z+2)^2


@pytest.mark.parametrize("mode, shifts, m, n", [
    ("qq", _Z4, 2, 2), ("qq", _Z2, 2, 2), ("QQ", _R2, 2, 2),
    ("qq", _Z4, 3, 1), ("QQ", _R2, 3, 1),
    ("qq", _Z4, 1, 3), ("QQ", _R2, 1, 3)],
    ids=["qq-z4-2-2", "qq-z2-2-2", "QQ-r2-2-2", "qq-z4-3-1", "QQ-r2-3-1",
         "qq-z4-1-3", "QQ-r2-1-3"])
def test_prevariety_matches_reference_in_dimension_4(mode, shifts, m, n):
    spec = mode_spec(mode, shifts, m, n)
    res = prevariety(spec)
    assert res == prevariety_reference.prevariety(spec)
    _assert_witness_in_prevariety(spec, res)


# The exclusion rule (tropical module docstring): for w != 0 with
# mu = min w_i, component s = |{i : w_i = mu}| excludes w when mu < 0, and
# component m + n does when mu >= 0.  So the prevariety is {0} whenever
# every d_k != 0, for every (m, n), in both modes and at every q.
def _excluding_component(w):
    mu = min(w)
    return w.count(mu) if mu < 0 else len(w)


_RULE_SHIFTS = [1, 2, -1, -3, F(1, 2), F(-5, 3), (1, 1), (2, -1)]
_RULE_Q = [3, F(1, 2), -2, 5]
# a few values drawn often, so that minima tie, and any small fraction
_RULE_COORDS = st.one_of(st.sampled_from([F(-2), F(-1), F(-1, 2), F(0),
                                          F(1, 3), F(1)]),
                         st.fractions(-4, 4, max_denominator=6))


@pytest.mark.parametrize("mode", ["qq", "QQ"])
@pytest.mark.parametrize("dim", range(1, 9))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_exclusion_rule(mode, dim, data):
    # one drawn Lambda with every d_k != 0, q and w != 0, at every (m, n)
    # with m + n = dim
    shifts = Counter(data.draw(st.lists(st.sampled_from(_RULE_SHIFTS),
                                        min_size=dim, max_size=dim)))
    lam = MasterData(tuple((_scalar(a), k) for a, k in shifts.items()))
    q = _scalar(data.draw(st.sampled_from(_RULE_Q))) if mode == "QQ" else None
    specs = [ProblemSpec(mode=mode, lam=lam, m=m, n=dim - m, q=q, size_cap=8)
             for m in range(dim + 1)]
    try:
        check_theorem_hypothesis(specs[0])
    except SpecValidationError:
        assume(False)
    w = tuple(data.draw(st.lists(_RULE_COORDS, min_size=dim, max_size=dim)
                        .filter(any)))
    for spec in specs:
        component = symbolic_support(spec)[_excluding_component(w) - 1]
        assert not hypersurface_contains(component, TropicalPoint(w))


@pytest.mark.parametrize("mode, m, n", [
    (mode, m, d - m) for mode in ("qq", "QQ") for d in range(1, 5)
    for m in range(d + 1)])
def test_enumeration_gives_the_closed_form_count(mode, m, n):
    # the prevariety is {0}, so a cell picks, in each f_k, a pair of its
    # valuation-0 items: the C(d, k) square-free monomials of degree k and
    # the constant
    dim = m + n
    res = prevariety(mode_spec(mode, [(k, 1) for k in range(1, dim + 1)],
                               m, n))
    assert res.is_origin_only
    assert res.cell_count == prod(comb(comb(dim, k) + 1, 2)
                                  for k in range(1, dim + 1))


def test_asymmetric_support_is_an_internal_error():
    # swapping the coordinates sends x to y, which is not in the support
    s = support([((1, 0), 0), ((0, 0), 0)])
    with pytest.raises(RuntimeError):
        _pair_images(s, [(0, 1)], [(0, 1), (1, 0)])


def _cell(eqs, ineqs):
    """A _Cell from rows (c_1..c_dim, h): c.w = h and c.w <= h."""
    cell = _Cell({}, {})
    assert all(cell.add_equality(row) for row in eqs)
    assert all(cell.add_inequality(row) for row in cell.reduced(ineqs))
    return cell


def _int_rows(dim, min_size, max_size):
    return st.lists(st.lists(st.integers(-3, 3), min_size=dim + 1,
                             max_size=dim + 1),
                    min_size=min_size, max_size=max_size)


@st.composite
def _cells_and_items(draw):
    """A cell of random equalities, the ones it took, item rows, weights."""
    dim = draw(st.integers(1, 4))
    cell = _Cell({}, {})
    # an inconsistent equality is refused and leaves the cell unchanged
    taken = [e for e in draw(_int_rows(dim, 0, dim)) if cell.add_equality(e)]
    items = draw(_int_rows(dim, 2, 5))
    weights = draw(st.lists(st.integers(-4, 4), min_size=len(taken),
                            max_size=len(taken)))
    return cell, taken, items, weights


@settings(max_examples=200, deadline=None)
@given(_cells_and_items())
def test_item_reduction(case):
    # prevariety reduces each item row once per cell and builds every
    # pair's rows from differences of the results
    cell, taken, items, weights = case
    red = cell.reduced(items)
    assert all(r[col] == 0 for r in red for col in cell.eqs)
    for i, ri in enumerate(items):
        for j, rj in enumerate(items):
            diff = [a - b for a, b in zip(ri, rj)]
            assert _primitive([a - b for a, b in zip(red[i], red[j])]) == \
                _primitive(cell.reduced([diff])[0])
    span = [sum(w * e[k] for w, e in zip(weights, taken))
            for k in range(len(items[0]))]
    assert not any(cell.reduced([span])[0])


@settings(max_examples=200, deadline=None)
@given(_cells_and_items())
def test_pair_cell_from_least_cell(case):
    # prevariety builds pair (a, b)'s cell as item a's least cell plus
    # R_a = R_b; it must equal the pair's R_a - R_c <= 0 for c not in
    # {a, b}, then R_a = R_b, row for row and in the same order
    cell, _, items, _ = case
    rows = cell.reduced(items)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            eq = [x - y for x, y in zip(items[a], items[b])]
            new = _least_cell(cell, rows, a)
            if new is not None and not new.add_equality(eq):
                new = None
            old = cell.copy()
            if not (all(old.add_inequality([x - y for x, y in zip(rows[a], r)])
                        for k, r in enumerate(rows) if k not in (a, b))
                    and old.add_equality(eq)):
                old = None
            if old is None or new is None:
                assert old is new
            else:
                assert list(new.eqs.items()) == list(old.eqs.items())
                assert list(new.ineqs) == list(old.ineqs)


def _decided_at_a_point(cell, dim):
    """_is_origin_cell on the cell's rows, as prevariety's search calls it."""
    free, _, _ = cell.on_free(dim)
    return _is_origin_cell(cell, free)


def _per_coordinate(cell, dim):
    """{0} iff every coordinate's min and max over the cell are 0."""
    free, a_ub, b_ub = cell.on_free(dim)
    for i in range(dim):
        d, a, h = cell.coordinate(i, free)
        if not any(a):
            if h:
                return False
            continue
        lo = lp.lp_solve([-v for v in a], a_ub, b_ub)[1]
        hi = lp.lp_solve(a, a_ub, b_ub)[1]
        if lo is None or hi is None or h + lo or h - hi:
            return False
    return True


class TestLeafDecision:
    """The one-LP {0} decision against per-coordinate min/max."""

    @pytest.mark.parametrize("dim, eqs, ineqs, origin_only", [
        # w1, w2 >= 0, w1 + w2 <= 0, w1 <= w2: four rows tight at the
        # origin against two free columns (a degenerate vertex)
        (2, [], [(-1, 0, 0), (0, -1, 0), (1, 1, 0), (1, -1, 0), (1, 0, 5)],
         True),
        # the point (1, 1), fixed by inequalities on one free column
        (2, [(1, -1, 0)], [(0, 1, 1), (0, -1, -1)], False),
        # the point (2,), fixed by an equality: no free column
        (1, [(1, 2)], [], False),
        # the origin, fixed by equalities alone
        (2, [(1, 1, 0), (1, -1, 0)], [], True),
        # the segment w1 = w2 in [0, 1]: the origin is an endpoint
        (2, [(1, -1, 0)], [(0, -1, 0), (0, 1, 1)], False),
        # the segment w in [-1, 1]: no row is tight at the origin
        (1, [], [(1, 1), (-1, 1)], False),
        # the ray w1 >= 0, w2 = 0 cut by three rows of rank 2
        (2, [], [(-1, 0, 0), (0, -1, 0), (0, 1, 0)], False),
        # the line w1 = w2: its two rows have A_act d = 0 on d = (1, 1)
        (2, [], [(1, -1, 0), (-1, 1, 0)], False),
    ], ids=["degenerate-vertex", "nonzero-point", "fixed-nonzero-point",
            "fixed-origin", "segment-from-origin", "segment-through-origin",
            "ray", "line"])
    def test_against_per_coordinate(self, dim, eqs, ineqs, origin_only):
        cell = _cell(eqs, ineqs)
        assert _per_coordinate(cell, dim) is origin_only
        assert _decided_at_a_point(cell, dim) is origin_only

    def test_one_lp_per_leaf(self, monkeypatch):
        # qq (2,2) on shifts 1..4 makes 400 LP calls, none of them to
        # lp.feasible (no leaf needs a witness): 352 lp.extend calls that
        # decide least and pair cells in the search, and 48 lp.lp_solve
        # cone LPs among the 103 nodes tested for {0}, 58 of which close
        # their subtree.  A cone LP at each of 189 leaves took 676, and two
        # LPs per coordinate at every leaf took 1,860.
        calls = []
        depth = [0]  # lp_solve's own extend call is not counted again

        def counted(solve):
            def call(*args, **kwargs):
                if not depth[0]:
                    calls.append(None)
                depth[0] += 1
                try:
                    return solve(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return call

        for name in ("lp_solve", "extend"):
            monkeypatch.setattr(lp, name, counted(getattr(lp, name)))
        # prevariety calls feasible by the name it imported from lp
        monkeypatch.setattr(tropical, "feasible", counted(tropical.feasible))
        pivots = []
        pivot = lp._pivot
        monkeypatch.setattr(
            lp, "_pivot", lambda *args: pivots.append(None) or pivot(*args))
        res = prevariety(qq_spec([(k, 1) for k in range(1, 5)], 2, 2))
        assert res.cell_count == 2100 and res.is_origin_only
        assert len(calls) < 450
        # 275 pivots: each least cell extends its node's feasible tableau;
        # a fresh phase 1 per least cell took 720
        assert len(pivots) <= 400


class TestSizeCap:
    def test_cap_enforced(self):
        from qqsystems.systems import SizeCapExceededError
        shifts = [(k, 1) for k in range(1, 8)]
        spec = ProblemSpec(mode="qq", lam=master(*shifts), m=4, n=3,
                           size_cap=6)
        with pytest.raises(SizeCapExceededError):
            prevariety(spec)
