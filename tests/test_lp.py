from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings, strategies as st

import lp_reference
from qqsystems import lp
from qqsystems.lp import (extend, lp_solve, feasible, OPTIMAL, INFEASIBLE,
                          UNBOUNDED)

F = Fraction


def test_simple_minimum():
    # min x subject to x >= 1  (i.e. -x <= -1)
    assert lp_solve([1], a_ub=[[-1]], b_ub=[-1]) == (OPTIMAL, 1)
    assert feasible([[-1]], [-1], dim=1) == (F(1),)


def test_unbounded():
    assert lp_solve([1], a_ub=[[1]], b_ub=[5]) == (UNBOUNDED, None)


def test_infeasible():
    # x <= 0 and x >= 1
    assert lp_solve([0], a_ub=[[1], [-1]], b_ub=[0, -1]) == (INFEASIBLE, None)


def test_free_variables_negative_solution():
    # min x subject to x >= -3
    assert lp_solve([1], a_ub=[[-1]], b_ub=[3]) == (OPTIMAL, -3)


def test_exact_rational_answer():
    # min 3x + 2y with x + y >= 7/3, x - y <= 1/2, y <= 2, in integer rows
    status, minimum = lp_solve([3, 2], a_ub=[[-3, -3], [2, -2], [0, 1]],
                               b_ub=[-7, 1, 2])
    # optimum at y = 2, x = 1/3: objective = 1 + 4 = 5
    assert (status, minimum) == (OPTIMAL, 5)
    assert isinstance(minimum, Fraction)


def test_degenerate_cycling_guard():
    # a classic degenerate instance; Bland's rule must terminate
    a_ub = [[1, 1, 0], [1, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    status, _ = lp_solve([-3, 80, -2], a_ub=a_ub, b_ub=[0] * 5)
    assert status in (OPTIMAL, UNBOUNDED)


def test_feasible_helper():
    pt = feasible(a_ub=[[1], [-1]], b_ub=[2, 0], dim=1)
    assert pt is not None
    assert F(0) <= pt[0] <= F(2)
    assert feasible(a_ub=[[1], [-1]], b_ub=[-1, 0], dim=1) is None


def test_no_constraints():
    assert lp_solve([0, 0]) == (OPTIMAL, 0)
    assert feasible(dim=2) == (F(0), F(0))


def test_no_constraints_nonzero_cost_is_unbounded():
    assert lp_solve([1]) == (UNBOUNDED, None)
    assert lp_solve([0, -1]) == (UNBOUNDED, None)


_small = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
# zero right-hand sides make degenerate vertices common
_rhs = st.one_of(st.just(F(0)), _small)


@st.composite
def _problems(draw):
    """Small LPs in integer rows: 1-4 free variables, 0-7 <= rows, each
    drawn in Fractions and scaled by the lcm of its denominators."""
    n = draw(st.integers(1, 4))
    vec = st.lists(_small, min_size=n, max_size=n)
    # a zero cost asks only for feasibility
    c = draw(st.one_of(st.just([F(0)] * n), vec))
    a_ub = draw(st.lists(vec, max_size=7))
    b_ub = draw(st.lists(_rhs, min_size=len(a_ub), max_size=len(a_ub)))
    rows = [_integers(a + [b]) for a, b in zip(a_ub, b_ub)]
    return _integers(c), [r[:-1] for r in rows], [r[-1] for r in rows]


def _integers(row):
    """The row times the lcm of its denominators: a row of ints."""
    d = lcm(*(v.denominator for v in row))
    return [int(v * d) for v in row]


@settings(max_examples=400, deadline=None)
@given(_problems())
def test_matches_fraction_reference(problem):
    # the status and the minimum do not depend on where phase 1 starts
    assert lp_solve(*problem) == lp_reference.lp_solve(*problem)


@settings(max_examples=400, deadline=None)
@given(_problems())
def test_optimum_matches_lp_solve(problem):
    # the minimum lp_solve reports is attained: capping c.x at it leaves a
    # feasible system, and every point of that system has c.x equal to it
    c, a_ub, b_ub = problem
    n = len(c)
    status, minimum = lp_solve(c, a_ub, b_ub)
    if status == INFEASIBLE:
        assert feasible(a_ub, b_ub, dim=n) is None
        return
    if status == UNBOUNDED:
        cap, rhs = c, -1000
    else:
        d = minimum.denominator
        cap, rhs = [d * v for v in c], minimum.numerator
    pt = feasible(a_ub + [cap], b_ub + [rhs], dim=n)
    assert pt is not None
    if status == OPTIMAL:
        assert sum(v * x for v, x in zip(c, pt)) == minimum


@settings(max_examples=400, deadline=None)
@given(_problems())
def test_feasible_matches_reference(problem):
    _, a_ub, b_ub = problem
    n = len(problem[0])
    pt = feasible(a_ub, b_ub, dim=n)
    status, _ = lp_reference.lp_solve([0] * n, a_ub, b_ub)
    assert (pt is None) == (status == INFEASIBLE)
    if pt is not None:
        assert len(pt) == n
        assert all(sum(v * x for v, x in zip(a, pt)) <= b
                   for a, b in zip(a_ub, b_ub))


def test_optimum_no_rows():
    assert lp_solve([0, 0]) == (OPTIMAL, 0)
    assert lp_solve([0, -1]) == (UNBOUNDED, None)


def test_optimum_runs_no_phase_1_when_every_rhs_is_nonnegative(monkeypatch):
    # 0 <= x <= 2, y <= 1 and x + y >= -1 hold at the origin, where the
    # slack basis starts
    a_ub, b_ub = [[1, 0], [0, 1], [-1, 0], [-1, -1]], [2, 1, 0, 1]
    calls = []
    simplex = lp._simplex

    def counted(*args):
        calls.append(None)
        return simplex(*args)
    monkeypatch.setattr(lp, "_simplex", counted)
    assert lp_solve([0, 0], a_ub, b_ub) == (OPTIMAL, 0)
    assert feasible(a_ub, b_ub, dim=2) == (0, 0)
    assert not calls
    assert lp_solve([-1, -1], a_ub, b_ub) == (OPTIMAL, -3)
    assert len(calls) == 1  # phase 2 only
    assert lp_solve([0, 1], a_ub, b_ub) == (OPTIMAL, -3)


def test_optimum_one_negative_row_infeasible():
    # x <= 1 and x >= 2: only the second row starts with an artificial
    for c in ([0], [1]):
        assert lp_solve(c, [[1], [-1]], [1, -2]) == (INFEASIBLE, None)
    assert feasible([[1], [-1]], [1, -2], dim=1) is None


def test_optimum_unbounded_after_phase_1():
    # min -x subject to x >= 1
    assert lp_solve([-1], [[-1]], [-1]) == (UNBOUNDED, None)
    assert lp_solve([1], [[-1]], [-1]) == (OPTIMAL, 1)


_entry = st.integers(-3, 3)


@st.composite
def _chains(draw):
    """An integer system of 1-4 free variables, split into a base and one
    to three increments; rows may be zero, constant, repeated or negated,
    and their rhs negative."""
    n = draw(st.integers(1, 4))
    fresh = st.tuples(st.lists(_entry, min_size=n, max_size=n), _entry)
    zero = st.tuples(st.just([0] * n), st.sampled_from([0, 0, 1, 2, -1]))
    rows = draw(st.lists(st.one_of(fresh, fresh, fresh, zero), max_size=8))
    if rows:  # repeat some rows, or their negations, with another rhs
        rows += draw(st.lists(st.builds(
            lambda r, s, b: ([s * v for v in r[0]], b),
            st.sampled_from(rows), st.sampled_from([1, -1]), _entry),
            max_size=3))
        rows = draw(st.permutations(rows))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)),
                                min_size=1, max_size=3)))
    parts = [rows[i:j] for i, j in zip([0] + cuts, cuts + [len(rows)])]
    return n, parts


def _vertex(t):
    """The basic solution of the tableau, in the free variables."""
    n, rows, basis = t
    value = {b: Fraction(row[-1], row[b]) for row, b in zip(rows, basis)}
    return [value.get(j, F(0)) - value.get(n + j, F(0)) for j in range(n)]


@settings(max_examples=400, deadline=None)
@given(_chains())
# several rows whose rhs is negative once reduced, in one increment
@example((1, [[([-1], -1), ([-1], -2)]]))
@example((2, [[([-1, 0], -1)], [([0, -1], -1), ([-1, -1], -3)]]))
def test_extend_chain_matches_reference(chain):
    n, parts = chain
    t, held = (n, (), ()), []
    for part in parts:
        held += part
        a_ub, b_ub = [a for a, _ in held], [b for _, b in held]
        status, _ = lp_reference.lp_solve([0] * n, a_ub, b_ub)
        assert lp_solve([0] * n, a_ub, b_ub)[0] == status
        if t is not None:
            t = extend(t, [a for a, _ in part], [b for _, b in part])
        # an infeasible system stays infeasible under every increment
        assert (t is not None) == (status == OPTIMAL)
        if t is not None:
            _, rows, basis = t
            assert len(rows) == len(held)
            assert all(row[-1] >= 0 and row[b] > 0
                       for row, b in zip(rows, basis))
            x = _vertex(t)
            assert all(sum(v * w for v, w in zip(a, x)) <= b
                       for a, b in held)


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(lp, name)
    monkeypatch.setattr(
        lp, name, lambda *args: calls.append(None) or fn(*args))
    return calls


def test_extend_refutes_a_row_without_a_pivot(monkeypatch):
    # x >= 1 makes x+ basic; x <= 0 then reduces to s1 + s2 = -1, whose
    # nonnegative columns cannot meet the negative rhs
    t = extend((1, (), ()), [[-1]], [-1])
    assert t is not None and t[2] == (0,)
    pivots = _counting(monkeypatch, "_pivot")
    assert extend(t, [[1]], [0]) is None
    assert not pivots
    assert extend(t, [[1], [0]], [5, 0]) is not None


def test_extend_runs_no_phase_1_when_new_rows_hold_at_the_basis(monkeypatch):
    # x >= 1 puts the basis at x = 1, where x <= 2 and x + y >= 0 with
    # y = 0 hold, as 0 <= 0 does
    t = extend((2, (), ()), [[-1, 0]], [-1])
    calls = _counting(monkeypatch, "_simplex")
    t2 = extend(t, [[1, 0], [-1, -1], [0, 0]], [2, 0, 0])
    assert not calls
    assert len(t2[1]) == 4 and t2[2][0] == t[2][0]
    assert len(t[1]) == 1  # the tableau passed in is kept
    assert extend(t2, [[0, -1]], [-3]) is not None
    assert len(calls) == 1
