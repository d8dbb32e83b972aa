from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

import lp_reference
from qqsystems import lp
from qqsystems.lp import (lp_solve, feasible, optimum, OPTIMAL, INFEASIBLE,
                         UNBOUNDED)

F = Fraction


def test_simple_minimum():
    # min x subject to x >= 1  (i.e. -x <= -1)
    res = lp_solve([F(1)], a_ub=[[F(-1)]], b_ub=[F(-1)])
    assert res.status == OPTIMAL
    assert res.objective == F(1)
    assert res.x == (F(1),)


def test_unbounded():
    res = lp_solve([F(1)], a_ub=[[F(1)]], b_ub=[F(5)])  # min x, x <= 5
    assert res.status == UNBOUNDED


def test_infeasible():
    # x <= 0 and x >= 1
    res = lp_solve([F(0)], a_ub=[[F(1)], [F(-1)]], b_ub=[F(0), F(-1)])
    assert res.status == INFEASIBLE


def test_free_variables_negative_solution():
    # min x subject to x >= -3
    res = lp_solve([F(1)], a_ub=[[F(-1)]], b_ub=[F(3)])
    assert res.status == OPTIMAL
    assert res.objective == F(-3)


def test_exact_rational_answer():
    # min 3x + 2y with x + y >= 7/3, x - y <= 1/2, y <= 2
    res = lp_solve([F(3), F(2)],
                   a_ub=[[F(-1), F(-1)], [F(1), F(-1)], [F(0), F(1)]],
                   b_ub=[F(-7, 3), F(1, 2), F(2)])
    assert res.status == OPTIMAL
    # optimum at y = 2, x = 1/3: objective = 1 + 4 = 5
    assert res.objective == F(5)


def test_degenerate_cycling_guard():
    # a classic degenerate instance; Bland's rule must terminate
    a_ub = [[F(1), F(1), F(0)], [F(1), F(0), F(1)],
            [F(-1), F(0), F(0)], [F(0), F(-1), F(0)], [F(0), F(0), F(-1)]]
    b_ub = [F(0), F(0), F(0), F(0), F(0)]
    res = lp_solve([F(-3, 4), F(20), F(-1, 2)], a_ub=a_ub, b_ub=b_ub)
    assert res.status in (OPTIMAL, UNBOUNDED)


def test_feasible_helper():
    pt = feasible(a_ub=[[F(1)], [F(-1)]], b_ub=[F(2), F(0)], dim=1)
    assert pt is not None
    assert F(0) <= pt[0] <= F(2)
    assert feasible(a_ub=[[F(1)], [F(-1)]], b_ub=[F(-1), F(0)], dim=1) is None


def test_no_constraints():
    res = lp_solve([F(0), F(0)])
    assert res.status == OPTIMAL
    assert res.x == (F(0), F(0))


def test_no_constraints_nonzero_cost_is_unbounded():
    assert lp_solve([F(1)]).status == UNBOUNDED
    assert lp_solve([F(0), F(-1, 2)]).status == UNBOUNDED


_small = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
# zero right-hand sides make degenerate vertices common
_rhs = st.one_of(st.just(F(0)), _small)


@st.composite
def _problems(draw):
    """Small LPs: 1-4 free variables, 0-7 <= rows."""
    n = draw(st.integers(1, 4))
    vec = st.lists(_small, min_size=n, max_size=n)
    # a zero cost asks only for feasibility: the answer is the vertex
    # where phase 1 stops
    c = draw(st.one_of(st.just([F(0)] * n), vec))
    a_ub = draw(st.lists(vec, max_size=7))
    b_ub = draw(st.lists(_rhs, min_size=len(a_ub), max_size=len(a_ub)))
    return c, a_ub, b_ub


@settings(max_examples=400, deadline=None)
@given(_problems())
def test_matches_fraction_reference(problem):
    assert lp_solve(*problem) == lp_reference.lp_solve(*problem)


def _integers(row):
    """The row times the lcm of its denominators: a row of ints."""
    d = lcm(*(v.denominator for v in row))
    return [int(v * d) for v in row]


@settings(max_examples=400, deadline=None)
@given(_problems())
def test_optimum_matches_lp_solve(problem):
    c, a_ub, b_ub = problem
    c = _integers(c)
    rows = [_integers(a + [b]) for a, b in zip(a_ub, b_ub)]
    a_ub, b_ub = [r[:-1] for r in rows], [r[-1] for r in rows]
    res = lp_solve(c, a_ub, b_ub)
    assert optimum(c, a_ub, b_ub) == (res.status, res.objective)


def test_optimum_no_rows():
    assert optimum([0, 0]) == (OPTIMAL, 0)
    assert optimum([0, -1]) == (UNBOUNDED, None)


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
    assert optimum([0, 0], a_ub, b_ub) == (OPTIMAL, 0)
    assert not calls
    assert optimum([-1, -1], a_ub, b_ub) == (OPTIMAL, -3)
    assert len(calls) == 1  # phase 2 only
    assert optimum([0, 1], a_ub, b_ub) == (OPTIMAL, -3)


def test_optimum_one_negative_row_infeasible():
    # x <= 1 and x >= 2: only the second row starts with an artificial
    for c in ([0], [1]):
        assert optimum(c, [[1], [-1]], [1, -2]) == (INFEASIBLE, None)


def test_optimum_unbounded_after_phase_1():
    # min -x subject to x >= 1
    assert optimum([-1], [[-1]], [-1]) == (UNBOUNDED, None)
    assert optimum([1], [[-1]], [-1]) == (OPTIMAL, 1)
