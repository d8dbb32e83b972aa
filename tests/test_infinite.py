from itertools import combinations
from math import comb

import pytest

from qqsystems.scalar import Scalar
from qqsystems.systems import MasterData, ProblemSpec
from qqsystems.infinite import enumerate_infinite_solutions


def master(*shifts):
    return MasterData(tuple((Scalar(a), m) for a, m in shifts))


def qq_spec(shifts, m, n):
    return ProblemSpec(mode="qq", lam=master(*shifts), m=m, n=n)


def QQ_spec(shifts, m, n, q):
    return ProblemSpec(mode="QQ", lam=master(*shifts), m=m, n=n, q=Scalar(q))


def test_count_distinct_shifts():
    spec = qq_spec([(1, 1), (2, 1), (3, 1)], 2, 1)
    sols = enumerate_infinite_solutions(spec)
    assert len(sols) == comb(3, 2)
    assert all(s.tier == "generic" for s in sols)


def test_count_all_binomials_up_to_six():
    shifts = [(k, 1) for k in range(1, 7)]
    for m in range(0, 7):
        n = 6 - m
        if m == 0 or n == 0:
            continue  # point must have at least one unknown per side
        spec = qq_spec(shifts, m, n)
        assert len(enumerate_infinite_solutions(spec)) == comb(6, m)


def test_repeated_root_dedup():
    # (z+1)^2: the only split of {1,1} into 1+1 is x={1}, y={1}
    spec = qq_spec([(1, 2)], 1, 1)
    sols = enumerate_infinite_solutions(spec)
    assert len(sols) == 1
    assert sols[0].tier == "degenerate"
    assert sols[0].l == 1


@pytest.mark.parametrize("mode", ["qq", "QQ"])
@pytest.mark.parametrize("shifts,m", [
    ([(1, 2)], 1), ([(1, 4)], 2), ([(1, 2), (2, 1)], 2),
    ([(1, 3), (2, 2)], 2), ([(1, 2), (2, 2), (3, 1)], 3)])
def test_bases_are_the_distinct_m_combinations(mode, shifts, m):
    """Oracle: the distinct sorted m-combinations of the root multiset,
    with the plus part scaled by q in QQ mode; each appears exactly once."""
    lam = master(*shifts)
    n = lam.degree - m
    spec = qq_spec(shifts, m, n) if mode == "qq" else QQ_spec(shifts, m, n, 3)
    scale = Scalar(3) if mode == "QQ" else Scalar(1)
    roots = lam.root_shift_multiset()
    expected = set()
    for idx in combinations(range(len(roots)), m):
        sub = sorted((scale * roots[i] for i in idx), key=Scalar.sort_key)
        rest = [roots[i] for i in range(len(roots)) if i not in idx]
        expected.add((tuple(sub), tuple(sorted(rest, key=Scalar.sort_key))))
    got = [(s.x0, s.y0) for s in enumerate_infinite_solutions(spec)]
    assert len(got) == len(expected)
    assert set(got) == expected


def test_partial_degeneracy():
    # (z+1)^2 (z+2): splits of {1,1,2} with m=2
    spec = qq_spec([(1, 2), (2, 1)], 2, 1)
    sols = enumerate_infinite_solutions(spec)
    assert len(sols) == 2
    tiers = sorted(s.tier for s in sols)
    assert tiers == ["degenerate", "degenerate"]
    # x={1,1}, y={2} has l=2; x={1,2}, y={1} has l=2
    assert all(s.l == 2 for s in sols)


def test_deterministic_order():
    spec = qq_spec([(1, 1), (2, 1), (3, 1)], 1, 2)
    sols = enumerate_infinite_solutions(spec)
    xs = [tuple(v.sort_key() for v in s.x0) for s in sols]
    assert xs == sorted(xs)


def test_difference_scaling():
    spec = QQ_spec([(1, 1), (2, 1)], 1, 1, 3)
    sols = enumerate_infinite_solutions(spec)
    pairs = [([str(v) for v in s.x0], [str(v) for v in s.y0]) for s in sols]
    assert pairs == [(["3"], ["2"]), (["6"], ["1"])]
    assert all(s.tier == "generic" for s in sols)


def test_difference_q_collision():
    # Lambda = (z+1)^2, q = 3: x0 = {3}, y0 = {1}; the pre-scaling
    # multiset {1, 1} collides, so the base is degenerate even though
    # x0 and y0 look distinct after scaling
    spec = QQ_spec([(1, 2)], 1, 1, 3)
    sols = enumerate_infinite_solutions(spec)
    assert len(sols) == 1
    sol = sols[0]
    assert [str(v) for v in sol.x0] == ["3"]
    assert [str(v) for v in sol.y0] == ["1"]
    assert sol.tier == "degenerate"
    assert sol.l == 1
    assert sol.scaled_collision


def test_json():
    spec = qq_spec([(1, 1), (2, 1)], 1, 1)
    obj = enumerate_infinite_solutions(spec)[0].to_json()
    assert obj["x0"] == ["1"] and obj["y0"] == ["2"]
    assert obj["tier"] == "generic"
