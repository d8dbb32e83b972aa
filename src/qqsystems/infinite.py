"""Enumeration of solutions of the infinite (t = 0) system.

At rank one every solution is a split of the master polynomial's root
multiset: q+ q- = Lambda in differential mode, or Q+(qz) Q-(z) = Lambda
in difference mode (where the plus-part shifts pick up a factor q).
The solution set is finite, so isolatedness is automatic; what matters
downstream is genericity, which decides the lifting tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Sequence, Tuple

from .scalar import Scalar
from .systems import ProblemSpec


@dataclass(frozen=True)
class InfiniteSolution:
    """One split of the root multiset, with its degeneracy data.

    l counts the distinct values of the multiset that controls the t=0
    Jacobian rank: x0 + y0 in differential mode, (x0/q) + y0 in
    difference mode.  Either is Lambda's root multiset, so l is the
    number of distinct shifts of Lambda for every base, and the tier is
    generic iff those shifts are all simple.  In difference mode x0 + y0
    itself can have fewer distinct values, when q-scaling makes the two
    parts collide; scaled_collision records that.
    """

    x0: Tuple[Scalar, ...]
    y0: Tuple[Scalar, ...]
    l: int
    tier: str  # "generic" | "degenerate"
    scaled_collision: bool = False

    def to_json(self):
        return {"x0": [v.to_json() for v in self.x0],
                "y0": [v.to_json() for v in self.y0],
                "l": self.l, "tier": self.tier,
                "scaled_collision": self.scaled_collision}


def _canon(values: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    return tuple(sorted(values, key=lambda v: v.sort_key()))


def _make_solution(sub: Sequence[Scalar], rest: Sequence[Scalar],
                   spec: ProblemSpec, l: int, tier: str) -> InfiniteSolution:
    x0 = _canon([spec.q * a for a in sub] if spec.is_difference else sub)
    y0 = _canon(rest)
    collision = (spec.is_difference
                 and len({v.sort_key() for v in x0 + y0}) != l)
    return InfiniteSolution(x0=x0, y0=y0, l=l, tier=tier,
                            scaled_collision=collision)


def enumerate_infinite_solutions(spec: ProblemSpec) -> List[InfiniteSolution]:
    """One solution per size-m sub-multiset of Lambda's root shifts.

    Deterministic order: lexicographic on the sorted plus-part shifts.
    """
    if spec.m + spec.n != spec.lam.degree:
        raise ValueError("m + n must equal deg Lambda")
    shifts = spec.lam.shifts
    l = len(shifts)
    tier = "generic" if l == spec.lam.degree else "degenerate"
    out = []
    # takes[i]: how many copies of the i-th distinct shift go to the plus part
    for takes in product(*(range(mult + 1) for _, mult in shifts)):
        if sum(takes) != spec.m:
            continue
        sub = [v for (v, _), k in zip(shifts, takes) for _ in range(k)]
        rest = [v for (v, mult), k in zip(shifts, takes)
                for _ in range(mult - k)]
        out.append(_make_solution(sub, rest, spec, l, tier))
    out.sort(key=lambda s: tuple(v.sort_key() for v in s.x0))
    return out
