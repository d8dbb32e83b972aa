"""The three seeded workloads: CLI operations and their known answers.

Each operation is one ``qqsystems`` CLI call (``solve`` or ``tropical``) on a
spec built here.  The seed only picks shift values from small pools chosen so
that the verdict (and the amount of work) does not depend on the pick:

* generic-lift: each shift slot picks one of two integers that are not
  divisible by 3 (so in QQ mode with q = 3 no two shifts differ by a power of
  q and every base stays generic), or one of a conjugate pair of Gaussian
  integers.
* tropical-matrix: distinct positive shifts, so every d_k is nonzero and the
  supports, hence the cell tree, do not depend on the pick.
* ramified-lift: the repeated root a and the simple root b come from small
  pools on which the branch structure was checked to be the same.

An ``expect`` dict records the known answer; ``check.verdict_problems``
interprets it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Tuple

# per-operation wall-time budget (s); an operation past it is stopped and
# counted as undecided, at the budget
DEFAULT_BUDGET_S = 60.0
# the known hang, qq (z+a)^3 at K = 3: ROADMAP item 4 expects it to finish
# "in seconds", so a budget of a few seconds is enough to see the fix
HANG_BUDGET_S = 8.0

_REAL_SLOTS = [(1, 2), (4, 5), (7, 8), (10, 11), (13, 14), (16, 17)]
_GAUSS_SLOTS = [((1, 1), (1, -1)), ((2, 1), (2, -1)), ((1, 2), (1, -2)),
                ((-1, 1), (-1, -1)), ((3, 1), (3, -1))]
_TROP_SLOTS = [(1, 2), (3, 4), (5, 6), (7, 8)]
_RAMIFIED_A = (1, 2, 3)
_RAMIFIED_B = (5, 7)

WORKLOADS = ("generic-lift", "tropical-matrix", "ramified-lift")


@dataclass
class Op:
    """One CLI call with its known answer."""

    label: str
    cmd: str                     # "solve" | "tropical"
    spec: dict
    expect: Dict
    budget_s: float = DEFAULT_BUDGET_S
    probe: bool = False          # the workload's smallest: set-up_s runs it


def _gauss(re_im: Tuple[int, int]):
    return {"re": str(re_im[0]), "im": str(re_im[1])}


def _spec(mode: str, shifts: List, m: int, n: int, K: Optional[int] = None,
          q: Optional[str] = None) -> dict:
    spec = {"mode": mode, "lambda": {"shifts": shifts}, "m": m, "n": n}
    if K is not None:
        spec["K"] = K
    if q is not None:
        spec["q"] = q
    return spec


def _pick(rng: random.Random, slots, k: int) -> list:
    return [rng.choice(pair) for pair in slots[:k]]


def _generic_lift(rng: random.Random) -> List[Op]:
    real_qq = _pick(rng, _REAL_SLOTS, 6)
    real_QQ = _pick(rng, _REAL_SLOTS, 6)
    gauss = _pick(rng, _GAUSS_SLOTS, 5)

    def expect(m, n, K):
        return {"exit": 0, "kind": "generic", "bases": comb(m + n, m), "K": K,
                "oracle": True}

    return [
        Op("qq(3,3) real K=8", "solve",
           _spec("qq", [[str(v), 1] for v in real_qq], 3, 3, K=8),
           expect(3, 3, 8)),
        Op("QQ(3,3) q=3 K=6", "solve",
           _spec("QQ", [[str(v), 1] for v in real_QQ], 3, 3, K=6, q="3"),
           expect(3, 3, 6)),
        Op("qq(3,2) gaussian K=8", "solve",
           _spec("qq", [[_gauss(v), 1] for v in gauss], 3, 2, K=8),
           expect(3, 2, 8), probe=True),
    ]


# cell counts of the seed commit; they depend only on (m, n), not on the
# mode or on the (nonzero) shift values
_CELLS = {(1, 1): 3, (2, 1): 36, (1, 2): 36, (2, 2): 2100}


def _tropical_matrix(rng: random.Random) -> List[Op]:
    ops = []
    for mode in ("qq", "QQ"):
        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            shifts = [[str(v), 1] for v in _pick(rng, _TROP_SLOTS, m + n)]
            ops.append(Op(
                f"tropical {mode}({m},{n})", "tropical",
                _spec(mode, shifts, m, n, q="3" if mode == "QQ" else None),
                {"exit": 0, "kind": "tropical", "cells": _CELLS[(m, n)]},
                probe=(mode, m, n) == ("qq", 1, 1)))
    return ops


def _ramified_lift(rng: random.Random) -> List[Op]:
    a = rng.choice(_RAMIFIED_A)
    b = rng.choice(_RAMIFIED_B)
    A, B = str(a), str(b)
    two_branches = {"exit": 0, "kind": "branches",
                    # x = a + c1 t, y = a - c1 t for c1 in {0, 2}
                    "linear_branches": [[a, 0], [a, 2]]}
    return [
        Op(f"qq (z+{a})^2 K=4", "solve", _spec("qq", [[A, 2]], 1, 1, K=4),
           two_branches, probe=True),
        Op(f"qq (z+{a})^2(z+{b}) m=2 n=1", "solve",
           _spec("qq", [[A, 2], [B, 1]], 2, 1),
           {"exit": 0, "kind": "branches", "branch_counts": [2, 2]}),
        Op(f"qq (z+{a})^3 m=2 n=1 K=1", "solve",
           _spec("qq", [[A, 3]], 2, 1, K=1),
           {"exit": 0, "kind": "branches", "branch_counts": [1]}),
        Op(f"qq (z+{a})^3 m=2 n=1 K=2", "solve",
           _spec("qq", [[A, 3]], 2, 1, K=2),
           {"exit": 0, "kind": "branches", "branch_counts": [1]}),
        Op(f"QQ (z+{a})^2 q=3 K=2", "solve",
           _spec("QQ", [[A, 2]], 1, 1, K=2, q="3"),
           {"exit": 3, "kind": "outside_field"}),
        # the known hang: no recorded answer, ok only if it finishes, every
        # lift is certified and the numeric oracle agrees
        Op(f"qq (z+{a})^3 m=2 n=1 K=3", "solve",
           _spec("qq", [[A, 3]], 2, 1),
           {"exit": 0, "kind": "branches", "branch_counts": None,
            "oracle": True},
           budget_s=HANG_BUDGET_S),
    ]


def build(workload: str, seed: int) -> List[Op]:
    """The workload's operations for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "generic-lift":
        return _generic_lift(rng)
    if workload == "tropical-matrix":
        return _tropical_matrix(rng)
    if workload == "ramified-lift":
        return _ramified_lift(rng)
    raise ValueError(f"unknown workload {workload!r}")


def probe(ops: List[Op]) -> Op:
    """The operation set-up time is measured on."""
    return next(op for op in ops if op.probe)
