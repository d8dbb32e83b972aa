"""Known-answer checks on CLI reports, the numeric oracle, and a self-test.

``verdict_problems`` compares one operation's exit code and report with the
``expect`` dict from ``workloads``; an empty list means the verdict is ok.
Coefficients of generic lifts are not known in advance, so every lift also
goes to the numeric oracle (``qqsystems.numeric.numeric_check``) through the
``oracle`` callback; its verdict counts where ``expect["oracle"]`` is set.
It is not set for the degenerate bases with a recorded answer: there the
t = 0 Jacobian is singular, the jet's error decays one order slower than its
residual, and the oracle's tolerance 10 t^((K+1)/N) rejects certified lifts
(base x0 = (a, a) of (z+a)^2 (z+b) has a mismatch decaying as t^3 at K = 3).
``self_test`` feeds the checker corrupted reports and fails unless each one
is flagged.
"""

from __future__ import annotations

import copy
import json
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import spans

Oracle = Callable[[dict, dict], bool]  # (lift item, spec) -> agrees

ORACLE_SAMPLES = (1e-2, 1e-3)
# relative step at which qqsystems.numeric.damped_newton accepts a root
NEWTON_RESOLUTION = 1e-9


def deterministic(report: Optional[dict]) -> str:
    """The report without its timing, as canonical text."""
    if report is None:
        return "null"
    return json.dumps({k: v for k, v in report.items()
                       if k != "elapsed_seconds"}, sort_keys=True)


def _real_coeffs(series: dict) -> List[Fraction]:
    """Coefficients of a real series in powers of s, trailing zeros cut."""
    coeffs = [Fraction(0)] * series["offset"]
    for c in series["coeffs"]:
        if not isinstance(c, str):
            raise ValueError(f"non-real coefficient {c!r}")
        coeffs.append(Fraction(c))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _linear_branch(item: dict):
    """(x, y) of a one-variable lift x = a + c t, y = a' + c' t, or None."""
    if item["N"] != 1 or len(item["x"]) != 1 or len(item["y"]) != 1:
        return None
    x, y = _real_coeffs(item["x"][0]), _real_coeffs(item["y"][0])
    if len(x) > 2 or len(y) > 2:
        return None
    return tuple(x + [0] * (2 - len(x))), tuple(y + [0] * (2 - len(y)))


def _solve_problems(expect: dict, spec: dict, report: dict,
                    oracle: Oracle) -> List[str]:
    problems = []
    if report.get("failures"):
        problems.append(f"failures: {report['failures']}")
    bases = report.get("bases", [])
    lifts = [item for entry in bases for item in entry.get("lifts", [])]
    if expect["kind"] == "generic":
        if len(bases) != expect["bases"]:
            problems.append(f"{len(bases)} bases, expected {expect['bases']}")
        if any(e["base"]["tier"] != "generic" for e in bases):
            problems.append("a base is not generic")
        if any(e.get("branch_count") != 1 for e in bases):
            problems.append("a generic base without exactly one lift")
    counts = expect.get("branch_counts")
    got_counts = [e.get("branch_count") for e in bases]
    if counts is not None and got_counts != counts:
        problems.append(f"branch counts {got_counts}, expected {counts}")
    if any(len(e.get("lifts", [])) != e.get("branch_count") for e in bases):
        problems.append("branch_count disagrees with the lifts listed")
    branches = expect.get("linear_branches")
    if branches is not None:
        want = sorted(((Fraction(a), Fraction(c)), (Fraction(a), -Fraction(c)))
                      for a, c in branches)
        got = sorted(_linear_branch(item) or () for item in lifts)
        if got != want:
            problems.append(f"branches {got}, expected {want}")
    if not lifts:
        problems.append("no lifts")
    for item in lifts:
        bound = Fraction(item["order"] + 1, item["N"])
        if item.get("certified") is not True or \
                Fraction(item["residual_valuation"]) < bound:
            problems.append(f"uncertified lift: valuation "
                            f"{item['residual_valuation']} < {bound}")
        if expect["kind"] == "generic" and item["order"] != expect["K"]:
            problems.append(f"lift order {item['order']} != K")
        # run on every lift; it judges only where the known answer says so
        if not oracle(item, spec) and expect.get("oracle"):
            problems.append(f"numeric oracle disagrees with lift {item['x']}")
    return problems


def verdict_problems(expect: dict, spec: dict, exit_code,
                     report: Optional[dict], oracle: Oracle) -> List[str]:
    """Why the answer differs from the known one ([] when it does not)."""
    if exit_code != expect["exit"]:
        return [f"exit code {exit_code}, expected {expect['exit']}"]
    if report is None:
        return ["no report"]
    kind = expect["kind"]
    if kind == "tropical":
        trop = report.get("tropical", {})
        want = {"is_origin_only": True, "points_bounded": True,
                "witness": None, "cell_count": expect["cells"]}
        return [f"{k} = {trop.get(k)!r}, expected {v!r}"
                for k, v in want.items() if trop.get(k, "missing") != v]
    if kind == "outside_field":
        failures = report.get("failures", [])
        if not any(f.get("reason") == "ramification_bound_exceeded" and
                   "outside the Gaussian rationals" in f.get("message", "")
                   for f in failures):
            return [f"no outside-Q(i) ramification failure in {failures}"]
        return []
    return _solve_problems(expect, spec, report, oracle)


# ---------------------------------------------------------------------------
# the numeric oracle

def _lift_from_json(item: dict):
    """One lift of a solve report as numeric_check reads it."""
    from types import SimpleNamespace
    from qqsystems import CandidatePoint, Scalar, Series

    def series(obj):
        return Series(obj["N"], [Scalar.from_json(c) for c in obj["coeffs"]],
                      obj["offset"])

    point = CandidatePoint(tuple(series(s) for s in item["x"]),
                           tuple(series(s) for s in item["y"]))
    return SimpleNamespace(point=point, order=point.top, n_ram=point.n_ram)


def _judge(ls, res) -> Optional[bool]:
    """Whether numeric_check's mismatches fit the jet; None: cannot tell.

    numeric_check allows 10 t^((K+1)/N), which assumes coefficients of size
    about 1 and a float root known to any precision.  Neither holds here: a QQ
    (3,3) jet at q = 3 can have |c_k| ~ rho^k with rho in the thousands, and
    damped_newton accepts a root once its step is under 1e-9 (1 + |v|).  So a
    sample is judged only inside the disc rho s < 1/2 that the jet's own
    coefficients suggest, against the largest of numeric_check's tolerance,
    the tail bound 20 (rho s)^(top+1) and Newton's resolution.
    """
    import numpy as np
    rho = 0.0
    for s in ls.point.x + ls.point.y:
        for i, c in enumerate(s.coeffs):
            if s.offset + i >= 1 and not c.is_zero:
                rho = max(rho, abs(complex(c)) ** (1.0 / (s.offset + i)))
    verdicts = []
    for t0, err, tol in zip(res.samples, res.mismatches, res.tolerances):
        ratio = rho * t0 ** (1.0 / ls.n_ram)
        if ratio >= 0.5:
            continue
        jet = np.array([s.eval_at(t0) for s in ls.point.x + ls.point.y])
        floor = NEWTON_RESOLUTION * (1.0 + float(np.linalg.norm(jet)))
        verdicts.append(err <= max(tol, 20 * ratio ** (ls.order + 1), floor))
    return all(verdicts) if verdicts else None  # nan mismatches fail


def make_oracle(sink: Optional[list]):
    """The numeric oracle; its calls are recorded as spans into ``sink``.

    Returns False only when the float roots disagree with a lift; a lift
    whose samples all lie outside its convergence disc counts as agreeing
    and is recorded as abstained.
    """
    from qqsystems import ProblemSpec, numeric_check

    def oracle(item: dict, spec: dict) -> bool:
        ls = _lift_from_json(item)
        problem = ProblemSpec.from_json(spec)
        start = time.perf_counter()
        res = numeric_check(ls, problem, samples=ORACLE_SAMPLES)
        end = time.perf_counter()
        verdict = _judge(ls, res)
        if sink is not None:
            sink.append(spans.numeric_span(start, end, res.passed,
                                           verdict is None))
        return verdict is not False
    return oracle


# ---------------------------------------------------------------------------
# self-test: the checker must flag each of three corrupted reports

FIXTURES = {
    # generic: only the numeric oracle can see a wrong coefficient here
    "generic": ("solve", {"mode": "qq", "m": 1, "n": 1, "K": 4,
                          "lambda": {"shifts": [["1", 1], ["2", 1]]}},
                {"exit": 0, "kind": "generic", "bases": 2, "K": 4,
                 "oracle": True}),
    "branches": ("solve", {"mode": "qq", "m": 1, "n": 1, "K": 4,
                           "lambda": {"shifts": [["1", 2]]}},
                 {"exit": 0, "kind": "branches",
                  "linear_branches": [[1, 0], [1, 2]]}),
    "tropical": ("tropical", {"mode": "qq", "m": 1, "n": 1,
                              "lambda": {"shifts": [["1", 1], ["2", 1]]}},
                 {"exit": 0, "kind": "tropical", "cells": 3}),
}


def _bump_coefficient(report: dict) -> None:
    series = report["bases"][0]["lifts"][0]["x"][0]
    series["coeffs"][1] = str(Fraction(series["coeffs"][1]) + 1)


def _drop_branch(report: dict) -> None:
    entry = report["bases"][0]
    entry["lifts"].pop()
    entry["branch_count"] -= 1


def _flip_origin_only(report: dict) -> None:
    trop = report["tropical"]
    trop["is_origin_only"] = not trop["is_origin_only"]


CORRUPTIONS = [("coefficient changed", "generic", _bump_coefficient),
               ("branch removed", "branches", _drop_branch),
               ("is_origin_only flipped", "tropical", _flip_origin_only)]


def self_test(run_cli: Callable[[str, dict], tuple], oracle: Oracle
              ) -> List[str]:
    """Problems with the checker itself ([] when it works).

    ``run_cli(cmd, spec)`` returns ``(exit_code, report)``.
    """
    problems = []
    clean: Dict[str, tuple] = {}
    for name, (cmd, spec, expect) in FIXTURES.items():
        code, report = run_cli(cmd, spec)
        clean[name] = (code, report)
        found = verdict_problems(expect, spec, code, report, oracle)
        if found:
            problems.append(f"clean {name} fixture flagged: {found}")
    for label, name, corrupt in CORRUPTIONS:
        cmd, spec, expect = FIXTURES[name]
        code, report = clean[name]
        bad = copy.deepcopy(report)
        corrupt(bad)
        if not verdict_problems(expect, spec, code, bad, oracle):
            problems.append(f"corrupted report not flagged: {label}")
    return problems
