"""Seeded mutation gate: every listed one-line edit of src/ must fail its tests.

Run from anywhere, with the test dependencies installed:

    python tests/mutation_gate.py [-k SUBSTRING]

The script copies src/, tests/, perfbench/ and pyproject.toml to a
temporary directory and first runs pytest there, unmutated, on every test
file the chosen mutants name: a gate whose tests fail on the real code
proves nothing, so it stops with exit 2.  Then, for each mutant in turn,
it replaces the one line (which must occur exactly once in its module),
runs pytest on the test files named with it, and restores the module.
A mutant is killed when pytest reports a failure or runs past TIMEOUT_S
(a mutant can make a loop run forever); it survives when the tests
pass.  Any other pytest outcome (a collection or usage error) is an
error.
Hypothesis runs with a fixed seed, so each verdict is repeatable.

Exit codes: 0 every mutant killed; 1 a mutant survived, or an edit no
longer applies or ends in an error; 2 the unmutated tests fail.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seconds per mutant's pytest run; the slowest mutant's run takes about
# 25 s on 2 vCPU
TIMEOUT_S = 120

# (name, module under src/qqsystems, line text, its mutant, test files)
MUTANTS = [
    # lp.extend: each new row must be reduced against the current basis
    ("lp.extend skips the reduction against the basis", "lp.py",
     "            f = line[col]",
     "            f = 0",
     ["tests/test_lp.py::test_extend_chain_matches_reference"]),
    # a row refutes the system only when no entry can reach its rhs
    ("lp.extend refutes on any nonnegative entry", "lp.py",
     "        if line[-1] < 0 and all(v >= 0 for v in line[:-1]):",
     "        if line[-1] < 0 and any(v >= 0 for v in line[:-1]):",
     ["tests/test_lp.py::test_extend_refutes_a_row_without_a_pivot"]),
    ("lp.extend puts an artificial on the first negative row only", "lp.py",
     "    art = [i for i in range(len(old), len(rows)) if rows[i][-1] < 0]",
     "    art = [i for i in range(len(old), len(rows)) if rows[i][-1] < 0][:1]",
     ["tests/test_lp.py::test_extend_chain_matches_reference"]),
    ("lp.feasible's vertex with a sign error", "lp.py",
     "    return tuple(value.get(j, F0) - value.get(dim + j, F0)",
     "    return tuple(value.get(j, F0) + value.get(dim + j, F0)",
     ["tests/test_lp.py::test_optimum_matches_lp_solve"]),
    ("bethe._collision_exponent with its sign swapped", "bethe.py",
     "    k = _multiplicity(g, up) or -_multiplicity(g, down)",
     "    k = -_multiplicity(g, up) or _multiplicity(g, down)",
     ["tests/test_bethe.py::TestNondegeneracy::"
      "test_q_distinct_collision"]),
    # with |q|^2 = 1/r the base is r, and the ratio must be turned over
    ("bethe._collision_exponent keeps the ratio at base r", "bethe.py",
     "        g, up, down = q2.denominator, down, up",
     "        g, up, down = q2.denominator, up, down",
     ["tests/test_bethe.py::"
      "test_one_pass_flags_match_three_pass_reference"]),
    ("bethe_report reads an exact branch at the first window", "bethe.py",
     "        for guard in (WORK_GUARD,) if ls.exact else (FIRST_GUARD, WORK_GUARD):",
     "        for guard in (FIRST_GUARD,) if ls.exact else (FIRST_GUARD, WORK_GUARD):",
     ["tests/test_bethe.py::"
      "test_exact_branch_is_read_once_at_work_guard"]),
    ("series._reduced's gcd skips the last real numerator", "series.py",
     "        g = gcd(den, *re) if real else gcd(den, *re, *im)",
     "        g = gcd(den, *re[:-1]) if real else gcd(den, *re, *im)",
     ["tests/test_arith.py::test_reciprocal_inverts"]),
    ("the real reciprocal subtracts in its recurrence", "series.py",
     "                    sr = sr * n0 + ur[j] * wr[r - j]",
     "                    sr = sr * n0 - ur[j] * wr[r - j]",
     ["tests/test_arith.py::test_reciprocal_inverts"]),
    ("the certificate returns the first window's bound", "lifting.py",
     "    return Fraction(eval_top + 1, n_ram)",
     "    return Fraction(point.top + n_ram + 1, n_ram)",
     ["tests/test_lifting.py::test_exact_branch_reads_the_second_window"]),
    ("a QQ t-part weight with the wrong sign", "systems.py",
     "        tp = read(lambda i, j: -qk[j], 0, -qk[spec.n])",
     "        tp = read(lambda i, j: qk[j], 0, -qk[spec.n])",
     ["tests/test_systems.py::TestQQResidual::"
      "test_cleared_form_unit_factor"]),
    ("the leaf's pin rows reach lp.feasible unscaled", "tropical.py",
     "            rows = [_primitive([b.denominator * v for v in a] + [b.numerator])",
     "            rows = [([b.denominator * v for v in a] + [b.numerator])",
     ["tests/test_tropical.py::"
      "test_pin_row_with_a_common_factor_reaches_feasible_primitive"]),
    # the constraint solve must read the whole reduced Groebner basis;
    # basis[:1] would be an equivalent mutant, since the first element of
    # each two-element basis the tests meet already cuts out the variety
    ("the constraint solve drops a basis element", "exact_jets.py",
     "        sols = [] if basis == [1] else sp.solve(basis, involved, dict=True)",
     "        sols = [] if basis == [1] else sp.solve(basis[1:], involved, dict=True)",
     ["tests/test_lifting.py::test_certificate_equals_one_reading_ramified"]),
    # without its simplify pass, sympy.solve's check reads nan on the
    # unsimplified candidates of a system over sqrt(-I) and raises
    ("the constraint solve skips sympy.solve's simplify pass", "exact_jets.py",
     "        sols = [] if basis == [1] else sp.solve(basis, involved, dict=True)",
     "        sols = [] if basis == [1] else sp.solve(basis, involved, dict=True, simplify=False)",
     ["tests/test_lifting.py::TestConstraintSolutions::"
      "test_solve_keeps_its_simplify_pass"]),
    # with no generator for sqrt(1 - 6 b2 - 3 b2^2), sympy.groebner raises
    # and the raw system is solved: the same solutions, only slower, so
    # every report stays as it is
    ("the constraint solve leaves the radicals out of the basis",
     "exact_jets.py",
     "    gens = {r: sp.Dummy() for r in radicals}",
     "    gens = {}",
     ["tests/test_lifting.py::TestConstraintSolutions::"
      "test_radicals_of_the_parameters_become_generators"]),
    ("scalar.dot adds the wrong imaginary cross term", "scalar.py",
     "        im += (x._a * y._b + x._b * y._a) * f",
     "        im += (x._a * y._b - x._b * y._a) * f",
     ["tests/test_arith.py::test_dot_real_rows"]),
    # m + n = SIZE_CAP must still enumerate
    ("the size cap refuses its own boundary", "tropical.py",
     "    if dim > SIZE_CAP:",
     "    if dim >= SIZE_CAP:",
     ["tests/test_tropical.py::TestSizeCap::test_cap_admits_its_boundary"]),
    ("a {0} subtree counts pairs of all its items", "tropical.py",
     "        tail.insert(0, tail[0] * comb(vals.count(min(vals)), 2))",
     "        tail.insert(0, tail[0] * comb(len(vals), 2))",
     ["tests/test_tropical.py::test_enumeration_gives_the_closed_form_count"]),
    ("the Gaudin residual weighs a root pair by 1", "bethe.py",
     "            pair[l, s] = (w - roots[s]).reciprocal() * Scalar(2)",
     "            pair[l, s] = (w - roots[s]).reciprocal()",
     ["tests/test_bethe.py::test_gaudin_shared_pair_reciprocals"]),
    # QQ (z+1)^2 at q = 3 admits only N = 2, where its branches leave Q(i)
    ("the search drops the largest admitted index", "lifting.py",
     "    return sorted(admitted)",
     "    return sorted(admitted)[:-1]",
     ["tests/test_admitted_indices.py::"
      "test_ladder_lifts_equal_the_every_index_search"]),
    # a branch pruned outside Q(i) must count once in the failure message
    ("the search does not count a pruned branch", "lifting.py",
     "            dropped += pruned",
     "            dropped += 0",
     ["tests/test_outside_field.py::"
      "test_ladder_lifts_equal_the_unpruned_search"]),
    # (sqrt 2 + 1)(sqrt 2 - 1) = 1: undecided is not irrational
    ("_try_scalar drops what sympy cannot decide", "exact_jets.py",
     "        if re.is_rational is False or im.is_rational is False:",
     "        if not (re.is_rational and im.is_rational):",
     ["tests/test_outside_field.py::"
      "test_undecided_value_goes_through_minimal_polynomial"]),
    # sqrt(3 + 2 sqrt 2) has minimal polynomial x^2 - 2x - 1: not in Q(i)
    ("_try_scalar reads a quadratic's root as rational", "exact_jets.py",
     "        if poly.degree() > 1:",
     "        if poly.degree() > 2:",
     ["tests/test_outside_field.py::test_undecided_irrational_is_outside"]),
    # every other test passes this mutant (their multi-base specs have
    # integer x0, or they compare base by base); a translation by 1/2 or
    # -5/2 moves bases to fractions whose numerators are out of order
    ("the bases are ordered by the numerators of their shifts", "infinite.py",
     "    out.sort(key=lambda s: tuple(v.sort_key() for v in s.x0))",
     "    out.sort(key=lambda s: tuple((v.re.numerator, v.im) for v in s.x0))",
     ["tests/test_metamorphic.py::test_qq_translation_moves_only_order_zero"]),
    # a search branch whose certificate fails must be listed with the
    # verdict it states, not dropped before the CLI records it
    ("lift_ramified drops an uncertified branch", "lifting.py",
     "                found.append(LiftedSolution.of(point, sol, spec))",
     "                found += [ls for ls in [LiftedSolution.of(point, sol, spec)] if ls.certified()]",
     ["tests/test_cli.py::test_uncertified_ramified_lift_is_reported"]),
    # a Gaussian shift with a fractional imaginary part, as qq scaling
    # makes of 1 + i, needs its denominator cleared before ZZ_I takes it
    ("the larger side's eliminant clears only real denominators",
     "exact_jets.py",
     "    scale = lcm(*(x.denominator for c in scalars for x in (c.re, c.im)))",
     "    scale = lcm(*(c.re.denominator for c in scalars))",
     ["tests/test_metamorphic.py::test_qq_scaling_weights_each_order"]),
    # a kernel parameter still free at the last order sets the top
    # coefficients of a root cluster; pinned to i instead of 0, a branch
    # at a real base gets non-real ones, and its certificate still passes
    ("the search pins a free parameter to i", "exact_jets.py",
     "        pin = {p: 0 for jet in jets for c in jet for p in c.free_symbols}",
     "        pin = {p: sp.I for jet in jets for c in jet for p in c.free_symbols}",
     ["tests/test_closure.py::test_conjugation_maps_branches_to_branches"]),
    # the certificate states (order + 1)/N in lowest terms: < 2 at N = 2
    # and order 3, < 4 at N = 1; the CLI test of the message also kills
    # this
    ("the certificate message prints its bound unreduced", "lifting.py",
     '        return (f"residual valuation {self.residual_valuation} < {bound}"',
     '        return (f"residual valuation {self.residual_valuation} < {self.order + 1}/{self.n_ram}"',
     ["tests/test_lifting.py::test_certificate_failure_states_the_reduced_bound"]),
    # a Bethe valuation at its bound passes; the golden digest of qq
    # (z+1)^2(z+5) (2, 1) also kills this
    ("the Bethe report fails a valuation at its bound", "bethe.py",
     "                if v is not None and v < self.bound]",
     "                if v is not None and v <= self.bound]",
     ["tests/test_bethe.py::TestReport::"
      "test_failures_are_the_valuations_below_the_bound"]),
    # a branch found again at N = 2 with g = 2 keeps N = 2 on its s^2
    # coefficients, so its leading exponent halves; the every-index
    # equivalence tests of test_admitted_indices and the (1, 3) case of
    # test_bethe's bound test also kill this
    ("the readout keeps N when it drops the odd powers", "lifting.py",
     "            series = [Series(n_ram // g, row[::g]) for row in rows]",
     "            series = [Series(n_ram, row[::g]) for row in rows]",
     ["tests/test_census.py::test_ladder_leading_exponents_lie_on_the_"
      "census_polygon[qq (z+1)^2(z+2)^2 (1,3) K=2]"]),
    # sympy.solve lists the roots in default_sort_key order, and
    # _branch_key keeps the first of two permuted branches, so the order
    # reaches the reports
    ("the exact half lists a quadratic's roots in reverse order",
     "exact_jets.py",
     "        roots = sorted({(root - p) / 2, (-root - p) / 2}, key=sympy_order)",
     "        roots = sorted({(root - p) / 2, (-root - p) / 2}, key=sympy_order, reverse=True)",
     ["tests/test_exact_solutions.py::test_quadratic_roots_in_sympy_order"]),
    # brk_10_1 sorts before brk_2_1 by name, after it by index: the pivot
    # moves to the other unknown
    ("the exact half takes its unknowns in index order", "exact_jets.py",
     "                       for v, e in enumerate(u) if e}, key=names.__getitem__)",
     "                       for v, e in enumerate(u) if e})",
     ["tests/test_exact_solutions.py::test_linear_pivots_follow_name_order"]),
    # a quadratic with no root in Q(i) has two roots outside it, each the
    # value of a parameter-free jet coefficient: both branches are dropped
    ("the exact half counts one root of a quadratic outside Q(i)",
     "exact_jets.py",
     "            return [None, None]",
     "            return [None]",
     ["tests/test_exact_solutions.py::"
      "test_declines_where_sympy_returns_a_radical"]),
    # a replaced variable keeps its exponent: x -> x + i in x^2 t would
    # leave x^2 t (x + i)^2
    ("SparsePoly.subs keeps the exponents it replaces", "poly.py",
     "            term = SparsePoly({tuple(0 if v in sol else e",
     "            term = SparsePoly({tuple(e",
     ["tests/test_poly.py::TestSparsePoly::test_subs_replaces_all_at_once"]),
    ("a spec file nested too deeply escapes the CLI", "cli.py",
     "    except (OSError, ValueError, RecursionError) as exc:",
     "    except (OSError, ValueError) as exc:",
     ["tests/test_cli.py::test_deeply_nested_spec_file"]),
]


def _copy(tree: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache", "out")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, tree / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tree)


def _pytest(tree: Path, files, timeout) -> str:
    """'passed', 'failed', 'timeout' or 'error' for pytest on the files."""
    path = os.pathsep.join(p for p in (str(tree / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    # a session of its own, so that a timeout also stops what the tests
    # started (the CLI tests run subprocesses)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *files],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return {0: "passed", 1: "failed"}.get(code, "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", default="", metavar="SUBSTRING",
                        help="run only the mutants whose name contains it")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.k in m[0]]
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        files = sorted({f for m in chosen for f in m[4]})
        start = time.monotonic()
        clean = _pytest(tree, files, None)
        print(f"{clean:8s} unmutated: {' '.join(files)} "
              f"({time.monotonic() - start:.1f} s)", flush=True)
        if clean != "passed":
            return 2
        bad = 0
        for name, module, old, new, tests in chosen:
            path = tree / "src" / "qqsystems" / module
            text = path.read_text(encoding="utf-8")
            lines = text.split("\n")
            if lines.count(old) != 1:
                print(f"{'missing':8s} {name}: the line is not in "
                      f"{module} exactly once", flush=True)
                bad += 1
                continue
            lines[lines.index(old)] = new
            path.write_text("\n".join(lines), encoding="utf-8")
            start = time.monotonic()
            try:
                outcome = _pytest(tree, tests, TIMEOUT_S)
            finally:
                path.write_text(text, encoding="utf-8")
            verdict = {"failed": "killed", "timeout": "killed",
                       "passed": "SURVIVED"}.get(outcome, "ERROR")
            print(f"{verdict:8s} {name} [{outcome}, "
                  f"{time.monotonic() - start:.1f} s]", flush=True)
            bad += verdict != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
