"""Command-line front end: enumerate, lift, verify, report.

Exit codes: 0 success; 2 spec validation failure (or an --out file that
cannot be opened or written, the tropical size cap exceeded, or a solve
with |q| = 1); 3 ramification bound exceeded, branch explosion
or constraints sympy cannot solve (undecided_constraints) on some base;
4 a residual certificate failure or a Bethe residual valuation below its
bound (solve), or a prevariety that is not exactly the origin
(tropical).  Reports are deterministic JSON ("format": 3)
with exact rational scalars throughout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional, TextIO

from . import __version__
from .bethe import bethe_report
from .infinite import enumerate_infinite_solutions
from .lifting import (BranchExplosionError, RamificationBoundExceededError,
                      UndecidedConstraintsError, lift_newton, lift_ramified)
from .systems import ProblemSpec, SizeCapExceededError, SpecValidationError
from .tropical import prevariety

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RAMIFICATION = 3
EXIT_CERTIFICATE = 4

FORMAT_VERSION = 3


class _ReportWriteError(Exception):
    """Writing the report to the --out file failed; the OSError is its
    cause."""


def _emit(report: dict, out: Optional[TextIO]) -> None:
    """Print the report, or write it to the open --out file and close it."""
    text = json.dumps(report, indent=2, sort_keys=False)
    if out is None:
        print(text)
        return
    try:
        with out:
            out.write(text + "\n")
    except OSError as exc:
        raise _ReportWriteError from exc


def _fail(args, reason: str, message: str) -> int:
    """Emit a report holding only this failure; validation exit code."""
    _emit({"format": FORMAT_VERSION, "version": __version__,
           "failures": [{"reason": reason, "message": message}]},
          getattr(args, "out", None))
    return EXIT_VALIDATION


def _load_spec(args) -> Optional[ProblemSpec]:
    """The validated spec, or None once its failure report is emitted."""
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return ProblemSpec.from_json(obj)
    except SpecValidationError as exc:
        _fail(args, exc.code, str(exc))
    except (OSError, ValueError) as exc:  # unreadable file or not JSON
        _fail(args, "bad_spec_file", str(exc))
    return None


def cmd_solve(args) -> int:
    started = time.time()
    spec = _load_spec(args)
    if spec is None:
        return EXIT_VALIDATION
    if not spec.lam.nonzero_at_origin():
        return _fail(args, "lambda_root_at_origin",
                     "Lambda(0) = 0: lifting theorems need a nonzero "
                     "shift-free origin")
    if spec.is_difference and spec.q.abs2() == 1:
        # validate() rejects the roots of unity; for any other |q| = 1 the
        # moduli of the Bethe roots do not fix the exponent of a q-collision
        return _fail(args, "q_unit_modulus",
                     f"|q| = 1 with q = {spec.q} not a root of unity: "
                     "q-distinctness of the Bethe roots is undecidable")
    bases = enumerate_infinite_solutions(spec)
    report = {"format": FORMAT_VERSION, "version": __version__,
              "spec": spec.to_json(), "bases": [], "failures": []}
    exit_code = EXIT_OK
    gaudin_bound = Fraction(spec.K - 1)
    xxz_bound = Fraction(spec.K)
    for base in bases:
        entry = {"base": base.to_json(), "lifts": []}
        try:
            if base.tier == "generic":
                lifts = [lift_newton(base, spec)]
            else:
                lifts = lift_ramified(base, spec)
        except (RamificationBoundExceededError, BranchExplosionError,
                UndecidedConstraintsError) as exc:
            report["failures"].append(
                {"reason": exc.reason, "message": str(exc)})
            exit_code = max(exit_code, EXIT_RAMIFICATION)
            report["bases"].append(entry)
            continue
        entry["branch_count"] = len(lifts)
        for ls in lifts:
            item = ls.to_json()
            item["certified"] = ls.certified()
            if not ls.certified():
                report["failures"].append(
                    {"reason": "certificate_failure",
                     "message": f"residual valuation {ls.residual_valuation} "
                                f"< {(ls.order + 1)}/{ls.n_ram}"})
                exit_code = max(exit_code, EXIT_CERTIFICATE)
            rep = bethe_report(ls, spec)
            item["bethe"] = rep.to_json()
            bound = xxz_bound if spec.is_difference else gaudin_bound
            if rep.residual_valuations is not None:
                for v in rep.residual_valuations:
                    if v is not None and v < bound:
                        report["failures"].append(
                            {"reason": "bethe_valuation",
                             "message": f"Bethe residual valuation {v} < {bound}"})
                        exit_code = max(exit_code, EXIT_CERTIFICATE)
            entry["lifts"].append(item)
        report["bases"].append(entry)
    if spec.m + spec.n <= 4:
        try:
            trop = prevariety(spec, theorem_mode=False)
            report["tropical"] = trop.to_json()
        except SizeCapExceededError as exc:  # advisory only for solve
            report["tropical"] = {"skipped": str(exc)}
    else:
        report["tropical"] = {"skipped": "cell enumeration above m+n=4 is "
                                         "run via the tropical subcommand"}
    report["elapsed_seconds"] = round(time.time() - started, 3)
    _emit(report, args.out)
    return exit_code


def cmd_tropical(args) -> int:
    spec = _load_spec(args)
    if spec is None:
        return EXIT_VALIDATION
    try:
        res = prevariety(spec, theorem_mode=not args.no_theorem_mode)
    except SpecValidationError as exc:  # theorem hypothesis: some d_k = 0
        return _fail(args, exc.code, str(exc))
    except SizeCapExceededError as exc:
        return _fail(args, "size_cap_exceeded", str(exc))
    report = {"format": FORMAT_VERSION, "version": __version__,
              "spec": spec.to_json(), "tropical": res.to_json()}
    _emit(report, args.out)
    return EXIT_OK if res.is_origin_only else EXIT_CERTIFICATE


def cmd_enumerate(args) -> int:
    spec = _load_spec(args)
    if spec is None:
        return EXIT_VALIDATION
    bases = enumerate_infinite_solutions(spec)
    report = {"format": FORMAT_VERSION, "version": __version__,
              "spec": spec.to_json(),
              "solutions": [b.to_json() for b in bases]}
    _emit(report, None)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once, on first use: building costs about as much as a parse."""
    parser = argparse.ArgumentParser(
        prog="qqsystems",
        description="Exact solver and verifier for rank-one qq/QQ-systems")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="enumerate, lift, certify, verify")
    p_solve.add_argument("spec", help="path to a spec JSON file")
    p_solve.add_argument("--out", help="write the report to this file")
    p_solve.set_defaults(func=cmd_solve)

    p_trop = sub.add_parser("tropical", help="compute the tropical prevariety")
    p_trop.add_argument("spec", help="path to a spec JSON file")
    p_trop.add_argument("--out", help="write the report to this file")
    p_trop.add_argument("--no-theorem-mode", action="store_true",
                        help="skip the all-d_k-nonzero hypothesis gate")
    p_trop.set_defaults(func=cmd_tropical)

    p_enum = sub.add_parser("enumerate", help="list infinite-system solutions")
    p_enum.add_argument("spec", help="path to a spec JSON file")
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def _bad_out_path(args, path: str, exc: OSError) -> int:
    """The report file cannot be opened or written: report on stdout."""
    args.out = None
    return _fail(args, "bad_out_path",
                 f"cannot write the report to {path}: {exc.strerror or exc}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    path = getattr(args, "out", None)
    if path:
        try:  # before any work, so that a path no file can take fails first
            args.out = open(path, "w", encoding="utf-8")
        except OSError as exc:
            return _bad_out_path(args, path, exc)
    try:
        return args.func(args)
    except _ReportWriteError as exc:
        return _bad_out_path(args, path, exc.__cause__)


if __name__ == "__main__":
    sys.exit(main())
