"""Command-line front end: enumerate, lift, verify, report.

Every failure is a {reason, message} pair in the report's "failures".
Exit codes: 0 success; 2 a spec that fails validation (the reason names
the check), a spec file that cannot be read or parsed, however deeply it
nests (bad_spec_file), an --out file that cannot be opened or written
(bad_out_path), tropical above the enumeration size cap, m + n > 6
(size_cap_exceeded), the tropical theorem gate (some d_k = 0:
zero_coefficient d_k, unless --no-theorem-mode), or a solve refused
before lifting (lambda_root_at_origin, q_unit_modulus); 3 a base
that cannot be lifted (ramification_bound_exceeded, branch_explosion,
undecided_constraints); 4 a residual certificate failure
(certificate_failure) or a Bethe residual valuation below its bound
(bethe_valuation), or, with no failure listed, a tropical prevariety
that is not exactly the origin.
A solve exits with the largest code of its failures, read from
SOLVE_EXIT_CODES.  Reports are deterministic JSON ("format": 3) with
exact rational scalars throughout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
import tempfile
import time
from fractions import Fraction
from typing import List, Optional

from . import __version__
from .bethe import bethe_report
from .infinite import enumerate_infinite_solutions
from .lifting import LiftError, lift_newton, lift_ramified
from .systems import ProblemSpec, SpecValidationError
from .tropical import (SizeCapExceededError, check_theorem_hypothesis,
                       prevariety)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RAMIFICATION = 3
EXIT_CERTIFICATE = 4

# every reason a solve records once its spec has loaded, under its exit code
SOLVE_EXIT_CODES = {reason: code for code, reasons in (
    (EXIT_VALIDATION, ("lambda_root_at_origin", "q_unit_modulus")),
    (EXIT_RAMIFICATION, ("ramification_bound_exceeded", "branch_explosion",
                         "undecided_constraints")),
    (EXIT_CERTIFICATE, ("certificate_failure", "bethe_valuation")),
) for reason in reasons}

FORMAT_VERSION = 3


def _open_report(path: str):
    """(file, path, tmp): the --out target, opened before any work.

    A regular file, or a name with nothing behind it yet, is written
    through the temporary file tmp in its directory, which _emit renames
    onto path and which has the mode the file has or open() would give
    it: a run that fails or is killed leaves an earlier report whole.
    Anything else (a device, a FIFO) is written in place, with tmp None.
    """
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        return open(path, "w", encoding="utf-8"), path, None
    head, name = os.path.split(target)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=head)
    os.fchmod(fd, stat.S_IMODE(mode))
    return os.fdopen(fd, "w", encoding="utf-8"), target, tmp


def _emit(out, **body) -> int:
    """Print the report, or write it to the --out target and close it.

    EXIT_OK, or bad_out_path's exit code once the file cannot be written.
    """
    text = json.dumps({"format": FORMAT_VERSION, "version": __version__,
                       **body}, indent=2, sort_keys=False)
    if out is None:
        print(text)
        return EXIT_OK
    file, path, tmp = out
    try:
        with file:
            file.write(text + "\n")
        if tmp:
            os.replace(tmp, path)
    except OSError as exc:
        return _bad_out_path(path, exc)
    return EXIT_OK


def _failure(reason: str, message: str) -> dict:
    return {"reason": reason, "message": message}


def _fail(out, reason: str, message: str) -> int:
    """Emit a report holding only this failure; validation exit code."""
    return _emit(out, failures=[_failure(reason, message)]) or EXIT_VALIDATION


def _bad_out_path(path: str, exc: OSError) -> int:
    """The report file cannot be opened or written: report on stdout."""
    return _fail(None, "bad_out_path",
                 f"cannot write the report to {path}: {exc.strerror or exc}")


def _refusals(spec: ProblemSpec) -> List[dict]:
    """Why solve refuses a valid spec before any work, if it does."""
    if not spec.lam.nonzero_at_origin():
        return [_failure("lambda_root_at_origin",
                         "Lambda(0) = 0: lifting theorems need a nonzero "
                         "shift-free origin")]
    if spec.is_difference and spec.q.abs2() == 1:
        # validate() rejects the roots of unity; for any other |q| = 1 the
        # moduli of the Bethe roots do not fix the exponent of a q-collision
        return [_failure("q_unit_modulus",
                         f"|q| = 1 with q = {spec.q} not a root of unity: "
                         "q-distinctness of the Bethe roots is undecidable")]
    return []


def _solve(spec: ProblemSpec, failures: List[dict]) -> dict:
    """The report body: each base with its lifts, certified and
    Bethe-checked, then the advisory tropical block.  Each failure met on
    the way is appended to `failures`."""
    bound = Fraction(spec.K if spec.is_difference else spec.K - 1)
    entries = []
    for base in enumerate_infinite_solutions(spec):
        entry = {"base": base.to_json(), "lifts": []}
        entries.append(entry)
        try:
            if base.tier == "generic":
                lifts = [lift_newton(base, spec)]
            else:
                lifts = lift_ramified(base, spec)
        except LiftError as exc:
            failures.append(_failure(exc.reason, str(exc)))
            continue
        entry["branch_count"] = len(lifts)
        for ls in lifts:
            item = ls.to_json()
            item["certified"] = ls.certified()
            if not ls.certified():
                failures.append(_failure(
                    "certificate_failure",
                    f"residual valuation {ls.residual_valuation} "
                    f"< {(ls.order + 1)}/{ls.n_ram}"))
            rep = bethe_report(ls, spec)
            item["bethe"] = rep.to_json()
            failures += [_failure("bethe_valuation",
                                  f"Bethe residual valuation {v} < {bound}")
                         for v in rep.residual_valuations or ()
                         if v is not None and v < bound]
            entry["lifts"].append(item)
    if spec.m + spec.n > 4:
        tropical = {"skipped": "cell enumeration above m+n=4 is run via the "
                               "tropical subcommand"}
    else:
        tropical = prevariety(spec).to_json()
    return {"spec": spec.to_json(), "bases": entries, "failures": failures,
            "tropical": tropical}


def cmd_solve(args, spec: ProblemSpec) -> int:
    started = time.time()
    failures = _refusals(spec)
    body = {"failures": failures} if failures else dict(
        _solve(spec, failures),
        elapsed_seconds=round(time.time() - started, 3))
    return _emit(args.out, **body) or max(
        (SOLVE_EXIT_CODES[f["reason"]] for f in failures), default=EXIT_OK)


def cmd_tropical(args, spec: ProblemSpec) -> int:
    try:
        if not args.no_theorem_mode:
            check_theorem_hypothesis(spec)
        res = prevariety(spec)
    except SpecValidationError as exc:  # theorem hypothesis: some d_k = 0
        return _fail(args.out, exc.code, str(exc))
    except SizeCapExceededError as exc:
        return _fail(args.out, "size_cap_exceeded", str(exc))
    return _emit(args.out, spec=spec.to_json(), tropical=res.to_json()) or (
        EXIT_OK if res.is_origin_only else EXIT_CERTIFICATE)


def cmd_enumerate(args, spec: ProblemSpec) -> int:
    return _emit(None, spec=spec.to_json(), solutions=[
        b.to_json() for b in enumerate_infinite_solutions(spec)])


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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    path = getattr(args, "out", None)
    args.out = None
    if path:
        try:  # before any work, so that a path no file can take fails first
            args.out = _open_report(path)
        except OSError as exc:
            return _bad_out_path(path, exc)
    try:
        return _run(args)
    finally:  # a failed run leaves no temporary file, whatever failed
        if args.out is not None:
            file, _, tmp = args.out
            file.close()
            if tmp:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)


def _run(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = ProblemSpec.from_json(json.load(fh))
    except SpecValidationError as exc:
        return _fail(args.out, exc.code, str(exc))
    # an unreadable file, or not JSON (RecursionError: nested too deeply)
    except (OSError, ValueError, RecursionError) as exc:
        return _fail(args.out, "bad_spec_file", str(exc))
    return args.func(args, spec)


if __name__ == "__main__":
    sys.exit(main())
