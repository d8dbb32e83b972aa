import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qqsystems import cli, lifting
from qqsystems.cli import (main, EXIT_OK, EXIT_VALIDATION, EXIT_RAMIFICATION,
                           EXIT_CERTIFICATE)
from qqsystems.scalar import Scalar
from qqsystems.series import Series
from qqsystems.systems import CandidatePoint


def write_spec(tmp_path, obj, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


QQ11 = {"mode": "qq", "lambda": {"shifts": [["1", 1], ["2", 1]]},
        "m": 1, "n": 1, "K": 4}
QQ_DIFF = {"mode": "QQ", "q": "3",
           "lambda": {"shifts": [["1", 1], ["2", 1]]},
           "m": 1, "n": 1, "K": 3}


class TestSolve:
    def test_happy_path(self, tmp_path, capsys):
        spec = write_spec(tmp_path, QQ11)
        out = tmp_path / "report.json"
        assert main(["solve", spec, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["format"] == 3
        assert len(report["bases"]) == 2
        for entry in report["bases"]:
            assert entry["branch_count"] == 1
            assert all(item["certified"] for item in entry["lifts"])
        assert report["failures"] == []
        assert report["tropical"]["is_origin_only"]

    def test_exact_series_in_report(self, tmp_path):
        spec = write_spec(tmp_path, QQ11)
        out = tmp_path / "report.json"
        main(["solve", spec, "--out", str(out)])
        report = json.loads(out.read_text())
        first = report["bases"][0]["lifts"][0]
        assert first["x"][0]["coeffs"] == ["1", "1", "-1", "0", "1"]

    def test_difference_alpha_echo(self, tmp_path):
        spec = write_spec(tmp_path, QQ_DIFF)
        out = tmp_path / "report.json"
        assert main(["solve", spec, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        alpha = report["bases"][0]["lifts"][0]["alpha"]
        # 1/(3 - 3t) = (1/3)(1 + t + t^2 + ...)
        assert alpha["coeffs"] == ["1/3"] * 4

    def test_origin_shift_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "mode": "qq", "lambda": {"shifts": [["0", 1], ["2", 1]]},
            "m": 1, "n": 1, "K": 3})
        assert main(["solve", spec]) == EXIT_VALIDATION
        report = json.loads(capsys.readouterr().out)
        assert report["failures"][0]["reason"] == "lambda_root_at_origin"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(QQ11, extra=1))
        assert main(["solve", spec]) == EXIT_VALIDATION
        report = json.loads(capsys.readouterr().out)
        assert report["failures"][0]["reason"] == "unknown_key"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_VALIDATION

    def test_determinism(self, tmp_path):
        spec = write_spec(tmp_path, QQ11)
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["solve", spec, "--out", str(o1)])
        main(["solve", spec, "--out", str(o2)])
        r1 = json.loads(o1.read_text())
        r2 = json.loads(o2.read_text())
        r1.pop("elapsed_seconds")
        r2.pop("elapsed_seconds")
        assert r1 == r2


class TestTropical:
    def test_origin_only_exit_zero(self, tmp_path, capsys):
        spec = write_spec(tmp_path, QQ11)
        assert main(["tropical", spec]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["tropical"]["is_origin_only"]
        assert report["tropical"]["cell_count"] >= 1

    def test_zero_coefficient_gate(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "mode": "qq", "lambda": {"shifts": [["1", 1], ["-1", 1]]},
            "m": 1, "n": 1, "K": 3})
        assert main(["tropical", spec]) == EXIT_VALIDATION
        report = json.loads(capsys.readouterr().out)
        assert report["failures"][0]["reason"] == "zero_coefficient d_1"

    def test_no_theorem_mode_bypasses_gate(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "mode": "qq", "lambda": {"shifts": [["1", 1], ["-1", 1]]},
            "m": 1, "n": 1, "K": 3})
        code = main(["tropical", spec, "--no-theorem-mode"])
        report = json.loads(capsys.readouterr().out)
        assert "tropical" in report
        assert code in (EXIT_OK, EXIT_CERTIFICATE)

    def test_zero_shift_fails_gate_and_leaves_origin(self, tmp_path, capsys):
        # Lambda = z(z+1): d_2 = 0; without the gate a nonzero witness
        spec = write_spec(tmp_path, {
            "mode": "qq", "lambda": {"shifts": [["0", 1], ["1", 1]]},
            "m": 1, "n": 1, "K": 3})
        assert main(["tropical", spec]) == EXIT_VALIDATION
        report = json.loads(capsys.readouterr().out)
        assert report["failures"][0]["reason"] == "zero_coefficient d_2"
        assert main(["tropical", spec, "--no-theorem-mode"]) == EXIT_CERTIFICATE
        report = json.loads(capsys.readouterr().out)
        assert report["tropical"] == {"cell_count": 2, "is_origin_only": False,
                                      "points_bounded": True,
                                      "witness": ["1", "0"]}


def _with(base, **changes):
    return dict(base, **changes)


def _shifts(*pairs):
    return {"shifts": [list(p) for p in pairs]}


# malformed specs that must fail validation (exit 2) with a reason,
# not escape as a traceback or be rounded into a different problem
BAD_SPECS = [
    ("shifts_not_a_list", _with(QQ11, **{"lambda": {"shifts": 5}}),
     "bad_lambda"),
    ("shift_pair_too_short", _with(QQ11, **{"lambda": _shifts(["1"], ["2", 1])}),
     "bad_lambda"),
    ("K_null", _with(QQ11, K=None), "bad_integer"),
    ("K_float", _with(QQ11, K=1.9), "bad_integer"),
    ("K_bool", _with(QQ11, K=True), "bad_integer"),
    ("m_string", _with(QQ11, m="1"), "bad_integer"),
    ("N_max_null", _with(QQ11, N_max=None), "bad_integer"),
    # the spec has no "tropical" block: it is refused by its key, whatever
    # it holds, before any of its values is read
    ("size_cap_float", _with(QQ11, tropical={"size_cap": 6.0}), "unknown_key"),
    ("size_cap_zero", _with(QQ11, tropical={"size_cap": 0}), "unknown_key"),
    ("size_cap_negative", _with(QQ11, tropical={"size_cap": -1}),
     "unknown_key"),
    ("tropical_extra_key", _with(QQ11, tropical={"size_cap": 6, "x": 1}),
     "unknown_key"),
    ("multiplicity_float",
     _with(QQ11, **{"lambda": _shifts(["1", 1.0], ["2", 1])}), "bad_integer"),
    ("multiplicity_bool",
     _with(QQ11, **{"lambda": _shifts(["1", True], ["2", 1])}), "bad_integer"),
    ("shift_float_part",
     _with(QQ11, **{"lambda": _shifts([{"re": 0.1}, 1], ["2", 1])}),
     "bad_scalar"),
    ("shift_float", _with(QQ11, **{"lambda": _shifts([0.5, 1], ["2", 1])}),
     "bad_scalar"),
    ("shift_zero_denominator",
     _with(QQ11, **{"lambda": _shifts(["1/0", 1], ["2", 1])}), "bad_scalar"),
    ("shift_unknown_part",
     _with(QQ11, **{"lambda": _shifts([{"real": "1"}, 1], ["2", 1])}),
     "bad_scalar"),
    # 10^4400 has more digits than Python writes an int with
    ("shift_too_many_digits",
     _with(QQ11, **{"lambda": _shifts(["1e4400", 1], ["2", 1])}),
     "bad_scalar"),
    ("no_unknowns", _with(QQ11, m=0, n=0, **{"lambda": _shifts()}),
     "bad_degrees"),
    ("N_max_zero", _with(QQ11, N_max=0), "bad_ramification_bound"),
    ("q_i", _with(QQ_DIFF, q={"re": "0", "im": "1"}), "q_root_of_unity"),
    ("q_float", _with(QQ_DIFF, q=3.0), "bad_scalar"),
    ("q_null", _with(QQ_DIFF, q=None), "bad_scalar"),
    ("mode_unknown", _with(QQ11, mode="qQ"), "bad_mode"),
    ("K_negative", _with(QQ11, K=-1), "bad_truncation"),
    ("q_zero", _with(QQ_DIFF, q="0"), "bad_q"),
    ("n_missing", {k: v for k, v in QQ11.items() if k != "n"}, "missing_key"),
    ("spec_a_list", [QQ11], "bad_spec"),
    ("lambda_extra_key",
     _with(QQ11, **{"lambda": dict(QQ11["lambda"], x=1)}), "bad_lambda"),
    ("multiplicity_zero",
     _with(QQ11, **{"lambda": _shifts(["1", 0], ["2", 1])}),
     "bad_multiplicity"),
]


@pytest.mark.parametrize("command", ["solve", "tropical", "enumerate"])
@pytest.mark.parametrize("spec_obj,reason",
                         [case[1:] for case in BAD_SPECS],
                         ids=[case[0] for case in BAD_SPECS])
def test_malformed_spec_fails_validation(tmp_path, capsys, command,
                                         spec_obj, reason):
    spec = write_spec(tmp_path, spec_obj)
    assert main([command, spec]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == [reason]
    assert "spec" not in report


def test_tropical_size_cap_reason(tmp_path, capsys):
    # m + n = 7 is past the enumeration size cap; refused at once
    spec = write_spec(tmp_path, {
        "mode": "qq", "m": 4, "n": 3,
        "lambda": _shifts(*[(str(k), 1) for k in range(1, 8)])})
    assert main(["tropical", spec]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == ["size_cap_exceeded"]
    assert report["failures"][0]["message"] == (
        "m + n = 7 exceeds the enumeration size cap 6")


@pytest.mark.parametrize("command", ["solve", "tropical", "enumerate"])
def test_deeply_nested_spec_file(tmp_path, capsys, command):
    # json raises RecursionError, not ValueError, on this file
    spec = tmp_path / "nested.json"
    spec.write_text("[" * 200_000)
    assert main([command, str(spec)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert [f["reason"] for f in json.loads(out)["failures"]] == [
        "bad_spec_file"]
    assert err == ""


def test_branch_explosion_reported_per_base(tmp_path, capsys, monkeypatch):
    # (z+1)^2 (z+2) has two degenerate bases; with room for one open
    # branch both searches overflow at s-order 2
    monkeypatch.setattr(lifting, "_MAX_BRANCHES", 1)
    spec = write_spec(tmp_path, {"mode": "qq", "m": 1, "n": 2, "K": 2,
                                 "lambda": _shifts(["1", 2], ["2", 1])})
    assert main(["solve", spec]) == EXIT_RAMIFICATION
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == ["branch_explosion"] * 2
    assert [e["base"]["x0"] for e in report["bases"]] == [["1"], ["2"]]
    assert report["tropical"]["is_origin_only"]


def test_undecided_constraints_reported(tmp_path, capsys, monkeypatch):
    # a constraint system sympy cannot solve fails its base with its own
    # reason instead of passing for "no branch"
    import sympy

    def undecided(*args, **kwargs):
        raise NotImplementedError("no algorithm")

    monkeypatch.setattr(sympy, "solve", undecided)
    spec = write_spec(tmp_path, {"mode": "qq", "m": 1, "n": 1, "K": 4,
                                 "lambda": _shifts(["1", 2])})
    assert main(["solve", spec]) == EXIT_RAMIFICATION
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == [
        "undecided_constraints"]
    assert [e["base"]["x0"] for e in report["bases"]] == [["1"]]
    assert report["bases"][0]["lifts"] == []


def _solve_report(spec_obj):
    """Exit code and report of one `solve` run, without elapsed_seconds."""
    with tempfile.TemporaryDirectory() as d:
        spec, out = os.path.join(d, "spec.json"), os.path.join(d, "out.json")
        Path(spec).write_text(json.dumps(spec_obj))
        code = main(["solve", spec, "--out", out])
        report = json.loads(Path(out).read_text())
    report.pop("elapsed_seconds", None)
    return code, report


# nonzero small integers and Gaussian integers off the real line
_SHIFTS = st.one_of(
    st.integers(-4, 4).filter(bool).map(str),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2).filter(bool)).map(
        lambda p: {"re": str(p[0]), "im": str(p[1])}))


def _mode_and_q(draw):
    if draw(st.sampled_from(["qq", "QQ"])) == "qq":
        return {"mode": "qq"}
    return {"mode": "QQ", "q": draw(st.sampled_from(["2", "3", "1/2"]))}


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_solve_report_ignores_shift_order(data):
    """Distinct shifts, deg <= 4, K <= 3: the report depends on Lambda
    alone, not on the order its shifts are listed in."""
    shifts = data.draw(st.lists(_SHIFTS, min_size=1, max_size=4,
                                unique_by=json.dumps))
    m = data.draw(st.integers(0, len(shifts)))
    spec = dict(_mode_and_q(data.draw), m=m, n=len(shifts) - m,
                K=data.draw(st.integers(1, 3)))
    listed = [[a, 1] for a in shifts]
    permuted = data.draw(st.permutations(listed))
    assert (_solve_report(dict(spec, **{"lambda": {"shifts": listed}}))
            == _solve_report(dict(spec, **{"lambda": {"shifts": permuted}})))


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_repeated_shift_solve_is_deterministic(data):
    """One double shift, deg <= 3, K = 1: two runs of the ramified search
    give the same report, and every lift it lists is certified."""
    a, b = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=2,
                              max_size=2, unique=True))
    shifts = [[str(a), 2]] + data.draw(st.sampled_from([[], [[str(b), 1]]]))
    deg = sum(mult for _, mult in shifts)
    m = data.draw(st.integers(0, deg))
    spec = dict(_mode_and_q(data.draw), m=m, n=deg - m, K=1,
                **{"lambda": {"shifts": shifts}})
    first = _solve_report(spec)
    assert _solve_report(spec) == first
    assert all(lift["certified"] for entry in first[1]["bases"]
               for lift in entry["lifts"])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_small_specs_never_escape_the_cli(data):
    """Both modes, deg <= 3 with up to 3 real or Gaussian shifts of
    multiplicity up to 3, K <= 1, N_max <= 2: solve and tropical each exit
    0, 2, 3 or 4 with a format-3 JSON report on stdout, and never raise."""
    roots = data.draw(st.lists(_SHIFTS, min_size=1, max_size=3))
    shifts = {}
    for a in roots:  # equal draws make a multiple shift
        key = json.dumps(a)
        shifts[key] = [a, shifts[key][1] + 1 if key in shifts else 1]
    deg = len(roots)
    m = data.draw(st.integers(0, deg))
    # N_max is always set: unset, it is m + n, and QQ (z+a)^3 searches at
    # N = 3 can run for minutes
    spec = dict(_mode_and_q(data.draw), m=m, n=deg - m,
                K=data.draw(st.integers(0, 1)),
                N_max=data.draw(st.integers(1, 2)),
                **{"lambda": {"shifts": list(shifts.values())}})
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "spec.json")
        Path(path).write_text(json.dumps(spec))
        for command in ("solve", "tropical"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([command, path])
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_RAMIFICATION,
                            EXIT_CERTIFICATE), (command, spec)
            assert json.loads(stdout.getvalue())["format"] == 3


# Lambda = z + 1 with m = 1, n = 0: a single generic base and a single root
ONE_BASE = {"mode": "qq", "lambda": _shifts(["1", 1]), "m": 1, "n": 0, "K": 3}


def test_solve_reports_certificate_failure(tmp_path, capsys, monkeypatch):
    real = cli.lift_newton
    monkeypatch.setattr(cli, "lift_newton", lambda base, spec: replace(
        real(base, spec), residual_valuation=Fraction(0)))
    spec = write_spec(tmp_path, ONE_BASE)
    assert main(["solve", spec]) == EXIT_CERTIFICATE
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == ["certificate_failure"]
    assert report["bases"][0]["lifts"][0]["certified"] is False


def test_uncertified_ramified_lift_is_reported(tmp_path, capsys,
                                               monkeypatch):
    # the CLI judges ramified lifts as it judges Newton ones: a branch the
    # search returns is listed even when its certificate fails, and the
    # failure is counted, not lost in a ramification_bound_exceeded
    def search(sol, spec, expansion, n_ram):
        # the exact branch x = 1 + 2t, y = 1 - 2t, its x t^2 coefficient 1
        x = Series(1, [Scalar(c) for c in (1, 2, 1, 0, 0)])
        y = Series(1, [Scalar(c) for c in (1, -2, 0, 0, 0)])
        return [CandidatePoint((x,), (y,))], 0

    monkeypatch.setattr(lifting, "_branch_search", search)
    spec = write_spec(tmp_path, {"mode": "qq", "m": 1, "n": 1, "K": 4,
                                 "lambda": _shifts(["1", 2])})
    assert main(["solve", spec]) == EXIT_CERTIFICATE
    report = json.loads(capsys.readouterr().out)
    # the wrong t^2 coefficient also leaves a Bethe residual of order t
    assert [f["reason"] for f in report["failures"]] == [
        "certificate_failure", "bethe_valuation"]
    [entry] = report["bases"]
    assert entry["branch_count"] == 1
    assert [lift["certified"] for lift in entry["lifts"]] == [False]
    assert entry["lifts"][0]["x"][0]["coeffs"] == ["1", "2", "1", "0", "0"]


def test_every_solve_reason_has_an_exit_code():
    # a reason missing from the table would end the solve in a KeyError
    lift_reasons = {cls.reason for cls in lifting.LiftError.__subclasses__()}
    assert len(lift_reasons) == 3
    assert {cli.SOLVE_EXIT_CODES[r] for r in lift_reasons} == {
        EXIT_RAMIFICATION}
    assert cli.SOLVE_EXIT_CODES["certificate_failure"] == EXIT_CERTIFICATE
    assert cli.SOLVE_EXIT_CODES["bethe_valuation"] == EXIT_CERTIFICATE


@pytest.mark.parametrize("failing_base", [0, 1])
def test_solve_exits_with_the_largest_code(tmp_path, capsys, monkeypatch,
                                           failing_base):
    # one base cannot be lifted (3), the other fails its certificate (4):
    # the exit code is 4 whichever base comes first
    real = cli.lift_newton
    calls = []

    def lift(base, spec):
        calls.append(base)
        if len(calls) - 1 == failing_base:
            raise lifting.RamificationBoundExceededError("no branch")
        return replace(real(base, spec), residual_valuation=Fraction(0))

    monkeypatch.setattr(cli, "lift_newton", lift)
    spec = write_spec(tmp_path, QQ11)
    assert main(["solve", spec]) == EXIT_CERTIFICATE
    report = json.loads(capsys.readouterr().out)
    reasons = ["ramification_bound_exceeded", "certificate_failure"]
    assert [f["reason"] for f in report["failures"]] == \
        reasons[::1 if failing_base == 0 else -1]


def test_solve_reports_low_bethe_valuation(tmp_path, capsys, monkeypatch):
    real = cli.bethe_report
    monkeypatch.setattr(cli, "bethe_report", lambda ls, spec: replace(
        real(ls, spec), residual_valuations=(Fraction(spec.K - 2),)))
    spec = write_spec(tmp_path, ONE_BASE)
    assert main(["solve", spec]) == EXIT_CERTIFICATE
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == ["bethe_valuation"]
    assert report["bases"][0]["lifts"][0]["certified"] is True


def test_solve_rejects_unit_modulus_q(tmp_path, capsys):
    # (3+4i)/5 has |q| = 1 but is no root of unity: the Bethe check could
    # not decide q-distinctness, so solve refuses it before lifting
    spec = write_spec(tmp_path, _with(QQ_DIFF, K=2,
                                      q={"re": "3/5", "im": "4/5"}))
    assert main(["solve", spec]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == ["q_unit_modulus"]
    assert main(["enumerate", spec]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["solutions"]) == 2
    assert main(["tropical", spec]) in (EXIT_OK, EXIT_CERTIFICATE)
    assert "tropical" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", ["solve", "tropical"])
def test_out_in_missing_directory_fails_before_work(tmp_path, capsys,
                                                    monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the --out check")
    monkeypatch.setattr(cli, "enumerate_infinite_solutions", no_work)
    monkeypatch.setattr(cli, "prevariety", no_work)
    spec = write_spec(tmp_path, QQ11)
    out = tmp_path / "missing" / "report.json"
    assert main([command, spec, "--out", str(out)]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == ["bad_out_path"]
    assert not out.parent.exists()


def test_spec_failure_with_bad_out_path_reports_on_stdout(tmp_path, capsys):
    spec = write_spec(tmp_path, dict(QQ11, extra=1))
    # a directory is no file to write either
    assert main(["solve", spec, "--out", str(tmp_path)]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == ["bad_out_path"]


def test_out_name_too_long_fails_before_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the --out check")
    monkeypatch.setattr(cli, "enumerate_infinite_solutions", no_work)
    spec = write_spec(tmp_path, QQ11)
    out = tmp_path / ("r" * 300)
    assert main(["solve", spec, "--out", str(out)]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == ["bad_out_path"]


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, where every write fails")
def test_out_write_failure_reports_on_stdout(tmp_path, capsys):
    # /dev/full opens, and the write fails only after the whole run
    spec = write_spec(tmp_path, QQ11)
    assert main(["solve", spec, "--out", "/dev/full"]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert [f["reason"] for f in report["failures"]] == ["bad_out_path"]


def test_crashed_run_keeps_the_earlier_report(tmp_path):
    # the report goes through a temporary file beside --out: a run that
    # fails leaves an earlier report whole, and no temporary file behind
    def broken(spec, failures):
        raise RuntimeError("solve crashed")
    spec = write_spec(tmp_path, QQ11)
    out = tmp_path / "report.json"
    out.write_text("earlier report\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_solve", broken)
        with pytest.raises(RuntimeError, match="solve crashed"):
            main(["solve", spec, "--out", str(out)])
    assert out.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "report.json", "spec.json"]
    # a run that finishes replaces it, keeping its mode
    out.chmod(0o640)
    assert main(["solve", spec, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["format"] == 3
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "report.json", "spec.json"]


def test_out_through_a_symlink_writes_its_target(tmp_path):
    spec = write_spec(tmp_path, QQ11)
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["solve", spec, "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert json.loads(target.read_text())["format"] == 3


def test_solve_does_not_swallow_tropical_crash(tmp_path, monkeypatch):
    def broken(spec):
        raise RuntimeError("prevariety crashed")
    monkeypatch.setattr(cli, "prevariety", broken)
    spec = write_spec(tmp_path, QQ11)
    with pytest.raises(RuntimeError, match="prevariety crashed"):
        main(["solve", spec])


def test_repeated_parses_behave_alike(tmp_path, capsys):
    # main reuses one parser: --version, a usage error and a run must
    # behave the same on every call
    from qqsystems import __version__
    spec = write_spec(tmp_path, QQ11)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"qqsystems {__version__}\n"
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2
        assert "required: spec" in capsys.readouterr().err
        assert main(["enumerate", spec]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["solutions"]


def _python(script):
    """Stdout of a fresh interpreter running script against this src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    return res.stdout


def _modules_loaded_by(calls, modules):
    """Exit codes of cli.main over calls in a fresh interpreter, and which
    of the named modules it loaded."""
    return json.loads(_python(
        "import contextlib, io, json, sys\n"
        "from qqsystems.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {calls!r}]\n"
        f"print(json.dumps([codes, [m in sys.modules for m in {modules!r}]]))\n"))


def test_generic_runs_do_not_import_sympy(tmp_path):
    """Generic solve, tropical and enumerate load neither numpy nor sympy;
    a degenerate solve loads sympy (the ramified search) but not numpy."""
    specs = [
        write_spec(tmp_path, {"mode": "qq", "m": 2, "n": 1, "K": 3,
                              "lambda": _shifts(["1", 1], ["2", 1], ["4", 1])},
                   "qq.json"),
        write_spec(tmp_path, QQ_DIFF, "QQ.json"),
    ]
    calls = [[cmd, spec] for spec in specs
             for cmd in ("solve", "tropical", "enumerate")]
    assert _modules_loaded_by(calls, ["numpy", "sympy"]) == \
        [[EXIT_OK] * 6, [False, False]]
    degenerate = write_spec(tmp_path, {"mode": "qq", "m": 1, "n": 1, "K": 2,
                                       "lambda": _shifts(["1", 2])}, "deg.json")
    assert _modules_loaded_by([["solve", degenerate]], ["numpy", "sympy"]) == \
        [[EXIT_OK], [False, True]]


def test_oracle_names_resolve_lazily():
    """The numeric oracle's names still resolve from the package, but only
    loading them imports numpy, and import * never does."""
    script = ("import sys\n"
              "from qqsystems import *\n"
              "assert 'numpy' not in sys.modules\n"
              "assert 'numeric_check' not in dir()\n"
              "import qqsystems\n"
              "from qqsystems import numeric_check\n"
              "assert 'numpy' in sys.modules\n"
              "from qqsystems import numeric, NumericCheck\n"
              "assert numeric_check is numeric.numeric_check\n"
              "assert qqsystems.numeric_check is numeric.numeric_check\n"
              "assert NumericCheck is numeric.NumericCheck\n"
              "assert qqsystems.damped_newton is numeric.damped_newton\n"
              "try:\n"
              "    qqsystems.no_such_name\n"
              "except AttributeError:\n"
              "    print('ok')\n")
    assert _python(script).strip() == "ok"


def _perfbench_package_imports():
    """Each name perfbench imports with `from qqsystems import ...`."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    return sorted({alias.name for path in perfbench.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "qqsystems" and not node.level
                   for alias in node.names})


@pytest.mark.parametrize("name", _perfbench_package_imports())
def test_perfbench_package_import_resolves(name):
    # the statement perfbench runs: a submodule, a name the package binds,
    # or a lazy oracle name
    exec(f"from qqsystems import {name}", {})


def test_package_all_resolves():
    import qqsystems
    assert all(hasattr(qqsystems, name) for name in qqsystems.__all__)


class TestEnumerate:
    def test_two_solutions(self, tmp_path, capsys):
        spec = write_spec(tmp_path, QQ11)
        assert main(["enumerate", spec]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["solutions"]) == 2
        assert report["solutions"][0]["tier"] == "generic"

    def test_double_root_degenerate(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "mode": "qq", "lambda": {"shifts": [["1", 2]]},
            "m": 1, "n": 1, "K": 3})
        assert main(["enumerate", spec]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["solutions"]) == 1
        assert report["solutions"][0]["tier"] == "degenerate"

    def test_difference_scaled_shifts(self, tmp_path, capsys):
        spec = write_spec(tmp_path, QQ_DIFF)
        assert main(["enumerate", spec]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        xs = [s["x0"] for s in report["solutions"]]
        assert xs == [["3"], ["6"]]


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "qqsystems" in capsys.readouterr().out
