"""The exact content of CLI reports is the behaviour contract.

Each case runs ``cli.main`` on a fixed spec and compares the sha256 of the
exit code plus the report (without ``elapsed_seconds``, re-serialised in
the CLI's own key order) with a digest recorded from an earlier
implementation (over Fraction-pair scalars for all but the (z+1)^3
case).  A change of arithmetic, lifting or reporting that moves any
byte of these reports fails here.
"""

import hashlib
import json

import pytest

from qqsystems import cli


def _shifts(*pairs):
    return {"shifts": [[a, mult] for a, mult in pairs]}


CASES = {
    "qq (2,2) K=4": (
        "solve", {"mode": "qq",
                  "lambda": _shifts(("1", 1), ("2", 1), ("3", 1), ("4", 1)),
                  "m": 2, "n": 2, "K": 4},
        "0ef837df9be38e8cdf164a48ac3e08511591fb96432803a44efe13379be0c9e5"),
    "QQ (2,1) q=3 K=3": (
        "solve", {"mode": "QQ", "q": "3",
                  "lambda": _shifts(("1", 1), ("2", 1), ("4", 1)),
                  "m": 2, "n": 1, "K": 3},
        "5904a73c10e0f773a589cf9a5f69b432de965a37b98299f548f8a80de66cf3f6"),
    "qq gaussian (2,1)": (
        "solve", {"mode": "qq",
                  "lambda": _shifts(({"re": "1", "im": "1"}, 1),
                                    ({"re": "1", "im": "-1"}, 1), ("2", 1)),
                  "m": 2, "n": 1},
        "90a4d87efaeda084f9d54879a9c1f98b0548bc43767df62dd3894d6e00f4a136"),
    "qq (z+1)^2 K=4": (
        "solve", {"mode": "qq", "lambda": _shifts(("1", 2)),
                  "m": 1, "n": 1, "K": 4},
        "26d7acd3173263bca81006bcf2db0166d019ca530171ff2566427aa53a8548ab"),
    "QQ (z+1)^2 q=3 K=2": (
        "solve", {"mode": "QQ", "q": "3", "lambda": _shifts(("1", 2)),
                  "m": 1, "n": 1, "K": 2},
        "44c4f0533d9aab68f54fae23225079b137544033af3d24b0788b4bf57a097450"),
    # a ladder op with kernel dimension 2 and N up to 3: one branch
    "qq (z+1)^3 m=2 n=1 K=1": (
        "solve", {"mode": "qq", "lambda": _shifts(("1", 3)),
                  "m": 2, "n": 1, "K": 1},
        "1d67f3e152d6a0e95a4e6aaae4e9c81850634d8fd2f9bb2479cbd2bbd5cbb2f5"),
    # the ramified-lift op that ran past its 8 s budget, recorded from the
    # search at every N <= N_max (about 22 s); its one branch is N = 1
    "qq (z+1)^3 m=2 n=1 K=3": (
        "solve", {"mode": "qq", "lambda": _shifts(("1", 3)),
                  "m": 2, "n": 1, "K": 3},
        "617bc509fd01a66821e1be2b60eb8b59b63d2346583768f3e476dd9628a0ac97"),
    # two more ramified-lift benchmark specs, recorded from the search that
    # handed each raw constraint system to sympy.solve: repeated and empty
    # systems at K = 2, and two degenerate bases of two branches each
    "qq (z+1)^3 m=2 n=1 K=2": (
        "solve", {"mode": "qq", "lambda": _shifts(("1", 3)),
                  "m": 2, "n": 1, "K": 2},
        "808fe17f7ec17525d988e9ff99aaf8ca1bb00aa46681b34ec9e1f6073e5f9fcb"),
    # every branch leaves Q(i): exit 3 with 6 branches dropped, recorded
    # from the search that dropped them only at readout (about 21 s)
    "QQ (z+1)^3 q=3 m=2 n=1 K=2": (
        "solve", {"mode": "QQ", "q": "3", "lambda": _shifts(("1", 3)),
                  "m": 2, "n": 1, "K": 2},
        "1304d2c89d929516c2889f962f0dd834c6dfe39a3d0603add37cd75af44aa9e6"),
    "qq (z+1)^2(z+5) m=2 n=1": (
        "solve", {"mode": "qq", "lambda": _shifts(("1", 2), ("5", 1)),
                  "m": 2, "n": 1},
        "de77c5626e9b3360214358d20abc2b24b7bbdbbbbf12eb142b7eb2a50bb3fb0b"),
    # the three generic-lift benchmark specs at seed 7, recorded from the
    # lift that evaluated the whole Series residual at every order
    "qq (3,3) K=8": (
        "solve", {"mode": "qq",
                  "lambda": _shifts(("1", 1), ("4", 1), ("8", 1), ("10", 1),
                                    ("14", 1), ("17", 1)),
                  "m": 3, "n": 3, "K": 8},
        "d2b96a16106fb236ac5c9c64d18ad8f7d91e14df20d9d010c7e73a220595c95a"),
    "QQ (3,3) q=3 K=6": (
        "solve", {"mode": "QQ", "q": "3",
                  "lambda": _shifts(("1", 1), ("4", 1), ("7", 1), ("10", 1),
                                    ("13", 1), ("16", 1)),
                  "m": 3, "n": 3, "K": 6},
        "f2bbabda0f9974bfec53d1f4b6bfcc79e29979ccded0d9bbd4a3515c422f608c"),
    "qq gaussian (3,2) K=8": (
        "solve", {"mode": "qq",
                  "lambda": _shifts(({"re": "1", "im": "1"}, 1),
                                    ({"re": "2", "im": "1"}, 1),
                                    ({"re": "1", "im": "-2"}, 1),
                                    ({"re": "-1", "im": "-1"}, 1),
                                    ({"re": "3", "im": "1"}, 1)),
                  "m": 3, "n": 2, "K": 8},
        "5e27ba7e50afd89d4b98f463d98c26d1b46d9cf5d1b3f40d0ee47b5e27d5f2b7"),
    "tropical qq (2,1)": (
        "tropical", {"mode": "qq",
                     "lambda": _shifts(("1", 1), ("2", 1), ("3", 1)),
                     "m": 2, "n": 1},
        "bef77bf2fee406cee4babb61167dc08dfa8531d0c0217032c8eae4f24a103adf"),
    # the edges of the q+ q- coefficient table: no x (only the leading 1
    # of q+), no y, and a difference-mode tropical report; recorded from
    # the residual that expanded the two unions of scaled roots
    "QQ m=0 n=3 q=3 K=2": (
        "solve", {"mode": "QQ", "q": "3",
                  "lambda": _shifts(("1", 1), ("3", 1), ("5", 1)),
                  "m": 0, "n": 3, "K": 2},
        "5aa166e22055ebefd6c4e98be338d95a47e3b690b5128058498a07aff6bce9b2"),
    "QQ m=2 n=0 q=1/2 K=3": (
        "solve", {"mode": "QQ", "q": "1/2",
                  "lambda": _shifts(("1", 1), ("3", 1)),
                  "m": 2, "n": 0, "K": 3},
        "e3898e45c874a277cfda074a1e3d4691113459ba8f91b7762e3d416bdd4500a4"),
    "tropical QQ (2,1) q=3": (
        "tropical", {"mode": "QQ", "q": "3",
                     "lambda": _shifts(("1", 1), ("2", 1), ("3", 1)),
                     "m": 2, "n": 1},
        "8dd1ba1979d61fff7a4aeb2f2372d800362df3b546005557af738a3052e668c7"),
}


def report_digest(cmd, spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    capsys.readouterr()
    code = cli.main([cmd, str(path)])
    report = json.loads(capsys.readouterr().out)
    report.pop("elapsed_seconds", None)
    text = f"{code}\n{json.dumps(report, indent=2)}"
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(CASES))
def test_report_bytes(label, tmp_path, capsys):
    cmd, spec, digest = CASES[label]
    code, got = report_digest(cmd, spec, tmp_path, capsys)
    assert got == digest, f"{label}: exit {code}, report digest {got}"
