"""Golden CLI gate: the stdout of fixed CLI calls, compared byte for byte.

Each case is (name, exit code, argv); its recorded stdout is
``tests/golden/<name>.out``.  Re-record every golden with

    PYTHONPATH=src python tests/test_golden.py

and review the diff: a golden changes only when an answer is meant to.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from iwasawalab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = [
    # the examples of README.md
    ("readme-mq", 0,
     ["mq", "--field", "Q", "--p", "3", "--q1", "2", "--q2", "5",
      "--prec", "3"]),
    ("readme-alpha", 0,
     ["alpha", "--field", "Q(sqrt{79})", "--p", "3", "--q1", "2",
      "--q2", "5a", "--prec", "2"]),
    ("readme-leopoldt", 0,
     ["leopoldt", "--field", "Q(sqrt{2})", "--p", "5"]),
    ("readme-even-check", 0,
     ["even-check", "--field", "Q", "--p", "3", "--q", "7", "--prec", "2"]),
    ("readme-scan", 0,
     ["--format", "json", "scan", "--dmax", "50", "--primes", "3,5,7"]),
    ("readme-selftest", 0, ["selftest"]),
    # one call of each remaining subcommand, as JSON
    ("factor", 0,
     ["--format", "json", "factor", "--field", "Q(sqrt{79})", "--ell", "5"]),
    ("classgroup", 0,
     ["--format", "json", "classgroup", "--field", "Q(sqrt{5626})"]),
    ("unit", 0, ["--format", "json", "unit", "--field", "Q(sqrt{94})"]),
    # a long unit period: 545 walk states, eps with a 902-bit coordinate
    ("unit-48799", 0, ["unit", "--field", "Q(sqrt{48799})"]),
    ("leopoldt-48799", 0,
     ["leopoldt", "--field", "Q(sqrt{48799})", "--p", "5"]),
    # the longest odd period below 50,000: 443 states, N(eps) = -1
    ("unit-49009", 0, ["unit", "--field", "Q(sqrt{49009})"]),
    ("leopoldt-49009", 0,
     ["leopoldt", "--field", "Q(sqrt{49009})", "--p", "3"]),
    # 1013 is inert in Q(sqrt 2)
    ("rayclass-inert", 0,
     ["--format", "json", "rayclass", "--field", "Q(sqrt{2})",
      "--modulus", "1013", "--p", "3"]),
    # 100003 is inert, 1009 split, 7091 = 7 * 1013 split times inert
    ("rayclass-inert-100003", 0,
     ["--format", "json", "rayclass", "--field", "Q(sqrt{2})",
      "--modulus", "100003", "--p", "3"]),
    ("rayclass-split-1009", 0,
     ["--format", "json", "rayclass", "--field", "Q(sqrt{2})",
      "--modulus", "1009", "--p", "3"]),
    ("rayclass-split-inert-7091", 0,
     ["--format", "json", "rayclass", "--field", "Q(sqrt{2})",
      "--modulus", "7091", "--p", "3"]),
    # inert prime powers: 5 inert at e = 3; 3 split and 5 inert, both e = 3
    ("rayclass-inert-125", 0,
     ["--format", "json", "rayclass", "--field", "Q(sqrt{2})",
      "--modulus", "125", "--p", "5"]),
    ("rayclass-split-inert-3375", 0,
     ["--format", "json", "rayclass", "--field", "Q(sqrt{7})",
      "--modulus", "3375", "--p", "3"]),
    # beyond Q(sqrt 2): over Q, over class numbers 3 (d = 79) and 2
    # (d = 10), and 1026169 = 1013^2, inert at e = 2
    ("rayclass-q-1001", 0,
     ["--format", "json", "rayclass", "--field", "Q", "--modulus", "1001",
      "--p", "3"]),
    ("rayclass-79-1003", 0,
     ["--format", "json", "rayclass", "--field", "Q(sqrt{79})",
      "--modulus", "1003", "--p", "3"]),
    ("rayclass-10-1001", 0,
     ["--format", "json", "rayclass", "--field", "Q(sqrt{10})",
      "--modulus", "1001", "--p", "3"]),
    ("rayclass-inert-square-1026169", 0,
     ["--format", "json", "rayclass", "--field", "Q(sqrt{2})",
      "--modulus", "1026169", "--p", "3"]),
    ("frobenius", 0,
     ["--format", "json", "frobenius", "--field", "Q", "--p", "3",
      "--q", "2", "--q", "7", "--prec", "3"]),
    ("gw", 0,
     ["--format", "json", "gw", "--h0v", "0", "--h0dual", "1",
      "--locals", "0:0,0:0"]),
    # ray class groups of conductor 3^25: the largest SNF of the set
    ("alpha-79-prec24", 0,
     ["--format", "json", "alpha", "--field", "Q(sqrt{79})", "--p", "3",
      "--q1", "2", "--q2", "5a", "--prec", "24"]),
    # the same alpha at N = 3, after N = 24 in one process: its entry logs
    # are the N = 24 table's, truncated
    ("alpha-79-prec3", 0,
     ["--format", "json", "alpha", "--field", "Q(sqrt{79})", "--p", "3",
      "--q1", "2", "--q2", "5a", "--prec", "3"]),
    # both split places of 3 in Q(sqrt 7) as Q
    ("alpha-7-3a3b", 0,
     ["--format", "json", "alpha", "--field", "Q(sqrt{7})", "--p", "5",
      "--q1", "3a", "--q2", "3b", "--prec", "10"]),
    ("alpha-7-3a3b-prec4", 0,
     ["--format", "json", "alpha", "--field", "Q(sqrt{7})", "--p", "5",
      "--q1", "3a", "--q2", "3b", "--prec", "4"]),
    # regulator valuation 10: indeterminate at --prec 8, first certified at
    # 9 (the unit is read to prec + 2 digits), and certified at 16
    ("leopoldt-21713-prec8", 3,
     ["--format", "json", "leopoldt", "--field", "Q(sqrt{21713})", "--p",
      "3", "--prec", "8"]),
    ("leopoldt-21713-prec9", 0,
     ["--format", "json", "leopoldt", "--field", "Q(sqrt{21713})", "--p",
      "3", "--prec", "9"]),
    ("leopoldt-21713-prec16", 0,
     ["--format", "json", "leopoldt", "--field", "Q(sqrt{21713})", "--p",
      "3", "--prec", "16"]),
    # class number 3: the degree-0 element and the transported Frobenius
    # classes run over a nontrivial class group
    ("mq-79-2-5a", 0,
     ["--format", "json", "mq", "--field", "Q(sqrt{79})", "--p", "3",
      "--q1", "2", "--q2", "5a", "--prec", "4"]),
    ("frobenius-79", 0,
     ["--format", "json", "frobenius", "--field", "Q(sqrt{79})", "--p",
      "3", "--q", "2", "--q", "5a", "--prec", "3"]),
    # p = 5 is inert in Q(sqrt 2): the class coordinates pass through an
    # inert component of (O/5^4)*
    ("frobenius-2-inert", 0,
     ["--format", "json", "frobenius", "--field", "Q(sqrt{2})", "--p", "5",
      "--q", "3", "--q", "7", "--q", "11", "--q", "17a", "--prec", "3"]),
    ("even-check-79", 0,
     ["--format", "json", "even-check", "--field", "Q(sqrt{79})", "--p",
      "3", "--q", "7", "--prec", "2"]),
    # h = 3, with 1,482 reduced states on its three cycles
    ("classgroup-1000003", 0,
     ["--format", "json", "classgroup", "--field", "Q(sqrt{1000003})"]),
    # h = 7 at d ~ 10^7: 3,054 reduced states, read off divisor pairs
    ("classgroup-10000019", 0,
     ["--format", "json", "classgroup", "--field", "Q(sqrt{10000019})"]),
    # ideal moduli 27*q and 81*q, q the ramified prime above 79: the
    # residue field of q enters the ray class group
    ("even-check-79-q79", 0,
     ["--format", "json", "even-check", "--field", "Q(sqrt{79})", "--p",
      "3", "--q", "79", "--prec", "2"]),
    # h = 2 and q1 = (2) ramified of class order 2: pi1 generates q1^2
    ("alpha-10-2-7", 0,
     ["--format", "json", "alpha", "--field", "Q(sqrt{10})", "--p", "3",
      "--q1", "2", "--q2", "7", "--prec", "6"]),
    ("mq-10-7-41a", 0,
     ["--format", "json", "mq", "--field", "Q(sqrt{10})", "--p", "3",
      "--q1", "7", "--q2", "41a", "--prec", "8"]),
]


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, code, argv, capsys, monkeypatch):
    monkeypatch.delenv("IWASAWA_LAB_PRECISION", raising=False)
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN_DIR / (name + ".out")).read_text()


_OPTIMIZED_RUN = """
import contextlib, io, json, sys
from iwasawalab.cli import main
out = []
for name, code, argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(argv)
    out.append([name, got, buf.getvalue()])
json.dump([sys.flags.optimize, out], sys.stdout)
"""


def test_golden_under_python_O():
    """Every case again, in one `python -O` process: -O strips bare
    asserts, so this fails if an answer rests on one.  The cases run in
    reverse order, so each golden is checked after two process histories,
    this one's and the forward run's: an answer must not depend on what
    the process computed before it."""
    cases = CASES[::-1]
    env = {k: v for k, v in os.environ.items()
           if k != "IWASAWA_LAB_PRECISION"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_RUN],
                          input=json.dumps(cases), env=env,
                          capture_output=True, text=True, check=True)
    optimize, results = json.loads(proc.stdout)
    assert optimize == 1
    assert [r[0] for r in results] == [c[0] for c in cases]
    for (name, code, _), (_, got, out) in zip(cases, results):
        assert got == code, name
        assert out == (GOLDEN_DIR / (name + ".out")).read_text(), name


def _record():
    os.environ.pop("IWASAWA_LAB_PRECISION", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, code, argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = main(list(argv))
        if got != code:
            sys.exit("%s: exit code %d, expected %d" % (name, got, code))
        (GOLDEN_DIR / (name + ".out")).write_text(buf.getvalue())
        print("recorded", name)


if __name__ == "__main__":
    _record()
