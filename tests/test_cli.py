import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from iwasawalab import classfield, cli
from iwasawalab.cli import build_parser, main
from iwasawalab.quadfield import RealQuadraticField, fundamental_unit


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--format", "json", *argv)
    doc = json.loads(out) if out.strip() else None
    return code, doc


def test_mq_fixture(capsys):
    code, doc = run_json(capsys, "mq", "--field", "Q", "--p", "3",
                         "--q1", "2", "--q2", "5", "--prec", "3")
    assert code == 0
    assert doc["m_q"] == 1
    assert doc["a1_residue"] % 9 == 4
    assert doc["schema"] == 1


def test_mq_duplicate_prime_usage_error(capsys):
    code, _ = run(capsys, "mq", "--field", "Q", "--p", "3",
                  "--q1", "2", "--q2", "2")
    assert code == 4


def test_leopoldt(capsys):
    code, doc = run_json(capsys, "leopoldt", "--field", "Q(sqrt{2})",
                         "--p", "5")
    assert code == 0
    assert doc["delta"] == 0


def test_leopoldt_ramified_usage_error(capsys):
    code, _ = run(capsys, "leopoldt", "--field", "Q(sqrt{5})", "--p", "5")
    assert code == 4


def test_factor(capsys):
    code, doc = run_json(capsys, "factor", "--field", "Q(sqrt{2})",
                         "--ell", "7")
    assert code == 0
    assert doc["kind"] == "split" and len(doc["ideals"]) == 2


def test_classgroup(capsys):
    code, doc = run_json(capsys, "classgroup", "--field", "Q(sqrt{79})")
    assert code == 0
    assert doc["h"] == 3


def test_unit(capsys):
    code, doc = run_json(capsys, "unit", "--field", "Q(sqrt{2})")
    assert code == 0
    assert doc["norm"] == -1


def _reference_decimal(n: int) -> str:
    """n >= 0 in decimal by repeated division by 10^9, so that no int of
    more than nine digits is turned into a string."""
    chunks = []
    while True:
        n, r = divmod(n, 10**9)
        chunks.append(r)
        if not n:
            break
    return str(chunks[-1]) + "".join("%09d" % c for c in reversed(chunks[:-1]))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unit_prints_coordinates_past_the_int_string_limit(capsys, fmt):
    """eps of Q(sqrt 20000971) is a + b*w with a < 0 of 4,578 digits, past
    the 4,300 that str(int) takes; `unit` prints it, exits 0 and leaves the
    limit as it was."""
    d = 20000971
    limit = sys.get_int_max_str_digits()
    K = RealQuadraticField(d)
    eps = fundamental_unit(K)
    assert eps.a < 0 and len(_reference_decimal(-eps.a)) == 4578
    # D = 4d, so eps = u + v*sqrt(D) = u + 2v*sqrt(d) with integers u, 2v
    u, v = eps.sqrt_coords()
    u, v2 = int(u), int(2 * v)
    assert K.D == 4 * d and u == eps.x + eps.y * K.D // 2 and v2 == eps.y
    assert u > 0 and v2 > 0
    if limit:
        with pytest.raises(ValueError):
            str(eps.a)
    want = "%s + %s*sqrt(%d)" % (_reference_decimal(u),
                                 _reference_decimal(v2), d)
    code, out = run(capsys, "--format", fmt, "unit", "--field",
                    "Q(sqrt{%d})" % d)
    assert code == 0
    if fmt == "json":
        assert json.loads(out) == {"field": "Q(sqrt{%d})" % d, "norm": 1,
                                   "schema": 1, "unit": want}
    else:
        assert out == "eps(Q(sqrt{%d})) = %s, norm 1\n" % (d, want)
    assert sys.get_int_max_str_digits() == limit


def test_rayclass(capsys):
    code, doc = run_json(capsys, "rayclass", "--field", "Q",
                         "--modulus", "63", "--p", "3")
    assert code == 0
    assert doc["p_order"] == 9
    assert doc["p_invariant_factors"] == [3, 3]


def test_internal_check_exit_code(capsys, monkeypatch):
    # a wrong cyclotomic character trips the cross-check of the log degree
    # against the dlog that reads no log in classfield.frobenius_image
    monkeypatch.setattr(classfield, "cyclotomic_log", lambda n, p, A: 1)
    code = main(["frobenius", "--field", "Q", "--p", "3", "--q", "2"])
    err = capsys.readouterr().err
    assert code == 5
    assert err == "internal check failed: log degree disagrees with the " \
        "exact dlog\n"
    assert "Traceback" not in err


def test_frobenius(capsys):
    code, doc = run_json(capsys, "frobenius", "--field", "Q", "--p", "3",
                         "--q", "2", "--q", "5", "--prec", "2")
    assert code == 0
    assert doc["invariant_factors"] == [9]
    degs = [f["degree"]["residue"] % 9 for f in doc["frobenius"]]
    assert degs == [5, 7]


def test_alpha_accepted(capsys):
    code, doc = run_json(capsys, "alpha", "--field", "Q", "--p", "3",
                         "--q1", "2", "--q2", "5", "--prec", "3")
    assert code == 0
    assert doc["status"] == "accepted"
    assert doc["m_Q"] == 1


def test_alpha_noninert_usage(capsys):
    code, _ = run(capsys, "alpha", "--field", "Q", "--p", "3",
                  "--q1", "17", "--q2", "5", "--prec", "3")
    assert code == 4


@pytest.mark.parametrize("command", ["mq", "alpha"])
@pytest.mark.parametrize("field,q1,q2,prime", [
    ("Q", "2", "17", "(17; 0; 0)"), ("Q(sqrt{2})", "17b", "5", "(17; 2; 1)")])
def test_a_prime_not_inert_in_the_cyclotomic_tower_is_a_usage_error(
        command, field, q1, q2, prime, capsys):
    assert main([command, "--field", field, "--p", "3", "--q1", q1,
                 "--q2", q2, "--prec", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: %s is not inert in the cyclotomic tower " \
        "(norm 17)\n" % prime


def test_even_check(capsys):
    code, doc = run_json(capsys, "even-check", "--field", "Q", "--p", "3",
                         "--q", "7", "--prec", "2")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["e_q"] == 3


def test_gw(capsys):
    code, doc = run_json(capsys, "gw", "--h0v", "1", "--h0dual", "0",
                         "--locals", "2:1,0:0")
    assert code == 0
    assert doc["rhs"] == 2


def test_scan(capsys):
    code, doc = run_json(capsys, "scan", "--dmax", "10", "--primes", "3,5",
                         "--prec", "6")
    assert code == 0
    assert doc["violations"] == []


# the first indeterminate row of primes 3, 5, 7 at N = 8 is (21713, 3)
INDETERMINATE_SCAN = ["--format", "json", "scan", "--dmax", "21713",
                      "--primes", "3,5,7"]
INDETERMINATE_SCAN_SHA256 = \
    "d760b3c718ab69bb45239cf197cfcd01f2904797ec9eea1e0f2b947dc4411e2f"


def test_indeterminate_scan_keeps_its_exit_code_and_bytes(monkeypatch,
                                                           capsys):
    monkeypatch.delenv("IWASAWA_LAB_PRECISION", raising=False)
    code, out = run(capsys, *INDETERMINATE_SCAN)
    assert code == 3
    assert hashlib.sha256(out.encode()).hexdigest() == \
        INDETERMINATE_SCAN_SHA256


def test_indeterminate_scan_keeps_its_exit_code_and_bytes_under_python_O():
    env = {k: v for k, v in os.environ.items()
           if k != "IWASAWA_LAB_PRECISION"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-O", "-m", "iwasawalab.cli",
                           *INDETERMINATE_SCAN], env=env, capture_output=True)
    assert proc.returncode == 3
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        INDETERMINATE_SCAN_SHA256


def test_scan_even_prime_usage(capsys):
    code, _ = run(capsys, "scan", "--dmax", "10", "--primes", "2,3")
    assert code == 4


def test_gw_negative_dimension_usage_error(capsys):
    assert main(["gw", "--h0v", "-1", "--h0dual", "0"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == \
        "usage error: cohomology dimensions must be nonnegative ints\n"


def test_scan_empty_range_usage_error(capsys):
    assert main(["scan", "--dmax", "0", "--primes", "3,5"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: d_max must be at least 1\n"


def test_bad_subcommand(capsys):
    code, _ = run(capsys, "nonsense")
    assert code == 4


def test_bad_field(capsys):
    code, _ = run(capsys, "classgroup", "--field", "K(7)")
    assert code == 4


def test_json_determinism(capsys):
    _, out1 = run(capsys, "--format", "json", "scan", "--dmax", "7",
                  "--primes", "3,5", "--prec", "5")
    _, out2 = run(capsys, "--format", "json", "scan", "--dmax", "7",
                  "--primes", "3,5", "--prec", "5")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1


def test_json_single_document(capsys):
    _, out = run(capsys, "--format", "json", "mq", "--field", "Q", "--p",
                 "3", "--q1", "2", "--q2", "5", "--prec", "3")
    assert len(out.strip().splitlines()) == 1


def test_selftest(capsys):
    code, doc = run_json(capsys, "selftest")
    assert code == 0
    assert doc["pass"] is True
    assert all(c["pass"] for c in doc["checks"])


def test_env_precision(monkeypatch, capsys):
    monkeypatch.setenv("IWASAWA_LAB_PRECISION", "4")
    code, doc = run_json(capsys, "leopoldt", "--field", "Q(sqrt{2})",
                         "--p", "5")
    assert code == 0
    assert doc["precision"] == 4


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_env_precision_must_be_a_positive_integer(value, monkeypatch, capsys):
    monkeypatch.setenv("IWASAWA_LAB_PRECISION", value)
    assert main(["leopoldt", "--field", "Q(sqrt{2})", "--p", "5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage error: IWASAWA_LAB_PRECISION")


@pytest.mark.parametrize("argv,message", [
    (["unit", "--field", "Q"], "Q has no fundamental unit"),
    (["factor", "--field", "Q(sqrt{2})", "--ell", "4"], "4 is not prime"),
    (["factor", "--field", "Q(sqrt{2})", "--ell", "1"], "1 is not prime"),
    (["factor", "--field", "Q(sqrt{2})", "--ell", "-7"], "-7 is not prime"),
])
def test_engine_refusal_is_a_usage_error(argv, message, capsys):
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: %s\n" % message


# The options of every subcommand, named by hand as the parser declared them
# one subcommand at a time: the required ones, each with a valid value, and
# the defaults of the others by destination.
SUBCOMMAND_OPTIONS = {
    "factor": ({"--field": "Q(sqrt{2})", "--ell": "7"}, {}),
    "classgroup": ({"--field": "Q(sqrt{79})"}, {}),
    "unit": ({"--field": "Q(sqrt{2})"}, {}),
    "rayclass": ({"--field": "Q", "--modulus": "63", "--p": "3"}, {}),
    "frobenius": ({"--field": "Q", "--p": "3", "--q": "2"}, {"prec": None}),
    "mq": ({"--field": "Q", "--p": "3", "--q1": "2", "--q2": "5"},
           {"prec": None}),
    "alpha": ({"--field": "Q", "--p": "3", "--q1": "2", "--q2": "5"},
              {"prec": None}),
    "leopoldt": ({"--field": "Q(sqrt{2})", "--p": "5"}, {"prec": None}),
    "even-check": ({"--field": "Q", "--p": "3", "--q": "7"}, {"prec": None}),
    "gw": ({"--h0v": "1", "--h0dual": "0"}, {"locals": ""}),
    "scan": ({"--dmax": "10"}, {"primes": "3,5,7", "prec": None}),
    "selftest": ({}, {}),
}
INT_OPTIONS = {"--ell", "--modulus", "--p", "--h0v", "--h0dual", "--dmax",
               "--prec"}


def _declared(command):
    required, defaults = SUBCOMMAND_OPTIONS[command]
    return set(required) | {"--" + dest for dest in defaults}


def _argv(command, required, leave_out=None):
    argv = [command]
    for option, value in required.items():
        if option != leave_out:
            argv += [option, value]
    return argv


def test_the_subcommands_are_the_named_ones(capsys):
    assert main(["nonsense"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument command: invalid choice")
    choices = err.split("choose from", 1)[1]
    assert re.findall(r"[a-z]+(?:-[a-z]+)?", choices) == \
        list(SUBCOMMAND_OPTIONS)


@pytest.mark.parametrize("command,option", [
    (command, option) for command, (required, _) in SUBCOMMAND_OPTIONS.items()
    for option in required])
def test_leaving_out_a_required_option_is_a_usage_error(command, option,
                                                         capsys):
    required = SUBCOMMAND_OPTIONS[command][0]
    assert main(_argv(command, required, leave_out=option)) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == \
        "usage error: the following arguments are required: %s\n" % option


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
def test_options_parse_to_their_types_and_defaults(command):
    required, defaults = SUBCOMMAND_OPTIONS[command]
    args = build_parser().parse_args(_argv(command, required))
    assert args.command == command
    for option, value in required.items():
        want = int(value) if option in INT_OPTIONS else value
        assert getattr(args, option[2:]) == \
            ([want] if (command, option) == ("frobenius", "--q") else want)
    for dest, value in defaults.items():
        assert getattr(args, dest) == value
    assert set(vars(args)) - {"command", "format", "func"} == \
        {option[2:] for option in _declared(command)}


@pytest.mark.parametrize("command,option", [
    (command, option) for command in SUBCOMMAND_OPTIONS
    for option in sorted(INT_OPTIONS & _declared(command))])
def test_an_int_option_refuses_a_word(command, option, capsys):
    required = SUBCOMMAND_OPTIONS[command][0]
    assert main(_argv(command, required, leave_out=option)
                + [option, "x"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == \
        "usage error: argument %s: invalid integer value: 'x'\n" % option


# Integers that Python's int() reads and the command line refuses: a digit
# separator, the Arabic-Indic digits of 13, a decimal point and blanks, in
# each place where an integer is read; with IWASAWA_LAB_PRECISION's value
LEOPOLDT = ["leopoldt", "--field", "Q(sqrt{2})", "--p"]
STRICT_INTEGERS = [
    (LEOPOLDT + ["1_3"], None, "argument --p: invalid integer value: '1_3'"),
    (LEOPOLDT + ["\u0661\u0663"], None,
     "argument --p: invalid integer value: '\u0661\u0663'"),
    (LEOPOLDT + [" 13"], None, "argument --p: invalid integer value: ' 13'"),
    (LEOPOLDT + ["5", "--prec", "1_0"], None,
     "argument --prec: invalid integer value: '1_0'"),
    (["scan", "--dmax", "5.0"], None,
     "argument --dmax: invalid integer value: '5.0'"),
    (["classgroup", "--field", "Q(sqrt{1_3})"], None,
     "invalid integer value: '1_3'"),
    (["classgroup", "--field", "Q(sqrt{\u0661\u0663})"], None,
     "invalid integer value: '\u0661\u0663'"),
    (["classgroup", "--field", "Q(sqrt{2.0})"], None,
     "invalid integer value: '2.0'"),
    (["classgroup", "--field", "Q(sqrt{7 9})"], None,
     "invalid integer value: '7 9'"),
    (["mq", "--field", "Q", "--p", "3", "--q1", "1_3", "--q2", "5"], None,
     "cannot parse prime spec '1_3'"),
    (["scan", "--dmax", "5", "--primes", "3,1_3"], None,
     "--primes item '1_3' is not an integer"),
    (["scan", "--dmax", "5", "--primes", "3, 5"], None,
     "--primes item ' 5' is not an integer"),
    (["gw", "--h0v", "1", "--h0dual", "0", "--locals", "2:\u0661"], None,
     "--locals item '2:\u0661' is not two integers dim:h0"),
    (LEOPOLDT + ["5"], "1_0",
     "IWASAWA_LAB_PRECISION must be an integer of at least 1, got '1_0'"),
    (LEOPOLDT + ["5"], "\u0663",
     "IWASAWA_LAB_PRECISION must be an integer of at least 1, got '\u0663'"),
    (["mq", "--field", "Q", "--p", "3", "--q1", " 2", "--q2", "5"], None,
     "cannot parse prime spec ' 2'"),
    (["mq", "--field", "Q(sqrt{79})", "--p", "3", "--q1", "2", "--q2",
      "5a "], None, "cannot parse prime spec '5a '"),
]

_OPTIMIZED_CASES = """
import contextlib, io, json, os, sys
from iwasawalab.cli import main
runs = []
for argv, prec in json.load(sys.stdin):
    os.environ.pop("IWASAWA_LAB_PRECISION", None)
    if prec is not None:
        os.environ["IWASAWA_LAB_PRECISION"] = prec
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
json.dump([sys.flags.optimize, runs], sys.stdout)
"""


@pytest.mark.parametrize("argv,prec,message", STRICT_INTEGERS)
def test_an_integer_is_ascii_digits_with_a_sign(argv, prec, message,
                                                monkeypatch, capsys):
    monkeypatch.delenv("IWASAWA_LAB_PRECISION", raising=False)
    if prec is not None:
        monkeypatch.setenv("IWASAWA_LAB_PRECISION", prec)
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: %s\n" % message


def test_an_integer_is_ascii_digits_with_a_sign_under_python_O():
    """The same refusals in one `python -O` process; a sign is read."""
    cases = STRICT_INTEGERS + [(LEOPOLDT + ["+13", "--prec", "+2"], None,
                                None)]
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CASES],
                          input=json.dumps([c[:2] for c in cases]), env=env,
                          capture_output=True, text=True, check=True)
    optimize, runs = json.loads(proc.stdout)
    assert optimize == 1
    for (argv, _, message), (code, out, err) in zip(cases[:-1], runs):
        assert (code, out, err) == (4, "", "usage error: %s\n" % message)
    assert runs[-1] == [0, "delta(Q(sqrt{2}), 13) = 0 [ok], regulator "
                        "valuation 2\n", ""]


def test_frobenius_takes_q_more_than_once():
    args = build_parser().parse_args(["frobenius", "--field", "Q", "--p",
                                      "3", "--q", "2", "--q", "5"])
    assert args.q == ["2", "5"]


@pytest.mark.parametrize("argv,message", [
    (["leopoldt", "--fie", "Q(sqrt{2})", "--p", "5", "--pr", "3"],
     "the following arguments are required: --field"),
    (["leopoldt", "--field", "Q(sqrt{2})", "--p", "5", "--pr", "3"],
     "unrecognized arguments: --pr 3"),
    (["scan", "--dmax", "3", "--p", "3"], "unrecognized arguments: --p 3"),
    (["--form", "json", "scan", "--dmax", "3"],
     "argument command: invalid choice: 'json' (choose from %s)"
     % ", ".join("'%s'" % c for c in SUBCOMMAND_OPTIONS)),
])
def test_an_option_prefix_is_a_usage_error(argv, message, capsys):
    """Options are spelled in full, on the top parser and on every
    subcommand: a prefix is neither expanded nor reported as ambiguous."""
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: %s\n" % message


def test_default_precision_is_8(monkeypatch, capsys):
    monkeypatch.delenv("IWASAWA_LAB_PRECISION", raising=False)
    code, doc = run_json(capsys, "leopoldt", "--field", "Q(sqrt{2})",
                         "--p", "5")
    assert code == 0 and doc["precision"] == 8


def test_default_primes_and_locals(capsys):
    code, doc = run_json(capsys, "scan", "--dmax", "2", "--prec", "3")
    assert code == 0 and doc["primes"] == [3, 5, 7]
    code, doc = run_json(capsys, "gw", "--h0v", "1", "--h0dual", "0")
    assert code == 0 and doc["locals"] == []


@pytest.mark.parametrize("command", ["mq", "alpha"])
@pytest.mark.parametrize("field,q", [("Q", "2"), ("Q(sqrt{7})", "3a")])
def test_equal_primes_are_a_usage_error(command, field, q, capsys):
    assert main([command, "--field", field, "--p", "5", "--q1", q,
                 "--q2", q, "--prec", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: the two primes must be distinct\n"


@pytest.mark.parametrize("argv,message", [
    (["gw", "--h0v", "1", "--h0dual", "0", "--locals", "1:2:3"],
     "--locals item '1:2:3' is not two integers dim:h0"),
    (["gw", "--h0v", "1", "--h0dual", "0", "--locals", "2:1,x:0"],
     "--locals item 'x:0' is not two integers dim:h0"),
    (["gw", "--h0v", "1", "--h0dual", "0", "--locals", "2:1,"],
     "--locals item '' is not two integers dim:h0"),
    (["gw", "--h0v", "1", "--h0dual", "0", "--locals", "2"],
     "--locals item '2' is not two integers dim:h0"),
    (["scan", "--dmax", "5", "--primes", "3,,5"],
     "--primes item '' is not an integer"),
    (["scan", "--dmax", "5", "--primes", "3:5"],
     "--primes item '3:5' is not an integer"),
    (["scan", "--dmax", "5", "--primes", "3,five"],
     "--primes item 'five' is not an integer"),
])
def test_a_malformed_list_item_is_named(argv, message, capsys):
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: %s\n" % message


@pytest.mark.parametrize("field,q1,q2,alpha", [
    ("Q(sqrt{10})", "7", "41", ("accepted", 1, 1)),
    ("Q(sqrt{79})", "2", "5", ("accepted", 9, 9))])
@pytest.mark.parametrize("N", ["2", "3"])
def test_conjugate_split_primes_give_the_same_answers(field, q1, q2, alpha,
                                                       N, capsys):
    """Swapping a split prime for its conjugate changes the prime that mq
    prints and nothing else, and leaves alpha's status, m_Q and predicted
    intersection degree as they are."""
    mq, certs = [], []
    for place in "ab":
        argv = ("--field", field, "--p", "3", "--q1", q1, "--q2", q2 + place,
                "--prec", N)
        code, doc = run_json(capsys, "mq", *argv)
        assert code == 0
        mq.append(doc)
        code, doc = run_json(capsys, "alpha", *argv)
        assert code == 0
        certs.append((doc["status"], doc["m_Q"],
                      doc["predicted_intersection_degree"]))
    assert mq[0]["q2"] != mq[1]["q2"]
    assert dict(mq[0], q2=None) == dict(mq[1], q2=None)
    assert certs == [alpha, alpha]


# Values of each option of cli._OPTIONS: good ones, then bad ones (out of
# range, malformed, or refused by the engine).  Fields and --dmax are small
# and --prec is at most 4, so that every run is quick.
FUZZ_VALUES = {
    "--field": (["Q", "Q(sqrt{2})", "Q(sqrt{5})", "Q(sqrt{7})",
                 "Q(sqrt{10})", "Q(sqrt{79})"],
                ["Q(sqrt{4})", "Q(sqrt{-3})", "Q(sqrt{1})", "sqrt", ""]),
    "--ell": (["2", "3", "5", "7", "41"], ["0", "-5", "1", "4", "x"]),
    "--modulus": (["1", "7", "9", "27", "63", "10"],
                  ["0", "-3", "4", "8", "x"]),
    "--p": (["3", "5"], ["2", "9", "0", "-3", "x"]),
    "--q": (["2", "5", "7", "7a", "11b"], ["3", "4", "x", "", "7c", "1"]),
    "--q+": (["2", "5", "7", "7a", "11b"], ["3", "4", "x", "", "7c", "1"]),
    "--q1": (["2", "5", "7a", "41"], ["3", "4", "x", "5b", "9a"]),
    "--q2": (["5", "7", "11", "41b"], ["3", "6", "y", "2b", "-7"]),
    "--prec": (["1", "2", "3", "4"], ["0", "-1", "x", "2.5"]),
    "--h0v": (["0", "1", "3"], ["-1", "x"]),
    "--h0dual": (["0", "2"], ["-2", "y"]),
    "--locals": (["1:0", "1:0,2:1", "0:0"], ["1:2:3", "x", "1:-1", ","]),
    "--dmax": (["1", "2", "10", "50"], ["0", "-4", "x"]),
    "--primes": (["3", "3,5", "5,7"], ["2", "3,,5", "9", "x", "-3"]),
}


COMMAND_NAMES = [name for name, _, _ in cli._COMMANDS]


def _fuzz_argv(rng):
    """A random command line of one subcommand: each option with a good
    value, mostly, or a bad one; now and then an option left out, given
    twice or not declared."""
    name, _, options = rng.choice(cli._COMMANDS)
    argv = []
    for option in options:
        if rng.random() < 0.05:
            continue
        good, bad = FUZZ_VALUES[option]
        for _ in range(2 if rng.random() < 0.05 else 1):
            argv += [option.rstrip("+"),
                     rng.choice(bad if rng.random() < 0.1 else good)]
    if rng.random() < 0.05:
        argv += [rng.choice(sorted(cli._OPTIONS)).rstrip("+"), "3"]
    fmt = ["--format", rng.choice(["json", "text"])]
    return fmt + [name] + argv if rng.random() < 0.9 else [name] + argv + fmt


def _assert_exit_contract(argv, code, out, err):
    """A documented exit code, no traceback, and one JSON document from a
    JSON run that is not a usage error."""
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err, argv
    if "json" in argv and code != 4:
        json.loads(out)


def test_random_command_lines_keep_the_exit_contract(monkeypatch, capsys):
    """Every run exits with a documented code and prints no traceback; a
    JSON run that is not a usage error prints one JSON document."""
    monkeypatch.setenv("IWASAWA_LAB_PRECISION", "3")
    rng = random.Random(31)
    answered = set()
    for _ in range(400):
        argv = _fuzz_argv(rng)
        code = main(argv)
        out, err = capsys.readouterr()
        _assert_exit_contract(argv, code, out, err)
        if code != 4:
            answered.add(next(a for a in argv if a in COMMAND_NAMES))
    # the generator reaches the engine with every subcommand
    assert answered == set(COMMAND_NAMES)


_OPTIMIZED_FUZZ = """
import contextlib, io, json, sys
from iwasawalab.cli import main
runs = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
json.dump([sys.flags.optimize, runs], sys.stdout)
"""


def test_random_command_lines_keep_the_exit_contract_under_python_O():
    """The first 100 command lines of the same draw, in one `python -O`
    process, where no bare assert can stand in for a raise."""
    rng = random.Random(31)
    argvs = [_fuzz_argv(rng) for _ in range(100)]
    env = dict(os.environ, IWASAWA_LAB_PRECISION="3",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_FUZZ],
                          input=json.dumps(argvs), env=env,
                          capture_output=True, text=True, check=True)
    assert "Traceback" not in proc.stderr
    optimize, runs = json.loads(proc.stdout)
    assert optimize == 1 and len(runs) == len(argvs)
    for argv, (code, out, err) in zip(argvs, runs):
        _assert_exit_contract(argv, code, out, err)
