import json
import re
import sys

import pytest

from iwasawalab import classfield
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
        "usage error: argument %s: invalid int value: 'x'\n" % option


def test_frobenius_takes_q_more_than_once():
    args = build_parser().parse_args(["frobenius", "--field", "Q", "--p",
                                      "3", "--q", "2", "--q", "5"])
    assert args.q == ["2", "5"]


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
