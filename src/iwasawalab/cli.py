"""Command-line front end.

Exit codes: 0 success/pass, 2 mathematical rejection or failed check,
3 indeterminate (insufficient precision), 4 usage error, 5 failed internal
check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from types import MappingProxyType

from .classfield import even_criterion, frobenius_image, group_G
from .iwasawa import (defect_never_one_scan, greenberg_wiles, leopoldt_defect,
                      mq_order)
from .kummer import construct_alpha
from .ntheory import InternalCheckError, isprime
from .padic import PAdicNumber, PrecisionError, teichmueller
from .quadfield import (RealQuadraticField, class_group,
                        factor_rational_prime, fundamental_unit,
                        rational_ideal)
from .rayclass import ray_class_group

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 4
EXIT_INTERNAL = 5

SCHEMA = 1


class UsageError(ValueError):
    """A refusal of the command line; it exits 4, as a ValueError does."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _default_prec():
    value = os.environ.get("IWASAWA_LAB_PRECISION", "8")
    try:
        prec = int(value)
    except ValueError:
        prec = 0
    if prec < 1:
        raise UsageError("IWASAWA_LAB_PRECISION must be an integer of at "
                         "least 1, got %r" % value)
    return prec


def _parse_prime_ideal(K: RealQuadraticField, spec: str):
    """'7' for the prime(s) over 7; '7a'/'7b' select a split place."""
    spec = spec.strip()
    which = None
    if spec and spec[-1] in "ab":
        which = 0 if spec[-1] == "a" else 1
        spec = spec[:-1]
    try:
        ell = int(spec)
    except ValueError:
        raise UsageError("cannot parse prime spec %r" % spec)
    rep = factor_rational_prime(K, ell)
    if which is not None and rep.kind != "split":
        raise UsageError("%d is not split; drop the a/b suffix" % ell)
    return rep.ideals[which or 0]


def _int_items(option: str, text: str, width: int, form: str):
    """The comma-separated items of a list option, each a tuple of `width`
    ints joined by ':'; a malformed item is named in the usage error."""
    items = []
    for item in text.split(","):
        try:
            ints = tuple(int(s) for s in item.split(":"))
        except ValueError:
            ints = ()
        if len(ints) != width:
            raise UsageError("%s item %r is not %s" % (option, item, form))
        items.append(ints)
    return items


def _padic_json(x: PAdicNumber):
    if x.is_marker:
        return {"marker": True, "valuation_at_least": min(x.v, 10**9)}
    return {"marker": False, "valuation": x.v,
            "residue": x.residue(x.abs_prec), "abs_precision": x.abs_prec}


def _emit(doc, fmt, text_lines):
    if fmt == "json":
        doc = dict(doc)
        doc["schema"] = SCHEMA
        sys.stdout.write(json.dumps(doc, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


# The exit code of a status, by its word before any ':'; others exit 3.
_STATUS_EXIT = MappingProxyType({
    "accepted": EXIT_OK, "pass": EXIT_OK, "ok": EXIT_OK,
    "rejected": EXIT_REJECTED, "fail": EXIT_REJECTED})


def _status_exit(status: str) -> int:
    return _STATUS_EXIT.get(status.partition(":")[0], EXIT_INDETERMINATE)


# ------------------------------------------------------------- subcommands
# Each takes the parsed options and the field of --field (None without it)
# and returns (JSON document, text lines, exit code).

def _cmd_factor(args, K):
    rep = factor_rational_prime(K, args.ell)
    doc = {"field": K.spec_string(), "ell": args.ell, "kind": rep.kind,
           "ideals": [str(q) for q in rep.ideals],
           "residue_degree": rep.residue_degree}
    return doc, ["%d in %s: %s, ideals %s, f = %d"
                 % (args.ell, K.spec_string(), rep.kind,
                    ", ".join(doc["ideals"]), rep.residue_degree)], EXIT_OK


def _cmd_classgroup(args, K):
    clg = class_group(K)
    doc = {"field": K.spec_string(), "h": clg.h,
           "invariant_factors": list(clg.invariant_factors)}
    return doc, ["h(%s) = %d, invariants %s"
                 % (K.spec_string(), clg.h, doc["invariant_factors"])], \
        EXIT_OK


def _cmd_unit(args, K):
    eps = fundamental_unit(K)
    doc = {"field": K.spec_string(), "unit": str(eps),
           "norm": int(eps.norm())}
    return doc, ["eps(%s) = %s, norm %d"
                 % (K.spec_string(), doc["unit"], doc["norm"])], EXIT_OK


def _cmd_rayclass(args, K):
    if args.modulus < 1:
        raise UsageError("modulus must be positive")
    rc = ray_class_group(K, args.modulus, args.p)
    ident = rc.order_identity()
    doc = {"field": K.spec_string(), "modulus": args.modulus, "p": args.p,
           "p_invariant_factors": list(rc.p_group.invariant_factors),
           "p_order": rc.p_order,
           "order_identity": {"full": list(ident["full"]),
                              "p": list(ident["p"])}}
    return doc, ["Cl_%d(%s) p-part: %s (order %d)"
                 % (args.modulus, K.spec_string(),
                    doc["p_invariant_factors"], rc.p_order)], EXIT_OK


def _cmd_frobenius(args, K):
    G = group_G(K, args.p, args.prec)
    frobs = []
    lines = ["G(%s, p=%d, N=%d): invariants %s%s"
             % (K.spec_string(), args.p, args.prec,
                list(G.group.invariant_factors),
                "" if G.stable else " [unstable]")]
    for spec in args.q:
        q = _parse_prime_ideal(K, spec)
        cls, deg = frobenius_image(G, q)
        frobs.append({"q": str(q), "class": list(cls.coords),
                      "degree": _padic_json(deg),
                      "degree_precision": deg.abs_prec})
        lines.append("Frob %s: class %s, degree %r"
                     % (q, list(cls.coords), deg))
    doc = G.report()
    doc["frobenius"] = frobs
    return doc, lines, EXIT_OK if G.stable else EXIT_INDETERMINATE


def _cmd_mq(args, K):
    Q = tuple(_parse_prime_ideal(K, s) for s in (args.q1, args.q2))
    rep = mq_order(K, args.p, Q, args.prec)
    mark = "" if rep.stable else " [provisional]"
    lines = ["a1 = %r (a2 = 1)" % rep.a1, "m_Q = %d%s" % (rep.m_q, mark)]
    return rep.to_json(), lines, EXIT_OK if rep.stable else EXIT_INDETERMINATE


def _cmd_alpha(args, K):
    Q = tuple(_parse_prime_ideal(K, s) for s in (args.q1, args.q2))
    cert = construct_alpha(K, args.p, Q, args.prec)
    lines = ["status: %s" % cert.status,
             "m_Q = %d, a-exponent = %s" % (cert.m_q, cert.a_exponent),
             "loc_p torsion: %s" % cert.loc_p_torsion]
    return cert.to_json(), lines, _status_exit(cert.status)


def _cmd_leopoldt(args, K):
    rep = leopoldt_defect(K, args.p, args.prec)
    return rep.to_json(), ["delta(%s, %d) = %d [%s], regulator valuation %s"
                           % (K.spec_string(), args.p, rep.defect,
                              rep.status, rep.regulator_valuation)], \
        _status_exit(rep.status)


def _cmd_even_check(args, K):
    rep = even_criterion(K, args.p, _parse_prime_ideal(K, args.q), args.prec)
    return rep, ["even criterion at q=%s: %s (inertia %s, e(q)=%d)"
                 % (rep["q"], rep["status"], rep["inertia_orders"],
                    rep["e_q"])], _status_exit(rep["status"])


def _cmd_gw(args, K):
    locals_ = _int_items("--locals", args.locals, 2,
                         "two integers dim:h0") if args.locals else []
    val = greenberg_wiles(args.h0v, args.h0dual, locals_)
    doc = {"h0_V": args.h0v, "h0_Vdual": args.h0dual,
           "locals": [list(t) for t in locals_], "rhs": val}
    return doc, ["rhs = %d" % val], EXIT_OK


def _cmd_scan(args, K):
    primes = sorted({p for (p,) in _int_items("--primes", args.primes, 1,
                                              "an integer")})
    for p in primes:
        if p % 2 == 0 or not isprime(p):
            raise UsageError("primes must be odd primes, got %d" % p)
    report = defect_never_one_scan(args.dmax, primes, args.prec)
    lines = ["d=%-4s p=%s delta=%s status=%s"
             % (row["d"], row["p"], row["delta"], row["status"])
             for row in report["rows"]]
    lines.append("violations: %s, indeterminates: %s"
                 % (report["violations"], report["indeterminates"]))
    code = EXIT_REJECTED if report["violations"] else \
        EXIT_INDETERMINATE if report["indeterminates"] else EXIT_OK
    return report, lines, code


def _cmd_selftest(args, K):
    checks = []

    def check(name, fn):
        try:
            checks.append((name, bool(fn()), None))
        except Exception as e:  # noqa: BLE001 - report, do not crash
            checks.append((name, False, repr(e)))

    QQ = RealQuadraticField.rationals()
    check("padic: teichmueller(2) at (5,3) = 57",
          lambda: teichmueller(PAdicNumber.of(2, 5, 3)).residue(3) == 57)
    check("classgroup: h(79) = 3",
          lambda: class_group(RealQuadraticField(79)).h == 3)
    check("unit: eps(2) has norm -1",
          lambda: fundamental_unit(RealQuadraticField(2)).norm() == -1)
    check("rayclass: Q mod 63 at 3 has order 9",
          lambda: ray_class_group(QQ, 63, 3).p_order == 9)
    check("frobenius: deg(Frob_2) = 5 mod 9 at (Q,3)",
          lambda: group_G(QQ, 3, 2).degree(rational_ideal(QQ, 2))
          .residue(2) == 5)
    check("mq: m_Q(2,5) = 1 over Q at p=3",
          lambda: mq_order(QQ, 3, (2, 5), 3).m_q == 1)
    K79 = RealQuadraticField(79)
    check("mq: m_Q = 9 for Q(sqrt 79), p=3, Q={2,5}",
          lambda: mq_order(K79, 3, (_parse_prime_ideal(K79, "2"),
                                    _parse_prime_ideal(K79, "5")), 2).m_q == 9)
    check("alpha: round trip accepted over Q",
          lambda: construct_alpha(QQ, 3, (2, 5), 3).status == "accepted")
    check("leopoldt: delta(Q(sqrt 2), 5) = 0",
          lambda: leopoldt_defect(RealQuadraticField(2), 5, 8).defect == 0)
    check("even: inertia ratio 3 at (Q, 3, q=7)",
          lambda: even_criterion(QQ, 3, rational_ideal(QQ, 7), 2)["status"]
          == "pass")
    check("gw: Q_p(1) fixture gives -1",
          lambda: greenberg_wiles(0, 1, [(0, 0), (0, 0)]) == -1)

    ok_all = all(ok for _, ok, _ in checks)
    doc = {"checks": [{"name": n, "pass": ok, "error": err}
                      for (n, ok, err) in checks],
           "pass": ok_all}
    lines = ["%s %s" % ("PASS" if ok else "FAIL", n) for (n, ok, _) in checks]
    lines.append("selftest: %s" % ("PASS" if ok_all else "FAIL"))
    return doc, lines, EXIT_OK if ok_all else EXIT_REJECTED


# The argparse keywords of each option; "--q+" is --q, given one or more times
_REQUIRED = (("required", True),)
_INT = (("type", int),) + _REQUIRED
_OPTIONS = MappingProxyType({
    "--field": _REQUIRED, "--ell": _INT, "--modulus": _INT, "--p": _INT,
    "--q": _REQUIRED, "--q+": (("action", "append"),) + _REQUIRED,
    "--q1": _REQUIRED, "--q2": _REQUIRED,
    "--prec": (("type", int), ("default", None)),
    "--h0v": _INT, "--h0dual": _INT, "--locals": (("default", ""),),
    "--dmax": _INT, "--primes": (("default", "3,5,7"),),
})

# One row per subcommand: (name, command, options in the order of --help).
_COMMANDS = (
    ("factor", _cmd_factor, ("--field", "--ell")),
    ("classgroup", _cmd_classgroup, ("--field",)),
    ("unit", _cmd_unit, ("--field",)),
    ("rayclass", _cmd_rayclass, ("--field", "--modulus", "--p")),
    ("frobenius", _cmd_frobenius, ("--field", "--p", "--q+", "--prec")),
    ("mq", _cmd_mq, ("--field", "--p", "--q1", "--q2", "--prec")),
    ("alpha", _cmd_alpha, ("--field", "--p", "--q1", "--q2", "--prec")),
    ("leopoldt", _cmd_leopoldt, ("--field", "--p", "--prec")),
    ("even-check", _cmd_even_check, ("--field", "--p", "--q", "--prec")),
    ("gw", _cmd_gw, ("--h0v", "--h0dual", "--locals")),
    ("scan", _cmd_scan, ("--dmax", "--primes", "--prec")),
    ("selftest", _cmd_selftest, ()),
)


def build_parser() -> _Parser:
    p = _Parser(prog="iwasawalab", description=__doc__)
    p.add_argument("--format", choices=("json", "text"), default="text")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, options in _COMMANDS:
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        for option in options:
            sp.add_argument(option.rstrip("+"), **dict(_OPTIONS[option]))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "prec") and args.prec is None:
            args.prec = _default_prec()
        if hasattr(args, "p") and (args.p % 2 == 0 or not isprime(args.p)):
            raise UsageError("p must be an odd prime, got %d" % args.p)
        if hasattr(args, "prec") and args.prec < 1:
            raise UsageError("precision must be at least 1")
        K = RealQuadraticField.parse(args.field) \
            if hasattr(args, "field") else None
        doc, lines, code = args.func(args, K)
        _emit(doc, args.format, lines)
        return code
    except PrecisionError as e:
        sys.stderr.write("indeterminate: %s\n" % e)
        return EXIT_INDETERMINATE
    except ValueError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return EXIT_USAGE
    except InternalCheckError as e:
        sys.stderr.write("internal check failed: %s\n" % e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
