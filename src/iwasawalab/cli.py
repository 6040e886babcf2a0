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


class UsageError(Exception):
    pass


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


def _parse_field(spec: str) -> RealQuadraticField:
    try:
        return RealQuadraticField.parse(spec)
    except ValueError as e:
        raise UsageError(str(e))


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
    if not isprime(ell):
        raise UsageError("%d is not prime" % ell)
    rep = factor_rational_prime(K, ell)
    if which is not None:
        if rep.kind != "split":
            raise UsageError("%d is not split; drop the a/b suffix" % ell)
        return rep.ideals[which]
    return rep.ideals[0]


def _padic_json(x: PAdicNumber):
    if x is None:
        return None
    if x.is_marker:
        return {"marker": True, "valuation_at_least": min(x.v, 10**9)}
    return {"marker": False, "valuation": x.v,
            "residue": x.residue(x.abs_prec), "abs_precision": x.abs_prec}


def _emit(doc, args, text_lines):
    if args.format == "json":
        doc = dict(doc)
        doc["schema"] = SCHEMA
        sys.stdout.write(json.dumps(doc, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


# ------------------------------------------------------------- subcommands

def _cmd_factor(args):
    K = _parse_field(args.field)
    rep = factor_rational_prime(K, args.ell)
    doc = {"field": K.spec_string(), "ell": args.ell, "kind": rep.kind,
           "ideals": [str(q) for q in rep.ideals],
           "residue_degree": rep.residue_degree}
    _emit(doc, args, ["%d in %s: %s, ideals %s, f = %d"
                      % (args.ell, K.spec_string(), rep.kind,
                         ", ".join(str(q) for q in rep.ideals),
                         rep.residue_degree)])
    return EXIT_OK


def _cmd_classgroup(args):
    K = _parse_field(args.field)
    clg = class_group(K)
    doc = {"field": K.spec_string(), "h": clg.h,
           "invariant_factors": list(clg.invariant_factors)}
    _emit(doc, args, ["h(%s) = %d, invariants %s"
                      % (K.spec_string(), clg.h,
                         list(clg.invariant_factors))])
    return EXIT_OK


def _cmd_unit(args):
    K = _parse_field(args.field)
    eps = fundamental_unit(K)
    doc = {"field": K.spec_string(), "unit": str(eps),
           "norm": int(eps.norm())}
    _emit(doc, args, ["eps(%s) = %s, norm %d"
                      % (K.spec_string(), eps, int(eps.norm()))])
    return EXIT_OK


def _cmd_rayclass(args):
    K = _parse_field(args.field)
    if args.modulus < 1:
        raise UsageError("modulus must be positive")
    rc = ray_class_group(K, args.modulus, args.p)
    ident = rc.order_identity()
    doc = {"field": K.spec_string(), "modulus": args.modulus, "p": args.p,
           "p_invariant_factors": list(rc.p_group.invariant_factors),
           "p_order": rc.p_order,
           "order_identity": {"full": list(ident["full"]),
                              "p": list(ident["p"])}}
    _emit(doc, args, ["Cl_%d(%s) p-part: %s (order %d)"
                      % (args.modulus, K.spec_string(),
                         list(rc.p_group.invariant_factors), rc.p_order)])
    return EXIT_OK


def _cmd_frobenius(args):
    K = _parse_field(args.field)
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
    _emit(doc, args, lines)
    return EXIT_OK if G.stable else EXIT_INDETERMINATE


def _cmd_mq(args):
    K = _parse_field(args.field)
    q1 = _parse_prime_ideal(K, args.q1)
    q2 = _parse_prime_ideal(K, args.q2)
    if q1 == q2:
        raise UsageError("q1 and q2 must be distinct primes")
    rep = mq_order(K, args.p, (q1, q2), args.prec)
    doc = rep.to_json()
    _emit(doc, args, ["a1 = %r (a2 = 1)" % rep.a1,
                      "m_Q = %d%s" % (rep.m_q,
                                      "" if rep.stable else " [provisional]")])
    return EXIT_OK if rep.stable else EXIT_INDETERMINATE


def _cmd_alpha(args):
    K = _parse_field(args.field)
    q1 = _parse_prime_ideal(K, args.q1)
    q2 = _parse_prime_ideal(K, args.q2)
    if q1 == q2:
        raise UsageError("q1 and q2 must be distinct primes")
    cert = construct_alpha(K, args.p, (q1, q2), args.prec)
    doc = cert.to_json()
    _emit(doc, args, ["status: %s" % cert.status,
                      "m_Q = %d, a-exponent = %s" % (cert.m_q,
                                                     cert.a_exponent),
                      "loc_p torsion: %s" % cert.loc_p_torsion])
    if cert.status == "accepted":
        return EXIT_OK
    if cert.status.startswith("rejected"):
        return EXIT_REJECTED
    return EXIT_INDETERMINATE


def _cmd_leopoldt(args):
    K = _parse_field(args.field)
    rep = leopoldt_defect(K, args.p, args.prec)
    doc = rep.to_json()
    _emit(doc, args, ["delta(%s, %d) = %d [%s], regulator valuation %s"
                      % (K.spec_string(), args.p, rep.defect, rep.status,
                         rep.regulator_valuation)])
    return EXIT_OK if rep.status == "ok" else EXIT_INDETERMINATE


def _cmd_even_check(args):
    K = _parse_field(args.field)
    q = _parse_prime_ideal(K, args.q)
    rep = even_criterion(K, args.p, q, args.prec)
    _emit(rep, args, ["even criterion at q=%s: %s (inertia %s, e(q)=%d)"
                      % (rep["q"], rep["status"], rep["inertia_orders"],
                         rep["e_q"])])
    if rep["status"] == "pass":
        return EXIT_OK
    if rep["status"] == "fail":
        return EXIT_REJECTED
    return EXIT_INDETERMINATE


def _cmd_gw(args):
    locals_ = []
    if args.locals:
        for part in args.locals.split(","):
            dim, h0 = part.split(":")
            locals_.append((int(dim), int(h0)))
    val = greenberg_wiles(args.h0v, args.h0dual, locals_)
    doc = {"h0_V": args.h0v, "h0_Vdual": args.h0dual,
           "locals": [list(t) for t in locals_], "rhs": val}
    _emit(doc, args, ["rhs = %d" % val])
    return EXIT_OK


def _cmd_scan(args):
    primes = sorted({int(s) for s in args.primes.split(",")})
    for p in primes:
        if p % 2 == 0 or not isprime(p):
            raise UsageError("primes must be odd primes, got %d" % p)
    report = defect_never_one_scan(args.dmax, primes, args.prec)
    lines = []
    for row in report["rows"]:
        lines.append("d=%-4s p=%s delta=%s status=%s"
                     % (row["d"], row["p"], row["delta"], row["status"]))
    lines.append("violations: %s, indeterminates: %s"
                 % (report["violations"], report["indeterminates"]))
    _emit(report, args, lines)
    if report["violations"]:
        return EXIT_REJECTED
    if report["indeterminates"]:
        return EXIT_INDETERMINATE
    return EXIT_OK


def _cmd_selftest(args):
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as e:  # noqa: BLE001 - report, do not crash
            checks.append((name, False, repr(e)))
            return
        checks.append((name, ok, None))

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
    check("mq: m_Q = 9 for Q(sqrt 79), p=3, Q={2,5}",
          lambda: mq_order(
              RealQuadraticField(79), 3,
              (factor_rational_prime(RealQuadraticField(79), 2).ideals[0],
               factor_rational_prime(RealQuadraticField(79), 5).ideals[0]),
              2).m_q == 9)
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
    _emit(doc, args, lines)
    return EXIT_OK if ok_all else EXIT_REJECTED


def build_parser() -> _Parser:
    p = _Parser(prog="iwasawalab", description=__doc__)
    p.add_argument("--format", choices=("json", "text"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn):
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        return sp

    sp = add("factor", _cmd_factor)
    sp.add_argument("--field", required=True)
    sp.add_argument("--ell", type=int, required=True)

    sp = add("classgroup", _cmd_classgroup)
    sp.add_argument("--field", required=True)

    sp = add("unit", _cmd_unit)
    sp.add_argument("--field", required=True)

    sp = add("rayclass", _cmd_rayclass)
    sp.add_argument("--field", required=True)
    sp.add_argument("--modulus", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = add("frobenius", _cmd_frobenius)
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", action="append", required=True)
    sp.add_argument("--prec", type=int, default=None)

    sp = add("mq", _cmd_mq)
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q1", required=True)
    sp.add_argument("--q2", required=True)
    sp.add_argument("--prec", type=int, default=None)

    sp = add("alpha", _cmd_alpha)
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q1", required=True)
    sp.add_argument("--q2", required=True)
    sp.add_argument("--prec", type=int, default=None)

    sp = add("leopoldt", _cmd_leopoldt)
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--prec", type=int, default=None)

    sp = add("even-check", _cmd_even_check)
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--prec", type=int, default=None)

    sp = add("gw", _cmd_gw)
    sp.add_argument("--h0v", type=int, required=True)
    sp.add_argument("--h0dual", type=int, required=True)
    sp.add_argument("--locals", default="")

    sp = add("scan", _cmd_scan)
    sp.add_argument("--dmax", type=int, required=True)
    sp.add_argument("--primes", default="3,5,7")
    sp.add_argument("--prec", type=int, default=None)

    add("selftest", _cmd_selftest)
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
        return args.func(args)
    except UsageError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return EXIT_USAGE
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
