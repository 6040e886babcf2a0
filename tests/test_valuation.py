"""The integer valuation kernel `quadfield.parts_valuation` and the integer
localization path, against references written out here.

- The reference valuation is the ideal-power loop: v_q(y) of an integral y
  is the least v with y not in q^(v+1), found by multiplying q, q^2, ...
  and testing membership in each HNF (a; b; c).
- The reference `_ref_fraction_parts` reads the numerators as
  int(x * den), against the integers (a, b, den) a FieldElement holds.
- The reference unit log embeds by p-adic division by den.

Every case is drawn from a fixed seed up front and none is filtered out.
"""

import functools
import random
from fractions import Fraction
from math import gcd

import pytest

from iwasawalab import kummer, localize
from iwasawalab.localize import (_coordinates, _element_unit_log,
                                 completions_above_p)
from iwasawalab.ntheory import InternalCheckError, isprime
from iwasawalab.padic import vp
from iwasawalab.quadfield import (FieldElement, RealQuadraticField,
                                  class_group, factor_rational_prime,
                                  fundamental_unit,
                                  ideal_valuation, parts_valuation,
                                  prime_kind, principal_generator,
                                  rational_ideal, split_root)

from oracles import PAdicObject, UnramifiedQuadElem, angle_log, shift

FIELDS = (None, 2, 3, 5, 6, 7, 10, 13, 15, 17, 21, 33, 41, 65, 79, 97, 105,
          221, 401)
PRIMES = [ell for ell in range(2, 200) if isprime(ell)]
SEEDED_PER_PRIME = 3


# ------------------------------------------------------------- references

def _ref_fraction_parts(x):
    den = x.x.denominator
    den = den * (x.y.denominator // gcd(den, x.y.denominator))
    return int(x.x * den), int(x.y * den), den


def _ref_contains(I, u, v):
    """u + v*w in the ideal I = a*Z + (b + c*w)*Z."""
    if I.field.is_rational:
        return v == 0 and u % I.a == 0
    if v % I.c:
        return False
    return (u - (v // I.c) * I.b) % I.a == 0


def _ref_valuation(x, q, ell, e_q):
    u, v, den = _ref_fraction_parts(x)
    n, qn = 0, q
    while _ref_contains(qn, u, v):
        n += 1
        qn = qn * q
    vden = vp(den, ell) if den % ell == 0 else 0
    return n - e_q * vden


def _ref_kind(q):
    """The kind that factor_rational_prime reports for the prime below q,
    read apart from `prime_kind`, which the engine path takes."""
    return factor_rational_prime(q.field, q.a).kind


def _embed(x, q, abs_prec):
    """The coordinates of x mod p^abs_prec at the prime q above p, from the
    integer coordinates `localize._coordinates` reads for a p-unit
    denominator, shifted back by v_p(den)."""
    p, kind = prime_kind(q)
    vden = vp(x.den, p)
    work = abs_prec + vden + 1
    c0, c1 = _coordinates(x.a, x.b, x.den // p**vden, q, kind, work)
    cs = (c0, c1) if kind == "inert" else (c0,)
    return tuple(shift(PAdicObject.from_residue(c, p, work), -vden)
                 for c in cs)


def _ref_embed(x, q, abs_prec):
    K, p, kind = q.field, q.a, _ref_kind(q)
    nx, ny, den = _ref_fraction_parts(x)
    vden = vp(den, p) if den % p == 0 else 0
    work = abs_prec + vden + 1
    if kind in ("rational", "split"):
        num = nx if kind == "rational" else nx + ny * split_root(q, work)
        val = PAdicObject.from_residue(num % p**work, p, work)
        return val / PAdicObject.exact(den, p, work)
    inv2 = pow(2, -1, p**work)
    a = (nx + ny * K.D * inv2) % p**work
    b = ny * inv2 % p**work
    u = UnramifiedQuadElem.from_residues(a, b, K.D, p, work)
    deninv = PAdicObject.exact(den, p, work).inv()
    return UnramifiedQuadElem(u.a * deninv, u.b * deninv, K.D)


def _ref_unit_log(x, q, N):
    v = _ref_valuation(x, q, q.a, 1)    # p is unramified
    u = _ref_embed(x, q, N + max(v, 0) + 1)
    u = u.shift(-v) if isinstance(u, UnramifiedQuadElem) else shift(u, -v)
    if _ref_kind(q) == "inert":
        lg = u.angle_log()
        return v, (lg.a, lg.b)
    return v, (angle_log(u),)


def _coords(cs):
    """The rows (v, m, digits) of the coordinates of a tuple or quadratic
    element, as _element_unit_log gives them."""
    if isinstance(cs, UnramifiedQuadElem):
        cs = (cs.a, cs.b)
    elif isinstance(cs, PAdicObject):
        cs = (cs,)
    return [(c.v, c.m, c.digits) for c in cs]


def _seeded_element(rng, K, ell):
    """(a + b*w)/den with ell-power factors in a, b and den."""
    a = ell**rng.randint(0, 4) * rng.randint(-60, 60)
    b = 0 if K.is_rational else ell**rng.randint(0, 4) * rng.randint(-60, 60)
    if a == 0 and b == 0:
        a = ell**rng.randint(0, 4)
    den = ell**rng.randint(0, 3) * rng.randint(1, 40)
    return K.element(Fraction(a, den), Fraction(b, den))


def _generators(K, q, ell, kind):
    """Principal generators of q^h and, at a split ell, of q^(2h)*qbar^h,
    h the class number: elements with v_q != v_qbar."""
    if K.is_rational:
        return [K.element(ell)]
    h = class_group(K).h
    gens = [principal_generator(q**h)]
    if kind == "split":
        gens.append(principal_generator(q**(2 * h) * q.conj()**h))
    return gens


@functools.lru_cache(maxsize=None)
def _valuation_cases():
    rng = random.Random(20260601)
    cases = []
    for d in FIELDS:
        K = RealQuadraticField(d)
        eps = None if K.is_rational else fundamental_unit(K)
        for ell in PRIMES:
            rep = factor_rational_prime(K, ell)
            for q in rep.ideals:
                xs = [_seeded_element(rng, K, ell)
                      for _ in range(SEEDED_PER_PRIME)]
                xs += _generators(K, q, ell, rep.kind)
                if eps is not None:
                    xs.append(eps)
                cases.append((q, ell, rep.ramification, xs))
    return cases


# ----------------------------------------------------------------- kernel

def test_kernel_equals_ideal_power_loop():
    n = 0
    for q, ell, e_q, xs in _valuation_cases():
        for x in xs:
            want = _ref_valuation(x, q, ell, e_q)
            assert parts_valuation(x.a, x.b, x.den, q) == want, (q, x)
            assert ideal_valuation(x, q) == want
            n += 1
    assert n > 5000


def test_kernel_split_generators():
    # the generator of q^h has v_q = h = v_ell(N): the split root needs
    # k + 1 digits there; that of q^(2h)*qbar^h tells q from qbar
    seen = 0
    for q, ell, e_q, xs in _valuation_cases():
        K = q.field
        if K.is_rational or factor_rational_prime(K, ell).kind != "split":
            continue
        h = class_group(K).h
        g1, g2 = xs[SEEDED_PER_PRIME:SEEDED_PER_PRIME + 2]
        assert (ideal_valuation(g1, q), ideal_valuation(g1, q.conj())) \
            == (h, 0)
        assert (ideal_valuation(g2, q), ideal_valuation(g2, q.conj())) \
            == (2 * h, h)
        seen += 1
    assert seen > 300


def test_fundamental_unit_has_valuation_zero_everywhere():
    for d in FIELDS[1:]:
        K = RealQuadraticField(d)
        eps = fundamental_unit(K)
        for ell in PRIMES[:12]:
            for q in factor_rational_prime(K, ell).ideals:
                assert ideal_valuation(eps, q) == 0


def test_kernel_rational_inputs_and_zero():
    K = RealQuadraticField(7)
    q3a, q3b = factor_rational_prime(K, 3).ideals
    assert ideal_valuation(Fraction(9, 2), q3a) == 2
    assert ideal_valuation(Fraction(2, 27), q3b) == -3
    q7 = factor_rational_prime(K, 7).ideals[0]         # ramified
    assert ideal_valuation(Fraction(1, 7), q7) == -2
    assert ideal_valuation(49, q7) == 4
    with pytest.raises(ValueError):
        ideal_valuation(0, q7)
    with pytest.raises(ValueError):
        parts_valuation(0, 0, 5, q3a)


def test_fraction_parts_equals_product_form():
    rng = random.Random(77)
    K = RealQuadraticField(13)
    for _ in range(2000):
        x = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**12))
        y = Fraction(rng.choice((0, rng.randint(-10**30, 10**30))),
                     rng.randint(1, 10**12))
        e = FieldElement(K, x, y)
        assert (e.a, e.b, e.den) == _ref_fraction_parts(e)


# --------------------------------------------------------------- localize

def _unit_log_cases():
    """The second group of fields, those of the kummer-alpha benchmark
    fixtures not in the first, is drawn after the first, so that the
    first keeps its seeded elements."""
    rng = random.Random(4242)
    cases = []
    for fields in ((None, 2, 3, 7, 13, 17, 33, 79), (5, 10, 11)):
        for p in (3, 5, 7):
            for d in fields:
                K = RealQuadraticField(d)
                if not K.is_rational and K.D % p == 0:
                    continue
                xs = [_seeded_element(rng, K, p) for _ in range(6)]
                if not K.is_rational:
                    xs.append(fundamental_unit(K))
                for q in completions_above_p(K, p):
                    cases.append((K, p, q, xs))
    return cases


def test_unit_log_cases_cover_split_and_inert():
    kinds = {prime_kind(q)[1] for _, _, q, _ in _unit_log_cases()}
    assert kinds == {"rational", "split", "inert"}


@pytest.mark.parametrize("N", [2, 6])
def test_element_unit_log_equals_division_path(N):
    for K, p, q, xs in _unit_log_cases():
        for x in xs:
            v, lg = _element_unit_log(x, q, N)
            rv, rlg = _ref_unit_log(x, q, N)
            assert v == rv
            assert list(lg) == _coords(rlg), (K, p, q, x)


@pytest.mark.parametrize("shift", [1, -1])
def test_element_unit_log_checks_the_unit(monkeypatch, shift):
    # a valuation off by one leaves p^s not dividing the coordinates (+1)
    # or a quotient divisible by p (-1): the integer path must raise
    real = localize.parts_valuation
    monkeypatch.setattr(localize, "parts_valuation",
                        lambda *args: real(*args) + shift)
    for K, p, q, xs in _unit_log_cases():
        for x in xs:
            with pytest.raises(InternalCheckError, match="not a unit"):
                _element_unit_log(x, q, 4)


def test_embed_equals_division_path():
    for K, p, q, xs in _unit_log_cases():
        for x in xs:
            for prec in (1, 5):
                assert _coords(_embed(x, q, prec)) == \
                    _coords(_ref_embed(x, q, prec))


# ----------------------------------------------------------------- kummer

def test_construct_alpha_runs_mq_order_once(monkeypatch):
    calls = []
    real = kummer.mq_order

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kummer, "mq_order", counted)
    K = RealQuadraticField(2)
    q1 = factor_rational_prime(K, 2).ideals[0]
    for field, p, Q, N in ((RealQuadraticField(None), 3, (2, 5), 3),
                           (K, 5, (q1, rational_ideal(K, 3)), 2)):
        del calls[:]
        cert = kummer.construct_alpha(field, p, Q, N)
        assert cert.status == "accepted"
        assert len(calls) == 1
        del calls[:]
        again = kummer.verify_alpha(cert.alpha, field, p, Q, N)
        assert again.to_json() == cert.to_json()
        assert len(calls) == 1
