import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, log, log1p, pi, sin, sqrt
from pathlib import Path

import pytest

from iwasawalab import quadfield
from iwasawalab.ntheory import is_squarefree, isprime
from iwasawalab.abgroup import decompose_abelian
from iwasawalab.quadfield import (_cycle_of, _ideal_to_pair, _is_reduced_pair,
                                  _o_walk, _pair_to_ideal, _reduced_pairs,
                                  _reduction_bound, _rho_step)
from iwasawalab.quadfield import (RealQuadraticField, IntegralIdeal,
                                  SUnitBasisData, ClassGroupData,
                                  factor_rational_prime, class_group,
                                  fundamental_unit,
                                  principal_generator, ideal_from_element,
                                  ideal_valuation, prime_ideals_above,
                                  prime_kind, rational_ideal, residue_char,
                                  unit_ideal, unit_decompose)

from iwasawalab.classfield import group_G
from iwasawalab.iwasawa import leopoldt_defect
from iwasawalab.kummer import construct_alpha, kummer_rank
from iwasawalab.localize import completions_above_p
from iwasawalab.rayclass import ray_class_group

from oracles import (class_number_formula, compare_real,
                     fundamental_unit_oracle, group_identity, kronecker,
                     pell_sign, real_sign, s_unit_basis,
                     solve_integral_fractions, sqrt_pair, squarefree,
                     wide_class_number_oracle)


Q2 = RealQuadraticField(2)
Q5F = RealQuadraticField(5)
QQ = RealQuadraticField.rationals()


def test_parse_and_spec_string():
    assert RealQuadraticField.parse("Q") == QQ
    assert RealQuadraticField.parse("Q(sqrt{2})") == Q2
    assert RealQuadraticField.parse("Q(sqrt(10))").d == 10
    assert Q2.spec_string() == "Q(sqrt{2})"
    with pytest.raises(ValueError):
        RealQuadraticField.parse("Z")
    with pytest.raises(ValueError):
        RealQuadraticField(12)  # not squarefree


def test_fields_are_values():
    """Two Q(sqrt 79) built apart are one field: equal, hashed alike, with
    elements and ideals that mix.  Elements of Q(sqrt 2) still refuse."""
    K, L = RealQuadraticField(79), RealQuadraticField.parse("Q(sqrt{79})")
    assert K is not L
    assert K == L and hash(K) == hash(L) and {K: 0}[L] == 0
    assert K != Q2 and QQ == RealQuadraticField(None)
    x, y = K.element(3, 1), L.element(Fraction(1, 2), -2)
    assert x + y == y + x == K.element(Fraction(7, 2), -1)
    assert (x * y) / y == x and hash(x) == hash(L.element(3, 1))
    q, r = factor_rational_prime(K, 3).ideals[0], \
        factor_rational_prime(L, 3).ideals[0]
    assert q == r and hash(q) == hash(r)
    assert q * r.conj() == rational_ideal(L, 3)
    assert ideal_from_element(x) * r == ideal_from_element(L.element(3, 1)) * q
    assert ideal_valuation(L.element(3), q) == 1
    assert class_group(L).key_of(q) == class_group(K).key_of(r)
    z = Q2.element(1, 1)
    for op in (lambda: x + z, lambda: x * z, lambda: z - y, lambda: y / z):
        with pytest.raises(ValueError, match="^elements of different "
                           "fields$"):
            op()


def test_element_arithmetic_norm_trace():
    # 1 + sqrt(2): coords over {1, w} with w = (8+sqrt(8))/2 = 4+sqrt(2)
    e = sqrt_pair(Q2, 1, Fraction(1, 2))  # 1 + (1/2) sqrt(8) = 1 + sqrt2
    assert e.norm() == -1
    assert e + e.conj() == Q2.element(2)
    assert (e * e.conj()).x == -1
    eps5 = sqrt_pair(Q5F, Fraction(1, 2), Fraction(1, 2))
    assert eps5.norm() == -1
    assert eps5.is_integral()  # (1+sqrt5)/2 is integral


def test_real_sign_and_compare():
    e = sqrt_pair(Q2, 1, Fraction(1, 2))  # 1+sqrt2 > 1
    assert compare_real(e, 1) > 0
    assert real_sign(-e) < 0
    small = sqrt_pair(Q2, -1, Fraction(1, 2))  # sqrt2 - 1 in (0,1)
    assert real_sign(small) > 0
    assert compare_real(small, 1) < 0


# ------------------------------------------------------------- splitting

def test_split_7_in_q_sqrt2():
    rep = factor_rational_prime(Q2, 7)
    assert rep.kind == "split"
    assert len(rep.ideals) == 2
    q1, q2 = rep.ideals
    assert q1.norm == 7 and q2.norm == 7
    assert q1 * q2 == rational_ideal(Q2, 7)


def test_inert_5_in_q_sqrt2():
    rep = factor_rational_prime(Q2, 5)
    assert rep.kind == "inert"
    assert rep.residue_degree == 2
    assert rep.ideals[0].norm == 25


def test_ramified_2_in_q_sqrt2():
    rep = factor_rational_prime(Q2, 2)
    assert rep.kind == "ramified"
    q = rep.ideals[0]
    assert q.norm == 2
    assert q * q == rational_ideal(Q2, 2)


def test_rational_prime_over_q():
    rep = factor_rational_prime(QQ, 7)
    assert rep.kind == "rational"
    assert rep.ideals[0].norm == 7


def test_prime_kind_matches_residue_char_and_splitting():
    # every prime ideal above ell < 300, over Q and every squarefree d < 100
    fields = [QQ] + [RealQuadraticField(d) for d in range(2, 100)
                     if is_squarefree(d)]
    seen_at_2 = set()
    for K in fields:
        for ell in range(2, 300):
            if not isprime(ell):
                continue
            rep = factor_rational_prime(K, ell)
            for q in rep.ideals:
                assert prime_kind(q) == (residue_char(q), rep.kind), (K, q)
            if ell == 2:
                seen_at_2.add((K.D % 2, rep.kind))
    # ell = 2 in every kind: D odd (2 split or inert), D even (ramified)
    assert seen_at_2 == {(1, "rational"), (1, "split"), (1, "inert"),
                         (0, "ramified")}


def test_residue_char_refuses_ideals_that_are_not_prime():
    # prime norm means prime; norm ell^2 means prime only for (ell), ell inert
    split_square = IntegralIdeal(Q2, 49, 35, 1)
    assert split_square in [q * q for q in factor_rational_prime(Q2, 7).ideals]
    for q in (rational_ideal(Q2, 7), rational_ideal(Q2, 2), split_square,
              rational_ideal(QQ, 49)):
        with pytest.raises(ValueError, match="not a prime ideal"):
            residue_char(q)
        with pytest.raises(ValueError, match="not a prime ideal"):
            ideal_valuation(7, q)
    for q, ell in ((rational_ideal(Q2, 3), 3), (IntegralIdeal(Q2, 2, 0, 1), 2),
                   (rational_ideal(QQ, 7), 7)) + tuple(
                       (q, 7) for q in factor_rational_prime(Q2, 7).ideals):
        assert residue_char(q) == ell


def test_residue_char_accepts_exactly_the_prime_factors():
    # (ell), each factor, their products and squares: only the factors pass
    fields = [QQ] + [RealQuadraticField(d) for d in range(2, 40)
                     if is_squarefree(d)]
    for K in fields:
        for ell in (2, 3, 5, 7, 11, 13):
            rep = factor_rational_prime(K, ell)
            ideals = {rational_ideal(K, ell), *rep.ideals}
            ideals |= {q * r for q in rep.ideals for r in rep.ideals}
            for q in ideals:
                if q in rep.ideals:
                    assert residue_char(q) == ell, (K, q)
                else:
                    with pytest.raises(ValueError):
                        residue_char(q)

def test_ideal_mul_inverse_roundtrip():
    rng = random.Random(11)
    for d in (2, 10, 79):
        K = RealQuadraticField(d)
        for ell in (3, 7, 11, 13):
            if K.D % ell == 0:
                continue
            for q in prime_ideals_above(K, ell):
                qc = q.conj()
                prod = q * qc
                f = 2 if q.norm == ell * ell else 1
                assert prod == rational_ideal(K, ell**f)


def test_ideal_power_is_repeated_product():
    for d in (1, 2, 10, 79):
        K = QQ if d == 1 else RealQuadraticField(d)
        for ell in (2, 3, 7):
            for q in prime_ideals_above(K, ell):
                prod = unit_ideal(K)
                for k in range(6):
                    assert q**k == prod, (d, ell, k)
                    prod = prod * q


# ------------------------------------------------------------- class groups

def test_class_group_examples():
    assert class_group(RealQuadraticField(5)).h == 1
    g10 = class_group(RealQuadraticField(10))
    assert g10.h == 2 and g10.invariant_factors == (2,)
    g79 = class_group(RealQuadraticField(79))
    assert g79.h == 3 and g79.invariant_factors == (3,)


def test_class_group_matches_oracle_sample():
    for d in (2, 3, 6, 7, 10, 15, 26, 34, 51, 79, 82, 85, 105, 142, 145, 199):
        K = RealQuadraticField(d)
        assert class_group(K).h == wide_class_number_oracle(d), d


def test_class_of_and_principality_d10():
    K = RealQuadraticField(10)
    clg = class_group(K)
    q2 = factor_rational_prime(K, 2).ideals[0]
    assert clg.key_of(q2) != clg.principal_key
    assert clg.class_of(q2) != group_identity(clg.group)
    assert clg.key_of(q2 * q2) == clg.principal_key


def _ref_class_group(K):
    """The per-pair build: every reduced pair walks its whole cycle, and
    every class lookup walks the cycle of the ideal again and keys it by
    its least state."""
    keys = set()
    for (P, Q) in _reduced_pairs(K):
        keys.add(min(_cycle_of(K, P, Q)))
    cycle_keys = sorted(keys)
    principal_key = min(_cycle_of(K, K.D, 2))
    assert principal_key in keys

    def key_of(I):
        return min(_cycle_of(K, *_ideal_to_pair(I)))

    def kmul(k1, k2):
        return key_of(_pair_to_ideal(K, *k1) * _pair_to_ideal(K, *k2))

    gens, orders, dlog = decompose_abelian(cycle_keys, kmul, principal_key)
    return len(cycle_keys), cycle_keys, gens, orders, dlog, principal_key, \
        key_of


def test_class_group_matches_per_pair_build_d_below_2000():
    for d in range(2, 2000):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        clg = class_group(K)
        h, cycle_keys, gens, orders, dlog, principal_key, key_of = \
            _ref_class_group(K)
        assert clg.h == h, d
        assert clg.cycle_keys == cycle_keys, d
        assert clg.gen_keys == gens, d
        assert clg.gen_orders == orders, d
        assert clg._dlog == dlog, d
        assert clg.principal_key == principal_key, d
        if d < 300:
            for I in _small_ideals(K):
                assert clg.key_of(I) == key_of(I), (d, I)


def test_build_walks_each_cycle_once(monkeypatch):
    calls = []

    def counting(K, P, Q):
        calls.append((P, Q))
        return _cycle_of(K, P, Q)
    monkeypatch.setattr(quadfield, "_cycle_of", counting)
    for d in (2, 10, 79, 82, 226, 5626, 48799):
        calls.clear()
        clg = ClassGroupData(RealQuadraticField(d))
        assert len(calls) == clg.h, d


def test_class_group_build_calls_key_of_at_most_2h_minus_1(monkeypatch):
    """At most 2h - 1 class lookups build each class group of a squarefree
    d < 2000: h - 1 table products, sum(m_k - 1) <= h - 1 power searches
    and the principal key.  decompose_abelian reuses the powers as table
    entries, so the build takes h."""
    calls = []
    key_of = ClassGroupData.key_of

    def counting(self, I):
        calls.append(I)
        return key_of(self, I)
    monkeypatch.setattr(ClassGroupData, "key_of", counting)
    for d in range(2, 2000):
        if squarefree(d):
            calls.clear()
            clg = ClassGroupData(RealQuadraticField(d))
            assert len(calls) <= 2 * clg.h - 1, (d, clg.h, len(calls))


def test_key_of_steps_within_the_reduction_bound(monkeypatch):
    rng = random.Random(21)
    steps = []

    def counting(K, P, Q):
        steps.append((P, Q))
        return _rho_step(K, P, Q)
    for d in (2, 79, 223, 5626):
        K = RealQuadraticField(d)
        clg = class_group(K)
        for digits in range(1, 60, 3):
            b = rng.randrange(10**digits)
            a = b * b + K.D * b + K.w_norm   # (a; b; 1) is an ideal
            I = IntegralIdeal(K, a, b % a, 1)
            steps.clear()
            monkeypatch.setattr(quadfield, "_rho_step", counting)
            key = clg.key_of(I)
            monkeypatch.undo()
            assert len(steps) <= _reduction_bound(K.D, _ideal_to_pair(I)[1])
            assert key == min(_cycle_of(K, *_ideal_to_pair(I))), (d, digits)


def test_key_of_raises_past_the_reduction_bound(monkeypatch):
    K = RealQuadraticField(79)
    clg = class_group(K)
    q5 = factor_rational_prime(K, 5).ideals[0]
    assert not _is_reduced_pair(K, *_ideal_to_pair(q5))
    monkeypatch.setattr(quadfield, "_reduction_bound", lambda D, Q: 0)
    with pytest.raises(AssertionError, match="no indexed state"):
        clg.key_of(q5)


# ------------------------------------------------------------- units

def test_fundamental_unit_examples():
    e2 = fundamental_unit(Q2)
    assert e2 == sqrt_pair(Q2, 1, Fraction(1, 2))  # 1 + sqrt2
    assert e2.norm() == -1
    e5 = fundamental_unit(Q5F)
    assert e5 == sqrt_pair(Q5F, Fraction(1, 2), Fraction(1, 2))
    e3 = fundamental_unit(RealQuadraticField(3))
    assert e3 == sqrt_pair(RealQuadraticField(3), 2, Fraction(1, 2))
    assert e3.norm() == 1


def test_fundamental_unit_oracle_d_up_to_100():
    for d in range(2, 101):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        eps = fundamental_unit(K)
        T, U, sign = fundamental_unit_oracle(d)
        u, v = eps.sqrt_coords()
        assert (2 * u, 2 * v * 1) == (T, U) or (2 * u, 2 * v) == (T, U), d
        assert eps.norm() == sign


def _log_eps(K):
    """log(eps) from the integer coordinates of eps = x + y*w: with
    s = 2x + yD, 2*eps = s + y*sqrt(D) with s > 0 and y > 0 (eps > 1 and
    |sigma(eps)| = 1/eps), so log(2*eps) = log(s) + log(1 + (y/s)*sqrt(D)),
    each a float of moderate size however many digits x and y have."""
    eps = fundamental_unit(K)
    assert eps.den == 1
    s, y = 2 * eps.a + eps.b * K.D, eps.b
    return log(s) + log1p(y / s * sqrt(K.D)) - log(2)


def _class_number_by_formula(d):
    K = RealQuadraticField(d)
    return class_number_formula(K.D) / _log_eps(K)


def test_class_number_formula_folds_the_full_sum():
    """The oracle's sum over a <= D/2 equals the formula's sum over every
    0 < a < D, halved, for the discriminants of d < 200."""
    for d in range(2, 200):
        if squarefree(d):
            D = RealQuadraticField(d).D
            full = -sum(kronecker(D, a) * log(sin(pi * a / D))
                        for a in range(1, D)) / 2
            assert abs(class_number_formula(D) - full) < 1e-9, d


def test_class_number_formula_d_below_3000():
    """Dirichlet's class number formula, h*log(eps) = -1/2 * sum of
    chi_D(a) * log sin(pi*a/D), checks class_group(K).h and
    fundamental_unit(K) together on every squarefree d < 3000: a missing
    class, or eps^2 in place of eps, moves the h it gives by at least
    1/2."""
    ds = [d for d in range(2, 3000) if squarefree(d)]
    assert len(ds) == 1823
    for d in ds:
        h = class_group(RealQuadraticField(d)).h
        assert abs(_class_number_by_formula(d) - h) < 1e-6, d


@pytest.mark.parametrize("d,h", [(255255, 32), (1000003, 3)])
def test_class_number_formula_at_large_d(d, h):
    """The formula at d = 3*5*7*11*13*17, with h = 32, and at the prime
    d = 1000003 (D = 4000012), whose unit has hundreds of digits."""
    assert class_group(RealQuadraticField(d)).h == h
    assert abs(_class_number_by_formula(d) - h) < 1e-6


def test_unit_rejected_over_q():
    with pytest.raises(ValueError):
        fundamental_unit(QQ)


def test_unit_decompose():
    K = RealQuadraticField(3)
    eps = fundamental_unit(K)
    assert unit_decompose(K, eps**3 * -1) == (1, 3)
    assert unit_decompose(K, K.one()) == (0, 0)
    assert unit_decompose(K, eps.inv() ** 2) == (0, -2)
    for x in (K.element(2), eps * 3, -eps.inv() ** 2 * 3,
              K.element(Fraction(1, 2))):
        with pytest.raises(ValueError, match="not a unit"):
            unit_decompose(K, x)


def _unit_powers(K, eps, k_max):
    """{k: eps^k} for |k| <= k_max, by repeated multiplication of integer
    pairs; eps^-1 = N(eps) * conj(eps)."""
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1] * K.w_norm,
                a[0] * b[1] + a[1] * b[0] + a[1] * b[1] * K.w_trace)
    n = int(eps.norm())
    up = (int(eps.x), int(eps.y))
    down = (n * (int(eps.x) + int(eps.y) * K.w_trace), -n * int(eps.y))
    out = {0: (1, 0)}
    for k in range(1, k_max + 1):
        out[k] = mul(out[k - 1], up)
        out[-k] = mul(out[-k + 1], down)
    return {k: K.element(*xy) for k, xy in out.items()}


@pytest.mark.parametrize("d", [2, 3, 94, 48799])
def test_unit_decompose_up_to_200(d):
    K = RealQuadraticField(d)
    eps = fundamental_unit(K)
    powers = _unit_powers(K, eps, 200)
    assert powers[1] == eps and powers[-1] * eps == K.one()
    # eps(Q(sqrt 48799)) has 902-bit coordinates, eps^200 180,000-bit ones
    ks = range(-200, 201) if d < 50 else \
        [k for k in range(-200, 201) if k % 50 == 0 or abs(k) in (1, 2, 199)]
    for k in ks:
        u = powers[k]
        assert unit_decompose(K, u) == (0, k), (d, k)
        assert unit_decompose(K, -u) == (1, k), (d, k)


def test_unit_decompose_raises_on_a_wrong_power(monkeypatch):
    K = RealQuadraticField(94)
    eps = fundamental_unit(K)
    monkeypatch.setattr(quadfield, "fundamental_unit", lambda K: eps * eps)
    assert unit_decompose(K, eps ** 4) == (0, 2)
    with pytest.raises(AssertionError, match="not \\+-eps\\^"):
        unit_decompose(K, eps)


# ------------------------------------------------------------- principal gens

def test_principal_generator_d2_over_7():
    q = factor_rational_prime(Q2, 7).ideals[0]
    g = principal_generator(q)
    assert g is not None
    assert abs(g.norm()) == 7
    assert ideal_from_element(g).content_and_primitive()[1] == q


def test_principal_generator_not_principal():
    K = RealQuadraticField(10)
    q2 = factor_rational_prime(K, 2).ideals[0]
    assert principal_generator(q2) is None


def test_principal_generator_unit_ideal():
    assert principal_generator(unit_ideal(Q2)) == Q2.one()


def test_principal_generator_random_products():
    rng = random.Random(12)
    for d in (2, 10, 79):
        K = RealQuadraticField(d)
        clg = class_group(K)
        pool = []
        for ell in (3, 7, 11, 13, 17):
            if K.D % ell:
                pool.extend(prime_ideals_above(K, ell))
        for _ in range(6):
            I = unit_ideal(K)
            for _ in range(rng.randrange(1, 4)):
                I = I * rng.choice(pool)
            g = principal_generator(I)
            if clg.key_of(I) == clg.principal_key:
                assert g is not None and abs(g.norm()) == I.norm
                assert ideal_from_element(g) == I
            else:
                assert g is None


# -------------------------------------------- walks against a Fraction oracle

def _ref_rho(K, P, Q):
    """One step on (P + sqrt D)/Q with the Fraction gamma of the step:
    Z + Z*tau = gamma * (Z + Z*tau')."""
    s = isqrt(K.D)
    a = (P + s) // Q if Q > 0 else (P + s + 1) // Q
    P2 = a * Q - P
    gamma = sqrt_pair(K, Fraction(-P2, Q), Fraction(1, Q))
    return P2, (K.D - P2 * P2) // Q, gamma


def _ref_o_walk(K):
    acc = {}
    P, Q = K.D, 2
    cur = K.one()
    while (P, Q) not in acc:
        acc[(P, Q)] = cur
        P, Q, gamma = _ref_rho(K, P, Q)
        cur = cur * gamma
    eps = (cur / acc[(P, Q)]).inv()
    return acc, (-eps if compare_real(eps, 0) < 0 else eps)


def _ref_principal_generator(I):
    K = I.field
    content, prim = I.content_and_primitive()
    acc, _ = _ref_o_walk(K)
    P, Q = 2 * prim.b + K.D, 2 * prim.a
    cur = K.one()
    while (P, Q) not in acc:
        P, Q, gamma = _ref_rho(K, P, Q)
        cur = cur * gamma
    return cur / acc[(P, Q)] * prim.a * content


def test_o_walk_matches_fraction_walk_d_below_2000():
    for d in range(2, 2000):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        ref_acc, ref_eps = _ref_o_walk(K)
        acc, eps = _o_walk(K), fundamental_unit(K)
        assert acc.keys() == ref_acc.keys(), d
        for state, (x, y) in acc.items():
            assert K.element(x, y) == ref_acc[state], (d, state)
        assert eps == ref_eps == fundamental_unit(K), d


def _full_period_eps(K):
    """eps from one full period of the integer walk: the quotient of the
    gamma products at the first repeated state, made positive; returns
    (eps, period)."""
    acc = {}
    P, Q = K.D, 2
    x0, y0, x1, y1 = 0, 1, 1, 0
    while (P, Q) not in acc:
        acc[(P, Q)] = (x1, y1)
        a, P, Q = _rho_step(K, P, Q)
        x0, y0, x1, y1 = x1, y1, x0 - a * x1, y0 - a * y1
    eps = K.element(*acc[(P, Q)]) / K.element(x1, y1)
    assert eps.is_integral() and abs(eps.norm()) == 1
    eps = -eps if real_sign(eps) < 0 else eps
    assert compare_real(eps, 1) > 0
    # acc holds (D, 2) and the reduced state of O, the period n + 1 states
    return eps, len(acc) - 1


def _stop_kind(K, monkeypatch):
    """Run the half-period walk of K afresh and tell where it stopped:
    "even" when it divided sigma(u) by u, else "odd"."""
    seen = []
    quotient = quadfield._exact_quotient

    def spy(K, num, den, what):
        if what == "fundamental unit":
            seen.append(num == (den[0] + den[1] * K.D, -den[1]))
        return quotient(K, num, den, what)
    monkeypatch.setattr(quadfield, "_exact_quotient", spy)
    fundamental_unit.cache_clear()
    eps = fundamental_unit(K)
    monkeypatch.undo()
    assert len(seen) == 1
    return eps, "even" if seen[0] else "odd"


def test_half_period_eps_matches_full_period_d_below_10000(monkeypatch):
    kinds = {"odd": 0, "even": 0}
    for d in range(2, 10000):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        eps, kind = _stop_kind(K, monkeypatch)
        ref_eps, period = _full_period_eps(K)
        assert eps == ref_eps, d
        assert kind == ("odd" if period % 2 else "even"), d
        # odd exactly when N(eps) = -1
        assert (kind == "odd") == (pell_sign(d) == -1), d
        kinds[kind] += 1
    assert kinds["odd"] > 500 and kinds["even"] > 4000


def test_leopoldt_query_builds_no_cycle_table():
    K = RealQuadraticField(49009)
    _o_walk.cache_clear()
    fundamental_unit.cache_clear()
    assert leopoldt_defect(K, 3, 8).defect == 0
    assert fundamental_unit.cache_info().currsize == 1
    assert _o_walk.cache_info().currsize == 0
    principal_generator(rational_ideal(K, 3))
    assert _o_walk.cache_info().currsize == 1
    assert len(_o_walk(K)) == 444      # period 443, plus the state (D, 2)


def _principal_cases(K, h):
    """q^h for the first three split primes q, their products, and
    q^h * q * conj(q)."""
    split = [factor_rational_prime(K, ell).ideals[0]
             for ell in range(3, 200)
             if isprime(ell) and factor_rational_prime(K, ell).kind == "split"]
    powers = [q**h for q in split[:3]]
    cases = list(powers)
    cases += [powers[i] * powers[j] for i in range(len(powers))
              for j in range(i + 1, len(powers))]
    cases += [powers[0] * split[1] * split[1].conj()] if len(split) > 1 else []
    return cases


def test_principal_generator_matches_fraction_walk():
    fields = 0
    for d in range(2, 500):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        h = class_group(K).h
        if h == 1:
            continue
        fields += 1
        for I in _principal_cases(K, h):
            g = principal_generator(I)
            assert g == _ref_principal_generator(I), (d, I)
            assert ideal_from_element(g) == I
    assert fields > 50


def test_reduction_bound_holds():
    rng = random.Random(20)
    for d in (2, 3, 5, 79, 94, 223, 1009, 48799, 1000003):
        K = RealQuadraticField(d)
        for digits in range(1, 60, 3):
            b = rng.randrange(10**digits)
            a = b * b + K.D * b + K.w_norm   # (a; b; 1) is an ideal
            P, Q = _ideal_to_pair(IntegralIdeal(K, a, b % a, 1))
            bound = _reduction_bound(K.D, Q)
            steps = 0
            while not _is_reduced_pair(K, P, Q):
                _, P, Q = _rho_step(K, P, Q)
                steps += 1
            assert steps <= bound, (d, digits)


def _small_ideals(K):
    """The primes above ell < 50 and the products of pairs of the first
    eight of them."""
    primes = [q for ell in range(2, 50) if isprime(ell)
              for q in prime_ideals_above(K, ell)]
    return primes + [p * q for i, p in enumerate(primes[:8])
                     for q in primes[i:8]]


def test_principal_generator_is_none_exactly_off_the_principal_class():
    # cyclic class groups of orders 2, 3, 4, 3 and 8
    nones = 0
    for d in (10, 79, 82, 223, 226):
        K = RealQuadraticField(d)
        clg = class_group(K)
        assert clg.h > 1, d
        for I in _small_ideals(K):
            g = principal_generator(I)
            assert (g is None) == (clg.key_of(I) != clg.principal_key), \
                (d, I)
            nones += g is None
            if g is not None:
                assert ideal_from_element(g) == I, (d, I)
    assert nones > 100


def test_principal_generator_raises_past_the_reduction_bound(monkeypatch):
    q7 = factor_rational_prime(Q2, 7).ideals[0]
    monkeypatch.setattr(quadfield, "_reduction_bound", lambda D, Q: 0)
    with pytest.raises(AssertionError, match="no reduced state"):
        principal_generator(q7)


def test_principal_generator_checks_survive_python_O():
    # (5) has the unit ideal as primitive part, whose walk stops at once
    code = (
        "from iwasawalab.quadfield import *\n"
        "from iwasawalab.quadfield import _o_walk\n"
        "assert False, 'asserts are on'\n"
        "K = RealQuadraticField(79)\n"
        "_o_walk(K)[(K.D, 2)] = (2, 0)\n"
        "try:\n"
        "    principal_generator(rational_ideal(K, 5))\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "raised: generator is not integral\n"


def test_ideal_valuation():
    K = Q2
    q7a, q7b = factor_rational_prime(K, 7).ideals
    g = principal_generator(q7a)
    assert ideal_valuation(g, q7a) == 1
    assert ideal_valuation(g, q7b) == 0
    assert ideal_valuation(K.element(7), q7a) == 1
    assert ideal_valuation(K.element(Fraction(1, 7)), q7a) == -1
    sqrt2 = sqrt_pair(K, 0, Fraction(1, 2))
    q2 = factor_rational_prime(K, 2).ideals[0]
    assert ideal_valuation(sqrt2, q2) == 1
    assert ideal_valuation(K.element(2), q2) == 2


def test_ideals_of_different_fields_refuse():
    """Ideals multiply, and a prime ideal reads a valuation, over one field
    only, as field elements do; an equal field built apart is the same."""
    K3 = RealQuadraticField(3)
    q5 = factor_rational_prime(Q2, 5).ideals[0]   # inert
    for a, b in ((rational_ideal(Q2, 7), rational_ideal(K3, 11)),
                 (rational_ideal(QQ, 7), rational_ideal(Q2, 11)),
                 (rational_ideal(K3, 7), q5)):
        with pytest.raises(ValueError, match="ideals of different fields"):
            a * b
    for x in (K3.element(11), QQ.element(11)):
        with pytest.raises(ValueError, match="ideals of different fields"):
            ideal_valuation(x, q5)
    assert rational_ideal(Q2, 7) * rational_ideal(RealQuadraticField(2), 11) \
        == rational_ideal(Q2, 77)
    assert ideal_valuation(RealQuadraticField(2).element(25), q5) == 2
    assert ideal_valuation(25, q5) == 2


# ------------------------------------------------------------- S-units

def test_s_unit_basis_rational():
    basis = s_unit_basis(QQ, [rational_ideal(QQ, 2), rational_ideal(QQ, 5)])
    vals = sorted(e.x for e in basis)
    assert vals == [-1, 2, 5]


def test_s_unit_basis_empty_d2():
    basis = s_unit_basis(Q2, [])
    assert len(basis) == 2  # -1 and the fundamental unit
    assert basis[0] == Q2.element(-1)
    assert basis[1] == fundamental_unit(Q2)


def test_s_unit_basis_d2_q7():
    q = factor_rational_prime(Q2, 7).ideals[0]
    data = SUnitBasisData(Q2, [q])
    assert len(data.entries) == 3
    gamma = data.entries[2].element
    assert abs(gamma.norm()) == 7
    assert ideal_valuation(gamma, q) == 1


def test_s_unit_lattice_d10_interacting_classes():
    K = RealQuadraticField(10)
    q2 = factor_rational_prime(K, 2).ideals[0]
    q3 = factor_rational_prime(K, 3).ideals[0]
    # both classes are the nontrivial element of Z/2
    data = SUnitBasisData(K, [q2, q3])
    # index of the kernel lattice in Z^2 must be 2
    from iwasawalab.abgroup import lattice_index
    B = [[data.lattice[j][i] for j in range(2)] for i in range(2)]
    assert lattice_index(B) == 2
    for entry in data.entries:
        if entry.kind == "lattice":
            for q, w in zip(data.primes, [entry.valuations.get(q, 0)
                                          for q in data.primes]):
                assert ideal_valuation(entry.element, q) == w


def test_s_unit_decompose_roundtrip():
    K = Q2
    q7 = factor_rational_prime(K, 7).ideals[0]
    q2 = factor_rational_prime(K, 2).ideals[0]
    data = SUnitBasisData(K, [q7, q2])
    eps = fundamental_unit(K)
    gamma7 = next(e.element for e in data.entries
                  if e.kind == "lattice" and e.valuations.get(q7))
    x = gamma7**2 * eps**-1 * -1
    coords = data.decompose(x)
    rebuilt = K.one()
    for c, entry in zip(coords, data.entries):
        rebuilt = rebuilt * entry.element**c
    assert rebuilt == x


def _q79_pair():
    K = RealQuadraticField(79)
    return K, (factor_rational_prime(K, 2).ideals[0],
               factor_rational_prime(K, 5).ideals[0])


def _s_unit_bases():
    """The bases the S-unit tests build: Q(sqrt 79) over {2, 5} (h = 3),
    Q(sqrt 10) over {2, 3, 13} (h = 2), Q(sqrt 2) over {7, 2} and Q over
    {2, 5}."""
    K79, pair = _q79_pair()
    K10 = RealQuadraticField(10)
    return [SUnitBasisData(K79, pair),
            SUnitBasisData(K10, [factor_rational_prime(K10, ell).ideals[0]
                                 for ell in (2, 3, 13)]),
            SUnitBasisData(Q2, [factor_rational_prime(Q2, ell).ideals[0]
                                for ell in (7, 2)]),
            SUnitBasisData(QQ, [rational_ideal(QQ, 2), rational_ideal(QQ, 5)])]


def test_s_unit_decompose_reads_its_own_entries():
    for data in _s_unit_bases():
        assert type(data.entries) is tuple
        n = len(data.entries)
        for i, entry in enumerate(data.entries):
            assert data.decompose(entry.element) == \
                [int(j == i) for j in range(n)], (data.field, entry.label)


def test_s_unit_decompose_against_fraction_solver():
    """decompose on seeded products of powers of the entries of each basis
    gives back the exponents, and those of the lattice rows are what
    Gauss-Jordan over Fraction solves from the transposed lattice and the
    valuations.  An element whose valuations on the primes leave the
    lattice (its divisor holds one more prime, outside them) is refused by
    both, by decompose with its own message."""
    rng = random.Random(20261019)
    refused = 0
    for data in _s_unit_bases():
        K, n = data.field, len(data.primes)
        B = [[w[i] for w in data.lattice] for i in range(n)]
        units = len(data.entries) - n
        for _ in range(12):
            e = [rng.randint(0, 1)] + [rng.randint(-3, 3)
                                       for _ in data.entries[1:]]
            x = K.one()
            for c, entry in zip(e, data.entries):
                x = x * entry.element**c
            vals = [ideal_valuation(x, q) for q in data.primes]
            assert data.decompose(x) == e, (K, e)
            assert e[units:] == solve_integral_fractions(B, vals)
        ells = {residue_char(q) for q in data.primes}
        for ell in range(3, 60):
            if not isprime(ell) or ell in ells:
                continue
            for r in prime_ideals_above(K, ell):
                for q in data.primes:
                    x = principal_generator(q * r)
                    if x is None:
                        continue
                    vals = [ideal_valuation(x, t) for t in data.primes]
                    with pytest.raises(ValueError) as info:
                        data.decompose(x)
                    try:
                        solve_integral_fractions(B, vals)
                    except ValueError:
                        assert str(info.value) == \
                            "element is not supported on Q"
                        refused += 1
    assert refused >= 20, refused


def test_alpha_entries_are_one_tuple():
    """construct_alpha builds its entries once, as one tuple: -1 and eps
    (not over Q) of SUnitBasisData(K, []), then beta, pi1 and pi2 with
    their valuations at the pair read by ideal_valuation."""
    K, pair = _q79_pair()
    for field, Q, units in ((K, pair, ["-1", "eps"]),
                            (QQ, (rational_ideal(QQ, 2),
                                  rational_ideal(QQ, 5)), ["-1"])):
        entries = construct_alpha(field, 3, Q, 2).alpha.entries
        assert type(entries) is tuple
        assert [e.label for e in entries] == units + ["beta", "pi1", "pi2"]
        assert entries[:len(units)] == SUnitBasisData(field, []).entries
        assert [e.kind for e in entries[len(units):]] == ["lattice"] * 3
        for entry in entries:
            vals = {q: ideal_valuation(entry.element, q) for q in Q}
            assert entry.valuations == {k: v for k, v in vals.items() if v}
            with pytest.raises(AttributeError):
                entry.valuations = {}


UNRAMIFIED_P_CHECKS = [
    ("completions_above_p", lambda K, p: completions_above_p(K, p)),
    ("group_G", lambda K, p: group_G(K, p, 2)),
    ("leopoldt_defect", lambda K, p: leopoldt_defect(K, p, 2)),
]
ODD_P_CHECKS = [
    ("ray_class_group", lambda K, p: ray_class_group(K, 7, p)),
    ("kummer_rank", lambda K, p: kummer_rank([K.element(2)], K, p)),
]


@pytest.mark.parametrize("name,call", UNRAMIFIED_P_CHECKS + ODD_P_CHECKS)
@pytest.mark.parametrize("p", [2, 9, 1])
def test_p_must_be_an_odd_prime(name, call, p):
    for K in (QQ, Q2):
        with pytest.raises(ValueError, match=r"^p must be an odd prime$"):
            call(K, p)


@pytest.mark.parametrize("name,call", UNRAMIFIED_P_CHECKS)
def test_p_must_be_unramified(name, call):
    for d, p in ((5, 5), (3, 3), (6, 3)):
        K = RealQuadraticField(d)
        with pytest.raises(ValueError, match=r"^p = %d ramifies in "
                           r"Q\(sqrt\{%d\}\)$" % (p, d)):
            call(K, p)


@pytest.mark.parametrize("name,call", ODD_P_CHECKS)
def test_ramified_odd_p_is_accepted(name, call):
    call(RealQuadraticField(5), 5)


def test_s_unit_valuation_matrix_full_rank():
    from fractions import Fraction as F
    for d, ells in ((2, (7, 17)), (10, (2, 3, 13)), (79, (2, 5))):
        K = RealQuadraticField(d)
        primes = []
        for ell in ells:
            primes.append(factor_rational_prime(K, ell).ideals[0])
        data = SUnitBasisData(K, primes)
        lat = [e for e in data.entries if e.kind == "lattice"]
        M = [[F(e.valuations.get(q, 0)) for q in primes] for e in lat]
        # square and invertible over Q
        n = len(primes)
        assert len(M) == n
        det = _det(M)
        assert det != 0


def _det(M):
    from fractions import Fraction
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    sign = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if A[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            A[i], A[piv] = A[piv], A[i]
            sign = -sign
        for r in range(i + 1, n):
            f = A[r][i] / A[i][i]
            A[r] = [a - f * b for a, b in zip(A[r], A[i])]
    out = Fraction(sign)
    for i in range(n):
        out *= A[i][i]
    return out


def test_is_squarefree_against_sieve():
    n_max = 20000
    sieve = [True] * n_max
    for q in range(2, isqrt(n_max - 1) + 1):
        for m in range(q * q, n_max, q * q):
            sieve[m] = False
    assert [is_squarefree(n) for n in range(1, n_max)] == sieve[1:]
