"""The integer helpers of ntheory and the discrete log of a rational
residue component, against sympy on cases fixed up front.  sympy is an
optional test oracle: without it the module is skipped."""

import random

import pytest

from iwasawalab.ntheory import (factorint, isprime, legendre,
                                sqrt_mod_prime)
from iwasawalab.quadfield import RealQuadraticField, rational_ideal
from iwasawalab.residues import RationalComponent, make_component
from oracles import kronecker

sympy = pytest.importorskip("sympy")

_RNG = random.Random(20)
# Carmichael numbers, a strong pseudoprime to every prime base below 37,
# Mersenne primes, and products of two primes near 10^9
_HARD = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
         321197185, 3825123056546413051, 2**31 - 1, 2**61 - 1,
         (10**9 + 7) * (10**9 + 9), 999999937 * 1000000007]
PRIME_CASES = list(range(-5, 3000)) + _HARD + \
    [_RNG.randrange(2, 2**64) for _ in range(300)]
FACTOR_CASES = list(range(1, 3000)) + \
    [_RNG.randrange(2, 10**10) for _ in range(100)] + \
    [2**40, 3**25, 1499**2, 999983 * 1000003]
SQRT_PRIMES = [3, 5, 7, 13, 17, 41, 97, 113, 257, 65537, 1000003,
               10**9 + 7, 998244353]


def test_isprime_against_sympy():
    for n in PRIME_CASES:
        assert isprime(n) == sympy.isprime(n), n


def test_factorint_against_sympy():
    for n in FACTOR_CASES:
        assert factorint(n) == sympy.factorint(n), n


def test_legendre_and_sqrt_mod_prime_against_sympy():
    rng = random.Random(21)
    for p in SQRT_PRIMES:
        for a in [0, 1, 2, 3, p - 1, p + 2, -3] + \
                [rng.randrange(p) for _ in range(40)]:
            s = legendre(a, p)
            assert s == sympy.legendre_symbol(a % p, p), (a, p)
            if s == -1:
                assert sympy.sqrt_mod(a, p) is None
                with pytest.raises(ValueError):
                    sqrt_mod_prime(a, p)
                continue
            r = sqrt_mod_prime(a, p)
            assert r in sympy.sqrt_mod(a, p, all_roots=True), (a, p)


def test_rational_component_dlog_against_sympy():
    QQ = RealQuadraticField.rationals()
    rng = random.Random(22)
    for ell, e in [(3, 1), (3, 4), (5, 3), (7, 2), (11, 1), (13, 3),
                   (101, 2), (1009, 1), (1499, 2), (2, 3), (2, 6)]:
        comp = make_component(QQ, rational_ideal(QQ, ell), e)
        assert isinstance(comp, RationalComponent)
        mod = ell**e
        for _ in range(30):
            a = rng.randrange(1, mod)
            if a % ell == 0:
                continue
            k = comp.dlog(a)
            if ell == 2:
                # a = (-1)^s * 5^t
                s, t = k
                assert t == sympy.discrete_log(mod, a * (-1)**s % mod, 5)
            else:
                assert k == [sympy.discrete_log(mod, a, comp.gens[0])]


def test_kronecker_oracle_against_sympy():
    """The Kronecker symbol of the class-number-formula oracle, on every
    0 < a < D for the discriminants D < 500 of real quadratic fields."""
    from sympy.functions.combinatorial.numbers import kronecker_symbol
    for d in range(2, 500):
        D = d if d % 4 == 1 else 4 * d
        if D < 500 and max(sympy.factorint(d).values()) == 1:
            for a in range(1, D):
                assert kronecker(D, a) == kronecker_symbol(D, a), (D, a)
