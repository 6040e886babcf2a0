import random
from math import prod

import pytest

from iwasawalab import rayclass
from iwasawalab.cli import EXIT_INTERNAL, main
from iwasawalab.ntheory import (InternalCheckError, factorint, is_squarefree,
                                isprime)
from iwasawalab.padic import vp
from iwasawalab.quadfield import (RealQuadraticField, factor_rational_prime,
                                  prime_ideals_above, rational_ideal)
from iwasawalab.rayclass import _factor_ideal, ray_class_group

from oracles import group_identity, unit_image_order_two_snf

QQ = RealQuadraticField.rationals()


def test_rational_63_at_3():
    rc = ray_class_group(QQ, 63, 3)
    assert rc.p_group.invariant_factors == (3, 3)
    assert rc.p_order == 9


def test_trivial_modulus():
    rc = ray_class_group(QQ, 1, 3)
    assert rc.p_order == 1


def test_rational_27_is_z9():
    rc = ray_class_group(QQ, 27, 3)
    assert rc.p_group.invariant_factors == (9,)


def test_d2_conductor_25_at_5():
    # oracle-frozen: brute-force enumeration of (O/25)* / <-1, 1+sqrt2>
    K = RealQuadraticField(2)
    rc = ray_class_group(K, 25, 5)
    assert rc.p_group.invariant_factors == (5,)
    assert rc.full_order() == 10
    assert rc.unit_image_order() == 60


def test_d2_conductor_125_at_5():
    # oracle-frozen: 5-part is Z/25
    K = RealQuadraticField(2)
    rc = ray_class_group(K, 125, 5)
    assert rc.p_group.invariant_factors == (25,)


def test_d3_conductor_25_at_5():
    # oracle-frozen: |units|=600, |im|=30, quotient 20, 5-part Z/5
    K = RealQuadraticField(3)
    rc = ray_class_group(K, 25, 5)
    assert prod(rc.unit_orders) == 600
    assert rc.unit_image_order() == 30
    assert rc.full_order() == 20
    assert rc.p_group.invariant_factors == (5,)


def test_d10_conductor_27_at_3():
    # oracle-frozen: kernel part has 3-part 9; h = 2 is prime to 3
    K = RealQuadraticField(10)
    rc = ray_class_group(K, 27, 3)
    assert rc.p_order == 9


def test_d79_conductor_27_at_3():
    # oracle-frozen: |im units mod 27| = 6; |(O/27)*| = 324; h = 3
    K = RealQuadraticField(79)
    rc = ray_class_group(K, 27, 3)
    assert prod(rc.unit_orders) == 324
    assert rc.unit_image_order() == 6
    assert rc.p_order == 81


def test_order_identity_random_triples():
    rng = random.Random(20250808)
    fields = [QQ] + [RealQuadraticField(d) for d in (2, 3, 7, 10, 11, 79)]
    count = 0
    while count < 20:
        K = rng.choice(fields)
        p = rng.choice([3, 5, 7])
        if not K.is_rational and K.D % p == 0:
            continue
        n = rng.choice([4, 9, 11, 13, 25, 27, 49, 63, 77, 117])
        if K.is_rational and n % 2 == 0:
            n //= 2
        try:
            rc = ray_class_group(K, n * p, p)
        except ValueError:
            continue
        ident = rc.order_identity()
        assert ident["full"][0] == ident["full"][1], (K, n, p)
        assert ident["p"][0] == ident["p"][1], (K, n, p)
        count += 1


def test_principal_one_congruent_prime_is_trivial():
    # 109 = 1 + 4*27 is 1 mod 27 and 1 mod 4: its class mod 27 is trivial
    rc = ray_class_group(QQ, 27, 3)
    cls = rc.p_class_of_ideal(rational_ideal(QQ, 109))
    assert cls == group_identity(rc.p_group)


def test_frobenius_class_of_2_generates():
    rc = ray_class_group(QQ, 27, 3)
    cls = rc.p_class_of_ideal(rational_ideal(QQ, 2))
    from iwasawalab.abgroup import element_order
    assert element_order(rc.p_group, cls) == 9


def test_ideal_class_multiplicativity():
    K = RealQuadraticField(2)
    rc = ray_class_group(K, 125, 5)
    q3 = rational_ideal(K, 3)
    q7a = factor_rational_prime(K, 7).ideals[0]
    c1 = rc.p_class_of_ideal(q3)
    c2 = rc.p_class_of_ideal(q7a)
    c12 = rc.p_class_of_ideal(q3 * q7a)
    assert rc.p_group.add(c1, c2) == c12


def test_even_modulus_with_q_component():
    # modulus q*p^M with q = (7): used by the even criterion
    rc = ray_class_group(QQ, 7 * 27, 3)
    assert rc.p_order == 27
    rc2 = ray_class_group(QQ, 27, 3)
    assert rc.p_order // rc2.p_order == 3  # = e(7) at p=3


def test_ramified_square_modulus_rejected():
    K = RealQuadraticField(2)
    with pytest.raises(ValueError):
        ray_class_group(K, 4, 5)  # (sqrt2)^4: ramified square component


@pytest.mark.parametrize("modulus", [3**-2, 0.5, 9.0, "9", None])
def test_non_integer_modulus_refused(modulus):
    # a modulus is an int or an ideal, as a field coordinate is a rational
    for K in (QQ, RealQuadraticField(2)):
        with pytest.raises(TypeError):
            rational_ideal(K, modulus)
        with pytest.raises(TypeError):
            ray_class_group(K, modulus, 3)


# ------------------------------------------------- factoring an ideal modulus

def _ref_contains(I, J):
    """J is a subset of I, tested on the HNF generators of J."""
    for (u, v) in ((J.a, 0), (J.b, J.c)):
        if v % I.c or (u - (v // I.c) * I.b) % I.a:
            return False
    return True


def _ref_valuation(m, q):
    """v_q(m) by the ideal-power loop: the largest v with q^v containing m."""
    if m.field.is_rational:
        return vp(m.a, q.a) if m.a % q.a == 0 else 0
    v, power = 0, q
    while _ref_contains(power, m):
        v, power = v + 1, power * q
    return v


def _ref_factor(m):
    out = []
    for ell in sorted(factorint(m.norm)):
        for q in prime_ideals_above(m.field, ell):
            e = _ref_valuation(m, q)
            if e:
                out.append((q, e))
    return out


def test_factor_ideal_matches_ideal_power_loop():
    # every n < 200, and n*q for a prime q above ell < 30 (q cycling with
    # n), over Q and every squarefree d < 300; the products of two split
    # primes above ell < 30 (squares and q*conj(q) included), and of a
    # ramified prime and a split one
    fields = [QQ] + [RealQuadraticField(d) for d in range(2, 300)
                     if is_squarefree(d)]
    for K in fields:
        primes = [q for ell in range(2, 30) if isprime(ell)
                  for q in prime_ideals_above(K, ell)]
        for n in range(2, 200):
            m = rational_ideal(K, n)
            assert _factor_ideal(m) == _ref_factor(m), (K, n)
            mq = m * primes[n % len(primes)]
            assert _factor_ideal(mq) == _ref_factor(mq), (K, n)
        kinds = {ell: factor_rational_prime(K, ell).kind
                 for ell in range(2, 30) if isprime(ell)}
        split = [q for q in primes if kinds[q.a] == "split"]
        ramified = [q for q in primes if kinds[q.a] == "ramified"]
        products = [q1 * q2 for i, q1 in enumerate(split)
                    for q2 in split[i:]]
        products += [q1 * q2 for q1 in ramified for q2 in split]
        for m in products:
            assert _factor_ideal(m) == _ref_factor(m), (K, m)
    # inert conductors (ell), ell in [1000, 2000)
    for d in (2, 5):
        K = RealQuadraticField(d)
        inert = [ell for ell in range(1000, 2000) if isprime(ell)
                 and factor_rational_prime(K, ell).kind == "inert"]
        assert len(inert) > 50
        for ell in inert:
            m = rational_ideal(K, ell)
            assert _factor_ideal(m) == _ref_factor(m) == [(m, 1)], (K, ell)


# ------------------------------------------- image of the units in (O/m)*

def _unit_image_cases():
    """The 14 fields of the big-conductor benchmark, each with its first
    three inert ell >= 1000, and the moduli 1001, 1003 and 7091 in
    Q(sqrt 10) and Q(sqrt 79), whose class groups are nontrivial."""
    cases = []
    for d in (2, 5, 7, 10, 11, 13, 14, 17, 19, 22, 23, 26, 29, 31):
        K = RealQuadraticField(d)
        inert = (ell for ell in range(1000, 2000) if isprime(ell)
                 and factor_rational_prime(K, ell).kind == "inert")
        cases.extend((K, next(inert)) for _ in range(3))
    for d in (10, 79):
        cases.extend((RealQuadraticField(d), n) for n in (1001, 1003, 7091))
    return cases


def test_unit_image_order_matches_two_snf_reference():
    for K, n in _unit_image_cases():
        rc = ray_class_group(K, n, 3)
        assert rc.unit_image_order() == unit_image_order_two_snf(rc), (K, n)
        ident = rc.order_identity()
        assert ident["full"][0] == ident["full"][1], (K, n)
        assert ident["p"][0] == ident["p"][1], (K, n)


def test_class_representative_cap_fails_loudly(monkeypatch, capsys):
    """With no prime ell accepted as a candidate (isprime holds only for
    p = 3, which divides m), the search for class representatives of
    Q(sqrt 10), h = 2, runs to its cap and raises."""
    K = RealQuadraticField(10)
    monkeypatch.setattr(rayclass, "isprime", lambda n: n == 3)
    with pytest.raises(InternalCheckError, match="ell = 50000"):
        ray_class_group(K, 3, 3)
    argv = ["rayclass", "--field", "Q(sqrt{10})", "--modulus", "3", "--p", "3"]
    assert main(argv) == EXIT_INTERNAL
    assert "ell = 50000" in capsys.readouterr().err
