import gc
import random
import weakref
from math import gcd, prod

import pytest

from iwasawalab import quadfield, rayclass
from iwasawalab.cli import EXIT_INTERNAL, main
from iwasawalab.ntheory import (InternalCheckError, factorint, is_squarefree,
                                isprime)
from iwasawalab.padic import vp
from iwasawalab.quadfield import (RealQuadraticField, class_group,
                                  factor_rational_prime, prime_ideals_above,
                                  rational_ideal)
from iwasawalab.rayclass import _factor_ideal, ray_class_group

from oracles import (empty_memos, fundamental_unit_cf,
                     fundamental_unit_oracle, group_identity, group_record,
                     kronecker,
                     load_bench, p_class_of_ideal, ray_class_number,
                     squarefree,
                     unit_image_order_two_snf)

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
    assert rc.group.order == 10
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
    assert rc.group.order == 20
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
    cls = p_class_of_ideal(rc, rational_ideal(QQ, 109))
    assert cls == group_identity(rc.p_group)


def test_frobenius_class_of_2_generates():
    rc = ray_class_group(QQ, 27, 3)
    cls = p_class_of_ideal(rc, rational_ideal(QQ, 2))
    from iwasawalab.abgroup import element_order
    assert element_order(rc.p_group, cls) == 9


def test_ideal_class_multiplicativity():
    K = RealQuadraticField(2)
    rc = ray_class_group(K, 125, 5)
    q3 = rational_ideal(K, 3)
    q7a = factor_rational_prime(K, 7).ideals[0]
    c1 = p_class_of_ideal(rc, q3)
    c2 = p_class_of_ideal(rc, q7a)
    c12 = p_class_of_ideal(rc, q3 * q7a)
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


def test_p_part_against_sympy_smith_form():
    """The p-part record of seeded ray class groups against sympy's Smith
    form of the same relations: its invariant factors are the p-parts of
    sympy's, and `project` of a random ambient vector is the full group's
    coordinates of it, kept where p divides the order and reduced modulo
    the p-part."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(44)
    fields = [QQ] + [RealQuadraticField(d) for d in (2, 3, 7, 10, 11, 79)]
    count = 0
    while count < 12:
        K, p = rng.choice(fields), rng.choice([3, 5, 7])
        n = p**rng.randint(2, 4) * rng.choice([1, 7, 11, 13, 49])
        if not K.is_rational and K.D % p == 0:
            continue
        try:
            rc = ray_class_group(K, n, p)
        except ValueError:
            continue
        S = smith_normal_form(Matrix(rc.relations), domain=ZZ)
        sympy_diag = [abs(int(S[i, i])) for i in range(min(S.shape))]
        assert rc.p_group.invariant_factors == tuple(
            p**vp(d, p) for d in sympy_diag if d % p == 0), (K, n, p)
        full = rc.group.invariant_factors
        for _ in range(10):
            x = [rng.randint(-10**6, 10**6) for _ in rc.group.diag]
            want = [c % p**vp(d, p) for c, d in
                    zip(rc.group.project(x).coords, full) if d % p == 0]
            assert list(rc.p_group.project(x).coords) == want, (K, n, p)
        count += 1


def test_class_representative_cap_fails_loudly(monkeypatch, capsys):
    """With no prime ell accepted as a candidate (isprime holds only for
    p = 3, which divides m), the search for class representatives of
    Q(sqrt 10), h = 2, runs to its cap and raises.  The scan lives on the
    class group record, so the test starts and ends on emptied records."""
    K = RealQuadraticField(10)
    empty_memos()
    monkeypatch.setattr(quadfield, "isprime", lambda n: n == 3)
    try:
        with pytest.raises(InternalCheckError, match="ell = 50000"):
            ray_class_group(K, 3, 3)
        argv = ["rayclass", "--field", "Q(sqrt{10})", "--modulus", "3",
                "--p", "3"]
        assert main(argv) == EXIT_INTERNAL
        assert "ell = 50000" in capsys.readouterr().err
    finally:
        empty_memos()


def _rep_view(rc):
    return (rc.class_gen_ideals, rc.relations, group_record(rc.group),
            group_record(rc.p_group))


@pytest.mark.parametrize("d", [10, 26, 79])
def test_a_warm_class_group_record_builds_as_a_cold_one(d):
    """Ray class groups of Q(sqrt d), h > 1, built one after another on
    the field's class group record, which keeps the scan of primes, eps
    and the generators of the representatives, equal those built each on
    a record emptied first: the representative ideals, the relations and
    both groups.  The moduli include ell0, the prime under the first
    representative at m = 1, its square and ell0 * ell1, ell1 the one at
    m = ell0: there the record skips ell0 (and ell1), as the search of
    each build does, for the next prime of the class."""
    K = RealQuadraticField(d)
    assert class_group(K).h > 1
    empty_memos()
    ell0 = ray_class_group(K, 1, 3).class_gen_ideals[0].norm
    ell1 = ray_class_group(K, ell0, 3).class_gen_ideals[0].norm
    moduli = [ell0, ell0 * ell1, ell0**2, 1, 7, 11, 27, 1001, 1003]
    moduli = [m for m in moduli if gcd(m, K.D) == 1]
    cold = {}
    for m in moduli:
        empty_memos()
        cold[m] = _rep_view(ray_class_group(K, m, 3))
    for order in (moduli, moduli[::-1]):
        empty_memos()
        for m in order:
            assert _rep_view(ray_class_group(K, m, 3)) == cold[m], (d, m)
    for m in moduli:
        assert all(m % q.norm for q in cold[m][0]), (d, m)
    empty_memos()


def test_a_tower_keeps_the_entries_of_its_last_eight_pairs():
    """recall makes an entry once per pair and key; reading a pair makes it
    the most recent, and a ninth pair drops the least recent one."""
    tower = rayclass.RayClassTower(QQ, 3)
    made = []

    def make(Q, key):
        made.append((Q, key))
        return len(made)
    for i in range(8):
        assert tower.recall((i,), "L", make, (i,), "L") == i + 1
    assert tower.recall((0,), "L", make, (0,), "L") == 1
    assert tower.recall((0,), "M", make, (0,), "M") == 9
    assert tower.recall((8,), "L", make, (8,), "L") == 10
    assert list(tower.pairs) == [(i,) for i in (2, 3, 4, 5, 6, 7, 0, 8)]
    assert tower.pairs[(0,)] == {"L": 1, "M": 9}
    assert len(made) == 10


def test_a_replaced_top_takes_its_ambient_vectors_with_it():
    """The ambient vector of a prime read at a level lives on the direct
    build it was read at: the top keeps it for every level below, and once
    a higher top replaces it, nothing holds the old top or its vectors."""
    tower = rayclass.RayClassTower(QQ, 3)
    q = rational_ideal(QQ, 2)
    top = tower.grow(4)
    tower.p_level(2)[1].project(top.ambient_of_ideal(q))
    assert list(top._ambient) == [q]
    old = weakref.ref(top)
    del top
    tower.p_level(5)
    gc.collect()
    assert old() is None


def test_unit_of_the_continued_fraction_is_the_pell_unit():
    """eps = x + y*omega of `fundamental_unit_cf` is (T + U sqrt D)/2 of
    the brute-force Pell oracle: T = 2x + y*(D mod 2), U = y."""
    for d in range(2, 101):
        if squarefree(d):
            D = d if d % 4 == 1 else 4 * d
            x, y = fundamental_unit_cf(d)
            assert (2 * x + y * (D % 2), y) == fundamental_unit_oracle(d)[:2]


def test_full_order_is_the_ray_class_number():
    """|Cl_(n)| of each build equals `oracles.ray_class_number`, h * Phi(n)
    over the order of <-1, eps> mod n, found with no dlog and no Smith
    form: for every squarefree d < 150 and n <= 60 that the engine builds
    (it refuses a ramified prime in n and an inert 2-power), and for a
    seeded draw of the big-conductor pairs, d in RAY_FIELDS and ell inert
    in [1000, 2000]."""
    built = 0
    for d in range(2, 150):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        for n in range(1, 61):
            try:
                rc = ray_class_group(K, n, 3)
            except ValueError as err:
                assert "unsupported" in str(err), (d, n)
                continue
            assert rc.group.order == ray_class_number(d, n), (d, n)
            built += 1
    assert built == 2823
    W = load_bench("workloads")
    rng = random.Random(40)
    for d in W.RAY_FIELDS:
        K = RealQuadraticField(d)
        D = K.D
        ells = [ell for ell in range(*W.RAY_ELL_RANGE)
                if isprime(ell) and kronecker(D, ell) == -1]
        for ell in rng.sample(ells, 8):
            assert ray_class_group(K, ell, 3).group.order \
                == ray_class_number(d, ell), (d, ell)
