import random
from math import prod

import pytest

from iwasawalab import classfield, iwasawa, rayclass
from iwasawalab.abgroup import element_order, smith_presentation
from iwasawalab.classfield import (group_G, frobenius_image, e_of_q,
                                   even_criterion, cyclotomic_log,
                                   _transport_hom)
from iwasawalab.iwasawa import mq_order
from iwasawalab.ntheory import InternalCheckError, isprime
from iwasawalab.quadfield import (RealQuadraticField, factor_rational_prime,
                                  rational_ideal)
from iwasawalab.rayclass import ray_class_group
from oracles import (cyclotomic_dlog_log_route, degree_kernel_lattice,
                     degree_log_route, group_identity,
                     solve_integral_fractions, subgroup_order_from_lattice)

QQ = RealQuadraticField.rationals()
Q2 = RealQuadraticField(2)


def test_group_g_rational_z9():
    G = group_G(QQ, 3, 2)
    assert G.group.invariant_factors == (9,)
    assert G.stable


def test_group_g_d2_p5():
    # oracle-frozen: conductor 5^3 gives 5-part Z/25
    G = group_G(Q2, 5, 2)
    assert G.group.invariant_factors == (25,)
    assert G.stable


def test_group_g_invalid_inputs():
    with pytest.raises(ValueError):
        group_G(QQ, 3, 0)
    with pytest.raises(ValueError):
        group_G(RealQuadraticField(5), 5, 2)  # ramified


def test_frobenius_degrees_rational_p3():
    G = group_G(QQ, 3, 2)
    q2 = rational_ideal(QQ, 2)
    q5 = rational_ideal(QQ, 5)
    cls2, deg2 = frobenius_image(G, q2)
    cls5, deg5 = frobenius_image(G, q5)
    assert deg2.residue(2) == 5  # -1/7 = 5 mod 9
    assert deg5.residue(2) == 7  # 12/21 = 7 mod 9
    assert element_order(G.group, cls2) == 9
    # degree is nonzero for every prime: finite valuation
    assert not deg2.is_marker and not deg5.is_marker


def test_frobenius_rejects_q_above_p():
    G = group_G(QQ, 3, 2)
    with pytest.raises(ValueError):
        frobenius_image(G, rational_ideal(QQ, 3))


def test_frobenius_of_one_congruent_prime_trivial():
    G = group_G(QQ, 3, 2)
    cls, _ = frobenius_image(G, rational_ideal(QQ, 109))  # 109 = 1 mod 27
    assert cls == group_identity(G.group)


def test_degree_is_homomorphism():
    G = group_G(QQ, 3, 3)
    for (a, b) in ((2, 5), (2, 7), (5, 11)):
        da = G.degree(rational_ideal(QQ, a))
        db = G.degree(rational_ideal(QQ, b))
        dab = G.degree(rational_ideal(QQ, a * b))
        assert (da + db - dab).is_marker


def test_degree_exact_matches_log_degree():
    G = group_G(Q2, 5, 2)
    for ell in (3, 7, 11):
        q = factor_rational_prime(Q2, ell).ideals[0]
        deg = G.degree(q)
        k = min(deg.abs_prec, G.N)
        assert deg.residue(k) == cyclotomic_log(q.norm, 5, G.N + 1) % 5**k


FROBENIUS_FIELDS = (1, 2, 3, 5, 6, 7, 10, 13, 79, 82, 145, 229, 401)


def test_frobenius_class_degree_matches_character():
    """The degree of the class of q under the hom on invariant
    coordinates equals the exact cyclotomic position of N(q), on 13 fields
    x p in {3, 5, 7} x N in {1, 2, 3} x the primes below 42."""
    n = 0
    for d in FROBENIUS_FIELDS:
        K = QQ if d == 1 else RealQuadraticField(d)
        for p in (3, 5, 7):
            if not K.is_rational and K.D % p == 0:
                continue
            for N in (1, 2, 3):
                G = group_G(K, p, N)
                for ell in range(2, 42):
                    if not isprime(ell) or ell == p:
                        continue
                    for q in factor_rational_prime(K, ell).ideals:
                        cls, _ = frobenius_image(G, q)
                        assert G.class_degree(cls) == \
                            cyclotomic_log(q.norm, p, N + 1), (d, p, N, q)
                        n += 1
    assert n == 1596


def test_frobenius_image_catches_a_wrong_character(monkeypatch):
    """With cyclotomic_log off by one, frobenius_image raises on Q at p = 3,
    N = 2 for every prime, those whose class coordinate is 1 included: the
    degree is checked against a dlog to the base 1 + p that reads no log.
    The relation check of group_G does not see the shift there."""
    real = classfield.cyclotomic_log
    monkeypatch.setattr(classfield, "cyclotomic_log",
                        lambda n, p, A: (real(n, p, A) + 1) % p**(A - 1))
    G = group_G(QQ, 3, 2)
    refused = []
    primes = (2, 5, 7, 11, 13, 17, 19, 23, 29)
    for ell in primes:
        try:
            frobenius_image(G, rational_ideal(QQ, ell))
        except InternalCheckError:
            refused.append(ell)
    assert refused == list(primes)
    assert [G.frobenius_class(rational_ideal(QQ, ell)).coords
            for ell in (2, 29)] == [(1,), (1,)]
    with pytest.raises(InternalCheckError, match="exact dlog"):
        frobenius_image(G, rational_ideal(QQ, 5))


def _sig(x):
    return (x.v, x.m, x.digits)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cyclotomic_log_matches_log_route(p):
    """cyclotomic_log on integer residues, and the dlog to the base 1 + p
    that frobenius_image checks it with, against angle_log over plog(1 + p)
    on PAdicNumbers, for n < 2000 prime to p (and -n) and A = 2..12."""
    for A in range(2, 13):
        for n in range(1, 2000):
            if n % p:
                want = cyclotomic_dlog_log_route(n, p, A)
                assert cyclotomic_log(n, p, A) == want, (n, p, A)
                assert cyclotomic_log(-n, p, A) == want, (-n, p, A)
                assert classfield._degree_without_log(n, p, A - 1) == want
    with pytest.raises(ValueError):
        cyclotomic_log(2 * p, p, 4)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_degree_matches_log_route(p):
    """GaloisGroupG.degree against the log route as (v, m, digits), for N =
    1..9 (A = N + 3) and norms n < 2000 prime to p."""
    for N in range(1, 10):
        G = group_G(QQ, p, N)
        for n in range(1, 2000):
            if n % p:
                q = rational_ideal(QQ, n)
                assert _sig(G.degree(q)) == _sig(degree_log_route(G, q)), \
                    (n, p, N)


MQ_LEVELS = [(1, 3, 2, 5), (2, 5, 2, 3), (79, 3, 2, 5), (10, 3, 7, 41)]


@pytest.mark.parametrize("d,p,l1,l2", MQ_LEVELS)
@pytest.mark.parametrize("N", [1, 2, 3])
def test_mq_order_builds_only_the_levels_it_reads(monkeypatch, d, p, l1, l2,
                                                  N):
    """mq_order builds one ray class group directly, p^(N+3), the top of the
    tower of (K, p), and reads p^(N+1) as its quotient; reading `stable` of
    the group G it keeps at N reads p^(N+2) as a quotient too, once."""
    iwasawa._degree_zero_level.cache_clear()
    rayclass.ray_class_tower.cache_clear()
    direct, quotient, build = [], [], rayclass.RayClassGroupData

    def record(K, modulus, p, top=None):
        (direct if top is None else quotient).append(modulus.norm)
        return build(K, modulus, p, top)
    monkeypatch.setattr(rayclass, "RayClassGroupData", record)
    K = QQ if d == 1 else RealQuadraticField(d)
    Q = tuple(factor_rational_prime(K, ell).ideals[0] for ell in (l1, l2))
    mq_order(K, p, Q, N)

    def norm(M):
        return rational_ideal(K, p**M).norm
    assert (direct, quotient) == ([norm(N + 3)], [norm(N + 1)])
    G = iwasawa._degree_zero_level(K, p, N, *Q)[0]
    assert (direct, quotient) == ([norm(N + 3)], [norm(N + 1)])
    assert G.stable in (True, False)
    assert (direct, quotient) == ([norm(N + 3)], [norm(N + 1), norm(N + 2)])

    def refuse(*args):
        raise RuntimeError("stable was built twice")
    monkeypatch.setattr(classfield, "ray_class_tower", refuse)
    assert G.stable == G.report()["stable"]


def test_tower_consistency():
    # the class of q in G_N determines its class in G_{N-1}
    g3 = group_G(QQ, 3, 3)
    g2 = group_G(QQ, 3, 2)
    for ell in (2, 5, 7, 11):
        q = rational_ideal(QQ, ell)
        c3 = g3.frobenius_class(q)
        c2 = g2.frobenius_class(q)
        assert c3.coords[0] % 9 == c2.coords[0] % 9


def test_degree_kernel_is_unit_part():
    # kernel of the cyclotomic map = image of the local units (cft sequence):
    # for F = Q the degree map is injective on G_N
    G = group_G(QQ, 3, 2)
    lat = degree_kernel_lattice(G)
    assert subgroup_order_from_lattice(G.group, lat) == 1
    # for Q(sqrt 79) at p=3 the class part (order 3) survives plus unit part
    G79 = group_G(RealQuadraticField(79), 3, 2)
    lat79 = degree_kernel_lattice(G79)
    assert subgroup_order_from_lattice(G79.group, lat79) == \
        G79.group.order // 3**G79.N


@pytest.mark.parametrize("d,p", [(1, 3), (1, 5), (2, 3), (2, 5), (79, 3),
                                 (79, 5)])
def test_transport_hom_matches_exact_solve(d, p):
    """The degree map through the generator lifts of the modular
    presentation, against the exact path it replaced: y*U = c solved over Q
    with the exact unimodular U.  The two presentations may pick different
    bases, so both are checked as homs, y.z = c.x mod p^(M-1) on ambient
    vectors x, and compared entry by entry where the transforms agree
    modulo R."""
    K = QQ if d == 1 else RealQuadraticField(d)
    rng = random.Random(10 * d + p)
    for M in (2, 3, 4):
        rc = ray_class_group(K, p**M, p)
        n, mod, keep = rc.ambient_rank, p**(M - 1), rc.p_keep
        c = [cyclotomic_log(x, p, M) for x in rc.units.gen_norm_ints()] + \
            [cyclotomic_log(q.norm, p, M) for q in rc.class_gen_ideals]
        y = _transport_hom(rc, c, mod)
        U = smith_presentation(rc.relations, n).full_transform
        y_exact = [t % mod for t in solve_integral_fractions(
            [[U[i][j] for i in range(n)] for j in range(n)], c)]
        assert all(y_exact[i] == 0 for i in range(n) if i not in keep)
        for _ in range(20):
            x = [rng.randint(-10**6, 10**6) for _ in range(n)]
            cx = sum(a * b for a, b in zip(c, x)) % mod
            z = rc.p_group.project(x).coords
            assert sum(a * b for a, b in zip(y, z)) % mod == cx
            z_exact = [sum(a * b for a, b in zip(U[i], x)) for i in keep]
            assert sum(y_exact[i] * t for i, t in zip(keep, z_exact)) \
                % mod == cx
        R = prod(rc.units.orders) * prod(rc.clg.gen_orders)
        if all((a - b) % R == 0 for row, row_exact in
               zip(rc.full_transform, U) for a, b in zip(row, row_exact)):
            assert y == [y_exact[i] for i in keep]


def test_e_of_q():
    assert e_of_q(7, 3) == 3
    assert e_of_q(11, 5) == 5
    assert e_of_q(49, 3) == 3
    assert e_of_q(5, 3) == 1
    with pytest.raises(ValueError):
        e_of_q(9, 3)


def test_even_criterion_q7_p3():
    rep = even_criterion(QQ, 3, 7, 2)
    assert rep["status"] == "pass"
    assert rep["inertia_orders"] == [3, 3]
    assert rep["e_q"] == 3


def test_even_criterion_trivial_eq():
    rep = even_criterion(QQ, 3, 5, 2)
    assert rep["status"] == "pass"
    assert rep["e_q"] == 1


def test_even_criterion_d2_inert_11_p5():
    q = factor_rational_prime(Q2, 11).ideals[0]  # inert, norm 121
    rep = even_criterion(Q2, 5, q, 1)
    assert rep["e_q"] == 5
    assert rep["status"] == "pass"


def test_even_criterion_d2_split_41_p5():
    q = factor_rational_prime(Q2, 41).ideals[0]  # split, norm 41
    rep = even_criterion(Q2, 5, q, 1)
    assert rep["e_q"] == 5
    assert rep["status"] == "pass"


@pytest.mark.parametrize("N", [0, -1, -3])
def test_even_criterion_refuses_n_below_1(N):
    # as group_G does: N = 0 and -1 would read conductors p^1/p^2 and
    # p^0/p^1, and N = -3 a float modulus
    with pytest.raises(ValueError, match="N must be at least 1"):
        even_criterion(QQ, 3, 7, N)


def test_report_schema():
    G = group_G(QQ, 3, 2)
    rep = G.report()
    assert rep["field"] == "Q" and rep["p"] == 3 and rep["N"] == 2
    assert rep["invariant_factors"] == [9]


def test_tower_consistency_quadratic():
    # exact cyclotomic positions are compatible along the tower
    g2 = group_G(Q2, 5, 2)
    g1 = group_G(Q2, 5, 1)
    for ell in (3, 7, 11):
        q = factor_rational_prime(Q2, ell).ideals[0]
        assert g2.class_degree(g2.frobenius_class(q)) % 5 == \
            g1.class_degree(g1.frobenius_class(q))
        # orders of Frobenius classes can only drop down the tower
        from iwasawalab.abgroup import element_order
        o2 = element_order(g2.group, g2.frobenius_class(q))
        o1 = element_order(g1.group, g1.frobenius_class(q))
        assert o2 % o1 == 0
