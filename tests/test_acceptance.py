"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random

from iwasawalab.abgroup import subgroup_image_order
from iwasawalab.classfield import e_of_q, even_criterion, group_G
from iwasawalab.iwasawa import (defect_never_one_scan, greenberg_wiles,
                                leopoldt_defect, mq_order)
from iwasawalab.kummer import construct_alpha, verify_alpha
from iwasawalab.localize import TRUE
from iwasawalab.padic import PAdicNumber, teichmueller
from iwasawalab.quadfield import (RealQuadraticField, class_group,
                                  factor_rational_prime, fundamental_unit,
                                  rational_ideal)
from iwasawalab.rayclass import ray_class_group

from oracles import (PAdicObject, angle, angle_log, as_object,
                     degree_zero_pair_element, fundamental_unit_oracle, plog,
                     scale_exponents, sqrt_pair, squarefree,
                     wide_class_number_oracle)

QQ = RealQuadraticField.rationals()


def _report(n, text):
    print("ACCEPTANCE %2d PASS: %s" % (n, text))


def test_criterion_1_padic_kernel():
    rng = random.Random(0xACCE01)
    checks = 0
    for _ in range(140):
        p = rng.choice([3, 5, 7])
        N = rng.randrange(4, 13)
        n = rng.randrange(1, p**N)
        if n % p == 0:
            n += 1
        x = PAdicNumber.of(n, p, N)
        # omega * <.> reconstruction
        y = as_object(teichmueller(x)) * angle(x)
        assert y.residue(N) == n % p**N
        checks += 1
        # log homomorphism on 1-units
        a = 1 + p * rng.randrange(0, p**(N - 1))
        b = 1 + p * rng.randrange(0, p**(N - 1))
        u = PAdicObject.of(a, p, N)
        w = PAdicObject.of(b, p, N)
        assert (plog(u * w) - plog(u) - plog(w)).is_marker
        checks += 1
        # precision monotonicity: N+2 digits agree on the claimed digits
        lo = angle(PAdicNumber.of(n, p, N))
        hi = angle(PAdicNumber.of(n, p, N + 2))
        assert hi.residue(lo.abs_prec) == lo.residue(lo.abs_prec)
        checks += 1
        llo = plog(lo)
        if not llo.is_marker:
            assert plog(hi).residue(llo.abs_prec) == llo.residue(llo.abs_prec)
            checks += 1
        # Teichmueller is a (p-1)-st root of unity congruent to x
        t = teichmueller(x)
        assert (as_object(t) ** (p - 1)).residue(N) == 1
        assert t.residue(1) == n % p
        checks += 2
        # angle lands in 1 + pZ_p and angle_log matches plog(angle)
        ang = angle(x)
        assert ang.residue(1) == 1
        checks += 1
        if not plog(ang).is_marker:
            assert (angle_log(x) - plog(ang)).is_marker
            checks += 1
    assert checks >= 1000
    _report(1, "%d randomized p-adic kernel identities at p in {3,5,7}, "
               "N <= 12" % checks)


def test_criterion_2_class_groups_and_units():
    count = 0
    for d in range(2, 201):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        assert class_group(K).h == wide_class_number_oracle(d), d
        count += 1
    units = 0
    for d in range(2, 101):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        eps = fundamental_unit(K)
        T, U, sign = fundamental_unit_oracle(d)
        u, v = eps.sqrt_coords()
        assert (2 * u, 2 * v) == (T, U), d
        assert eps.norm() == sign, d
        units += 1
    _report(2, "class groups match the form-cycle oracle for %d squarefree "
               "d <= 200; units match the Pell oracle for %d fields d <= 100"
            % (count, units))


def test_criterion_3_ray_class_exact_sequence():
    rc = ray_class_group(QQ, 63, 3)
    assert rc.p_order == 9
    rng = random.Random(0xACCE03)
    fields = [QQ] + [RealQuadraticField(d) for d in (2, 3, 7, 10, 11, 79)]
    done = 0
    while done < 20:
        K = rng.choice(fields)
        p = rng.choice([3, 5, 7])
        if not K.is_rational and K.D % p == 0:
            continue
        n = rng.choice([5, 7, 9, 11, 13, 25, 27, 49, 63, 121])
        try:
            rc = ray_class_group(K, n * p**rng.randrange(1, 3), p)
        except ValueError:
            continue
        ident = rc.order_identity()
        assert ident["full"][0] == ident["full"][1]
        assert ident["p"][0] == ident["p"][1]
        done += 1
    _report(3, "order identity of the level-0 ray-class sequence holds for "
               "20 random (K, m, p) triples; (Q, 63, 3) has 3-part order 9")


def test_criterion_4_frobenius_degrees():
    G = group_G(QQ, 3, 2)
    deg2 = G.degree(rational_ideal(QQ, 2))
    deg5 = G.degree(rational_ideal(QQ, 5))
    assert deg2.residue(2) == 5
    assert deg5.residue(2) == 7
    rep = mq_order(QQ, 3, (2, 5), 3)
    assert rep.a1.residue(2) == 4
    assert pow(25, 4, 27) * 22 % 27 == 1  # <2>^4 <5> = 1 mod 27
    _report(4, "deg(Frob_2) = 5 mod 9, deg(Frob_5) = 7 mod 9, "
               "a1(2,5) = 4 mod 9, <2>^4<5> = 1 mod 27")


def _quadratic_roundtrip_cases():
    K79 = RealQuadraticField(79)
    K2 = RealQuadraticField(2)
    K3 = RealQuadraticField(3)
    K10 = RealQuadraticField(10)
    q41 = None
    from iwasawalab.quadfield import ideal_valuation
    elt = sqrt_pair(K10, 9, 1)
    for q in factor_rational_prime(K10, 41).ideals:
        if ideal_valuation(elt, q) > 0:
            q41 = q
    return [
        (K2, 5, (factor_rational_prime(K2, 2).ideals[0],
                 rational_ideal(K2, 3)), 2, 11, 1),
        (K3, 5, (factor_rational_prime(K3, 2).ideals[0],
                 factor_rational_prime(K3, 3).ideals[0]), 2, 18, 1),
        (K10, 3, (rational_ideal(K10, 7), q41), 2, 2, 1),
        (K79, 3, (factor_rational_prime(K79, 2).ideals[0],
                  factor_rational_prime(K79, 5).ideals[0]), 2, 4, 9),
    ]


def test_criterion_5_certificate_roundtrip():
    from iwasawalab.padic import vp
    cert = construct_alpha(QQ, 3, (2, 5), 3)
    assert cert.status == "accepted"
    assert cert.a_exponent == 0 and cert.m_q == 1
    cases = 0
    for (K, p, Q, N, a1_mod_p2, mq) in _quadratic_roundtrip_cases():
        c = construct_alpha(K, p, Q, N)
        assert c.status == "accepted", (K.d, p)
        rep = mq_order(K, p, Q, N)
        assert rep.a1.residue(2) == a1_mod_p2   # oracle-frozen a1 mod p^2
        assert c.m_q == mq
        mv = vp(mq, p) if mq % p == 0 else 0
        assert c.a_exponent == mv
        cases += 1
    # randomized divisibility direction
    rng = random.Random(0xACCE05)
    q_pair = (rational_ideal(QQ, 2), rational_ideal(QQ, 5))
    for _ in range(20):
        k = rng.randrange(0, 3)
        extra = rng.choice([1, 1 + 3**(k + 1), 2 * 3**k + 1])
        alpha2 = scale_exponents(cert.alpha, 3**k * extra)
        c2 = verify_alpha(alpha2, QQ, 3, q_pair, 3)
        assert c2.status == "accepted"
        assert c2.a_exponent >= 0
    _report(5, "construct -> verify accepts with a-exponent = v_p(m_Q) for "
               "(Q,3,{2,5}) and %d oracle-fixed quadratic cases; 20 "
               "rescalings satisfy the divisibility direction" % cases)


def test_criterion_6_trivial_mq_consequence():
    cases = [
        (QQ, 3, (rational_ideal(QQ, 2), rational_ideal(QQ, 5)), 3),
        (QQ, 5, (rational_ideal(QQ, 2), rational_ideal(QQ, 3)), 3),
        (QQ, 7, (rational_ideal(QQ, 2), rational_ideal(QQ, 5)), 3),
    ]
    K2 = RealQuadraticField(2)
    cases.append((K2, 5, (factor_rational_prime(K2, 2).ideals[0],
                          rational_ideal(K2, 3)), 2))
    K3 = RealQuadraticField(3)
    cases.append((K3, 5, (factor_rational_prime(K3, 2).ideals[0],
                          factor_rational_prime(K3, 3).ideals[0]), 2))
    n = 0
    for (K, p, Q, N) in cases:
        cert = construct_alpha(K, p, Q, N)
        assert cert.status == "accepted"
        if cert.m_q != 1:
            continue
        assert cert.loc_p_torsion == TRUE          # loc_p(alpha) = 1 at prec
        assert cert.val_q1.v == 0 and cert.val_q2.v == 0  # unit valuations
        n += 1
    assert n >= 4
    _report(6, "every certified m_Q = 1 case (%d cases) gives "
               "loc_p(alpha) = 1 within precision and unit valuations" % n)


def test_criterion_7_even_criterion():
    # (F = Q, p = 3, q = 7): ratio exactly 3
    rep = even_criterion(QQ, 3, rational_ideal(QQ, 7), 2)
    assert rep["status"] == "pass" and rep["inertia_orders"] == [3, 3]
    total = 0
    fields = [(QQ, 3), (RealQuadraticField(2), 3),
              (RealQuadraticField(7), 3), (RealQuadraticField(10), 3),
              (RealQuadraticField(11), 3), (RealQuadraticField(13), 3)]
    for (K, p) in fields:
        found = 0
        ell = 2
        while found < 10:
            ell += 1
            from iwasawalab.ntheory import isprime
            if not isprime(ell) or ell == p or K.D % ell == 0:
                continue
            q = factor_rational_prime(K, ell).ideals[0]
            eq = e_of_q(q, p)
            if eq == 1:
                continue
            # the inertia image saturates once the tower depth reaches
            # v_p(e(q)); run the two-level check from that depth
            from iwasawalab.padic import vp
            rep = even_criterion(K, p, q, max(1, vp(eq, p)))
            assert rep["status"] == "pass", (K.spec_string(), ell)
            assert rep["inertia_orders"][0] == rep["e_q"]
            found += 1
            total += 1
    _report(7, "inertia order equals e(q) stably at two moduli for %d "
               "primes with e(q) > 1 across Q and 5 real quadratic fields"
            % total)


def test_criterion_8_leopoldt_scan():
    report = defect_never_one_scan(50, [3, 5, 7], N=8)
    assert report["violations"] == []
    assert report["indeterminates"] == []
    checked = 0
    for row in report["rows"]:
        if row["status"] == "ok":
            assert row["delta"] == 0
            checked += 1
        else:
            assert row["status"] == "skipped_ramified"
    _report(8, "delta = 0 at certified precision N=8 for %d unramified "
               "(d <= 50, p in {3,5,7}) pairs; no delta = 1, no "
               "indeterminates" % checked)


def test_criterion_9_greenberg_wiles():
    assert greenberg_wiles(0, 0, []) == 0
    assert greenberg_wiles(1, 0, [(2, 1), (0, 0)]) == 2
    assert greenberg_wiles(2, 3, [(1, 0), (0, 2), (4, 4)]) == -2
    # Q_p(1) over Q with everywhere-unramified conditions and L_p = 0:
    # h0(Q, Qp(1)) = 0, h0(Q, Qp) = 1, local terms vanish at p and infinity
    delta = leopoldt_defect(QQ, 3, 6).defect
    assert greenberg_wiles(0, 1, [(0, 0), (0, 0)]) == -(1 + delta) == -1
    _report(9, "evaluator matches hand fixtures, including the "
               "delta = 0 fixture for Q_p(1) over Q")


def test_criterion_10_span_property():
    # F = Q, p = 3: three inert-in-the-tower primes
    G = group_G(QQ, 3, 3)
    q2, q5, q11 = (rational_ideal(QQ, ell) for ell in (2, 5, 11))
    g12 = degree_zero_pair_element(G, q2, q5)
    g13 = degree_zero_pair_element(G, q2, q11)
    g23 = degree_zero_pair_element(G, q5, q11)
    pairwise = subgroup_image_order(G.group, [g13, g23])
    full = subgroup_image_order(G.group, [g12, g13, g23])
    assert pairwise == full
    # quadratic case with a nontrivial module: Q(sqrt 79), p = 3
    K = RealQuadraticField(79)
    G79 = group_G(K, 3, 2)
    qa = factor_rational_prime(K, 2).ideals[0]
    qb, qc = factor_rational_prime(K, 5).ideals
    h_ab = degree_zero_pair_element(G79, qa, qc)
    h_bc = degree_zero_pair_element(G79, qb, qc)
    h_ab2 = degree_zero_pair_element(G79, qa, qb)
    pw = subgroup_image_order(G79.group, [h_ab, h_bc])
    fl = subgroup_image_order(G79.group, [h_ab, h_bc, h_ab2])
    assert pw == fl
    _report(10, "pairwise degree-0 images span the full degree-0 module "
                "in G_N for (Q, 3) and (Q(sqrt 79), 3)")
