import random
import re
import signal
from math import prod

import pytest

from iwasawalab import classfield, cli, rayclass
from iwasawalab.abgroup import element_order
from iwasawalab.classfield import (group_G, frobenius_image, e_of_q,
                                   even_criterion, cyclotomic_log,
                                   degree_map)
from iwasawalab.iwasawa import mq_order
from iwasawalab.ntheory import InternalCheckError, is_squarefree, isprime
from iwasawalab.padic import PAdicNumber
from iwasawalab.quadfield import (RealQuadraticField, factor_rational_prime,
                                  prime_ideal, rational_ideal)
from iwasawalab.rayclass import ray_class_group
import oracles
from oracles import (as_object, count_builds, cyclotomic_dlog_log_route,
                     degree_hom, degree_kernel_lattice, degree_log_route,
                     empty_memos, exact_smith_form, group_identity,
                     invariant_hom, plog,
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
        da, db, dab = (as_object(G.degree(rational_ideal(QQ, n)))
                       for n in (a, b, a * b))
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
    """The degree of q read on its ambient vector, and the degree of its
    class under the oracle's hom on invariant coordinates, equal the exact
    cyclotomic position of N(q), on 13 fields x p in {3, 5, 7} x N in
    {1, 2, 3} x the primes below 42."""
    n = 0
    for d in FROBENIUS_FIELDS:
        K = QQ if d == 1 else RealQuadraticField(d)
        for p in (3, 5, 7):
            if not K.is_rational and K.D % p == 0:
                continue
            for N in (1, 2, 3):
                G = group_G(K, p, N)
                hom = degree_hom(G)
                for ell in range(2, 42):
                    if not isprime(ell) or ell == p:
                        continue
                    for q in factor_rational_prime(K, ell).ideals:
                        cls, _ = frobenius_image(G, q)
                        want = cyclotomic_log(q.norm, p, N + 1)
                        assert G.ambient_degree(q) == want, (d, p, N, q)
                        assert sum(a * c for a, c in zip(hom, cls)) \
                            % p**N == want, (d, p, N, q)
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
    on p-adic objects, for n < 2000 prime to p (and -n) and A = 2..12."""
    for A in range(2, 13):
        for n in range(1, 2000):
            if n % p:
                want = cyclotomic_dlog_log_route(n, p, A)
                assert cyclotomic_log(n, p, A) == want, (n, p, A)
                assert cyclotomic_log(-n, p, A) == want, (-n, p, A)
                assert classfield._degree_without_log(n, p, A - 1) == want
    with pytest.raises(ValueError):
        cyclotomic_log(2 * p, p, 4)


def test_degree_without_log_at_n_40_reads_digits():
    """At N = 40 the p^N part is read digit by digit: one baby-step
    giant-step over the subgroup of order p^40 would build a table of
    p^20 entries.  A 5 s setitimer raises instead of a hang, and the
    degrees are those of cyclotomic_log at A = 41."""
    def expired(*args):
        raise TimeoutError("_degree_without_log did not return in 5 s")
    handler = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        got = {(n, p): classfield._degree_without_log(n, p, 40)
               for p in (3, 5, 7) for n in (2, 11, 1001, 123456) if n % p}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert got == {(n, p): cyclotomic_log(n, p, 41) for n, p in got}


LADDER = range(2, 31)


def _ladder_norms(p, count=12, seed=42):
    """`count` seeded n in [2, 10^6) prime to p."""
    rng, ns = random.Random(seed * p), set()
    while len(ns) < count:
        n = rng.randrange(2, 10**6)
        if n % p:
            ns.add(n)
    return sorted(ns)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_log_records_read_alike_in_any_order_of_precision(p):
    """The precisions A = 2..30 read in ascending, descending and shuffled
    order, every memo emptied before each order: cyclotomic_log equals the
    log route, and the record of 1 + p holds log(1 + p) mod p^A, whose
    quotient by p has the log route's inverse mod p^(A-1)."""
    ns = _ladder_norms(p)
    want = {(n, A): cyclotomic_dlog_log_route(n, p, A)
            for n in ns for A in LADDER}
    gamma = {A: plog(PAdicNumber.exact(1 + p, p, A)).residue(A)
             for A in LADDER}
    shuffled = list(LADDER)
    random.Random(p).shuffle(shuffled)
    for order in (LADDER, reversed(LADDER), shuffled):
        empty_memos()
        for A in order:
            for n in ns:
                assert cyclotomic_log(n, p, A) == want[n, A], (n, A)
            record, mod = classfield.log_record(1 + p, p), p**(A - 1)
            assert record.log % p**A == gamma[A]
            assert pow(record.log // p, -1, mod) == \
                pow(gamma[A] // p, -1, mod), A
    empty_memos()


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
    tower of (K, p), and reads p^(N+3) at it and p^(N+1) below it, with no
    ray class record.  group_G at N then reads p^(N+1), whose coordinates
    `frobenius` prints, off the same top, with no ray class record, and
    reading `stable` of it reads p^(N+2) off the top, once."""
    empty_memos()
    direct, levels = count_builds(monkeypatch)
    K = QQ if d == 1 else RealQuadraticField(d)
    Q = tuple(factor_rational_prime(K, ell).ideals[0] for ell in (l1, l2))
    mq_order(K, p, Q, N)
    T = N + 3
    assert (direct, levels) == ([(d, p, T)], [(d, p, T, T), (d, p, N + 1, T)])
    G = group_G(K, p, N)
    assert (direct, levels[2:]) == ([(d, p, T)], [(d, p, N + 1, T)])
    assert G.stable in (True, False)
    assert (direct, levels[3:]) == ([(d, p, T)], [(d, p, N + 2, T)])

    def refuse(*args):
        raise RuntimeError("stable was built twice")
    monkeypatch.setattr(classfield, "ray_class_tower", refuse)
    assert G.stable == G.report()["stable"]
    empty_memos()


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
    """The degree map carried to invariant coordinates by the oracle's
    generator lifts (U^-1 by sympy's inv_mod) against the exact path: y*U
    = c solved over Q with the exact unimodular U of the oracle's
    exact_smith_form on the relations.  The two presentations
    may pick different bases, so both are checked as homs, y.z = c.x mod
    p^(M-1) on ambient vectors x, and compared entry by entry where the
    transforms agree modulo R.  The degree map is degree_map's, checked on
    the relations."""
    K = QQ if d == 1 else RealQuadraticField(d)
    rng = random.Random(10 * d + p)
    for M in (2, 3, 4):
        rc = ray_class_group(K, p**M, p)
        n, mod = len(rc.group.diag), p**(M - 1)
        keep = [i for i, d in enumerate(rc.p_group.diag) if d > 1]
        c = degree_map(rc, p, M, rc.relations)
        assert c == [cyclotomic_log(x, p, M) for x in
                     rc.units.gen_norm_ints()] + \
            [cyclotomic_log(q.norm, p, M) for q in rc.class_gen_ideals]
        y = invariant_hom(rc.p_group, c, mod)
        _, U = exact_smith_form([list(col) for col in zip(*rc.relations)])
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
               zip(rc.group.transform, U) for a, b in zip(row, row_exact)):
            assert y == [y_exact[i] for i in keep]


def test_a_map_that_breaks_a_relation_is_refused(monkeypatch):
    """degree_map checks the ambient map on every relation: with each
    generator of Cl_(9) of Q(sqrt 2) at p = 3 sent to 1, the order row of
    the inert component's torsion generator, (8, 0, 0), sums to 8, not 0
    mod 3."""
    rc = ray_class_group(RealQuadraticField(2), 9, 3)
    assert rc.relations[0] == [8, 0, 0]
    assert degree_map(rc, 3, 2, rc.relations)
    monkeypatch.setattr(classfield, "cyclotomic_log", lambda n, p, A: 1)
    with pytest.raises(InternalCheckError,
                       match="inconsistent with the relations"):
        degree_map(rc, 3, 2, rc.relations)


def test_an_ambient_degree_off_the_exact_one_is_refused():
    """frobenius_image reads the degree of q on its ambient vector too:
    with the ambient map of G moved by 1 on one generator, every class
    reads a degree but the one of N(q), and the exact dlog refuses it,
    while the class and the log degree are untouched."""
    for K, p in ((QQ, 3), (RealQuadraticField(79), 3), (Q2, 5)):
        G = group_G(K, p, 2)
        q = factor_rational_prime(K, 2 if p == 3 else 3).ideals[0]
        cls, deg = frobenius_image(G, q)
        j = next(j for j, x in enumerate(G.top.ambient_of_ideal(q))
                 if x % p)
        G.ambient_hom = list(G.ambient_hom)
        G.ambient_hom[j] += 1
        with pytest.raises(InternalCheckError, match="exact dlog"):
            frobenius_image(G, q)
        assert (G.frobenius_class(q), repr(G.degree(q))) == (cls, repr(deg))


def test_a_class_of_too_small_an_order_is_refused(monkeypatch):
    """The degree is a hom out of G_N, so the class of q has an order that
    is a multiple of the order of its degree in Z/p^N: with each class
    scaled by p, the class of 2 over Q at p = 3, N = 2, of order 9 and
    degree a unit, is refused, and so is the class of 2 over Q(sqrt 79),
    while every degree still equals the exact one."""
    scale = classfield.GaloisGroupG.frobenius_class

    def scaled(G, q):
        return G.group.scale(G.p, scale(G, q))
    monkeypatch.setattr(classfield.GaloisGroupG, "frobenius_class", scaled)
    for K in (QQ, RealQuadraticField(79)):
        G = group_G(K, 3, 2)
        q = factor_rational_prime(K, 2).ideals[0]
        assert G.ambient_degree(q) % 3
        with pytest.raises(InternalCheckError,
                           match="not a multiple of the order of its degree"):
            frobenius_image(G, q)


def test_e_of_q():
    assert e_of_q(7, 3) == 3
    assert e_of_q(11, 5) == 5
    assert e_of_q(49, 3) == 3
    assert e_of_q(5, 3) == 1
    with pytest.raises(ValueError):
        e_of_q(9, 3)


@pytest.mark.parametrize("call,shown", [
    (lambda: e_of_q(7.5, 3), "7.5"),
    (lambda: e_of_q("7", 3), "'7'"),
    (lambda: e_of_q(True, 3), "True"),
    (lambda: even_criterion(RealQuadraticField(79), 3, 7.0, 2), "7.0"),
    (lambda: even_criterion(QQ, 3, True, 2), "True"),
    (lambda: prime_ideal(QQ, "7"), "'7'"),
], ids=["e-float", "e-str", "e-bool", "even-float", "even-bool",
        "prime-str"])
def test_a_q_that_is_no_ideal_or_int_is_refused(call, shown):
    """e_of_q and prime_ideal take an IntegralIdeal or an int, and no bool:
    any other q is refused by a ValueError that names it, not read by
    int() nor failing on a missing attribute."""
    with pytest.raises(ValueError,
                       match=r"^q must be an int, got %s$"
                       % re.escape(shown)):
        call()


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
        assert g2.ambient_degree(q) % 5 == g1.ambient_degree(q)
        # orders of Frobenius classes can only drop down the tower
        from iwasawalab.abgroup import element_order
        o2 = element_order(g2.group, g2.frobenius_class(q))
        o1 = element_order(g1.group, g1.frobenius_class(q))
        assert o2 % o1 == 0


def _golden_frobenius_cases():
    """(K, p, N, primes, printed classes) of each frobenius golden, read off
    its command line and its recorded document."""
    import json
    from test_golden import CASES, GOLDEN_DIR
    cases = []
    for name, _, argv in CASES:
        if "frobenius" not in argv:
            continue
        opts = {}
        for flag, value in zip(argv, argv[1:]):
            opts.setdefault(flag, []).append(value)
        K = RealQuadraticField.parse(opts["--field"][0])
        doc = json.loads((GOLDEN_DIR / (name + ".out")).read_text())
        cases.append((K, int(opts["--p"][0]), int(opts["--prec"][0]),
                      [cli._parse_prime_ideal(K, s) for s in opts["--q"]],
                      [tuple(f["class"]) for f in doc["frobenius"]]))
    return cases


def _canonical_grid(draws=8, seed=53):
    """(K, p, N, primes, None): `draws` seeded (d, p, N), d squarefree in
    [2, 200), p in {3, 5, 7} prime to the discriminant and N in {1, 2, 3},
    with the prime ideals of norm below 40 prime to p."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < draws:
        d, p, N = rng.randrange(2, 200), rng.choice((3, 5, 7)), \
            rng.choice((1, 2, 3))
        K = RealQuadraticField(d) if is_squarefree(d) else None
        if K is None or K.D % p == 0:
            continue
        primes = [q for ell in range(2, 40) if isprime(ell) and ell != p
                  for q in factor_rational_prime(K, ell).ideals
                  if q.norm < 40]
        cases.append((K, p, N, primes, None))
    return cases


def test_printed_classes_are_one_vector_from_every_top():
    """The Frobenius classes of every frobenius golden and of a seeded
    grid, at conductor p^(N+1), read off tops p^(N+2) to p^(N+8), with the
    top's relation rows as built and shuffled, give one vector per class:
    the golden's printed one where there is a golden.  So does group_G,
    asked of the cases in forward and in reverse order from emptied memos.
    oracles.level_class_map takes the group onto the direct build's p-part
    at p^(N+1), each class to the direct build's, of the same order."""
    rng = random.Random(53)
    cases = _golden_frobenius_cases() + _canonical_grid()
    read = {}
    for K, p, N, primes, printed in cases:
        rc = ray_class_group(K, p**(N + 1), p)
        vectors = set()
        for T in range(N + 2, N + 9):
            tower = rayclass.RayClassTower(K, p)
            top = tower.grow(T)
            for shuffle in (False, True):
                if shuffle:
                    rng.shuffle(top.relations)
                G = tower.p_level(N + 1)[1]
                classes = tuple(G.project(top.ambient_of_ideal(q)).coords
                                for q in primes)
                vectors.add(classes)
        assert len(vectors) == 1, (K, p, N)
        assert printed in (None, list(classes)), (K, p, N)
        assert G.invariant_factors == rc.p_group.invariant_factors
        image = oracles.level_class_map(G, rc.p_group)
        for q, c in zip(primes, classes):
            want = oracles.p_class_of_ideal(rc, q)
            assert image(G.element(c)) == want, (K, p, N, q)
            assert element_order(G, G.element(c)) == \
                element_order(rc.p_group, want)
        read[K, p, N] = classes
    for order in (cases, cases[::-1]):
        empty_memos()
        for K, p, N, primes, _ in order:
            G = group_G(K, p, N)
            assert tuple(G.frobenius_class(q).coords for q in primes) == \
                read[K, p, N], (K, p, N)
    empty_memos()
