import functools
import random
import sys
from math import gcd

import pytest

from iwasawalab import (classfield, cli, iwasawa, localize, padic,
                        quadfield, rayclass)
from iwasawalab.abgroup import (FiniteAbelianGroup, element_order,
                                subgroup_image_order)
from iwasawalab.classfield import (e_of_q, even_criterion, frobenius_image,
                                   group_G)
from iwasawalab.iwasawa import (is_inert_in_cyclotomic, mq_generator,
                                mq_order, leopoldt_defect, greenberg_wiles,
                                defect_never_one_scan)
from iwasawalab.kummer import construct_alpha
from iwasawalab.localize import completions_above_p
from iwasawalab.ntheory import (InternalCheckError, is_squarefree, isprime,
                                legendre)
from iwasawalab.padic import PAdicNumber, vp
from iwasawalab.quadfield import (RealQuadraticField, factor_rational_prime,
                                  fundamental_unit, ideal_valuation,
                                  parts_valuation, prime_kind, rational_ideal,
                                  split_root)
import oracles
from oracles import (angle_log, count_builds, degree_hom,
                     degree_kernel_lattice,
                     degree_log_route, degree_zero_pair_element, empty_memos,
                     lattice_intersection,
                     leopoldt_defect_log_route,
                     leopoldt_defect_square_exponent,
                     mq_generator_log_route, mq_order_log_route,
                     rounded_degree_zero_log_route,
                     sqrt_pair, subgroup_lattice,
                     subgroup_order_from_lattice)

QQ = RealQuadraticField.rationals()
Q2 = RealQuadraticField(2)


@pytest.mark.parametrize("p", [0, 1, 2, 9, -3, 3.0, True])
@pytest.mark.parametrize("call", [
    lambda p: mq_generator(QQ, p, (2, 5), 2),
    lambda p: mq_order(QQ, p, (2, 5), 2),
    lambda p: construct_alpha(QQ, p, (2, 5), 2),
    lambda p: even_criterion(QQ, p, 7, 2),
    lambda p: is_inert_in_cyclotomic(2, QQ, p),
    lambda p: e_of_q(7, p),
], ids=["mq_generator", "mq_order", "construct_alpha", "even_criterion",
        "is_inert_in_cyclotomic", "e_of_q"])
def test_a_bad_p_is_refused_before_any_arithmetic(call, p):
    with pytest.raises(ValueError, match="^p must be an odd prime$"):
        call(p)

def test_inert_in_cyclotomic():
    assert is_inert_in_cyclotomic(2, QQ, 3)
    assert not is_inert_in_cyclotomic(17, QQ, 3)  # v3(288) = 2
    with pytest.raises(ValueError):
        is_inert_in_cyclotomic(3, QQ, 3)


@pytest.mark.parametrize("d,ell,kind", [
    (2, 7, "split"), (2, 2, "ramified"), (79, 5, "split"),
    (79, 2, "ramified"), (10, 41, "split"), (10, 5, "ramified")])
def test_an_int_q_that_is_not_prime_is_refused(d, ell, kind):
    """An int q stands for the ideal (q); above a split or ramified q that
    ideal is not prime, and both entry points refuse it, as mq_order does,
    while a prime above ell is taken."""
    K = RealQuadraticField(d)
    assert factor_rational_prime(K, ell).kind == kind
    for call in (lambda q: even_criterion(K, 3, q, 2),
                 lambda q: is_inert_in_cyclotomic(q, K, 3)):
        with pytest.raises(ValueError, match="^not a prime ideal: "):
            call(ell)
        call(factor_rational_prime(K, ell).ideals[0])


def test_an_ideal_q_that_is_not_prime_is_refused():
    """The ideal (7) of Q(sqrt 2), 7 split, is refused as the int 7 is:
    even_criterion certified "fail" with [9, 9] on it, and
    is_inert_in_cyclotomic answered True.  So are a split prime's square
    and the product of its two factors, also in a pair for mq_order."""
    q, qc = factor_rational_prime(Q2, 7).ideals
    for ideal in (rational_ideal(Q2, 7), q * q, q * qc, q * q * qc):
        with pytest.raises(ValueError, match="^not a prime ideal: "):
            even_criterion(Q2, 3, ideal, 2)
        with pytest.raises(ValueError, match="^not a prime ideal: "):
            is_inert_in_cyclotomic(ideal, Q2, 3)
        with pytest.raises(ValueError, match="^not a prime ideal: "):
            mq_order(Q2, 3, (ideal, 5), 2)
    assert is_inert_in_cyclotomic(q, Q2, 3)
    assert mq_order(Q2, 3, (q, 5), 2).q1 == q


def test_an_int_q_that_is_prime_is_taken():
    """Over Q every prime ell is the prime ideal (ell), and an inert ell
    of Q(sqrt 2) is one too: the ints the tests and selftest pass."""
    for ell in (2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        is_inert_in_cyclotomic(ell, QQ, 3)
        assert even_criterion(QQ, 3, ell, 2)["norm_q"] == ell
    assert even_criterion(QQ, 3, 7, 2)["status"] == "pass"
    assert is_inert_in_cyclotomic(5, Q2, 3)
    assert even_criterion(Q2, 3, 5, 2)["norm_q"] == 25
    assert mq_order(QQ, 3, (2, 5), 3).m_q == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_generates_cyclotomic_reads_the_power_mod_p_squared(p):
    """n^(p-1) = 1 mod p for n prime to p, so v_p(n^(p-1) - 1) = 1, read
    on the exact power, is n^(p-1) != 1 mod p^2, as _generates_cyclotomic
    reads it: the two agree on every n in [2, 10^4) prime to p (at
    n = 1 the difference is 0, which has no valuation)."""
    for n in range(2, 10**4):
        if n % p:
            assert iwasawa._generates_cyclotomic(n, p) == \
                (vp(pow(n, p - 1) - 1, p) == 1), n


def test_even_criterion_at_7_over_q_sqrt_2():
    """The ideal (7) of Q(sqrt 2) is refused; the prime (7; 0; 1) above 7
    passes with inertia orders [3, 3]."""
    q = factor_rational_prime(Q2, 7).ideals[0]
    rep = even_criterion(Q2, 3, q, 2)
    assert (rep["q"], rep["inertia_orders"], rep["status"]) == \
        ("(7; 0; 1)", [3, 3], "pass")


def test_mq_generator_q_2_5():
    rep = mq_generator(QQ, 3, (2, 5), 3)
    assert rep.a1.residue(2) == 4  # a1 = 4 mod 9
    # <2>^4 <5> = 1 mod 27
    assert pow(25, 4, 27) * 22 % 27 == 1


def test_mq_generator_rejects():
    with pytest.raises(ValueError):
        mq_generator(QQ, 3, (2, 2), 3)
    with pytest.raises(ValueError):
        mq_generator(QQ, 3, (17, 5), 3)


def test_mq_order_rational():
    rep = mq_order(QQ, 3, (2, 5), 3)
    assert rep.m_q == 1 and rep.stable


def test_mq_order_d2_p5():
    # oracle-frozen: Q = {(sqrt2), (3)}, a1 = 11 mod 25, m_Q = 1
    q1 = factor_rational_prime(Q2, 2).ideals[0]   # (sqrt2), norm 2
    q2 = rational_ideal(Q2, 3)                    # inert, norm 9
    rep = mq_order(Q2, 5, (q1, q2), 2)
    assert rep.a1.residue(2) == 11
    assert rep.m_q == 1 and rep.stable


def test_mq_order_d3_p5():
    # oracle-frozen: norms (2, 3), a1 = 18 mod 25, m_Q = 1
    K = RealQuadraticField(3)
    q1 = factor_rational_prime(K, 2).ideals[0]
    q2 = factor_rational_prime(K, 3).ideals[0]
    rep = mq_order(K, 5, (q1, q2), 2)
    assert rep.a1.residue(2) == 18
    assert rep.m_q == 1 and rep.stable


def test_mq_order_d10_p3():
    # oracle-frozen: norms (49, 41), a1 = 2 mod 9, m_Q = 1
    from iwasawalab.quadfield import ideal_valuation
    K = RealQuadraticField(10)
    q1 = rational_ideal(K, 7)                    # inert, norm 49
    elt = sqrt_pair(K, 9, 1)                     # 9 + 2*sqrt(10), norm 41
    assert elt.norm() == 41
    q2 = next(q for q in factor_rational_prime(K, 41).ideals
              if ideal_valuation(elt, q) > 0)
    rep = mq_order(K, 3, (q1, q2), 2)
    assert rep.a1.residue(2) == 2
    assert rep.m_q == 1 and rep.stable


def test_mq_order_d79_p3_nontrivial():
    # oracle-frozen: m_Q = 9 for Q = {prime over 2, prime over 5}
    K = RealQuadraticField(79)
    q1 = factor_rational_prime(K, 2).ideals[0]   # ramified, norm 2
    q5 = factor_rational_prime(K, 5).ideals[0]
    rep = mq_order(K, 3, (q1, q5), 2)
    assert rep.a1.residue(2) == 4   # same logs as (2, 5) over Q
    assert rep.m_q == 9 and rep.stable


def test_mq_order_takes_two_frobenius_classes_per_level(monkeypatch):
    """Each of the two levels of mq_order reads the ambient vectors of q1
    and q2 at the tower's top once, and no other."""
    reads, level = [], iwasawa._degree_zero_level
    ambient_of_ideal = rayclass.RayClassGroupData.ambient_of_ideal

    def counted_level(K, p, L, q1, q2):
        reads.append(L)
        return level(K, p, L, q1, q2)

    def counted(rc, q):
        reads.append(q)
        return ambient_of_ideal(rc, q)
    monkeypatch.setattr(iwasawa, "_degree_zero_level", counted_level)
    monkeypatch.setattr(rayclass.RayClassGroupData, "ambient_of_ideal",
                        counted)
    empty_memos()
    K = RealQuadraticField(79)
    q1 = factor_rational_prime(K, 2).ideals[0]
    q5 = factor_rational_prime(K, 5).ideals[0]
    assert mq_order(K, 3, (q1, q5), 2).m_q == 9
    assert reads == [4, q1, q5, 2, q1, q5]
    empty_memos()


def _prime(K, spec):
    """'7' for the first prime over 7; '7a'/'7b' for a split place."""
    ideals = factor_rational_prime(K, int(spec.rstrip("ab"))).ideals
    return ideals[1] if spec.endswith("b") else ideals[0]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("d,p,s1,s2", [
    (1, 3, "2", "5"), (2, 3, "5", "7a"), (7, 5, "3a", "3b"),
    (10, 3, "7", "41a"), (79, 3, "2", "5a")])
def test_degree_zero_count_matches_lattice_route(d, p, s1, s2, N):
    """At both levels of mq_order, |<F1, F2>| / |deg <F1, F2>| (the count
    mq_order checks the element order against) equals the order of
    <F1, F2> meet ker deg by the exact lattice intersection."""
    K = QQ if d == 1 else RealQuadraticField(d)
    Q = (_prime(K, s1), _prime(K, s2))
    rep = mq_order(K, p, Q, N)
    for L, order in zip((N, N + 2), rep.provisional_orders):
        G = group_G(K, p, L)
        F1, F2, v1, _ = rounded_degree_zero_log_route(G, *Q)
        pL, hom = p**L, degree_hom(G)
        degs = [sum(c * f for c, f in zip(hom, F)) for F in (F1, F2)]
        count = subgroup_image_order(G.group, [F1, F2]) // \
            (pL // gcd(pL, *degs))
        S = subgroup_lattice(G.group, [F1, F2])
        inter = lattice_intersection(S, degree_kernel_lattice(G))
        assert L >= v1
        assert count == subgroup_order_from_lattice(G.group, inter) == order


def test_mq_order_cross_check_is_live(monkeypatch):
    """A degree-0 element of the wrong order trips the subgroup count: the
    sum a1*F1 + F2 in the quotient level, scaled by p."""
    add = FiniteAbelianGroup.add

    def scaled(G, g, h):
        return G.scale(3, add(G, g, h))
    monkeypatch.setattr(FiniteAbelianGroup, "add", scaled)
    # the memos are emptied before, so that they do not hide the patch,
    # and after, so that no level read through the patch outlives the test
    empty_memos()
    K = RealQuadraticField(79)
    try:
        with pytest.raises(InternalCheckError,
                           match="subgroup and element orders disagree"):
            mq_order(K, 3, (_prime(K, "2"), _prime(K, "5a")), 4)
    finally:
        empty_memos()


# fields, p and q-pairs of mq_order: inert, split and ramified q, and the
# Frobenius module of Q(sqrt 79) at p = 3 with m_Q = 9
MQ_GRID = [(1, 3, "2", "5"), (1, 5, "2", "3"), (1, 7, "3", "5"),
           (2, 3, "5", "7a"), (2, 5, "2", "3"), (7, 5, "3a", "3b"),
           (10, 3, "7", "41a"), (79, 3, "2", "5a"), (79, 3, "5b", "2")]
# the kummer-alpha benchmark fixture pairs that MQ_GRID does not hold
ALPHA_FIXTURE_PAIRS = [(3, 5, "2", "3"), (5, 3, "2", "7"), (7, 3, "5", "11"),
                       (11, 5, "3", "13"), (13, 3, "2", "5")]


def _field(d):
    return QQ if d == 1 else RealQuadraticField(d)


def _report_fields(rep):
    """Every field of a FrobeniusModuleReport, read from its own attributes,
    a1 as (v, m, digits)."""
    out = dict(vars(rep))
    a1 = out["a1"]
    out["a1"] = (a1.v, a1.m, a1.digits)
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("d,p,s1,s2", MQ_GRID + ALPHA_FIXTURE_PAIRS)
def test_frobenius_module_report_matches_log_route(d, p, s1, s2, N):
    """Every field of the mq_order report, degree_zero_margin (N + 2)
    included, equals the angle_log/plog route it replaced."""
    K = _field(d)
    Q = (_prime(K, s1), _prime(K, s2))
    rep, want = mq_order(K, p, Q, N), mq_order_log_route(K, p, Q, N)
    assert _report_fields(rep) == _report_fields(want)
    assert rep.degree_zero_margin == N + 2
    assert rep.to_json() == want.to_json()


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("d,p,s1,s2", MQ_GRID + ALPHA_FIXTURE_PAIRS)
def test_mq_order_from_the_level_memo_equals_a_fresh_one(monkeypatch, d, p,
                                                         s1, s2, N):
    """Level N + 2 of the query at N is level N of the query at N + 2, as in
    the kummer-alpha batches: read from the tower of (K, p) after the query
    at N + 2, it gives the report that emptied memos give."""
    K = _field(d)
    Q = (_prime(K, s1), _prime(K, s2))
    made = []
    level = iwasawa._degree_zero_level

    def counted(K, p, L, q1, q2):
        made.append(L)
        return level(K, p, L, q1, q2)
    monkeypatch.setattr(iwasawa, "_degree_zero_level", counted)
    empty_memos()
    mq_order(K, p, Q, N + 2)
    rep = mq_order(K, p, Q, N)
    assert made == [N + 4, N + 2, N]
    assert sorted(rayclass.ray_class_tower(K, p).pairs[Q]) == \
        [N, N + 2, N + 4]
    empty_memos()
    fresh = mq_order(K, p, Q, N)
    assert made == [N + 4, N + 2, N, N + 2, N]
    assert _report_fields(rep) == _report_fields(fresh)
    assert rep.to_json() == fresh.to_json()


@pytest.mark.parametrize("d,p,s1,s2", MQ_GRID + ALPHA_FIXTURE_PAIRS)
def test_mq_generator_matches_log_route_in_any_order(d, p, s1, s2):
    """mq_generator, a1 read on the integer residues of the log records,
    has every field of the log route's report at N = 1..12, asked in
    ascending and in descending N with the memos emptied before each."""
    K = _field(d)
    Q = (_prime(K, s1), _prime(K, s2))
    want = {N: _report_fields(mq_generator_log_route(K, p, Q, N))
            for N in range(1, 13)}
    for order in (range(1, 13), range(12, 0, -1)):
        empty_memos()
        for N in order:
            assert _report_fields(mq_generator(K, p, Q, N)) == want[N], N
    empty_memos()


@pytest.mark.parametrize("d,p", sorted({(d, p) for d, p, _, _ in
                                        MQ_GRID + ALPHA_FIXTURE_PAIRS}))
def test_quotient_level_equals_the_direct_build(d, p):
    """The level (p^M) that p_level reads off a top at (p^T), for every T
    in 3..14 and every M < T (M >= 2, as the tower serves), is the same
    from every top: the Hermite form, the group record and the class of
    every prime ideal of norm below 100 prime to p, the top's ambient
    vector projected.  The degree map vanishes on the Hermite rows, and
    oracles.level_class_map, an isomorphism onto the direct build at
    (p^M), takes each class to the direct build's, of the same order.
    Each top is a fresh tower's, built at exactly (p^T), and serves as the
    direct build there."""
    K = _field(d)
    towers = {}
    for T in range(2, 15):
        towers[T] = rayclass.RayClassTower(K, p)
        towers[T].grow(T)
        assert towers[T].exponent == T
    ideals = [q for ell in range(2, 100) if isprime(ell) and ell != p
              for q in factor_rational_prime(K, ell).ideals if q.norm < 100]
    seen = {}
    for T in range(3, 15):
        top = towers[T].top
        for M in range(2, T):
            triangle, G = towers[T].p_level(M)
            classes = [G.project(top.ambient_of_ideal(q)) for q in ideals]
            got = (triangle, oracles.group_record(G), classes)
            assert seen.setdefault(M, got) == got, (T, M)
            classfield.degree_map(top, p, M, triangle)
            rc = towers[M].top
            assert rc.modulus == rational_ideal(K, p**M)
            assert G.invariant_factors == rc.p_group.invariant_factors
            image = oracles.level_class_map(G, rc.p_group)
            for q, c in zip(ideals, classes):
                want = oracles.p_class_of_ideal(rc, q)
                assert image(c) == want, (T, M, q)
                assert element_order(G, c) == element_order(rc.p_group, want)
            assert towers[T].top is top


def _tower_pairs(draws=8, seed=41):
    """The (d, p) of MQ_GRID and ALPHA_FIXTURE_PAIRS, then `draws` pairs of
    a seeded draw: d squarefree in [2, 10^4) and p in {3, 5, 7} prime to
    its discriminant."""
    pairs = sorted({(d, p) for d, p, _, _ in MQ_GRID + ALPHA_FIXTURE_PAIRS})
    rng = random.Random(seed)
    while len(pairs) < 10 + draws:
        d, p = rng.randrange(2, 10**4), rng.choice((3, 5, 7))
        if is_squarefree(d) and RealQuadraticField(d).D % p:
            pairs.append((d, p))
    return pairs


@pytest.mark.parametrize("d,p", _tower_pairs())
def test_tower_levels_have_the_ray_class_number(d, p):
    """Every level M = 2..8 of a fresh ray class tower of (K, p) has the
    p-part of oracles.ray_class_number(d, p^M), found with no dlog and no
    Smith form, as its p-part, and every top has that number as its
    order.  Asked in ascending M
    the tower builds tops at 2, 5 and 8 and reads 3, 4, 6 and 7 as their
    quotients; asked in descending M every level is a quotient of 8."""
    K = _field(d)
    want = {M: oracles.ray_class_number(d, p**M) for M in range(2, 9)}
    for order in (range(2, 9), range(8, 1, -1)):
        tower = rayclass.RayClassTower(K, p)
        for M in order:
            H = tower.p_level(M)[1]
            assert (tower.top.group.order, H.order) == \
                (want[tower.exponent], p**vp(want[M], p)), (M, tower.exponent)
        assert tower.exponent == 8


def test_quotient_level_refuses_what_it_cannot_read():
    """The tower serves conductors (p^M) with M >= 2 only: at M = 1 an
    inert p, 5 in Q(sqrt 2), leaves a unit coordinate of order 1 (its
    order o at (5^3) over gcd(o, 5^2)), which a direct build at (p) does
    not have."""
    K = RealQuadraticField(2)
    tower = rayclass.ray_class_tower(K, 5)
    for M in (1, 0, -1):
        with pytest.raises(ValueError, match="M >= 2"):
            tower.p_level(M)
    assert 1 in [o // gcd(o, 5**2) for o in tower.grow(3).unit_orders]


def test_a_tower_builds_its_first_top_exactly_and_regrows_two_up(
        monkeypatch):
    """The first level asked of a fresh tower is its top, built at exactly
    p^M; a level M above the top regrows it at p^(M+2) and is read off
    it; a level at or below the top builds no top.  No level builds a ray
    class record but the tops, and each has the ray class number."""
    direct, levels = count_builds(monkeypatch)
    tower = rayclass.RayClassTower(QQ, 3)
    reads = [(3, [3]), (2, []), (3, []), (4, [6]), (6, []), (5, []),
             (7, [9])]
    for M, tops in reads:
        direct.clear()
        levels.clear()
        G = tower.p_level(M)[1]
        assert (direct, levels) == ([(1, 3, T) for T in tops],
                                    [(1, 3, M, tower.exponent)]), M
        assert G.order == oracles.ray_class_number(1, 3**M)
        assert tower.top.modulus == rational_ideal(QQ, 3**tower.exponent)
    assert tower.exponent == 9


def _level_view(G, ambient_of_ideal, Q):
    """The invariants and order of a p-part G, and the orders in it of the
    Frobenius classes of the primes of Q, read on `ambient_of_ideal`."""
    return (G.invariant_factors, G.order,
            [element_order(G, G.project(ambient_of_ideal(q))) for q in Q])


@pytest.mark.parametrize("d,p,s1,s2", MQ_GRID + ALPHA_FIXTURE_PAIRS)
def test_levels_below_a_regrown_top_equal_direct_builds(d, p, s1, s2):
    """A tower first built at p^2 regrows to p^5 for level 3 and to p^8
    for level 6; each level below the top then equals the direct build at
    its conductor: invariants, p-order and the orders of the Frobenius
    classes of q1 and q2."""
    K = _field(d)
    Q = (_prime(K, s1), _prime(K, s2))
    want = {}
    for L in range(2, 8):
        rc = rayclass.ray_class_group(K, p**L, p)
        want[L] = _level_view(rc.p_group, rc.ambient_of_ideal, Q)
    tower = rayclass.RayClassTower(K, p)
    tower.p_level(2)
    for M, T in ((3, 5), (6, 8)):
        tower.p_level(M)
        assert tower.exponent == T
        for L in range(2, T):
            H = tower.p_level(L)[1]
            assert _level_view(H, tower.top.ambient_of_ideal, Q) == \
                want[L], (M, L)


@pytest.mark.parametrize("d,p,s1,s2", MQ_GRID + ALPHA_FIXTURE_PAIRS)
def test_quotient_levels_read_as_direct_builds(d, p, s1, s2):
    """Every level L = 1..7 of mq_order, the p-part of Cl(p^(L+1)) read
    off the tower's top by p_level, asked of a fresh tower in
    ascending and in descending L, has the invariant factors, the p-order
    and the orders of F1, F2, the degree-0 element and <F1, F2> that
    GaloisGroupG reads on the direct build ray_class_group(K, p^(L+1), p).
    Ascending, the tower builds tops at p^2, p^5 and p^8 and reads p^4 and
    p^7 below them; descending, it reads all but p^8 below the top."""
    K = _field(d)
    Q = (_prime(K, s1), _prime(K, s2))
    want = {}
    for L in range(1, 8):
        rc = rayclass.ray_class_group(K, p**(L + 1), p)
        G = classfield.GaloisGroupG(
            K, p, L, rc, rc.p_group,
            classfield.degree_map(rc, p, L + 1, rc.relations))
        F1, F2 = (G.frobenius_class(q) for q in Q)
        g = degree_zero_pair_element(G, *Q)
        want[L] = (G.group.invariant_factors, rc.p_order,
                   [element_order(G.group, x) for x in (F1, F2, g)],
                   subgroup_image_order(G.group, [F1, F2]))
    for levels in (range(1, 8), range(7, 0, -1)):
        empty_memos()
        tower = rayclass.ray_class_tower(K, p)
        for L in levels:
            H = tower.p_level(L + 1)[1]
            F1, F2 = (H.project(tower.top.ambient_of_ideal(q)) for q in Q)
            order = iwasawa._degree_zero_level(K, p, L, *Q)[1]
            got = (H.invariant_factors, H.order,
                   [element_order(H, F1), element_order(H, F2), order],
                   subgroup_image_order(H, [F1, F2]))
            assert got == want[L], (L, tower.exponent)
        assert tower.exponent == 8
    empty_memos()


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("d,p,s1,s2", MQ_GRID + ALPHA_FIXTURE_PAIRS)
def test_single_calls_build_the_levels_they_read(monkeypatch, d, p, s1, s2,
                                                  N):
    """On emptied memos, a single mq_order or construct_alpha call builds
    conductor p^(N+3) directly, reads it at the top and p^(N+1) below it,
    with no ray class record, and even_criterion builds q1*p^(N+2), p^(N+2)
    and q1*p^(N+1) and reads p^(N+2) at the top and p^(N+1) below it: the
    first level each reads is the fresh tower's top, built exactly, and no
    regrowth follows.  group_G with its stability check builds p^(N+2),
    the level `stable` reads, as the top, and reads p^(N+1) off it, then
    p^(N+2) at it, with no ray class record."""
    K = _field(d)
    Q = (_prime(K, s1), _prime(K, s2))
    direct, levels = count_builds(monkeypatch)
    q_at = [str(Q[0] * rational_ideal(K, p**M)) for M in (N + 2, N + 1)]
    calls = [
        (lambda: mq_order(K, p, Q, N), [N + 3], [N + 3, N + 1]),
        (lambda: construct_alpha(K, p, Q, N), [N + 3], [N + 3, N + 1]),
        (lambda: even_criterion(K, p, Q[0], N), [q_at[0], N + 2, q_at[1]],
         [N + 2, N + 1]),
        (lambda: group_G(K, p, N).stable, [N + 2], [N + 1, N + 2]),
    ]
    for call, tops, read in calls:
        empty_memos()
        direct.clear()
        levels.clear()
        call()
        top = max(T for T in tops if isinstance(T, int))
        assert (direct, levels) == ([(d, p, T) for T in tops],
                                    [(d, p, L, top) for L in read])
    empty_memos()


@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("d,p,s1,s2", MQ_GRID + ALPHA_FIXTURE_PAIRS)
def test_a_frobenius_call_builds_one_top(monkeypatch, capsys, d, p, s1, s2,
                                         N):
    """On emptied memos, the frobenius command builds conductor p^(N+2),
    the level that G.stable reads, as the fresh tower's top, and no other
    ray class record: it reads p^(N+1) off the top, then p^(N+2) at it,
    and does not regrow to p^(N+4)."""
    direct, levels = count_builds(monkeypatch)
    empty_memos()
    code = cli.main(["frobenius", "--field", _field(d).spec_string(),
                     "--p", str(p), "--q", s1, "--q", s2,
                     "--prec", str(N)])
    empty_memos()
    assert code in (cli.EXIT_OK, cli.EXIT_INDETERMINATE)
    assert capsys.readouterr().out.startswith("G(")
    assert (direct, levels) == ([(d, p, N + 2)], [(d, p, N + 1, N + 2),
                                                  (d, p, N + 2, N + 2)])


@pytest.mark.parametrize("d,p", [(1, 3), (1, 5), (2, 5), (79, 3)])
def test_degree_zero_pair_element_with_any_q1_matches_log_route(d, p):
    """For any q1 that _check_q_pair accepts, every prime below 60 prime to
    p and inert in the cyclotomic tower, degree_zero_pair_element equals
    the log route's element; so does a1 = -k2/k1 of every such pair, read
    at each working precision, as (v, m, digits)."""
    K = _field(d)
    qs = [q for ell in range(2, 60) if isprime(ell) and ell != p
          for q in factor_rational_prime(K, ell).ideals
          if is_inert_in_cyclotomic(q, K, p)]
    pairs = [(q1, q2) for q1 in qs for q2 in qs if q1 != q2]
    for N in (1, 2, 3):
        G = group_G(K, p, N)
        for q1, q2 in pairs:
            if q2 in qs[:3]:
                assert degree_zero_pair_element(G, q1, q2) == \
                    rounded_degree_zero_log_route(G, q1, q2)[3], (q1, q2, N)
    for work in range(3, 9):
        for q1, q2 in pairs:
            want = -(angle_log(oracles.PAdicObject.exact(q2.norm, p, work))
                     / angle_log(oracles.PAdicObject.exact(q1.norm, p, work)))
            assert (0, iwasawa._degree_zero_a1(q1, q2, p, work), work - 1) \
                == (want.v, want.m, want.digits), (q1, q2, work)


@pytest.mark.parametrize("d,p,s1,s2", MQ_GRID)
def test_cyclotomic_character_needs_no_angle_log_or_plog(monkeypatch, d, p,
                                                         s1, s2):
    """mq_order, group_G, frobenius_image and construct_alpha answer as
    before with the reference angle_log and plog patched to raise and the
    log records emptied.  No iwasawalab module binds either name, and each
    Frobenius degree equals the angle_log/plog route's."""
    K = _field(d)
    Q = (_prime(K, s1), _prime(K, s2))

    def answers():
        out = []
        for N in (1, 2, 3):
            G = group_G(K, p, N)
            out.append((mq_order(K, p, Q, N).to_json(), G.report()))
            for q in Q:
                cls, deg = frobenius_image(G, q)
                out.append((cls, deg.v, deg.m, deg.digits))
        out.append(construct_alpha(K, p, Q, 2).to_json())
        return out
    want = answers()
    reference = []
    for N in (1, 2, 3):
        G = group_G(K, p, N)
        for q in Q:
            ref = degree_log_route(G, q)
            reference.append((frobenius_image(G, q)[0], ref.v, ref.m,
                              ref.digits))
    assert [row for row in want if len(row) == 4] == reference

    def refuse(*args, **kwargs):
        raise RuntimeError("called on the cyclotomic path")
    bound = {(name, attr) for name, module in list(sys.modules.items())
             if name == "iwasawalab" or name.startswith("iwasawalab.")
             for attr in ("angle_log", "plog") if hasattr(module, attr)}
    assert bound == set()
    for attr in ("angle_log", "plog"):
        monkeypatch.setattr(oracles, attr, refuse)
    empty_memos()
    with pytest.raises(RuntimeError):
        oracles.angle_log(PAdicNumber.of(2, 3, 3))
    assert answers() == want
    assert classfield.log_record.cache_info().misses > 0


def test_mq_symmetric_subgroup():
    # swapping (q1, q2) changes a1 but generates the same subgroup
    K = RealQuadraticField(79)
    q1 = factor_rational_prime(K, 2).ideals[0]
    q5 = factor_rational_prime(K, 5).ideals[0]
    G = group_G(K, 3, 2)
    g12 = degree_zero_pair_element(G, q1, q5)
    g21 = degree_zero_pair_element(G, q5, q1)
    assert subgroup_image_order(G.group, [g12]) == \
        subgroup_image_order(G.group, [g21]) == \
        subgroup_image_order(G.group, [g12, g21])


def test_mq_divides_group_order():
    K = RealQuadraticField(79)
    q1 = factor_rational_prime(K, 2).ideals[0]
    q5 = factor_rational_prime(K, 5).ideals[0]
    rep = mq_order(K, 3, (q1, q5), 2)
    order = 1
    for f in rep.group_invariants:
        order *= f
    assert order % rep.m_q == 0


def test_pairwise_span_property_rational():
    # pairwise degree-0 modules span the full degree-0 image (F = Q, p = 3)
    G = group_G(QQ, 3, 3)
    qs = [rational_ideal(QQ, ell) for ell in (2, 5, 11)]
    for q in qs:
        assert is_inert_in_cyclotomic(q, QQ, 3)
    g13 = degree_zero_pair_element(G, qs[0], qs[2])
    g23 = degree_zero_pair_element(G, qs[1], qs[2])
    g12 = degree_zero_pair_element(G, qs[0], qs[1])
    span_two = subgroup_image_order(G.group, [g13, g23])
    span_all = subgroup_image_order(G.group, [g12, g13, g23])
    assert span_two == span_all


def test_pairwise_span_property_d79():
    K = RealQuadraticField(79)
    G = group_G(K, 3, 2)
    q2 = factor_rational_prime(K, 2).ideals[0]
    q5a, q5b = factor_rational_prime(K, 5).ideals
    g_ab = degree_zero_pair_element(G, q5a, q2)
    g_bb = degree_zero_pair_element(G, q5b, q2)
    g_ab2 = degree_zero_pair_element(G, q5a, q5b)
    span_two = subgroup_image_order(G.group, [g_ab, g_bb])
    span_all = subgroup_image_order(G.group, [g_ab, g_bb, g_ab2])
    assert span_two == span_all


def test_leopoldt_rational():
    rep = leopoldt_defect(QQ, 3, 8)
    assert rep.defect == 0 and rep.status == "ok"
    assert rep.standing_assumption


def test_leopoldt_d2_p5():
    rep = leopoldt_defect(Q2, 5, 8)
    assert rep.defect == 0
    assert rep.status == "ok"
    assert rep.regulator_valuation is not None
    assert not rep.standing_assumption


def test_leopoldt_ramified_rejected():
    with pytest.raises(ValueError):
        leopoldt_defect(RealQuadraticField(5), 5, 8)


def test_leopoldt_precision_consistency():
    for d, p in ((2, 5), (3, 7), (7, 3), (10, 3)):
        K = RealQuadraticField(d)
        r1 = leopoldt_defect(K, p, 6)
        r2 = leopoldt_defect(K, p, 8)
        assert r1.defect == r2.defect == 0
        assert r1.regulator_valuation == r2.regulator_valuation


# the log route of the old leopoldt_defect, against the one valuation of
# eps^k - 1: fields with long unit periods (48799, 49009), the first
# certifying precision of 21713 (N = 9) and h = 3 at 1000003
LEOPOLDT_GRID_D = [1] + [d for d in range(2, 400) if is_squarefree(d)] \
    + [21713, 48799, 49009, 1000003]
LEOPOLDT_GRID_P = (3, 5, 7, 11, 13)
LEOPOLDT_GRID_N = (1, 2, 3, 5, 8, 12)


@functools.lru_cache(maxsize=None)
def _leopoldt_grid():
    """[(K, p, N, reference to_json())] over the grid, p unramified."""
    out = []
    for d in LEOPOLDT_GRID_D:
        K = QQ if d == 1 else RealQuadraticField(d)
        for p in LEOPOLDT_GRID_P:
            if K.D % p == 0:
                continue
            for N in LEOPOLDT_GRID_N:
                out.append((K, p, N,
                            leopoldt_defect_log_route(K, p, N).to_json()))
    return out


def _check_leopoldt_grid():
    seen = {"ok": 0, "indeterminate": 0}
    for K, p, N, want in _leopoldt_grid():
        got = leopoldt_defect(K, p, N).to_json()
        assert got == want, (K, p, N)
        seen[got["status"]] += 1
    assert seen["ok"] > 6000 and seen["indeterminate"] > 20, seen


def test_leopoldt_equals_log_route_on_grid():
    _check_leopoldt_grid()


def test_leopoldt_equals_the_square_exponent_d_below_5000():
    """k = p - 1 (p split) or 2(p + 1) (p inert) reads the valuation that
    k = p^2 - 1 reads, on every squarefree d < 5000 and unramified p."""
    kinds = {1: 0, -1: 0}
    for d in range(2, 5000):
        if not is_squarefree(d):
            continue
        K = RealQuadraticField(d)
        for p in (3, 5, 7, 11, 13):
            if K.D % p == 0:
                continue
            kinds[legendre(K.D, p)] += 1
            for N in (8, 16):
                assert leopoldt_defect(K, p, N).to_json() == \
                    leopoldt_defect_square_exponent(K, p, N).to_json(), \
                    (d, p, N)
    assert min(kinds.values()) > 5000, kinds


def test_leopoldt_needs_no_log_series_loc_or_rank(monkeypatch):
    """The grid with no log series, localization, rank, place, ideal,
    valuation at a place or FieldElement power: each is patched to raise
    in every iwasawalab module that binds it."""
    _leopoldt_grid()                  # the reference takes the log route

    def refuse(*args, **kwargs):
        raise RuntimeError("called on the Leopoldt path")
    homes = {"log_series": padic, "loc": localize,
             "entry_logs": localize, "log_sum": localize,
             "zp_matrix_rank": localize, "completions_above_p": localize,
             "prime_ideals_above": quadfield, "split_root": quadfield,
             "parts_valuation": quadfield, "ideal_valuation": quadfield,
             "factor_rational_prime": quadfield}
    originals = {attr: getattr(home, attr) for attr, home in homes.items()}
    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "iwasawalab" or name.startswith("iwasawalab."):
            for attr, original in originals.items():
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, refuse)
                    patched.add((name, attr))
    assert {("iwasawalab.residues", "log_series"),
            ("iwasawalab.kummer", "entry_logs"),
            ("iwasawalab.localize", "split_root")} <= patched
    monkeypatch.setattr(quadfield.FieldElement, "__pow__", refuse)
    monkeypatch.setattr(quadfield.IntegralIdeal, "__init__", refuse)
    with pytest.raises(RuntimeError):
        padic.log_series(3, 0, 0, 0, 3, 4)
    with pytest.raises(RuntimeError):
        completions_above_p(Q2, 5)
    _check_leopoldt_grid()


# fields with split and inert p, small and long units, for the two facts
# leopoldt_defect reads its valuation through
VALUATION_IDENTITY_D = (2, 3, 5, 7, 10, 13, 79, 21713, 48799)


def test_min_valuation_over_places_is_min_coordinate_valuation():
    """min_q v_q(a + b*w) over q | p is min(v_p(a), v_p(b)), p unramified:
    seeded a, b with p^j factors, and at a split p elements deep in one
    place only (a = -b*r mod p^6, r the image of w there)."""
    rng = random.Random(1717)
    kinds = {"split": 0, "inert": 0}
    for d in VALUATION_IDENTITY_D:
        K = RealQuadraticField(d)
        for p in LEOPOLDT_GRID_P:
            if K.D % p == 0:
                continue
            places = completions_above_p(K, p)
            kind = prime_kind(places[0])[1]
            kinds[kind] += 1
            cases = []
            for _ in range(30):
                a = p**rng.randint(0, 5) * rng.randint(-10**6, 10**6)
                b = p**rng.randint(0, 5) * rng.randint(-10**6, 10**6)
                cases.append((a or p**rng.randint(0, 5), b))
            if kind == "split":
                for q in places:
                    r = split_root(q, 6)
                    for _ in range(5):
                        b = rng.randint(1, 10**6) * p**rng.randint(0, 2)
                        cases.append(((-b * r) % p**6
                                      + p**6 * rng.randint(-99, 99), b))
            for a, b in cases:
                want = min(vp(c, p) for c in (a, b) if c)
                got = min(parts_valuation(a, b, 1, q) for q in places)
                assert got == want, (d, p, a, b)
    assert kinds["split"] >= 10 and kinds["inert"] >= 10, kinds


def test_unit_power_p2_minus_1_keeps_valuation_at_each_place():
    """v_q(eps^(p^2 - 1) - 1) = v_q(eps^(p^f - 1) - 1) at every place of
    the Leopoldt grid fields, on exact powers of the unit."""
    kinds = {"split": 0, "inert": 0}
    for d in LEOPOLDT_GRID_D[1:]:
        K = RealQuadraticField(d)
        eps = fundamental_unit(K)
        for p in LEOPOLDT_GRID_P:
            if K.D % p == 0:
                continue
            places = completions_above_p(K, p)
            f = 2 if places[0].norm == p * p else 1
            kinds[prime_kind(places[0])[1]] += 1
            zf = eps**(p**f - 1) - K.one()
            z2 = zf if f == 2 else eps**(p * p - 1) - K.one()
            for q in places:
                assert ideal_valuation(z2, q) \
                    == ideal_valuation(zf, q), (d, p, q)
    assert kinds["split"] > 400 and kinds["inert"] > 400, kinds


def test_leopoldt_first_certifying_precision_21713():
    K = RealQuadraticField(21713)
    r8, r9 = leopoldt_defect(K, 3, 8), leopoldt_defect(K, 3, 9)
    assert (r8.status, r8.defect, r8.regulator_valuation) \
        == ("indeterminate", 1, None)
    assert (r9.status, r9.defect, r9.regulator_valuation) == ("ok", 0, 10)


@pytest.mark.parametrize("K", [QQ, Q2])
@pytest.mark.parametrize("N", [0, -1, -2, -3])
def test_leopoldt_refuses_precision_below_one(K, N):
    with pytest.raises(ValueError, match="N must be at least 1"):
        leopoldt_defect(K, 5, N)


@pytest.mark.parametrize("d_max", [0, -4])
def test_scan_refuses_empty_range(d_max):
    with pytest.raises(ValueError, match="d_max must be at least 1"):
        defect_never_one_scan(d_max, [3, 5])


@pytest.mark.parametrize("N", [0, -3])
def test_scan_refuses_precision_below_one(N):
    with pytest.raises(ValueError, match="N must be at least 1"):
        defect_never_one_scan(12, [3, 5], N)


@pytest.mark.parametrize("call, message", [
    (lambda: leopoldt_defect(Q2, 3, True), "^N must be an int, got True$"),
    (lambda: leopoldt_defect(Q2, 3, 8.0), "^N must be an int, got 8.0$"),
    (lambda: leopoldt_defect(Q2, 3.0, 8), "^p must be an odd prime$"),
    (lambda: leopoldt_defect(Q2, True, 8), "^p must be an odd prime$"),
    (lambda: defect_never_one_scan(10, [3], 2.5),
     "^N must be an int, got 2.5$"),
    (lambda: defect_never_one_scan(10, [3], True),
     "^N must be an int, got True$"),
    (lambda: defect_never_one_scan(10, [3, 3.0]), "^p must be an odd prime$"),
    (lambda: defect_never_one_scan(10, [5.0]), "^p must be an odd prime$"),
    (lambda: defect_never_one_scan(10.0, [3]),
     "^d_max must be an int, got 10.0$"),
    (lambda: defect_never_one_scan(True, [3]),
     "^d_max must be an int, got True$"),
    (lambda: mq_order(QQ, 3, (2, 5), 2.0), "^N must be an int, got 2.0$"),
    (lambda: group_G(QQ, 3, True), "^N must be an int, got True$"),
    (lambda: even_criterion(QQ, 3, 7, 2.0), "^N must be an int, got 2.0$"),
], ids=["leopoldt-N-bool", "leopoldt-N-float", "leopoldt-p-float",
        "leopoldt-p-bool", "scan-N-float", "scan-N-bool", "scan-p-float-dup",
        "scan-p-float", "scan-dmax-float", "scan-dmax-bool", "mq-N-float",
        "group_G-N-bool", "even-N-float"])
def test_a_precision_or_prime_that_is_not_an_int_is_refused(call, message):
    """A bool or a float for p, N or d_max is a ValueError naming the
    argument, not a report with "precision": true or a TypeError from
    inside pow; 3.0 next to 3 is refused before the primes are merged."""
    with pytest.raises(ValueError, match=message):
        call()


def test_leopoldt_certifies_from_the_first_precision_that_reads_v():
    """Leopoldt precision monotonicity: for every squarefree d < 10^4, and
    21713, at each unramified p in {3, 5, 7, 11}, v is read once at N = 40;
    then the report at each N = 1..12 is ok with that v exactly when
    A = N + 2 exceeds v, that is N >= v - 1, and indeterminate otherwise."""
    top_v, indeterminate = 0, 0
    for d in [d for d in range(2, 10000) if is_squarefree(d)] + [21713]:
        K = RealQuadraticField(d)
        eps = fundamental_unit(K)
        for p in (3, 5, 7, 11):
            if K.D % p == 0:
                continue
            v = iwasawa._leopoldt(K, eps, p, 40).regulator_valuation
            assert v is not None, (d, p)
            top_v = max(top_v, v)
            for N in range(1, 13):
                rep = iwasawa._leopoldt(K, eps, p, N)
                if N >= v - 1:
                    want = iwasawa.LeopoldtReport(K, p, N, 0, v, "ok", p == 3)
                else:
                    want = iwasawa.LeopoldtReport(K, p, N, 1, None,
                                                  "indeterminate", p == 3)
                    indeterminate += 1
                assert rep.to_json() == want.to_json(), (d, p, N)
    assert top_v == 10 and indeterminate > 0


def test_greenberg_wiles_arithmetic():
    assert greenberg_wiles(0, 0, []) == 0
    assert greenberg_wiles(1, 0, [(2, 1), (0, 0)]) == 2
    with pytest.raises(ValueError):
        greenberg_wiles(-1, 0, [])
    with pytest.raises(ValueError):
        greenberg_wiles(0, 0, [(0, -2)])


@pytest.mark.parametrize("args", [
    (True, 0, []), (0, False, []), (1.0, 0, []), (0, 2.5, []),
    (0, 0, [(2.5, 0)]), (0, 0, [(0, True)]), (0, 0, [(False, 0)]),
    (0, 0, [(2, 1), (0, 1.0)]), (-1, 0, []), (0, -1, []),
    (0, 0, [(0, -2)]), (0, 0, [(-1, 0)]), ("1", 0, []), (None, 0, []),
])
def test_greenberg_wiles_refuses_what_is_not_a_nonnegative_int(args):
    """A bool, a float or any other type than int is refused, in h0(V),
    h0(V*(1)) and in each local term, as a negative dimension is, with the
    message the CLI prints."""
    with pytest.raises(ValueError, match="^cohomology dimensions must be "
                       "nonnegative ints$"):
        greenberg_wiles(*args)


def test_greenberg_wiles_qp1_fixture():
    # V = Q_p(1) over Q, unramified-everywhere conditions, L_p = 0:
    # h0(Q, V) = 0; h0(Q, V*(1)) = h0(Q, Q_p) = 1;
    # at p: dim L_p = 0, h0(Q_p, Q_p(1)) = 0;
    # at infinity: dim L = 0, h0(R, Q_p(1)) = 0 (conjugation acts by -1);
    # at unramified ell: dim H^1_ur = h0, contributing 0 each.
    rhs = greenberg_wiles(0, 1, [(0, 0), (0, 0)])
    delta = 0
    assert rhs == -(1 + delta)


def test_scan_small():
    report = defect_never_one_scan(12, [3, 5], N=6)
    assert report["violations"] == []
    assert report["indeterminates"] == []
    deltas = {(r["d"], r["p"]): r["delta"] for r in report["rows"]}
    assert deltas[(1, 3)] == 0          # F = Q included
    assert deltas[(5, 5)] is None       # ramified pair skipped
    statuses = {(r["d"], r["p"]): r["status"] for r in report["rows"]}
    assert statuses[(5, 5)] == "skipped_ramified"
    assert statuses[(10, 3)] == "ok"


def test_scan_answers_a_repeated_prime_once():
    report = defect_never_one_scan(3, [3, 3])
    assert report["primes"] == [3]
    assert [(r["d"], r["p"]) for r in report["rows"]] == \
        [(1, 3), (2, 3), (3, 3)]
    assert report == defect_never_one_scan(3, [3])
    assert defect_never_one_scan(12, [7, 3, 5, 3, 7]) == \
        defect_never_one_scan(12, [3, 5, 7])


def test_scan_walks_each_unit_at_most_once(monkeypatch):
    """One unit walk per field, and none for d = 105, where 3, 5 and 7 all
    ramify; a bad prime is refused before any field is built."""
    walks = []

    def counted(K):
        walks.append(K.d)
        return fundamental_unit(K)

    monkeypatch.setattr(iwasawa, "fundamental_unit", counted)
    defect_never_one_scan(110, [3, 5, 7])
    assert walks == [d for d in range(2, 111)
                     if is_squarefree(d) and d != 105]
    walks.clear()
    for primes, message in (([3, 4], "^primes must be odd$"),
                            ([3, 9], "^p must be an odd prime$")):
        with pytest.raises(ValueError, match=message):
            defect_never_one_scan(50, primes)
    assert walks == []


def test_scan_rows_are_the_leopoldt_reports():
    """Every row of the scan up to 2,000 is leopoldt_defect's report of its
    (d, p), or the skipped row of a ramified p."""
    N, primes = 8, [3, 5, 7]
    report = defect_never_one_scan(2000, primes, N)
    rows = []
    for d in [1] + [d for d in range(2, 2001) if is_squarefree(d)]:
        K = QQ if d == 1 else RealQuadraticField(d)
        for p in primes:
            if not K.is_rational and K.D % p == 0:
                rows.append({"d": d, "p": p, "delta": None,
                             "regulator_valuation": None, "precision": N,
                             "status": "skipped_ramified"})
            else:
                rows.append(leopoldt_defect(K, p, N).to_json())
    assert report["rows"] == rows
    assert report["indeterminates"] == [
        (r["d"], r["p"]) for r in rows if r["status"] == "indeterminate"]
    assert report["violations"] == []
