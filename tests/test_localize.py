import random
from fractions import Fraction

import pytest

from iwasawalab.localize import (SUnitProduct, completions_above_p,
                                 _coordinates, loc, is_loc_torsion,
                                 eq_membership, log_sum, zp_matrix_rank,
                                 TRUE, FALSE)
from iwasawalab.padic import PAdicNumber
from iwasawalab.quadfield import (RealQuadraticField, SUnitBasisData,
                                  factor_rational_prime, fundamental_unit,
                                  ideal_valuation, prime_ideals_above,
                                  prime_kind, rational_ideal)

from oracles import (PAdicObject, UnramifiedQuadElem, as_number, as_object,
                     inertia_rank, rows, sqrt_pair, zp_matrix_rank_objects)

QQ = RealQuadraticField.rationals()
Q2 = RealQuadraticField(2)


def _image(x, place, work):
    """The coordinates of x mod p^work at `place` (den prime to p)."""
    return _coordinates(x.a, x.b, x.den, place, prime_kind(place)[1], work)


def test_completions_split():
    pl = completions_above_p(Q2, 7)
    assert len(pl) == 2
    sqrt2 = sqrt_pair(Q2, 0, Fraction(1, 2))
    r0, r1 = (_image(sqrt2, v, 2) for v in pl)
    assert r0[1] == r1[1] == 0
    vals = sorted((r0[0], r1[0]))
    assert vals == [10, 39]  # 10^2 = 2 mod 49, other root is -10
    x = sqrt_pair(Q2, 3, Fraction(1, 2))  # 3 + sqrt2
    images = sorted(_image(x, v, 2)[0] for v in pl)
    assert images == [13, 42]  # 3+10 and 3-10 mod 49


def test_completions_inert():
    pl = completions_above_p(Q2, 5)
    assert len(pl) == 1 and prime_kind(pl[0]) == (5, "inert")
    assert pl[0].norm == 25
    c = _image(sqrt_pair(Q2, 0, Fraction(1, 2)), pl[0], 3)
    assert c == (0, 63)  # sqrt2 = s/2 over {1, s}, s = sqrt8; 2*63 = 1
    im = UnramifiedQuadElem.from_residues(*c, Q2.D, 5, 3)
    sq = im * im
    assert sq.a.residue(3) == 2 % 125 and sq.b.is_marker


def test_completions_ramified_rejected():
    with pytest.raises(ValueError):
        completions_above_p(RealQuadraticField(5), 5)


def test_loc_multiplicative():
    pl = completions_above_p(Q2, 7)[0]
    x = sqrt_pair(Q2, 3, Fraction(1, 2))
    y = sqrt_pair(Q2, 1, Fraction(1, 2))
    lx, ly, lxy = (PAdicObject.from_residue(_image(t, pl, 4)[0], 7, 4)
                   for t in (x, y, x * y))
    assert (lx * ly - lxy).is_marker


def test_loc_of_rational_7_at_split_7():
    for v in completions_above_p(Q2, 7):
        val, _ = loc(Q2.element(7), v, 7, 4)
        assert val == 1


def test_loc_of_one():
    for v in completions_above_p(Q2, 7):
        val, unit_log = loc(Q2.one(), v, 7, 4)
        assert val == 0
        for c in unit_log:
            assert c.is_marker


def test_unit_log_is_a_coordinate_tuple():
    """() away from p, one coordinate at a rational or split place above
    p, two over {1, s} at an inert one; a formal product sums its terms
    coordinate by coordinate."""
    basis = SUnitBasisData(Q2, [factor_rational_prime(Q2, 7).ideals[0]])
    x = SUnitProduct(basis.entries, 5, [0, 1, 2], 6)
    for K, p, ell, n in ((QQ, 3, 3, 1), (QQ, 3, 5, 0), (Q2, 7, 7, 1),
                         (Q2, 5, 5, 2), (Q2, 5, 7, 0)):
        for q in prime_ideals_above(K, ell):
            for t in (K.element(3), K.element(-2)):
                out = loc(t, q, p, 6)
                assert isinstance(out, tuple) and len(out) == 2
                val, unit_log = out
                assert val == ideal_valuation(t, q)
                assert isinstance(unit_log, tuple)
                assert len(unit_log) == n
                assert all(isinstance(c, PAdicNumber) for c in unit_log)
            if K is Q2 and p == 5:
                assert len(loc(x, q, p, 6)[1]) == n


def test_is_loc_torsion_minus_one():
    for K, p in ((QQ, 7), (Q2, 5), (Q2, 7)):
        for v in completions_above_p(K, p):
            assert is_loc_torsion(K.element(-1), v, p, 5) == TRUE
    v5 = prime_ideals_above(QQ, 5)[0]
    assert is_loc_torsion(QQ.element(-1), v5, 3, 5) == TRUE


def test_is_loc_torsion_2_at_7():
    v = completions_above_p(QQ, 7)[0]
    assert is_loc_torsion(QQ.element(2), v, 7, 4) == FALSE


def test_is_loc_torsion_eps_inert_5():
    v = completions_above_p(Q2, 5)[0]
    assert is_loc_torsion(fundamental_unit(Q2), v, 5, 6) == FALSE


def test_eq_membership():
    basis = SUnitBasisData(QQ, [rational_ideal(QQ, 2), rational_ideal(QQ, 5),
                                rational_ideal(QQ, 7)])
    Q = [rational_ideal(QQ, 2), rational_ideal(QQ, 5)]
    a = PAdicNumber.exact(3, 3, 8)
    x = SUnitProduct(basis.entries, 3, [0, a, 1, 0], 8)
    assert eq_membership(x, Q)
    y = SUnitProduct(basis.entries, 3, [0, 0, 0, 1], 8)  # the element 7
    assert not eq_membership(y, Q)
    # an exponent of 7 that is a marker but not an exact zero puts 7 in the
    # support walk, and the marker valuation it gives there keeps z in;
    # an exact 1 there does not
    seven = rational_ideal(QQ, 7)
    z = SUnitProduct(basis.entries, 3,
                     [0, a, 1, PAdicNumber.zero_marker(3, 5)], 8)
    assert z.valuation_at(seven) == (5, None, 0)
    assert eq_membership(z, Q)
    w = SUnitProduct(basis.entries, 3, [0, a, 1, 1], 8)
    assert w.valuation_at(seven) == (0, 1, 12)
    assert not eq_membership(w, Q)
    eps_only = SUnitProduct(SUnitBasisData(Q2, []).entries, 3, [0, 1], 8)
    assert eq_membership(eps_only, [])


def test_inertia_rank_cases():
    v5 = prime_ideals_above(QQ, 5)
    assert inertia_rank([QQ.element(5)], v5, 3, 6).rank == 1
    assert inertia_rank([QQ.element(-1)], v5, 3, 6).rank == 0
    v2 = prime_ideals_above(QQ, 2)
    r = inertia_rank([QQ.element(2), QQ.element(8)], v2, 3, 6)
    assert r.rank == 1 and r.certified


def test_inertia_rank_above_p():
    v3 = completions_above_p(QQ, 3)
    r = inertia_rank([QQ.element(4)], v3, 3, 6)
    assert r.rank == 1 and r.certified
    # 2 has valuation 0 and nontrivial angle at 3: rank 1 via the log column
    r2 = inertia_rank([QQ.element(2)], v3, 3, 6)
    assert r2.rank == 1


def test_inertia_rank_monotone():
    places = prime_ideals_above(QQ, 2) + prime_ideals_above(QQ, 5)
    t1 = [QQ.element(2)]
    t2 = [QQ.element(2), QQ.element(5)]
    r1 = inertia_rank(t1, places, 3, 6).rank
    r2 = inertia_rank(t2, places, 3, 6).rank
    assert r1 <= r2 == 2
    r3 = inertia_rank(t2, prime_ideals_above(QQ, 2), 3, 6).rank
    assert r3 <= r2


def test_rank_stabilization():
    places = completions_above_p(Q2, 5)
    eps = fundamental_unit(Q2)
    for N in (5, 7):
        r = inertia_rank([eps], places, 5, N)
        assert r.rank == 1 and r.certified


def test_zp_matrix_rank_markers():
    p = 3
    M = [[PAdicNumber.exact(3, p, 6), PAdicNumber.zero_marker(p, 2)],
         [PAdicNumber.exact(9, p, 6), PAdicNumber.zero_marker(p, 2)]]
    r = zp_matrix_rank(M)
    assert r.rank == 1 and not r.certified


def _seeded_matrix(rng):
    """A matrix of 1-4 rows and columns over Z_p, p in {3, 5, 7}: exact
    zeros, markers of bound in [-3, 6] and values p^v * m known to 1-8
    digits, v in [-3, 5]; one matrix in two gains a row a*r + b*s + t of
    two of its rows, a and b exact ints and t an exact 0 or p^k * u,
    taken by the object arithmetic, so that its rank falls short, or
    cancellation leaves markers or a pivot k digits deep."""
    p = rng.choice([3, 5, 7])

    def entry():
        kind = rng.random()
        if kind < 0.15:
            return PAdicNumber.exact(0, p, 4)
        if kind < 0.3:
            return PAdicNumber.zero_marker(p, rng.randint(-3, 6))
        digits = rng.randint(1, 8)
        m = p * rng.randrange(p**(digits - 1)) + rng.randrange(1, p)
        return PAdicNumber(p, rng.randint(-3, 5), m, digits)
    cols = rng.randint(1, 4)
    rows = [[entry() for _ in range(cols)]
            for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        r, s = rng.choice(rows), rng.choice(rows)
        a, b = (rng.choice([1, -1]) * p**rng.randint(0, 2)
                * rng.randrange(1, 20) for _ in range(2))
        t = PAdicObject.exact(rng.choice([0, p**rng.randint(1, 6)]), p, 8)
        rows.insert(rng.randint(0, len(rows)), [
            as_number(as_object(x) * a + as_object(y) * b + t)
            for x, y in zip(r, s)])
    return rows


def test_zp_matrix_rank_is_the_object_elimination():
    """zp_matrix_rank, on rows, gives the (rank, certified) of the object
    elimination oracles.zp_matrix_rank_objects on 600 seeded matrices
    with markers, exact zeros, negative valuations and entries of unequal
    precision."""
    matrices = [_seeded_matrix(random.Random(seed)) for seed in range(600)]
    entries = [e for M in matrices for r in M for e in r]
    assert any(e.is_exact_zero for e in entries)
    assert any(e.is_marker and not e.is_exact_zero for e in entries)
    assert any(not e.is_marker and e.v < 0 for e in entries)
    assert any(len({e.digits for e in r if not e.is_marker}) > 1
               for M in matrices for r in M)
    answers = []
    for M in matrices:
        got, want = zp_matrix_rank(M), zp_matrix_rank_objects(M)
        assert (got.rank, got.certified) == (want.rank, want.certified), M
        answers.append((got.rank < min(len(M), len(M[0])), got.certified))
    assert set(answers) == {(False, True), (True, True), (True, False)}


def test_sunit_product_refuses_an_exponent_of_another_kind():
    """An exponent is an int, bool excluded, or a PAdicNumber of the
    product's p: 1.5 was read as int(1.5) = 1, and a 7-adic exponent was
    kept in a 5-adic product over Q(sqrt 3) with the primes above 11."""
    K = RealQuadraticField(3)
    entries = SUnitBasisData(K, prime_ideals_above(K, 11)).entries
    assert len(entries) == 4
    for bad in (1.5, True, Fraction(1), PAdicNumber.exact(1, 7, 4)):
        with pytest.raises(ValueError, match="an exponent must be an int "
                                             "or a 5-adic PAdicNumber"):
            SUnitProduct(entries, 5, [0, 1, bad, 1], 4)
    x = SUnitProduct(entries, 5, [0, 1, PAdicNumber.exact(1, 5, 4), -2], 4)
    assert [(e.p, e.v, e.m) for e in x.exponents[1:]] == \
        [(5, 0, 1), (5, 0, 1), (5, 0, 5**8 - 2)]


def test_sunit_product_refuses_a_bad_prime_or_precision():
    """p must be an odd prime and prec an int >= 1: p = 9 and prec = 0
    were kept, 9-adic exponents or ones known to 4 digits, and prec = 2.5
    or -7 failed with a bare TypeError from PAdicNumber.exact."""
    entries = SUnitBasisData(Q2, prime_ideals_above(Q2, 7)).entries
    with pytest.raises(ValueError, match="p must be an odd prime"):
        SUnitProduct(entries, 9, [0, 1, 1, 0], 3)
    for prec in (0, 2.5, -7):
        with pytest.raises(ValueError, match="prec must be"):
            SUnitProduct(entries, 3, [0, 1, 1, 0], prec)


def test_loc_of_sunit_product_matches_elementwise():
    K = Q2
    q7 = factor_rational_prime(K, 7).ideals[0]
    basis = SUnitBasisData(K, [q7])
    x = SUnitProduct(basis.entries, 5, [1, 2, 3], 6)
    q = completions_above_p(K, 5)[0]
    val, a = loc(x, q, 5, 6)
    # compare with the log of the honest product (-1) * eps^2 * gamma^3
    elt = K.element(-1) * fundamental_unit(K)**2 * basis.entries[2].element**3
    _, b = loc(elt, q, 5, 6)
    assert all((as_object(u) - as_object(w)).is_marker
               for u, w in zip(a, b))
    assert val.is_marker or val.residue(3) == 0


def test_loc_p_vector_multiplicative():
    K = Q2
    places = completions_above_p(K, 7)
    x = sqrt_pair(K, 3, Fraction(1, 2))
    y = sqrt_pair(K, 1, Fraction(1, 2))
    assert len(places) == 2
    for q in places:
        (vx, lx), (vy, ly), (vxy, lxy) = (loc(t, q, 7, 5)
                                          for t in (x, y, x * y))
        assert vxy == vx + vy
        assert len(lxy) == len(lx) == len(ly) == 1
        for a, b, c in zip(lxy, lx, ly):
            assert (as_object(a) - as_object(b) - as_object(c)).is_marker


def test_prop_22_consistency_sunits_away_from_support():
    # a global S-unit is locally torsion at every prime outside S and
    # away from p, and its valuation there vanishes
    K = Q2
    eps = fundamental_unit(K)
    g7 = sqrt_pair(K, 3, Fraction(1, 2))  # norm 7
    for ell in (3, 11, 13):
        for q in prime_ideals_above(K, ell):
            for x in (eps, g7):
                verdict = is_loc_torsion(x, q, 5, 6)
                assert verdict == TRUE
                assert ideal_valuation(x, q) == 0


def test_log_sum_leaves_the_precision_to_terms_of_nonzero_exponent():
    """An exact-zero exponent multiplies its log into a marker of bound
    10^9 + v, so the log it meets, known mod 3^8, does not cap the sum at
    8 digits; a zero exponent known mod 3^2 does cap it at 2."""
    logs = rows([(PAdicNumber.of(5, 3, 8),), (PAdicNumber.of(7, 3, 10),)])
    one = PAdicNumber.exact(1, 3, 20)
    (total,) = log_sum([PAdicNumber.exact(0, 3, 20), one], logs)
    total = PAdicNumber(3, *total)
    assert (total.abs_prec, total.residue(10)) == (10, 7)
    (total,) = log_sum([PAdicNumber.zero_marker(3, 2), one], logs)
    total = PAdicNumber(3, *total)
    assert (total.abs_prec, total.residue(2)) == (2, 7)
