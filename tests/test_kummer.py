import signal
import sys
import time
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import iwasawalab
from iwasawalab import kummer, localize, rayclass
from iwasawalab.iwasawa import (is_inert_in_cyclotomic, mq_generator,
                                mq_order)
from iwasawalab.kummer import construct_alpha, verify_alpha, kummer_rank
from iwasawalab.localize import (TRUE, FALSE, INDET, SUnitProduct,
                                 completions_above_p)
from iwasawalab.ntheory import InternalCheckError, is_squarefree, isprime
from iwasawalab.padic import (EXACT_ZERO_BOUND, PAdicNumber, PrecisionError,
                              truncate_row, vp)
from iwasawalab.quadfield import (RealQuadraticField, SUnitBasisData,
                                  factor_rational_prime, fundamental_unit,
                                  prime_kind, principal_generator,
                                  rational_ideal, s_unit_entry)

import oracles
from oracles import (count_builds, empty_memos, same_kummer_extension,
                     scale_exponents, sqrt_pair)

QQ = RealQuadraticField.rationals()
Q2 = RealQuadraticField(2)


def test_construct_alpha_rational_q25():
    cert = construct_alpha(QQ, 3, (2, 5), 3)
    assert cert.status == "accepted"
    assert cert.m_q == 1
    assert cert.a_exponent == 0
    assert cert.loc_p_torsion == TRUE
    # v_2(alpha) = a1 = 4 mod 9 (a unit), v_5(alpha) = 1
    assert cert.val_q1.residue(2) == 4
    assert cert.val_q2.residue(2) == 1
    assert cert.predicted_intersection_degree == 1


def test_construct_alpha_rejects_noninert():
    with pytest.raises(ValueError):
        construct_alpha(QQ, 3, (2, 2), 3)
    with pytest.raises(ValueError):
        construct_alpha(QQ, 3, (17, 5), 3)


@pytest.mark.parametrize("d,s1,s2", [(1, "2", "17"), (1, "17", "5"),
                                      (2, "5", "17a"), (2, "17b", "5")])
def test_a_prime_not_inert_in_the_cyclotomic_tower_is_refused(d, s1, s2):
    """At p = 3, (17) over Q and each prime over 17 of Q(sqrt 2), where 17
    splits, have v_3(17^2 - 1) = 2, so their Frobenius does not generate
    the cyclotomic Z_3-quotient and the degree of q1 that a1 divides by
    would not be a unit.  mq_generator, mq_order, construct_alpha and
    verify_alpha refuse such a pair with a ValueError naming the prime,
    whichever of q1 and q2 it is."""
    K = QQ if d == 1 else Q2
    Q = (_prime(K, s1), _prime(K, s2))
    bad = Q[0] if Q[0].norm == 17 else Q[1]
    alpha = construct_alpha(QQ, 3, (2, 5), 2).alpha
    message = "%s is not inert in the cyclotomic tower (norm 17)" % bad
    for call in (lambda: mq_generator(K, 3, Q, 2),
                 lambda: mq_order(K, 3, Q, 2),
                 lambda: construct_alpha(K, 3, Q, 2),
                 lambda: verify_alpha(alpha, K, 3, Q, 2)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


def test_construct_alpha_d2_p5():
    q1 = factor_rational_prime(Q2, 2).ideals[0]
    q2 = rational_ideal(Q2, 3)
    cert = construct_alpha(Q2, 5, (q1, q2), 2)
    assert cert.status == "accepted"
    assert cert.m_q == 1 and cert.a_exponent == 0
    assert cert.loc_p_torsion == TRUE


def test_construct_alpha_d3_p5():
    K = RealQuadraticField(3)
    q1 = factor_rational_prime(K, 2).ideals[0]
    q2 = factor_rational_prime(K, 3).ideals[0]
    cert = construct_alpha(K, 5, (q1, q2), 2)
    assert cert.status == "accepted"
    assert cert.a_exponent == 0


def test_construct_alpha_d79_p3_nontrivial_mq():
    K = RealQuadraticField(79)
    q1 = factor_rational_prime(K, 2).ideals[0]
    q2 = factor_rational_prime(K, 5).ideals[0]
    cert = construct_alpha(K, 3, (q1, q2), 2)
    assert cert.status == "accepted"
    assert cert.m_q == 9
    assert cert.a_exponent == 2  # valuations generate (9)
    assert cert.predicted_intersection_degree == 9


def test_roundtrip_equality_a_exponent():
    for (K, p, Q, N) in (
            (QQ, 3, (rational_ideal(QQ, 2), rational_ideal(QQ, 5)), 3),
            (Q2, 5, (factor_rational_prime(Q2, 2).ideals[0],
                     rational_ideal(Q2, 3)), 2),
            (RealQuadraticField(79), 3,
             (factor_rational_prime(RealQuadraticField(79), 2).ideals[0],
              factor_rational_prime(RealQuadraticField(79), 5).ideals[0]), 2),
    ):
        cert = construct_alpha(K, p, Q, N)
        assert cert.status == "accepted"
        mv = vp(cert.m_q, p) if cert.m_q % p == 0 else 0
        assert cert.a_exponent == mv


def test_p_power_rescalings_divisibility():
    cert = construct_alpha(QQ, 3, (2, 5), 3)
    mv = 0
    import random
    rng = random.Random(99)
    for _ in range(20):
        k = rng.randrange(0, 3)
        extra = rng.choice([1, 1 + 3**k])
        alpha2 = scale_exponents(cert.alpha, 3**k * extra)
        cert2 = verify_alpha(alpha2, QQ, 3,
                             (rational_ideal(QQ, 2), rational_ideal(QQ, 5)), 3)
        assert cert2.status == "accepted"
        assert cert2.a_exponent >= mv


@pytest.mark.parametrize("N", [0, -1, -3])
def test_mq_and_alpha_refuse_precision_below_one(N):
    alpha = construct_alpha(QQ, 3, (2, 5), 3).alpha
    for call in (lambda: mq_generator(QQ, 3, (2, 5), N),
                 lambda: mq_order(QQ, 3, (2, 5), N),
                 lambda: construct_alpha(QQ, 3, (2, 5), N),
                 lambda: verify_alpha(alpha, QQ, 3, (2, 5), N)):
        with pytest.raises(ValueError, match="N must be at least 1"):
            call()


def test_alpha_p_squared_scaling_raises_exponent():
    cert = construct_alpha(QQ, 3, (2, 5), 3)
    alpha2 = scale_exponents(cert.alpha, 9)
    cert2 = verify_alpha(alpha2, QQ, 3,
                         (rational_ideal(QQ, 2), rational_ideal(QQ, 5)), 3)
    assert cert2.status == "accepted"
    assert cert2.a_exponent == cert.a_exponent + 2


def test_verify_alpha_rejects_bad_support():
    primes = [rational_ideal(QQ, 2), rational_ideal(QQ, 5),
              rational_ideal(QQ, 7)]
    basis = SUnitBasisData(QQ, primes)
    seven = SUnitProduct(basis.entries, 3, [0, 0, 0, 1], 3)
    cert = verify_alpha(seven, QQ, 3,
                        (rational_ideal(QQ, 2), rational_ideal(QQ, 5)), 3)
    assert cert.status == "rejected:support"


def test_verify_alpha_rejects_nontorsion_loc():
    primes = [rational_ideal(QQ, 2), rational_ideal(QQ, 5)]
    basis = SUnitBasisData(QQ, primes)
    x = SUnitProduct(basis.entries, 3, [0, 1, 1], 3)  # 2 * 5: not torsion at 3
    cert = verify_alpha(x, QQ, 3, tuple(primes), 3)
    assert cert.status == "rejected:loc_p"


def test_verify_alpha_rejects_unequal_valuations():
    # alpha with v_2 = 3, v_5 = 1: valuation ideals differ at p = 3
    primes = [rational_ideal(QQ, 2), rational_ideal(QQ, 5)]
    basis = SUnitBasisData(QQ, primes)
    x = SUnitProduct(basis.entries, 3, [0, 3, 1], 4)
    cert = verify_alpha(x, QQ, 3, tuple(primes), 4)
    assert cert.status in ("rejected:valuations", "rejected:loc_p")


def test_verify_alpha_is_indeterminate_when_m_q_is_unstable():
    """Over Q(sqrt 145) at p = 7, m_Q of (2a, 3a) reads 7 at N = 1 and 49
    at N + 2: no alpha is certified there, whatever its exponents."""
    K = RealQuadraticField(145)
    Q = (factor_rational_prime(K, 2).ideals[0],
         factor_rational_prime(K, 3).ideals[0])
    assert mq_order(K, 7, Q, 1).provisional_orders == (7, 49)
    basis = SUnitBasisData(K, Q)
    alpha = SUnitProduct(basis.entries, 7, [0, 0, 1, 1], 1)
    cert = verify_alpha(alpha, K, 7, Q, 1)
    assert (cert.status, cert.m_q) == ("indeterminate", 7)
    assert cert.val_q1 is None and cert.a_exponent is None
    assert cert.loc_p_torsion == INDET
    doc = cert.to_json()
    assert doc["valuations"] == [None, None]
    assert doc["loc_p_torsion"] is None
    with pytest.raises(PrecisionError, match="did not stabilize"):
        construct_alpha(K, 7, Q, 1)


def test_verify_alpha_is_indeterminate_on_a_valuation_below_precision():
    """The accepted alpha of (Q, 3, (2, 5)) with its pi1 = 2 exponent
    known only to be 0 mod 3^4: v_2 has no certified digit."""
    cert = construct_alpha(QQ, 3, (2, 5), 3)
    assert [e.label for e in cert.alpha.entries] == \
        ["-1", "beta", "pi1", "pi2"]
    exponents = list(cert.alpha.exponents)
    exponents[2] = PAdicNumber.zero_marker(3, 4)
    alpha = SUnitProduct(cert.alpha.entries, 3, exponents, 3)
    cert2 = verify_alpha(alpha, QQ, 3, (2, 5), 3)
    assert cert2.status == "indeterminate"
    assert cert2.val_q1.is_marker and not cert2.val_q2.is_marker
    assert cert2.a_exponent is None and cert2.loc_p_torsion == INDET


def test_verify_alpha_is_indeterminate_on_a_torsion_clause_below_precision():
    """The accepted alpha of (Q, 3, (2, 5)) times 3 to an exponent known to
    no digit: v_3(alpha) is 0 to no certified digit, so the torsion clause
    at 3 can neither hold nor fail; to one digit it holds."""
    cert = construct_alpha(QQ, 3, (2, 5), 3)
    three = rational_ideal(QQ, 3)
    entries = cert.alpha.entries + (
        s_unit_entry(QQ.element(3), [three], "3", "lattice"),)
    verdicts = []
    for digits in (0, 1):
        alpha = SUnitProduct(entries, 3, cert.alpha.exponents
                             + [PAdicNumber.zero_marker(3, digits)], 3)
        cert2 = verify_alpha(alpha, QQ, 3, (2, 5), 3)
        assert cert2.a_exponent == 0
        doc = cert2.to_json()
        assert None not in doc["valuations"]
        verdicts.append((cert2.status, cert2.loc_p_torsion,
                         doc["loc_p_torsion"]))
    assert verdicts == [("indeterminate", INDET, None),
                        ("accepted", TRUE, True)]


@pytest.mark.parametrize("N", [2, 4, 8])
def test_verify_alpha_rejects_valuations_that_m_q_does_not_divide(N):
    """alpha^(1/3), for the accepted alpha of (Q(sqrt 79), 3, (2a, 5a)):
    its logs still vanish to precision, but v_3 of its valuations is
    1 < v_3(m_Q) = 2.  Its exponents lie outside Z_3."""
    K = RealQuadraticField(79)
    Q = (factor_rational_prime(K, 2).ideals[0],
         factor_rational_prime(K, 5).ideals[0])
    cert = construct_alpha(K, 3, Q, N)
    assert (cert.status, cert.m_q, cert.a_exponent) == ("accepted", 9, 2)
    third = oracles.PAdicObject.exact(3, 3, N + 4)
    alpha = SUnitProduct(cert.alpha.entries, 3,
                         [oracles.as_number(oracles.as_object(e) / third)
                          for e in cert.alpha.exponents], N)
    cert2 = verify_alpha(alpha, K, 3, Q, N)
    assert cert2.status == "rejected:divisibility"
    assert cert2.a_exponent == 1 and cert2.loc_p_torsion == TRUE


def test_corollary_consequence_trivial_mq():
    # every certified m_Q = 1 case: loc_p(alpha) = 1 within precision and
    # unit valuations at both primes
    for (K, p, Q, N) in (
            (QQ, 3, (rational_ideal(QQ, 2), rational_ideal(QQ, 5)), 3),
            (QQ, 5, (rational_ideal(QQ, 2), rational_ideal(QQ, 3)), 3),
            (Q2, 5, (factor_rational_prime(Q2, 2).ideals[0],
                     rational_ideal(Q2, 3)), 2),
    ):
        cert = construct_alpha(K, p, Q, N)
        assert cert.status == "accepted" and cert.m_q == 1
        assert cert.loc_p_torsion == TRUE
        assert cert.val_q1.v == 0 and cert.val_q2.v == 0


def test_kummer_rank_examples():
    assert kummer_rank([QQ.element(2), QQ.element(5)], QQ, 3).rank == 2
    assert kummer_rank([QQ.element(-1)], QQ, 3).rank == 0
    r = kummer_rank([QQ.element(2), QQ.element(8)], QQ, 3)
    assert r.rank == 1 and r.certified


def test_kummer_rank_refuses_formal_products_of_another_p():
    """kummer_rank(T, K, 5) of 7-adic formal products answered rank 1, and
    products of mixed primes were refused only by the object arithmetic's
    "mixed primes" error; both are refused at the input."""
    basis = SUnitBasisData(QQ, [rational_ideal(QQ, 2)])
    a7, b7 = (SUnitProduct(basis.entries, 7, [0, n], 4) for n in (1, 2))
    a5 = SUnitProduct(basis.entries, 5, [0, 1], 4)
    for T, p, q in (([a7, b7], 5, 7), ([a5, a7], 5, 7), ([a5, a7], 7, 5)):
        with pytest.raises(ValueError, match="formal products must have "
                                             "p = %d, got %d" % (p, q)):
            kummer_rank(T, QQ, p)
    r = kummer_rank([a7, b7], QQ, 7)
    assert (r.rank, r.certified) == (1, True)


# exponents over 2, 3, 5, 7, 11, 13 of five rationals on which the exact
# Smith form's entries grow so fast that it does not return in 20 s
WIDE_EXPONENTS = [[-23, 48, 0, 0, 0, -2], [46, -7, 49, -41, 0, 3],
                  [-33, -14, 31, -29, 0, 37], [2, 0, -48, 0, -10, -33],
                  [-41, 0, 0, -27, 0, -34]]


def test_kummer_rank_of_wide_exponents_is_quick():
    """kummer_rank on the five rationals of WIDE_EXPONENTS is 5 and takes
    under a second: fraction-free elimination bounds its entries by the
    minors of the exponent matrix, where a Smith form did not return in
    20 s.  A timer raises in the test after 5 s rather than let it hang."""
    primes = (2, 3, 5, 7, 11, 13)
    T = [QQ.element(prod(Fraction(q)**e for q, e in zip(primes, row)))
         for row in WIDE_EXPONENTS]

    def expired(*args):
        raise TimeoutError("kummer_rank did not return in 5 s")
    handler = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        start = time.perf_counter()
        r = kummer_rank(T, QQ, 3)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert (r.rank, r.certified) == (5, True)
    assert elapsed < 1


def test_kummer_rank_fundamental_unit():
    r = kummer_rank([fundamental_unit(Q2)], Q2, 5)
    assert r.rank == 1 and r.certified


def test_kummer_rank_mixed_unit_and_prime():
    K = Q2
    g = sqrt_pair(K, 3, Fraction(1, 2))
    # 3 + sqrt2, norm 7
    r = kummer_rank([g, fundamental_unit(K)], K, 5)
    assert r.rank == 2


def test_kummer_rank_of_a_norm_one_s_unit():
    """pi/pibar over the split 7 of Q(sqrt 2) has norm -1 and valuations
    +1 and -1 at the primes above 7; its support is read from its
    numerator norm and denominator, not from the norm, where 7 cancels."""
    q, qbar = factor_rational_prime(Q2, 7).ideals
    t = principal_generator(q) / principal_generator(qbar)
    assert abs(t.norm()) == 1 and t.den == 7
    r = kummer_rank([t], Q2, 3)
    assert r.rank == 1 and r.certified
    assert kummer_rank([t, t * t, fundamental_unit(Q2)], Q2, 3).rank == 2


def test_kummer_rank_of_products_compares_their_entries():
    """Formal products over equal entry tuples share a basis, whether the
    tuple was built once or twice; products over other entries are
    refused."""
    primes = [rational_ideal(QQ, 2), rational_ideal(QQ, 5)]
    x = SUnitProduct(SUnitBasisData(QQ, primes).entries, 3, [0, 1, 0], 4)
    y = SUnitProduct(SUnitBasisData(QQ, primes).entries, 3, [0, 1, 1], 4)
    r = kummer_rank([x, y], QQ, 3)
    assert r.rank == 2 and r.certified
    z = SUnitProduct(SUnitBasisData(QQ, primes[:1]).entries, 3, [0, 1], 4)
    with pytest.raises(ValueError, match="share a basis"):
        kummer_rank([x, z], QQ, 3)


def test_kummer_rank_of_field_elements_is_certified_when_exact():
    """Field elements give an exact integer exponent matrix, so a rank
    below the row count is certified, not left open."""
    r = kummer_rank([Q2.element(2), Q2.element(4)], Q2, 3)
    assert r.rank == 1 and r.certified
    assert same_kummer_extension(QQ.element(6), QQ.element(36), QQ,
                                 3) == TRUE
    assert same_kummer_extension(Q2.element(2), Q2.element(8), Q2,
                                 5) == TRUE
    r = kummer_rank([QQ.element(6), QQ.element(-36), QQ.element(12)], QQ, 5)
    assert r.rank == 2 and r.certified
    for p in (4, 9):
        with pytest.raises(ValueError, match="odd prime"):
            kummer_rank([QQ.element(2), QQ.element(8)], QQ, p)


def test_same_kummer_extension():
    x = QQ.element(2)
    assert same_kummer_extension(x, QQ.element(8), QQ, 3) == TRUE
    assert same_kummer_extension(x, QQ.element(5), QQ, 3) == FALSE
    with pytest.raises(ValueError):
        same_kummer_extension(QQ.element(-1), x, QQ, 3)


def test_certificate_json_schema():
    cert = construct_alpha(QQ, 3, (2, 5), 3)
    doc = cert.to_json()
    for key in ("alpha", "Q", "valuations", "loc_p_torsion", "a_exponent",
                "m_Q", "status", "predicted_intersection_degree"):
        assert key in doc
    assert doc["loc_p_torsion"] is True
    assert doc["status"] == "accepted"


def test_same_kummer_extension_indeterminate_on_markers():
    primes = [rational_ideal(QQ, 2)]
    basis = SUnitBasisData(QQ, primes)
    a = PAdicNumber.zero_marker(3, 2)  # exponent known only to be small
    x = SUnitProduct(basis.entries, 3, [0, a], 4)
    y = SUnitProduct(basis.entries, 3, [0, 1], 4)
    assert same_kummer_extension(y, x, QQ, 3) == INDET


# The fields, primes and prime pairs of the kummer-alpha benchmark fixtures;
# p is inert in Q(sqrt d) for d = 2, 3, 5 and for (7, 5).
ALPHA_GRID = [(1, 3, "2", "5"), (1, 5, "2", "3"), (2, 3, "5", "7a"),
              (2, 5, "2a", "3"), (3, 5, "2", "3"), (5, 3, "2", "7"),
              (7, 3, "5", "11"), (7, 5, "3a", "3b"), (10, 3, "7", "41a"),
              (11, 5, "3", "13"), (13, 3, "2", "5"), (79, 3, "2a", "5a")]


def _prime(K, spec):
    """'7' for the first prime over 7; '7a'/'7b' for a split place."""
    ideals = factor_rational_prime(K, int(spec.rstrip("ab"))).ideals
    return ideals[1] if spec.endswith("b") else ideals[0]


def test_alpha_needs_no_unramified_quad_elem(monkeypatch):
    """construct_alpha and verify_alpha answer as before, inert p included,
    with the reference UnramifiedQuadElem refused: no iwasawalab module
    binds it, and the oracle class is patched to raise.  Local logs are
    tuples of PAdicNumber coordinates."""
    cases = []
    for d, p, s1, s2 in ALPHA_GRID:
        K = QQ if d == 1 else RealQuadraticField(d)
        cases.append((K, p, (_prime(K, s1), _prime(K, s2))))
    assert any(prime_kind(completions_above_p(K, p)[0])[1] == "inert"
               for K, p, _ in cases)

    def answers():
        out = []
        for K, p, Q in cases:
            for N in (2, 3):
                cert = construct_alpha(K, p, Q, N)
                out.append(cert.to_json())
                out.append(verify_alpha(cert.alpha, K, p, Q, N).to_json())
        return out
    want = answers()

    class Refused(oracles.UnramifiedQuadElem):
        def __init__(self, *args):
            raise RuntimeError("UnramifiedQuadElem built on the alpha path")
    bound = [name for name, module in list(sys.modules.items())
             if (name == "iwasawalab" or name.startswith("iwasawalab."))
             and hasattr(module, "UnramifiedQuadElem")]
    assert bound == []
    monkeypatch.setattr(oracles, "UnramifiedQuadElem", Refused)
    with pytest.raises(RuntimeError):
        oracles.UnramifiedQuadElem.from_residues(1, 0, 2, 5, 3)
    assert answers() == want


def _grid_case(d, p, s1, s2):
    K = QQ if d == 1 else RealQuadraticField(d)
    return K, (_prime(K, s1), _prime(K, s2))


@pytest.mark.parametrize("d,p,s1,s2", ALPHA_GRID)
def test_construct_alpha_takes_each_unit_log_once(monkeypatch, d, p, s1, s2):
    """construct_alpha takes the unit log of each basis entry once at each
    prime above p, at N + 2: the unit correction, eps included, and the
    torsion clause read the same table, and so do later queries of the same
    basis up to N + 2."""
    K, Q = _grid_case(d, p, s1, s2)
    calls = []
    real = localize._element_unit_log

    def counted(x, q, N):
        calls.append(((x.a, x.b, x.den), q, N))
        return real(x, q, N)
    monkeypatch.setattr(localize, "_element_unit_log", counted)
    empty_memos()
    cert = construct_alpha(K, p, Q, 3)
    assert cert.status == "accepted"
    want = Counter(((e.element.a, e.element.b, e.element.den), q, 5)
                   for e in cert.alpha.entries
                   for q in completions_above_p(K, p))
    assert Counter(calls) == want
    for N in (5, 4, 2, 3):
        assert construct_alpha(K, p, Q, N).alpha.entries == cert.alpha.entries
    assert Counter(calls) == want


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("d,p,s1,s2", ALPHA_GRID)
def test_verify_alpha_of_a_constructed_alpha_gives_its_certificate(d, p, s1,
                                                                   s2, N):
    """verify_alpha builds its log table as construct_alpha does, so the
    certificate it gives for the constructed alpha is the same document."""
    K, Q = _grid_case(d, p, s1, s2)
    cert = construct_alpha(K, p, Q, N)
    assert verify_alpha(cert.alpha, K, p, Q, N).to_json() == cert.to_json()


TABLE_TOP = 10


@pytest.mark.parametrize("d,p,s1,s2", ALPHA_GRID)
def test_entry_log_table_reads_lower_precisions_by_truncation(d, p, s1, s2):
    """Below its top, the log table reads each coordinate, a row, to
    abs_prec - (top - N) digits, and that is the direct entry_logs at N,
    row for row, markers and their bounds included, for every N up to the
    top; one digit more is not."""
    K, Q = _grid_case(d, p, s1, s2)
    entries = construct_alpha(K, p, Q, 2).alpha.entries
    places = completions_above_p(K, p)
    table = kummer.EntryLogTable(entries, places, p)
    table.at(TABLE_TOP - 2)
    assert table.top == TABLE_TOP
    for N in range(1, TABLE_TOP + 1):
        direct = [(q, localize.entry_logs(entries, q, N)) for q in places]
        assert list(table.at(N)) == direct
        assert table.top == TABLE_TOP
        if N == TABLE_TOP:
            continue
        over = [[[truncate_row(c, p, TABLE_TOP - N - 1) for c in lg]
                 for lg in lgs] for _, lgs in table.logs]
        for lgs, (_, want) in zip(over, direct):
            for lg, lw in zip(lgs, want):
                assert len(lg) == len(lw) and \
                    all(a != b for a, b in zip(lg, lw))


@pytest.mark.parametrize("d,p,s1,s2", ALPHA_GRID)
def test_construct_alpha_answers_alike_in_any_order(monkeypatch, d, p, s1,
                                                    s2):
    """construct_alpha gives the same documents in ascending N, where the
    log table rises at nearly every query, in descending N, where every
    read below the first truncates, and with the memos emptied before each
    query.  The tower of (K, p) keeps one basis for Q, built once in either
    order."""
    K, Q = _grid_case(d, p, s1, s2)
    Ns = range(2, 9)
    built = []
    basis = kummer._alpha_basis

    def counted(*args):
        built.append(args)
        return basis(*args)

    def answers(order, clear_each):
        empty_memos()
        built.clear()
        out = {}
        for N in order:
            if clear_each:
                empty_memos()
            out[N] = construct_alpha(K, p, Q, N).to_json()
        return out
    monkeypatch.setattr(kummer, "_alpha_basis", counted)
    fresh = answers(Ns, True)
    assert len(built) == len(Ns)
    for order in (Ns, reversed(Ns)):
        assert answers(order, False) == fresh
        assert len(built) == 1
        # the tower's entries of Q: the levels of mq_order, and one basis
        # under its congruence split (e1, e2)
        entries = rayclass.ray_class_tower(K, p).pairs[Q]
        assert [key for key in entries if isinstance(key, tuple)] == \
            [built[0][-2:]]
    empty_memos()


def _round_robin_fixtures():
    """(K, Q) for each field of squarefree d <= 47 (d = 1 for Q) in which
    3 is unramified: Q the first pair, in the order of the norms' primes
    and of the places above them, of primes over 2, 5, ..., 31 inert in the
    cyclotomic Z_3-tower whose construct_alpha at N = 4 is accepted."""
    fixtures = []
    for d in [1] + [d for d in range(2, 48)
                    if is_squarefree(d) and d % 3]:
        K = QQ if d == 1 else RealQuadraticField(d)
        primes = [q for ell in range(2, 32) if isprime(ell) and ell != 3
                  for q in factor_rational_prime(K, ell).ideals
                  if is_inert_in_cyclotomic(q, K, 3)]
        pairs = ((q1, q2) for i, q1 in enumerate(primes)
                 for q2 in primes[i + 1:])
        for Q in pairs:
            try:
                if construct_alpha(K, 3, Q, 4).status == "accepted":
                    fixtures.append((K, Q))
                    break
            except PrecisionError:
                continue
    return fixtures


def test_round_robin_order_answers_and_builds_as_grouped(monkeypatch):
    """The state of each (K, p) lives on its tower, so asking 23 fixtures
    at N = 4, 5, 6, 4, 5, 6 fixture by fixture or in turn, with the memos
    emptied before each order, gives the same answers, builds each Kummer
    basis once per fixture and builds as many ray class groups directly:
    two per fixture, 3^7 for N = 4 and, regrown at N = 5, 3^10, of which
    N = 6 reads 3^9 as a quotient."""
    fixtures = _round_robin_fixtures()
    assert len(fixtures) == 23
    Ns = (4, 5, 6, 4, 5, 6)
    bases, basis = [], kummer._alpha_basis
    direct, _ = count_builds(monkeypatch)

    def counted_basis(K, p, q1, q2, e1, e2):
        bases.append((K, (q1, q2)))
        return basis(K, p, q1, q2, e1, e2)
    monkeypatch.setattr(kummer, "_alpha_basis", counted_basis)

    def answers(queries):
        empty_memos()
        bases.clear()
        direct.clear()
        out = {(K.d, Q, N): construct_alpha(K, 3, Q, N).to_json()
               for K, Q, N in queries}
        return out, sorted(bases, key=repr), len(direct)
    grouped = answers([(K, Q, N) for K, Q in fixtures for N in Ns])
    round_robin = answers([(K, Q, N) for N in Ns for K, Q in fixtures])
    empty_memos()
    assert grouped == round_robin
    assert grouped[1] == sorted(fixtures, key=repr)
    assert grouped[2] == 2 * len(fixtures)


def _solve_on_table(place_logs):
    """kummer._solve_unit_exponent of the formal product over the alpha
    basis of (Q(sqrt 2), 5, (2a, 3)) with the exponents construct_alpha
    gives before its unit correction, 0, 0, 1, 0, 0, read against a
    hand-made log table: for each place, one coordinate tuple per entry,
    eps (entry 1) and beta (entry 2) given, the other entries logs 0."""
    q1, q2 = factor_rational_prime(Q2, 2).ideals[0], rational_ideal(Q2, 3)
    entries = construct_alpha(Q2, 5, (q1, q2), 2).alpha.entries
    assert [e.label for e in entries] == ["-1", "eps", "beta", "pi1", "pi2"]
    alpha0 = SUnitProduct(entries, 5, [0, 0, 1, 0, 0], 2)
    zero = (PAdicNumber.zero_marker(5, 6),)
    logs = tuple((None, (zero, (eps,), (beta,), zero, zero))
                 for eps, beta in place_logs)
    return _solve_on_rows(alpha0, logs)


def _solve_on_rows(alpha0, logs):
    """kummer._solve_unit_exponent of a log table of PAdicNumbers, read as
    rows: the unit correction -x."""
    return kummer._solve_unit_exponent(
        alpha0, tuple((q, oracles.rows(lgs)) for q, lgs in logs))


def _objects(p, lgs):
    """One place's logs, tuples of rows, as tuples of PAdicNumbers."""
    return tuple(tuple(PAdicNumber(p, *c) for c in lg) for lg in lgs)


def test_unit_correction_solves_a_consistent_table():
    """log beta = x * log eps at both places, x = 2 to the digits that the
    quotient of the two logs certifies: the solve gives -x = 5^5 - 2."""
    of = PAdicNumber.of
    minus_x = _solve_on_table([(of(5, 5, 6), of(10, 5, 6)),
                               (of(15, 5, 6), of(30, 5, 6))])
    assert repr(minus_x) == "5^0 * 3123 (mod 5^5)"


def test_unit_correction_refuses_a_table_with_no_eps_digit():
    """Every coordinate of log eps is a marker: no quotient is certified."""
    of, marker = PAdicNumber.of, PAdicNumber.zero_marker
    with pytest.raises(PrecisionError, match="precision underflow in the "
                                             "unit-correction solve"):
        _solve_on_table([(marker(5, 6), of(10, 5, 6))])


def test_unit_correction_refuses_a_non_integral_quotient():
    """log beta / log eps = 5 / 25 has valuation -1: not in Z_5."""
    of = PAdicNumber.of
    with pytest.raises(InternalCheckError, match="unit correction is not "
                                                 "integral"):
        _solve_on_table([(of(25, 5, 6), of(5, 5, 6))])


def test_unit_correction_refuses_quotients_that_differ_across_places():
    """log beta / log eps is 2 at the first place and 3 at the second."""
    of = PAdicNumber.of
    with pytest.raises(InternalCheckError, match="unit correction "
                                                 "inconsistent across "
                                                 "places"):
        _solve_on_table([(of(5, 5, 6), of(10, 5, 6)),
                         (of(5, 5, 6), of(15, 5, 6))])


def _fields(x):
    """A PAdicNumber as its fields: equal fields give equal reprs, and a
    marker bound past 10^9, which repr does not show, is compared too."""
    return x.p, x.v, x.m, x.digits


def _solve_outcome(solve, alpha0, logs):
    """The fields of the unit correction, or the type and message of the
    error that refuses it."""
    try:
        return _fields(solve(alpha0, logs))
    except (PrecisionError, InternalCheckError) as err:
        return type(err).__name__, str(err)


def _minus_object_solve(alpha0, logs):
    """-x for the x of the object solve of tests/oracles.py: the unit
    correction that kummer._solve_unit_exponent gives."""
    return -oracles.solve_unit_exponent_objects(alpha0, logs)


def test_kernels_answer_as_the_object_kernels_on_the_alpha_batches(
        monkeypatch):
    """Every log_sum, valuation_at, unit-correction solve and log table
    read of the seeds 1-3 kummer-alpha batches, replayed against the
    object kernels of tests/oracles.py, with each row read as a
    PAdicNumber, and, for a table read, against the entry logs taken
    directly at its N: the same fields, so the same reprs."""
    W = oracles.load_bench("workloads")
    calls = {"log_sum": [], "valuation_at": [], "solve": [], "read": []}
    log_sum, solve = localize.log_sum, kummer._solve_unit_exponent
    valuation_at, read = SUnitProduct.valuation_at, kummer.EntryLogTable.at

    def recorded(name, fn, copy=lambda *args: args):
        def call(*args):
            out = fn(*args)
            calls[name].append((copy(*args), out))
            return out
        return call
    log_sum = recorded("log_sum", log_sum,
                       lambda exponents, logs: (tuple(exponents), logs))
    monkeypatch.setattr(localize, "log_sum", log_sum)
    monkeypatch.setattr(kummer, "log_sum", log_sum)
    monkeypatch.setattr(SUnitProduct, "valuation_at",
                        recorded("valuation_at", valuation_at))
    monkeypatch.setattr(kummer, "_solve_unit_exponent",
                        recorded("solve", solve))
    monkeypatch.setattr(kummer.EntryLogTable, "at", recorded(
        "read", read, lambda table, N: (table.entries, table.places, N,
                                        table.top)))
    for seed in (1, 2, 3):
        empty_memos()
        for q in W.batch("kummer-alpha", seed):
            W.answer(iwasawalab, q)
    empty_memos()
    assert all(calls.values())
    for (exponents, logs), out in calls["log_sum"]:
        p = exponents[0].p
        want = oracles.log_sum_objects(exponents, _objects(p, logs))
        assert [(p,) + c for c in out] == [_fields(c) for c in want]
    for (alpha, q), out in calls["valuation_at"]:
        assert (alpha.p,) + out == \
            _fields(oracles.valuation_at_objects(alpha, q))
    for (alpha0, logs), out in calls["solve"]:
        assert _fields(out) == _solve_outcome(
            _minus_object_solve, alpha0,
            tuple((q, _objects(alpha0.p, lgs)) for q, lgs in logs))
    below_top = 0
    for (entries, places, N, top), out in calls["read"]:
        below_top += N < top
        assert list(out) == [(q, localize.entry_logs(entries, q, N))
                             for q in places]
    assert below_top


@st.composite
def _operand(draw, p):
    """An exponent or a log coordinate: an exact zero (a marker of bound
    10^9), a marker of bound in [-4, 12], or p^v * m known to 1-10 digits
    for v in [-4, 8]."""
    kind = draw(st.sampled_from(["zero", "marker", "value", "value"]))
    if kind == "zero":
        return PAdicNumber.exact(0, p, 4)
    if kind == "marker":
        return PAdicNumber.zero_marker(p, draw(st.integers(-4, 12)))
    digits = draw(st.integers(1, 10))
    m = p * draw(st.integers(0, p**(digits - 1) - 1)) + \
        draw(st.integers(1, p - 1))
    return PAdicNumber(p, draw(st.integers(-4, 8)), m, digits)


def _exponents(data, p, n):
    """n exponents; one draw in four makes all of them exact zeros."""
    if data.draw(st.integers(0, 3)) == 0:
        return [PAdicNumber.exact(0, p, 4)] * n
    return data.draw(st.lists(_operand(p), min_size=n, max_size=n))


def _log_table(data, p, n, k):
    """Logs of n entries with k coordinates each."""
    return tuple(tuple(data.draw(st.lists(_operand(p), min_size=k,
                                          max_size=k)))
                 for _ in range(n))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7]), st.integers(1, 6),
       st.integers(1, 2))
def test_log_sum_is_the_object_sum(data, p, n, k):
    """localize.log_sum on random exponents and the rows of random
    coordinates has the fields of the object sum of the products;
    exact-zero exponents on every term give the marker of bound 10^9 plus
    the least valuation or bound of each coordinate, with no power of p
    formed."""
    exponents = _exponents(data, p, n)
    logs = _log_table(data, p, n, k)
    got = localize.log_sum(exponents, oracles.rows(logs))
    assert [(p,) + c for c in got] == \
        [_fields(c) for c in oracles.log_sum_objects(exponents, logs)]
    if all(e.is_exact_zero for e in exponents):
        assert [(m, v) for v, m, _ in got] == \
            [(None, EXACT_ZERO_BOUND + min(c.v for c in column))
             for column in zip(*logs)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5]), st.integers(1, 5),
       st.integers(1, 8))
def test_valuation_at_is_the_object_sum(data, p, n, prec):
    """SUnitProduct.valuation_at over entries 2^a * 5^b, |a|, |b| <= 2p,
    whose valuations are often divisible by p, is the row of the fields of
    the object sum at both primes."""
    two, five = rational_ideal(QQ, 2), rational_ideal(QQ, 5)
    entries = []
    for i in range(n):
        a, b = (data.draw(st.integers(-2 * p, 2 * p)) for _ in range(2))
        x = QQ.element(Fraction(2)**a * Fraction(5)**b)
        entries.append(s_unit_entry(x, [two, five], str(i), "lattice"))
    alpha = SUnitProduct(entries, p, _exponents(data, p, n), prec)
    for q in (two, five):
        assert (p,) + alpha.valuation_at(q) == \
            _fields(oracles.valuation_at_objects(alpha, q))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7]), st.integers(2, 5),
       st.integers(1, 2), st.integers(1, 2))
def test_unit_correction_is_the_object_solve(data, p, n, k, places):
    """kummer._solve_unit_exponent on random exponents and log tables gives
    the fields of -x for the x of the object solve, or refuses with the
    same error."""
    entries = [s_unit_entry(QQ.element(i + 2), (), str(i), "lattice")
               for i in range(n)]
    alpha0 = SUnitProduct(entries, p, _exponents(data, p, n), 4)
    logs = tuple((None, _log_table(data, p, n, k)) for _ in range(places))
    assert _solve_outcome(_solve_on_rows, alpha0, logs) == \
        _solve_outcome(_minus_object_solve, alpha0, logs)
