import dataclasses
import functools
import random
import sys
from math import gcd

import pytest

from iwasawalab import (classfield, iwasawa, localize, padic, quadfield,
                        rayclass)
from iwasawalab.abgroup import subgroup_image_order
from iwasawalab.classfield import (GaloisGroupG, e_of_q, even_criterion,
                                   frobenius_image, group_G)
from iwasawalab.iwasawa import (is_inert_in_cyclotomic, mq_generator,
                                mq_order, leopoldt_defect, greenberg_wiles,
                                defect_never_one_scan)
from iwasawalab.kummer import construct_alpha
from iwasawalab.localize import completions_above_p
from iwasawalab.ntheory import InternalCheckError, is_squarefree, isprime
from iwasawalab.padic import PAdicNumber, vp
from iwasawalab.quadfield import (RealQuadraticField, factor_rational_prime,
                                  fundamental_unit, ideal_valuation,
                                  parts_valuation, prime_kind, rational_ideal,
                                  split_root)
import oracles
from oracles import (angle_log, degree_kernel_lattice, degree_log_route,
                     degree_zero_pair_element, lattice_intersection,
                     leopoldt_defect_log_route,
                     mq_order_log_route, rounded_degree_zero_log_route,
                     sqrt_pair, subgroup_order_from_lattice)

QQ = RealQuadraticField.rationals()
Q2 = RealQuadraticField(2)


@pytest.mark.parametrize("p", [0, 1, 2, 9, -3])
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
    levels = []
    frobenius_class = GaloisGroupG.frobenius_class

    def counted(G, q):
        levels.append(G.N)
        return frobenius_class(G, q)
    monkeypatch.setattr(GaloisGroupG, "frobenius_class", counted)
    iwasawa._degree_zero_level.cache_clear()
    K = RealQuadraticField(79)
    q1 = factor_rational_prime(K, 2).ideals[0]
    q5 = factor_rational_prime(K, 5).ideals[0]
    assert mq_order(K, 3, (q1, q5), 2).m_q == 9
    assert sorted(levels) == [2, 2, 4, 4]


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
        F1, F2, v1, _ = iwasawa._rounded_degree_zero(G, *Q)
        pL = p**L
        degs = [sum(c * f for c, f in zip(G.cyc_hom, F)) for F in (F1, F2)]
        count = subgroup_image_order(G.group, [F1, F2]) // \
            (pL // gcd(pL, *degs))
        S = G.group.subgroup_lattice([F1, F2])
        inter = lattice_intersection(S, degree_kernel_lattice(G))
        assert L >= v1
        assert count == subgroup_order_from_lattice(G.group, inter) == order


def test_mq_order_cross_check_is_live(monkeypatch):
    """A degree-0 element of the wrong order trips the subgroup count."""
    rounded = iwasawa._rounded_degree_zero

    def scaled(G, q1, q2):
        F1, F2, v1, g = rounded(G, q1, q2)
        return F1, F2, v1, G.group.scale(G.p, g)
    monkeypatch.setattr(iwasawa, "_rounded_degree_zero", scaled)
    # the level memo is emptied before, so that it does not hide the patch,
    # and after, so that no level read through the patch outlives the test
    iwasawa._degree_zero_level.cache_clear()
    K = RealQuadraticField(79)
    try:
        with pytest.raises(InternalCheckError,
                           match="subgroup and element orders disagree"):
            mq_order(K, 3, (_prime(K, "2"), _prime(K, "5a")), 4)
    finally:
        iwasawa._degree_zero_level.cache_clear()


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
    """Every field of a FrobeniusModuleReport, a1 as (v, m, digits)."""
    out = {}
    for f in dataclasses.fields(rep):
        x = getattr(rep, f.name)
        out[f.name] = (x.v, x.m, x.digits) if f.name == "a1" else x
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
def test_mq_order_from_the_level_memo_equals_a_fresh_one(d, p, s1, s2, N):
    """Level N + 2 of the query at N is level N of the query at N + 2, as in
    the kummer-alpha batches: read from the memo after the query at N + 2,
    it gives the report that an emptied memo gives."""
    K = _field(d)
    Q = (_prime(K, s1), _prime(K, s2))
    memo = iwasawa._degree_zero_level
    memo.cache_clear()
    mq_order(K, p, Q, N + 2)
    rep = mq_order(K, p, Q, N)
    assert memo.cache_info().hits == 1
    memo.cache_clear()
    fresh = mq_order(K, p, Q, N)
    assert memo.cache_info().hits == 0
    assert _report_fields(rep) == _report_fields(fresh)
    assert rep.to_json() == fresh.to_json()


def _quotient_view(rc, p, M):
    """What a level shows of itself: its presentation, its degree map and
    the class of every prime ideal of norm below 100 prime to p."""
    K = rc.field
    ideals = [q for ell in range(2, 100) if isprime(ell) and ell != p
              for q in factor_rational_prime(K, ell).ideals if q.norm < 100]
    return {
        "relations": rc.relations, "class_gen_ideals": rc.class_gen_ideals,
        "unit_orders": rc.unit_orders, "unit_norms": rc.unit_norms,
        "unit_dlogs": rc._unit_dlogs, "full_factors": rc.full_factors,
        "full_diag": rc.full_diag, "full_transform": rc.full_transform,
        "lifts": rc.presentation.lifts, "p_keep": rc.p_keep,
        "p_invariants": rc.p_group.invariant_factors,
        "p_transform": rc.p_group.transform,
        "order_identity": rc.order_identity(),
        "cyc_hom": classfield._cyc_hom_on_invariants(rc, p, M),
        "classes": [(str(q), rc.ambient_of_ideal(q), rc.p_class_of_ideal(q))
                    for q in ideals],
    }


@pytest.mark.parametrize("d,p", sorted({(d, p) for d, p, _, _ in
                                        MQ_GRID + ALPHA_FIXTURE_PAIRS}))
def test_quotient_level_equals_the_direct_build(d, p):
    """Level (p^M) read as a quotient of a direct build at (p^T) equals the
    direct build at (p^M), for every T in 3..14 and every M < T: the
    relation rows, the class representatives, the Smith form with its
    transforms and lifts, the p-part, the degree map and the Frobenius
    classes.  At M = 1 an inert p leaves a unit coordinate of order 1,
    which the direct build does not have, and the quotient refuses."""
    K = _field(d)
    direct = {M: rayclass.ray_class_group(K, p**M, p) for M in range(1, 15)}
    want = {M: _quotient_view(direct[M], p, M) for M in range(2, 14)}
    inert = len(direct[1].unit_orders) < len(direct[2].unit_orders)
    for T in range(3, 15):
        top = direct[T]
        for M in range(1, T):
            modulus = rational_ideal(K, p**M)
            if M == 1 and inert:
                with pytest.raises(ValueError, match="every unit coordinate"):
                    rayclass.RayClassGroupData(K, modulus, p, top)
                continue
            rc = rayclass.RayClassGroupData(K, modulus, p, top)
            assert rc.top is top and rc.units is top.units
            if M == 1:
                assert rc.relations == direct[1].relations
                assert rc.p_group == direct[1].p_group
                continue
            assert _quotient_view(rc, p, M) == want[M], (T, M)


def test_quotient_level_refuses_what_it_cannot_read():
    """A quotient needs a direct build of a higher power of (p) over the
    same field, and the tower serves conductors (p^M) with M >= 2 only."""
    K = RealQuadraticField(2)
    top = rayclass.ray_class_group(K, 5**4, 5)
    low = rayclass.RayClassGroupData(K, rational_ideal(K, 25), 5, top)
    bad = [(rational_ideal(K, 5**5), top),            # above the top
           (rational_ideal(K, 25), low),              # a quotient as top
           (rational_ideal(K, 50), top),              # not a power of (5)
           (rational_ideal(RealQuadraticField(3), 25),
            rayclass.ray_class_group(RealQuadraticField(3), 5**4, 5)),
           (rational_ideal(K, 25),
            rayclass.ray_class_group(RealQuadraticField(3), 5**4, 5))]
    for modulus, t in bad:
        with pytest.raises(ValueError):
            rayclass.RayClassGroupData(K, modulus, 5, t)
    for M in (1, 0, -1):
        with pytest.raises(ValueError, match="M >= 2"):
            rayclass.ray_class_tower(K, 5).level(M)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("d,p", [(1, 3), (1, 5), (2, 5), (79, 3)])
def test_degree_zero_pair_element_with_any_q1_matches_log_route(d, p):
    """q1 need not be inert in degree_zero_pair_element: its degree may have
    valuation above 0 or be a marker.  For every prime q1 below 60 prime to
    p, the element, or the error, equals the log route's; so does a1 =
    -k2/k1 read at each working precision, as (v, m, digits)."""
    K = _field(d)
    qs = [q for ell in range(2, 60) if isprime(ell) and ell != p
          for q in factor_rational_prime(K, ell).ideals]
    kinds = set()
    for N in (1, 2, 3):
        G = group_G(K, p, N)
        for q1 in qs:
            for q2 in qs[:3]:
                got = _outcome(degree_zero_pair_element, G, q1, q2)
                want = _outcome(lambda *a: rounded_degree_zero_log_route(*a)[3],
                                G, q1, q2)
                assert got == want, (q1, q2, N)
                kinds.add(got[0])
    for work in range(3, 9):
        for q1 in qs:
            for q2 in qs:
                got = _outcome(
                    lambda: classfield.cyclotomic_degree(q2, p, work)
                    / classfield.cyclotomic_degree(q1, p, work))
                want = _outcome(lambda: angle_log(
                    PAdicNumber.exact(q2.norm, p, work)) / angle_log(
                    PAdicNumber.exact(q1.norm, p, work)))
                if got[0] == "value":
                    got = (got[0], (got[1].v, got[1].m, got[1].digits))
                    want = (want[0], (want[1].v, want[1].m, want[1].digits))
                assert got == want, (q1, q2, work)
    assert "value" in kinds and len(kinds) > 1, kinds


@pytest.mark.parametrize("d,p,s1,s2", MQ_GRID)
def test_cyclotomic_character_needs_no_angle_log_or_plog(monkeypatch, d, p,
                                                         s1, s2):
    """mq_order, group_G, frobenius_image and construct_alpha answer as
    before with the reference angle_log and plog patched to raise and the
    degree cache emptied.  No iwasawalab module binds either name, and each
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
    classfield.cyclotomic_log.cache_clear()
    iwasawa._degree_zero_level.cache_clear()
    with pytest.raises(RuntimeError):
        oracles.angle_log(PAdicNumber.of(2, 3, 3))
    assert answers() == want
    assert classfield.cyclotomic_log.cache_info().misses > 0


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


def test_greenberg_wiles_arithmetic():
    assert greenberg_wiles(0, 0, []) == 0
    assert greenberg_wiles(1, 0, [(2, 1), (0, 0)]) == 2
    with pytest.raises(ValueError):
        greenberg_wiles(-1, 0, [])
    with pytest.raises(ValueError):
        greenberg_wiles(0, 0, [(0, -2)])


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
