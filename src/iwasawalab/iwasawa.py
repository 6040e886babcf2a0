"""Headline computables: the degree-0 Frobenius module attached to a pair of
primes, its image order m_Q, Leopoldt defects, the Greenberg-Wiles dimension
bookkeeping, and the defect-never-one scan over quadratic fields.

m_Q is read at levels N and N + 2, each kept on the tower of (F, p)
(rayclass.ray_class_tower) under the pair of primes, so queries at N and
N + 2 share a level.  Level L is the p-part of Cl(p^(L+1)), read off the
tower's top by its one level reader (RayClassTower.p_level): one Hermite
form modulo the top's p-part order and no ray class record.  Its
Frobenius classes are the top's ambient vectors projected into it, and
their degrees the cyclotomic map on those vectors.
Level N + 2 is read first, so that a fresh tower's top is its conductor
and level N lies below it.
"""

from __future__ import annotations

from math import gcd

from .abgroup import element_order, subgroup_image_order
from .classfield import cyclotomic_log, degree_map
from .ntheory import InternalCheckError, check_int, legendre, power, quad_mul
from .padic import PAdicNumber, vp
from .quadfield import (IntegralIdeal, RealQuadraticField, check_odd_prime,
                        fundamental_unit, prime_ideal)
from .rayclass import ray_class_tower


def is_inert_in_cyclotomic(q, K: RealQuadraticField, p: int) -> bool:
    """True iff the Frobenius of q generates the cyclotomic Z_p-quotient,
    i.e. v_p(N(q)^(p-1) - 1) = 1, for a prime q (an ideal, or an int for
    the ideal (q))."""
    check_odd_prime(p)
    return _generates_cyclotomic(prime_ideal(K, q).norm, p)


def _generates_cyclotomic(n: int, p: int) -> bool:
    """is_inert_in_cyclotomic for a prime of norm n, known to be prime:
    n^(p-1) is 1 mod p, so its valuation is 1 when it is not 1 mod p^2."""
    if n % p == 0:
        raise ValueError("q lies above p")
    return pow(n, p - 1, p * p) != 1


class FrobeniusModuleReport:
    """The degree-0 Frobenius module of Q = (q1, q2), generated by
    a1*Frob_q1 + a2*Frob_q2; degree_zero_margin is the certified valuation
    of a1*d1 + d2, d_i the degree of Frob_qi.  mq_order fills in m_q and
    the fields after it."""

    def __init__(self, field: RealQuadraticField, p: int, N: int,
                 q1: IntegralIdeal, q2: IntegralIdeal, a1: PAdicNumber,
                 a2: int, degree_zero_margin: int, m_q: int = 0,
                 stable: bool = False, provisional_orders: tuple = (),
                 group_invariants: tuple = ()):
        self.field, self.p, self.N = field, p, N
        self.q1, self.q2, self.a1, self.a2 = q1, q2, a1, a2
        self.degree_zero_margin = degree_zero_margin
        self.m_q, self.stable = m_q, stable
        self.provisional_orders = provisional_orders
        self.group_invariants = group_invariants

    def to_json(self):
        return {
            "field": self.field.spec_string(),
            "p": self.p,
            "N": self.N,
            "q1": str(self.q1),
            "q2": str(self.q2),
            "a1": repr(self.a1),
            "a1_residue": self.a1.residue(self.a1.abs_prec),
            "a1_precision": self.a1.abs_prec,
            "a2": self.a2,
            "m_q": self.m_q,
            "stable": self.stable,
            "group_invariants": list(self.group_invariants),
            "gamma_convention": "chi(gamma) = 1 + p",
        }


def _check_q_pair(K, p, q1, q2):
    """(q1, q2) as ideals, each checked prime once."""
    q1, q2 = prime_ideal(K, q1), prime_ideal(K, q2)
    if q1 == q2:
        raise ValueError("the two primes must be distinct")
    for q in (q1, q2):
        if not _generates_cyclotomic(q.norm, p):
            raise ValueError("%s is not inert in the cyclotomic tower "
                             "(norm %d)" % (q, q.norm))
    return q1, q2


def _degree_zero_a1(q1, q2, p: int, A: int) -> int:
    """a1 = -log<N(q2)>/log<N(q1)> mod p^(A-1) from the degrees k1, k2 that
    cyclotomic_log reads mod p^(A-1), units as _check_q_pair asks
    v_p(N(q)^(p-1) - 1) = 1.  Degree-0 check: a1*log<N(q1)> + log<N(q2)>,
    log(1+p) (of valuation 1) times a1*k1 + k2, vanishes mod p^A."""
    mod = p**(A - 1)
    k1, k2 = (cyclotomic_log(q.norm, p, A) for q in (q1, q2))
    a1 = -k2 * pow(k1, -1, mod) % mod
    if (a1 * k1 + k2) % mod:
        raise InternalCheckError("degree-0 combination failed to vanish")
    return a1


def mq_generator(K: RealQuadraticField, p: int, Q, N: int) \
        -> FrobeniusModuleReport:
    """a1 = -log<N(q2)>/log<N(q1)>, a2 = 1: the degree-0 generator data."""
    check_odd_prime(p)
    check_int("N", N)
    q1, q2 = _check_q_pair(K, p, *Q)
    a1 = _degree_zero_a1(q1, q2, p, N + 2)
    return FrobeniusModuleReport(K, p, N, q1, q2,
                                 PAdicNumber(p, 0, a1, N + 1), 1, N + 2)


def _degree_zero_level(K: RealQuadraticField, p: int, L: int, q1, q2):
    """(G, order) at level L: G the p-part of the ray class group of
    conductor p^(L+1), read off the top of the tower of (K, p) by
    RayClassTower.p_level, and the order in G of the rounded degree-0
    element a1*F1 + F2 of the Frobenius classes of (q1, q2), a1 read mod
    p^v1 (all the digits F1 sees, p^v1 its order), checked against the
    subgroup count."""
    tower = ray_class_tower(K, p)
    relations, G = tower.p_level(L + 1)
    top = tower.top
    vecs = [top.ambient_of_ideal(q) for q in (q1, q2)]
    F1, F2 = (G.project(v) for v in vecs)
    v1 = vp(element_order(G, F1), p)
    a1 = _degree_zero_a1(q1, q2, p, v1 + 1)
    order = element_order(G, G.add(G.scale(a1, F1), F2))
    # cross-check at a high enough level: deg is a hom G -> Z/p^L, read on
    # the ambient vectors, so <F1, F2> meets ker deg in |<F1, F2>| /
    # |deg <F1, F2>| elements
    if L >= v1:
        pL = p**L
        c = degree_map(top, p, L + 1, relations)
        degs = [sum(a * x for a, x in zip(c, v)) for v in vecs]
        image = pL // gcd(pL, *degs)
        if subgroup_image_order(G, [F1, F2]) // image != order:
            raise InternalCheckError("subgroup and element orders disagree")
    return G, order


def mq_order(K: RealQuadraticField, p: int, Q, N: int) \
        -> FrobeniusModuleReport:
    """Order m_Q of the image of the degree-0 Frobenius module in G' = G,
    certified by agreement at precisions N and N+2.  Level N + 2 is read
    first, so that level N is a quotient of the tower's top."""
    rep = mq_generator(K, p, Q, N)
    Q, tower = (rep.q1, rep.q2), ray_class_tower(K, p)
    upper = tower.recall(Q, N + 2, _degree_zero_level, K, p, N + 2, *Q)[1]
    G, order = tower.recall(Q, N, _degree_zero_level, K, p, N, *Q)
    rep.m_q = order
    rep.stable = order == upper
    rep.provisional_orders = (order, upper)
    rep.group_invariants = G.invariant_factors
    return rep


class LeopoldtReport:
    """delta(F, p) at a precision; regulator_valuation is an int or None,
    status "ok" or "indeterminate", and standing_assumption whether
    [F(mu_p):F] = 2: for p unramified in a real quadratic F the field
    cannot sit inside Q(mu_p), so this reduces to p = 3."""

    def __init__(self, field: RealQuadraticField, p: int, precision: int,
                 defect: int, regulator_valuation, status: str,
                 standing_assumption: bool):
        self.field, self.p, self.precision = field, p, precision
        self.defect = defect
        self.regulator_valuation = regulator_valuation
        self.status = status
        self.standing_assumption = standing_assumption

    def to_json(self):
        return {
            "field": self.field.spec_string(),
            "d": 1 if self.field.is_rational else self.field.d,
            "p": self.p,
            "delta": self.defect,
            "regulator_valuation": self.regulator_valuation,
            "precision": self.precision,
            "status": self.status,
            "standing_assumption": self.standing_assumption,
        }


def leopoldt_defect(K: RealQuadraticField, p: int, N: int) -> LeopoldtReport:
    """delta = unit rank minus the Z_p-rank of the log image of the closure
    of the global units in the principal local units at p.

    For F real quadratic the unit rank is 1, so delta = 0 iff log_q(eps) is
    nonzero at some place q above p.  Let k = p - 1 when p splits
    (legendre(D, p) = 1) and k = 2(p + 1) when p is inert.  Then eps^k is a
    1-unit at every q | p: for p split the residue fields are F_p, and for
    p inert Frobenius is the conjugation, so eps^(p+1) = eps*sigma(eps) =
    N(eps) = +-1 mod p.  As p does not divide k, log(eps^k) = k*log(eps)
    is a p-unit times log(eps), and for p odd log maps 1 + p^n O_q
    isometrically onto p^n O_q (n >= 1; Koblitz, GTM 58, ch. IV), so the
    regulator valuation is v = min_q v_q(eps^k - 1).  It is read with no
    place at all: for p unramified the q^j over q | p intersect in p^j O,
    and {1, w} is a Z-basis of O, so min_q v_q(a + b*w) = min(v_p(a),
    v_p(b)) (Washington, GTM 83, sec. 5.1).  As elsewhere in the engine,
    the unit is read to A = N + 2 digits: with eps reduced mod p^A, eps^k
    - 1 = z0 + z1*w is formed on residues, and v = min(A, v_p(z0),
    v_p(z1)) is exact when it is below A, certifying delta = 0, and is
    only known to be at least A otherwise (indeterminate)."""
    check_int("N", N)
    check_odd_prime(p, K)
    return _leopoldt(K, None if K.is_rational else fundamental_unit(K), p, N)


def _leopoldt(K: RealQuadraticField, eps, p: int, N: int) -> LeopoldtReport:
    """leopoldt_defect for checked p and N, given eps of K (None over Q)."""
    if K.is_rational:
        return LeopoldtReport(K, p, N, 0, None, "ok", p == 3)
    A, m = N + 2, p**(N + 2)
    k = p - 1 if legendre(K.D, p) == 1 else 2 * (p + 1)
    z0, z1 = power(quad_mul(K.w_trace, K.w_norm, m), (1, 0),
                   (eps.a % m, eps.b % m), k)
    v = vp(gcd(z0 - 1, z1, m), p)
    if v < A:
        return LeopoldtReport(K, p, N, 0, v, "ok", p == 3)
    return LeopoldtReport(K, p, N, 1, None, "indeterminate", p == 3)


def greenberg_wiles(h0_v: int, h0_vdual: int, local_terms) -> int:
    """Right-hand side of the global Euler-characteristic formula:
    h0(V) - h0(V*(1)) + sum_v (dim L_v - h0(F_v, V)), each dimension an
    int (not a bool) >= 0."""
    total = 0
    for dim, h0 in [(h0_v, h0_vdual), *local_terms]:
        if type(dim) is not int or type(h0) is not int or min(dim, h0) < 0:
            raise ValueError("cohomology dimensions must be nonnegative ints")
        total += dim - h0
    return total


def defect_never_one_scan(d_max: int, primes, N: int = 8):
    """Scan all squarefree d <= d_max (d = 1 meaning Q) and distinct odd
    primes, asserting the Leopoldt defect is never 1 at certified precision."""
    check_int("d_max", d_max)
    check_int("N", N)
    primes = list(primes)           # each checked before 3.0 merges into 3
    for p in primes:
        if p % 2 == 0:
            raise ValueError("primes must be odd")
        check_odd_prime(p)
    primes = sorted(set(primes))
    rows, violations, indeterminates = [], [], []
    for d in range(1, d_max + 1):
        try:
            K = RealQuadraticField(d if d > 1 else None)
        except ValueError:          # d is not squarefree: its one test
            continue
        eps = None                  # walked once, if some p is unramified
        for p in primes:
            if K.D % p == 0:        # p ramifies in K; over Q, D = 1
                rows.append({"d": d, "p": p, "delta": None,
                             "regulator_valuation": None, "precision": N,
                             "status": "skipped_ramified"})
                continue
            if eps is None and not K.is_rational:
                eps = fundamental_unit(K)
            rep = _leopoldt(K, eps, p, N)
            rows.append(rep.to_json())
            if rep.status == "indeterminate":
                indeterminates.append((d, p))
            elif rep.defect == 1:
                violations.append((d, p))
    return {
        "schema": 1,
        "d_max": d_max,
        "primes": primes,
        "precision": N,
        "rows": rows,
        "violations": violations,
        "indeterminates": indeterminates,
    }
