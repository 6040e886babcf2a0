"""Finite-precision model of the Galois group of the maximal abelian
p-extension of F unramified outside p, as the p-part of the ray class group
of conductor p^(N+1), together with Frobenius images, the degree map
(normalized by log(1+p)), and the even-side inertia-order criterion.
The cyclotomic character is read by cyclotomic_log alone, from one log
record per (n, p) kept at a top precision (LogRecord), and on the ambient
generators of a ray class group by degree_map, the one degree reader: a
class and its degree are both read on an ambient vector.  Stability is
computed on first read of GaloisGroupG.stable, at conductor p^(N+2).
Every conductor p^M is read from the tower of (F, p), the record of its
state (rayclass.ray_class_tower), by its one level reader
(RayClassTower.p_level): group_G grows it to p^(N+2) first and reads
p^(N+1) off it, and `stable` and even_criterion read the same p-parts.
A printed class is read through the level's Hermite form, so it depends
on the level alone.  No ray class record is built after the top.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd

from .abgroup import GroupElement, element_order
from .ntheory import InternalCheckError, check_int
from .padic import PAdicNumber, unit_log_residues, vp
from .quadfield import (IntegralIdeal, RealQuadraticField, check_odd_prime,
                        prime_ideal, rational_ideal, residue_char)
from .rayclass import ray_class_group, ray_class_tower
from .residues import ModularUnits, pohlig_hellman


def e_of_q(q, p: int) -> int:
    """p-part of N(q) - 1, the target inertia order of the even criterion."""
    check_odd_prime(p)
    n = q.norm if isinstance(q, IntegralIdeal) else q
    check_int("q", n)
    if n % p == 0:
        raise ValueError("q must be coprime to p")
    m = n - 1
    return p ** vp(m, p) if m else 1


class LogRecord:
    """log<n> mod p^top of (n, p) on integer residues, and the degree
    log<n>/log(1+p) mod p^(top-1), top the highest precision asked for so
    far plus 2 (log<n> lies in pZ_p, log(1+p) is p times a unit for p odd,
    and a log mod p^A is the residue of the log mod a higher power:
    Washington, GTM 83, sec. 5.1)."""

    def __init__(self, n: int, p: int):
        self.n, self.p, self.top, self.log, self.degree = n, p, 0, 0, 0

    def at(self, A: int) -> int:
        """The degree mod p^(A-1), both taken again at A + 2 past the top,
        log(1+p) read from its own record."""
        p = self.p
        if A > self.top:
            self.top = T = A + 2
            self.log = unit_log_residues(self.n, 0, 0, p, T)[0]
            gamma = log_record(1 + p, p)
            if gamma is not self:
                gamma.at(T)
            mod = p**(T - 1)
            self.degree = self.log // p * pow(gamma.log // p, -1, mod) % mod
        return self.degree % p**(A - 1)


@lru_cache(maxsize=128)
def log_record(n: int, p: int) -> LogRecord:
    """The LogRecord of (n, p), for the last 128 pairs (n, p) asked for."""
    return LogRecord(n, p)


def cyclotomic_log(n: int, p: int, A: int) -> int:
    """log<n>/log(1+p) mod p^(A-1) for n prime to p, read from the record
    of (|n|, p)."""
    if n % p == 0:
        raise ValueError("n must be coprime to p")
    return log_record(abs(n), p).at(A)


def _degree_without_log(n: int, p: int, N: int) -> int:
    """log<n>/log(1+p) mod p^N with no log series: n^(p-1) = <n>^(p-1) is
    (1+p)^((p-1) deg), so deg is its dlog, read digit by digit in the
    1-units mod p^(N+1), cyclic of order p^N with generator 1 + p, over
    p - 1."""
    mod = p**(N + 1)
    k = pohlig_hellman(ModularUnits(mod), 1 + p, p**N, {p: N},
                       pow(n, p - 1, mod))[0]
    return k * pow(p - 1, -1, p**N) % p**N


class GaloisGroupG:
    """p-part of Cl(p^M) at M = N+1, modelling G at precision N: `group`,
    presented on the ambient coordinates of `top`, the tower's top (see
    RayClassTower.p_level), and `ambient_hom`, phi_cyc mod p^N on those
    coordinates.  A class and its degree are both read on the top's
    ambient vector of q."""

    def __init__(self, field: RealQuadraticField, p: int, N: int, top,
                 group, ambient_hom: list):
        self.field, self.p, self.N = field, p, N
        self.top, self.group, self.ambient_hom = top, group, ambient_hom

    def frobenius_class(self, q: IntegralIdeal) -> GroupElement:
        if residue_char(q) == self.p:
            raise ValueError("q must be coprime to p")
        return self.group.project(self.top.ambient_of_ideal(q))

    def degree(self, q: IntegralIdeal) -> PAdicNumber:
        """deg(Frob_q) = log<N(q)> / log(1+p), certified mod p^(N+2)."""
        return PAdicNumber.from_residue(
            cyclotomic_log(q.norm, self.p, self.N + 3), self.p, self.N + 2)

    def ambient_degree(self, q: IntegralIdeal) -> int:
        """Image of the class of q in the cyclotomic quotient Z/p^N, read by
        the hom on its ambient vector."""
        return sum(c * x for c, x in zip(
            self.ambient_hom, self.top.ambient_of_ideal(q))) % self.p**self.N

    @cached_property
    def stable(self) -> bool:
        """Factor-by-factor comparison with the p-part at conductor
        p^(N+2), read on first read off the tower's top, which group_G grew
        to p^(N+2): every invariant factor must persist or scale by exactly
        p at the top."""
        p = self.p
        a = sorted(self.group.invariant_factors)
        b = sorted(ray_class_tower(self.field, p).p_level(self.N + 2)[1]
                   .invariant_factors)
        return len(a) == len(b) and all(y in (x, p * x)
                                        for x, y in zip(a, b))

    def report(self):
        inv = list(self.group.invariant_factors)
        return {
            "field": self.field.spec_string(),
            "p": self.p,
            "N": self.N,
            "invariant_factors": inv,
            "stable": self.stable,
            "gamma_convention": "chi(gamma) = 1 + p",
        }


def degree_map(rc, p: int, M: int, relations) -> list:
    """phi_cyc on the ambient generators of the ray class group rc, mod
    p^(M-1): the degree of the norm of each unit generator and class
    representative, checked to vanish on every row of `relations`."""
    norms = rc.unit_norms + [g.norm for g in rc.class_gen_ideals]
    c = [cyclotomic_log(n, p, M) for n in norms]
    mod = p**(M - 1)
    for row in relations:
        if sum(a * x for a, x in zip(row, c)) % mod:
            raise InternalCheckError("cyclotomic map is inconsistent with the "
                                     "relations")
    return c


def group_G(K: RealQuadraticField, p: int, N: int) -> GaloisGroupG:
    """The Galois group model at precision N (ray conductor p^(N+1), read
    from the tower of (K, p), grown to p^(N+2) first, by
    RayClassTower.p_level); its degree map is checked on the rows of the
    level's Hermite form, and its `stable` against conductor p^(N+2) when
    first read."""
    check_int("N", N)
    check_odd_prime(p, K)
    M = N + 1
    # p^(N+2), which `stable` reads, first: a fresh tower builds it as its
    # top, and p^(N+1) is its quotient
    tower = ray_class_tower(K, p)
    tower.grow(M + 1)
    relations, group = tower.p_level(M)
    return GaloisGroupG(K, p, N, tower.top, group,
                        degree_map(tower.top, p, M, relations))


def frobenius_image(G: GaloisGroupG, q: IntegralIdeal):
    """(class of q in G_N, degree as a PAdicNumber)."""
    cls = G.frobenius_class(q)
    deg = G.degree(q)
    # cross-check the character on N(q), and on the ambient vector of q,
    # against the degree read with no log; the degree is a hom out of G_N,
    # so the order of the class is a multiple of the order of its degree
    exact = _degree_without_log(q.norm, G.p, G.N)
    if deg.residue(G.N) != exact or G.ambient_degree(q) != exact:
        raise InternalCheckError("log degree disagrees with the exact dlog")
    pN = G.p**G.N
    if element_order(G.group, cls) % (pN // gcd(pN, exact)):
        raise InternalCheckError("the order of the class of q is not a "
                                 "multiple of the order of its degree")
    return cls, deg


def even_criterion(K: RealQuadraticField, p: int, q: IntegralIdeal, N: int):
    """Even-side inertia test: the inertia image at the prime q (an ideal,
    or an int for the ideal (q)) in the ray tower must have order e(q),
    computed as a ratio of ray class orders at two conductor levels."""
    check_odd_prime(p)
    check_int("N", N)
    q = prime_ideal(K, q)
    eq = e_of_q(q, p)
    orders = []
    # p^(N+2) first: a fresh tower builds it as its top, and p^(N+1) is
    # read from its p-part
    for M in (N + 2, N + 1):
        top = ray_class_group(K, q * rational_ideal(K, p**M), p)
        bot = ray_class_tower(K, p).p_level(M)[1].order
        if top.p_order % bot:
            raise InternalCheckError("ray class order at q*p^M is not a "
                                     "multiple of the order at p^M")
        orders.insert(0, top.p_order // bot)
    status = "pass" if orders[0] == orders[1] == eq else \
        ("indeterminate" if orders[0] != orders[1] else "fail")
    return {
        "field": K.spec_string(),
        "p": p,
        "q": str(q),
        "norm_q": q.norm,
        "e_q": eq,
        "inertia_orders": orders,
        "status": status,
    }
