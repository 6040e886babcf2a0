"""Finite-precision model of the Galois group of the maximal abelian
p-extension of F unramified outside p, as the p-part of the ray class group
of conductor p^(N+1), together with Frobenius images, the degree map
(normalized by log(1+p)), and the even-side inertia-order criterion.
The cyclotomic character is read by cyclotomic_log alone; stability is
computed on first read of GaloisGroupG.stable, at conductor p^(N+2).
Every conductor p^M is read from the tower of (F, p),
rayclass.ray_class_tower: a quotient of the highest one built, so
a stability check after a higher level builds nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .abgroup import FiniteAbelianGroup, GroupElement
from .ntheory import InternalCheckError
from .padic import PAdicNumber, log_series, unit_log_residues, vp
from .quadfield import (IntegralIdeal, RealQuadraticField, check_odd_prime,
                        rational_ideal, residue_char)
from .rayclass import ray_class_group, ray_class_tower
from .residues import DlogPlan, ModularUnits


def e_of_q(q, p: int) -> int:
    """p-part of N(q) - 1, the target inertia order of the even criterion."""
    check_odd_prime(p)
    n = q.norm if isinstance(q, IntegralIdeal) else int(q)
    if n % p == 0:
        raise ValueError("q must be coprime to p")
    m = n - 1
    return p ** vp(m, p) if m else 1


@lru_cache(maxsize=512)
def cyclotomic_log(n: int, p: int, A: int) -> int:
    """log<n>/log(1+p) mod p^(A-1) for n prime to p, from both logs mod p^A
    on integer residues: log<n> lies in pZ_p and log(1+p) is p times a unit
    for p odd (Washington, GTM 83, sec. 5.1).  The last 512 are kept: a
    batch of 194 Kummer queries reads 361 to 379 distinct ones and keeps
    all its repeats with 362 slots."""
    if n % p == 0:
        raise ValueError("n must be coprime to p")
    ln = unit_log_residues(abs(n), 0, 0, p, A)[0]
    return ln // p * _inverse_log_gamma(p, A) % p**(A - 1)


def cyclotomic_degree(q: IntegralIdeal, p: int, work: int) -> PAdicNumber:
    """deg(Frob_q) = log<N(q)>/log(1+p), certified mod p^(work-1)."""
    return PAdicNumber.from_residue(cyclotomic_log(q.norm, p, work), p,
                                    work - 1)


@lru_cache(maxsize=128)
def _inverse_log_gamma(p: int, A: int) -> int:
    """The inverse of log(1+p)/p mod p^(A-1), the same for every n."""
    return pow(log_series(p, 0, 0, 0, p, A)[0] // p, -1, p**(A - 1))


def _degree_without_log(n: int, p: int, N: int) -> int:
    """log<n>/log(1+p) mod p^N with no log series: n^(p-1) = <n>^(p-1) is
    (1+p)^((p-1) deg), so deg is its dlog, read digit by digit in the
    1-units mod p^(N+1), cyclic of order p^N with generator 1 + p, over
    p - 1."""
    mod = p**(N + 1)
    plan = DlogPlan(ModularUnits(mod), 1 + p, p**N, {p: N})
    return plan.dlog(pow(n, p - 1, mod)) * pow(p - 1, -1, p**N) % p**N


@dataclass
class GaloisGroupG:
    """p-part of Cl(p^M) at M = N+1, modelling G at precision N."""
    field: RealQuadraticField
    p: int
    N: int
    rc: object                       # RayClassGroupData
    group: FiniteAbelianGroup
    cyc_hom: list                    # phi on the invariant coordinates

    def frobenius_class(self, q: IntegralIdeal) -> GroupElement:
        if residue_char(q) == self.p:
            raise ValueError("q must be coprime to p")
        return self.rc.p_class_of_ideal(q)

    def degree(self, q: IntegralIdeal) -> PAdicNumber:
        """deg(Frob_q) = log<N(q)> / log(1+p), certified mod p^(N+2)."""
        return cyclotomic_degree(q, self.p, self.N + 3)

    def class_degree(self, cls) -> int:
        """Image of a class in the cyclotomic quotient Z/p^N, read by the
        hom on invariant coordinates."""
        return sum(c * f for c, f in zip(self.cyc_hom, cls)) % self.p**self.N

    @cached_property
    def stable(self) -> bool:
        """Factor-by-factor comparison with the p-part at conductor
        p^(N+2), read from the tower on first read: every invariant factor
        must persist or scale by exactly p at the top."""
        p = self.p
        a = sorted(self.group.invariant_factors)
        b = sorted(ray_class_tower(self.field, p).level(self.N + 2)
                   .p_group.invariant_factors)
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


def _cyc_hom_on_invariants(rc, p: int, M: int):
    """phi_cyc on the p-part invariant coordinates of the ray class group.

    Built from the norms of the ambient generators, transported through the
    generator lifts of the presentation; consistency on all relations is
    checked.
    """
    norms = rc.unit_norms + [g.norm for g in rc.class_gen_ideals]
    c_ambient = [cyclotomic_log(n, p, M) for n in norms]
    mod = p**(M - 1)
    for row in rc.relations:
        if sum(a * c for a, c in zip(row, c_ambient)) % mod:
            raise InternalCheckError("cyclotomic map is inconsistent with the "
                                     "relations")
    return _transport_hom(rc, c_ambient, mod)


def _transport_hom(rc, c_ambient, mod):
    """Express an ambient hom (mod `mod`) in p-part invariant coordinates.

    Invariant coordinate i is generated by the class of the lift W_i of the
    presentation, so the hom c.x becomes y.z with y_i = c.W_i.  Any lift
    gives the same y_i modulo `mod`: lifts differ by relations, R*e_j is
    one, and c kills the relations.  Coordinates whose order is prime to p
    must carry y_i = 0.
    """
    yint = [sum(a * w for a, w in zip(c_ambient, lift)) % mod
            for lift in rc.presentation.lifts]
    keep = set(rc.p_keep)
    for i in range(rc.ambient_rank):
        if i not in keep and yint[i] % mod:
            raise InternalCheckError("cyclotomic map does not factor "
                                     "through the p-part")
    return [yint[i] for i in rc.p_keep]


def group_G(K: RealQuadraticField, p: int, N: int) -> GaloisGroupG:
    """The Galois group model at precision N (ray conductor p^(N+1), read
    from the tower of (K, p)); its `stable` is checked against conductor
    p^(N+2) when first read."""
    if N < 1:
        raise ValueError("N must be at least 1")
    check_odd_prime(p, K)
    M = N + 1
    rc = ray_class_tower(K, p).level(M)
    return GaloisGroupG(K, p, N, rc, rc.p_group,
                        _cyc_hom_on_invariants(rc, p, M))


def frobenius_image(G: GaloisGroupG, q: IntegralIdeal):
    """(class of q in G_N, degree as a PAdicNumber)."""
    cls = G.frobenius_class(q)
    deg = G.degree(q)
    # cross-check the character on N(q), and the class of q read by the
    # hom on invariant coordinates, against the degree read with no log
    exact = _degree_without_log(q.norm, G.p, G.N)
    if deg.residue(G.N) != exact or G.class_degree(cls) != exact:
        raise InternalCheckError("log degree disagrees with the exact dlog")
    return cls, deg


def even_criterion(K: RealQuadraticField, p: int, q: IntegralIdeal, N: int):
    """Even-side inertia test: the inertia image at q in the ray tower
    must have order e(q), computed as a ratio of ray class orders at two
    conductor levels."""
    check_odd_prime(p)
    if N < 1:
        raise ValueError("N must be at least 1")
    if isinstance(q, int):
        q = rational_ideal(K, q)
    eq = e_of_q(q, p)
    orders = []
    # p^(N+2) first, so that p^(N+1) is read as its quotient
    for M in (N + 2, N + 1):
        top = ray_class_group(K, q * rational_ideal(K, p**M), p)
        bot = ray_class_tower(K, p).level(M)
        if top.p_order % bot.p_order:
            raise InternalCheckError("ray class order at q*p^M is not a "
                                     "multiple of the order at p^M")
        orders.insert(0, top.p_order // bot.p_order)
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
