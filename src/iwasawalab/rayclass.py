"""Ray class groups of conductor m (no archimedean part) and their p-parts,
presented by generators and relations:

    generators: the cyclic generators of (O/m)* mapped into Cl_m, plus one
                ideal generator per class-group invariant;
    relations:  generator orders, images of the global units, and the
                principalization of each class generator's power.

The conductors p^M of one (F, p) form a tower, ray_class_tower: it
builds the highest one asked for directly and reads each lower one as its
quotient, by reducing the top's relations (RayClassGroupData).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd, prod

from .abgroup import FiniteAbelianGroup, GroupElement, lattice_index, \
    smith_presentation
from .ntheory import InternalCheckError, factorint, isprime
from .padic import vp
from .quadfield import (IntegralIdeal, RealQuadraticField, check_odd_prime,
                        class_group, parts_valuation, prime_ideals_above,
                        principal_generator, rational_ideal, unit_entries,
                        unit_ideal)
from .residues import UnitGroupModM


def _factor_ideal(m: IntegralIdeal):
    """[(prime ideal, exponent)] with product m.  m = (a; b; c) contains a,
    so each prime dividing m lies over a prime dividing a: factor a, not
    N(m) = a*c (ell, not ell^2, for an inert (ell)).  As an O-ideal, m is
    generated by a and b + c*w, so v_q(m) is the smaller of their
    valuations (over Q, c = 0 and m = (a))."""
    K = m.field
    out = []
    for ell in sorted(factorint(m.a)):
        for q in prime_ideals_above(K, ell):
            e = parts_valuation(m.a, 0, 1, q)
            if m.c:
                e = min(e, parts_valuation(m.b, m.c, 1, q))
            if e:
                out.append((q, e))
    # the product of the q^e, with no unit-ideal factor
    check = reduce(IntegralIdeal.__mul__, (q**e for q, e in out)) if out \
        else unit_ideal(K)
    if check != m:
        raise ValueError("ideal did not factor into primes")
    return out


def _p_power(m: IntegralIdeal, p: int) -> int:
    """M with m = (p^M), or ValueError."""
    M = vp(m.a, p)
    if m != rational_ideal(m.field, p**M):
        raise ValueError("%s is not a power of (%d)" % (m, p))
    return M


class RayClassGroupData:
    """p-part of the ray class group of conductor m, with dlog machinery.

    With `top`, a direct build of conductor (p^T), it is the level (p^M),
    M <= T, read as a quotient of the top (Neukirch, ANT, ch. VI
    sec. 1): Cl_(p^T) -> Cl_(p^M) is onto, with kernel the image of
    ker((O/p^T)* -> (O/p^M)*).  Each component of (O/p^T)* keeps its
    generators down the tower (the lifted primitive root, the Teichmueller
    lift, 1 + ell and 1 + ell*w), so a unit coordinate of the top, read
    modulo the lower generator order, is the lower dlog; the class
    representatives do not depend on M.  So the relations are the top's
    rows reduced that way, with the lower diagonal, and a class is the
    top's ambient vector reduced alike: no dlog, unit group, class search
    or principal generator is taken again.  `units` is then the top's,
    whose dlogs the level reads; `unit_orders` and `unit_norms` are the
    level's own."""

    def __init__(self, K: RealQuadraticField, modulus, p: int, top=None):
        check_odd_prime(p)
        self.field = K
        self.modulus = modulus
        self.p = p
        self.clg = class_group(K)
        self.top = top
        if top is None:
            self.units = UnitGroupModM(
                K, _factor_ideal(modulus) if modulus.norm > 1 else [])
            self.unit_orders = self.units.orders
            self.unit_norms = self.units.gen_norm_ints()
            self._unit_dlogs = [self.units.dlog(entry.element)
                                for entry in unit_entries(K)]
            self.class_gen_ideals, elements = self._class_gen_reps()
            class_dlogs = [self.units.dlog(g) for g in elements]
        else:
            M, T = _p_power(modulus, p), _p_power(top.modulus, p)
            if M > T or top.top is not None or top.field != K:
                raise ValueError("the top of a quotient level is a direct "
                                 "build of a higher power of (p)")
            self.units = top.units
            drop = p**(T - M)
            self.unit_orders = [o // gcd(o, drop) for o in top.unit_orders]
            if 1 in self.unit_orders:
                raise ValueError("a quotient level keeps every unit "
                                 "coordinate of its top")
            self.unit_norms = [n % p**M for n in top.unit_norms]
            self._unit_dlogs = [self._reduce(d) for d in top._unit_dlogs]
            self.class_gen_ideals = top.class_gen_ideals
            class_dlogs = [self._reduce(d) for d in top._class_dlogs]
        self._class_dlogs = class_dlogs
        nu = len(self.unit_orders)
        r = len(self.clg.gen_orders)
        self.nu, self.r = nu, r
        self.ambient_rank = nu + r

        rows = []
        for i, o in enumerate(self.unit_orders):
            rows.append([o if j == i else 0 for j in range(nu + r)])
        rows.extend(d + [0] * r for d in self._unit_dlogs)
        for j, d in enumerate(class_dlogs):
            rows.append([-t for t in d] + [self.clg.gen_orders[j] if t == j
                                           else 0 for t in range(r)])
        self.relations = rows
        # the unit-order rows and the class rows are triangular, with
        # diagonal the unit orders and the class orders: their product is
        # a multiple of the group order
        R = prod(self.unit_orders) * prod(self.clg.gen_orders)
        self.presentation = smith_presentation(rows, nu + r, modulus=R)
        if self.presentation.free_rank:
            raise InternalCheckError("ray class group came out infinite")
        self.full_factors = self.presentation.invariant_factors
        self.full_diag = self.presentation.full_diag
        self.full_transform = self.presentation.full_transform
        # p-part: reduce each full coordinate mod the p-part of its order
        v_parts = [vp(d, p) for d in self.full_diag]
        keep = [i for i, v in enumerate(v_parts) if v > 0]
        self.p_keep = keep
        self.p_group = FiniteAbelianGroup(
            invariant_factors=tuple(p**v_parts[i] for i in keep),
            free_rank=0,
            ambient_rank=self.ambient_rank,
            transform=[self.full_transform[i] for i in keep],
        )

    def _reduce(self, dlog):
        """A dlog of `units`, read modulo this level's generator orders."""
        return [t % o for t, o in zip(dlog, self.unit_orders)]

    def _class_gen_reps(self):
        K = self.field
        ideals = []
        elements = []
        if not self.clg.gen_keys:
            return ideals, elements
        needed = {k: None for k in self.clg.gen_keys}
        bad = self.modulus.norm * K.D
        ell = 1
        while any(v is None for v in needed.values()):
            ell += 1
            if ell > 50000:
                raise InternalCheckError("no class representatives coprime "
                                         "to m below the cap ell = 50000")
            if not isprime(ell) or bad % ell == 0:
                continue
            for q in prime_ideals_above(K, ell):
                k = self.clg.key_of(q)
                if k in needed and needed[k] is None:
                    needed[k] = q
        for key, order in zip(self.clg.gen_keys, self.clg.gen_orders):
            q = needed[key]
            ideals.append(q)
            g = principal_generator(q**order)
            if g is None:
                raise InternalCheckError("power of a class generator by its "
                                         "order is not principal")
            elements.append(g)
        return ideals, elements

    # ------------------------------------------------------------- class maps
    def ambient_of_ideal(self, q: IntegralIdeal):
        """Ambient exponent vector of the ray class [q], q coprime to m:
        the vector at the level whose dlogs this one reads, reduced."""
        vec = _ambient_at(self.top or self, q)
        return self._reduce(vec[:self.nu]) + list(vec[self.nu:])

    def p_class_of_ideal(self, q: IntegralIdeal) -> GroupElement:
        return self.p_group.project(self.ambient_of_ideal(q))

    # --------------------------------------------------------------- orders
    @property
    def p_order(self) -> int:
        return self.p_group.order

    def full_order(self) -> int:
        return prod(self.full_factors)

    def unit_image_order(self) -> int:
        """Order of the image of the global units in (O/m)*: |(O/m)*| over
        the index of the lattice of diag(unit_orders) and the unit dlogs."""
        size = prod(self.unit_orders)
        B = [[o if j == i else 0 for j in range(self.nu)]
             + [d[i] for d in self._unit_dlogs]
             for i, o in enumerate(self.unit_orders)]
        return size // lattice_index(B, modulus=size)

    def order_identity(self):
        """Both sides of |Cl_m| * |im E| = |Cl| * |(O/m)*|, full and p-part."""
        full, image = self.full_order(), self.unit_image_order()
        h, size = self.clg.h, prod(self.unit_orders)
        return {
            "full": (full * image, h * size),
            "p": (p_part(full, self.p) * p_part(image, self.p),
                  p_part(h, self.p) * p_part(size, self.p)),
        }


@lru_cache(maxsize=128)
def _ambient_at(rc: RayClassGroupData, q: IntegralIdeal) -> tuple:
    """The ambient vector of [q] at a direct build rc: the unit dlog of a
    generator of q times class representatives, and minus their
    exponents.  Each level below a top reads the top's vector, so the last
    128 are kept: a batch of 194 Kummer queries asks for 116 to 144
    distinct ones and keeps all its repeats with 106 slots."""
    b = list(rc.clg.ambient_dlog(q)) if rc.r else []
    J = q
    cs = []
    for j in range(rc.r):
        c = (rc.clg.gen_orders[j] - b[j]) % rc.clg.gen_orders[j]
        cs.append(c)
        if c:
            J = J * rc.class_gen_ideals[j]**c
    lam = principal_generator(J)
    if lam is None:
        raise InternalCheckError("class bookkeeping failed")
    return tuple(rc.units.dlog(lam) + [-c for c in cs])


def p_part(n: int, p: int) -> int:
    return p ** vp(n, p)


def ray_class_group(K: RealQuadraticField, modulus, p: int) \
        -> RayClassGroupData:
    """The ray class group of conductor `modulus`, an IntegralIdeal or an
    int n for the ideal (n), built directly on each call."""
    if not isinstance(modulus, IntegralIdeal):
        modulus = rational_ideal(K, modulus)
    return RayClassGroupData(K, modulus, p)


class RayClassTower:
    """The ray class groups of conductors (p^M), M >= 2, of one (K, p).
    The highest conductor asked for so far, the top, is built directly;
    each lower one is read as its quotient, and a higher one becomes the
    new top."""

    def __init__(self, K: RealQuadraticField, p: int):
        self.field, self.p = K, p
        self.top, self.exponent = None, 0

    def level(self, M: int) -> RayClassGroupData:
        if M < 2:
            raise ValueError("a tower level needs M >= 2")
        K, p = self.field, self.p
        modulus = rational_ideal(K, p**M)
        if M > self.exponent:
            self.top, self.exponent = RayClassGroupData(K, modulus, p), M
        if M == self.exponent:
            return self.top
        return RayClassGroupData(K, modulus, p, self.top)


@lru_cache(maxsize=16)
def ray_class_tower(K: RealQuadraticField, p: int) -> RayClassTower:
    """The tower of (K, p), one of the last 16 asked for: a batch of 194
    Kummer queries reads 12."""
    return RayClassTower(K, p)
