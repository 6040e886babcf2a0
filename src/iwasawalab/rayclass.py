"""Ray class groups of conductor m (no archimedean part) and their p-parts,
presented by generators and relations:

    generators: the cyclic generators of (O/m)* mapped into Cl_m, plus one
                ideal generator per class-group invariant;
    relations:  generator orders, images of the global units, and the
                principalization of each class generator's power.
"""

from __future__ import annotations

from functools import reduce
from math import prod

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


class RayClassGroupData:
    """p-part of the ray class group of conductor m, with dlog machinery."""

    def __init__(self, K: RealQuadraticField, modulus, p: int):
        check_odd_prime(p)
        self.field = K
        self.modulus = modulus
        self.p = p
        self.factored = _factor_ideal(modulus) if modulus.norm > 1 else []
        self.units = UnitGroupModM(K, self.factored)
        self.clg = class_group(K)
        nu = self.units.ngens
        r = len(self.clg.gen_orders)
        self.nu, self.r = nu, r
        self.ambient_rank = nu + r

        rows = []
        for i, o in enumerate(self.units.orders):
            rows.append([o if j == i else 0 for j in range(nu + r)])
        self._unit_dlogs = []
        for entry in unit_entries(K):
            d = self.units.dlog(entry.element)
            self._unit_dlogs.append(d)
            rows.append(d + [0] * r)
        self.class_gen_ideals, self.class_gen_elements = \
            self._class_gen_reps()
        for j in range(r):
            g_elt = self.class_gen_elements[j]
            drow = [-t for t in self.units.dlog(g_elt)]
            rows.append(drow + [self.clg.gen_orders[j] if t == j else 0
                                for t in range(r)])
        self.relations = rows
        # the unit-order rows and the class rows are triangular, with
        # diagonal the unit orders and the class orders: their product is
        # a multiple of the group order
        R = prod(self.units.orders) * prod(self.clg.gen_orders)
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
        """Ambient exponent vector of the ray class [q], q coprime to m."""
        K = self.field
        b = list(self.clg.ambient_dlog(q)) if self.r else []
        J = q
        cs = []
        for j in range(self.r):
            c = (self.clg.gen_orders[j] - b[j]) % self.clg.gen_orders[j]
            cs.append(c)
            if c:
                J = J * self.class_gen_ideals[j]**c
        lam = principal_generator(J)
        if lam is None:
            raise InternalCheckError("class bookkeeping failed")
        vec = self.units.dlog(lam) + [-c for c in cs]
        return vec

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
        the index of the lattice of diag(units.orders) and the unit dlogs."""
        size = self.units.size
        B = [[o if j == i else 0 for j in range(self.nu)]
             + [d[i] for d in self._unit_dlogs]
             for i, o in enumerate(self.units.orders)]
        return size // lattice_index(B, modulus=size)

    def order_identity(self):
        """Both sides of |Cl_m| * |im E| = |Cl| * |(O/m)*|, full and p-part."""
        full, image = self.full_order(), self.unit_image_order()
        h, size = self.clg.h, self.units.size
        return {
            "full": (full * image, h * size),
            "p": (p_part(full, self.p) * p_part(image, self.p),
                  p_part(h, self.p) * p_part(size, self.p)),
        }


def p_part(n: int, p: int) -> int:
    return p ** vp(n, p)


def ray_class_group(K: RealQuadraticField, modulus, p: int) \
        -> RayClassGroupData:
    """The ray class group of conductor `modulus`, an IntegralIdeal or an
    int n for the ideal (n), built on each call: mq_order keeps the levels
    it reads again in its own memo."""
    if not isinstance(modulus, IntegralIdeal):
        modulus = rational_ideal(K, modulus)
    return RayClassGroupData(K, modulus, p)
