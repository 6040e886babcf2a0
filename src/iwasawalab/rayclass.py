"""Ray class groups of conductor m (no archimedean part) and their p-parts,
presented by generators and relations:

    generators: the cyclic generators of (O/m)* mapped into Cl_m, plus one
                ideal generator per class-group invariant;
    relations:  generator orders, images of the global units, and the
                principalization of each class generator's power.
"""

from __future__ import annotations

from math import gcd

from .abgroup import FiniteAbelianGroup, GroupElement, smith_presentation, \
    subgroup_image_order
from .ntheory import factorint, isprime
from .padic import vp
from .quadfield import (IntegralIdeal, RealQuadraticField, class_group,
                        fundamental_unit, prime_ideals_above,
                        principal_generator, rational_ideal, unit_ideal)
from .residues import UnitGroupModM

_RAY_CACHE = {}


def _factor_ideal(m: IntegralIdeal):
    """[(prime ideal, exponent)] with product m."""
    K = m.field
    out = []
    n = m.norm
    check = unit_ideal(K)
    ells = sorted(factor_keys(n))
    for ell in ells:
        for q in prime_ideals_above(K, ell):
            e = _ideal_val_of_ideal(m, q)
            if e:
                out.append((q, e))
                check = check * q**e
    if check != m:
        raise ValueError("ideal did not factor into primes")
    return out


def factor_keys(n: int):
    return factorint(n).keys()


def _ideal_val_of_ideal(m: IntegralIdeal, q: IntegralIdeal) -> int:
    K = m.field
    if K.is_rational:
        v = 0
        n, ell = m.a, q.a
        while n % ell == 0:
            n //= ell
            v += 1
        return v
    v = 0
    power = q
    while _ideal_contains_ideal(power, m):
        v += 1
        power = power * q
    return v


def _ideal_contains_ideal(I: IntegralIdeal, J: IntegralIdeal) -> bool:
    """J subset of I."""
    K = I.field
    gens = [(J.a, 0), (J.b, J.c)]
    for (u, v) in gens:
        if v % I.c:
            return False
        n = v // I.c
        if (u - n * I.b) % I.a:
            return False
    return True


class RayClassGroupData:
    """p-part of the ray class group of conductor m, with dlog machinery."""

    def __init__(self, K: RealQuadraticField, modulus, p: int):
        if isinstance(modulus, int):
            modulus = rational_ideal(K, modulus)
        if p % 2 == 0 or not isprime(p):
            raise ValueError("p must be an odd prime")
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
        for u in self._global_units():
            d = self.units.dlog(u)
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
        self.presentation = smith_presentation(rows, nu + r)
        if self.presentation.free_rank:
            raise AssertionError("ray class group came out infinite")
        self.full_factors = self.presentation.invariant_factors
        self.full_diag = self.presentation.full_diag
        self.full_transform = self.presentation.full_transform
        # p-part: reduce each full coordinate mod the p-part of its order
        v_parts = [vp(d, p) if d and d % p == 0 else 0
                   for d in self.full_diag]
        keep = [i for i, v in enumerate(v_parts) if v > 0]
        self.p_keep = keep
        self.p_group = FiniteAbelianGroup(
            invariant_factors=tuple(p**v_parts[i] for i in keep),
            free_rank=0,
            ambient_rank=self.ambient_rank,
            transform=[self.full_transform[i] for i in keep],
        )

    def _global_units(self):
        K = self.field
        out = [K.element(-1)]
        if not K.is_rational:
            out.append(fundamental_unit(K))
        return out

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
                raise AssertionError("no coprime class representatives found")
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
                raise AssertionError("power of a class generator by its "
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
            raise AssertionError("class bookkeeping failed")
        vec = self.units.dlog(lam) + [-c for c in cs]
        return vec

    def p_class_of_ideal(self, q: IntegralIdeal) -> GroupElement:
        return self.p_group.project(self.ambient_of_ideal(q))

    # --------------------------------------------------------------- orders
    @property
    def p_order(self) -> int:
        return self.p_group.order

    def full_order(self) -> int:
        n = 1
        for d in self.full_factors:
            n *= d
        return n

    def unit_image_order(self) -> int:
        """Order of the image of the global units in (O/m)*."""
        if not self.units.orders:
            return 1
        G = smith_presentation(
            [[o if j == i else 0 for j in range(self.nu)]
             for i, o in enumerate(self.units.orders)], self.nu)
        gens = [G.project(d) for d in self._unit_dlogs]
        return subgroup_image_order(G, gens)

    def order_identity(self):
        """Both sides of |Cl_m| * |im E| = |Cl| * |(O/m)*|, full and p-part."""
        lhs = self.full_order() * self.unit_image_order()
        rhs = self.clg.h * self.units.size
        def ppart(n):
            return p_part(n, self.p)
        return {
            "full": (lhs, rhs),
            "p": (ppart(self.full_order()) * ppart(self.unit_image_order()),
                  ppart(self.clg.h) * ppart(self.units.size)),
        }


def p_part(n: int, p: int) -> int:
    return p ** vp(n, p) if n % p == 0 else 1


def ray_class_group(K: RealQuadraticField, modulus, p: int) \
        -> RayClassGroupData:
    if isinstance(modulus, int):
        modulus = rational_ideal(K, modulus)
    key = (K.d, modulus.key(), p)
    if key not in _RAY_CACHE:
        _RAY_CACHE[key] = RayClassGroupData(K, modulus, p)
    return _RAY_CACHE[key]
