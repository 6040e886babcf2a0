"""Ray class groups of conductor m (no archimedean part) and their p-parts,
presented by generators and relations:

    generators: the cyclic generators of (O/m)* mapped into Cl_m, plus one
                ideal generator per class-group invariant;
    relations:  generator orders, images of the global units, and the
                principalization of each class generator's power.

The conductors p^M of one (F, p) form a tower, ray_class_tower: it
builds one of them, its top (p^T), directly, and no other.  Cl_(p^T) ->
Cl_(p^M) is onto, with kernel the image of ker((O/p^T)* -> (O/p^M)*)
(Neukirch, ANT, ch. VI sec. 1).  Each component of (O/p^T)* keeps its
generators down the tower (the lifted primitive root, the Teichmueller
lift, 1 + ell and 1 + ell*w), so a unit dlog of the top, read modulo the
lower generator order, is the lower dlog, and the class representatives
do not depend on M.  A lower level's relations are the top's and the
o_i(M) e_i of that kernel; its p-part is read off the Hermite form of
those rows modulo the p-part of the top's order, which is unique for the
level's lattice, so its coordinates do not depend on the top
(RayClassTower.p_level, the one level reader).  The top is the first
level asked for; a level M above it regrows the tower at p^(M+2)
(RayClassTower.grow).  The tower is the one record of the state of
(F, p).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache, reduce
from math import gcd, prod

from .abgroup import FiniteAbelianGroup, hermite_form, \
    smith_presentation, subgroup_image_order
from .ntheory import InternalCheckError, factorint
from .padic import vp
from .quadfield import (IntegralIdeal, RealQuadraticField, check_odd_prime,
                        class_group, parts_valuation, prime_ideals_above,
                        principal_generator, rational_ideal, unit_ideal)
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
    """The ray class group of conductor m, `group`, and its p-part,
    `p_group`, with dlog machinery, built directly: eps and the class
    representatives with their generators are read off the field's record,
    `clg`.  The relations are rows assembled from the dlogs of this build,
    and a class is its ambient vector, read by `ambient_of_ideal`,
    projected into the group."""

    def __init__(self, K: RealQuadraticField, modulus, p: int):
        check_odd_prime(p)
        self.field = K
        self.modulus = modulus
        self.p = p
        self.clg = class_group(K)
        self.units = UnitGroupModM(
            K, _factor_ideal(modulus) if modulus.norm > 1 else [])
        self.unit_orders = self.units.orders
        self.unit_norms = self.units.gen_norm_ints()
        # -1, whose row the components state, then eps but over Q
        self._unit_dlogs = [self.units.minus_one_dlog()]
        if not K.is_rational:
            self._unit_dlogs.append(self.units.dlog(self.clg.eps))
        self.class_gen_ideals, elements = self.clg.class_reps(modulus.norm)
        self._class_dlogs = [self.units.dlog(g) for g in elements]
        self._ambient = {}          # q -> ambient_of_ideal(q)
        # the rows: the generator orders, the unit dlogs and the
        # principalized class representatives' powers
        orders, gen_orders = self.unit_orders, self.clg.gen_orders
        nu, r = len(orders), len(gen_orders)
        rows = [[o if j == i else 0 for j in range(nu + r)]
                for i, o in enumerate(orders)]
        rows.extend([t % o for t, o in zip(d, orders)] + [0] * r
                    for d in self._unit_dlogs)
        for j, d in enumerate(self._class_dlogs):
            rows.append([-(t % o) for t, o in zip(d, orders)] +
                        [gen_orders[j] if t == j else 0 for t in range(r)])
        # the unit-order rows and the class rows are triangular, with
        # diagonal the unit orders and the class orders: their product is
        # a multiple of the group order
        G = smith_presentation(rows, nu + r,
                               modulus=prod(orders) * prod(gen_orders))
        self.relations, self.group = rows, G
        # p-part: each coordinate read modulo the p-part of its order
        self.p_group = FiniteAbelianGroup([p_part(d, p) for d in G.diag],
                                          G.transform)

    # ------------------------------------------------------------- class maps
    def ambient_of_ideal(self, q: IntegralIdeal) -> tuple:
        """Ambient exponent vector of the ray class [q], q coprime to m,
        kept on this build: the unit dlog of a generator of q times class
        representatives, and minus their exponents."""
        if q not in self._ambient:
            b = self.clg.ambient_dlog(q)
            cs = [(o - t) % o for o, t in zip(self.clg.gen_orders, b)]
            lam = principal_generator(reduce(IntegralIdeal.__mul__, (
                g**c for g, c in zip(self.class_gen_ideals, cs) if c), q))
            if lam is None:
                raise InternalCheckError("class bookkeeping failed")
            self._ambient[q] = tuple(self.units.dlog(lam) + [-c for c in cs])
        return self._ambient[q]

    # --------------------------------------------------------------- orders
    @property
    def p_order(self) -> int:
        return self.p_group.order

    def unit_image_order(self) -> int:
        """Order of the image of the global units in (O/m)*, the group of
        the unit orders: the subgroup that the unit dlogs generate."""
        return subgroup_image_order(FiniteAbelianGroup(self.unit_orders),
                                    self._unit_dlogs)

    def order_identity(self):
        """Both sides of |Cl_m| * |im E| = |Cl| * |(O/m)*|, full and p-part."""
        full, image = self.group.order, self.unit_image_order()
        h, size = self.clg.h, prod(self.unit_orders)
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
    int n for the ideal (n), built directly on each call."""
    if not isinstance(modulus, IntegralIdeal):
        modulus = rational_ideal(K, modulus)
    return RayClassGroupData(K, modulus, p)


class RayClassTower:
    """The state of one (K, p).  Of the ray class groups of conductors
    (p^M), M >= 2, one, the top, is built directly, and no other ray class
    record is built.  The p-part of a level, all that mq_order, group_G,
    `stable` and even_criterion read, comes from p_level, the one level
    reader: the Hermite form of the level's relations modulo the top's
    p-part order, which no choice of top or basis moves, so the
    coordinates `frobenius` prints depend on the level alone.  The first
    level asked of a fresh tower is its top, built exactly: a single query
    reads one or two levels, and a higher top costs it more than the
    quotients save.  A level M above the top regrows the tower at p^(M+2),
    the level mq_order reads first at the next precision (as
    kummer.EntryLogTable does), so an ascending run N, N + 1, N + 2 builds
    one top, not three.  For the last PAIRS_KEPT pairs of primes Q asked
    of (K, p), `recall` keeps the work that queries of Q at different
    precisions share: one entry per level and congruence split asked."""

    PAIRS_KEPT = 8

    def __init__(self, K: RealQuadraticField, p: int):
        self.field, self.p = K, p
        self.top, self.exponent = None, 0
        self.pairs = OrderedDict()

    def grow(self, M: int) -> RayClassGroupData:
        """The top, first built at exactly p^M and regrown at p^(M+2) when
        M is above it."""
        if M < 2:
            raise ValueError("a tower level needs M >= 2")
        if M > self.exponent:
            K, p = self.field, self.p
            T = M + 2 if self.exponent else M
            self.top = RayClassGroupData(K, rational_ideal(K, p**T), p)
            self.exponent = T
        return self.top

    def p_level(self, M: int) -> tuple:
        """(triangle, group) of the p-part of Cl_(p^M), on the ambient
        coordinates of the top grown as grow(M) grows it.  The level's
        relations are the top's and the o_i(M) e_i, which span the image of
        ker((O/p^T)* -> (O/p^M)*), and p^k, the p-part of the top's order,
        is a multiple of the level's p-exponent; `triangle` is the Hermite
        form of those rows modulo p^k, and `group` the Smith presentation of
        its rows.  The form is unique, so both are the same from every top,
        as are the classes that `group` projects the top's ambient vectors
        to."""
        top = self.grow(M)
        n, drop = len(top.group.diag), self.p**(self.exponent - M)
        triangle = hermite_form([[o // gcd(o, drop) if j == i else 0
                                  for j in range(n)]
                                 for i, o in enumerate(top.unit_orders)] +
                                top.relations, n, top.p_order)
        return triangle, smith_presentation(triangle, n, modulus=prod(
            row[j] for j, row in enumerate(triangle)))

    def recall(self, Q: tuple, key, make, *args):
        """The entry `key` of the pair of primes Q, make(*args) on first
        read; Q becomes the most recent pair, and the least recent past
        PAIRS_KEPT is dropped with its entries."""
        entries = self.pairs[Q] = self.pairs.pop(Q, {})
        if len(self.pairs) > self.PAIRS_KEPT:
            self.pairs.popitem(last=False)
        if key not in entries:
            entries[key] = make(*args)
        return entries[key]


@lru_cache(maxsize=32)
def ray_class_tower(K: RealQuadraticField, p: int) -> RayClassTower:
    """The tower of (K, p), the record of its state, for the last 32 pairs
    (K, p) asked for; ray_class_tower.cache_clear() empties all of it."""
    return RayClassTower(K, p)
