"""Completions of F at finite places, localization maps, and the rank and
torsion criteria on them: local torsion tests, S-unit membership, and the
Z_p-rank of a matrix of local coordinates.

A local log is a tuple of PAdicNumber coordinates: () away from p, where
only the valuation contributes to any Z_p-rank; one coordinate at a split
or rational place above p; two at an inert one, over {1, s}, s = sqrt(D).
The log is taken on integer residues by `padic.unit_log_residues`; only
its coordinates become p-adic objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .ntheory import InternalCheckError, isprime
from .padic import PAdicNumber, unit_log_residues, vp
from .quadfield import (FieldElement, IntegralIdeal, RealQuadraticField,
                        SUnitProduct, factor_rational_prime,
                        ideal_valuation, parts_valuation, split_root)

TRUE, FALSE, INDET = "true", "false", "indeterminate"


@dataclass(frozen=True)
class PlaceAbovePrime:
    """A finite place of F over the rational prime ell."""
    field: RealQuadraticField
    ell: int
    kind: str          # "rational" | "split" | "inert" | "ramified"
    index: int         # 0/1 distinguishes the two split places
    ideal: IntegralIdeal
    residue_degree: int

    def key(self):
        return (self.ell, self.kind, self.index)

    def __str__(self):
        if self.kind == "split":
            return "%d%s" % (self.ell, "ab"[self.index])
        return str(self.ell)


def places_above(K: RealQuadraticField, ell: int):
    rep = factor_rational_prime(K, ell)
    out = []
    for i, q in enumerate(rep.ideals):
        out.append(PlaceAbovePrime(K, ell, rep.kind, i, q,
                                   rep.residue_degree))
    return out


def completions_above_p(K: RealQuadraticField, p: int):
    """The places of K above p; p must be odd and unramified in K."""
    if p % 2 == 0 or not isprime(p):
        raise ValueError("p must be an odd prime")
    if not K.is_rational and K.D % p == 0:
        raise ValueError("p = %d ramifies in %s" % (p, K.spec_string()))
    return places_above(K, p)


def _coordinates(a: int, b: int, den: int, place: PlaceAbovePrime,
                 work: int):
    """(a + b*w)/den mod p^work for a p-unit den, as the pair over {1, s},
    s = sqrt(D), at an inert place and as (residue, 0) otherwise."""
    K, p = place.field, place.ell
    mod = p**work
    inv = pow(den, -1, mod)
    if place.kind == "inert":     # w = (D + s)/2 in coordinates over {1, s}
        inv2 = pow(2, -1, mod)
        return (a + b * K.D * inv2) * inv % mod, b * inv2 * inv % mod
    w = split_root(place.ideal, work) if place.kind == "split" else 0
    return (a + b * w) * inv % mod, 0


@dataclass
class LocalValue:
    """Valuation and 1-unit log data of an element at one place."""
    place: PlaceAbovePrime
    valuation: object            # int, or PAdicNumber for formal products
    unit_log: tuple              # PAdicNumber coordinates; () away from p


def _element_unit_log(x: FieldElement, place: PlaceAbovePrime, N: int):
    """(v, coordinates of the log of the 1-unit part of x) at a place above
    p.  With x = (a + b*w)/den and s = v + v_p(den) = v_q(a + b*w), the unit
    x/p^v is read to A = N + max(v, 0) + 2 - v digits: the coordinates of
    (a + b*w)/den' mod p^(A + s), den = p^v_p(den)*den', divided by p^s."""
    a, b, den = x.a, x.b, x.den
    v = parts_valuation(a, b, den, place.ideal)
    p = place.ell
    vden = vp(den, p)
    s, A = v + vden, N + max(v, 0) + 2 - v
    c0, c1 = _coordinates(a, b, den // p**vden, place, A + s)
    ps = p**max(s, 0)
    u0, u1 = c0 // ps, c1 // ps
    if s < 0 or c0 % ps or c1 % ps or not (u0 % p or u1 % p):
        raise InternalCheckError("x/p^%d is not a unit at %s" % (v, place))
    r = place.field.D if place.kind == "inert" else 0
    l0, l1 = unit_log_residues(u0, u1, r, p, A)
    return v, tuple(PAdicNumber.from_residue(c, p, A)
                    for c in ((l0, l1) if r else (l0,)))


def loc(x, place: PlaceAbovePrime, p: int, N: int) -> LocalValue:
    """Localization of a field element or formal S-unit product.

    The 1-unit log is computed only at places above the working prime p;
    away from p the unit part is torsion in the pro-p completion and only
    the valuation matters.
    """
    with_log = place.ell == p and place.kind != "ramified"
    if isinstance(x, FieldElement):
        if not with_log:
            return LocalValue(place, ideal_valuation(x, place.ideal), ())
        vv, lg = _element_unit_log(x, place, N)
        return LocalValue(place, vv, lg)
    if not isinstance(x, SUnitProduct):
        raise TypeError("loc expects a FieldElement or SUnitProduct")
    val = x.valuation_at(place.ideal.key())
    if not with_log:
        return LocalValue(place, val, ())
    total = None
    for e, entry in zip(x.exponents, x.basis.entries):
        _, lg = _element_unit_log(entry.element, place, N)
        term = tuple(c * e for c in lg)
        total = term if total is None else tuple(map(add, total, term))
    return LocalValue(place, val, total)


def loc_p(x, places, p: int, N: int):
    """LocalizationVector: the per-place images at the given places."""
    return {place.key(): loc(x, place, p, N) for place in places}


def _val_status(v):
    """(is_zero, certified) for an exact int or PAdicNumber valuation."""
    if isinstance(v, int):
        return v == 0, True
    if v.is_marker:
        return True, v.is_exact_zero or v.v >= 1
    return False, True


def is_loc_torsion(x, place: PlaceAbovePrime, p: int, N: int) -> str:
    """Whether loc(x) is torsion in the pro-p completion at `place`."""
    lv = loc(x, place, p, N)
    zero, certified = _val_status(lv.valuation)
    if not zero:
        return FALSE
    # away from p the log is (): the unit part is torsion in the pro-p
    # completion
    if any(not c.is_marker for c in lv.unit_log):
        return FALSE
    return TRUE if certified else INDET


def eq_membership(x: SUnitProduct, Q_ideals) -> bool:
    """Does x lie in the completed Q-unit group, i.e. supported on Q only?"""
    allowed = {q.key() for q in Q_ideals}
    for key in x.support_keys():
        if key in allowed:
            continue
        v = x.valuation_at(key)
        if not v.is_marker:
            return False
    return True


@dataclass
class RankReport:
    rank: int
    certified: bool

    def __int__(self):
        return self.rank


def zp_matrix_rank(rows) -> RankReport:
    """Z_p-rank of a matrix of PAdicNumbers by valuation-pivoted elimination.

    The rank counts certified pivots; `certified` is False when entries
    below working precision could hide further pivots.
    """
    rows = [list(r) for r in rows]
    rank = 0
    certified = True
    while rows and rows[0]:
        best = None
        for i, r in enumerate(rows):
            for j, e in enumerate(r):
                if not e.is_marker and (best is None or e.v < best[2].v):
                    best = (i, j, e)
        if best is None:
            if any(not e.is_exact_zero for r in rows for e in r):
                certified = False
            break
        bi, bj, piv = best
        rank += 1
        inv = piv.inv()
        new_rows = []
        for i, r in enumerate(rows):
            if i == bi:
                continue
            coef = r[bj] * inv
            nr = [r[j] - coef * rows[bi][j] for j in range(len(r)) if j != bj]
            new_rows.append(nr)
        rows = new_rows
    return RankReport(rank, certified)
