"""Multiplicative groups (O/q^e)* of residue rings of prime-ideal powers,
with explicit generators, orders, and discrete logarithms.

Residues are ints (rational, split and ramified components) or coordinate
pairs over the integral basis {1, w} (inert components).  Split and ramified
components are (Z/ell^e)* through the image of w; a ramified one has e = 1.

A unit u of O/q^e is its torsion part, a power g^k of the torsion generator,
times a 1-unit.  Reduction mod ell kills the 1-units, so k is the dlog of
(u mod ell) to the base (g mod ell) in the residue field F_ell or F_ell^2;
the 1-unit coordinates come from the ell-adic log series.

The dlog of -1 is stated, not computed (minus_one_dlog): for odd ell, -1
is g^(n/2) in the cyclic torsion <g> of order n, with 0 on the 1-unit
coordinates; in (Z/2^e)* the first generator is -1 itself.

The torsion dlog is a Pohlig-Hellman run over the residue field
(pohlig_hellman; Pohlig & Hellman 1978; Cohen, GTM 138, Section 1.4) that
takes every power of g again on each call: a component lives for one
ray-class build, which asks it few dlogs (eps, the class representatives,
the ideals whose classes it reads).  For each q^a exactly dividing the
order of g, it reads the base-q digits of k mod q^a by baby-step giant-step
in the subgroup of order q and joins the q^a-parts by CRT.

In F_ell^2 (inert ell), Frobenius is conjugation: u^ell = conj(u), so

    u^(ell + 1) = N(u) in F_ell*,   u^(ell - 1) = conj(u)^2 / N(u),

the latter in the norm-one torus of order ell + 1.  So k mod the odd part
of ell - 1 is read from N(u) with the builtin pow on ints, k mod the odd
part of ell + 1 is read in the torus with exponents at most ell + 1, and
only the 2-part, which ell - 1 and ell + 1 share, takes a power in the
whole group.
"""

from __future__ import annotations

from math import isqrt

from .ntheory import InternalCheckError, crt, factorint, power, quad_mul
from .padic import log_series
from .quadfield import (FieldElement, IntegralIdeal, RealQuadraticField,
                        prime_kind, split_root)


def _merge(r1: int, m1: int, r2: int, m2: int, what: str):
    """crt of two dlog parts, which must agree."""
    merged = crt(r1, m1, r2, m2)
    if merged is None:
        raise InternalCheckError(what + " are inconsistent")
    return merged


class ModularUnits:
    """(Z/m)*, on ints: F_ell* for m = ell prime."""

    def __init__(self, m: int):
        self.m = m
        self.one = 1

    def mul(self, x, y):
        return x * y % self.m

    def exp(self, x, k: int):
        return pow(x, k, self.m)

    def inv(self, x):
        return pow(x, -1, self.m)


class _QuadFieldUnits:
    """F_ell^2* = F_ell[w]/(w^2 - t*w + n) for an irreducible quadratic, on
    pairs over {1, w}.  Frobenius is conjugation, u^ell = conj(u)."""

    def __init__(self, t: int, n: int, ell: int):
        self.t, self.n, self.ell = t % ell, n % ell, ell
        self.one = (1, 0)
        self.mul = quad_mul(self.t, self.n, ell)

    def norm(self, u) -> int:
        """N(u) = u^(ell + 1), in F_ell*."""
        return (u[0] * u[0] + self.t * u[0] * u[1]
                + self.n * u[1] * u[1]) % self.ell

    def scale(self, u, c: int):
        return u[0] * c % self.ell, u[1] * c % self.ell

    def conj(self, u):
        """u^ell: conj(x + y*w) = x + t*y - y*w."""
        return (u[0] + self.t * u[1]) % self.ell, -u[1] % self.ell

    def inv(self, u):
        return self.scale(self.conj(u), pow(self.norm(u), -1, self.ell))

    def frobenius_quotient(self, u):
        """u^(ell - 1) = conj(u)^2 / N(u), in the torus of order ell + 1."""
        c = self.conj(u)
        return self.scale(self.mul(c, c), pow(self.norm(u), -1, self.ell))

    def is_torus_root_of_unity(self, z, k: int) -> bool:
        """z^k == 1 for z of norm one, read from the trace: z^-1 = conj(z),
        so Tr(z^k) = z^k + z^-k, which is 2 iff (z^k - 1)^2 = 0.  The traces
        V_j = Tr(z^j) follow the Lucas ladder V_2j = V_j^2 - 2,
        V_(2j+1) = V_j * V_(j+1) - V_1, on ints."""
        ell = self.ell
        v1 = (2 * z[0] + self.t * z[1]) % ell
        a, b = 2, v1
        for bit in bin(k)[2:]:
            if bit == "1":
                a, b = (a * b - v1) % ell, (b * b - 2) % ell
            else:
                a, b = (a * a - 2) % ell, (a * b - v1) % ell
        return a == 2 % ell

    def exp(self, u, k: int):
        """u^k, by square-and-multiply only on exponents up to ell + 1:
        u^(2j) = N(u)^j * v^j with v = u^2 / N(u) = u^(1 - ell), whose order
        divides ell + 1."""
        ell = self.ell
        if k <= ell + 1:
            return power(self.mul, self.one, u, k)
        nrm = self.norm(u)
        v = self.scale(self.mul(u, u), pow(nrm, -1, ell))
        j = k >> 1
        y = self.scale(power(self.mul, self.one, v, j % (ell + 1)),
                       pow(nrm, j, ell))
        return self.mul(y, u) if k & 1 else y


def pohlig_hellman(G, g, n: int, fac: dict, h):
    """(k, modulus) with h = g^k, k read modulo the product of the q^a of
    fac, each exactly dividing the order n of g in the cyclic group G (one
    of the unit groups above), by the run of the module docstring."""
    mul, exp = G.mul, G.exp
    k, mod = 0, 1
    for q, a in fac.items():
        qa = q**a
        gq, t = exp(g, n // qa), exp(h, n // qa)
        gamma = exp(gq, qa // q) if a > 1 else gq
        m = isqrt(q - 1) + 1
        baby, z = {}, G.one
        for j in range(m):
            baby[z] = j
            z = mul(z, gamma)
        giant = G.inv(z)
        strip = G.inv(gq) if a > 1 else None   # g_q^(-q^j) at digit j
        x, qj = 0, 1
        for j in range(a):
            # t = g_q^(k - x) has order dividing q^(a - j)
            y = exp(t, qa // (qj * q)) if j < a - 1 else t
            for i in range(m):
                if y in baby:
                    break
                y = mul(y, giant)
            else:
                raise InternalCheckError("dlog: element outside the subgroup")
            d = i * m + baby[y]
            if j < a - 1:
                if d:
                    t = mul(t, strip if d == 1 else exp(strip, d))
                strip = exp(strip, q)
            x += d * qj
            qj *= q
        k, mod = _merge(k, mod, x, qj, "Pohlig-Hellman digits")
    return k, mod


class _Component:
    """Base: multiplicative group of O/q^e for one prime ideal q."""

    def __init__(self, K, q, ell, e):
        self.field = K
        self.q = q
        self.ell = ell
        self.e = e

    # subclasses define: one, mul, reduce, gens, orders, dlog, norm_int

    def minus_one_dlog(self) -> list:
        """dlog(-1) from the generator orders (see the module docstring);
        the first order n is odd only for F_4*, where -1 = 1."""
        if not self.orders:
            return []
        n = self.orders[0]
        return [0 if n % 2 else n // 2] + [0] * (len(self.orders) - 1)


class RationalComponent(_Component):
    """(Z/ell^e)*; also used for split and ramified (e = 1) components
    through the root map."""

    def __init__(self, K, q, ell, e, root=None):
        super().__init__(K, q, ell, e)
        self.mod = ell**e
        self.root = root  # image of w, for split and ramified components
        self.one = 1 % self.mod
        if ell == 2:
            if e == 1:
                self.gens, self.orders = [], []
            elif e == 2:
                self.gens, self.orders = [self.mod - 1], [2]
            else:
                self.gens = [self.mod - 1, 5 % self.mod]
                self.orders = [2, 2**(e - 2)]
                l5 = log_series(4, 0, 0, 0, 2, e)[0]
                self._log_gen_inv = pow(l5 // 4, -1, 2**(e - 2))
        else:
            fac = factorint(ell - 1)
            g = _primitive_root(ell, fac)
            self._torsion = (ModularUnits(ell), g, ell - 1, fac)
            if e > 1 and pow(g, ell - 1, ell * ell) == 1:
                g += ell
            self.gens = [g % self.mod]
            self.orders = [(ell - 1) * ell**(e - 1)]
            if e > 1:
                lg = log_series(pow(g, ell - 1, self.mod) - 1, 0, 0, 0,
                                ell, e)[0]
                self._log_gen_inv = pow(lg // ell, -1, ell**(e - 1))

    def mul(self, a, b):
        return a * b % self.mod

    def reduce(self, x: FieldElement):
        num_x, num_y, den = x.a, x.b, x.den
        if self.root is None:
            if num_y:
                raise ValueError("nonrational element in rational component")
            val = num_x
        else:
            val = num_x + num_y * self.root
        if den % self.ell == 0 or val % self.ell == 0:
            raise ValueError("element is not a unit at this component")
        return val * pow(den, -1, self.mod) % self.mod

    def dlog(self, a):
        ell, e = self.ell, self.e
        if ell == 2:
            if e == 1:
                return []
            if e == 2:
                return [0 if a % 4 == 1 else 1]
            s = 0 if a % 4 == 1 else 1
            y = a * (self.mod - 1 if s else 1) % self.mod
            ly = log_series(y - 1, 0, 0, 0, 2, e)[0]
            k = (ly // 4) * self._log_gen_inv % 2**(e - 2)
            return [s, k]
        # torsion part, in F_ell*
        k1 = pohlig_hellman(*self._torsion, a % ell)[0]
        if e == 1:
            return [k1]
        # 1-unit part via the ell-adic log
        la = log_series(pow(a, ell - 1, self.mod) - 1, 0, 0, 0, ell, e)[0]
        k2 = (la // ell) * self._log_gen_inv % ell**(e - 1)
        return [_merge(k1, ell - 1, k2, ell**(e - 1),
                       "torsion and 1-unit dlogs")[0]]

    def norm_int(self, a):
        # norm to Z/ell^e of an element supported in this component only:
        # for split components the conjugate component carries 1; at a
        # ramified prime (e(q) = 2) the norm of a rational residue is a^2
        if self.field.D % self.ell == 0:
            return a * a % self.mod
        return a % self.mod


class InertComponent(_Component):
    """(O/ell^e)* for an inert prime, residues as pairs over {1, w}."""

    def __init__(self, K, q, ell, e):
        super().__init__(K, q, ell, e)
        self.mod = ell**e
        self.one = (1, 0)
        self._trace, self._norm = K.w_trace, K.w_norm
        self.mul = quad_mul(self._trace, self._norm, self.mod)
        n_res = ell * ell - 1
        fac_minus, fac_plus = factorint(ell - 1), factorint(ell + 1)
        F = self._residue_field = _QuadFieldUnits(self._trace, self._norm,
                                                  ell)
        g = _inert_generator(F, fac_minus, fac_plus)
        a2 = fac_minus.get(2, 0) + fac_plus.get(2, 0)
        self._torsion_parts = (
            (F, g, n_res, {2: a2} if a2 else {}),
            (ModularUnits(ell), F.norm(g), ell - 1,
             {q: a for q, a in fac_minus.items() if q != 2}),
            (F, F.frobenius_quotient(g), ell + 1,
             {q: a for q, a in fac_plus.items() if q != 2}))
        if e == 1:
            self.gens, self.orders = [g], [n_res]
        else:
            for _ in range(2 * e + 2):
                g2 = power(self.mul, self.one, g, ell * ell)
                if g2 == g:
                    break
                g = g2
            self.gens = [g, (1 + ell, 0), (1, ell)]
            self.orders = [n_res, ell**(e - 1), ell**(e - 1)]
            # logs of the 1-unit generators 1 + ell and 1 + ell*w
            self._log_u1 = log_series(ell, 0, self._trace, self._norm, ell, e)
            self._log_u2 = log_series(0, ell, self._trace, self._norm, ell, e)

    def _unit(self, u):
        return self.norm_int(u) % self.ell != 0

    def reduce(self, x: FieldElement):
        num_x, num_y, den = x.a, x.b, x.den
        if den % self.ell == 0:
            raise ValueError("denominator not invertible")
        inv = pow(den, -1, self.mod)
        u = (num_x * inv % self.mod, num_y * inv % self.mod)
        if not self._unit(u):
            raise ValueError("element is not a unit at this component")
        return u

    def _torsion_dlog(self, u):
        """k mod ell^2 - 1 with u = g^k mod ell: the 2-part in F_ell^2*, the
        odd part of ell - 1 from N(u) and that of ell + 1 from the torus."""
        F = self._residue_field
        u = (u[0] % self.ell, u[1] % self.ell)
        k, mod = 0, 1
        for part, h in zip(self._torsion_parts,
                           (u, F.norm(u), F.frobenius_quotient(u))):
            k, mod = _merge(k, mod, *pohlig_hellman(*part, h),
                            "torsion dlog parts")
        return k

    def dlog(self, u):
        ell, e = self.ell, self.e
        i = self._torsion_dlog(u)
        if e == 1:
            return [i]
        n_res = ell * ell - 1
        w = self.mul(u, power(self.mul, self.one, self.gens[0], n_res - i)) \
            if i else u
        lw = log_series(w[0] - 1, w[1], self._trace, self._norm, ell, e)
        # solve alpha * log(u1) + beta * log(u2) = log(w) mod ell^(e-1)
        m1 = ell**(e - 1)
        a11, a21 = self._log_u1[0] // ell, self._log_u1[1] // ell
        a12, a22 = self._log_u2[0] // ell, self._log_u2[1] // ell
        b1, b2 = lw[0] // ell, lw[1] // ell
        det = a11 * a22 - a12 * a21
        if det % ell == 0:
            raise InternalCheckError("1-unit log basis is degenerate")
        det_inv = pow(det, -1, m1)
        alpha = (b1 * a22 - b2 * a12) * det_inv % m1
        beta = (a11 * b2 - a21 * b1) * det_inv % m1
        return [i, alpha, beta]

    def norm_int(self, u):
        return (u[0] * u[0] + self._trace * u[0] * u[1]
                + self._norm * u[1] * u[1]) % self.mod


def _primitive_root(ell: int, fac: dict) -> int:
    """The least primitive root mod an odd prime ell; fac factors ell - 1."""
    for g in range(2, ell):
        if all(pow(g, (ell - 1) // q, ell) != 1 for q in fac):
            return g
    raise InternalCheckError("%d is not an odd prime" % ell)


def _inert_generator(F: _QuadFieldUnits, fac_minus: dict, fac_plus: dict):
    """The first pair (x, y) mod ell, in lexicographic order, for which
    x + y*w generates F = F_{ell^2}*; fac_minus, fac_plus factor ell - 1
    and ell + 1.

    g generates iff g^(n/q) != 1 for every prime q | n = ell^2 - 1.  For
    odd q | ell - 1, g^(n/q) = N(g)^((ell - 1)/q), as g^(ell + 1) = N(g)
    lies in F_ell.  For q | ell + 1, c^(n/q) = 1 for each c in F_ell*, so
    the test depends only on the class F_ell* g: (0 : 1) on the row x = 0,
    (1 : y/x) elsewhere, each tested once.  For q = 2 the test is the
    Legendre symbol of N(c), since c^(n/2) = N(c)^((ell - 1)/2); for odd q
    it reads the trace of z^((ell + 1)/q), where z = c^(ell - 1) =
    conj(c)^2 / N(c) lies in the torus of order ell + 1."""
    ell = F.ell
    odd_minus = [(ell - 1) // q for q in fac_minus if q != 2]
    odd_plus = [(ell + 1) // q for q in fac_plus if q != 2]
    half = (ell - 1) // 2 if 2 in fac_plus else None
    class_ok = {}

    def norm_ok(x, y):
        nrm = F.norm((x, y))
        return nrm != 0 and all(pow(nrm, k, ell) != 1 for k in odd_minus)

    def class_of_ok(r):
        if r not in class_ok:
            c = (0, 1) if r is None else (1, r)
            ok = half is None or pow(F.norm(c), half, ell) != 1
            if ok:
                z = F.frobenius_quotient(c)
                ok = not any(F.is_torus_root_of_unity(z, k)
                             for k in odd_plus)
            class_ok[r] = ok
        return class_ok[r]

    if class_of_ok(None):
        for y in range(1, ell):
            if norm_ok(0, y):
                return (0, y)
    for x in range(1, ell):
        x_inv = pow(x, -1, ell)
        for y in range(ell):
            if norm_ok(x, y) and class_of_ok(y * x_inv % ell):
                return (x, y)
    raise InternalCheckError("T^2 - %d*T + %d is reducible mod %d"
                             % (F.t, F.n, ell))


def make_component(K: RealQuadraticField, q: IntegralIdeal, e: int):
    """(O/q^e)* for a prime ideal q from factor_rational_prime, of the kind
    prime_kind reads from its HNF, untested: (ell) over Q, (ell; 0; ell)
    inert, (ell; b; 1) split or, when ell | D, ramified."""
    ell, kind = prime_kind(q)
    if kind == "rational":
        return RationalComponent(K, q, ell, e)
    if kind == "split":
        return RationalComponent(K, q, ell, e, root=split_root(q, e))
    if kind == "inert":
        if ell == 2 and e > 1:
            raise ValueError("inert 2-power moduli are unsupported")
        return InertComponent(K, q, ell, e)
    if e != 1:
        raise ValueError("ramified prime-power moduli are unsupported")
    # q = (ell; b; 1) contains b + w, so w maps to the double root -b of its
    # minimal polynomial mod ell
    return RationalComponent(K, q, ell, 1, root=(-q.b) % ell)


class UnitGroupModM:
    """(O/m)* presented by independent cyclic generators across components."""

    def __init__(self, K: RealQuadraticField, factored):
        # factored: [(prime ideal, exponent)]
        self.components = [make_component(K, q, e) for q, e in factored]
        self.orders = [o for comp in self.components for o in comp.orders]

    def dlog(self, x: FieldElement):
        out = []
        for comp in self.components:
            out.extend(comp.dlog(comp.reduce(x)))
        return out

    def minus_one_dlog(self):
        """dlog(-1), stated by each component with no dlog taken."""
        return [k for comp in self.components for k in comp.minus_one_dlog()]

    def gen_norm_ints(self):
        """Norm of each generator to Z, modulo ell^e of its component."""
        return [comp.norm_int(g) for comp in self.components
                for g in comp.gens]
