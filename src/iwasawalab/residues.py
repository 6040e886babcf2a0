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
order n of g, k = 0 mod q^a when h^(n/q^a) = 1, with no power of g taken.
Otherwise k mod q^a is read by baby-step giant-step: in one run over the
subgroup of order q^a when its table of isqrt(q^a) entries costs no more
than the a runs of the base-q digits, each isqrt(q) giant steps and
ladders over the bits of q^a; else digit by digit, in the subgroup of
order q.  The q^a-parts are joined by CRT.

In F_ell^2 (inert ell), Frobenius is conjugation: u^ell = conj(u), so

    u^(ell + 1) = N(u) in F_ell*,   u^(ell - 1) = conj(u)^2 / N(u),

the latter in the norm-one torus of order ell + 1.  So k mod ell - 1 is
read from N(u) with the builtin pow on ints, and k mod ell + 1 in the
torus, whose powers are one Lucas ladder on ints (torus_pow).  As
gcd(ell - 1, ell + 1) = 2, their CRT is k0 = k mod (ell^2 - 1)/2 (k mod 3
for ell = 2), and g^((ell^2 - 1)/2) = -1, so one power settles the last
bit: g^k0 is u, or -u, when k = k0 + (ell^2 - 1)/2.
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
        self.m, self.one = m, 1

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

    def frobenius_quotient(self, u):
        """u^(ell - 1) = conj(u)^2 / N(u), in the torus of order ell + 1."""
        c = self.conj(u)
        return self.scale(self.mul(c, c), pow(self.norm(u), -1, self.ell))

    def torus_pow(self, z, k: int):
        """z^k for z of norm one, of order dividing ell + 1: z^2 = T*z - 1,
        T = Tr(z), so z^k = U_k*z - U_(k-1) for the Lucas sequence U_0 = 0,
        U_1 = 1, U_(j+1) = T*U_j - U_(j-1), whose ladder on (U_j, U_(j+1))
        takes three products a bit: U_2j = U_j*(2*U_(j+1) - T*U_j),
        U_(2j+1) = U_(j+1)^2 - U_j^2 and
        U_(2j+2) = U_(j+1)*(T*U_(j+1) - 2*U_j)."""
        ell = self.ell
        tr = (2 * z[0] + self.t * z[1]) % ell
        a, b = 0, 1
        for bit in bin(k % (ell + 1))[2:]:
            if bit == "1":
                a, b = (b - a) * (b + a) % ell, b * (tr * b - 2 * a) % ell
            else:
                a, b = a * (2 * b - tr * a) % ell, (b - a) * (b + a) % ell
        return (a * (z[0] - tr) + b) % ell, a * z[1] % ell

    def exp(self, u, k: int):
        """u^k through the torus: u^(2j) = N(u)^j * v^j with v = u^2 / N(u)
        = u^(1 - ell) of norm one."""
        ell, nrm = self.ell, self.norm(u)
        v = self.scale(self.mul(u, u), pow(nrm, -1, ell))
        y = self.scale(self.torus_pow(v, k >> 1), pow(nrm, k >> 1, ell))
        return self.mul(y, u) if k & 1 else y


class _NormOneTorus:
    """The norm-one torus of F_ell^2*, cyclic of order ell + 1, as a group
    for pohlig_hellman: z^k by torus_pow, and z^-1 = conj(z)."""

    def __init__(self, F: _QuadFieldUnits):
        self.one, self.mul = F.one, F.mul
        self.exp, self.inv = F.torus_pow, F.conj


def pohlig_hellman(G, g, n: int, fac: dict, h):
    """(k, modulus) with h = g^k, k read modulo the product of the q^a of
    fac, each exactly dividing the order n of g in the cyclic group G (one
    of the unit groups above), by the run of the module docstring: c
    digits of width W, one of width q^a or a of width q."""
    mul, exp = G.mul, G.exp
    k, mod = 0, 1
    for q, a in fac.items():
        qa = q**a
        t = exp(h, n // qa)
        if t == G.one:
            k, mod = _merge(k, mod, 0, qa, "Pohlig-Hellman digits")
            continue
        W, c = (qa, 1) if isqrt(qa) <= a * (isqrt(q) + qa.bit_length()) \
            else (q, a)
        gq = exp(g, n // qa)
        gamma = exp(gq, qa // W) if c > 1 else gq
        m = isqrt(W - 1) + 1
        baby, z = {}, G.one
        for j in range(m):
            baby[z] = j
            z = mul(z, gamma)
        giant = G.inv(z)
        strip = G.inv(gq) if c > 1 else None   # g_q^(-W^j) at digit j
        x, wj = 0, 1
        for j in range(c):
            # t = g_q^(k - x) has order dividing W^(c - j)
            y = exp(t, qa // (wj * W)) if j < c - 1 else t
            for i in range(m):
                if y in baby:
                    break
                y = mul(y, giant)
            else:
                raise InternalCheckError("dlog: element outside the subgroup")
            d = i * m + baby[y]
            if j < c - 1:
                if d:
                    t = mul(t, strip if d == 1 else exp(strip, d))
                strip = exp(strip, W)
            x += d * wj
            wj *= W
        k, mod = _merge(k, mod, x, wj, "Pohlig-Hellman digits")
    return k, mod


class _Component:
    """Base: multiplicative group of O/q^e for one prime ideal q."""

    def __init__(self, K, q, ell, e):
        self.field, self.q, self.ell, self.e = K, q, ell, e

    # subclasses define: reduce, gens, orders, dlog, norm_int

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

    def reduce(self, x: FieldElement):
        if self.root is None and x.b:
            raise ValueError("nonrational element in rational component")
        val = x.a if self.root is None else x.a + x.b * self.root
        if x.den % self.ell == 0 or val % self.ell == 0:
            raise ValueError("element is not a unit at this component")
        return val * pow(x.den, -1, self.mod) % self.mod

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
    """(O/ell^e)* for an inert prime, residues as pairs over {1, w}.  For
    e > 1 the torsion generator is the fixed point of g -> g^(ell^2): each
    step gains at least one digit, so e steps of the cap 2e + 2 find it."""

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
        g = self._residue_gen = _inert_generator(F, fac_minus, fac_plus)
        self._norm_part = (ModularUnits(ell), F.norm(g), ell - 1, fac_minus)
        self._torus_part = (_NormOneTorus(F), F.frobenius_quotient(g),
                            ell + 1, fac_plus)
        if e == 1:
            self.gens, self.orders = [g], [n_res]
        else:
            for _ in range(2 * e + 2):
                g2 = power(self.mul, self.one, g, ell * ell)
                if g2 == g:
                    break
                g = g2
            else:
                raise InternalCheckError("torsion lift did not converge")
            m1 = ell**(e - 1)
            self.gens = [g, (1 + ell, 0), (1, ell)]
            self.orders = [n_res, m1, m1]
            # logs of the 1-unit generators 1 + ell and 1 + ell*w, over
            # ell, as the columns of a matrix, and its inverse mod m1
            a11, a21 = (t // ell for t in log_series(
                ell, 0, self._trace, self._norm, ell, e))
            a12, a22 = (t // ell for t in log_series(
                0, ell, self._trace, self._norm, ell, e))
            det = a11 * a22 - a12 * a21
            if det % ell == 0:
                raise InternalCheckError("1-unit log basis is degenerate")
            det_inv = pow(det, -1, m1)
            self._log_basis_inv = [[c * det_inv % m1 for c in row]
                                   for row in ((a22, -a12), (-a21, a11))]

    def reduce(self, x: FieldElement):
        if x.den % self.ell == 0:
            raise ValueError("denominator not invertible")
        inv = pow(x.den, -1, self.mod)
        u = (x.a * inv % self.mod, x.b * inv % self.mod)
        if self.norm_int(u) % self.ell == 0:
            raise ValueError("element is not a unit at this component")
        return u

    def _torsion_dlog(self, u):
        """k mod ell^2 - 1 with u = g^k mod ell, from N(u) and the torus,
        and the last bit from g^k0 (see the module docstring)."""
        F = self._residue_field
        u = (u[0] % self.ell, u[1] % self.ell)
        k, mod = _merge(*pohlig_hellman(*self._norm_part, F.norm(u)),
                        *pohlig_hellman(*self._torus_part,
                                        F.frobenius_quotient(u)),
                        "torsion dlog parts")
        x = F.exp(self._residue_gen, k)
        if x == u:
            return k
        if x != F.scale(u, -1):
            raise InternalCheckError("torsion dlog: g^k is not +-u")
        return k + mod

    def dlog(self, u):
        ell, e = self.ell, self.e
        i = self._torsion_dlog(u)
        if e == 1:
            return [i]
        n_res = ell * ell - 1
        w = self.mul(u, power(self.mul, self.one, self.gens[0], n_res - i)) \
            if i else u
        lw = log_series(w[0] - 1, w[1], self._trace, self._norm, ell, e)
        # alpha * log(u1) + beta * log(u2) = log(w) mod ell^(e-1)
        b1, b2 = lw[0] // ell, lw[1] // ell
        m1 = self.orders[1]
        return [i] + [(c1 * b1 + c2 * b2) % m1
                      for c1, c2 in self._log_basis_inv]

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
    it reads z^((ell + 1)/q) by torus_pow, where z = c^(ell - 1) =
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
                ok = all(F.torus_pow(z, k) != F.one for k in odd_plus)
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
        return [k for comp in self.components
                for k in comp.dlog(comp.reduce(x))]

    def minus_one_dlog(self):
        """dlog(-1), stated by each component with no dlog taken."""
        return [k for comp in self.components for k in comp.minus_one_dlog()]

    def gen_norm_ints(self):
        """Norm of each generator to Z, modulo ell^e of its component."""
        return [comp.norm_int(g) for comp in self.components
                for g in comp.gens]
