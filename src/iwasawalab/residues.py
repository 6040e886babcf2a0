"""Multiplicative groups (O/q^e)* of residue rings of prime-ideal powers,
with explicit generators, orders, and discrete logarithms.

Residues are ints (rational, split and ramified components) or coordinate
pairs over the integral basis {1, w} (inert components).  Split and ramified
components are (Z/ell^e)* through the image of w; a ramified one has e = 1.
"""

from __future__ import annotations

from math import isqrt

from .ntheory import crt, factorint, power
from .padic import log_series
from .quadfield import (FieldElement, IntegralIdeal, RealQuadraticField,
                        factor_rational_prime, fraction_parts, residue_char,
                        split_root)


def _bsgs(mul, one, g, h, n: int):
    """k in [0, n) with g^k = h, for g of order dividing n and elements
    hashable under ==/hash."""
    m = isqrt(n) + 1
    table = {}
    x = one
    for j in range(m):
        if x == h:
            return j
        table.setdefault(x, j)
        x = mul(x, g)
    # giant step: x = g^m, inverted by powering to n - 1
    ginv_m = power(mul, one, x, n - 1)
    y = h
    for i in range(1, m):
        y = mul(y, ginv_m)
        if y in table:
            return (i * m + table[y]) % n
    raise ValueError("dlog: element not in the cyclic subgroup")


def _ph_dlog(mul, one, g, h, n: int, fac: dict):
    """k in [0, n) with g^k = h, for g of order n = prod q^a over fac.

    Pohlig-Hellman: the q^a-part of k is read off one base-q digit at a
    time by BSGS in the subgroup of order q, and the parts are joined by
    CRT."""
    k, m = 0, 1
    for q, a in fac.items():
        qa = q**a
        gq = power(mul, one, g, n // qa)
        t = power(mul, one, h, n // qa)
        gamma = power(mul, one, gq, qa // q)
        if a > 1:
            gq_inv = power(mul, one, gq, qa - 1)
        x, qj = 0, 1
        for j in range(a):
            # t = gq^(k - x) has order dividing q^(a - j)
            d = _bsgs(mul, one, gamma, power(mul, one, t, qa // (qj * q)), q)
            if d and j + 1 < a:
                t = mul(t, power(mul, one, gq_inv, d * qj))
            x += d * qj
            qj *= q
        merged = crt(k, m, x, qa)
        if merged is None:
            raise AssertionError("Pohlig-Hellman digits are inconsistent")
        k, m = merged
    return k


class _Component:
    """Base: multiplicative group of O/q^e for one prime ideal q."""

    def __init__(self, K, q, ell, e):
        self.field = K
        self.q = q
        self.ell = ell
        self.e = e

    # subclasses define: one, mul, reduce, gens, orders, dlog, norm_int

    @property
    def size(self):
        s = 1
        for o in self.orders:
            s *= o
        return s


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
            self._fac = factorint(ell - 1)
            g = _primitive_root(ell, self._fac)
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
        num_x, num_y, den = fraction_parts(x)
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
        if e == 1:
            return [_ph_dlog(self.mul, 1, self.gens[0], a, ell - 1,
                             self._fac)]
        g = self.gens[0]
        # torsion part
        proj = pow(a, ell**(e - 1), self.mod)
        gproj = pow(g, ell**(e - 1), self.mod)
        k1 = _ph_dlog(self.mul, 1, gproj, proj, ell - 1, self._fac)
        # 1-unit part via the ell-adic log
        la = log_series(pow(a, ell - 1, self.mod) - 1, 0, 0, 0, ell, e)[0]
        k2 = (la // ell) * self._log_gen_inv % ell**(e - 1)
        merged = crt(k1, ell - 1, k2, ell**(e - 1))
        if merged is None:
            raise AssertionError("torsion and 1-unit dlogs are inconsistent")
        return [merged[0]]

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
        n_res = ell * ell - 1
        fac_minus, fac_plus = factorint(ell - 1), factorint(ell + 1)
        self._fac = {r: fac_minus.get(r, 0) + fac_plus.get(r, 0)
                     for r in {**fac_minus, **fac_plus}}
        g = _inert_generator(ell, self._trace, self._norm,
                             fac_minus, fac_plus)
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

    def mul(self, u, v):
        m = self.mod
        return ((u[0] * v[0] - u[1] * v[1] * self._norm) % m,
                (u[0] * v[1] + u[1] * v[0] + u[1] * v[1] * self._trace) % m)

    def _unit(self, u):
        return self.norm_int(u) % self.ell != 0

    def reduce(self, x: FieldElement):
        num_x, num_y, den = fraction_parts(x)
        if den % self.ell == 0:
            raise ValueError("denominator not invertible")
        inv = pow(den, -1, self.mod)
        u = (num_x * inv % self.mod, num_y * inv % self.mod)
        if not self._unit(u):
            raise ValueError("element is not a unit at this component")
        return u

    def dlog(self, u):
        ell, e = self.ell, self.e
        n_res = ell * ell - 1
        if e == 1:
            return [_ph_dlog(self.mul, self.one, self.gens[0], u, n_res,
                             self._fac)]
        unit_sz = ell**(2 * (e - 1))
        proj = power(self.mul, self.one, u, unit_sz)
        gproj = power(self.mul, self.one, self.gens[0], unit_sz)
        k1 = _ph_dlog(self.mul, self.one, gproj, proj, n_res, self._fac)
        i = k1 * pow(unit_sz % n_res, -1, n_res) % n_res
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
            raise AssertionError("1-unit log basis is degenerate")
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
    raise ValueError("%d is not an odd prime" % ell)


def _inert_generator(ell: int, trace: int, norm: int, fac_minus: dict,
                     fac_plus: dict):
    """The first pair (x, y) mod ell, in lexicographic order, for which
    x + y*w generates F_{ell^2}*, where w^2 = trace*w - norm is irreducible
    mod ell and fac_minus, fac_plus factor ell - 1 and ell + 1.

    g generates iff g^(n/q) != 1 for every prime q | n = ell^2 - 1.  For
    odd q | ell - 1, g^(n/q) = N(g)^((ell - 1)/q), as g^(ell + 1) = N(g)
    lies in F_ell.  For q | ell + 1, c^(n/q) = 1 for each c in F_ell*, so
    the test depends only on the class F_ell* g: (0 : 1) on the row x = 0,
    (1 : y/x) elsewhere, each tested once."""
    def mul(u, v):
        return ((u[0] * v[0] - u[1] * v[1] * norm) % ell,
                (u[0] * v[1] + u[1] * v[0] + u[1] * v[1] * trace) % ell)

    odd_minus = [(ell - 1) // q for q in fac_minus if q != 2]
    plus = [(ell + 1) // q for q in fac_plus]
    class_ok = {}

    def norm_ok(x, y):
        nrm = (x * x + trace * x * y + norm * y * y) % ell
        return nrm != 0 and all(pow(nrm, k, ell) != 1 for k in odd_minus)

    def class_of_ok(r):
        if r not in class_ok:
            z = power(mul, (1, 0), (0, 1) if r is None else (1, r), ell - 1)
            class_ok[r] = all(power(mul, (1, 0), z, k) != (1, 0)
                              for k in plus)
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
    raise ValueError("T^2 - %d*T + %d is reducible mod %d"
                     % (trace, norm, ell))


def make_component(K: RealQuadraticField, q: IntegralIdeal, e: int):
    ell = residue_char(q)
    if K.is_rational:
        return RationalComponent(K, q, ell, e)
    kind = factor_rational_prime(K, ell).kind
    if kind == "split":
        root = split_root(q, e)
        return RationalComponent(K, q, ell, e, root=root)
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
        self.field = K
        self.factored = list(factored)  # [(prime ideal, exponent)]
        self.components = [make_component(K, q, e) for q, e in self.factored]
        self.gen_span = []   # (component index, index within component)
        self.orders = []
        for ci, comp in enumerate(self.components):
            for gi, o in enumerate(comp.orders):
                self.gen_span.append((ci, gi))
                self.orders.append(o)

    @property
    def size(self) -> int:
        s = 1
        for comp in self.components:
            s *= comp.size
        return s

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def dlog(self, x: FieldElement):
        out = []
        for comp in self.components:
            out.extend(comp.dlog(comp.reduce(x)))
        return out

    def gen_norm_ints(self):
        """Norm of each generator to Z, modulo ell^e of its component."""
        out = []
        for (ci, gi) in self.gen_span:
            comp = self.components[ci]
            out.append(comp.norm_int(comp.gens[gi]))
        return out
