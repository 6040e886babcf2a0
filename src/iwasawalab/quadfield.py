"""Exact arithmetic in F = Q or F = Q(sqrt d): integers, ideals in Hermite
normal form, prime splitting, class groups, fundamental units, S-unit bases
and principality tests.  The module is exact algebra: its only p-adic
function is padic.vp, and the formal products of S-units with Z_p exponents
are localize.SUnitProduct.

All class-group work runs through the cycle structure of reduced quadratic
irrationals (P + sqrt D)/Q under the continued-fraction step, which
classifies ideals up to (wide) equivalence.  The class group walks each
cycle once and indexes its states; an ideal's class is the index entry of
the first reduced state its walk reaches.  principal_generator decides
principality by its own walk to the principal cycle.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, log, sqrt
from numbers import Rational
from types import MappingProxyType

from .abgroup import (FiniteAbelianGroup, GroupElement, decompose_abelian,
                      hermite_form, relation_lattice)
from .ntheory import (Frozen, InternalCheckError, check_int,
                      integer, is_squarefree, isprime, legendre, power,
                      quad_mul, sqrt_mod_prime)
from .padic import vp


class RealQuadraticField(Frozen):
    """F = Q(sqrt d) for squarefree d > 1, or F = Q (d is None): a value,
    equal to and hashed as any other field of the same d.

    Integral basis {1, w} with w = (D + sqrt D)/2, D the discriminant;
    w_trace = D and w_norm = (D^2 - D)/4 are the trace and norm of w.
    """
    __slots__ = ("d", "D", "sqrtD_floor", "w_trace", "w_norm")

    def __init__(self, d):
        if d is None:
            D = 1
        else:
            if type(d) is not int:
                raise ValueError("d must be an int, got %r" % (d,))
            if d <= 1 or not is_squarefree(d):
                raise ValueError("d must be squarefree and > 1, got %r" % d)
            D = d if d % 4 == 1 else 4 * d
        _set = object.__setattr__
        _set(self, "d", d)
        _set(self, "D", D)
        _set(self, "sqrtD_floor", isqrt(D))
        _set(self, "w_trace", D)
        _set(self, "w_norm", (D * D - D) // 4)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.d == other.d
        return NotImplemented

    def __hash__(self):
        return hash((self.d,))

    def __reduce__(self):
        return RealQuadraticField, (self.d,)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @classmethod
    def rationals(cls) -> "RealQuadraticField":
        return cls(None)

    @classmethod
    def parse(cls, spec: str) -> "RealQuadraticField":
        # blanks go, but one between two digits, which integer() refuses
        s = re.sub(r"(?<![0-9]) | (?![0-9])", "", " ".join(spec.split()))
        if s in ("Q", "q"):
            return cls(None)
        for pre, post in (("Q(sqrt{", "})"), ("Q(sqrt(", "))"), ("Q(sqrt", ")")):
            if s.startswith(pre) and s.endswith(post):
                return cls(integer(s[len(pre):-len(post)]))
        raise ValueError("cannot parse field spec %r" % spec)

    def spec_string(self) -> str:
        return "Q" if self.is_rational else "Q(sqrt{%d})" % self.d

    def element(self, x, y=0) -> "FieldElement":
        return FieldElement(self, x, y)

    def one(self):
        return self.element(1)

    def __repr__(self):
        return self.spec_string()


class FieldElement(Frozen):
    """(a + b*w)/den over the integral basis {1, w}, held as integers with
    den > 0 and gcd(a, b, den) = 1: one common denominator (Cohen, GTM 138,
    4.2), so the triple is fixed by the value, and equality and the hash
    read it.  FieldElement(F, x, y) is x + y*w for rationals x, y (any
    numbers.Rational; a float raises TypeError), FieldElement(F, a, b, den)
    the quotient for integers; either is normalised.  The properties x and
    y give the coordinates back as Fractions."""
    __slots__ = ("field", "a", "b", "den")

    def __init__(self, field, a, b=0, den=1):
        if type(a) is not int or type(b) is not int:     # rationals
            if not (isinstance(a, Rational) and isinstance(b, Rational)):
                raise TypeError("field coordinates must be rational, got "
                                "%r and %r" % (a, b))
            m = lcm(a.denominator, b.denominator)
            a, b = a.numerator * (m // a.denominator), \
                b.numerator * (m // b.denominator)
            den *= m
        if den != 1:
            if not den:
                raise ZeroDivisionError("field element with denominator 0")
            g = gcd(a, b, den)
            if den < 0:
                g = -g
            a, b, den = a // g, b // g, den // g
        _set = object.__setattr__
        _set(self, "field", field)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.a, self.b, self.den) == \
                (other.field, other.a, other.b, other.den)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.a, self.b, self.den))

    def __reduce__(self):
        return FieldElement, (self.field, self.a, self.b, self.den)

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def y(self) -> Fraction:
        return Fraction(self.b, self.den)

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        d, e = self.den, other.den
        return FieldElement(self.field, self.a * e + other.a * d,
                            self.b * e + other.b * d, d * e)

    def __neg__(self):
        return FieldElement(self.field, -self.a, -self.b, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            other = FieldElement(self.field, other)
        self._check(other)
        K = self.field
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return FieldElement(K, a * c - bd * K.w_norm,
                            a * d + b * c + bd * K.w_trace,
                            self.den * other.den)

    __rmul__ = __mul__

    def conj(self) -> "FieldElement":
        return FieldElement(self.field, self.a + self.b * self.field.w_trace,
                            -self.b, self.den)

    def numerator_norm(self) -> int:
        """N(a + b*w), an integer: the norm is numerator_norm() / den^2."""
        K, a, b = self.field, self.a, self.b
        return a * a + K.w_trace * a * b + K.w_norm * b * b

    def norm(self) -> Fraction:
        return Fraction(self.numerator_norm(), self.den * self.den)

    def inv(self) -> "FieldElement":
        """den * conj(a + b*w) / N(a + b*w)."""
        n = self.numerator_norm()
        if n == 0:
            raise ZeroDivisionError("inverting 0")
        K, a, b, d = self.field, self.a, self.b, self.den
        return FieldElement(K, d * (a + b * K.w_trace), -d * b, n)

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return self * other.inv()
        n, m = other.numerator, other.denominator   # other is rational
        return FieldElement(self.field, self.a * m, self.b * m, self.den * n)

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        K = self.field
        a, b = power(quad_mul(K.w_trace, K.w_norm), (1, 0), (self.a, self.b),
                     k)
        return FieldElement(K, a, b, self.den ** k)

    def is_integral(self) -> bool:
        return self.den == 1

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def sqrt_coords(self):
        """(u, v) with self = u + v*sqrt(D)."""
        return (self.x + self.y * self.field.w_trace / 2, self.y / 2)

    def __str__(self):
        K = self.field
        if K.is_rational:
            return _decimal(self.x)
        u, v = self.sqrt_coords()
        if v == 0:
            return _decimal(u)
        d = K.d
        # render over sqrt(d): u + v*sqrt(D) = u + v'*sqrt(d)
        vp = v * 2 if K.D == 4 * d else v
        s = "sqrt(%d)" % d
        if u == 0:
            return "%s*%s" % (_decimal(vp), s) if vp != 1 else s
        return "%s %s %s*%s" % (_decimal(u), "+" if vp > 0 else "-",
                                _decimal(abs(vp)), s)


def _decimal(r: Fraction) -> str:
    """r as str(r) writes it, n or n/m, for numbers of any length: str of
    an int past sys.get_int_max_str_digits() digits raises ValueError, and
    Decimal(n) is exact and takes no decimal string on the way (eps of
    Q(sqrt 20000971) has a coordinate of 4,578 digits)."""
    n, m = str(Decimal(r.numerator)), r.denominator
    return n if m == 1 else "%s/%s" % (n, Decimal(m))


def _real_sign(u: int, v: int, D: int) -> int:
    """Sign of u + v*sqrt(D) for integers u, v."""
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    # mixed signs: compare u^2 with v^2 D
    big = u * u > v * v * D
    return (1 if u > 0 else -1) if big else (1 if v > 0 else -1)


class IntegralIdeal(Frozen):
    """Nonzero integral ideal a*Z + (b + c*w)*Z in HNF: c | a, c | b,
    0 <= b < a.  Over Q, c = b = 0 and the ideal is (a).  Products,
    conjugates and the ideals of elements are read off
    abgroup.hermite_form modulo the norm (_ideal_of_rows).  A value, equal
    to an ideal of the same field and triple; ideals key the tower's
    entries and the valuations of S-unit products, so the hash, that of
    (field, a, b, c), is taken once, at construction."""

    def __init__(self, field, a, b, c):
        if field.is_rational:
            if b or c or a <= 0:
                raise ValueError("rational ideal must be (a)")
        elif a <= 0 or c <= 0 or not (0 <= b < a):
            raise ValueError("bad HNF triple (%d; %d; %d)" % (a, b, c))
        elif a % c or b % c:
            raise ValueError("HNF triple is not an ideal")
        self.__dict__.update(field=field, a=a, b=b, c=c,
                             _hash=hash((field, a, b, c)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.a, self.b, self.c) == \
                (other.field, other.a, other.b, other.c)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "IntegralIdeal(field=%r, a=%r, b=%r, c=%r)" \
            % (self.field, self.a, self.b, self.c)

    def __reduce__(self):
        return IntegralIdeal, (self.field, self.a, self.b, self.c)

    @property
    def norm(self) -> int:
        return self.a if self.field.is_rational else self.a * self.c

    def __str__(self):
        return "(%d; %d; %d)" % (self.a, self.b, self.c)

    def __mul__(self, other):
        K = self.field
        _same_field(K, other.field)
        if K.is_rational:
            return IntegralIdeal(K, self.a * other.a, 0, 0)
        rows = [(u1 * v2 + u2 * v1 + v1 * v2 * K.w_trace,
                 u1 * u2 - v1 * v2 * K.w_norm)
                for (u1, v1) in ((self.a, 0), (self.b, self.c))
                for (u2, v2) in ((other.a, 0), (other.b, other.c))]
        return _ideal_of_rows(K, rows, self.norm * other.norm)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("integral ideals only")
        if k == 0:
            return unit_ideal(self.field)
        # start the ladder at self, so no product with the unit ideal
        return power(IntegralIdeal.__mul__, self, self, k - 1)

    def conj(self) -> "IntegralIdeal":
        K = self.field
        if K.is_rational:
            return self
        # conj(u + v w) = u + v D - v w
        rows = [(-v, u + v * K.w_trace)
                for (u, v) in ((self.a, 0), (self.b, self.c))]
        return _ideal_of_rows(K, rows, self.norm)

    def content_and_primitive(self):
        if self.field.is_rational:
            return self.a, IntegralIdeal(self.field, 1, 0, 0)
        prim = IntegralIdeal(self.field, self.a // self.c,
                             (self.b // self.c) % (self.a // self.c), 1)
        return self.c, prim


def _same_field(K: RealQuadraticField, L: RealQuadraticField):
    """Refuse two fields that differ; the identity test comes first, as
    most operands share one field object."""
    if K is not L and K != L:
        raise ValueError("ideals of different fields")


def unit_ideal(K: RealQuadraticField) -> IntegralIdeal:
    return IntegralIdeal(K, 1, 0, 0) if K.is_rational \
        else IntegralIdeal(K, 1, 0, 1)


def ideal_from_element(e: FieldElement) -> IntegralIdeal:
    """The ideal of a nonzero integral e = u + v*w: the span of e and of
    e*w = -v*w_norm + (u + v*w_trace)*w."""
    K, u, v = e.field, e.a, e.b
    if not e.is_integral() or e.is_zero():
        raise ValueError("need a nonzero integral element")
    if K.is_rational:
        return IntegralIdeal(K, abs(u), 0, 0)
    return _ideal_of_rows(K, [(v, u), (u + v * K.w_trace, -v * K.w_norm)],
                          abs(e.numerator_norm()))


def rational_ideal(K: RealQuadraticField, n: int) -> IntegralIdeal:
    if not isinstance(n, int):
        raise TypeError("the ideal (n) needs an int n, got %r" % (n,))
    n = abs(n)
    if n == 0:
        raise ValueError("zero ideal")
    return IntegralIdeal(K, n, 0, 0) if K.is_rational \
        else IntegralIdeal(K, n, 0, n)


def _ideal_of_rows(K: RealQuadraticField, rows, norm: int) -> IntegralIdeal:
    """The ideal of `norm` spanned by the elements u + v*w of its rows
    (v, u): their Hermite form [[c, b], [0, a]] modulo the norm, which the
    ideal contains, is its triple (a; b; c), and a*c is the norm."""
    (c, b), (_, a) = hermite_form(rows, 2, norm)
    if a * c != norm:
        raise InternalCheckError("ideal of norm %d read as (%d; %d; %d)"
                                 % (norm, a, b, c))
    return IntegralIdeal(K, a, b, c)


# ----------------------------------------------------------- prime splitting

class SplittingReport(Frozen):
    """How ell splits in K: its kind, "rational", "split", "inert" or
    "ramified", the primes above it, and their f and e."""

    def __init__(self, kind, ideals, residue_degree, ramification):
        self.__dict__.update(kind=kind, ideals=ideals,
                             residue_degree=residue_degree,
                             ramification=ramification)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.ideals, self.residue_degree,
                     self.ramification))


def factor_rational_prime(K: RealQuadraticField, ell: int) -> SplittingReport:
    if not isprime(ell):
        raise ValueError("%d is not prime" % ell)
    if K.is_rational:
        return SplittingReport("rational", (rational_ideal(K, ell),), 1, 1)
    D = K.D
    if D % ell == 0:
        t = _min_poly_roots_mod(K, ell)[0]
        q = IntegralIdeal(K, ell, (-t) % ell, 1)
        return SplittingReport("ramified", (q,), 1, 2)
    roots = _min_poly_roots_mod(K, ell)
    if not roots:
        return SplittingReport("inert", (rational_ideal(K, ell),), 2, 1)
    t1, t2 = roots
    q1 = IntegralIdeal(K, ell, (-t1) % ell, 1)
    q2 = IntegralIdeal(K, ell, (-t2) % ell, 1)
    return SplittingReport("split", (q1, q2), 1, 1)


def _min_poly_roots_mod(K: RealQuadraticField, ell: int):
    """Roots of T^2 - D T + (D^2-D)/4 modulo ell."""
    D, wn = K.D, K.w_norm
    if ell == 2:
        return sorted(t for t in (0, 1) if (t * t - D * t + wn) % 2 == 0)
    if D % ell == 0:
        return [D * pow(2, -1, ell) % ell]
    if legendre(D, ell) == -1:
        return []
    r = sqrt_mod_prime(D, ell)
    inv2 = pow(2, -1, ell)
    return sorted({(D + r) * inv2 % ell, (D - r) * inv2 % ell})


def split_root(q: IntegralIdeal, e: int) -> int:
    """Image of w in Z/ell^e under a split prime q = (ell; b; 1): the root
    -b mod ell of f(T) = T^2 - w_trace*T + w_norm, Hensel-lifted mod ell^e.

    Newton's step doubles the digits of the root t and, with one inverse
    taken mod ell, of inv = 1/f'(t): inv*(2 - f'(t)*inv).  f'(t) = 2t -
    w_trace is prime to ell at a split (unramified) q."""
    K, ell = q.field, q.a
    tr, wn = K.w_trace, K.w_norm
    t, mod, top = (-q.b) % ell, ell, ell**e
    inv = pow(2 * t - tr, -1, ell)
    while mod < top:
        mod = min(mod * mod, top)
        t = (t - (t * t - tr * t + wn) * inv) % mod
        inv = inv * (2 - (2 * t - tr) * inv) % mod
    if (t * t - tr * t + wn) % top:
        raise InternalCheckError("Hensel lift of w fails mod %d^%d" % (ell, e))
    return t


def prime_ideals_above(K: RealQuadraticField, ell: int):
    return list(factor_rational_prime(K, ell).ideals)


def parts_valuation(a: int, b: int, den: int, q: IntegralIdeal) -> int:
    """Exact v_q(x), x = (a + b*w)/den, at a prime q over ell, for integers
    a, b and den > 0 as a FieldElement holds them.  Let y = a + b*w.

    Over Q, v_q(y) = v_ell(a); ell inert (q = (ell)): min(v_ell(a),
    v_ell(b)); ell ramified (f = 1, N(q) = ell): v_ell(N(y)).  ell split,
    q = (ell; b_q; 1): O/q^m = Z/ell^m sends w to r = split_root(q, m), so
    v_q(y) = v_ell((a + b*r) mod ell^m) once m > v_q(y).  Let k =
    v_ell(N(y)); N(y)*Z = N(yO) and N(q) = N(qbar) = ell give v_q(y) +
    v_qbar(y) = k, so v_q(y) <= k < k + 1 = m, and k = 0 needs no root.
    Then v_q(x) = v_q(y) - e_q*v_ell(den).  Cohen, GTM 138, 4.8.3."""
    K = q.field
    if not (a or b):
        raise ValueError("valuation of 0")
    ell, kind = prime_kind(q)
    vden = vp(den, ell)
    if kind == "rational":
        return vp(a, ell) - vden
    if kind == "inert":
        return min(vp(c, ell) for c in (a, b) if c) - vden
    norm = lambda s, t: s * s + K.w_trace * s * t + K.w_norm * t * t
    k = vp(norm(a, b), ell) if norm(a % ell, b % ell) % ell == 0 else 0
    if kind == "ramified":                      # e_q = 2
        return k - 2 * vden
    if k == 0:
        return -vden
    return vp((a + b * split_root(q, k + 1)) % ell**(k + 1), ell) - vden


def ideal_valuation(x, q: IntegralIdeal) -> int:
    """Exact valuation v_q(x) for a field element or rational number x."""
    residue_char(q)  # validates primality
    if not isinstance(x, FieldElement):
        x = q.field.element(x)
    _same_field(x.field, q.field)
    return parts_valuation(x.a, x.b, x.den, q)


def check_odd_prime(p: int, K: RealQuadraticField = None):
    """Refuse p unless it is an odd prime int and, given K, unramified in K."""
    if type(p) is not int or p % 2 == 0 or not isprime(p):
        raise ValueError("p must be an odd prime")
    if K is not None and not K.is_rational and K.D % p == 0:
        raise ValueError("p = %d ramifies in %s" % (p, K.spec_string()))


def prime_kind(q: IntegralIdeal):
    """(ell, kind) for a prime ideal q over ell, with the kinds of
    factor_rational_prime, read from the HNF of q and no primality test:
    q = (ell) over Q is "rational", (ell; 0; ell) is "inert", and
    (ell; b; 1) is "ramified" when ell | D and "split" otherwise."""
    ell = q.a
    if q.field.is_rational:
        return ell, "rational"
    if q.c == ell:
        return ell, "inert"
    return ell, "ramified" if q.field.D % ell == 0 else "split"


def residue_char(q: IntegralIdeal) -> int:
    """The rational prime ell below the prime ideal q (ValueError when q is
    not prime).  An ideal of prime norm is prime; one of norm ell^2 is
    prime only when it is (ell) = (ell; 0; ell) with ell inert."""
    n = q.norm
    if isprime(n):
        return n
    r = q.c
    if r * r == n and isprime(r) and not _min_poly_roots_mod(q.field, r):
        return r
    raise ValueError("not a prime ideal: %s" % (q,))


def prime_ideal(K: RealQuadraticField, q) -> IntegralIdeal:
    """q, or the ideal (q) of an int q (as check_int takes it), which must
    be prime (ValueError)."""
    if not isinstance(q, IntegralIdeal):
        check_int("q", q)
        q = rational_ideal(K, q)
    residue_char(q)
    return q


# ----------------------------------------------- reduction (cycles of ideals)

def _rho_step(K: RealQuadraticField, P: int, Q: int):
    """One continued-fraction step on tau = (P + sqrt D)/Q, Q | D - P^2:
    the partial quotient a = floor(tau), which is (P + s) // Q for Q > 0
    and (P + s + 1) // Q for Q < 0, s = isqrt D, and the state (P', Q') of
    tau' = 1/(tau - a).  Q | D - P'^2 holds for any a, as P' = -P mod Q:
    the raise guards the arithmetic of P' and Q', not the quotient."""
    D, s = K.D, K.sqrtD_floor
    a = (P + s) // Q if Q > 0 else (P + s + 1) // Q
    P2 = a * Q - P
    R = D - P2 * P2
    if R % Q:
        raise InternalCheckError("invariant Q | D - P^2 broken")
    return a, P2, R // Q


def _ideal_to_pair(I: IntegralIdeal):
    _, prim = I.content_and_primitive()
    return (2 * prim.b + prim.field.D, 2 * prim.a)


def _pair_to_ideal(K: RealQuadraticField, P: int, Q: int) -> IntegralIdeal:
    a = Q // 2
    b = ((P - K.D) // 2) % a if a > 1 else 0
    return IntegralIdeal(K, a, b, 1)


def _is_reduced_pair(K, P, Q):
    s = K.sqrtD_floor
    return 0 < P <= s and s - P < Q <= s + P


def _cycle_of(K: RealQuadraticField, P: int, Q: int):
    """The cycle of reduced states reached from (P, Q), in walk order."""
    seen = {}                   # state -> step, in the order of the walk
    while (P, Q) not in seen:
        seen[(P, Q)] = len(seen)
        _, P, Q = _rho_step(K, P, Q)
    return list(seen)[seen[(P, Q)]:]


def _reduced_pairs(K: RealQuadraticField):
    """The reduced states (P, Q) of K, by P and then Q ascending.

    (P, Q) is reduced when 0 < P <= s = isqrt D and s - P < Q <= s + P,
    that is, Q lies in (sqrt D - P, sqrt D + P), and it is a state when Q
    and (D - P^2)/Q are even.  So P = D mod 2, Q = 2a and a divides
    N = (D - P^2)/4.  Since 2a * 2(N/a) = (sqrt D - P)(sqrt D + P), the
    window holds 2a iff it holds 2N/a: a and N/a are the a and |c| of a
    reduced indefinite form (a, P, -N/a) (Buchmann and Vollmer, Binary
    Quadratic Forms, 2007; Cohen, GTM 138, 5.6).  Each P thus tries only
    the a <= sqrt N of its window and reads the states above sqrt N off
    their cofactors."""
    D, s = K.D, K.sqrtD_floor
    out = []
    for P in range(2 - D % 2, s + 1, 2):
        N = (D - P * P) >> 2
        small = [a for a in range((s - P) // 2 + 1,
                                  min((s + P) // 2, isqrt(N)) + 1)
                 if N % a == 0]
        out += [(P, 2 * a) for a in small]
        out += [(P, 2 * (N // a)) for a in reversed(small) if a * a != N]
    return out


class ClassGroupData:
    """Ideal class group with a concrete dlog map via reduction cycles.

    A class is keyed by the least reduced state of its cycle; cycles are
    disjoint, so the keys sort as the cycles' sorted tuples do.  The build
    walks each cycle once, from the first reduced pair not yet indexed,
    and _key maps every state of every cycle to its key.  The
    decomposition's orders are the invariant factors and its dlog gives
    coordinates in their basis, so an element of `group` is its dlog.
    The record also keeps what every ray-class build over K reads: eps,
    the scan of primes for class representatives and their generators."""

    def __init__(self, K: RealQuadraticField):
        self.field = K
        self._scan, self._gens = {}, {}     # ell -> [(q, key)]; q -> gen
        if K.is_rational:
            self.h = 1
            self.cycle_keys = []
            self.gen_keys, self.gen_orders = [], []
            self._dlog = {}
            self.group = FiniteAbelianGroup(())
            self.principal_key = None
            return
        self._key = {}
        for state in _reduced_pairs(K):
            if state not in self._key:
                cycle = _cycle_of(K, *state)
                self._key.update(dict.fromkeys(cycle, min(cycle)))
        self.cycle_keys = sorted(set(self._key.values()))
        self.h = len(self.cycle_keys)
        self.principal_key = self.key_of(unit_ideal(K))

        def kmul(k1, k2):
            I = _pair_to_ideal(K, *k1) * _pair_to_ideal(K, *k2)
            return self.key_of(I)

        self.gen_keys, self.gen_orders, self._dlog = decompose_abelian(
            self.cycle_keys, kmul, self.principal_key)
        self.group = FiniteAbelianGroup(tuple(self.gen_orders))

    def key_of(self, I: IntegralIdeal):
        """The key of [I]: the walk from the state of I stops at the first
        indexed state, within _reduction_bound steps, since every reduced
        state lies on an indexed cycle."""
        K = self.field
        if K.is_rational:
            return None
        P, Q = _ideal_to_pair(I)
        bound = _reduction_bound(K.D, Q)
        steps = 0
        while (P, Q) not in self._key:
            if steps >= bound:
                raise InternalCheckError("no indexed state within %d steps"
                                         % bound)
            _, P, Q = _rho_step(K, P, Q)
            steps += 1
        return self._key[(P, Q)]

    def ambient_dlog(self, I: IntegralIdeal):
        """Exponent vector of [I] over the decomposition generators; a
        trivial group (h = 1, as over Q) has only the empty vector."""
        if not self.gen_orders:
            return ()
        return self._dlog[self.key_of(I)]

    @cached_property
    def eps(self) -> FieldElement:
        """fundamental_unit(K), walked on the first read."""
        return fundamental_unit(self.field)

    def class_reps(self, norm: int):
        """(ideals, generators) for a modulus of norm `norm`: for each
        decomposition generator, the first prime q of its class above the
        primes ell = 2, 3, ... prime to norm * D, and a generator of
        q^order.  The scan of ell, with the class of each prime above it,
        and the generators are kept for the next modulus."""
        needed, ell = dict.fromkeys(self.gen_keys), 1
        while None in needed.values():
            ell += 1
            if ell > 50000:
                raise InternalCheckError("no class representatives coprime "
                                         "to m below the cap ell = 50000")
            if ell not in self._scan:
                self._scan[ell] = [(q, self.key_of(q)) for q in (
                    prime_ideals_above(self.field, ell)
                    if isprime(ell) and self.field.D % ell else ())]
            if norm % ell == 0:
                continue
            for q, k in self._scan[ell]:
                if k in needed and needed[k] is None:
                    needed[k] = q
        reps = list(needed.values())
        for q, order in zip(reps, self.gen_orders):
            if q not in self._gens:
                self._gens[q] = principal_generator(q**order)
                if self._gens[q] is None:
                    raise InternalCheckError("power of a class generator "
                                             "by its order is not principal")
        return reps, [self._gens[q] for q in reps]

    def class_of(self, I: IntegralIdeal) -> GroupElement:
        return self.group.element(self.ambient_dlog(I))

    @property
    def invariant_factors(self):
        return self.group.invariant_factors


@lru_cache(maxsize=32)
def class_group(K: RealQuadraticField) -> ClassGroupData:
    """The class group of K, kept for the last 32 fields asked for."""
    return ClassGroupData(K)


# ----------------------------------------------------------------- units

def _exact_quotient(K: RealQuadraticField, num, den, h: int, what: str):
    """The pair (x, y) with x + y*w = num/den, for integer pairs num, den;
    raises unless it is integral.  den = c + d*w is a u_k of _o_walk's walk
    and h = Q_k/2 the norm of its state: N(den) is -h for d > 0, else h (for
    k >= 1, 0 < u_k < 1 < |sigma(u_k)| = |u_k - d*sqrt D|; u_0 = 1)."""
    (a, b), (c, d), D, wn = num, den, K.D, K.w_norm
    n, cc = -h if d > 0 else h, c + D * d            # conj(den) = cc - d*w
    x, y = a * cc + b * d * wn, b * cc - a * d - b * d * D
    if x % n or y % n:
        raise InternalCheckError("%s is not integral" % what)
    return x // n, y // n


def _o_walk(K: RealQuadraticField):
    """The principal-cycle table: dict (P, Q) -> (x, y), the gamma product
    x + y*w of the walk of the unit ideal up to that state, over one full
    period.  Only principal_generator reads it, and builds it again on
    each call.

    A step takes tau_k = (P + sqrt D)/Q to tau_{k+1} = 1/(tau_k - a_k), and
    Z + Z*tau_k = gamma * (Z + Z*tau_{k+1}) with gamma = 1/tau_{k+1}.  The
    product of k gammas is u_k = (-1)^(k-1) * (B_{k-1}*tau_0 - A_{k-1}),
    A/B the convergents of tau_0: u_{k+1} = u_{k-1} - a_k*u_k, u_{-1} =
    tau_0, u_0 = 1.  Here tau_0 = w, so every u_k is integral."""
    acc = {}
    P, Q = K.D, 2
    x0, y0, x1, y1 = 0, 1, 1, 0
    while (P, Q) not in acc:
        acc[(P, Q)] = (x1, y1)
        a, P, Q = _rho_step(K, P, Q)
        x0, y0, x1, y1 = x1, y1, x0 - a * x1, y0 - a * y1
    return acc


def fundamental_unit(K: RealQuadraticField) -> FieldElement:
    """The unit eps > 1 generating the units modulo {-1}, from half a period
    of the principal cycle, walked on each call (the Leopoldt scan keeps it).

    The walk of _o_walk from (P_0, Q_0) = (D, 2) reaches the states of the
    reduced ideals I_k = [Q_k/2, (P_k + sqrt D)/2], I_0 = O, and O = u_k *
    (2/Q_k) * I_k, so (u_k) = sigma(I_k) and |N(u_k)| = Q_k/2, sigma the
    conjugation.  With n the period, I_0, ..., I_{n-1} are distinct, and up
    to sign the u_k are the relative minima of O of absolute value at most
    1, decreasing, with u_{k+n} = +-eps^-1 * u_k (Cohen, GTM 138, 5.7;
    Buchmann & Vollmer, *Binary Quadratic Forms*).  sigma preserves O and
    swaps the real embeddings, so it reverses the minima and fixes u_0 = 1:
    sigma(u_k) = +-eps * u_{n-k} and sigma(I_k) = I_{n-k}.

    sigma(I_k) has the pair (-P_k, Q_k), and P_{k+1} = -P_k mod Q_k.  So
    Q_{k+1} = Q_k gives I_{k+1} = sigma(I_k) = I_{n-k}, hence n | 2k + 1 by
    distinctness; and Q_{k+1} | 2*P_{k+1} gives I_{k+1} = sigma(I_{k+1}) =
    I_{n-k-1}, hence n | 2k + 2.  Odd n stops first at 2k + 1 = n, where eps
    = +-sigma(u_k)/u_{k+1}; even n at 2k + 2 = n, where eps = +-sigma(u_{k+1})
    /u_{k+1} (the odd test comes first: n = 1 meets both at k = 0).  Either
    quotient divides by the norm +-Q_{k+1}/2 of u_{k+1}'s state.

    The walk carries y_k alone, from y_{-1} = 1, y_0 = 0: the w-coefficient
    of u_{k-1} = tau_k*u_k, tau_k = (P_k - D + 2w)/Q_k, gives 2*x_k =
    Q_k*y_{k-1} - (P_k + D)*y_k for any a_k.  A pass takes two steps, the
    second with (P, Q, y0) and (P2, Q2, y1) in swapped roles, which a stop
    there swaps back.  Each halving is checked exact, as are the quotient,
    the norm +-1 and eps > 1.  a_k = (P_k + s) // Q_k, s = isqrt D, and a
    wrong a_k soon fails Q_k > 0; Q_k | D - P_{k+1}^2 for any a_k, so the
    full-period tests guard a_k."""
    if K.is_rational:
        raise ValueError("Q has no fundamental unit")
    D, wn, s = K.D, K.w_norm, K.sqrtD_floor
    P, Q, y0, y1 = D, 2, 1, 0                    # y_{k-1}, y_k
    while True:
        a = (P + s) // Q
        P2 = a * Q - P
        R = D - P2 * P2
        if R <= 0 or R % Q:         # Q | R for any a: guards P2 and Q2
            raise InternalCheckError("invariant 0 < Q | D - P^2 broken")
        Q2 = R // Q
        y0 -= a * y1                            # y_{k+1}
        if Q2 == Q or 2 * P2 % Q2 == 0:
            break
        a = (P2 + s) // Q2
        P = a * Q2 - P2
        R = D - P * P
        if R <= 0 or R % Q2:
            raise InternalCheckError("invariant 0 < Q | D - P^2 broken")
        Q = R // Q2
        y1 -= a * y0
        if Q == Q2 or 2 * P % Q == 0:
            P, Q, P2, Q2, y0, y1 = P2, Q2, P, Q, y1, y0
            break
    x2, r = divmod(Q2 * y1 - (P2 + D) * y0, 2)   # u_{k+1} = x2 + y0*w
    x, y, r1 = x2, y0, 0                         # even n: sigma(u_{k+1})
    if Q2 == Q:             # odd n: sigma(u_k), y_{k-1} = y0 + a_k*y1
        (x, r1), y = divmod(Q * (y0 + a * y1) - (P + D) * y1, 2), y1
    if r or r1:
        raise InternalCheckError("x of a minimum is not integral")
    ex, ey = _exact_quotient(K, (x + y * D, -y), (x2, y0), Q2 // 2,
                             "fundamental unit")
    if _real_sign(2 * ex + D * ey, ey, D) < 0:   # 2*eps = (2x + Dy) + y*sqrt D
        ex, ey = -ex, -ey
    if abs(ex * ex + D * ex * ey + wn * ey * ey) != 1:
        raise InternalCheckError("fundamental unit does not have norm +-1")
    if _real_sign(2 * ex + D * ey - 2, ey, D) <= 0:
        raise InternalCheckError("fundamental unit is not > 1")
    return FieldElement(K, ex, ey)


def _reduction_bound(D: int, Q: int) -> int:
    """Steps within which the walk from tau_0 = (P + sqrt D)/Q, Q > 0,
    reaches a reduced state: the least even k >= 2 with
    F_{k-1} * F_k >= Q / (2 sqrt D), F the Fibonacci numbers.

    This is the logarithmic reduction lemma (Buchmann & Vollmer, *Binary
    Quadratic Forms*, 2007) in convergent form.  With e_j = B_j*tau_0 - A_j
    and e'_j = e_j - B_j * 2 sqrt D/Q its conjugate, tau_k' =
    -e'_{k-2}/e'_{k-1}.  For even k, e_{k-1} < 0 < e_{k-2} < 1/B_{k-1} and
    B_{k-2} <= B_{k-1}, so -1 < tau_k' < 0 (and tau_k > 1: reduced) once
    B_{k-2} * B_{k-1} * 2 sqrt D/Q >= 1; and B_j >= F_{j+1}."""
    k, f0, f1 = 2, 1, 1
    while 4 * D * (f0 * f1) ** 2 < Q * Q:
        k, f0, f1 = k + 2, f0 + f1, f0 + 2 * f1
    return k


def principal_generator(I: IntegralIdeal):
    """A generator of I when principal, else None.

    The walk from tau_0 = (b + w)/a, (a; b; 1) the primitive part, keeps
    the gamma product c*tau_0 + e (see _o_walk) up to the first state in
    the principal-cycle table.  One reduced state comes within
    _reduction_bound, and the walk stays on its cycle; the table holds the
    principal cycle whole, so a reduced state off the table means that I
    is not principal.  The quotient reads N(u_k) off the matched state."""
    K = I.field
    if K.is_rational:
        return FieldElement(K, I.a)
    content, prim = I.content_and_primitive()
    o_acc = _o_walk(K)
    P, Q = 2 * prim.b + K.D, 2 * prim.a
    bound = _reduction_bound(K.D, Q)
    c0, e0, c1, e1 = 1, 0, 0, 1
    steps = 0
    while (P, Q) not in o_acc:
        if _is_reduced_pair(K, P, Q):
            return None
        if steps >= bound:
            raise InternalCheckError("no reduced state within %d steps"
                                     % bound)
        a, P, Q = _rho_step(K, P, Q)
        c0, e0, c1, e1 = c1, e1, c0 - a * c1, e0 - a * e1
        steps += 1
    # (c*tau_0 + e) * a = (c*b + e*a) + c*w
    g = FieldElement(K, *_exact_quotient(K, (c1 * prim.b + e1 * prim.a, c1),
                                         o_acc[(P, Q)], Q // 2, "generator"))
    if abs(g.numerator_norm()) != prim.norm:
        raise InternalCheckError("generator norm is not %d" % prim.norm)
    if ideal_from_element(g) != prim:
        raise InternalCheckError("generator does not generate the ideal")
    return g * content


def _log_abs_max(x: int, y: int, D: int) -> float:
    """log max(|u|, |sigma(u)|) for u = x + y*w, y != 0: with s = 2x + yD,
    2u = s + y*sqrt D and 2*sigma(u) = s - y*sqrt D, so the larger is
    (|s| + |y|*sqrt D)/2, a sum without cancellation."""
    s, y = abs(2 * x + y * D), abs(y)
    return log(y) + log(sqrt(D) + s / y) - log(2)


def unit_decompose(K: RealQuadraticField, u: FieldElement):
    """Write a unit as (-1)^sign * eps^k; returns (sign in {0,1}, k).

    |k| is log max(|u|, |sigma(u)|) / log eps rounded, and k > 0 exactly
    when |u| > 1, which for u = (s + y*sqrt D)/2 means s*y > 0.  The
    estimate is then checked exactly on integer pairs: |u| = eps^k, or for
    k < 0 conj(|u|) = +-eps^-k, which with |u| > 0 gives |u| = eps^k.  The
    norm is computed only when the check fails, to tell a non-unit (a
    ValueError) from a failed check."""
    if not u.is_integral():
        raise ValueError("not a unit")
    x, y, D = u.a, u.b, K.D
    eps = fundamental_unit(K)
    sign = 0
    if _real_sign(2 * x + y * D, y, D) < 0:  # 2u = (2x + yD) + y*sqrt D
        x, y, sign = -x, -y, 1
    k = 0
    if y:
        k = round(_log_abs_max(x, y, D) / _log_abs_max(eps.a, eps.b, D))
        if (2 * x + y * D) * y < 0:
            k = -k
    if k < 0:
        x, y = x + y * D, -y
    e = power(quad_mul(D, K.w_norm), (1, 0), (eps.a, eps.b), abs(k))
    if (x, y) != e and (k >= 0 or (-x, -y) != e):
        if abs(x * x + D * x * y + K.w_norm * y * y) != 1:
            raise ValueError("not a unit")
        raise InternalCheckError("unit is not +-eps^%d" % k)
    return sign, k


# ----------------------------------------------------------------- S-units

class SUnitBasisEntry(Frozen):
    """An S-unit with its nonzero valuations, a dict from prime ideals that
    the entry holds as a read-only map, its label and its kind, "torsion",
    "unit" or "lattice"; equal to an entry of the same four fields.  The
    map is not hashable, so neither is the entry."""

    def __init__(self, element, valuations, label, kind):
        self.__dict__.update(element=element,
                             valuations=MappingProxyType(valuations),
                             label=label, kind=kind)

    def __reduce__(self):
        return SUnitBasisEntry, (self.element, dict(self.valuations),
                                 self.label, self.kind)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented


def s_unit_entry(element: FieldElement, primes, label: str, kind: str):
    """The basis entry of an S-unit, with its nonzero valuations at the
    prime ideals `primes` read by ideal_valuation."""
    vals = {}
    for q in primes:
        v = ideal_valuation(element, q)
        if v:
            vals[q] = v
    return SUnitBasisEntry(element, vals, label, kind)


def unit_entries(K: RealQuadraticField):
    """The basis entries of the units of K: -1, and eps but over Q."""
    entries = (s_unit_entry(K.element(-1), (), "-1", "torsion"),)
    if K.is_rational:
        return entries
    return entries + (s_unit_entry(fundamental_unit(K), (), "eps", "unit"),)


def realize(K: RealQuadraticField, primes, w) -> FieldElement:
    """Element of K with divisor sum(w_i * q_i)."""
    num = unit_ideal(K)
    denom_rat = 1
    for q, wq in zip(primes, w):
        if wq > 0:
            num = num * q**wq
        elif wq < 0:
            # q^-1 = conj(q)/ell (split), 1/ell (inert), q/ell (ramified)
            ell, kind = prime_kind(q)
            if kind == "split":
                num = num * q.conj()**(-wq)
            elif kind == "ramified":
                num = num * q**(-wq)
            denom_rat *= ell**(-wq)
    g = principal_generator(num)
    if g is None:
        raise InternalCheckError("lattice vector is not principal")
    g = g / denom_rat
    if g.numerator_norm() < 0 and not K.is_rational:
        eps = fundamental_unit(K)
        if eps.numerator_norm() == -1:
            g = g * eps
    return g


class SUnitBasisData:
    """Generators of the Q-unit group E_Q with exact valuation bookkeeping:
    the tuple `entries` holds unit_entries(K), then one S-unit of each row
    of `lattice`, the relations among the classes of `primes` that
    relation_lattice reads off their class-group coordinates."""

    def __init__(self, K: RealQuadraticField, Q_ideals):
        self.field = K
        self.primes = list(Q_ideals)
        for q in self.primes:
            residue_char(q)  # validates primality
        clg = class_group(K)
        self.lattice = relation_lattice(
            [clg.ambient_dlog(q) for q in self.primes], clg.gen_orders)
        gens = [s_unit_entry(realize(K, self.primes, w), self.primes,
                             "g[" + ",".join(str(t) for t in w) + "]",
                             "lattice") for w in self.lattice]
        for w, entry in zip(self.lattice, gens):
            for q, wq in zip(self.primes, w):
                if entry.valuations.get(q, 0) != wq:
                    raise InternalCheckError("lattice generator has the wrong "
                                             "valuation at %s" % (q,))
        self.entries = unit_entries(K) + tuple(gens)

    def decompose(self, x: FieldElement):
        """Exact exponents of x over the basis entries, for x in E_Q.  The
        lattice is lower triangular, so the exponents of its rows come by
        substitution from the last prime back."""
        K, L = self.field, self.lattice
        vals = [ideal_valuation(x, q) for q in self.primes]
        coords = [0] * len(vals)
        for j in reversed(range(len(vals))):
            r = vals[j] - sum(coords[i] * L[i][j]
                              for i in range(j + 1, len(vals)))
            if r % L[j][j]:
                raise ValueError("element is not supported on Q")
            coords[j] = r // L[j][j]
        rest = x
        for c, entry in zip(coords, self.entries[len(self.entries)
                                                 - len(coords):]):
            rest = rest / entry.element**c
        if not K.is_rational:
            return list(unit_decompose(K, rest)) + coords
        if rest.den != 1 or rest.a not in (1, -1):
            raise ValueError("element is not supported on Q")
        return [int(rest.a == -1)] + coords

