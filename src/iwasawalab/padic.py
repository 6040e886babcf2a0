"""p-adic values in Z_p / Q_p with explicit tracking of how many digits
are certified: the value record PAdicNumber, the row kernels that compute
on its fields, and the log series and Teichmueller lift the engine reads on
integer residues, in Z_p and in the unramified quadratic extension as
coordinate pairs.

A nonzero value is stored as p^v * m where m is a unit mantissa known modulo
p^digits.  Quantities that cannot be distinguished from zero are carried as a
marker "valuation >= bound" rather than silently treated as equal to zero.
A PAdicNumber is built, inspected and read as a residue; it has no
arithmetic.  A row (v, m, digits) is its fields without p, (A, None, 0) for
a marker of bound A, and every product of p-adic numbers, and every sum
(a product with an exact 1), is taken on rows by dot_row.  Exponents are
integers: no engine path raises a value to a Z_p power, since the Kummer
element stays a formal product whose exponents are never applied.  The
object arithmetic (`PAdicObject`), the 1-unit projection, logs of objects,
the quadratic extension's elements and the AtLeast valuation marker are the
tests' reference, in tests/oracles.py.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .ntheory import InternalCheckError, power, quad_mul

# bound used for zero markers that arise from exact integer zeros
EXACT_ZERO_BOUND = 10**9


class PrecisionError(ValueError):
    """A quantity sits below working precision; raising N may resolve it."""


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PAdicNumber:
    """Element of Q_p known to a finite number of significant digits.

    Nonzero: value is p^v * (m + O(p^digits)) with 0 < m < p^digits, p ∤ m.
    Zero marker: m is None and v is a lower bound for the valuation.
    """

    __slots__ = ("p", "v", "m", "digits")

    def __init__(self, p: int, v: int, m, digits: int):
        if p < 3 or p % 2 == 0:
            raise ValueError("p must be an odd prime, got %r" % (p,))
        self.p = p
        self.v = v
        self.m = m
        self.digits = digits
        if m is not None:
            if not isinstance(m, int):
                raise ValueError("mantissa must be an int, got %r" % (m,))
            if digits < 1 or not (0 < m < p**digits) or m % p == 0:
                raise ValueError("bad mantissa %r (digits=%d)" % (m, digits))

    # ------------------------------------------------------------ constructors
    @classmethod
    def zero_marker(cls, p: int, bound: int) -> "PAdicNumber":
        return cls(p, bound, None, 0)

    @classmethod
    def exact(cls, n, p: int, digits: int) -> "PAdicNumber":
        """Exact integer or Fraction input, kept to `digits` significant digits."""
        if n == 0:
            return cls.zero_marker(p, EXACT_ZERO_BOUND)
        vnum, vden = vp(n.numerator, p), vp(n.denominator, p)
        mod = p**digits
        m = n.numerator // p**vnum * pow(n.denominator // p**vden, -1, mod)
        return cls(p, vnum - vden, m % mod, digits)

    @classmethod
    def of(cls, n, p: int, N: int) -> "PAdicNumber":
        """Input read modulo p^N: N absolute digits of information."""
        if n.denominator % p == 0:
            raise ValueError("denominator not a p-unit")
        return cls.from_residue(n.numerator * pow(n.denominator, -1, p**N),
                                p, N)

    @classmethod
    def from_residue(cls, r: int, p: int, abs_prec: int) -> "PAdicNumber":
        """Value known to be ≡ r mod p^abs_prec."""
        return cls(p, *residue_row(r, p, abs_prec))

    # ------------------------------------------------------------- inspection
    @property
    def is_marker(self) -> bool:
        return self.m is None

    @property
    def is_exact_zero(self) -> bool:
        return self.m is None and self.v >= EXACT_ZERO_BOUND

    @property
    def abs_prec(self) -> int:
        """Exponent A such that the value is certified modulo p^A."""
        return self.v if self.m is None else self.v + self.digits

    def residue(self, abs_prec: int) -> int:
        """Integer representative modulo p^abs_prec (abs_prec <= certified)."""
        if abs_prec > self.abs_prec:
            raise ValueError("requesting %d digits, only %d certified"
                             % (abs_prec, self.abs_prec))
        if self.m is None:
            return 0
        if self.v < 0:
            raise ValueError("negative valuation has no integer residue")
        return (self.p**self.v * self.m) % self.p**abs_prec

    def is_unit(self) -> bool:
        return self.m is not None and self.v == 0

    # -------------------------------------------------------------- rendering
    def __repr__(self):
        if self.m is None:
            return "O(%d^%d)" % (self.p, min(self.v, EXACT_ZERO_BOUND))
        return "%d^%d * %d (mod %d^%d)" % (self.p, self.v, self.m,
                                           self.p, self.digits)


# ------------------------------------------------------------------ rows

def residue_row(r: int, p: int, A: int) -> tuple:
    """The row of the value known to be ≡ r mod p^A."""
    r %= p**A
    if r == 0:
        return A, None, 0
    v = vp(r, p)
    return v, r // p**v, A - v


def _terms_row(p: int, A: int, terms) -> tuple:
    """The row of the sum of p^v * m over the pairs (v, m) of `terms`, known
    mod p^A: the one p-adic sum.  Terms of v >= A vanish; the rest sum to
    p^s * r, s the least of 0 and their v, and r is read by residue_row mod
    p^(A - s).  With none left, p^A is never formed."""
    s, live = 0, False
    for v, _ in terms:
        if v < A:
            s, live = min(s, v), True
    if not live:
        return A, None, 0
    r = 0
    for v, m in terms:
        if v < A:
            r += m * p**(v - s)
    v, m, digits = residue_row(r, p, A - s)
    return v + s, m, digits


def dot_row(p: int, pairs) -> tuple:
    """The row of the sum of x*y over the pairs (x, y) of rows, the one
    p-adic product: (x + O(p^Ax))(y + O(p^Ay)) = xy + O(p^(Ax + vy)) +
    O(p^(Ay + vx)), so p^vx*mx times p^vy*my is known mod
    p^(vx + vy + min(dx, dy)), and a product with a marker is a marker of
    bound vx + vy, a marker's v being its bound.  _terms_row sums the
    products mod the least of these; with an exact zero (bound 10^9) in
    every product that is past 10^9, and no such power of p is formed."""
    A, terms = None, []
    for (vx, mx, dx), (vy, my, dy) in pairs:
        v = vx + vy
        if mx is not None and my is not None:
            terms.append((v, mx * my))
            v += dx if dx < dy else dy
        if A is None or v < A:
            A = v
    return _terms_row(p, A, terms)


def truncate_row(row: tuple, p: int, drop: int) -> tuple:
    """A row known mod p^A read mod p^(A - drop), drop >= 0: one %."""
    v, m, digits = row
    if m is None or digits <= drop:
        return v + digits - drop, None, 0
    return v, m % p**(digits - drop), digits - drop


# ------------------------------------------------------------------ operations

def teichmueller(x: PAdicNumber) -> PAdicNumber:
    """The (p-1)-st root of unity congruent to x mod p, as lim x^(p^k):
    each step gains at least one digit, so digits steps find it."""
    if not x.is_unit():
        raise ValueError("Teichmueller lift requires a unit")
    p, digits = x.p, x.digits
    mod = p**digits
    t = x.m % mod
    for _ in range(digits + 1):
        t2 = pow(t, p, mod)
        if t2 == t:
            break
        t = t2
    else:
        raise InternalCheckError("Teichmueller lift did not converge")
    return PAdicNumber(p, 0, t, digits)


def _log_terms_needed(c: int, p: int, A: int) -> int:
    """A K with k*c - v_p(k) >= A for every k >= K, given c >= 1.

    Uses v_p(k) <= log_p(k) and that k*c - log_p(k) does not decrease over
    the integers k >= 1: its step c - log_p((k+1)/k) is at least
    1 - log_p(2) >= 0 for every prime p, p = 2 included.  So K = the first
    k with k*c >= A and p^(k*c - A) >= k.
    """
    k = max(1, -(-A // c))
    while p**(k * c - A) < k:
        k += 1
    return k


@lru_cache(maxsize=128)
def _log_inverses(p: int, e: int) -> tuple:
    """(p^(v_p k), (-1)^(k+1) / (k / p^(v_p k)) mod p^e) at index k - 1, for
    each k below K(1, p, e - 1): a series taken mod p^e = p^(A + guard) has
    A <= e - 1 and c >= 1, and _log_terms_needed grows with A, falls with c.
    The tables of the last 128 pairs (p, e) asked for are kept."""
    modg = p**e
    out = []
    for k in range(1, _log_terms_needed(1, p, e - 1)):
        pj = p**vp(k, p)
        out.append((pj, pow(k // pj if k % 2 else -(k // pj), -1, modg)))
    return tuple(out)


def log_series(z0: int, z1: int, t: int, n: int, p: int, A: int):
    """log(1 + z) mod p^A for z = z0 + z1*x in Z_p[x]/(x^2 - t*x + n) with
    v_p(z) >= 1, as the coordinate pair over {1, x}.

    x = sqrt(D) is t = 0, n = -D; the basis {1, w} of a quadratic field is
    t = w_trace, n = w_norm; Z_p is z1 = 0.  The series
    sum (-1)^(k+1) z^k / k stops before the K of _log_terms_needed; its terms
    are computed mod p^(A + guard) with p^guard > K, so dividing z^k by the
    p-part of k < K leaves at least A digits.  The signed inverses of the
    prime-to-p parts of k come from one table per (p, A + guard), built on
    first use and kept for the last 128 pairs used.
    """
    mod = p**A
    z0 %= mod
    z1 %= mod
    if not (z0 or z1):
        return 0, 0
    c = vp(gcd(z0, z1), p)
    if c < 1:
        raise ValueError("log requires a 1-unit")
    K = _log_terms_needed(c, p, A)
    guard = 1
    while p**guard <= K:
        guard += 1
    modg = p**(A + guard)
    table = _log_inverses(p, A + guard)
    s0 = s1 = 0
    x0, x1 = 1, 0
    for k in range(1, K):
        # the step of ntheory.quad_mul, inline: a call per term cost
        # leopoldt-scan 3 % of its queries/s while it took unit logs
        x0, x1 = ((x0 * z0 - n * x1 * z1) % modg,
                  (x0 * z1 + x1 * z0 + t * x1 * z1) % modg)
        pj, inv = table[k - 1]      # pj divides z^k exactly
        s0 = (s0 + x0 // pj * inv) % modg
        s1 = (s1 + x1 // pj * inv) % modg
    return s0 % mod, s1 % mod


def unit_log_residues(u0: int, u1: int, r: int, p: int, A: int):
    """log of the 1-unit part of a unit u, on residues mod p^A: log(u^k)/k
    for u = u0 in Z_p (u1 = r = 0, k = p - 1) or u = u0 + u1*s in
    Z_p[s]/(s^2 - r), r a non-residue (k = p^2 - 1); the pair over {1, s}."""
    mod = p**A
    if r:
        k = p * p - 1
        u0, u1 = power(quad_mul(0, -r, mod), (1, 0), (u0, u1), k)
    else:
        k = p - 1
        u0 = pow(u0, k, mod)
    l0, l1 = log_series(u0 - 1, u1, 0, -r, p, A)
    inv = pow(k, -1, mod)
    return l0 * inv % mod, l1 * inv % mod
