"""Small exact integer number-theory helpers, and Frozen, the base of the
engine's value types."""

from __future__ import annotations

from math import gcd, isqrt


class InternalCheckError(AssertionError):
    """A certificate check inside the engine failed: a bug, not bad input.
    Raised explicitly, so it survives `python -O`."""


class Frozen:
    """Base of the value types: __init__ sets each attribute once, through
    object.__setattr__ or straight into the instance dict, and assigning or
    deleting one later raises AttributeError.  A type with __slots__, a
    hash taken at construction (which may differ between processes) or a
    read-only map is copied and pickled through its __init__, by a
    __reduce__ of its own."""
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def check_int(name: str, n):
    """Refuse n, the argument `name`, unless it is an int (no bool) >= 1."""
    if type(n) is not int:
        raise ValueError("%s must be an int, got %r" % (name, n))
    if n < 1:
        raise ValueError("%s must be at least 1" % name)


def integer(text: str) -> int:
    """The int of ASCII [+-]?[0-9]+, else a ValueError; int() reads "1_3"."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("invalid integer value: %r" % (text,))
    return int(text)


def isprime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond this package's scale.
    Below 41^2 = 1681, an n with no prime factor up to 37 is prime."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    if n < 1681:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> dict:
    """Trial-division factorization; intended for small inputs."""
    if n <= 0:
        raise ValueError("positive integer expected")
    out = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 5
    while f * f <= n:
        for q in (f, f + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    """True iff no square of a prime divides n > 0; trial division by 2,
    then by odd q while q^3 <= n.  Every prime factor of the cofactor n
    left is then at least q > cbrt(n), so there are at most two, and n is
    squarefree iff it is 1 or not a square."""
    if n % 4 == 0:
        return False
    if n % 2 == 0:
        n //= 2
    q = 3
    while q * q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return False
        q += 2
    return n == 1 or isqrt(n) ** 2 != n


def extgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def power(mul, one, g, k: int):
    """g^k for k >= 0 by square-and-multiply under `mul`, with identity
    `one`; the last squaring, whose result is never read, is skipped."""
    r = one
    while k:
        if k & 1:
            r = mul(r, g)
        k >>= 1
        if k:
            g = mul(g, g)
    return r


def quad_mul(t: int, n: int, m: int = 0):
    """The multiplication of Z[x]/(x^2 - t*x + n) modulo m, or exactly when
    m is 0, on coordinate pairs over {1, x}, as a function of two pairs for
    `power`; only the closure returned is built."""
    if not m:
        def exact(u, v):
            u0, u1 = u
            v0, v1 = v
            w = u1 * v1
            return u0 * v0 - w * n, u0 * v1 + u1 * v0 + w * t
        return exact

    def mul(u, v):
        u0, u1 = u
        v0, v1 = v
        w = u1 * v1
        return (u0 * v0 - w * n) % m, (u0 * v1 + u1 * v0 + w * t) % m
    return mul


def crt(r1: int, m1: int, r2: int, m2: int):
    """(r, lcm(m1, m2)) with r = r1 mod m1 and r = r2 mod m2, 0 <= r < lcm,
    or None when the two residues are inconsistent."""
    g = gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    l = m1 // g * m2
    if m2 == g:
        return r1 % l, l
    t = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
    return (r1 + m1 * t) % l, l


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a mod an odd prime p (a must be a QR); Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError("%d is not a square mod %d" % (a, p))
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r

