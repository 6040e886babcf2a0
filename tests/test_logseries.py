"""The one p-adic log-series kernel, `padic.log_series`, against references.

The references are the object-level series of `UnramifiedQuadElem`, which
carries every digit through the arithmetic of `oracles.PAdicObject`, and
the integer series over Z_p, each written out below with its own copy of
the term bound.  Each
result is compared coordinate by coordinate on (v, m, digits).  The table of
inverses that `log_series` keeps is checked against the series that takes a
fresh inverse per term, `oracles.log_series`.

Every case is drawn from a fixed seed up front and none is filtered out.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from iwasawalab.ntheory import crt, is_squarefree, isprime, power
from iwasawalab.padic import (_log_inverses, log_series, unit_log_residues,
                              vp)
from iwasawalab.quadfield import (IntegralIdeal, RealQuadraticField,
                                  factor_rational_prime, split_root)

from oracles import PAdicObject, UnramifiedQuadElem, empty_memos, plog
from oracles import log_series as fresh_inverse_log_series

QUAD_PRIMES = (3, 5, 7, 11)
QUAD_CASES = 150          # per prime and per function
MAX_DIGITS = 30


# ------------------------------------------------------------- references

def _ref_terms_needed(c, p, A):
    k = max(1, -(-A // c))
    while p**(k * c - A) < k:
        k += 1
    return k


def _ref_log_series_int(z, p, A):
    """sum (-1)^(k+1) z^k / k mod p^A for an integer z with v_p(z) >= 1."""
    if z % p**A == 0:
        return 0
    c = vp(z % p**A, p)
    K = _ref_terms_needed(c, p, A)
    guard = 1
    while p**guard <= K:
        guard += 1
    modg = p**(A + guard)
    z %= modg
    total = 0
    zk = 1
    for k in range(1, K):
        zk = zk * z % modg
        j = vp(k, p) if k % p == 0 else 0
        term = (zk // p**j) * pow(k // p**j, -1, modg) % modg
        total = (total + term if k % 2 == 1 else total - term) % modg
    return total % p**A


def _ref_log_one_unit(x):
    """The series on UnramifiedQuadElem objects; requires x = 1 mod p."""
    p = x.p
    one = UnramifiedQuadElem.one(x.r, p, x.abs_prec)
    z = x - one
    zv = z.valuation()
    if not isinstance(zv, int):
        return UnramifiedQuadElem(PAdicObject.zero_marker(p, zv.bound),
                                  PAdicObject.zero_marker(p, zv.bound), x.r)
    assert zv >= 1
    A = x.abs_prec
    total = UnramifiedQuadElem(PAdicObject.zero_marker(p, A),
                               PAdicObject.zero_marker(p, A), x.r)
    zk = one
    for k in range(1, _ref_terms_needed(zv, p, A)):
        zk = zk * z
        j = vp(k, p) if k % p == 0 else 0
        inv_kk = PAdicObject.exact(k // p**j, p, A + 2).inv()
        term = UnramifiedQuadElem(zk.a * inv_kk, zk.b * inv_kk,
                                  x.r).shift(-j)
        total = total + term if k % 2 == 1 else total - term
    return total


def _ref_angle_log(x):
    p = x.p
    n = p * p - 1
    lg = _ref_log_one_unit(x ** n)
    inv_n = PAdicObject.exact(n, p, max(x.abs_prec, 1) + 2).inv()
    return UnramifiedQuadElem(lg.a * inv_n, lg.b * inv_n, x.r)


# ------------------------------------------------------------------ inputs

def _sig(x):
    return (x.v, x.m, x.digits)


def _quad_sig(u):
    return (_sig(u.a), _sig(u.b))


def _nonresidue(rng, p):
    n0 = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    s = rng.randrange(1, p)
    return n0 * s * s + p * rng.randrange(-20, 20)


def _coordinate(rng, p, unit, one_unit):
    """A coordinate with its own precision: a unit (= 1 mod p if one_unit),
    a multiple of p, or a zero marker."""
    A = rng.randrange(1, MAX_DIGITS + 1)
    if unit:
        r = 1 + p * rng.randrange(p**A) if one_unit \
            else rng.randrange(1, p) + p * rng.randrange(p**A)
        return PAdicObject.from_residue(r, p, A)
    if rng.random() < 0.25:
        return PAdicObject.zero_marker(p, A)
    return PAdicObject.from_residue(p * rng.randrange(p**A), p, A)


def _quad_cases(seed, one_unit):
    rng = random.Random(seed)
    out = []
    for p in QUAD_PRIMES:
        for _ in range(QUAD_CASES):
            r = _nonresidue(rng, p)
            a_unit = one_unit or rng.random() < 0.6
            b_unit = not one_unit and (not a_unit or rng.random() < 0.5)
            a = _coordinate(rng, p, a_unit, one_unit)
            b = _coordinate(rng, p, b_unit, False)
            out.append(UnramifiedQuadElem(a, b, r))
    return out


ONE_UNITS = _quad_cases(1, one_unit=True)
UNITS = _quad_cases(2, one_unit=False)


# ------------------------------------------------------------------- tests

def test_cases_cover_markers_and_uneven_precision():
    for cases in (ONE_UNITS, UNITS):
        assert any(u.b.is_marker for u in cases)
        assert any(u.a.abs_prec != u.b.abs_prec for u in cases)
    assert any(u.a.is_marker for u in UNITS)


def test_log_one_unit_matches_object_series():
    for u in ONE_UNITS:
        assert _quad_sig(u.log_one_unit()) == _quad_sig(_ref_log_one_unit(u)), u


def test_angle_log_matches_object_series():
    for u in UNITS:
        assert _quad_sig(u.angle_log()) == _quad_sig(_ref_angle_log(u)), u


def test_log_one_unit_of_one_within_precision_is_marker():
    p, A = 5, 7
    u = UnramifiedQuadElem(PAdicObject.from_residue(1 + 5**A, p, A),
                           PAdicObject.zero_marker(p, 9), 2)
    assert _quad_sig(u.log_one_unit()) == ((A, None, 0), (A, None, 0))


def test_log_one_unit_rejects_non_one_unit():
    with pytest.raises(ValueError):
        UnramifiedQuadElem.from_residues(2, 5, 2, 5, 6).log_one_unit()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_plog_matches_integer_series(p):
    rng = random.Random(p)
    for _ in range(300):
        A = rng.randrange(1, 41)
        x = PAdicObject.from_residue(1 + p * rng.randrange(p**A), p, A)
        want = PAdicObject.from_residue(
            _ref_log_series_int(x.residue(A) - 1, p, A), p, A)
        assert _sig(plog(x)) == _sig(want), x


def test_kernel_at_2_matches_integer_series():
    # the ell = 2 dlogs of RationalComponent take the series of a z
    # with v_2(z) >= 2 (log 5 and log y for y = 1 mod 4)
    rng = random.Random(20)
    for _ in range(400):
        A = rng.randrange(2, 41)
        c = rng.randrange(2, 7)
        z = 2**c * rng.randrange(2**A)
        assert log_series(z, 0, 0, 0, 2, A) == \
            (_ref_log_series_int(z, 2, A), 0), (z, A)


def _inert_pairs():
    """(K, ell, e, pair) for 1-unit pairs u over {1, w} at inert ell."""
    rng = random.Random(30)
    out = []
    for d in (2, 5, 7, 13, 79):
        K = RealQuadraticField(d)
        ells = [ell for ell in (3, 5, 7, 11, 13)
                if factor_rational_prime(K, ell).kind == "inert"]
        for ell in ells:
            for e in (2, 3, 4):
                mod = ell**e
                pairs = [(1 + ell, 0), (1, ell)]
                pairs += [((1 + ell * rng.randrange(mod)) % mod,
                           ell * rng.randrange(mod) % mod) for _ in range(12)]
                out += [(K, ell, e, u) for u in pairs]
    return out


def test_kernel_on_w_basis_matches_object_series():
    cases = _inert_pairs()
    assert len({(c[0].d, c[1]) for c in cases}) >= 10
    for K, ell, e, (u0, u1) in cases:
        mod, D = ell**e, K.D
        got = log_series(u0 - 1, u1, K.w_trace, K.w_norm, ell, e)
        # w = (D + s)/2 with s^2 = D
        h = pow(2, -1, mod)
        x = UnramifiedQuadElem.from_residues(u0 + u1 * D * h, u1 * h, D,
                                             ell, e)
        lg = _ref_log_one_unit(x)
        a, b = lg.a.residue(e), lg.b.residue(e)
        assert got == ((a - b * D) % mod, 2 * b % mod), (K, ell, e, u0, u1)


# ------------------------------------------------- the table of inverses

TABLE_PRIMES = (2, 3, 5, 7)
TABLE_MAX_DIGITS = 30


def _table_key(p, A, c):
    """The (p, A + guard) under which log_series keeps its inverses, and
    the K of its series."""
    K = _ref_terms_needed(c, p, A)
    guard = 1
    while p**guard <= K:
        guard += 1
    return (p, A + guard), K


def test_log_series_table_matches_references():
    empty_memos()
    rng = random.Random(50)
    cached = {}         # key -> the K of the first call that met it
    longer = 0
    for p in TABLE_PRIMES:
        for A in range(1, TABLE_MAX_DIGITS + 1):
            # the largest c first: its series is the shortest, so a later c
            # that meets the same key needs more of the cached table
            for c in (3, 2, 1):
                unit = rng.randrange(1, p**A)
                while unit % p == 0:
                    unit = rng.randrange(1, p**A)
                z = p**c * unit
                assert log_series(z, 0, 0, 0, p, A) == \
                    (_ref_log_series_int(z, p, A), 0), (p, A, c)
                assert log_series(z, 0, 0, 0, p, A) == \
                    fresh_inverse_log_series(z, 0, 0, 0, p, A)
                z1 = p**c * rng.randrange(p**A)
                t, n = rng.randrange(-50, 50), rng.randrange(-50, 50)
                for pair in ((z, z1), (z1, z)):
                    assert log_series(*pair, t, n, p, A) == \
                        fresh_inverse_log_series(*pair, t, n, p, A), \
                        (p, A, c, pair, t, n)
                if c >= A:
                    continue            # z = 0 mod p^A: no table used
                key, K = _table_key(p, A, c)
                longer += key in cached and K > cached[key]
                cached.setdefault(key, K)
                assert len(_log_inverses(*key)) >= K - 1
    assert longer > 20


def test_log_series_table_is_bounded():
    empty_memos()
    bound = _log_inverses.cache_info().maxsize
    for A in range(2, 2 * bound + 2):
        # A + guard grows with A: a new key at each step (3 = 0 mod 3^1)
        assert log_series(3, 0, 0, 0, 3, A) == \
            fresh_inverse_log_series(3, 0, 0, 0, 3, A)
    info = _log_inverses.cache_info()
    assert info.misses == 2 * bound
    assert info.currsize <= bound


def test_log_series_table_is_empty_after_import():
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", "import iwasawalab.padic as m; "
         "print(m._log_inverses.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_unit_log_of_a_non_unit_is_refused():
    # u^k of a non-unit is 0 mod p, so u^k - 1 is no 1-unit
    for u0, u1, r in ((3, 0, 0), (9, 0, 0), (3, 6, 2), (0, 3, 5)):
        with pytest.raises(ValueError, match="1-unit"):
            unit_log_residues(u0, u1, r, 3, 5)


# ----------------------------------------- the kernels the series rests on

def test_power_matches_builtin_pow():
    rng = random.Random(40)
    for _ in range(200):
        m = rng.randrange(2, 10**6)
        g, k = rng.randrange(m), rng.randrange(0, 3000)
        assert power(lambda a, b: a * b % m, 1 % m, g, k) == pow(g, k, m)


def test_crt():
    assert crt(2, 3, 3, 5) == (8, 15)
    assert crt(1, 4, 3, 6) == (9, 12)
    assert crt(1, 4, 2, 6) is None
    assert crt(5, 6, 2, 3) == (5, 6)


@pytest.mark.parametrize("d", [2, 7, 79])
def test_split_root_is_a_root_of_the_minimal_polynomial(d):
    K = RealQuadraticField(d)
    for ell in (3, 7, 17, 31, 41, 47):
        rep = factor_rational_prime(K, ell)
        if rep.kind != "split":
            continue
        for q in rep.ideals:
            for e in (1, 2, 5):
                t = split_root(q, e)
                assert 0 <= t < ell**e
                assert (t * t - K.w_trace * t + K.w_norm) % ell**e == 0
                assert (t + q.b) % ell == 0


def _ref_split_root(q, e):
    """The lift that takes a fresh inverse of f'(t) at each doubling."""
    K, ell = q.field, q.a
    f = lambda x: x * x - K.w_trace * x + K.w_norm
    t, mod, top = (-q.b) % ell, ell, ell**e
    while mod < top:
        mod = min(mod * mod, top)
        t = (t - f(t) * pow(2 * t - K.w_trace, -1, mod)) % mod
    assert f(t) % top == 0
    return t


def test_split_root_matches_fresh_inverse_lift():
    primes = [ell for ell in range(2, 200) if isprime(ell)]
    pairs = 0
    for d in range(2, 500):
        if not is_squarefree(d):
            continue
        K = RealQuadraticField(d)
        for ell in primes:
            rep = factor_rational_prime(K, ell)
            if rep.kind != "split":
                continue
            for q in rep.ideals:
                pairs += 1
                for e in range(1, 13):
                    assert split_root(q, e) == _ref_split_root(q, e), \
                        (d, ell, e)
    assert pairs > 5000


def test_split_root_raises_off_a_root():
    K = RealQuadraticField(2)   # w = 4 + sqrt 2 is 0 or 1 mod 7, not 6
    with pytest.raises(AssertionError, match="Hensel lift"):
        split_root(IntegralIdeal(K, 7, 1, 1), 3)


def test_split_root_matches_fresh_inverse_lift_to_e_512():
    """split_root keeps no memo: each call lifts again, and agrees with the
    reference at every e up to 512 and on a second call at the same e."""
    K = RealQuadraticField(2)
    q = factor_rational_prime(K, 7).ideals[0]
    assert not hasattr(split_root, "cache_info")
    assert split_root(q, 20) == split_root(q, 20) == _ref_split_root(q, 20)
    for e in range(1, 513):
        assert split_root(q, e) == _ref_split_root(q, e)
