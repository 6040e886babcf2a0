import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from iwasawalab import padic
from iwasawalab.ntheory import InternalCheckError
from iwasawalab.padic import (PAdicNumber, _terms_row, dot_row, residue_row,
                              teichmueller, truncate_row, vp)

from oracles import (EXACT_SLACK, AtLeast, PAdicObject, UnramifiedQuadElem,
                     angle, angle_log, as_object, log_ratio, plog,
                     val_and_unit, valuation)


def pexp_oracle(x: PAdicObject) -> PAdicObject:
    """Series exponential, used only as a test oracle (input in pZ_p, p odd)."""
    p = x.p
    A = x.abs_prec
    if x.is_marker:
        return PAdicObject.from_residue(1, p, A)
    c = valuation(x)
    assert c >= 1
    # v(x^k/k!) = k*c - (k - s_p(k))/(p-1) >= k(c - 1/(p-1)) -> choose K
    K = 1
    while K * c - (K // (p - 1) + 2) < A:
        K += 1
    guard = 1
    while p**guard <= K:
        guard += 1
    modg = p**(A + 2 * guard)
    z = x.residue(A) % modg
    total, zk, fact_unit, fact_val = 1, 1, 1, 0
    for k in range(1, K + 1):
        zk = zk * z % modg
        j = vp(k, p) if k % p == 0 else 0
        fact_val += j
        fact_unit = fact_unit * (k // p**j) % modg
        term = zk // p**fact_val * pow(fact_unit, -1, modg) % modg
        total = (total + term) % modg
    return PAdicObject.from_residue(total, p, A)


# ------------------------------------------------------- basic operations
# The engine takes every p-adic sum by padic._terms_row and every product
# by padic.dot_row on rows (v, m, digits); each case below reads the
# kernel's row against the fields of the reference arithmetic of
# oracles.PAdicObject, and checks the object's value.

def _row(x):
    return x.v, x.m, x.digits


def _sum_row(x, y, sign=1):
    """The row of x + sign*y by padic._terms_row: the terms of both, mod
    the lesser absolute precision."""
    return _terms_row(x.p, min(x.abs_prec, y.abs_prec),
                      [(z.v, s * z.m) for z, s in ((x, 1), (y, sign))
                       if z.m is not None])


def _product_row(x, y):
    """The row of x * y by padic.dot_row."""
    return dot_row(x.p, [(_row(x), _row(y))])


def _inverse_row(y):
    """The row of 1/y, y no marker, as localize.zp_matrix_rank forms its
    pivot's."""
    return -y.v, pow(y.m, -1, y.p**y.digits), y.digits


def test_add_simple():
    x = PAdicObject.of(12, 5, 3)
    y = PAdicObject.of(20, 5, 3)
    assert (x + y).residue(3) == 32
    assert _sum_row(x, y) == _row(x + y)


def test_inv_7_mod_125():
    x = PAdicObject.of(7, 5, 3)
    inv = x.inv()
    assert inv.residue(3) == 18
    assert 7 * 18 % 125 == 1
    assert _inverse_row(x) == _row(inv)
    assert _product_row(x, inv) == (0, 1, 3)


def test_mul_identity_random():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        n = rng.randrange(1, p**6)
        x = PAdicObject.of(n, p, 6)
        one = PAdicObject.one(p, 6)
        y = x * one
        assert _product_row(x, one) == _row(y)
        if x.is_marker:
            assert y.is_marker
        else:
            assert y.residue(y.abs_prec) == x.residue(y.abs_prec)


def test_mixed_primes_rejected():
    with pytest.raises(ValueError, match="mixed primes 3 and 5"):
        PAdicObject.of(1, 3, 3) + PAdicObject.of(1, 5, 3)


def test_inv_of_marker_rejected():
    with pytest.raises(ZeroDivisionError):
        PAdicObject.zero_marker(5, 3).inv()


def test_even_p_rejected():
    with pytest.raises(ValueError):
        PAdicNumber.of(1, 2, 3)


def test_cancellation_loses_precision():
    x = PAdicObject.of(1 + 9, 3, 4)
    y = PAdicObject.of(1, 3, 4)
    d = x - y  # = 9, known mod 3^4
    assert valuation(d) == 2
    assert d.digits == 2
    assert _sum_row(x, y, -1) == _row(d)


def test_add_negative_valuation():
    x, y = PAdicObject.exact(Fraction(1, 3), 3, 5), PAdicObject.exact(1, 3, 5)
    z = x + y
    assert (z.v, z.m, z.abs_prec) == (-1, 4, 4)  # 4/3, known mod 3^4
    assert _sum_row(x, y) == _row(z)


def _value(x) -> Fraction:
    return Fraction(0) if x.is_marker else Fraction(x.p) ** x.v * x.m


def _vp_fraction(a: Fraction, p: int):
    if a == 0:
        return None
    return vp(a.numerator, p) - vp(a.denominator, p)


@st.composite
def _padic_and_value(draw, p):
    """A PAdicObject with valuation (or marker bound) in [-6, 6] and a
    Fraction it approximates."""
    v = draw(st.integers(min_value=-6, max_value=6))
    num = draw(st.integers(min_value=1, max_value=10**6).filter(
        lambda n: n % p))
    den = draw(st.integers(min_value=1, max_value=10**3).filter(
        lambda n: n % p))
    sign = draw(st.sampled_from([1, -1]))
    a = sign * Fraction(p) ** v * Fraction(num, den)
    if draw(st.booleans()):
        return PAdicObject.zero_marker(p, v), a
    return PAdicObject.exact(a, p, draw(st.integers(1, 8))), a


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([3, 5, 7]), st.sampled_from(["+", "-"]))
def test_add_sub_against_fractions(data, p, op):
    x, a = data.draw(_padic_and_value(p))
    y, b = data.draw(_padic_and_value(p))
    z, c = (x + y, a + b) if op == "+" else (x - y, a - b)
    assert _sum_row(x, y, 1 if op == "+" else -1) == _row(z)
    assert z.abs_prec <= min(x.abs_prec, y.abs_prec)
    err = _vp_fraction(c - _value(z), p)
    assert err is None or err >= z.abs_prec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7]))
def test_add_is_the_reference_sum(data, p):
    """padic._terms_row of the terms of x and y has the fields of the
    reference sum x + y of oracles.PAdicObject, markers, exact zeros and
    negative valuations included."""
    operand = _operand(p)
    x, y = data.draw(operand), data.draw(operand)
    assert _sum_row(x, y) == _row(x + y)


def _operand(p):
    """A PAdicObject of _padic_and_value, or an exact zero."""
    return st.one_of(_padic_and_value(p).map(lambda xa: xa[0]),
                     st.just(PAdicObject.exact(0, p, 4)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7]), st.integers(1, 5))
def test_dot_row_is_the_sum_of_reference_products(data, p, n):
    """padic.dot_row of n pairs of rows has the fields of the sum of the
    reference products of oracles.PAdicObject, markers, exact zeros and
    negative valuations included; its one pair case has the fields of
    x * y."""
    pairs = [(data.draw(_operand(p)), data.draw(_operand(p)))
             for _ in range(n)]
    want = None
    for x, y in pairs:
        want = x * y if want is None else want + x * y
    got = dot_row(p, [(_row(x), _row(y)) for x, y in pairs])
    assert got == _row(want)
    x, y = pairs[0]
    assert _product_row(x, y) == _row(x * y)


def _certified(z, c: Fraction) -> bool:
    """Every digit z certifies agrees with c: v_p(c - z) >= abs_prec(z)."""
    err = _vp_fraction(c - _value(z), z.p)
    return err is None or err >= z.abs_prec


def test_padic_number_is_a_value_record():
    """The engine's PAdicNumber has no arithmetic: sums and products are
    taken on rows by padic.dot_row, the object arithmetic is the tests'
    PAdicObject."""
    for name in ("__neg__", "__add__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__", "__pow__", "inv", "one"):
        assert not hasattr(PAdicNumber, name), name
    with pytest.raises(TypeError):
        PAdicNumber.of(1, 5, 3) + PAdicNumber.of(2, 5, 3)


def test_non_int_mantissa_rejected():
    for m in (1.0, Fraction(1), "1"):
        with pytest.raises(ValueError, match="mantissa must be an int"):
            PAdicNumber(5, 0, m, 3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7]), st.sampled_from(["*", "/"]))
def test_mul_div_against_fractions(data, p, op):
    """dot_row of x and y, or of x and the inverse row of y, against the
    object x * y or x / y, whose digits agree with the Fractions'."""
    x, a = data.draw(_padic_and_value(p))
    y, b = data.draw(_padic_and_value(p))
    if op == "*":
        z, c, row = x * y, a * b, _product_row(x, y)
    elif y.is_marker:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    else:
        z, c = x / y, a / b
        row = dot_row(p, [(_row(x), _inverse_row(y))])
    assert row == _row(z)
    assert _certified(z, c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7]), st.sampled_from(["*", "/"]),
       st.integers(0, 6), st.integers(1, 10**4), st.sampled_from([1, -1]))
def test_mul_div_by_int_against_fractions(data, p, op, k, u, sign):
    """x * n and x / n for n = +-p^k * u: dot_row of x and the row of n,
    exact to x's digits (EXACT_SLACK for a marker), or of its inverse,
    against the object's int branches."""
    x, a = data.draw(_padic_and_value(p))
    n = sign * p**k * u
    y = PAdicObject.exact(n, p, x.digits or EXACT_SLACK)
    if op == "*":
        z, c, row = x * n, a * n, _product_row(x, y)
    else:
        z, c = x / n, a / n
        row = dot_row(p, [(_row(x), _inverse_row(y))])
    assert row == _row(z)
    assert _certified(z, c)


_NONRESIDUE = {3: 2, 5: 2, 7: 3}


@st.composite
def _quad_and_value(draw, p):
    """An UnramifiedQuadElem whose coordinates have valuations (or marker
    bounds) in [-6, 6], and the pair of Fractions it approximates."""
    x, a = draw(_padic_and_value(p))
    y, b = draw(_padic_and_value(p))
    return UnramifiedQuadElem(x, y, _NONRESIDUE[p]), (a, b)


def _quad_certified(z: UnramifiedQuadElem, c) -> bool:
    return _certified(z.a, c[0]) and _certified(z.b, c[1])


def _quad_mul_value(a, b, r):
    return a[0] * b[0] + r * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _quad_inv_value(a, r):
    n = a[0] * a[0] - r * a[1] * a[1]
    return a[0] / n, -a[1] / n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7]), st.sampled_from(["*", "/"]))
def test_quad_mul_div_against_fractions(data, p, op):
    x, a = data.draw(_quad_and_value(p))
    y, b = data.draw(_quad_and_value(p))
    r = _NONRESIDUE[p]
    if op == "*":
        z, c = x * y, _quad_mul_value(a, b, r)
    elif y.norm().is_marker:
        with pytest.raises(ZeroDivisionError):
            y.inv()
        return
    else:
        z, c = x * y.inv(), _quad_mul_value(a, _quad_inv_value(b, r), r)
    assert _quad_certified(z, c)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7]), st.integers(-6, 6))
def test_quad_pow_against_fractions(data, p, k):
    """Integer powers, against the powers of the Fraction pair."""
    x, a = data.draw(_quad_and_value(p))
    r = _NONRESIDUE[p]
    if k < 0:
        if x.norm().is_marker:
            return
        a, k_abs = _quad_inv_value(a, r), -k
    else:
        k_abs = k
    c = (Fraction(1), Fraction(0))
    for _ in range(k_abs):
        c = _quad_mul_value(c, a, r)
    assert _quad_certified(x ** k, c)


# ------------------------------------------------------------------ val/unit

def test_val_and_unit_18():
    v, u = val_and_unit(PAdicObject.of(18, 3, 3))
    assert v == 2 and u.residue(1) == 2


def test_val_and_unit_50():
    v, u = val_and_unit(PAdicObject.of(50, 5, 3))
    assert v == 2 and u.residue(1) == 2


def test_val_and_unit_zero_marker():
    v, u = val_and_unit(PAdicObject.of(27, 3, 3))
    assert v == AtLeast(3) and u is None


# ------------------------------------------------------------------ omega

def test_teichmueller_one():
    assert teichmueller(PAdicNumber.of(1, 5, 3)).residue(3) == 1


def test_teichmueller_2_mod_125():
    assert teichmueller(PAdicNumber.of(2, 5, 3)).residue(3) == 57


def test_teichmueller_2_mod_27():
    assert teichmueller(PAdicNumber.of(2, 3, 3)).residue(3) == 26


def test_teichmueller_nonunit_rejected():
    with pytest.raises(ValueError):
        teichmueller(PAdicNumber.of(6, 3, 3))


def test_teichmueller_that_never_settles_raises(monkeypatch):
    """With the step t -> t^p replaced by t -> t + 1, which has no fixed
    point, the cap of digits + 1 steps raises instead of returning a
    number that is no root of unity."""
    x = PAdicNumber.of(2, 5, 3)
    monkeypatch.setattr(padic, "pow", lambda t, p, mod: (t + 1) % mod,
                        raising=False)
    with pytest.raises(InternalCheckError, match="did not converge"):
        teichmueller(x)


# ------------------------------------------------------------------ angle

def test_angle_2_at_3():
    a = angle(PAdicObject.of(2, 3, 3))
    assert a.residue(3) == 25
    assert valuation(a - PAdicObject.one(3, 3)) == 1


def test_angle_fixed_on_one_units():
    x = PAdicObject.of(1 + 3, 3, 4)
    assert angle(x).residue(4) == 4


def test_angle_7_at_3():
    assert angle(PAdicObject.of(7, 3, 3)).residue(3) == 7


# ------------------------------------------------------------------ plog

def test_plog_one():
    assert plog(PAdicObject.of(1, 3, 3)).is_marker


def test_plog_4_mod_27():
    assert plog(PAdicObject.of(4, 3, 3)).residue(3) == 21


def test_plog_16_mod_27():
    assert plog(PAdicObject.of(16, 3, 3)).residue(3) == 15


def test_plog_rejects_non_one_unit():
    with pytest.raises(ValueError):
        plog(PAdicObject.of(2, 3, 3))


def test_plog_valuation_equals_input():
    rng = random.Random(2)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        c = rng.randrange(1, 3)
        u = 1 + p**c * rng.randrange(1, p**3)
        if vp(u - 1, p) != c:
            continue
        lg = plog(PAdicObject.of(u, p, 8))
        assert valuation(lg) == c


# ------------------------------------------------------------------ log_ratio

def test_log_ratio_self():
    u = PAdicObject.of(4, 3, 6)
    assert log_ratio(u, u).residue(4) == 1


def test_log_ratio_cube():
    u = PAdicObject.of(4, 3, 6)
    w = PAdicObject.of(4**3, 3, 6)
    assert log_ratio(u, w).residue(4) == 3


def test_log_ratio_angles_2_5():
    u = angle(PAdicObject.of(2, 3, 3))
    w = angle(PAdicObject.of(5, 3, 3))
    r = log_ratio(u, w)
    assert r.abs_prec >= 2
    assert r.residue(2) == 5  # -4 mod 9


def test_log_ratio_rejects_log_zero():
    one = PAdicObject.of(1, 3, 4)
    with pytest.raises(ValueError):
        log_ratio(one, PAdicObject.of(4, 3, 4))


# ------------------------------------------------------------------ identities

@settings(max_examples=120, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(min_value=1, max_value=10**9),
       st.integers(min_value=4, max_value=12))
def test_omega_angle_reconstruction(p, n, N):
    if n % p == 0:
        n += 1
    x = PAdicNumber.of(n, p, N)
    y = as_object(teichmueller(x)) * angle(x)
    assert y.residue(N) == x.residue(N)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(min_value=0, max_value=10**8),
       st.integers(min_value=0, max_value=10**8))
def test_log_homomorphism(p, a, b):
    N = 8
    x = PAdicObject.of(1 + p * (a % p**(N - 1)), p, N)
    y = PAdicObject.of(1 + p * (b % p**(N - 1)), p, N)
    lhs = plog(x * y)
    rhs = plog(x) + plog(y)
    assert (lhs - rhs).is_marker


def test_exp_log_roundtrip_on_deep_units():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        N = rng.randrange(4, 9)
        u = 1 + p**2 * rng.randrange(0, p**(N - 2))
        x = PAdicObject.of(u, p, N)
        back = pexp_oracle(plog(x))
        assert back.residue(N) == u % p**N


def test_precision_monotonicity():
    rng = random.Random(4)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        N = rng.randrange(3, 9)
        n = rng.randrange(1, p**N)
        if n % p == 0:
            n += 1
        lo = angle(PAdicObject.of(n, p, N))
        hi = angle(PAdicObject.of(n, p, N + 2))
        assert hi.residue(lo.abs_prec) == lo.residue(lo.abs_prec)
        llo, lhi = plog(lo), plog(hi)
        if not llo.is_marker:
            assert lhi.residue(llo.abs_prec) == llo.residue(llo.abs_prec)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(0, 7**9),
       st.integers(1, 9), st.integers(0, 9), st.integers(-3, 3))
def test_truncate_is_from_residue_of_the_residue(p, n, A, drop, shift):
    """truncate_row(row, p, drop) reads a row known mod p^(A + drop)
    modulo p^A: for v >= 0 the residue_row of its residue, markers
    included; for any v the shift of the truncated unshifted row."""
    row = residue_row(n, p, A + drop)
    got = truncate_row(row, p, drop)
    assert got == residue_row(PAdicNumber(p, *row).residue(A), p, A)
    v, m, digits = row
    assert truncate_row((v + shift, m, digits), p, drop) == \
        (got[0] + shift,) + got[1:]


# ------------------------------------------------------------------ quad ext

def quad(a, b, p=5, N=6, r=None):
    if r is None:
        r = {3: 2, 5: 2, 7: 3}[p]
    return UnramifiedQuadElem.from_residues(a, b, r, p, N)


def test_quad_norm_trace():
    x = quad(3, 1)
    assert x.norm().residue(6) == (9 - 2) % 5**6
    assert x.trace().residue(6) == 6


def test_quad_mul_commutative_associative():
    rng = random.Random(5)
    for _ in range(40):
        xs = [quad(rng.randrange(0, 5**4), rng.randrange(0, 5**4), N=4)
              for _ in range(3)]
        x, y, z = xs
        l = (x * y) * z
        r = x * (y * z)
        assert (l - r).a.is_marker and (l - r).b.is_marker
        c = x * y
        d = y * x
        assert (c - d).a.is_marker and (c - d).b.is_marker


def test_quad_inv():
    x = quad(3, 1)
    y = x * x.inv()
    assert y.is_one_within_precision()


def test_quad_valuation():
    assert quad(5, 10, N=4).valuation() == 1
    assert quad(0, 5, N=4).valuation() == 1
    assert quad(3, 5, N=4).valuation() == 0


def test_quad_log_homomorphism():
    rng = random.Random(6)
    p, N = 5, 6
    for _ in range(20):
        x = quad(1 + 5 * rng.randrange(0, 5**4), 5 * rng.randrange(0, 5**4), N=N)
        y = quad(1 + 5 * rng.randrange(0, 5**4), 5 * rng.randrange(0, 5**4), N=N)
        l = (x * y).log_one_unit()
        r = x.log_one_unit() + y.log_one_unit()
        assert (l - r).a.is_marker and (l - r).b.is_marker


def test_quad_angle_log_of_torsion_is_zero():
    # -1 has trivial 1-unit part
    x = quad(5**6 - 1, 0)
    lg = x.angle_log()
    assert lg.a.is_marker and lg.b.is_marker


def test_angle_log_scalar_matches_composition():
    for n in (2, 7, 11):
        x = PAdicObject.of(n, 3, 6)
        direct = angle_log(x)
        composed = plog(angle(x))
        assert (direct - composed).is_marker


def test_log_ratio_exponentiates_back():
    rng = random.Random(9)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        N = rng.randrange(5, 9)
        u = PAdicObject.of(1 + p * rng.randrange(1, p**(N - 1)), p, N)
        k = rng.randrange(1, 40)
        a = log_ratio(u, u ** k)
        A = a.abs_prec
        assert A >= 1 and a.residue(A) == k % p**A
