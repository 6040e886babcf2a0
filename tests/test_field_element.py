"""`quadfield.FieldElement` on integers (a, b, den) against the Fraction
reference `oracles.FractionElement`, over Q and Q(sqrt d) for d in
{2, 3, 5, 13, 79, 48799}: every operation, the coordinates x and y, the
rendering, and equality with the hash.

The elements are drawn from a fixed seed up front, none filtered out: most
are not integral, and each is built once from Fraction coordinates and once
as a triple (a, b, den) whose entries share a factor, so that the
constructor must normalise it.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import FractionElement, compare_real, real_sign, sqrt_pair
from iwasawalab.abgroup import GroupElement
from iwasawalab.quadfield import (FieldElement, RealQuadraticField,
                                  factor_rational_prime, unit_entries)

FIELDS = (None, 2, 3, 5, 13, 79, 48799)
PAIRS_PER_FIELD = 40


def _rational(rng):
    den = rng.choice((1, 2, 3, 4, 6, 9, 12, 30, 360, rng.randint(1, 10**6)))
    num = rng.choice((0, 1, -1, rng.randint(-10**6, 10**6),
                      den * rng.randint(-50, 50)))
    return Fraction(num, den)


def _draw(rng, K):
    """(FieldElement, FractionElement, the same value as a raw triple with
    a common factor and a sign to take out)."""
    x = _rational(rng)
    y = Fraction(0) if K.is_rational else _rational(rng)
    den = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    g = rng.choice((1, -1)) * rng.randint(1, 10**4)
    raw = (g * int(x * den), g * int(y * den), g * den)
    return FieldElement(K, x, y), FractionElement(K, x, y), raw


def _same(e, ref):
    assert isinstance(e, FieldElement)
    assert e.den > 0 and gcd(e.a, e.b, e.den) == 1
    assert (e.x, e.y) == (ref.x, ref.y)
    assert str(e) == str(ref)


def _elements(d):
    K = RealQuadraticField.rationals() if d is None else RealQuadraticField(d)
    rng = random.Random(1500 + (d or 1))
    return K, rng, [_draw(rng, K) for _ in range(PAIRS_PER_FIELD)]


@pytest.mark.parametrize("d", FIELDS)
def test_constructor_against_fractions(d):
    K, _, elems = _elements(d)
    for e, ref, raw in elems:
        _same(e, ref)
        f = FieldElement(K, *raw)
        _same(f, ref)
        assert f == e and hash(f) == hash(e)
        assert (f.a, f.b, f.den) == (e.a, e.b, e.den)
        assert e.is_integral() == ref.is_integral()
        assert e.is_zero() == ref.is_zero()
        assert e.sqrt_coords() == ref.sqrt_coords()


@pytest.mark.parametrize("d", FIELDS)
def test_operations_against_fractions(d):
    K, rng, elems = _elements(d)
    for (e, ref, _), (f, fref, _) in zip(elems, elems[1:] + elems[:1]):
        _same(e + f, ref + fref)
        _same(e - f, ref - fref)
        _same(-e, -ref)
        _same(e * f, ref * fref)
        _same(e.conj(), ref.conj())
        assert e.norm() == ref.norm()
        assert e + e.conj() == K.element(ref.trace())
        assert e.numerator_norm() == ref.norm() * e.den**2
        assert real_sign(e) == ref.real_sign()
        assert compare_real(e, f) == ref.compare_real(fref)
        n = rng.choice((1, -1)) * rng.randint(1, 10**3)
        r = Fraction(n, rng.randint(1, 10**3))
        for c in (n, r):
            _same(e * c, ref * c)
            _same(c * e, c * ref)
            _same(e / c, ref / c)
            assert compare_real(e, c) == ref.compare_real(c)
        for k in range(4):
            _same(e ** k, ref ** k)
        if f.is_zero():
            with pytest.raises(ZeroDivisionError):
                e / f
        else:
            _same(e / f, ref / fref)
        if e.is_zero():
            with pytest.raises(ZeroDivisionError):
                e.inv()
            continue
        _same(e.inv(), ref.inv())
        for k in range(-3, 0):
            _same(e ** k, ref ** k)


@pytest.mark.parametrize("d", FIELDS)
def test_equality_and_hash_follow_the_value(d):
    K, rng, elems = _elements(d)
    values = {}
    for e, ref, raw in elems:
        values.setdefault((ref.x, ref.y), set()).add(e)
        values[(ref.x, ref.y)].add(FieldElement(K, *raw))
    # one element per value, however it was built
    assert all(len(s) == 1 for s in values.values())
    for e, ref, _ in elems:
        for f, fref, _ in elems:
            assert (e == f) == (ref == fref)
    other = RealQuadraticField(7)
    e = elems[0][0]
    assert FieldElement(other, e.x, e.y) != e


def test_constructor_normalises_sign_and_gcd():
    K = RealQuadraticField(13)
    e = FieldElement(K, 6, -4, -10)
    assert (e.a, e.b, e.den) == (-3, 2, 5)
    assert (e.x, e.y) == (Fraction(-3, 5), Fraction(2, 5))
    zero = FieldElement(K, 0, 0, -7)
    assert zero == FieldElement(K, 0) and zero.den == 1
    f = FieldElement(K, Fraction(4, 6), Fraction(-3, 9), 2)
    assert (f.a, f.b, f.den) == (2, -1, 6)      # (2/3 - w/3)/2
    g = FieldElement(K, 9, 12, 3)
    assert (g.a, g.b, g.den) == (3, 4, 1)


def test_float_coordinates_are_refused():
    """A float is not a rational: RealQuadraticField(2).element(0.1) once
    held 3602879701896397/36028797018963968 with no error."""
    for K in (RealQuadraticField.rationals(), RealQuadraticField(2)):
        for build in (lambda: K.element(0.1), lambda: K.element(1, 0.5),
                      lambda: sqrt_pair(K, 0.5, 0),
                      lambda: FieldElement(K, Fraction(1, 2), 0.25),
                      lambda: K.one() * 0.5):
            with pytest.raises(TypeError):
                build()
    assert RealQuadraticField(2).element(Fraction(1, 10)).x == Fraction(1, 10)


def test_zero_denominator_is_refused():
    K = RealQuadraticField(5)
    with pytest.raises(ZeroDivisionError):
        FieldElement(K, 1, 2, 0)
    with pytest.raises(ZeroDivisionError):
        FieldElement(K, 0, 0, 0)
    with pytest.raises(ZeroDivisionError):
        FieldElement(K, 3) / 0


def test_elements_are_immutable_and_of_one_field():
    """Assigning or deleting a field of an element, a field, an ideal, a
    group element, a splitting report or an S-unit basis entry raises
    AttributeError, as does adding an attribute, and leaves every field as
    it was."""
    K, L = RealQuadraticField(2), RealQuadraticField(3)
    e = K.element(1, 1)
    split = factor_rational_prime(K, 7)
    values = [
        (e, ("field", "a", "b", "den")),
        (K, ("d", "D", "sqrtD_floor", "w_trace", "w_norm")),
        (split.ideals[0], ("field", "a", "b", "c")),
        (GroupElement((1, 2)), ("coords",)),
        (split, ("kind", "ideals", "residue_degree", "ramification")),
        (unit_entries(K)[1], ("element", "valuations", "label", "kind")),
    ]
    for value, fields in values:
        before = [getattr(value, f) for f in fields]
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(value, f, 2)
            with pytest.raises(AttributeError):
                delattr(value, f)
        with pytest.raises(AttributeError):
            value.extra = 2
        assert all(getattr(value, f) is x for f, x in zip(fields, before))
        assert not hasattr(value, "extra")
    assert (e.a, e.b, e.den) == (1, 1, 1)
    with pytest.raises(ValueError):
        e + L.element(1, 1)
