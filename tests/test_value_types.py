"""Equality and hash of the engine's value types against their former
dataclass definitions (`oracles.dataclass_twin`).

On seeded samples of fields, field elements, the prime ideals above small
primes with their splitting reports, group elements and S-unit basis
entries, each value built twice, x == y, x != y and hash(x) agree with the
twins' value for value, and so do == and != against objects of other
types.
"""

import copy
import itertools
import pickle
import random
from types import MappingProxyType

import pytest

from oracles import dataclass_twin
from iwasawalab import construct_alpha
from iwasawalab.abgroup import GroupElement
from iwasawalab.ntheory import is_squarefree, isprime
from iwasawalab.quadfield import (FieldElement, RealQuadraticField,
                                  factor_rational_prime, prime_ideals_above,
                                  s_unit_entry, unit_entries)

QQ = RealQuadraticField.rationals()
# the groups of test_abgroup.test_brute_force_equivalence_small_groups
GROUP_GRIDS = [(2,), (8,), (2, 4), (3, 9), (2, 2, 4), (5, 25), (6, 12),
               (10, 1000)]
FOREIGN = [None, 0, 1, -1, 0.5, "Q", (), (1,), (1, 0, 0), object()]


def _check_against_twins(values, foreign, hashable=True):
    """Every pair of `values`, and each value against each of `foreign`,
    compares as the twins do, and each value hashes as its twin (or, with
    hashable False, neither hashes).  Returns the number of pairs of
    distinct objects that are equal."""
    twins = [dataclass_twin(x) for x in values]
    equal = 0
    for x, tx in zip(values, twins):
        if hashable:
            assert hash(x) == hash(tx)
        else:
            for z in (x, tx):
                with pytest.raises(TypeError):
                    hash(z)
        for y, ty in zip(values, twins):
            assert (x == y) is (tx == ty)
            assert (x != y) is (tx != ty)
            equal += x == y and x is not y
        for z in foreign:
            assert (x == z) is (tx == z) is False
            assert (x != z) is (tx != z) is True
    return equal


def _fields(rng, count):
    ds = sorted(rng.sample([d for d in range(2, 10**4) if is_squarefree(d)],
                           count))
    return [RealQuadraticField(None)] + [RealQuadraticField(d) for d in ds]


def test_fields_compare_and_hash_as_their_dataclass():
    rng = random.Random(11)
    once, again = _fields(rng, 120), _fields(random.Random(11), 120)
    values = once + again
    assert _check_against_twins(values, FOREIGN + [QQ.one()]) \
        == 2 * len(once)


def test_elements_compare_and_hash_as_their_dataclass():
    """Coordinates from a small range, so that many elements coincide once
    normalised, and from a large one; each element is built once by
    division and once from a triple with a common factor g."""
    rng = random.Random(12)
    values = []
    for K in _fields(rng, 3):
        for _ in range(40):
            big = rng.random() < 0.25
            top = 10**30 if big else 4
            a = rng.randint(-top, top)
            b = 0 if K.is_rational else rng.randint(-top, top)
            den = rng.randint(1, 10**20 if big else 6)
            g = rng.choice((-1, 1)) * rng.randint(1, 50)
            values += [K.element(a, b) / den,
                       FieldElement(K, g * a, g * b, g * den)]
    foreign = FOREIGN + [QQ, prime_ideals_above(QQ, 2)[0]]
    assert _check_against_twins(values, foreign) >= len(values)


def test_ideals_and_splittings_compare_and_hash_as_their_dataclass():
    """The ideals of factor_rational_prime for every ell < 200, and its
    reports, each factored twice."""
    reports = [factor_rational_prime(K, ell)
               for K in (QQ, RealQuadraticField(2), RealQuadraticField(79))
               for ell in range(2, 200) if isprime(ell) for _ in range(2)]
    ideals = [q for rep in reports for q in rep.ideals]
    foreign = FOREIGN + [QQ, QQ.one(), GroupElement((2,))]
    assert _check_against_twins(ideals, foreign) >= len(ideals)
    assert _check_against_twins(reports, foreign) == len(reports)


def test_group_elements_compare_and_hash_as_their_dataclass():
    """Up to 30 elements of each grid group, each built twice; across
    grids, coordinate tuples of other lengths."""
    rng = random.Random(13)
    values = []
    for factors in GROUP_GRIDS:
        coords = list(itertools.product(*[range(d) for d in factors]))
        for c in rng.sample(coords, min(30, len(coords))):
            values += [GroupElement(c), GroupElement(tuple(list(c)))]
    foreign = FOREIGN + [QQ, QQ.one(), (0, 0)]
    assert _check_against_twins(values, foreign) >= len(values)


def test_s_unit_entries_compare_as_their_dataclass_and_do_not_hash():
    K = RealQuadraticField(79)
    primes = prime_ideals_above(K, 2) + prime_ideals_above(K, 5)
    values = []
    for _ in range(2):
        values += list(unit_entries(K)) + list(unit_entries(QQ))
        values += [s_unit_entry(K.element(a, b), primes, "x", "lattice")
                   for a, b in ((2, 0), (5, 0), (10, 1), (3, 1))]
    foreign = FOREIGN + [K, K.one()]
    assert _check_against_twins(values, foreign, hashable=False) \
        == len(values)


def test_values_copy_and_pickle_to_equal_values():
    """copy, deepcopy and a pickle round trip give an equal value with the
    same hash, as the dataclasses did."""
    K = RealQuadraticField(79)
    rep = factor_rational_prime(K, 3)
    values = [QQ, K, K.element(3, -2) / 7, QQ.element(5), rep.ideals[0],
              prime_ideals_above(QQ, 2)[0], rep, GroupElement((1, 4))]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)


def test_s_unit_entries_and_certificates_pickle_to_equal_values():
    """An S-unit basis entry pickles and deep-copies through its
    constructor, which rebuilds the read-only map of valuations; the copy
    is an equal entry that still refuses a hash and an assignment.  So a
    Kummer certificate, which holds entries through alpha, pickles to one
    with the same to_json()."""
    K = RealQuadraticField(79)
    q1 = factor_rational_prime(K, 2).ideals[0]
    q2 = factor_rational_prime(K, 5).ideals[0]
    entries = list(unit_entries(K)) + list(unit_entries(QQ))
    entries += [s_unit_entry(K.element(a, b), [q1, q2], "x", "lattice")
                for a, b in ((2, 0), (10, 1), (3, 1))]
    assert any(x.valuations for x in entries)
    for x in entries:
        for y in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x
            assert type(y.valuations) is MappingProxyType
            with pytest.raises(TypeError):
                hash(y)
            with pytest.raises(AttributeError):
                y.label = "y"
    assert pickle.loads(pickle.dumps(tuple(entries))) == tuple(entries)
    cert = construct_alpha(K, 3, (q1, q2), 2)
    assert cert.status == "accepted" and cert.alpha.entries
    back = pickle.loads(pickle.dumps(cert))
    assert back is not cert and back.to_json() == cert.to_json()
    assert list(back.alpha.entries) == list(cert.alpha.entries)
