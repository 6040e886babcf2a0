"""The residue-ring groups (O/q^e)*: generators against brute force, and
discrete logs that rebuild the unit, match a table of all powers and match
the per-call Pohlig-Hellman reference `oracles.ph_dlog`.

Every case is fixed up front.  The oracles multiply residues with their own
arithmetic, from w^2 = D*w - (D^2 - D)/4, and find orders by walking powers.
The generators, orders and dlogs of every component that the big-conductor
batches of seeds 1-3 and the kummer-alpha batch of seed 1 build were
recorded in `data/residue_components.json` before the dlogs moved to
per-component plans; re-record that file with

    PYTHONPATH=src python tests/test_residues.py

only when a generator or a dlog is meant to change.
"""

import json
import random
import sys
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iwasawalab.cli import main
from iwasawalab.ntheory import factorint, isprime
from iwasawalab.quadfield import (IntegralIdeal, RealQuadraticField,
                                  _min_poly_roots_mod, factor_rational_prime,
                                  prime_ideals_above, rational_ideal)
from iwasawalab.residues import (InertComponent, RationalComponent,
                                 _QuadFieldUnits, make_component)

from oracles import ph_dlog, squarefree

QQ = RealQuadraticField.rationals()
INERT_FIELDS = (2, 5, 7, 13, 79)
SMALL_ELLS = (3, 5, 7)
UNITS_PER_COMPONENT = 20
# brute-force tables for every group up to this size, and for every inert
# group at ell in SMALL_ELLS, e <= 3 (at most 48 * 7^4 = 115,248 elements)
TABLE_SIZE_MAX = 16_000
# the fields and primes of the Pohlig-Hellman plan cases
PLAN_FIELDS = [d for d in range(2, 60) if squarefree(d)]
PLAN_ELL_MAX = 100
RECORDED = Path(__file__).parent / "data" / "residue_components.json"
RECORDED_BATCHES = (("big-conductor", 1), ("big-conductor", 2),
                    ("big-conductor", 3), ("kummer-alpha", 1))
RECORDED_UNITS = 4


def _w_data(d):
    D = d if d % 4 == 1 else 4 * d
    return D, (D * D - D) // 4


def _pair_mul(d, mod):
    trace, norm = _w_data(d)

    def mul(u, v):
        return ((u[0] * v[0] - u[1] * v[1] * norm) % mod,
                (u[0] * v[1] + u[1] * v[0] + u[1] * v[1] * trace) % mod)
    return mul


def _int_mul(mod):
    return lambda a, b: a * b % mod


def _power(mul, one, g, k):
    r = one
    while k:
        if k & 1:
            r = mul(r, g)
        g = mul(g, g)
        k >>= 1
    return r


def _order(mul, one, g):
    x, k = g, 1
    while x != one:
        x = mul(x, g)
        k += 1
    return k


def _inert_ells(d, bound):
    K = RealQuadraticField(d)
    return [ell for ell in range(2, bound) if isprime(ell)
            and factor_rational_prime(K, ell).kind == "inert"]


def _inert_cases():
    cases = []
    for d in INERT_FIELDS:
        for ell in _inert_ells(d, 200):
            for e in ((1, 2, 3) if ell in SMALL_ELLS else (1,)):
                cases.append((d, ell, e))
    return cases


INERT_CASES = _inert_cases()


def _inert_component(d, ell, e):
    K = RealQuadraticField(d)
    return make_component(K, rational_ideal(K, ell), e)


def _first_inert_generator(d, ell):
    """The first unit pair mod ell in lexicographic order of order ell^2-1.

    A generator G is found by walking powers; the generators are then the
    powers G^k with gcd(k, ell^2 - 1) = 1, read off one walk of G."""
    mul, one, n = _pair_mul(d, ell), (1, 0), ell * ell - 1
    trace, norm = _w_data(d)
    units = [(x, y) for x, y in product(range(ell), repeat=2)
             if (x * x + trace * x * y + norm * y * y) % ell]
    # off the row x = 0, which fails as a whole when w is a q-th power
    G = next(u for u in units if u[0] and _order(mul, one, u) == n)
    gens, x = set(), one
    for k in range(n):
        if gcd(k, n) == 1:
            gens.add(x)
        x = mul(x, G)
    return next(u for u in units if u in gens)


@pytest.mark.parametrize("d", INERT_FIELDS)
def test_inert_generator_is_first_lexicographic_generator(d):
    for (dd, ell, e) in INERT_CASES:
        if dd != d:
            continue
        comp = _inert_component(d, ell, e)
        assert isinstance(comp, InertComponent)
        g = comp.gens[0]
        assert (g[0] % ell, g[1] % ell) == _first_inert_generator(d, ell), \
            (d, ell, e)
        assert comp.orders[0] == ell * ell - 1
        if e > 1:
            # the Teichmueller lift keeps the order
            assert _order(_pair_mul(d, ell**e), (1, 0), g) == ell * ell - 1


def _first_primitive_root(ell):
    mul = _int_mul(ell)
    return next(g for g in range(1, ell) if _order(mul, 1, g) == ell - 1)


def _integer_components(ell):
    """Every kind of integer-residue component at the odd prime ell, e = 1:
    over Q, split in one of the fields, and ramified in Q(sqrt ell)."""
    comps = [make_component(QQ, rational_ideal(QQ, ell), 1)]
    for d in INERT_FIELDS:
        K = RealQuadraticField(d)
        if factor_rational_prime(K, ell).kind == "split":
            comps.extend(make_component(K, q, 1)
                         for q in prime_ideals_above(K, ell))
            break
    K = RealQuadraticField(ell)
    comps.extend(make_component(K, q, 1) for q in prime_ideals_above(K, ell))
    return comps


ODD_PRIMES_500 = [ell for ell in range(3, 500) if isprime(ell)]


def test_integer_generators_are_first_primitive_roots():
    kinds = set()
    for ell in ODD_PRIMES_500:
        want = _first_primitive_root(ell)
        for comp in _integer_components(ell):
            kinds.add(type(comp))
            assert comp.gens == [want], (ell, comp)
            assert comp.orders == [ell - 1]
    assert kinds == {RationalComponent}


def test_prime_power_generator_lifts_first_primitive_root():
    for ell in SMALL_ELLS:
        g = _first_primitive_root(ell)
        for e in (2, 3):
            comp = make_component(QQ, rational_ideal(QQ, ell), e)
            mod = ell**e
            assert comp.gens[0] % ell == g
            assert _order(_int_mul(mod), 1, comp.gens[0]) \
                == (ell - 1) * ell**(e - 1)


# ---------------------------------------------------------------- dlogs

def _seeded_units(comp, rng, n=UNITS_PER_COMPONENT):
    ell, mod = comp.ell, comp.mod
    out = []
    while len(out) < n:
        if isinstance(comp, InertComponent):
            u = (rng.randrange(mod), rng.randrange(mod))
            if comp.norm_int(u) % ell:
                out.append(u)
        else:
            a = rng.randrange(1, mod)
            if a % ell:
                out.append(a)
    return out


def _rebuild(comp, ks):
    x = comp.one
    for g, k in zip(comp.gens, ks):
        x = comp.mul(x, _power(comp.mul, comp.one, g, k))
    return x


def _power_table(comp):
    """Every product of powers of the generators, walked one at a time."""
    table = {comp.one: []}
    for g, o in zip(comp.gens, comp.orders):
        grown = {}
        for x, ks in table.items():
            for k in range(o):
                grown[x] = ks + [k]
                x = comp.mul(x, g)
        table = grown
    assert len(table) == prod(comp.orders)
    return table


def _plan_components():
    """Every inert ell < PLAN_ELL_MAX of the PLAN_FIELDS at e = 1, and at
    e in {2, 3} for ell in SMALL_ELLS; at every ell < PLAN_ELL_MAX,
    ell = 2 included, the rational component and the split ones of the
    first PLAN_FIELDS field where ell splits, for e <= 4."""
    comps = []
    for d in PLAN_FIELDS:
        K = RealQuadraticField(d)
        for ell in _inert_ells(d, PLAN_ELL_MAX):
            for e in ((1, 2, 3) if ell in SMALL_ELLS else (1,)):
                comps.append(make_component(K, rational_ideal(K, ell), e))
    for ell in range(2, PLAN_ELL_MAX):
        if not isprime(ell):
            continue
        split = next(K for K in map(RealQuadraticField, PLAN_FIELDS)
                     if factor_rational_prime(K, ell).kind == "split")
        for e in (1, 2, 3, 4):
            comps.append(make_component(QQ, rational_ideal(QQ, ell), e))
            comps.extend(make_component(split, q, e)
                         for q in prime_ideals_above(split, ell))
    return comps


def _dlog_components():
    comps = [_inert_component(d, ell, e) for (d, ell, e) in INERT_CASES]
    for ell in ODD_PRIMES_500:
        comps.extend(_integer_components(ell))
    for ell, es in ((2, (2, 3, 4)), (3, (2, 3)), (5, (2, 3)), (7, (2,))):
        comps.extend(make_component(QQ, rational_ideal(QQ, ell), e)
                     for e in es)
    return comps + _plan_components()


def _reference_torsion_dlog(comp, u):
    """The torsion coordinate by the per-call Pohlig-Hellman reference, on
    the route that raises u and g to the order of the 1-units, so that only
    their torsion parts are left, and then divides that exponent out."""
    ell, e = comp.ell, comp.e
    inert = isinstance(comp, InertComponent)
    n = ell * ell - 1 if inert else ell - 1
    unit_sz = ell**((2 if inert else 1) * (e - 1))
    mul, one = comp.mul, comp.one
    k = ph_dlog(mul, one, _power(mul, one, comp.gens[0], unit_sz),
                _power(mul, one, u, unit_sz), n, factorint(n))
    return k * pow(unit_sz % n, -1, n) % n


def test_dlog_rebuilds_seeded_units_and_matches_power_table():
    rng = random.Random(20260)
    n_table = 0
    for comp in _dlog_components():
        small_inert = isinstance(comp, InertComponent) \
            and comp.ell in SMALL_ELLS
        table = _power_table(comp) \
            if small_inert or prod(comp.orders) <= TABLE_SIZE_MAX else None
        n = comp.ell * comp.ell - 1 if isinstance(comp, InertComponent) \
            else comp.ell - 1
        for u in _seeded_units(comp, rng):
            ks = comp.dlog(u)
            where = (comp.field.d, comp.ell, comp.e, u)
            assert len(ks) == len(comp.orders)
            assert all(0 <= k < o for k, o in zip(ks, comp.orders))
            assert _rebuild(comp, ks) == u, where
            if table is not None:
                assert ks == table[u], where
                n_table += 1
            if comp.ell != 2:
                assert ks[0] % n == _reference_torsion_dlog(comp, u), where
    assert n_table > 0


# ------------------------------------------------ the residue field F_ell^2

PLAN_INERT_CASES = [(d, ell) for d in PLAN_FIELDS
                    for ell in _inert_ells(d, PLAN_ELL_MAX)]


def _residue_field(d, ell):
    """(mul, N, conj) of F_ell^2 = F_ell[w], by the oracle arithmetic."""
    trace, norm = _w_data(d)
    return (_pair_mul(d, ell),
            lambda u: (u[0] * u[0] + trace * u[0] * u[1]
                       + norm * u[1] * u[1]) % ell,
            lambda u: ((u[0] + trace * u[1]) % ell, -u[1] % ell))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(PLAN_INERT_CASES), st.integers(1, 10**6),
       st.integers(0, 10**6), st.integers(0, 10**5))
def test_frobenius_is_conjugation(case, x, y, k):
    """u^ell = conj(u) and u^(ell - 1) N(u) = conj(u)^2 in F_ell^2, and the
    residue-field kernels of the plans against square-and-multiply."""
    d, ell = case
    mul, norm, conj = _residue_field(d, ell)
    one, u = (1, 0), (x % ell, y % ell)
    if u == (0, 0):
        return
    assert _power(mul, one, u, ell) == conj(u)
    z = _power(mul, one, u, ell - 1)
    assert mul(z, (norm(u), 0)) == mul(conj(u), conj(u))
    K = RealQuadraticField(d)
    F = _QuadFieldUnits(K.w_trace, K.w_norm, ell)
    assert F.norm(u) == norm(u) and F.frobenius_quotient(u) == z
    assert F.mul(u, conj(u)) == mul(u, conj(u))
    assert F.exp(u, k % (ell * ell)) == _power(mul, one, u, k % (ell * ell))
    assert mul(F.inv(u), u) == one
    j = k % (ell + 1)
    assert F.is_torus_root_of_unity(z, j) == (_power(mul, one, z, j) == one)
    assert F.is_torus_root_of_unity(z, ell + 1)


# ------------------------------------------ components of recorded batches

def _json(x):
    return list(x) if isinstance(x, tuple) else x


def test_components_of_recorded_batches_unchanged():
    docs = json.loads(RECORDED.read_text())["components"]
    assert len(docs) > 600
    for doc in docs:
        K = QQ if doc["d"] == 1 else RealQuadraticField(doc["d"])
        comp = make_component(K, IntegralIdeal(K, *doc["ideal"]), doc["e"])
        assert [_json(g) for g in comp.gens] == doc["gens"], doc
        assert comp.orders == doc["orders"], doc
        units = [tuple(u) if isinstance(u, list) else u
                 for u in doc["units"]]
        assert [comp.dlog(u) for u in units] == doc["dlogs"], doc


def _record():
    """Answer the recorded batches, collect every component they build and
    write its generators, orders and the dlogs of seeded units."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "bench"))
    import iwasawalab as lib
    import iwasawalab.residues as residues
    import workloads

    built = {}
    make = residues.make_component

    def recording(K, q, e):
        comp = make(K, q, e)
        built.setdefault((K.d or 1, q.a, q.b, q.c, e), comp)
        return comp
    residues.make_component = recording
    for workload, seed in RECORDED_BATCHES:
        for query in workloads.batch(workload, seed):
            workloads.answer(lib, query)
    residues.make_component = make
    lines = []
    for key in sorted(built):
        comp = built[key]
        units = _seeded_units(comp, random.Random(repr(key)), RECORDED_UNITS)
        lines.append(json.dumps(
            {"d": key[0], "ideal": list(key[1:4]), "e": key[4],
             "gens": [_json(g) for g in comp.gens], "orders": comp.orders,
             "units": [_json(u) for u in units],
             "dlogs": [comp.dlog(u) for u in units]},
            separators=(",", ":")))
    RECORDED.parent.mkdir(exist_ok=True)
    # one component a line, so that a change shows as a line of the diff
    RECORDED.write_text('{"batches": %s,\n "components": [\n%s\n]}\n'
                        % (json.dumps(RECORDED_BATCHES), ",\n".join(lines)))
    print("%d components -> %s" % (len(lines), RECORDED))


# ------------------------------------------------ unsupported inert 2-power

@pytest.mark.parametrize("d", (5, 13, 21))
@pytest.mark.parametrize("e", (2, 3))
def test_inert_two_power_refused(d, e):
    K = RealQuadraticField(d)
    assert factor_rational_prime(K, 2).kind == "inert"
    with pytest.raises(ValueError, match="inert 2-power"):
        make_component(K, rational_ideal(K, 2), e)


@pytest.mark.parametrize("modulus", ("4", "8"))
def test_inert_two_power_cli_exit_4(modulus, capsys):
    code = main(["rayclass", "--field", "Q(sqrt{5})", "--modulus", modulus,
                 "--p", "3"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("usage error:")
    assert "Traceback" not in err


def test_ramified_root_is_double_root_of_min_poly():
    # every ramified ell < 200 of every squarefree d < 500, ell = 2 included
    pairs = 0
    for d in range(2, 500):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        for ell in range(2, 200):
            if not isprime(ell) or K.D % ell:
                continue
            (q,) = factor_rational_prime(K, ell).ideals
            comp = make_component(K, q, 1)
            assert comp.root == _min_poly_roots_mod(K, ell)[0], (d, ell)
            pairs += 1
    assert pairs == 631


def test_ramified_norm_int_is_the_norm_mod_ell():
    # q = conj(q) at a ramified ell, so x and conj(x) have the same residue
    # r and N(x) = r^2 mod ell; seeded integral x prime to q
    rng = random.Random(31)
    for d in range(2, 500):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        for ell in range(3, 200):
            if not isprime(ell) or K.D % ell:
                continue
            (q,) = factor_rational_prime(K, ell).ideals
            comp = make_component(K, q, 1)
            for _ in range(3):
                x = K.element(rng.randrange(-999, 1000),
                              rng.randrange(-999, 1000))
                if (x.x + x.y * comp.root) % ell == 0:
                    continue
                assert comp.norm_int(comp.reduce(x)) == x.norm() % ell, \
                    (d, ell, x)


def test_primitive_root_lifted_when_it_fixes_the_one_units():
    """At ell = 40487 the least primitive root 5 has 5^(ell-1) = 1 mod
    ell^2, so it generates no 1-units and the component of (40487)^2 takes
    5 + ell instead: of order exactly (ell - 1)*ell, seen at each prime of
    the order, with dlogs that invert its powers."""
    ell = 40487
    mod = ell * ell
    assert factorint(ell - 1) == {2: 1, 31: 1, 653: 1}
    assert pow(5, ell - 1, mod) == 1
    comp = make_component(QQ, rational_ideal(QQ, ell), 2)
    (g,), (n,) = comp.gens, comp.orders
    assert (g, n) == (5 + ell, (ell - 1) * ell)
    assert pow(g, n, mod) == 1
    for q in (2, 31, 653, ell):
        assert pow(g, n // q, mod) != 1, q
    for k in (0, 1, 2, 653, ell, 123456789 % n, n - 1):
        assert comp.dlog(pow(g, k, mod)) == [k], k


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    _record()
