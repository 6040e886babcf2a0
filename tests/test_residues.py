"""The residue-ring groups (O/q^e)*: generators against brute force, and
discrete logs that rebuild the unit, match a table of all powers and match
the Pohlig-Hellman reference `oracles.ph_dlog`.

Every case is fixed up front.  The oracles multiply residues with their own
arithmetic, from w^2 = D*w - (D^2 - D)/4, and find orders by walking powers.
The generators, orders and dlogs of every component that the big-conductor
batches of seeds 1-3 and the kummer-alpha batch of seed 1 build were
recorded in `data/residue_components.json`, and have stayed the same
through per-component Pohlig-Hellman plans and back to per-call dlogs;
re-record that file with

    PYTHONPATH=src python tests/test_residues.py

only when a generator or a dlog is meant to change.
"""

import json
import os
import random
import subprocess
import sys
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iwasawalab import residues
from iwasawalab.cli import main
from iwasawalab.ntheory import InternalCheckError, factorint, isprime
from iwasawalab.quadfield import (IntegralIdeal, RealQuadraticField,
                                  _min_poly_roots_mod, factor_rational_prime,
                                  prime_ideals_above, prime_kind,
                                  rational_ideal)
from iwasawalab.rayclass import _factor_ideal
from iwasawalab.residues import (InertComponent, ModularUnits,
                                 RationalComponent, UnitGroupModM,
                                 _QuadFieldUnits, _inert_generator,
                                 _primitive_root, make_component,
                                 pohlig_hellman)

from oracles import load_bench, ph_dlog, squarefree

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


# ------------------------------ the torsion dlog from the norm and the torus

RAY_FIELDS = load_bench("workloads").RAY_FIELDS
ROUTE_PER_CLASS = 3   # inert ell drawn for each field and each ell mod 4


def _route_cases():
    """A seeded draw of inert ell < 2000 over the big-conductor fields,
    ROUTE_PER_CLASS of them = 1 and as many = 3 (mod 4) for each field,
    and ell = 2 and ell = 3 wherever they are inert."""
    rng = random.Random(40)
    cases = []
    for d in RAY_FIELDS:
        ells = _inert_ells(d, 2000)
        for r in (1, 3):
            pool = [ell for ell in ells if ell % 4 == r and ell > 3]
            cases += [(d, ell) for ell in rng.sample(pool, ROUTE_PER_CLASS)]
        cases += [(d, ell) for ell in (2, 3) if ell in ells]
    return cases


ROUTE_CASES = _route_cases()


def test_torsion_dlog_from_the_norm_and_the_torus():
    """On every route case, the dlog of g^k, of -g^k and of seeded units
    rebuilds the unit (g^k == u), equals the Pohlig-Hellman reference in
    the whole group, and, where the group has at most TABLE_SIZE_MAX
    elements, the power table."""
    assert {ell % 4 for _, ell in ROUTE_CASES} == {1, 2, 3}
    assert {2, 3} < {ell for _, ell in ROUTE_CASES}
    rng = random.Random(41)
    tables = 0
    for d, ell in ROUTE_CASES:
        comp = _inert_component(d, ell, 1)
        n, g, one = ell * ell - 1, comp.gens[0], comp.one
        table = _power_table(comp) if n <= TABLE_SIZE_MAX else None
        tables += table is not None
        ks = [0, 1, n // 2, n - 1] + [rng.randrange(n) for _ in range(4)]
        units = [_power(comp.mul, one, g, k) for k in ks]
        units += [comp.mul(u, (ell - 1, 0)) for u in units]
        for u in units + _seeded_units(comp, rng, 4):
            (k,) = comp.dlog(u)
            assert 0 <= k < n and _power(comp.mul, one, g, k) == u, \
                (d, ell, u)
            assert k == _reference_torsion_dlog(comp, u), (d, ell, u)
            if table is not None:
                assert [k] == table[u], (d, ell, u)
    assert tables >= 10


def _other_generator(comp):
    """A generator g^m of F_ell^2*, m > 1, that is neither g nor -g."""
    g, n = comp.gens[0], comp.ell * comp.ell - 1
    minus_g = comp.mul(g, (comp.ell - 1, 0))
    for m in range(2, n):
        if gcd(m, n) == 1:
            h = _power(comp.mul, comp.one, g, m)
            if h not in (g, minus_g):
                return h
    raise AssertionError("no other generator")


def test_a_wrong_residue_generator_fails_the_last_bit_check():
    """With _residue_gen replaced by another generator, N(u) and the torus
    still read k0 for the true g, so g'^k0 is neither u nor -u for u = g:
    an InternalCheckError on every route case."""
    for d, ell in ROUTE_CASES:
        comp = _inert_component(d, ell, 1)
        g = comp.gens[0]
        assert comp.dlog(g) == [1]
        comp._residue_gen = _other_generator(comp)
        with pytest.raises(InternalCheckError, match="g\\^k is not \\+-u"):
            comp.dlog(g)


def test_the_last_bit_check_raises_under_python_O():
    """The last-bit check is a raise, not an assert: a child under python -O
    meets the same InternalCheckError with a wrong _residue_gen."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = """
from iwasawalab.ntheory import InternalCheckError, power
from iwasawalab.quadfield import RealQuadraticField, rational_ideal
from iwasawalab.residues import make_component
assert False, "asserts are on"
K = RealQuadraticField(2)
comp = make_component(K, rational_ideal(K, 1013), 1)
g = comp.gens[0]
# 5 is prime to 1013^2 - 1 = 2^3 * 3 * 11 * 13^2 * 23
comp._residue_gen = power(comp.mul, comp.one, g, 5)
try:
    comp.dlog(g)
except InternalCheckError as err:
    print("raised:", err)
"""
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out == "raised: torsion dlog: g^k is not +-u\n"


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
    residue-field kernels against square-and-multiply: the power of any
    unit and the Lucas ladder in the norm-one torus."""
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
    assert F.exp(u, k) == _power(mul, one, u, k)
    # the torus, as pohlig_hellman reads it: z^-1 = conj(z), and the ladder
    T = residues._NormOneTorus(F)
    assert mul(T.inv(z), z) == one
    assert T.exp(z, k) == _power(mul, one, z, k) == F.torus_pow(z, k)
    assert T.exp(z, ell + 1) == one


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


# ------------------------------------------------------------ the -1 row

MINUS_ONE_FIELDS = (1, 2, 3, 5, 7, 10, 13, 79, 82)
MINUS_ONE_ELLS = (2, 3, 5, 7, 11, 13, 1009, 1999)


def test_minus_one_dlog_is_the_stated_row():
    """Each component states dlog(-1) from its generator orders, and so
    does (O/(ell^e))*; both equal the dlog of -1 taken, for every
    component q^e, q above ell, and every (O/(ell^e))* the package builds
    over the grid of fields, ell and e = 1, 2, 4: rational, split, inert
    and ramified components, (Z/2^e)* among them.  Inert 2-power and
    ramified prime-power components are refused, as everywhere."""
    kinds, groups = [], 0
    for d, ell, e in product(MINUS_ONE_FIELDS, MINUS_ONE_ELLS, (1, 2, 4)):
        K = QQ if d == 1 else RealQuadraticField(d)
        minus_one = K.element(-1)
        for q in prime_ideals_above(K, ell):
            try:
                comp = make_component(K, q, e)
            except ValueError as err:
                assert "unsupported" in str(err)
                continue
            assert comp.minus_one_dlog() == comp.dlog(comp.reduce(minus_one))
            kinds.append((prime_kind(q)[1], ell == 2, e))
        try:
            units = UnitGroupModM(K, _factor_ideal(rational_ideal(K, ell**e)))
        except ValueError as err:
            assert "unsupported" in str(err)
            continue
        assert units.minus_one_dlog() == units.dlog(minus_one)
        groups += 1
    assert (len(kinds), groups) == (271, 179)
    assert {kind for kind, _, _ in kinds} == \
        {"rational", "split", "inert", "ramified"}
    assert {(kind, e) for kind, two, e in kinds if two} >= \
        {("rational", 2), ("rational", 4), ("inert", 1), ("ramified", 1)}


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


def test_pohlig_hellman_reads_k_modulo_the_prime_powers_asked():
    """Over F_ell* for ell < 200, seeded k: the whole factorisation of
    ell - 1 gives k, and a part of it gives k modulo the product of its
    prime powers."""
    rng = random.Random(7)
    for ell in range(3, 200):
        if not isprime(ell):
            continue
        fac = factorint(ell - 1)
        G, g = ModularUnits(ell), _primitive_root(ell, fac)
        for _ in range(4):
            k = rng.randrange(ell - 1)
            h = pow(g, k, ell)
            assert pohlig_hellman(G, g, ell - 1, fac, h) == (k, ell - 1)
            part = {q: a for q, a in fac.items() if q != 2}
            mod = prod(q**a for q, a in part.items())
            assert pohlig_hellman(G, g, ell - 1, part, h) == (k % mod, mod)


class _CountingUnits(ModularUnits):
    """(Z/m)* that counts its multiplications and records the base of each
    power it takes."""

    def __init__(self, m):
        super().__init__(m)
        self.muls, self.bases = 0, []

    def mul(self, x, y):
        self.muls += 1
        return super().mul(x, y)

    def exp(self, x, k):
        self.bases.append(x)
        return super().exp(x, k)


def test_pohlig_hellman_reads_a_trivial_part_with_no_table():
    """Over F_ell* for ell < 200: when h^(n/q^a) = 1, k = 0 mod q^a is read
    from that one power of h, with no power of g and no multiplication (no
    baby-step table, no giant step)."""
    rng = random.Random(8)
    parts = 0
    for ell in range(3, 200):
        if not isprime(ell):
            continue
        fac = factorint(ell - 1)
        g = _primitive_root(ell, fac)
        for q, a in fac.items():
            qa = q**a
            h = pow(g, qa * rng.randrange((ell - 1) // qa), ell)
            G = _CountingUnits(ell)
            assert pohlig_hellman(G, g, ell - 1, {q: a}, h) == (0, qa)
            assert (G.muls, G.bases) == (0, [h]), (ell, q)
            parts += 1
    assert parts > 100


def test_pohlig_hellman_refuses_a_target_outside_the_subgroup():
    """g = r^2 for a primitive root r has order n = (ell - 1)/2, and r is
    outside <g>: for each q^a exactly dividing n, r^(n/q^a) has order
    2 q^a, so the q-part is not trivial and the digit run raises."""
    checked = 0
    for ell in range(5, 200):
        if not isprime(ell):
            continue
        r = _primitive_root(ell, factorint(ell - 1))
        n = (ell - 1) // 2
        for q, a in factorint(n).items():
            assert pow(r, n // q**a, ell) != 1
            with pytest.raises(InternalCheckError,
                               match="element outside the subgroup"):
                pohlig_hellman(ModularUnits(ell), r * r % ell, n, {q: a}, r)
            checked += 1
    assert checked > 50


# (ell, q, a): q^a exactly divides ell - 1, in F_ell*, or ell + 1, in the
# norm-one torus, at the largest a whose part one baby-step giant-step
# reads (2^16, 3^9, 5^5) and at the least a read digit by digit
PH_WIDTH_CASES = {
    "units": [(65537, 2, 16), (1179649, 2, 17), (39367, 3, 9),
              (472393, 3, 10), (37501, 5, 5), (62501, 5, 6)],
    "torus": [(131071, 2, 17), (472391, 3, 10), (31249, 5, 6)],
}


def _cyclic(kind, ell):
    """(G, g, n): F_ell*, a primitive root and ell - 1, or the norm-one
    torus of F_ell[w]/(w^2 - r), r the least non-residue, a generator of it
    and ell + 1."""
    if kind == "units":
        return ModularUnits(ell), _primitive_root(ell, factorint(ell - 1)), \
            ell - 1
    r = next(x for x in range(2, ell) if pow(x, (ell - 1) // 2, ell) != 1)
    F = _QuadFieldUnits(0, -r, ell)
    g = _inert_generator(F, factorint(ell - 1), factorint(ell + 1))
    return residues._NormOneTorus(F), F.frobenius_quotient(g), ell + 1


def _powers_of(G, g, n):
    """{g^j: j} for 0 <= j < n, one product a power: the brute-force dlog
    of <g> when g has order n."""
    table, z = {}, G.one
    for j in range(n):
        table[z] = j
        z = G.mul(z, g)
    return table


@pytest.mark.parametrize("kind", ["units", "torus"])
def test_pohlig_hellman_against_brute_force_on_small_groups(kind):
    """Every odd prime ell < 700, F_ell* and the torus: for seeded k, the
    whole run reads k of h = g^k as the table of all powers does, and the
    run on each q^a alone reads it mod q^a.  Those groups hold parts 2^a,
    a = 1..7, 3^2 and 5^2, each read in one baby-step giant-step."""
    rng = random.Random(47)
    parts = set()
    for ell in range(3, 700):
        if not isprime(ell):
            continue
        G, g, n = _cyclic(kind, ell)
        fac = factorint(n)
        table = _powers_of(G, g, n)
        assert len(table) == n
        parts.update(fac.items())
        for k in (0, 1, n - 1, *(rng.randrange(n) for _ in range(3))):
            h = G.exp(g, k)
            assert table[h] == k
            assert pohlig_hellman(G, g, n, fac, h) == (k, n), (ell, k)
            for q, a in fac.items():
                assert pohlig_hellman(G, g, n, {q: a}, h) == \
                    (k % q**a, q**a), (ell, q, a, k)
    assert {(2, a) for a in range(1, 8)} | {(3, 2), (5, 2)} <= parts


@pytest.mark.parametrize("kind", sorted(PH_WIDTH_CASES))
def test_pohlig_hellman_reads_large_parts_at_both_widths(kind):
    """Parts q^a of 2, 3 and 5 on either side of the width rule, against
    the table of all powers of g^(n/q^a), of order q^a: k mod q^a for
    seeded k, alone and with the rest of the order's factors."""
    rng = random.Random(48)
    for ell, q, a in PH_WIDTH_CASES[kind]:
        G, g, n = _cyclic(kind, ell)
        fac, qa = factorint(n), q**a
        assert fac[q] == a
        table = _powers_of(G, G.exp(g, n // qa), qa)
        for k in (1, n - 1, *(rng.randrange(n) for _ in range(3))):
            h = G.exp(g, k)
            want = table[G.exp(h, n // qa)]
            assert want == k % qa
            assert pohlig_hellman(G, g, n, {q: a}, h) == (want, qa), \
                (ell, k)
            assert pohlig_hellman(G, g, n, fac, h) == (k, n), (ell, k)


def test_pohlig_hellman_width_follows_the_table_cost():
    """A part of F_ell* read in one baby-step giant-step takes two powers,
    h^(n/q^a) and g^(n/q^a); read digit by digit, it takes more: one per
    digit of h and two of the strip.  2^16, 3^9 and 5^5 take the one
    table; 2^17, 3^10 and 5^6 the digits."""
    for ell, q, a in PH_WIDTH_CASES["units"]:
        G, g = _CountingUnits(ell), _primitive_root(ell, factorint(ell - 1))
        h = pow(g, 12345, ell)
        pohlig_hellman(G, g, ell - 1, {q: a}, h)
        assert (len(G.bases) == 2) == ((q, a) in {(2, 16), (3, 9), (5, 5)})


def test_pohlig_hellman_refuses_outside_targets_at_both_widths():
    """g = r^2 for a primitive root r of F_ell* has order n = (ell - 1)/2,
    and r^(n/q^a) lies outside <g> for the part q^a of n that has the
    factor 2: the run raises in one table (2^4 at ell = 97, 2^15 at
    ell = 65537) and digit by digit (2^17 at ell = 786433)."""
    for ell, a in ((97, 4), (65537, 15), (786433, 17)):
        r = _primitive_root(ell, factorint(ell - 1))
        n = (ell - 1) // 2
        assert factorint(n)[2] == a
        with pytest.raises(InternalCheckError,
                           match="element outside the subgroup"):
            pohlig_hellman(ModularUnits(ell), r * r % ell, n, {2: a}, r)


def test_generator_searches_raise_internal_checks():
    """The fall-throughs of the generator searches are engine faults: no
    element passes a test at a prime that does not divide ell - 1, and
    T^2 - 2T + 1 = (T - 1)^2 has no generator."""
    with pytest.raises(InternalCheckError, match="not an odd prime"):
        _primitive_root(7, {7: 1})
    with pytest.raises(InternalCheckError, match="reducible"):
        _inert_generator(_QuadFieldUnits(2, 1, 7), {2: 1, 3: 1}, {2: 3})


def test_a_torsion_lift_that_never_settles_raises(monkeypatch):
    """With the step g -> g^(ell^2) of an inert component at e = 2 replaced
    by a map with no fixed point, the cap of 2e + 2 steps raises instead of
    taking a non-root of unity as the torsion generator."""
    monkeypatch.setattr(residues, "power",
                        lambda mul, one, g, k: (g[0] + 1, g[1]))
    with pytest.raises(InternalCheckError, match="did not converge"):
        _inert_component(2, 5, 2)


def test_a_degenerate_one_unit_log_basis_raises_at_build(monkeypatch):
    """The logs of 1 + ell and 1 + ell*w are inverted once, when the
    component is built: with both read as log(1 + ell), the basis is
    degenerate and the build raises, before any dlog is asked."""
    monkeypatch.setattr(residues, "log_series",
                        lambda z0, z1, t, n, p, A: (p, 0))
    with pytest.raises(InternalCheckError, match="log basis is degenerate"):
        _inert_component(2, 5, 2)


def test_a_wrong_primitive_root_exits_5(monkeypatch, capsys):
    """2 has order 3 mod 7, so with it as the root of (Z/7)* a dlog meets
    an element outside <2>: an engine fault, which exits 5 and not 4."""
    root = residues._primitive_root
    monkeypatch.setattr(residues, "_primitive_root",
                        lambda ell, fac: 2 if ell == 7 else root(ell, fac))
    code = main(["rayclass", "--field", "Q(sqrt{2})", "--modulus", "7",
                 "--p", "3"])
    out, err = capsys.readouterr()
    assert code == 5
    assert out == ""
    assert err == ("internal check failed: dlog: element outside the "
                   "subgroup\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    _record()
