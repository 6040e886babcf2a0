"""Independent brute-force oracles used by the tests.

Deliberately avoids the package's ideal-reduction machinery: class numbers
come from cycles of reduced indefinite *binary quadratic forms* plus the
minimal solution of the +-4 Pell equation (found by brute force on U),
and at scale h * log(eps) comes from Dirichlet's class number formula
(`class_number_formula`, on floats, with the Kronecker symbol `kronecker`).
Ray class numbers come from the ray class number formula
(`ray_class_number`), with the unit from the continued fraction
(`fundamental_unit_cf`) and its order mod n on integer pairs.
The exceptions are earlier forms of library computations kept as their
references: `unit_image_order_two_snf`, the exact lattice route of the
subgroup cross-check in `iwasawa.mq_order` (`lattice_intersection`,
`subgroup_order_from_lattice`, which reads its index off sympy's Smith
diagonal, and `subgroup_lattice`, the columns that
`FiniteAbelianGroup.subgroup_lattice` built), `hnf_pairs`, the 2-column
Hermite fold of `quadfield`'s ideal arithmetic before it read its triples
off `abgroup.hermite_form`, with the triples of products, conjugates and
element ideals on it (`ideal_product_triple`, `ideal_conj_triple`,
`element_ideal_triple`), `log_series` with a fresh inverse per
term, before `padic.log_series` kept its inverses in a table, the
Gauss-Jordan `solve_integral_fractions` over Fraction, the reference for
the substitution of `quadfield.SUnitBasisData.decompose`,
`exact_smith_form`, the exact Smith elimination with a unimodular U that
`abgroup.smith_normal_form` ran with no modulus before it worked modulo
|Delta|, the congruence-lattice route on it (`kernel_basis`,
`_column_lattice_basis`, `solve_congruence_lattice`,
`degree_kernel_lattice`), which found the
S-unit lattice as a kernel of [C | diag(d)] before
`abgroup.relation_lattice` read it off class-group coordinates,
`FractionElement`, the field element on two Fraction coordinates, before
`quadfield.FieldElement`
kept integers over one denominator, and `leopoldt_defect_log_route`, the
Leopoldt defect from the Z_p-rank of the localized unit logs, before
`iwasawa.leopoldt_defect` read one valuation of eps^k - 1, and
`leopoldt_defect_square_exponent`, that valuation at k = p^2 - 1 for
every p, before k became p - 1 or 2(p + 1) by the splitting of p, and
`decompose_by_max_order`, the recursion on elements of largest order that
`abgroup.decompose_abelian` ran before it read the structure off a Smith
form, and the log route of the cyclotomic character
(`cyclotomic_dlog_log_route`, `degree_log_route`, `mq_generator_log_route`,
`rounded_degree_zero_log_route`, `mq_order_log_route`): angle_log over plog
of 1 + p on p-adic objects, as `classfield` and `iwasawa` read it before
`classfield.cyclotomic_log` did on integer residues, and
`reduced_pairs_scan`, the O(D) scan of every P against every Q of its
window, before `quadfield._reduced_pairs` read the reduced states off
divisor pairs, and the p-adic object arithmetic (`PAdicObject`: the sum
and product that `PAdicNumber.__add__` and `__mul__` took before they read
the integers of their terms, and then lost to `padic.dot_row`) with the
Kummer certificate's kernels on it (`log_sum_objects`,
`valuation_at_objects`, `solve_unit_exponent_objects`,
`zp_matrix_rank_objects`), before `localize.log_sum`,
`localize.SUnitProduct.valuation_at` (a row), `kummer._solve_unit_exponent`
(-x) and `localize.zp_matrix_rank` read the integers of their terms, and the
dataclass definitions of the value types (`DataclassField`,
`DataclassElement`, `DataclassIdeal`, `DataclassGroupElement`,
`DataclassSplittingReport`, `DataclassSUnitBasisEntry`, built from an
engine value by `dataclass_twin`), the reference of the equality and the
hash of `RealQuadraticField`, `FieldElement`, `IntegralIdeal`,
`GroupElement`, `SplittingReport` and `SUnitBasisEntry` before they were
written out as plain classes.

It also holds definitions that only the tests read, kept out of the
engine as the tests' reference: the p-adic object layer (`PAdicObject`,
which computes with nothing of `iwasawalab.padic`, `as_object` and
`as_number` between it and the engine's value record, `val_and_unit`,
`angle`, `plog`, `log_ratio`, `angle_log` and `UnramifiedQuadElem`, the
unramified quadratic extension of Q_p, whose logs call the engine's
`padic.log_series` and `padic.unit_log_residues`),
`solve_dlog` in a finite abelian group, `s_unit_basis`, `inertia_rank`,
`same_kummer_extension` and `degree_zero_pair_element`; and the helpers
the tests read in place of engine methods that no engine path called: the
`AtLeast` marker, `valuation` and `shift` of a p-adic number,
`sqrt_pair(K, u, v)`, `real_sign` and `compare_real` of a field element
(on the engine's `quadfield._real_sign`), `scale_exponents` of a formal
product, and `group_identity` and `group_record` (the fields that equal
groups share) of a finite abelian group; `rows` reads
p-adic logs as the rows (v, m, digits) of the Kummer path.
`empty_memos()` empties every memo table of the engine, each one found by
its `cache_clear`; `load_bench` reads a module of bench/, and
`answers_digest` hashes the engine's answers to benchmark batches, to show
that a change moved none.
"""

import hashlib
import importlib
import importlib.util
import pkgutil
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd, isqrt, log, pi, prod, sin
from pathlib import Path
from types import MappingProxyType

import iwasawalab
from iwasawalab import padic, quadfield, rayclass
from iwasawalab.abgroup import (FiniteAbelianGroup, GroupElement,
                                element_order, smith_presentation,
                                subgroup_image_order)
from iwasawalab.classfield import group_G
from iwasawalab.iwasawa import (FrobeniusModuleReport, LeopoldtReport,
                                _check_q_pair, _degree_zero_a1)
from iwasawalab.kummer import kummer_rank
from iwasawalab.localize import (FALSE, INDET, TRUE, RankReport,
                                 SUnitProduct, completions_above_p, loc,
                                 zp_matrix_rank)
from iwasawalab.ntheory import (InternalCheckError, crt, extgcd, factorint,
                                isprime, power, quad_mul)
from iwasawalab.padic import (PAdicNumber, PrecisionError, _log_terms_needed,
                              teichmueller)
from iwasawalab.quadfield import (FieldElement, IntegralIdeal,
                                  RealQuadraticField, SplittingReport,
                                  SUnitBasisData, SUnitBasisEntry,
                                  _real_sign, fundamental_unit,
                                  rational_ideal)


def _memo_tables():
    """{module.name: table} for each function of an iwasawalab module that
    has a `cache_clear`: its lru_cache memo tables."""
    tables = {}
    for info in pkgutil.iter_modules(iwasawalab.__path__):
        module = importlib.import_module("iwasawalab." + info.name)
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)) \
                    and value.__module__ == module.__name__:
                tables["%s.%s" % (info.name, name)] = value
    return tables


MEMO_TABLES = _memo_tables()


def empty_memos():
    """Empty every memo table of the engine, as a fresh process has them."""
    for table in MEMO_TABLES.values():
        table.cache_clear()


def count_builds(monkeypatch):
    """(direct, levels): from now on, the ray class groups built, each as
    (d, p, M) at a conductor (p^M) and as (d, p, str(m)) at any other m,
    and the reads of RayClassTower.p_level, the one level reader, which
    build no ray class record but a top, each as (d, p, M, T), T the
    exponent of the top that the level was read off (M < T below it), in
    order."""
    built, levels = [], []
    build, p_level = rayclass.RayClassGroupData, rayclass.RayClassTower.p_level

    def record(K, modulus, p):
        M = vp(modulus.a, p)
        at = M if modulus == rational_ideal(K, p**M) else str(modulus)
        built.append((K.d or 1, p, at))
        return build(K, modulus, p)

    def read(tower, M):
        level = p_level(tower, M)
        levels.append((tower.field.d or 1, tower.p, M, tower.exponent))
        return level
    monkeypatch.setattr(rayclass, "RayClassGroupData", record)
    monkeypatch.setattr(rayclass.RayClassTower, "p_level", read)
    return built, levels


def p_class_of_ideal(rc, q) -> GroupElement:
    """The class of q in the p-part of a ray class group rc."""
    return rc.p_group.project(rc.ambient_of_ideal(q))


def count_field_work(monkeypatch):
    """(walks, generators): from now on, each walk of a fundamental unit
    that quadfield takes, as d, and each ideal of which quadfield or
    rayclass asks a principal generator, as (d, N(I)); over K = Q, d = 1.
    The powers of class representatives that a ray-class build reads are
    principalized in quadfield, the ray classes of ideals in rayclass."""
    walks, generators = [], []
    walk = quadfield.fundamental_unit

    def walked(K):
        walks.append(K.d)
        return walk(K)
    monkeypatch.setattr(quadfield, "fundamental_unit", walked)
    for module in (quadfield, rayclass):
        def generated(I, generator=module.principal_generator):
            generators.append((I.field.d or 1, I.norm))
            return generator(I)
        monkeypatch.setattr(module, "principal_generator", generated)
    return walks, generators


BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """The module bench/<name>.py, loaded with no bytecode written, so that
    bench/ is only read."""
    spec = importlib.util.spec_from_file_location("bench_" + name,
                                                  BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


def answers_digest(workload: str, seeds) -> str:
    """The sha256, in hex, of the engine's answers to the benchmark batches
    of `workload` at `seeds`: over the UTF-8 lines

        query_key(q) + "\t" + canonical(answer(q)) + "\n"

    for each query q of batch(workload, seed) (bench/workloads.py; the
    smoke query first), in batch order, seed by seed in the order given,
    with the memos emptied before each seed.  From the root of the repo,
    for seeds 1-5:

        PYTHONPATH=src:tests python -c "from oracles import *; \
        print(answers_digest('kummer-alpha', range(1, 6)))"
    """
    W, S = load_bench("workloads"), load_bench("session")
    digest = hashlib.sha256()
    for seed in seeds:
        empty_memos()
        for q in W.batch(workload, seed):
            doc = S.canonical(W.answer(iwasawalab, q))
            digest.update((W.query_key(q) + "\t" + doc + "\n").encode())
    empty_memos()
    return digest.hexdigest()


def _sqrt_window_low(D, t):
    """Smallest integer r with r > sqrt(D) - t (D not a square)."""
    return isqrt(D) - t + 1


def is_reduced_form(a, b, c, D):
    """|sqrt(D) - 2|a|| < b < sqrt(D), all comparisons exact."""
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(a)
    if (t - b) ** 2 >= D and t >= b:
        return False  # sqrt(D) <= 2|a| - b
    if (t + b) ** 2 <= D:
        return False  # sqrt(D) >= 2|a| + b
    return True


def rho_form(f, D):
    """Reduction/cycle step for indefinite forms (Cohen, Algorithm 5.6.5)."""
    a, b, c = f
    t = 2 * abs(c)
    if c * c > D:
        # r = -b mod 2|c| in (-|c|, |c|]
        r = (-b) % t
        if r > abs(c):
            r -= t
    else:
        # r = -b mod 2|c| in (sqrt(D) - 2|c|, sqrt(D))
        lo = _sqrt_window_low(D, t)
        r = lo + ((-b - lo) % t)
    return (c, r, (r * r - D) // (4 * c))


def reduced_forms(D):
    out = set()
    s = isqrt(D)
    for b in range(1, s + 1):
        if (b * b - D) % 4:
            continue
        ac = (b * b - D) // 4  # < 0
        n = -ac
        for a in range(1, n + 1):
            if n % a:
                continue
            for sa in (a, -a):
                c = ac // sa
                if is_reduced_form(sa, b, c, D):
                    out.add((sa, b, c))
    return out


def reduced_pairs_scan(K):
    """The reduced states (P, Q) of K by the O(D) scan that
    `quadfield._reduced_pairs` ran before it read them off divisor pairs:
    every P <= isqrt D against every Q of its window."""
    D, s = K.D, K.sqrtD_floor
    out = []
    for P in range(1, s + 1):
        R = D - P * P
        for Q in range(s - P + 1, s + P + 1):
            if Q > 0 and R % Q == 0 and Q % 2 == 0 and (R // Q) % 2 == 0:
                out.append((P, Q))
    return out


def narrow_class_number(D: int) -> int:
    forms = reduced_forms(D)
    seen = set()
    cycles = 0
    for f in sorted(forms):
        if f in seen:
            continue
        cycles += 1
        g = f
        while True:
            g = rho_form(g, D)
            assert g in forms, "reduction left the reduced set"
            if g in seen:
                assert g == f or True
            if g == f:
                break
            seen.add(g)
        seen.add(f)
    return cycles


def fundamental_unit_oracle(d: int):
    """Minimal (T, U, sign) with T^2 - D U^2 = sign*4, so eps=(T+U*sqrt(D))/2.

    Brute force on U; intended for d <= 100 where U stays moderate.
    """
    D = d if d % 4 == 1 else 4 * d
    U = 1
    while True:
        base = D * U * U
        for sgn in (-4, 4):
            t2 = base + sgn
            if t2 > 0:
                t = isqrt(t2)
                if t * t == t2:
                    return t, U, (1 if sgn == 4 else -1)
        U += 1
        if U > 10**6:
            raise AssertionError("Pell search overflow for d=%d" % d)


def pell_sign(d: int) -> int:
    """Sign of the norm of the fundamental unit, via the CF of sqrt(d).

    The minimal integer solution of x^2 - d y^2 = +-1 appears among the
    continued-fraction convergents, and its sign equals N(eps) (the
    fundamental unit is that solution or its cube root, same norm sign).
    """
    s = isqrt(d)
    P, Q, a = 0, 1, s
    h_prev, h = 1, s
    k_prev, k = 0, 1
    for _ in range(10000):
        v = h * h - d * k * k
        if v in (1, -1):
            return v
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (P + s) // Q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    raise AssertionError("Pell CF did not terminate for d=%d" % d)


def wide_class_number_oracle(d: int) -> int:
    D = d if d % 4 == 1 else 4 * d
    hplus = narrow_class_number(D)
    return hplus if pell_sign(d) == -1 else hplus // 2


def kronecker(D: int, a: int) -> int:
    """The Kronecker symbol (D/a) for a discriminant D and a > 0: (D/2) is
    0, 1 or -1 as D is even, +-1 or +-3 mod 8, and on odd a it is the
    Jacobi symbol, by quadratic reciprocity."""
    t = 1
    while a % 2 == 0:
        a //= 2
        t *= 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    D %= a
    while D:
        while D % 2 == 0:
            D //= 2
            if a % 8 in (3, 5):
                t = -t
        D, a = a, D
        if D % 4 == 3 and a % 4 == 3:
            t = -t
        D %= a
    return t if a == 1 else 0


def fundamental_unit_cf(d: int):
    """The fundamental unit eps = (x, y) = x + y*omega > 1 of Q(sqrt d), on
    the basis {1, omega}, omega = (r + sqrt D)/2 with r = D mod 2.  A unit
    x + y*omega with y > 0 has |x/y - a| = 1/(eps*y) < 1/(2y^2) for
    a = (sqrt D - r)/2, so x/y is a convergent of a's continued fraction,
    which runs on exact (P + sqrt D)/Q; eps is the first convergent of
    norm +-1."""
    D = d if d % 4 == 1 else 4 * d
    r, s = D % 2, isqrt(D)
    P, Q = -r, 2
    p0, p1, q0, q1 = 0, 1, 1, 0
    for _ in range(10**5):
        a = (P + s) // Q
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        if p1 * p1 + r * p1 * q1 + q1 * q1 * (r - D) // 4 in (1, -1):
            return p1, q1
        P = a * Q - P
        Q = (D - P * P) // Q
    raise AssertionError("no unit among the convergents for d=%d" % d)


def ray_class_number(d: int, n: int) -> int:
    """|Cl_(n)| of Q(sqrt d), no infinite place, by the ray class number
    formula h * Phi(n) / |<-1, eps> mod n| (Neukirch, ANT, VI.1.11): h by
    `wide_class_number_oracle`, Phi(n) = |(O/n)*| = n^2 * prod over ell | n
    of (1 - 1/ell)(1 - (D/ell)/ell) with `kronecker`, and the order of eps
    mod n by stripping the primes of Phi(n) from its exponent, on integer
    pairs over {1, omega}, omega^2 = r*omega + (D - r)/4 (see
    `fundamental_unit_cf`): no dlog and no Smith form.  Over Q (d = 1) it
    is |(Z/n)*/<-1>|."""
    if d == 1:
        phi = prod((ell - 1) * ell**(e - 1) for ell, e in factorint(n).items())
        return phi // 2 if n > 2 else phi
    D = d if d % 4 == 1 else 4 * d
    r = D % 2
    phi = n * n
    for ell in factorint(n):
        phi = phi // (ell * ell) * (ell - 1) * (ell - kronecker(D, ell))

    def mul(u, v):
        w = u[1] * v[1]
        return ((u[0] * v[0] + w * (D - r) // 4) % n,
                (u[0] * v[1] + u[1] * v[0] + w * r) % n)
    one, eps = (1 % n, 0), fundamental_unit_cf(d)
    order = phi
    for q in factorint(phi):
        while order % q == 0 and _power(mul, one, eps, order // q) == one:
            order //= q
    # -1 lies in <eps> iff eps^(order/2) = -1; it is 1 for n <= 2
    if n > 2 and not (order % 2 == 0 and
                      _power(mul, one, eps, order // 2) == (n - 1, 0)):
        order *= 2
    return wide_class_number_oracle(d) * phi // order


def class_number_formula(D: int) -> float:
    """h * log(eps) for the real quadratic field of discriminant D, by
    Dirichlet's class number formula (Washington, GTM 83, Thm 4.9; Cohen,
    GTM 138, sec. 5.6): -1/2 * sum of chi_D(a) * log sin(pi*a/D) over
    0 < a < D, chi_D = (D/.).  chi_D is even and sin(pi*(D - a)/D) =
    sin(pi*a/D), so the sum is taken over a <= D/2, once.  O(D) float work,
    a test oracle only."""
    total = 0.0
    for a in range(1, D // 2 + 1):
        chi = kronecker(D, a)
        if chi:
            total += chi * log(sin(pi * a / D))
    return -total


def squarefree(n: int) -> bool:
    q = 2
    m = n
    while q * q <= m:
        if m % (q * q) == 0:
            return False
        while m % q == 0:
            m //= q
        q += 1
    return True


def _power(mul, one, g, k):
    r = one
    while k:
        if k & 1:
            r = mul(r, g)
        g = mul(g, g)
        k >>= 1
    return r


def bsgs(mul, one, g, h, n):
    """k in [0, n) with g^k = h, for g of order dividing n; the baby-step
    table is built on every call."""
    m = isqrt(n) + 1
    table = {}
    x = one
    for j in range(m):
        if x == h:
            return j
        table.setdefault(x, j)
        x = mul(x, g)
    ginv_m = _power(mul, one, x, n - 1)
    y = h
    for i in range(1, m):
        y = mul(y, ginv_m)
        if y in table:
            return (i * m + table[y]) % n
    raise ValueError("dlog: element not in the cyclic subgroup")


def ph_dlog(mul, one, g, h, n, fac):
    """k in [0, n) with g^k = h, for g of order n = prod q^a over fac, by
    Pohlig-Hellman with every generator power taken again on each call:
    the q^a-part of k one base-q digit at a time, by BSGS in the subgroup
    of order q, and the parts joined by the Chinese remainder theorem."""
    k, m = 0, 1
    for q, a in fac.items():
        qa = q**a
        gq = _power(mul, one, g, n // qa)
        t = _power(mul, one, h, n // qa)
        gamma = _power(mul, one, gq, qa // q)
        gq_inv = _power(mul, one, gq, qa - 1)
        x, qj = 0, 1
        for j in range(a):
            # t = gq^(k - x) has order dividing q^(a - j)
            d = bsgs(mul, one, gamma, _power(mul, one, t, qa // (qj * q)), q)
            t = mul(t, _power(mul, one, gq_inv, d * qj))
            x += d * qj
            qj *= q
        k += m * ((x - k) * pow(m, -1, qa) % qa)
        m *= qa
    return k


def _order_of(op, ident, g):
    o = 1
    x = g
    while x != ident:
        x = op(x, g)
        o += 1
    return o


def decompose_by_max_order(elems, op, ident):
    """[(g_i, order_i)] realizing elems = direct sum of the <g_i>: g_1 of
    largest order, then the same on the quotient by <g_1>, each lift
    corrected to keep its order.  The orders fall, and read backwards are
    the invariant factors, since an element of largest order has the
    exponent of the group as its order."""
    if len(elems) == 1:
        return []
    orders = {e: _order_of(op, ident, e) for e in elems}
    g = max(elems, key=lambda e: (orders[e], repr(e)))
    og = orders[g]
    cyc = [ident]
    x = g
    while x != ident:
        cyc.append(x)
        x = op(x, g)

    def coset(e):  # canonical representative of e<g>
        return min(op(e, c) for c in cyc)

    reps = sorted({coset(e) for e in elems})

    def qop(a, b):
        return coset(op(a, b))

    out = [(g, og)]
    for hbar, m in decompose_by_max_order(reps, qop, coset(ident)):
        # lift: hbar^m lies in <g>, say g^s with m | s; correct by g^(-s/m)
        s = cyc.index(_power(op, ident, hbar, m))
        if s % m:
            raise InternalCheckError("maximal-order correction failed")
        h = op(hbar, _power(op, ident, g, (og - (s // m) % og) % og))
        if _order_of(op, ident, h) != m:
            raise InternalCheckError("corrected lift has the wrong order")
        out.append((h, m))
    return out


def unit_image_order_two_snf(rc):
    """|im E| in (O/m)* for a RayClassGroupData rc, by two SNFs: present
    (O/m)* by the orders of its cyclic generators, project the unit dlogs
    into it and take the order of the subgroup they generate."""
    if not rc.units.orders:
        return 1
    nu = len(rc.units.orders)
    G = smith_presentation(
        [[o if j == i else 0 for j in range(nu)]
         for i, o in enumerate(rc.units.orders)], nu,
        modulus=prod(rc.units.orders))
    return subgroup_image_order(G, [G.project(d) for d in rc._unit_dlogs])


def exact_smith_form(A):
    """(D, U) with D = U*A*V the Smith form of an integer matrix, d_1 | d_2
    | ... >= 0, and U unimodular: the exact elimination that
    abgroup.smith_normal_form ran with no modulus before it worked modulo
    |Delta|, kept as the reference for an exact U.  Row i of U*A has
    content d_i, so the rows of U past the rank span {x : x*A = 0}.  Its
    entries have no useful bound: on some 6 x 5 matrices with entries
    below 50 it does not return."""
    n = len(A)
    m = len(A[0]) if n else 0
    D = [list(row) for row in A]
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in D:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    def pivot_at(t):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if D[i][j] != 0 and (best is None or
                                     abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(n, m):
        pos = pivot_at(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        if not any(any(D[i][t:]) for i in range(t + 1, n)):
            g = gcd(*D[t][t:])
            D[t][t:] = [g if D[t][t] > 0 else -g] + [0] * (m - t - 1)
            t += 1
            continue
        cleared = False
        while not cleared:
            cleared = True
            for i in range(t + 1, n):
                if D[i][t] != 0:
                    row_op(i, t, D[i][t] // D[t][t])
                    if D[i][t] != 0:
                        swap_rows(i, t)
                        cleared = False
            for j in range(t + 1, m):
                if D[t][j] != 0:
                    col_op(j, t, D[t][j] // D[t][t])
                    if D[t][j] != 0:
                        swap_cols(j, t)
                        cleared = False
        t += 1

    rank = sum(1 for i in range(min(n, m)) if D[i][i] != 0)
    for i in range(rank):
        if D[i][i] < 0:
            negate_row(i)
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if D[i + 1][i + 1] % D[i][i] != 0:
                changed = True
                # col_i += col_(i+1); then re-clear the 2 x 2 block
                col_op(i, i + 1, -1)
                while D[i + 1][i] != 0 or D[i][i + 1] != 0:
                    if D[i + 1][i] != 0:
                        row_op(i + 1, i, D[i + 1][i] // D[i][i])
                        if D[i + 1][i] != 0:
                            swap_rows(i, i + 1)
                    if D[i][i + 1] != 0:
                        col_op(i + 1, i, D[i][i + 1] // D[i][i])
                        if D[i][i + 1] != 0:
                            swap_cols(i, i + 1)
                for k in (i, i + 1):
                    if D[k][k] < 0:
                        negate_row(k)
    return D, U


def kernel_basis(A):
    """A basis of the integer columns x with A x = 0, as a list of lists:
    the rows of U past the rank of the exact Smith form D = U*A^T*V."""
    D, U = exact_smith_form([list(col) for col in zip(*A)])
    rank = sum(1 for i, row in enumerate(D) if i < len(row) and row[i])
    return U[rank:]


def _column_lattice_basis(B):
    """Reduce the columns of B (n x m) to a triangular basis of the column
    lattice, via gcd column operations."""
    n = len(B)
    m = len(B[0]) if n else 0
    cols = [[B[i][j] for i in range(n)] for j in range(m)]
    cols = [c for c in cols if any(c)]
    basis = []
    for r in range(n):
        while True:
            nz = [c for c in cols if c[r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[r]))
            a = nz[0]
            for c in nz[1:]:
                q = c[r] // a[r]
                for i in range(n):
                    c[i] -= q * a[i]
            cols = [c for c in cols if any(c)]
        piv = next((c for c in cols if c[r] != 0), None)
        if piv is not None:
            basis.append(piv)
            cols = [c for c in cols if c is not piv]
    return basis


def solve_congruence_lattice(C, moduli):
    """Basis of the lattice {x in Z^k : C x ≡ 0 componentwise mod moduli}:
    the kernel of [C | diag(moduli)] projected to the first k coordinates,
    reduced to a triangular basis.  C is an r x k integer matrix, moduli a
    length-r list (0 = no reduction)."""
    r = len(C)
    k = len(C[0]) if r else 0
    ext = [C[i][:] + [moduli[i] if j == i else 0 for j in range(r)]
           for i in range(r)]
    basis = [col[:k] for col in kernel_basis(ext)]
    if not basis:
        return []
    return _column_lattice_basis([[b[i] for b in basis] for i in range(k)])


def generator_lifts(G: FiniteAbelianGroup, modulus: int) -> list:
    """For each row of the transform U of G, an ambient vector whose class
    generates that coordinate: the columns of U^-1 modulo `modulus`, by
    sympy's inv_mod, with no Smith form."""
    from sympy import Matrix
    W = Matrix(G.transform).inv_mod(modulus)
    return [[int(x) for x in W.col(i)] for i in range(W.cols)]


def level_class_map(G: FiniteAbelianGroup, H: FiniteAbelianGroup):
    """The map from the classes of G, a level read off a tower's top by
    RayClassTower.p_level, to the classes of H, a group on the same
    ambient coordinates, such as a direct build's p-part: the coordinates
    of a class of G, each times its generator lift, summed to an ambient
    vector, which H projects."""
    lifts = [w for w, d in zip(generator_lifts(G, G.order), G.diag)
             if d > 1] if G.invariant_factors else []

    def image(g: GroupElement) -> GroupElement:
        return H.project([sum(c * w[t] for c, w in zip(g.coords, lifts))
                          for t in range(len(G.diag))])
    return image


def invariant_hom(G: FiniteAbelianGroup, c, mod: int) -> list:
    """The hom c.x mod `mod` on the ambient vectors of a p-part G, which
    must kill its relations, on the invariant coordinates of G: y_i =
    c.W_i, W_i the generator lifts modulo `mod` (c.x = c.W(Ux) mod `mod`).
    A coordinate outside the p-part, diagonal entry 1, must carry y_i = 0;
    the y_i of the others come back."""
    y = [sum(a * w for a, w in zip(c, lift)) % mod
         for lift in generator_lifts(G, mod)]
    if any(t for t, d in zip(y, G.diag) if d == 1):
        raise InternalCheckError("the hom does not factor through the "
                                 "p-part")
    return [t for t, d in zip(y, G.diag) if d > 1]


def degree_hom(G) -> list:
    """The degree of a GaloisGroupG on its invariant coordinates, mod p^N:
    its ambient hom, carried by invariant_hom."""
    return invariant_hom(G.group, G.ambient_hom, G.p**G.N)


def degree_kernel_lattice(G):
    """Lattice (in invariant coordinates) of the classes of a GaloisGroupG
    with trivial image in the cyclotomic quotient Z/p^N, as the k x m
    matrix whose columns span it, the form that lattice_intersection and
    subgroup_order_from_lattice read."""
    if not G.group.invariant_factors:
        return []
    basis = solve_congruence_lattice([degree_hom(G)], [G.p**G.N])
    return [list(row) for row in zip(*basis)]


def lattice_intersection(B1, B2):
    """Basis of L1 ∩ L2 for column lattices B1 (n x a), B2 (n x b), as the
    columns of an n x m matrix."""
    n = len(B1)
    a = len(B1[0]) if B1 and B1[0] is not None else 0
    b = len(B2[0]) if B2 and B2[0] is not None else 0
    stacked = [[B1[i][j] for j in range(a)] + [-B2[i][j] for j in range(b)]
               for i in range(n)]
    out = []
    for col in kernel_basis(stacked):
        x = col[:a]
        vec = [sum(B1[i][j] * x[j] for j in range(a)) for i in range(n)]
        out.append(vec)
    mat = [[v[i] for v in out] for i in range(n)]
    return [list(row) for row in zip(*_column_lattice_basis(mat))] \
        if out else []


def subgroup_lattice(G: FiniteAbelianGroup, gens):
    """Columns spanning the lattice of <gens> + the relation lattice in
    Z^k, given as rows: the columns that FiniteAbelianGroup.subgroup_lattice
    built before subgroup_image_order handed its rows to hermite_form."""
    k = len(G.invariant_factors)
    cols = list(zip(*gens)) or [()] * k
    return [list(c) + [0] * i + [d] + [0] * (k - 1 - i) for i, (c, d)
            in enumerate(zip(cols, G.invariant_factors))]


def subgroup_order_from_lattice(G: FiniteAbelianGroup, lattice_cols) -> int:
    """Order of (L + R)/R for a column lattice L inside Z^k, R the
    relations: |G| over the index of L + R, the product of sympy's Smith
    diagonal of its columns."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    k = len(G.invariant_factors)
    B = [list(row) + [G.invariant_factors[i] if t == i else 0
                      for t in range(k)]
         for i, row in enumerate(lattice_cols or [[]] * k)]
    S = smith_normal_form(Matrix(B), domain=ZZ)
    return G.order // prod(abs(int(S[i, i])) for i in range(k))


def hnf_pairs(pairs):
    """HNF (a, b, c) of the Z-module spanned by coordinate pairs (u, v),
    the elements u + v*w: the 2-column fold that quadfield's ideal
    arithmetic ran before it read its triples off abgroup.hermite_form."""
    b, c = 0, 0
    xs = []
    for (u, v) in pairs:
        if v == 0:
            xs.append(u)
            continue
        g, s, t = extgcd(c, v)
        xs.append((v // g) * b - (c // g) * u)
        b, c = s * b + t * u, g
    a = 0
    for x in xs:
        a = gcd(a, x)
    if a == 0 or c == 0:
        raise ValueError("module does not have full rank")
    a = abs(a)
    b %= a
    return a, b, c


def ideal_product_triple(I: IntegralIdeal, J: IntegralIdeal) -> tuple:
    """(a, b, c) of IJ by hnf_pairs on the four products of the bases."""
    K = I.field
    return hnf_pairs([(u1 * u2 - v1 * v2 * K.w_norm,
                       u1 * v2 + u2 * v1 + v1 * v2 * K.w_trace)
                      for (u1, v1) in ((I.a, 0), (I.b, I.c))
                      for (u2, v2) in ((J.a, 0), (J.b, J.c))])


def ideal_conj_triple(I: IntegralIdeal) -> tuple:
    """(a, b, c) of the conjugate ideal: conj(u + v w) = u + v D - v w."""
    K = I.field
    return hnf_pairs([(u + v * K.w_trace, -v)
                      for (u, v) in ((I.a, 0), (I.b, I.c))])


def element_ideal_triple(e: FieldElement) -> tuple:
    """(a, b, c) of (e) for integral e = u + v w: the span of e and e w."""
    K, u, v = e.field, e.a, e.b
    return hnf_pairs([(u, v), (-v * K.w_norm, u + v * K.w_trace)])


def log_series(z0: int, z1: int, t: int, n: int, p: int, A: int):
    """log(1 + z) mod p^A for z = z0 + z1*x in Z_p[x]/(x^2 - t*x + n) with
    v_p(z) >= 1, as the coordinate pair over {1, x}.

    x = sqrt(D) is t = 0, n = -D; the basis {1, w} of a quadratic field is
    t = w_trace, n = w_norm; Z_p is z1 = 0.  The series
    sum (-1)^(k+1) z^k / k stops before the K of _log_terms_needed; its terms
    are computed mod p^(A + guard) with p^guard > K, so dividing z^k by the
    p-part of k < K leaves at least A digits.
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
    s0 = s1 = 0
    x0, x1 = 1, 0
    for k in range(1, K):
        # the step of ntheory.quad_mul, inline: a call per term costs
        # leopoldt-scan about 3 % of its queries per second
        x0, x1 = ((x0 * z0 - n * x1 * z1) % modg,
                  (x0 * z1 + x1 * z0 + t * x1 * z1) % modg)
        pj = p**vp(k, p) if k % p == 0 else 1
        # (-1)^(k+1) / (k / pj); pj divides z^k exactly
        inv = pow(k // pj if k % 2 else -(k // pj), -1, modg)
        s0 = (s0 + x0 // pj * inv) % modg
        s1 = (s1 + x1 // pj * inv) % modg
    return s0 % mod, s1 % mod


# ----------------------------------------------- reference p-adic objects
# The object layer of p-adic values that the engine no longer ships: the
# arithmetic of PAdicObject, the 1-unit projection, logs on objects and the
# unramified quadratic extension.  PAdicObject computes with nothing of
# iwasawalab.padic; the logs call the engine kernels padic.log_series and
# padic.unit_log_residues, not the fresh-inverse log_series above.

# a marker bound past any working precision: an exact zero's, as the
# engine's padic.EXACT_ZERO_BOUND
EXACT_ZERO = 10**9

# relative digits given to an exact integer factor of an object product
EXACT_SLACK = 6


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PAdicObject:
    """Element of Q_p known to a finite number of digits, with the object
    arithmetic (+, -, *, /, inv, **) that the engine's PAdicNumber had
    before it became a value record: the reference of padic.dot_row, of
    the sums it takes, and of localize.zp_matrix_rank.

    Nonzero: p^v * (m + O(p^digits)) with 0 < m < p^digits, p does not
    divide m.  Zero marker: m is None and v is a lower bound for the
    valuation, EXACT_ZERO or more for an exact zero.
    """

    __slots__ = ("p", "v", "m", "digits")

    def __init__(self, p: int, v: int, m, digits: int):
        if p < 3 or p % 2 == 0:
            raise ValueError("p must be an odd prime, got %r" % (p,))
        if m is not None and (not isinstance(m, int) or digits < 1
                              or not 0 < m < p**digits or m % p == 0):
            raise ValueError("bad mantissa %r (digits=%d)" % (m, digits))
        self.p, self.v, self.m, self.digits = p, v, m, digits

    @classmethod
    def zero_marker(cls, p: int, bound: int) -> "PAdicObject":
        return cls(p, bound, None, 0)

    @classmethod
    def from_residue(cls, r: int, p: int, abs_prec: int) -> "PAdicObject":
        """Value known to be = r mod p^abs_prec."""
        r %= p**abs_prec
        if r == 0:
            return cls.zero_marker(p, abs_prec)
        v = vp(r, p)
        return cls(p, v, r // p**v, abs_prec - v)

    @classmethod
    def exact(cls, n, p: int, digits: int) -> "PAdicObject":
        """Exact integer or Fraction input, kept to `digits` significant
        digits."""
        if n == 0:
            return cls.zero_marker(p, EXACT_ZERO)
        vnum, vden = vp(n.numerator, p), vp(n.denominator, p)
        mod = p**digits
        m = n.numerator // p**vnum * pow(n.denominator // p**vden, -1, mod)
        return cls(p, vnum - vden, m % mod, digits)

    @classmethod
    def of(cls, n, p: int, N: int) -> "PAdicObject":
        """Input read modulo p^N: N absolute digits of information."""
        if n.denominator % p == 0:
            raise ValueError("denominator not a p-unit")
        return cls.from_residue(n.numerator * pow(n.denominator, -1, p**N),
                                p, N)

    @classmethod
    def one(cls, p: int, digits: int) -> "PAdicObject":
        return cls(p, 0, 1, digits)

    @property
    def is_marker(self) -> bool:
        return self.m is None

    @property
    def is_exact_zero(self) -> bool:
        return self.m is None and self.v >= EXACT_ZERO

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

    def _check(self, other):
        if not isinstance(other, PAdicObject):
            raise TypeError("expected PAdicObject, got %r" % type(other))
        if self.p != other.p:
            raise ValueError("mixed primes %d and %d" % (self.p, other.p))

    def _promote(self, other):
        """An int factor as an exact object, to this object's digits."""
        if isinstance(other, int):
            return PAdicObject.exact(other, self.p,
                                     self.digits or EXACT_SLACK)
        self._check(other)
        return other

    def __neg__(self):
        if self.m is None:
            return self
        return PAdicObject(self.p, self.v, (-self.m) % self.p**self.digits,
                           self.digits)

    def __add__(self, other):
        """x + y known mod p^A, A the lesser absolute precision."""
        self._check(other)
        p = self.p
        A = min(self.abs_prec, other.abs_prec)
        if self.m is None and other.m is None:
            return PAdicObject.zero_marker(p, A)
        if self.m is None or other.m is None:
            x = other if self.m is None else self
            if x.v >= A:
                return PAdicObject.zero_marker(p, A)
            s = min(x.v, 0)
            r = x.m * p**(x.v - s)
        else:
            if min(self.v, other.v) >= A:
                return PAdicObject.zero_marker(p, A)
            s = min(self.v, other.v, 0)
            r = self.m * p**(self.v - s) + other.m * p**(other.v - s)
        # r is p^-s times the sum, an integer even when a valuation is < 0
        y = PAdicObject.from_residue(r, p, A - s)
        return PAdicObject(p, y.v + s, y.m, y.digits) if s else y

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """x * y to the lesser relative precision; a product with a marker
        is a marker whose bound is the sum of valuations and bounds."""
        other = self._promote(other)
        p, v = self.p, self.v + other.v
        if self.m is None or other.m is None:
            return PAdicObject.zero_marker(p, v)
        digits = min(self.digits, other.digits)
        return PAdicObject(p, v, self.m * other.m % p**digits, digits)

    __rmul__ = __mul__

    def inv(self):
        if self.m is None:
            raise ZeroDivisionError("inversion of a zero marker")
        return PAdicObject(self.p, -self.v,
                           pow(self.m, -1, self.p**self.digits), self.digits)

    def __truediv__(self, other):
        return self * self._promote(other).inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer exponent required")
        if k < 0:
            return self.inv() ** (-k)
        if self.m is None:
            if k == 0:
                return PAdicObject.one(self.p, EXACT_SLACK)
            return PAdicObject.zero_marker(self.p, self.v * k)
        if k == 0:
            return PAdicObject.one(self.p, self.digits)
        return PAdicObject(self.p, self.v * k,
                           pow(self.m, k, self.p**self.digits), self.digits)

    def __repr__(self):
        if self.m is None:
            return "O(%d^%d)" % (self.p, min(self.v, EXACT_ZERO))
        return "%d^%d * %d (mod %d^%d)" % (self.p, self.v, self.m,
                                           self.p, self.digits)


def as_object(x) -> PAdicObject:
    """The PAdicObject with the fields of x, an engine PAdicNumber or an
    object."""
    return x if isinstance(x, PAdicObject) else PAdicObject(
        x.p, x.v, x.m, x.digits)


def as_number(x) -> PAdicNumber:
    """The engine PAdicNumber with the fields of an object, as a formal
    product takes its exponents."""
    return PAdicNumber(x.p, x.v, x.m, x.digits)


@dataclass(frozen=True)
class AtLeast:
    """Marker for a valuation only known to be >= bound."""
    bound: int

    def __repr__(self):
        return ">=%d" % self.bound


def valuation(x):
    """Exact valuation of x, or an AtLeast marker for a zero marker."""
    return AtLeast(x.v) if x.m is None else x.v


def shift(x, j: int) -> PAdicObject:
    """Exact multiplication of x by p^j."""
    return PAdicObject(x.p, x.v + j, x.m, x.digits)


def rows(logs) -> tuple:
    """The logs of entries at one place, tuples of p-adic coordinates, as
    the tuples of rows (v, m, digits) that the Kummer path reads."""
    return tuple(tuple((c.v, c.m, c.digits) for c in lg) for lg in logs)


def val_and_unit(x):
    """Split x as p^v * u.  Zero markers yield (AtLeast(bound), None)."""
    if x.m is None:
        return AtLeast(x.v), None
    return x.v, PAdicObject(x.p, 0, x.m, x.digits)


def angle(x) -> PAdicObject:
    """Projection of a unit onto 1 + pZ_p: x divided by its Teichmueller
    part, the engine's padic.teichmueller."""
    return as_object(x) / as_object(teichmueller(as_number(x)))


def plog(x) -> PAdicObject:
    """Logarithm of a 1-unit via the truncated alternating series."""
    x = as_object(x)
    p = x.p
    if x.m is None or x.v != 0 or x.m % p != 1:
        raise ValueError("plog requires an element of 1 + pZ_p")
    A = x.abs_prec
    return PAdicObject.from_residue(
        padic.log_series(x.residue(A) - 1, 0, 0, 0, p, A)[0], p, A)


def log_ratio(u, w) -> PAdicObject:
    """a = log(w)/log(u) for 1-units, so that u^a = w within precision."""
    lu = plog(u)
    if lu.is_marker:
        raise ValueError("log of base is indistinguishable from 0")
    return plog(w) / lu


def angle_log(x) -> PAdicObject:
    """log of the 1-unit projection of a unit x, via log(x^(p-1))/(p-1)."""
    x = as_object(x)
    if not x.is_unit():
        raise ValueError("angle_log requires a unit")
    p, A = x.p, x.digits
    return PAdicObject.from_residue(
        padic.unit_log_residues(x.m, 0, 0, p, A)[0], p, A)


class UnramifiedQuadElem:
    """Element a + b*s of the unramified quadratic extension of Q_p,
    where s^2 = r for a fixed quadratic non-residue r mod p.  The engine
    keeps local logs as coordinate tuples (see `localize`)."""

    __slots__ = ("a", "b", "r")

    def __init__(self, a, b, r: int):
        a, b = as_object(a), as_object(b)
        if a.p != b.p:
            raise ValueError("mixed primes in quadratic element")
        if pow(r % a.p, (a.p - 1) // 2, a.p) != a.p - 1:
            raise ValueError("%d is not a non-residue mod %d" % (r, a.p))
        self.a = a
        self.b = b
        self.r = r

    @property
    def p(self) -> int:
        return self.a.p

    @classmethod
    def from_residues(cls, a: int, b: int, r: int, p: int, abs_prec: int):
        return cls(PAdicObject.from_residue(a, p, abs_prec),
                   PAdicObject.from_residue(b, p, abs_prec), r)

    @classmethod
    def one(cls, r: int, p: int, abs_prec: int):
        return cls.from_residues(1, 0, r, p, abs_prec)

    def _check(self, other):
        if self.p != other.p or self.r != other.r:
            raise ValueError("incompatible quadratic extensions")

    def __add__(self, other):
        self._check(other)
        return UnramifiedQuadElem(self.a + other.a, self.b + other.b, self.r)

    def __neg__(self):
        return UnramifiedQuadElem(-self.a, -self.b, self.r)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a = self.a * other.a + (self.b * other.b) * self.r
        b = self.a * other.b + self.b * other.a
        return UnramifiedQuadElem(a, b, self.r)

    def norm(self) -> PAdicObject:
        return self.a * self.a - (self.b * self.b) * self.r

    def trace(self) -> PAdicObject:
        return self.a * 2

    def conj(self):
        return UnramifiedQuadElem(self.a, -self.b, self.r)

    def inv(self):
        n = self.norm()
        ni = n.inv()
        c = self.conj()
        return UnramifiedQuadElem(c.a * ni, c.b * ni, self.r)

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        one = UnramifiedQuadElem.one(self.r, self.p, max(self.abs_prec, 1))
        return power(UnramifiedQuadElem.__mul__, one, self, k)

    @property
    def abs_prec(self) -> int:
        return min(self.a.abs_prec, self.b.abs_prec)

    def valuation(self):
        """min of coordinate valuations (the unramified valuation)."""
        va, vb = valuation(self.a), valuation(self.b)
        if isinstance(va, AtLeast) and isinstance(vb, AtLeast):
            return AtLeast(min(va.bound, vb.bound))
        if isinstance(va, AtLeast):
            return vb if vb <= va.bound else AtLeast(va.bound)
        if isinstance(vb, AtLeast):
            return va if va <= vb.bound else AtLeast(vb.bound)
        return min(va, vb)

    def is_unit(self) -> bool:
        return self.valuation() == 0

    def is_one_within_precision(self) -> bool:
        d = self - UnramifiedQuadElem.one(self.r, self.p, self.abs_prec)
        va, vb = d.a, d.b
        return va.is_marker and vb.is_marker

    def shift(self, j: int):
        return UnramifiedQuadElem(shift(self.a, j), shift(self.b, j), self.r)

    def log_one_unit(self) -> "UnramifiedQuadElem":
        """Series logarithm; requires self ≡ 1 mod p, its own 1-unit part."""
        p, A = self.p, self.abs_prec
        if (self.a.residue(A) - 1) % p or self.b.residue(A) % p:
            raise ValueError("log requires a 1-unit")
        return self.angle_log()

    def angle_log(self) -> "UnramifiedQuadElem":
        """log of the 1-unit part of a unit, via u^(p^2-1)."""
        if not self.is_unit():
            raise ValueError("angle_log requires a unit")
        p, r, A = self.p, self.r, self.abs_prec
        l0, l1 = padic.unit_log_residues(self.a.residue(A),
                                         self.b.residue(A), r, p, A)
        return UnramifiedQuadElem.from_residues(l0, l1, r, p, A)

    def __repr__(self):
        return "(%r) + (%r)*s  [s^2=%d]" % (self.a, self.b, self.r)


def solve_integral_fractions(A, b):
    """The integer vector x with A x = b, for a square integer matrix A, by
    Gauss-Jordan elimination over Q.  Raises ValueError when A is singular
    (so also when the system is inconsistent) or x is not integral."""
    n = len(A)
    M = [[Fraction(v) for v in row] + [Fraction(b[i])]
         for i, row in enumerate(A)]
    if any(len(row) != n + 1 for row in M):
        raise ValueError("solve_integral needs a square matrix")
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        M[col], M[piv] = M[piv], M[col]
        M[col] = [v / M[col][col] for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                M[r] = [a - M[r][col] * c for a, c in zip(M[r], M[col])]
    x = [M[i][n] for i in range(n)]
    if any(v.denominator != 1 for v in x):
        raise ValueError("the system has no integral solution")
    return [int(v) for v in x]


def _real_sign_fractions(u, v, D: int) -> int:
    """Sign of u + v*sqrt(D), for u, v int or Fraction."""
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


@dataclass(frozen=True)
class FractionElement:
    """x + y*w in coordinates over the integral basis {1, w}, x and y
    Fractions; the arithmetic of quadfield.FieldElement on Fractions."""
    field: object
    x: Fraction
    y: Fraction

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        return FractionElement(self.field, self.x + other.x,
                               self.y + other.y)

    def __neg__(self):
        return FractionElement(self.field, -self.x, -self.y)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionElement(self.field, Fraction(other), Fraction(0))
        self._check(other)
        K = self.field
        a, b, c, d = self.x, self.y, other.x, other.y
        return FractionElement(K, a * c - b * d * K.w_norm,
                               a * d + b * c + b * d * K.w_trace)

    __rmul__ = __mul__

    def conj(self):
        return FractionElement(self.field,
                               self.x + self.y * self.field.w_trace, -self.y)

    def norm(self) -> Fraction:
        K = self.field
        return self.x * self.x + K.w_trace * self.x * self.y \
            + K.w_norm * self.y * self.y

    def trace(self) -> Fraction:
        return 2 * self.x + self.field.w_trace * self.y

    def inv(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverting 0")
        c = self.conj()
        return FractionElement(self.field, c.x / n, c.y / n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionElement(self.field, self.x / other, self.y / other)
        self._check(other)
        return self * other.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        one = FractionElement(self.field, Fraction(1), Fraction(0))
        return _power(FractionElement.__mul__, one, self, k)

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def sqrt_coords(self):
        """(u, v) with self = u + v*sqrt(D)."""
        return (self.x + self.y * self.field.w_trace / 2, self.y / 2)

    def real_sign(self) -> int:
        return _real_sign_fractions(*self.sqrt_coords(), self.field.D)

    def compare_real(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            other = FractionElement(self.field, Fraction(other), Fraction(0))
        return (self - other).real_sign()

    def __str__(self):
        K = self.field
        if K.is_rational:
            return str(self.x)
        u, v = self.sqrt_coords()
        if v == 0:
            return str(u)
        d = K.d
        # render over sqrt(d): u + v*sqrt(D) = u + v'*sqrt(d)
        vp = v * 2 if K.D == 4 * d else v
        s = "sqrt(%d)" % d
        if u == 0:
            return "%s*%s" % (vp, s) if vp != 1 else s
        return "%s %s %s*%s" % (u, "+" if vp > 0 else "-", abs(vp), s)


def leopoldt_defect_log_route(K, p: int, N: int) -> LeopoldtReport:
    """delta = unit rank minus the Z_p-rank of the log image of the closure
    of the global units in the principal local units at p."""
    if p % 2 == 0 or not isprime(p):
        raise ValueError("p must be an odd prime")
    if K.is_rational:
        return LeopoldtReport(K, p, N, 0, None, "ok", p == 3)
    if K.D % p == 0:
        raise ValueError("p = %d ramifies in %s" % (p, K.spec_string()))
    places = completions_above_p(K, p)
    eps = fundamental_unit(K)
    row = []
    for q in places:
        row.extend(loc(eps, q, p, N)[1])
    rank = zp_matrix_rank([row])
    defect = 1 - rank.rank          # the unit rank of a real quadratic field
    reg_val = None
    nonzero = [c.v for c in row if not c.is_marker]
    if nonzero:
        reg_val = min(nonzero)
    status = "ok" if rank.certified else "indeterminate"
    return LeopoldtReport(K, p, N, defect, reg_val, status, p == 3)


def leopoldt_defect_square_exponent(K, p: int, N: int) -> LeopoldtReport:
    """leopoldt_defect with k = p^2 - 1 whatever the splitting of p: a
    multiple of p^f - 1 for both residue degrees f, and prime to p."""
    if K.is_rational:
        return LeopoldtReport(K, p, N, 0, None, "ok", p == 3)
    A, eps = N + 2, fundamental_unit(K)
    m = p**A
    z0, z1 = power(quad_mul(K.w_trace, K.w_norm, m), (1, 0),
                   (eps.a % m, eps.b % m), p * p - 1)
    v = vp(gcd(z0 - 1, z1, m), p)
    if v < A:
        return LeopoldtReport(K, p, N, 0, v, "ok", p == 3)
    return LeopoldtReport(K, p, N, 1, None, "indeterminate", p == 3)


def cyclotomic_dlog_log_route(n: int, p: int, M: int) -> int:
    """log<n>/log(1+p) mod p^(M-1), as classfield.cyclotomic_log reads it
    on integer residues."""
    if n % p == 0:
        raise ValueError("n must be coprime to p")
    x = PAdicObject.exact(abs(n), p, M)
    deg = angle_log(x) / plog(PAdicObject.exact(1 + p, p, M))
    if deg.is_marker:
        return 0
    return deg.residue(M - 1)


def degree_log_route(G, q) -> PAdicObject:
    """deg(Frob_q) = log<N(q)> / log(1+p), as GaloisGroupG.degree read it."""
    p = G.p
    M = G.N + 1
    x = PAdicObject.exact(q.norm, p, M + 2)
    return angle_log(x) / plog(PAdicObject.exact(1 + p, p, M + 2))


def mq_generator_log_route(K, p: int, Q, N: int) -> FrobeniusModuleReport:
    """a1 = -log<N(q2)>/log<N(q1)>, a2 = 1, as iwasawa.mq_generator read
    it."""
    if N < 1:
        raise ValueError("N must be at least 1")
    q1, q2 = _check_q_pair(K, p, *Q)
    work = N + 2
    l1 = angle_log(PAdicObject.exact(q1.norm, p, work))
    l2 = angle_log(PAdicObject.exact(q2.norm, p, work))
    a1 = -(l2 / l1)
    # degree-0 check: a1*log<N(q1)> + log<N(q2)> vanishes within precision
    resid = a1 * l1 + l2
    if not resid.is_marker:
        raise InternalCheckError("degree-0 combination failed to vanish")
    return FrobeniusModuleReport(K, p, N, q1, q2, a1, 1, resid.v)


def rounded_degree_zero_log_route(G, q1, q2):
    """(F1, F2, v1, g): the Frobenius classes of q1 and q2 in G, v1 the
    valuation of the order of F1, and the rounded degree-0 element, as
    mq_order reads them at a level."""
    p = G.p
    F1 = G.frobenius_class(q1)
    F2 = G.frobenius_class(q2)
    o1 = element_order(G.group, F1)
    v1 = vp(o1, p) if o1 % p == 0 else 0
    work = max(G.N + 2, v1 + 3)
    l1 = angle_log(PAdicObject.exact(q1.norm, p, work))
    l2 = angle_log(PAdicObject.exact(q2.norm, p, work))
    a1 = -(l2 / l1)
    if a1.abs_prec < v1:
        raise PrecisionError("insufficient precision to fix the class of "
                             "the degree-0 element at level %d" % G.N)
    a1_int = a1.residue(v1) if v1 > 0 else 0
    return F1, F2, v1, G.group.add(G.group.scale(a1_int, F1), F2)


def mq_order_log_route(K, p: int, Q, N: int) -> FrobeniusModuleReport:
    """iwasawa.mq_order on the log route, without its subgroup
    cross-check."""
    rep = mq_generator_log_route(K, p, Q, N)
    orders = []
    groups = []
    for L in (N, N + 2):
        G = group_G(K, p, L)
        g = rounded_degree_zero_log_route(G, rep.q1, rep.q2)[3]
        orders.append(element_order(G.group, g))
        groups.append(G)
    rep.m_q = orders[0]
    rep.stable = orders[0] == orders[1]
    rep.provisional_orders = tuple(orders)
    rep.group_invariants = groups[0].group.invariant_factors
    return rep


# ------------------------------------------- references moved from the engine

def sqrt_pair(K, u, v) -> FieldElement:
    """The element u + v*sqrt(D) of K, for rationals u, v."""
    if K.is_rational:
        if v != 0:
            raise ValueError("no sqrt part over Q")
        return K.element(u)
    return K.element(u - v * K.D, 2 * v)


def real_sign(x: FieldElement) -> int:
    """Sign of x under the embedding with sqrt(D) > 0, by the engine's
    integer test: den > 0 and 2*(a + b*w) = (2a + bD) + b*sqrt(D)."""
    D = x.field.D
    return _real_sign(2 * x.a + x.b * D, x.b, D)


def compare_real(x: FieldElement, y) -> int:
    """Sign of x - y, for y a field element or a rational."""
    if not isinstance(y, FieldElement):
        y = x.field.element(y)
    return real_sign(x - y)


def scale_exponents(alpha: SUnitProduct, n: int) -> SUnitProduct:
    """alpha^n, as the formal product with every exponent times n."""
    n = PAdicObject.exact(n, alpha.p, alpha.prec + 4)
    return SUnitProduct(alpha.entries, alpha.p,
                        [as_number(as_object(e) * n)
                         for e in alpha.exponents], alpha.prec)


def log_sum_objects(exponents, logs) -> tuple:
    """localize.log_sum on PAdicObjects, one per product and one per sum,
    as it was taken before it read the integers of its terms."""
    total = None
    for e, lg in zip(exponents, logs):
        term = tuple(as_object(c) * as_object(e) for c in lg)
        total = term if total is None else tuple(
            x + y for x, y in zip(total, term))
    return total


def valuation_at_objects(x: SUnitProduct, q) -> PAdicObject:
    """SUnitProduct.valuation_at on PAdicObjects, as it was taken before it
    read the integers of its terms and gave them as a row."""
    total = PAdicObject.exact(0, x.p, x.prec + 4)
    for e, entry in zip(x.exponents, x.entries):
        v = entry.valuations.get(q, 0)
        if v:
            total = total + as_object(e) * PAdicObject.exact(v, x.p,
                                                             x.prec + 4)
    return total


def solve_unit_exponent_objects(alpha0: SUnitProduct, logs):
    """x, the negation of kummer._solve_unit_exponent, on PAdicObjects, a
    quotient and a difference of objects per coordinate, as it was taken
    before it read the integers of the coordinates."""
    x = None
    checks = []
    for _, lg in logs:
        la = log_sum_objects(alpha0.exponents, lg)
        le = [as_object(c) for c in lg[1]]
        for ca, ce in zip(la, le):
            if ce.is_marker:
                continue
            cand = ca / ce
            if cand.m is not None and cand.v < 0:
                raise InternalCheckError("unit correction is not integral")
            if x is None:
                x = cand
            else:
                checks.append((ca, ce))
    if x is None:
        raise PrecisionError("precision underflow in the unit-correction solve")
    for (ca, ce) in checks:
        resid = ca - x * ce
        if not resid.is_marker:
            raise InternalCheckError("unit correction inconsistent across "
                                     "places")
    return x


def zp_matrix_rank_objects(matrix) -> RankReport:
    """Z_p-rank of a matrix of p-adic numbers by valuation-pivoted
    elimination on PAdicObjects, as localize.zp_matrix_rank took it before
    it eliminated on rows.  The pivot is the first entry of least
    valuation, row by row, that is not a marker.  The rank counts certified
    pivots; `certified` is False when entries below working precision,
    markers that are not exact zeros, could hide further pivots."""
    rows = [[as_object(e) for e in r] for r in matrix]
    rank = 0
    certified = True
    while rows and rows[0]:
        best = None
        for i, r in enumerate(rows):
            for j, e in enumerate(r):
                if not e.is_marker and (best is None or e.v < best[2].v):
                    best = (i, j, e)
        if best is None:
            if any(not e.is_exact_zero for r in rows for e in r):
                certified = False
            break
        bi, bj, piv = best
        rank += 1
        inv = piv.inv()
        new_rows = []
        for i, r in enumerate(rows):
            if i == bi:
                continue
            coef = r[bj] * inv
            nr = [r[j] - coef * rows[bi][j] for j in range(len(r)) if j != bj]
            new_rows.append(nr)
        rows = new_rows
    return RankReport(rank, certified)


def group_identity(G: FiniteAbelianGroup) -> GroupElement:
    """The identity element of G."""
    return GroupElement((0,) * len(G.invariant_factors))


def group_record(G: FiniteAbelianGroup) -> tuple:
    """(diag, transform) of G, all that its other fields are read off: two
    presented groups are the same record when these are equal."""
    return G.diag, G.transform


def solve_dlog(G: FiniteAbelianGroup, g: GroupElement, h: GroupElement):
    """n with n*g = h in G, or None."""
    r, m = 0, 1
    for d, gi, hi in zip(G.invariant_factors, g.coords, h.coords):
        a, b = gi % d, hi % d
        q = gcd(a, d)
        if b % q != 0:
            return None
        if d == q:
            continue  # a = 0, b = 0: no constraint
        ri = (b // q) * pow(a // q, -1, d // q) % (d // q)
        merged = crt(r, m, ri, d // q)
        if merged is None:
            return None
        r, m = merged
    return r


def s_unit_basis(K, Q_ideals) -> list:
    """Generators {-1, eps, ...} of the Q-unit group."""
    return [e.element for e in SUnitBasisData(K, Q_ideals).entries]


def inertia_rank(T, places, p: int, N: int) -> RankReport:
    """Z_p-rank of the closure of T in the product of the completions at
    the prime ideals `places` (equivalently, of the inertia image in the
    Kummer extension)."""
    rows = []
    for t in T:
        row = []
        for q in places:
            v, unit_log = loc(t, q, p, N)
            if isinstance(v, int):
                row.append(PAdicNumber.exact(v, p, N + 2))
            else:
                row.append(v)
            row.extend(unit_log)
        rows.append(row)
    return zp_matrix_rank(rows)


def same_kummer_extension(x, y, K, p: int) -> str:
    """Do x and y generate the same Kummer Z_p-extension?  True iff their
    joint closure has rank 1."""
    for t in (x, y):
        r = kummer_rank([t], K, p)
        if r.rank == 0 and r.certified:
            raise ValueError("input is torsion; no Kummer extension")
        if r.rank == 0:
            return INDET  # cannot certify the non-torsion precondition
    r = kummer_rank([x, y], K, p)
    if r.rank == 1 and r.certified:
        return TRUE
    if r.rank == 2:
        return FALSE
    return INDET


def degree_zero_pair_element(G, q1, q2):
    """Rounded image of the degree-0 generator for (q1, q2) in G, as
    mq_order reads it at a level: a1*F1 + F2, a1 of _degree_zero_a1 read
    mod p^v1, p^v1 the order of F1."""
    F1, F2 = (G.frobenius_class(q) for q in (q1, q2))
    v1 = vp(element_order(G.group, F1), G.p)
    a1 = _degree_zero_a1(q1, q2, G.p, v1 + 1)
    return G.group.add(G.group.scale(a1, F1), F2)


# ------------------------------------------------------------ value types
# The dataclass definitions that the engine's value types had: the same
# fields in the same order, the same compare flags and the same decorator
# flags, so the same generated __eq__ and __hash__.  The generated __init__
# takes the fields as the engine value holds them.

@dataclass(frozen=True, slots=True)
class DataclassField:
    d: int | None
    D: int = dataclass_field(compare=False)
    sqrtD_floor: int = dataclass_field(compare=False)
    w_trace: int = dataclass_field(compare=False)
    w_norm: int = dataclass_field(compare=False)


@dataclass(frozen=True, slots=True)
class DataclassElement:
    field: DataclassField
    a: int
    b: int
    den: int


@dataclass(frozen=True)
class DataclassIdeal:
    field: DataclassField
    a: int
    b: int
    c: int


@dataclass(frozen=True)
class DataclassGroupElement:
    coords: tuple


@dataclass(frozen=True)
class DataclassSplittingReport:
    kind: str
    ideals: tuple
    residue_degree: int
    ramification: int


@dataclass(frozen=True)
class DataclassSUnitBasisEntry:
    element: DataclassElement
    valuations: MappingProxyType
    label: str
    kind: str


def dataclass_twin(x):
    """The reference dataclass value of an engine value x, its fields
    (and the values inside them) twinned in turn."""
    if isinstance(x, RealQuadraticField):
        return DataclassField(x.d, x.D, x.sqrtD_floor, x.w_trace, x.w_norm)
    if isinstance(x, FieldElement):
        return DataclassElement(dataclass_twin(x.field), x.a, x.b, x.den)
    if isinstance(x, IntegralIdeal):
        return DataclassIdeal(dataclass_twin(x.field), x.a, x.b, x.c)
    if isinstance(x, GroupElement):
        return DataclassGroupElement(x.coords)
    if isinstance(x, SplittingReport):
        return DataclassSplittingReport(
            x.kind, tuple(dataclass_twin(q) for q in x.ideals),
            x.residue_degree, x.ramification)
    if isinstance(x, SUnitBasisEntry):
        vals = {dataclass_twin(q): v for q, v in x.valuations.items()}
        return DataclassSUnitBasisEntry(dataclass_twin(x.element),
                                        MappingProxyType(vals), x.label,
                                        x.kind)
    raise TypeError("no dataclass twin for %r" % (x,))
