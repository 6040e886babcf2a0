"""Seeded query streams for the benchmark workloads, the answer document of
each query and the invariants every answer must satisfy.

A run of a workload answers one seeded batch of queries, ``batch(workload,
seed)``, several times, each time in a fresh Python process (a session),
so module caches start empty exactly as they do for one CLI invocation.
The same arguments always give the same queries.

This module uses the standard library only.  The library is passed in as a
module object (``lib``) so that a traced run can rebind its names first.
"""

from __future__ import annotations

import functools
import math
import random

DEFAULT_SEED = 1

# leopoldt-scan: every query is a new field Q(sqrt d), d squarefree, drawn
# without replacement from SCAN_D_RANGE; p is drawn from the primes of
# SCAN_PRIMES that do not ramify in the field.
SCAN_D_RANGE = (2, 50_000)
SCAN_PRIMES = (3, 5, 7)
SCAN_PREC = 8
SCAN_BATCH = 1500

# kummer-alpha: (d, p, q1, q2, N_max), d = 1 meaning Q.  A prime spec is a
# rational prime, with an a/b suffix selecting one of the two primes above
# a split prime.  N_max keeps every ray-class level a group touches (up to
# p^(N_max + 4)) below the level where the SNF blow-up of that fixture sets
# in; those levels are listed as known defects in README.md.
ALPHA_FIXTURES = (
    (1, 3, "2", "5", 24),
    (1, 5, "2", "3", 24),
    (2, 3, "5", "7a", 20),
    (2, 5, "2a", "3", 12),
    (3, 5, "2", "3", 8),
    (5, 3, "2", "7", 20),
    (7, 3, "5", "11", 18),
    (7, 5, "3a", "3b", 10),
    (10, 3, "7", "41a", 20),
    (11, 5, "3", "13", 9),
    (13, 3, "2", "5", 16),
    (79, 3, "2a", "5a", 20),
)
# The first query of a batch is the conductor where the SNF coefficient
# growth of the Q(sqrt 79), p = 3 ray class groups shows (3^28 is its top
# level); first, so that a batch cut by the deadline has it too.
ALPHA_SNF_CASE = (79, 3, "2a", "5a", 24)
# A group is one (fixture, N0) pair asked at N0, N0 + 1, N0 + 2 and N0 again,
# so its queries share a field, a q-pair and ray-class levels.  A batch has
# ALPHA_GROUPS_PER_FIXTURE groups of every fixture, their N0 drawn one from
# each equal part of the fixture's range, in a seeded order.
ALPHA_GROUP_OFFSETS = (0, 1, 2, 0)
ALPHA_GROUPS_PER_FIXTURE = 4

# big-conductor: class groups of Q(sqrt d) with d squarefree in
# CLASS_D_RANGE, and p-parts of ray class groups of conductor ell for primes
# ell inert in a small field, ell in RAY_ELL_RANGE.  One query in
# BIG_PATTERN_LEN is a class group: their cost spreads over two orders of
# magnitude with no order in d, so with more of them the median latency
# moved from seed to seed.  The primitive-root search of (O/ell)* starts
# with the run of candidates y*w; it fails on the whole run when w is a
# q-th power for a prime q dividing ell + 1 (see _run_failure), and such a
# query costs about ten times one where the run succeeds.  The ray-class
# queries of a batch take a failing pair (field, ell) in the share
# ray_fail_share() counts over all pairs of the ranges, spread evenly
# through the batch.  Each kind is a stratified draw: one pair from each of
# as many equal parts of its pairs, sorted by expected cost (_ray_pairs), as
# the batch has queries of that kind, and one class group from each of as
# many equal parts of CLASS_D_RANGE on a log scale.  That keeps the cost mix
# of a batch from drifting with the seed.
CLASS_D_RANGE = (2_000, 10_000)
RAY_FIELDS = (2, 5, 7, 10, 11, 13, 14, 17, 19, 22, 23, 26, 29, 31)
RAY_ELL_RANGE = (1_000, 2_000)
RAY_P = 3
BIG_PATTERN_LEN = 16
BIG_BATCH = 160

# Every batch opens with the selftest's alpha round trip over Q: it enters
# all nine layers in about 10 ms, so each layer's time in a traced run is
# measured on every workload instead of being 0 where a workload's own
# queries never reach it.
SMOKE_QUERY = ("alpha", 1, 3, "2", "5", 3)

WORKLOADS = ("leopoldt-scan", "kummer-alpha", "big-conductor")


# ------------------------------------------------------------ arithmetic

def is_squarefree(n: int) -> bool:
    q = 2
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        q += 1 if q == 2 else 2
    return True


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    q = 3
    while q * q <= n:
        if n % q == 0:
            return False
        q += 2
    return True


def discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def vp(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


# ------------------------------------------------------------ generation

def batch(workload: str, seed: int) -> list:
    """SMOKE_QUERY, then the seeded queries of the workload."""
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "leopoldt-scan":
        return [SMOKE_QUERY] + _scan_queries(rng)
    if workload == "kummer-alpha":
        return [SMOKE_QUERY, ("alpha",) + ALPHA_SNF_CASE] \
            + _alpha_queries(rng)
    if workload == "big-conductor":
        return [SMOKE_QUERY] + _big_queries(rng)
    raise ValueError("unknown workload %r" % workload)


def _scan_queries(rng):
    out, seen = [], set()
    lo, hi = SCAN_D_RANGE
    while len(out) < SCAN_BATCH:
        d = rng.randrange(lo, hi)
        if d in seen or not is_squarefree(d):
            continue
        seen.add(d)
        primes = [p for p in SCAN_PRIMES if discriminant(d) % p]
        if primes:
            out.append(("leopoldt", d, rng.choice(primes), SCAN_PREC))
    return out


def _alpha_queries(rng):
    k = ALPHA_GROUPS_PER_FIXTURE
    groups = []
    for d, p, q1, q2, n_max in ALPHA_FIXTURES:
        lo, hi = 2, n_max - max(ALPHA_GROUP_OFFSETS)
        for i in range(k):
            a = lo + (hi - lo + 1) * i // k
            b = lo + (hi - lo + 1) * (i + 1) // k - 1
            groups.append((d, p, q1, q2, rng.randint(a, max(a, b))))
    rng.shuffle(groups)
    out = []
    for d, p, q1, q2, n0 in groups:
        out.extend(("alpha", d, p, q1, q2, n0 + off)
                   for off in ALPHA_GROUP_OFFSETS)
    return out


def _big_queries(rng):
    share = ray_fail_share()
    n_class = len(range(0, BIG_BATCH, BIG_PATTERN_LEN))
    n_ray = BIG_BATCH - n_class
    n_fail = int(n_ray * share)
    classes = iter(_class_fields(rng, n_class))
    failing = iter(_stratified(rng, _ray_pairs(True), n_fail))
    plain = iter(_stratified(rng, _ray_pairs(False), n_ray - n_fail))
    out = []
    n = 0
    for i in range(BIG_BATCH):
        if i % BIG_PATTERN_LEN == 0:
            out.append(("classgroup", next(classes)))
            continue
        # the first n ray-class queries hold int(n * share) failing runs
        fails = int((n + 1) * share) > int(n * share)
        n += 1
        ell, d = next(failing if fails else plain)
        out.append(("rayclass", d, ell, RAY_P))
    return out


@functools.lru_cache(maxsize=None)
def _ray_pairs(fails: bool) -> tuple:
    """The pairs (ell, d), d in RAY_FIELDS, ell in RAY_ELL_RANGE prime and
    inert in Q(sqrt d), whose run of candidates y*w fails (or not), sorted
    by their expected cost: ell times the position _run_failure gives for
    a failing pair, ell for the others."""
    pairs = []
    for d in RAY_FIELDS:
        for ell in range(*RAY_ELL_RANGE):
            if _inert_prime(d, ell):
                pos = _run_failure(d, ell)
                if (pos > 0) == fails:
                    pairs.append((ell * max(pos, 1), ell, d))
    return tuple((ell, d) for _, ell, d in sorted(pairs))


def ray_fail_share() -> float:
    """Share of the pairs (field, inert ell) whose run of y*w fails."""
    n_fail, n_plain = len(_ray_pairs(True)), len(_ray_pairs(False))
    return n_fail / (n_fail + n_plain)


def _stratified(rng, population, n):
    """One member from each of n parts of equal count of population, in a
    seeded order."""
    out = [population[rng.randrange(len(population) * i // n,
                                    len(population) * (i + 1) // n)]
           for i in range(n)]
    rng.shuffle(out)
    return out


def _class_fields(rng, n):
    """n squarefree d, one log-uniform in each of n equal parts of
    CLASS_D_RANGE on a log scale, in a seeded order."""
    lo, hi = (math.log(b) for b in CLASS_D_RANGE)
    step = (hi - lo) / n
    out = []
    for i in range(n):
        d = int(math.exp(rng.uniform(lo + step * i, lo + step * (i + 1))))
        while not is_squarefree(d):
            d += 1
        out.append(d)
    rng.shuffle(out)
    return out


def _inert_prime(d: int, ell: int) -> bool:
    return is_prime(ell) and _legendre(discriminant(d), ell) == -1


def _legendre(a: int, ell: int) -> int:
    r = pow(a % ell, (ell - 1) // 2, ell)
    return -1 if r == ell - 1 else r


def _run_failure(d: int, ell: int) -> int:
    """0 when the run of candidates y*w holds a generator of (O/ell)*, else
    the position, among the primes dividing ell^2 - 1 in increasing order,
    of the first prime q dividing ell + 1 with w^((ell^2 - 1)/q) = 1.
    (y*w)^((ell^2 - 1)/q) = w^((ell^2 - 1)/q) for every prime q dividing
    ell + 1, so then the whole run fails, and the search's test of a
    candidate gets at most that far down the primes: the cost of such a
    query grows about as ell times that position."""
    D = discriminant(d)
    trace, norm = D, (D * D - D) // 4   # w^2 = trace*w - norm

    def mul(u, v):
        return ((u[0] * v[0] - u[1] * v[1] * norm) % ell,
                (u[0] * v[1] + u[1] * v[0] + u[1] * v[1] * trace) % ell)

    def power(u, k):
        r = (1, 0)
        while k:
            if k & 1:
                r = mul(r, u)
            u = mul(u, u)
            k >>= 1
        return r

    n = ell * ell - 1
    primes = sorted(set(_prime_factors(ell - 1))
                    | set(_prime_factors(ell + 1)))
    for pos, q in enumerate(primes, 1):
        if (ell + 1) % q == 0 and power((0, 1), n // q) == (1, 0):
            return pos
    return 0


def _prime_factors(n: int) -> list:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def query_key(q) -> str:
    return " ".join(str(t) for t in q)


# ------------------------------------------------------------- execution

def _field(lib, d):
    return lib.RealQuadraticField.rationals() if d == 1 \
        else lib.RealQuadraticField(d)


def _prime(lib, K, spec):
    if K.is_rational:
        return int(spec)
    which = 0
    if spec[-1] in "ab":
        which = "ab".index(spec[-1])
        spec = spec[:-1]
    return lib.factor_rational_prime(K, int(spec)).ideals[which]


def answer(lib, q) -> dict:
    """Answer one query through the public API; returns the JSON document
    the CLI would print for it (without the "schema" field)."""
    kind = q[0]
    if kind == "leopoldt":
        _, d, p, N = q
        K = _field(lib, d)
        rep = lib.leopoldt_defect(K, p, N)
        if rep.status == "indeterminate":
            # the p-adic regulator lies beyond precision N (valuation 10 for
            # Q(sqrt 21713), p = 3): ask again at twice the precision, as a
            # user of scan does on its "indeterminate" exit code
            rep = lib.leopoldt_defect(K, p, 2 * N)
        return rep.to_json()
    if kind == "alpha":
        _, d, p, s1, s2, N = q
        K = _field(lib, d)
        Q = (_prime(lib, K, s1), _prime(lib, K, s2))
        return lib.construct_alpha(K, p, Q, N).to_json()
    if kind == "classgroup":
        K = _field(lib, q[1])
        clg = lib.class_group(K)
        return {"field": K.spec_string(), "h": clg.h,
                "invariant_factors": list(clg.invariant_factors)}
    if kind == "rayclass":
        _, d, ell, p = q
        K = _field(lib, d)
        rc = lib.ray_class_group(K, ell, p)
        ident = rc.order_identity()
        return {"field": K.spec_string(), "modulus": ell, "p": p,
                "p_invariant_factors": list(rc.p_group.invariant_factors),
                "p_order": rc.p_order,
                "order_identity": {"full": list(ident["full"]),
                                   "p": list(ident["p"])}}
    raise ValueError("unknown query kind %r" % kind)


def _product(xs):
    n = 1
    for x in xs:
        n *= x
    return n


def _chain(factors):
    return all(f > 1 for f in factors) and all(
        b % a == 0 for a, b in zip(factors, factors[1:]))


def invariant_error(q, doc):
    """None when the answer satisfies the invariants the benchmark can check
    on its own, else a one-line reason."""
    kind = q[0]
    if kind == "leopoldt":
        # Leopoldt's conjecture holds for every real quadratic field
        if doc["delta"] != 0 or doc["status"] != "ok":
            return "leopoldt: delta %r status %r" % (doc["delta"],
                                                     doc["status"])
        return None
    if kind == "alpha":
        # accepted implies m_Q was stable at N and N + 2 (verify_alpha
        # reports "indeterminate" otherwise); the valuations of alpha must
        # generate the ideal (m_Q) of Z_p
        p, m_q = q[2], doc["m_Q"]
        if doc["status"] != "accepted":
            return "alpha: status %r" % doc["status"]
        if m_q < 1 or doc["a_exponent"] != vp(m_q, p):
            return "alpha: a-exponent %r for m_Q %r" % (doc["a_exponent"],
                                                        m_q)
        return None
    if kind == "classgroup":
        inv = doc["invariant_factors"]
        if doc["h"] != _product(inv) or not _chain(inv):
            return "classgroup: h %r invariants %r" % (doc["h"], inv)
        return None
    if kind == "rayclass":
        # |Cl_m| * |im E| = |Cl| * |(O/m)*|, in full and in the p-part
        full, ppart = doc["order_identity"]["full"], \
            doc["order_identity"]["p"]
        inv = doc["p_invariant_factors"]
        if full[0] != full[1] or ppart[0] != ppart[1]:
            return "rayclass: order identity %r %r" % (full, ppart)
        if doc["p_order"] != _product(inv) or not _chain(inv):
            return "rayclass: p-part %r invariants %r" % (doc["p_order"], inv)
        return None
    return "unknown query kind %r" % kind
