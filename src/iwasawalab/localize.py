"""Localization at the finite places of F, and the rank and torsion
criteria on it: formal S-unit products, local torsion tests, S-unit
membership, and the Z_p-rank of a matrix of local coordinates.

A place is the prime ideal q that `quadfield.factor_rational_prime`
returns, and its kind is `quadfield.prime_kind(q)`.  `loc(x, q, p, N)` is
the pair (valuation, unit log) of a field element or of an `SUnitProduct`,
a formal product of S-unit basis entries (`quadfield`) with Z_p exponents.
A local log is a tuple of coordinates: () away from p, where only the
valuation contributes to any Z_p-rank; one coordinate at a split or
rational place above p; two at an inert one, over {1, s}, s = sqrt(D).
The log is taken on integer residues by `padic.unit_log_residues`, and its
coordinates are rows (v, m, digits) (padic.residue_row) throughout:
`entry_logs` takes those of the entries of an S-unit product at one prime,
`log_sum` sums them with the product's exponents, one padic.dot_row per
coordinate, a product's valuation is the row of one dot_row
(`SUnitProduct.valuation_at`), and `is_loc_torsion` and `eq_membership`
read the rows.  `zp_matrix_rank` reads its entries as rows too and
eliminates on them, each step one padic.dot_row.  Besides a product's
exponents, only `loc` builds PAdicNumbers, the ones it returns.  The Kummer
certificate keeps the entry logs of each prime for all its reads.
"""

from __future__ import annotations

from .ntheory import InternalCheckError, check_int
from .padic import (EXACT_ZERO_BOUND, PAdicNumber, dot_row, residue_row,
                    unit_log_residues, vp)
from .quadfield import (FieldElement, IntegralIdeal, RealQuadraticField,
                        check_odd_prime, ideal_valuation, parts_valuation,
                        prime_ideals_above, prime_kind, split_root)

TRUE, FALSE, INDET = "true", "false", "indeterminate"


def completions_above_p(K: RealQuadraticField, p: int):
    """The prime ideals of K above p; p must be odd and unramified in K."""
    check_odd_prime(p, K)
    return prime_ideals_above(K, p)


def _coordinates(a: int, b: int, den: int, q: IntegralIdeal, kind: str,
                 work: int):
    """(a + b*w)/den mod p^work for a p-unit den, as the pair over {1, s},
    s = sqrt(D), at an inert q over p = q.a and as (residue, 0) otherwise;
    `kind` is prime_kind(q)[1]."""
    mod = q.a**work
    inv = pow(den, -1, mod)
    if kind == "inert":           # w = (D + s)/2 in coordinates over {1, s}
        inv2 = pow(2, -1, mod)
        return (a + b * q.field.D * inv2) * inv % mod, b * inv2 * inv % mod
    w = split_root(q, work) if kind == "split" else 0
    return (a + b * w) * inv % mod, 0


def _element_unit_log(x: FieldElement, q: IntegralIdeal, N: int):
    """(v, the rows of the log of the 1-unit part of x) at a prime q above
    p.  With x = (a + b*w)/den and s = v + v_p(den) = v_q(a + b*w),
    the unit x/p^v is read to A = N + max(v, 0) + 2 - v digits: the
    coordinates of (a + b*w)/den' mod p^(A + s), den = p^v_p(den)*den',
    divided by p^s."""
    a, b, den = x.a, x.b, x.den
    v = parts_valuation(a, b, den, q)
    p, kind = prime_kind(q)
    vden = vp(den, p)
    s, A = v + vden, N + max(v, 0) + 2 - v
    c0, c1 = _coordinates(a, b, den // p**vden, q, kind, A + s)
    ps = p**max(s, 0)
    u0, u1 = c0 // ps, c1 // ps
    if s < 0 or c0 % ps or c1 % ps or not (u0 % p or u1 % p):
        raise InternalCheckError("x/p^%d is not a unit at %s" % (v, q))
    r = q.field.D if kind == "inert" else 0
    l0, l1 = unit_log_residues(u0, u1, r, p, A)
    return v, tuple(residue_row(c, p, A) for c in ((l0, l1) if r else (l0,)))


class SUnitProduct:
    """Formal product of S-unit basis entries with Z_p exponents."""

    def __init__(self, entries, p: int, exponents, prec: int):
        check_odd_prime(p)
        check_int("prec", prec)
        self.entries = tuple(entries)
        self.p = p
        self.prec = prec
        self.exponents = []
        for e in exponents:
            if isinstance(e, int) and not isinstance(e, bool):
                e = PAdicNumber.exact(e, p, prec + 4)
            elif not (isinstance(e, PAdicNumber) and e.p == p):
                raise ValueError("an exponent must be an int or a %d-adic "
                                 "PAdicNumber, got %r" % (p, e))
            self.exponents.append(e)
        if len(self.exponents) != len(self.entries):
            raise ValueError("exponent vector has wrong length")

    def valuation_at(self, q: IntegralIdeal) -> tuple:
        """The row of sum_i e_i * v_q(entry_i): one padic.dot_row of the
        exponents and the rows (k, n / p^k, prec + 4) of the nonzero
        valuations n, p^k || n (a mantissa dot_row need not have reduced),
        an exact zero its first product, so that with no other it is the
        exact-zero marker."""
        p, digits = self.p, self.prec + 4
        pairs = [((EXACT_ZERO_BOUND, None, 0), (0, 1, digits))]
        for e, entry in zip(self.exponents, self.entries):
            n = entry.valuations.get(q, 0)
            if n:
                k = vp(n, p)
                pairs.append(((e.v, e.m, e.digits), (k, n // p**k, digits)))
        return dot_row(p, pairs)

    def to_json(self):
        return {
            "basis": [e.label for e in self.entries],
            "exponents": [repr(e) for e in self.exponents],
        }


def loc(x, q: IntegralIdeal, p: int, N: int):
    """Localization of a field element or formal S-unit product at the
    prime ideal q: the pair (valuation, unit log as PAdicNumbers).

    The 1-unit log is computed only at primes above the working prime p;
    away from p the unit part is torsion in the pro-p completion and only
    the valuation matters.
    """
    val, unit_log = _loc_rows(x, q, p, N)
    if isinstance(x, SUnitProduct):
        val = PAdicNumber(x.p, *val)
    return val, tuple(PAdicNumber(p, *c) for c in unit_log)


def _loc_rows(x, q: IntegralIdeal, p: int, N: int):
    """loc with the unit log, and a product's valuation, as rows."""
    ell, kind = prime_kind(q)
    with_log = ell == p and kind != "ramified"
    if isinstance(x, FieldElement):
        if not with_log:
            return ideal_valuation(x, q), ()
        return _element_unit_log(x, q, N)
    if not isinstance(x, SUnitProduct):
        raise TypeError("loc expects a FieldElement or SUnitProduct")
    val = x.valuation_at(q)
    if not with_log:
        return val, ()
    return val, log_sum(x.exponents, entry_logs(x.entries, q, N))


def entry_logs(entries, q: IntegralIdeal, N: int) -> tuple:
    """The unit log of the element of each basis entry at the prime q above
    p, in the order of `entries`, as rows."""
    return tuple(_element_unit_log(entry.element, q, N)[1]
                 for entry in entries)


def log_sum(exponents, logs) -> tuple:
    """sum_i e_i * log_i, coordinate by coordinate, for logs as rows: one
    padic.dot_row of the exponents and each column.  An exact-zero exponent
    does not cap the precision of the sum: its term is a zero marker of
    bound padic.EXACT_ZERO_BOUND (10^9) plus the valuation of log_i."""
    p, rows = exponents[0].p, [(e.v, e.m, e.digits) for e in exponents]
    return tuple(dot_row(p, zip(rows, column)) for column in zip(*logs))


def is_loc_torsion(x, q: IntegralIdeal, p: int, N: int) -> str:
    """Whether loc(x) is torsion in the pro-p completion at q."""
    return torsion_status(*_loc_rows(x, q, p, N))


def torsion_status(val, unit_log) -> str:
    """Whether a localization (valuation, an int or a product's row; unit
    log as rows) is torsion in the pro-p completion.  A marker valuation is
    zero, certified from bound 1 on, as an exact zero's is."""
    zero, certified = ((val == 0, True) if isinstance(val, int)
                       else (val[1] is None, val[0] >= 1))
    # away from p the log is (): the unit part is torsion in the pro-p
    # completion
    if not zero or any(m is not None for _, m, _ in unit_log):
        return FALSE
    return TRUE if certified else INDET


def eq_membership(x: SUnitProduct, Q_ideals) -> bool:
    """Does x lie in the completed Q-unit group, i.e. supported on Q only?
    Every prime off Q where an entry whose exponent is not exactly 0 has a
    nonzero valuation must give x a marker valuation."""
    off_q = {q for e, entry in zip(x.exponents, x.entries)
             if not e.is_exact_zero for q in entry.valuations} - set(Q_ideals)
    return all(x.valuation_at(q)[1] is None for q in off_q)


class RankReport:
    """A Z_p-rank, and whether it is certified."""

    def __init__(self, rank: int, certified: bool):
        self.rank, self.certified = rank, certified


def zp_matrix_rank(matrix) -> RankReport:
    """Z_p-rank of a matrix of PAdicNumbers by valuation-pivoted elimination
    on their rows (v, m, digits).

    The pivot is the first entry of least valuation, row by row, that is
    not a marker.  Each other row r loses c = r[j] / pivot times the pivot
    row, with -c one padic.dot_row and each entry r[k] - c * pivot[k]
    another, of the pairs (r[k], 1) and (-c, pivot[k]), 1 exact.  The rank
    counts certified pivots; `certified` is False when entries below
    working precision, markers that are not exact zeros, could hide
    further pivots.
    """
    rows = [list(r) for r in matrix]
    p = rows[0][0].p if rows and rows[0] else None
    rows = [[(e.v, e.m, e.digits) for e in r] for r in rows]
    one = (0, 1, EXACT_ZERO_BOUND)
    rank = 0
    while rows and rows[0]:
        live = [(v, i, j) for i, r in enumerate(rows)
                for j, (v, m, _) in enumerate(r) if m is not None]
        if not live:
            return RankReport(rank, all(v >= EXACT_ZERO_BOUND
                                        for r in rows for v, _, _ in r))
        _, bi, bj = min(live)
        pivot = rows.pop(bi)
        v, m, digits = pivot[bj]
        minus_inv = (-v, -pow(m, -1, p**digits), digits)
        rank += 1
        for i, r in enumerate(rows):
            minus_c = dot_row(p, [(r[bj], minus_inv)])
            rows[i] = [dot_row(p, [(x, one), (minus_c, y)])
                       for k, (x, y) in enumerate(zip(r, pivot)) if k != bj]
    return RankReport(rank, True)
