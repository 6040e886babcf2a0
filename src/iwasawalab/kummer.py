"""Kummer elements of the completed Q-unit group: construction of the
element alpha whose p-power roots generate the Kummer Z_p-extension ramified
exactly at Q, certificates for its valuation and local-torsion properties,
and Z_p-ranks of Kummer extensions attached to finitely generated subgroups.

alpha is always a formal product over an S-unit basis with Z_p exponents;
its exponents are genuinely p-adic and it is never a single field element.
Its basis does not depend on the precision N: `_alpha_basis` builds the
entries (the units, beta, pi1, pi2) once per (K, p, Q) and congruence
split, kept on the tower of (K, p) under Q, with an EntryLogTable of their
unit logs at the primes above p, taken at the highest precision asked for
so far; a lower N reads its rows (padic) by truncation.  alpha is a
localize.SUnitProduct.  The clauses read the table, alpha's exponents and
its valuations (rows) on their integers, building results only: each
product of p-adic numbers, pi1's exponent t1 included, is a padic.dot_row,
which alone states a product's precision, and a PAdicNumber is built only
for an exponent of alpha and for the two valuations the certificate keeps.
"""

from __future__ import annotations

from .abgroup import element_order, matrix_rank
from .iwasawa import mq_order
from .localize import (INDET, TRUE, FALSE, SUnitProduct, completions_above_p,
                       entry_logs, eq_membership, log_sum, torsion_status,
                       zp_matrix_rank, RankReport)
from .ntheory import InternalCheckError, factorint
from .padic import (PAdicNumber, PrecisionError, dot_row, residue_row,
                    truncate_row, vp)
from .quadfield import (FieldElement, RealQuadraticField, SUnitBasisData,
                        check_odd_prime, class_group, ideal_valuation,
                        prime_ideals_above, realize, principal_generator,
                        s_unit_entry, unit_entries)
from .rayclass import ray_class_tower


class KummerCertificate:
    """alpha over (F, p, N, Q) with its clauses: the valuations at q1 and
    q2, loc_p torsion, the a-exponent (an int or None), m_Q and the
    status; a clause not yet decided keeps its default."""

    def __init__(self, alpha: SUnitProduct, field: RealQuadraticField,
                 p: int, N: int, Q: tuple, val_q1: PAdicNumber = None,
                 val_q2: PAdicNumber = None, loc_p_torsion: str = INDET,
                 a_exponent=None, m_q: int = 0,
                 status: str = "indeterminate"):
        self.alpha, self.field, self.p, self.N, self.Q = alpha, field, p, N, Q
        self.val_q1, self.val_q2 = val_q1, val_q2
        self.loc_p_torsion, self.a_exponent = loc_p_torsion, a_exponent
        self.m_q, self.status = m_q, status

    @property
    def predicted_intersection_degree(self):
        """p^a, the predicted index [L_Q ∩ (minus part) : cyclotomic field];
        a prediction from the valuation data only, not a field construction."""
        if self.a_exponent is None:
            return None
        return self.p ** self.a_exponent

    def to_json(self):
        """The certificate as JSON; a clause left undecided and a valuation
        never computed are null."""
        return {
            "schema": 1,
            "field": self.field.spec_string(),
            "p": self.p,
            "N": self.N,
            "alpha": self.alpha.to_json() if self.alpha else None,
            "Q": [str(q) for q in self.Q],
            "valuations": [None if v is None else repr(v)
                           for v in (self.val_q1, self.val_q2)],
            "loc_p_torsion": (None if self.loc_p_torsion == INDET
                              else self.loc_p_torsion == TRUE),
            "a_exponent": self.a_exponent,
            "m_Q": self.m_q,
            "predicted_intersection_degree":
                self.predicted_intersection_degree,
            "status": self.status,
        }


def construct_alpha(K: RealQuadraticField, p: int, Q, N: int) \
        -> KummerCertificate:
    """The explicit Kummer element: locally torsion above p, supported on Q,
    with both Q-valuations generating the ideal (m_Q)."""
    rep = mq_order(K, p, Q, N)
    q1, q2 = rep.q1, rep.q2
    if not rep.stable:
        raise PrecisionError("m_Q did not stabilize; raise the precision")
    m_q = rep.m_q
    a1 = rep.a1

    clg = class_group(K)
    n_prime_to_p = clg.h // p**vp(clg.h, p)

    m = max((vp(d, p) for d in clg.invariant_factors), default=0)
    A = a1.abs_prec
    if A <= m:
        raise PrecisionError("insufficient precision for the congruence split")
    # a1, a unit mod p^A (mq_generator), is b1 + p^m * c1: pi1's exponent
    # is t1 = c1 * t, c1 = r1 div p^m known mod p^(A - m) and the integer t
    # read to A digits, more than c1 has
    r1 = a1.residue(A)
    b1 = r1 % p**m

    e2 = n_prime_to_p * m_q
    e1 = b1 * e2
    h1, entries, table = ray_class_tower(K, p).recall(
        (q1, q2), (e1, e2), _alpha_basis, K, p, q1, q2, e1, e2)
    t = n_prime_to_p * p**m // h1 * m_q
    t1 = PAdicNumber(p, *dot_row(p, [(residue_row(r1 // p**m, p, A - m),
                                      residue_row(t, p, vp(t, p) + A))]))
    zero = PAdicNumber.exact(0, p, N + 4)
    one = PAdicNumber.exact(1, p, N + 4)
    exponents = [zero] * (len(entries) - 3) + [one, t1, zero]
    alpha = SUnitProduct(entries, p, exponents, N)

    # unit correction: eps's exponent 0 becomes -x so that the local 1-unit
    # part dies; the unit correction and the torsion clause read one table
    logs = table.at(N)
    if not K.is_rational:
        exponents[1] = _solve_unit_exponent(alpha, logs)
        alpha = SUnitProduct(entries, p, exponents, N)
    return _check_certificate(alpha, K, p, (q1, q2), N, rep, logs)


def _alpha_basis(K: RealQuadraticField, p: int, q1, q2, e1: int, e2: int):
    """(h1, entries, EntryLogTable of the entries) of the alpha of
    (K, p, (q1, q2)) whose congruence split takes beta, the generator of
    q1^e1 * q2^e2: the work of construct_alpha that does not depend on N.
    The entries are unit_entries(K), then beta, pi1 and pi2, with pi_i a
    generator of q_i^h_i, h_i the class order of q_i."""
    beta = principal_generator(q1**e1 * q2**e2)
    if beta is None:
        raise InternalCheckError("congruence-split ideal failed to be "
                                 "principal")
    clg = class_group(K)
    h1 = element_order(clg.group, clg.class_of(q1))
    h2 = element_order(clg.group, clg.class_of(q2))
    pi1 = realize(K, [q1], [h1])
    pi2 = realize(K, [q2], [h2])
    entries = unit_entries(K) + tuple(
        s_unit_entry(g, [q1, q2], label, "lattice")
        for g, label in ((beta, "beta"), (pi1, "pi1"), (pi2, "pi2")))
    return h1, entries, EntryLogTable(entries, completions_above_p(K, p), p)


class EntryLogTable:
    """The pairs (q, entry_logs(entries, q, N)) for the prime ideals q of
    `places` above p, kept at the highest precision asked for so far, the
    top, and read at any lower N by truncation.

    _element_unit_log reads the unit x/p^v of an entry to
    A = N + max(v, 0) + 2 - v digits, and v does not depend on N: so a
    row of the top, known mod p^A, is at N = top - drop its truncate_row,
    the log mod p^(A - drop) being the residue of the log mod a higher
    power (Washington, GTM 83, sec. 5.1)."""

    def __init__(self, entries, places, p: int):
        self.entries, self.places, self.p = entries, places, p
        self.top, self.logs = 0, ()

    def at(self, N: int) -> tuple:
        """The table at N.  Past the top, it is taken again at N + 2, the
        level mq_order reads first, so that N + 1 and N + 2 are read from it
        too."""
        if N > self.top:
            self.top = N + 2
            self.logs = tuple((q, entry_logs(self.entries, q, self.top))
                              for q in self.places)
        drop, p = self.top - N, self.p
        if not drop:
            return self.logs
        return tuple((q, tuple(tuple(truncate_row(c, p, drop) for c in lg)
                               for lg in lgs))
                     for q, lgs in self.logs)


def _solve_unit_exponent(alpha0: SUnitProduct, logs) -> PAdicNumber:
    """-x, the unit correction, for the x in Z_p with log loc(alpha0) =
    x * log loc(eps) at every prime above p, given the logs `logs` of
    alpha0.entries (EntryLogTable.at), whose entry 1 is eps (unit_entries:
    -1, then eps).  Each quotient ca/ce, ce no marker, is integral, and x is
    the first: every other pair has ca - x*ce, the padic.dot_row of (1, ca)
    and (-x, ce), a marker."""
    p = alpha0.p
    pairs = [(ca, ce) for _, lg in logs
             for ca, ce in zip(log_sum(alpha0.exponents, lg), lg[1])
             if ce[1] is not None]
    for (av, am, _), (ev, _, _) in pairs:
        if am is not None and av < ev:
            raise InternalCheckError("unit correction is not integral")
    if not pairs:
        raise PrecisionError("precision underflow in the unit-correction solve")
    (av, am, ad), (ev, em, ed) = pairs[0]
    xv, xd = av - ev, min(ad, ed)
    xm = None if am is None else am * pow(em, -1, p**xd) % p**xd
    minus_x = (xv, None if xm is None else p**xd - xm, xd)
    for ca, ce in pairs[1:]:
        if dot_row(p, [((0, 1, ca[2]), ca), (minus_x, ce)])[1] is not None:
            raise InternalCheckError("unit correction inconsistent across "
                                     "places")
    return PAdicNumber(p, *minus_x)


def verify_alpha(alpha: SUnitProduct, K: RealQuadraticField, p: int, Q,
                 N: int) -> KummerCertificate:
    """Check the four certificate clauses; accept, reject naming the failed
    clause, or report indeterminate when the data sits below precision."""
    rep = mq_order(K, p, Q, N)
    logs = tuple((q, entry_logs(alpha.entries, q, N))
                 for q in completions_above_p(K, p))
    return _check_certificate(alpha, K, p, (rep.q1, rep.q2), N, rep, logs)


def _check_certificate(alpha: SUnitProduct, K: RealQuadraticField, p: int,
                       Q, N: int, rep, logs) -> KummerCertificate:
    """verify_alpha given the mq_order report `rep` of (K, p, Q, N) and the
    logs `logs` of alpha.entries at the primes above p (EntryLogTable.at)."""
    q1, q2 = Q
    cert = KummerCertificate(alpha, K, p, N, Q)
    cert.m_q = rep.m_q
    if not rep.stable:
        cert.status = "indeterminate"
        return cert

    # (i) support confined to Q
    if not eq_membership(alpha, [q1, q2]):
        cert.status = "rejected:support"
        return cert

    # (ii) nonzero valuations generating the same ideal of Z_p
    (v1, m1, d1), (v2, m2, d2) = (alpha.valuation_at(q) for q in Q)
    cert.val_q1 = PAdicNumber(alpha.p, v1, m1, d1)
    cert.val_q2 = PAdicNumber(alpha.p, v2, m2, d2)
    if m1 is None or m2 is None:
        cert.status = "indeterminate"
        return cert
    if v1 != v2:
        cert.status = "rejected:valuations"
        return cert
    cert.a_exponent = v1

    # (iii) the localization of alpha at p is torsion
    verdicts = [torsion_status(alpha.valuation_at(q),
                               log_sum(alpha.exponents, lg))
                for q, lg in logs]
    if FALSE in verdicts:
        cert.loc_p_torsion = FALSE
        cert.status = "rejected:loc_p"
        return cert
    if INDET in verdicts:
        cert.loc_p_torsion = INDET
        cert.status = "indeterminate"
        return cert
    cert.loc_p_torsion = TRUE

    # (iv) m_Q divides p^a
    if cert.a_exponent < vp(cert.m_q, p):
        cert.status = "rejected:divisibility"
        return cert
    cert.status = "accepted"
    return cert


# ------------------------------------------------------------- Kummer ranks

def _support_primes(K, elements):
    """The primes q with v_q(t) != 0 for some t = (a + b*w)/den: each lies
    over a prime factor of N(a + b*w) or of den."""
    ells = set()
    for t in elements:
        for n in (t.numerator_norm(), t.den):
            ells.update(factorint(abs(n)))
    primes = []
    for ell in sorted(ells):
        for q in prime_ideals_above(K, ell):
            if any(ideal_valuation(t, q) for t in elements):
                primes.append(q)
    return primes


def kummer_rank(T, K: RealQuadraticField, p: int) -> RankReport:
    """Z_p-rank of the closure of <T> in the completed multiplicative group.

    Field elements are decomposed exactly over an S-unit basis (the
    completed S-unit group injects into the completed multiplicative group),
    so the rank is the exact rank of the integer exponent matrix; formal
    products contribute p-adic exponent rows with precision certificates.
    """
    check_odd_prime(p)
    if not T:
        return RankReport(0, True)
    if all(isinstance(t, FieldElement) for t in T):
        primes = _support_primes(K, T)
        data = SUnitBasisData(K, primes)
        # drop the torsion sign; the Z_p-rank of an integer matrix is its
        # rank
        return RankReport(matrix_rank([data.decompose(t)[1:]
                                       for t in T])[0], True)
    if all(isinstance(t, SUnitProduct) for t in T):
        entries = T[0].entries
        for t in T:
            if t.entries != entries:
                raise ValueError("formal products must share a basis")
            if t.p != p:
                raise ValueError("formal products must have p = %d, got %d"
                                 % (p, t.p))
        rows = []
        for t in T:
            rows.append([e for e, entry in zip(t.exponents, entries)
                         if entry.kind != "torsion"])
        return zp_matrix_rank(rows)
    raise TypeError("mixed element kinds in kummer_rank")
