"""Finite abelian group engine.  A presented group is one record,
FiniteAbelianGroup: the Smith form of its relations, kept as the diagonal
and the row transform U, with its invariant factors and coordinates read
off them (and its p-part, the same record over the p-parts of the
diagonal).  Coordinates need U only (Cohen, GTM 138, sec. 2.4).  Besides:
element orders, subgroup image orders, group decompositions and the
relation lattices of elements given by their coordinates.

All matrices are lists of rows of Python ints.  There are two bounded
integer-matrix kernels.  smith_normal_form works modulo R: a known
multiple of the index, or |Delta|, a nonzero maximal minor that the
fraction-free pass of matrix_rank gives, at most Hadamard's bound, squared
when the rank is below n.  No entry of its U exceeds R/2 in absolute
value, and its invariant factors are exact all the same.  hermite_form
gives the one Hermite basis of a lattice plus D*Z^n, modulo D: it depends
on the lattice alone, so coordinates read through it do not move with a
choice of basis (rayclass.RayClassTower.p_level), and lattice_index reads
an index off its pivots.  Given a modulus, both refuse an input whose rank
is visibly below n.  The relations of decompose_abelian and
relation_lattice come out triangular from one table walk and need no
solver.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mod

from .ntheory import Frozen, InternalCheckError, extgcd


# ------------------------------------------------------------- integer matrices

def matrix_rank(A):
    """(r, |Delta|): the rank r of an integer matrix and the absolute value
    of Delta, the last pivot of its fraction-free (Bareiss) elimination, a
    nonzero r x r minor of A (1 when r = 0).  After pivot t every entry left
    is a (t+1)x(t+1) minor of A, divided exactly by the previous pivot, so
    no entry exceeds Hadamard's bound on the minors of A (Bareiss, Math.
    Comp. 22, 1968)."""
    rows = [list(r) for r in A if any(r)]
    rank, prev = 0, 1
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        a = top[j]
        for i in range(rank + 1, len(rows)):
            b = rows[i][j]
            rows[i] = [(a * x - b * y) // prev for x, y in zip(rows[i], top)]
        prev = a
        rank += 1
    return rank, abs(prev)


def smith_normal_form(A, *, modulus=0):
    """Smith normal form by row transform, modulo R: (D, U, []) with D
    diagonal, d_1 | d_2 | ... >= 0, and D = U*A*V modulo R for a V that is
    never formed.  The third entry is always [], for callers that unpack a
    triple.

    R is `modulus`, a multiple of the index of the column lattice L of A,
    which must then have full rank n: fewer than n columns, or a row of
    zeros, is refused, and the rest of that contract is the caller's.
    With no modulus, the rank r and
    |Delta| come from matrix_rank, and R is |Delta|, squared if r < n.
    Either way d_1 * ... * d_r divides |Delta| (it divides every r x r
    minor), so Z^n/(L + R*Z^n) is T + (Z/R)^(n-r), T the torsion of Z^n/L,
    and working modulo R loses nothing (Kannan & Bachem, SIAM J. Comput.
    8, 1979; Domich, Kannan & Trotter, Math. Oper. Res. 12, 1987).  The
    square keeps the torsion rows of U injective on T: a t in T that they
    send to 0 lies in the d_r-torsion of (Z/R)^(n-r), inside |Delta| times
    it, and |Delta|*Z^n + L meets T in 0.  Modulo |Delta| alone, Z^2 modulo
    (0, 2) would read (0, 1) as 0.  Each row and column operation reduces
    the entries of D and U into (-R/2, R/2], and |Delta| is at most
    Hadamard's bound.  The diagonal of D ends as d_i for i < r and as 0
    from r on.  U is invertible modulo R, not unimodular, and row i of U*A
    has gcd(R, row) = d_i for i < r; its rows past the rank need not span
    {x : x*A = 0}.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    if modulus and (m < n or not all(map(any, A))):
        raise ValueError("the columns have rank below n")
    r, R = (n, modulus) if modulus else matrix_rank(A)
    if r < n:  # keep the torsion rows faithful: see the docstring
        R *= R
    h = R // 2

    def comb(x, y, q):  # x - q*y, reduced into (h - R, h]
        return [h - (h - a + q * b) % R for a, b in zip(x, y)]

    D = [comb(row, row, 0) for row in A]
    # the identity, reduced: 1 % R is 0 when R = 1
    U = [[0] * i + [1 % R] + [0] * (n - 1 - i) for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = comb(D[i], D[j], q)
        U[i] = comb(U[i], U[j], q)

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in D:
            row[i] = h - (h - row[i] + q * row[j]) % R

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
            # No nonzero row is left below row t, so clearing row t takes
            # column operations only: they leave U alone and end with
            # D[t][t] = +-gcd of the row, with the sign of the pivot,
            # because floor remainders keep the divisor's sign.
            g = gcd(*D[t][t:])
            D[t][t:] = [g if D[t][t] > 0 else -g] + [0] * (m - t - 1)
            t += 1
            continue
        cleared = False
        while not cleared:
            cleared = True
            for i in range(t + 1, n):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, q)
                    if D[i][t] != 0:
                        swap_rows(i, t)
                        cleared = False
            for j in range(t + 1, m):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j] != 0:
                        swap_cols(j, t)
                        cleared = False
        t += 1

    # the nonzero pivots lead; a zero one is d_i = 0 modulo R
    k = sum(1 for i in range(min(n, m)) if D[i][i] != 0)
    # sign normalization
    for i in range(k):
        if D[i][i] < 0:
            negate_row(i)
    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if b % a != 0:
                changed = True
                # col_i += col_{i+1}; then re-clear the 2x2 block
                col_op(i, i + 1, -1)
                while D[i + 1][i] != 0 or D[i][i + 1] != 0:
                    if D[i + 1][i] != 0:
                        q = D[i + 1][i] // D[i][i]
                        row_op(i + 1, i, q)
                        if D[i + 1][i] != 0:
                            swap_rows(i, i + 1)
                    if D[i][i + 1] != 0:
                        q = D[i][i + 1] // D[i][i]
                        col_op(i + 1, i, q)
                        if D[i][i + 1] != 0:
                            swap_cols(i, i + 1)
                if D[i][i] < 0:
                    negate_row(i)
                if D[i + 1][i + 1] < 0:
                    negate_row(i + 1)
    for i in range(min(n, m)):
        D[i][i] = gcd(D[i][i], R) if i < r else 0
    return D, U, []


def hermite_form(rows, n: int, D: int):
    """The Hermite form of span(rows) + D*Z^n, for integer rows of length n
    and D >= 1: the one upper-triangular basis H of that lattice whose
    pivots h_j = H[j][j] are positive, each dividing D, with 0 <= H[i][j] <
    h_j above each pivot, so that H is a function of the lattice alone
    (Cohen, GTM 138, sec. 2.4.2; Domich, Kannan & Trotter, Math. Oper. Res.
    12, 1987).  Row j of H starts as D*e_j and takes in each row left by an
    extended gcd on column j, the row keeping the combination that is 0
    there; every entry is kept modulo D, as D*e_k lies in the lattice.  The
    product of the pivots is the index of the lattice.  The rows must span
    a lattice of full rank n: fewer than n rows, or a coordinate that no
    row touches, is refused, and the rest of that contract is the
    caller's."""
    if len(rows) < n or not all(map(any, zip(*rows))):
        raise ValueError("the rows have rank below n")
    H, rows = [], list(rows)
    for j in range(n):
        pivot = [0] * j + [D] + [0] * (n - 1 - j)
        for k, r in enumerate(rows):
            a, b = pivot[j], r[j] % D
            if b:
                g, s, t = extgcd(a, b)
                pivot, rows[k] = (
                    [(s * x + t * y) % D for x, y in zip(pivot, r)],
                    [(b // g * x - a // g * y) % D for x, y in zip(pivot, r)])
        for i, row in enumerate(H):  # reduce above the pivot
            H[i] = [x - row[j] // pivot[j] * y for x, y in zip(row, pivot)]
        H.append(pivot)
    return H


def lattice_index(B, *, modulus=0):
    """Index [Z^n : L] for the lattice L spanned by the columns of B, of
    full rank n: the product of the pivots of its Hermite form modulo
    `modulus`, a known multiple of the index, or modulo |Delta| of
    matrix_rank when none is given."""
    n = len(B)
    if not modulus:
        r, modulus = matrix_rank(B)
        if r < n:
            raise ValueError("lattice does not have full rank")
    H = hermite_form(list(zip(*B)), n, modulus)
    return prod(row[j] for j, row in enumerate(H))


# ---------------------------------------------------------------- group types

class GroupElement(Frozen):
    """Exponent vector in the invariant-factor coordinates of its group."""

    def __init__(self, coords):
        self.__dict__["coords"] = coords

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    def __iter__(self):
        return iter(self.coords)


class FiniteAbelianGroup:
    """Z^n modulo a relation lattice, held as its Smith form D = U*A*V:
    `diag`, the diagonal of D (d_1 | d_2 | ..., 0 for a free coordinate),
    and `transform`, all n rows of U.  Coordinate i of an ambient vector x
    is (U*x)_i mod d_i; the d_i > 1 are the `invariant_factors`, and the 0s
    count the free_rank.  U is reduced modulo the R of its Smith form,
    not unimodular, but its torsion rows map the torsion subgroup onto
    the torsion coordinates isomorphically.  The p-part of a finite group is the
    record over the same U with diagonal p^v_p(d_i).  With `diag` alone it
    is Z/d_1 x ... x Z/d_k with no presentation, its elements built by
    `element`."""

    def __init__(self, diag, transform=None):
        self.diag = diag
        self.transform = [] if transform is None else transform
        self.invariant_factors = tuple(d for d in diag if d > 1)
        self.free_rank = diag.count(0)
        self._torsion_rows = [u for u, d in zip(self.transform, diag)
                              if d > 1]

    @property
    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return prod(self.invariant_factors)

    def element(self, coords) -> GroupElement:
        return GroupElement(tuple(map(mod, coords, self.invariant_factors)))

    def project(self, ambient_vector) -> GroupElement:
        """Image of an ambient exponent vector in the torsion coordinates."""
        if len(ambient_vector) != len(self.diag):
            raise ValueError("ambient vector has wrong length")
        return self.element([sum(a * x for a, x in zip(u, ambient_vector))
                             for u in self._torsion_rows])

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return self.element([a + b for a, b in zip(g.coords, h.coords)])

    def scale(self, n: int, g: GroupElement) -> GroupElement:
        return self.element([n * a for a in g.coords])

    def subgroup_lattice(self, gens):
        """Columns spanning the lattice of <gens> + relation lattice in Z^k,
        as rows."""
        k = len(self.invariant_factors)
        cols = list(zip(*gens)) or [()] * k
        return [list(c) + [0] * i + [d] + [0] * (k - 1 - i) for i, (c, d)
                in enumerate(zip(cols, self.invariant_factors))]


def smith_presentation(relations, ambient_rank: int, *,
                       modulus=0) -> FiniteAbelianGroup:
    """Group presented by Z^ambient_rank modulo the rows of `relations`:
    one smith_normal_form, modulo `modulus`, a known multiple of the group
    order, or modulo |Delta| of the relations when none is given, squared
    when the group is infinite (1 with no relations, so that the group
    comes out free)."""
    rows = [list(r) for r in relations]
    for r in rows:
        if len(r) != ambient_rank:
            raise ValueError("relation of wrong length")
    # columns of R^T span the relation lattice
    A = [[rows[i][j] for i in range(len(rows))] for j in range(ambient_rank)]
    D, U, _ = smith_normal_form(A, modulus=modulus)
    diag = [D[i][i] if i < (len(D[0]) if D else 0) else 0
            for i in range(ambient_rank)]
    return FiniteAbelianGroup(diag, U)


# ----------------------------------------------------------------- operations

def element_order(G: FiniteAbelianGroup, g: GroupElement) -> int:
    n = 1
    for d, c in zip(G.invariant_factors, g.coords):
        o = d // gcd(d, c % d)
        n = n * o // gcd(n, o)
    return n


def subgroup_image_order(G: FiniteAbelianGroup, gens) -> int:
    """Order of the subgroup of G generated by gens, elements of G or any
    coordinate vectors of them."""
    if G.free_rank:
        raise ValueError("subgroup orders require a finite group")
    if not G.invariant_factors or not gens:
        return 1
    n = G.order
    return n // lattice_index(G.subgroup_lattice(gens), modulus=n)


# ------------------------------------------- decomposition of abstract groups

def _polycyclic_step(table, g, op, identity):
    """One step of the polycyclic walk of decompose_abelian and
    relation_lattice.  `table` maps each element of a subgroup H to its
    vector over the generators taken so far, and g^m, m >= 1 least, is the
    first power of g in H.  The table grows m-fold, to H<g>, by the
    products with g, ..., g^(m - 1), each vector taking one more
    coordinate; the relation m e - vec(g^m) comes back as a row, its last
    entry m."""
    powers = [identity, g]
    while powers[-1] not in table:
        powers.append(op(powers[-1], g))
    top = table[powers.pop()]  # the vector of g^m, m = len(powers)
    for t, vec in list(table.items()):
        table[t] = vec + (0,)
        for j, x in enumerate(powers[1:], 1):
            table[x if t == identity else op(t, x)] = vec + (j,)
    return [-c for c in top] + [len(powers)]


def decompose_abelian(elements, op, identity):
    """Decompose a finite abelian group given by its multiplication law.

    Elements must be hashable and orderable.  Returns (gens, orders, dlog):
    the orders are the invariant factors d1 | d2 | ..., the gens are the
    elements with unit coordinates, and dlog maps every element to its
    coordinate tuple, a bijection onto prod Z/d_i that turns op into +.

    The elements are taken in decreasing order; each one not yet in the
    table becomes g_k, a step of _polycyclic_step.  Its triangular
    relations are a polycyclic presentation of the group (Sims,
    Computation with Finitely Presented Groups, 1994); its Smith form
    modulo the order h (Cohen, GTM 138, sec. 2.4) gives the invariant
    factors and projects each vector to its coordinates.  The law is
    applied h - 1 times.
    """
    elements = sorted(elements, reverse=True)
    table = {identity: ()}
    rels = []
    for g in elements:
        if g not in table:
            rels.append(_polycyclic_step(table, g, op, identity))
    k, h = len(rels), len(table)
    G = smith_presentation([r + [0] * (k - len(r)) for r in rels], k,
                           modulus=h)
    if G.order != h or table.keys() != set(elements):
        raise InternalCheckError("decomposition does not span")
    dlog = {e: G.project(vec).coords for e, vec in table.items()}
    by_coords = {c: e for e, c in dlog.items()}
    t = len(G.invariant_factors)
    gens = [by_coords[tuple(int(i == j) for j in range(t))] for i in range(t)]
    return gens, list(G.invariant_factors), dlog


def relation_lattice(coords, orders):
    """A basis of the relations {w in Z^n : w_1 c_1 + ... + w_n c_n = 0}
    among elements c_1, ..., c_n of Z/d_1 x ... x Z/d_k, given as
    coordinate tuples reduced modulo `orders` (d_1, ..., d_k).

    Step i of _polycyclic_step adds c_i to the span of c_1, ..., c_(i-1),
    so row i is m_i e_i - vec(m_i c_i), m_i >= 1 the least multiple of c_i
    in that span, and the table never exceeds d_1 * ... * d_k entries.
    The basis is lower triangular with diagonal m_1, ..., m_n, since the
    last nonzero entry of any relation is a multiple of its m_i."""
    n = len(coords)

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, orders))

    zero = tuple(0 for _ in orders)
    table = {zero: ()}
    rows = [_polycyclic_step(table, tuple(c), add, zero) for c in coords]
    return [r + [0] * (n - len(r)) for r in rows]
