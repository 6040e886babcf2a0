import functools
import itertools
import random
import signal
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from iwasawalab.abgroup import (smith_normal_form, smith_presentation,
                                element_order, matrix_rank,
                                subgroup_image_order, decompose_abelian,
                                FiniteAbelianGroup, GroupElement,
                                hermite_form, relation_lattice)
from iwasawalab.ntheory import factorint
from iwasawalab.quadfield import RealQuadraticField, _pair_to_ideal, \
    class_group
from oracles import (decompose_by_max_order, generator_lifts,
                     group_identity, group_record, kernel_basis,
                     lattice_intersection, solve_congruence_lattice,
                     solve_dlog, squarefree, subgroup_order_from_lattice,
                     vp)
from test_kummer import WIDE_EXPONENTS


def mat_mul(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def det(A):
    # fraction-free Gaussian elimination (Bareiss) for small matrices
    from fractions import Fraction
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if M[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            M[i], M[piv] = M[piv], M[i]
            sign = -sign
        for r in range(i + 1, n):
            f = M[r][i] / M[i][i]
            M[r] = [a - f * b for a, b in zip(M[r], M[i])]
    out = Fraction(sign)
    for i in range(n):
        out *= M[i][i]
    return out


small_matrix = st.lists(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
    min_size=1, max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1)


def _full_rank_modulus(A):
    """|Delta|, the absolute value of the first nonzero n x n minor of the
    n x m matrix A, its columns taken in lexicographic order: a multiple of
    the index of its column lattice, which has full rank n exactly when
    there is one; None when there is none."""
    n, m = len(A), len(A[0]) if A else 0
    for cols in itertools.combinations(range(m), n):
        minor = abs(int(det([[row[j] for j in cols] for row in A])))
        if minor:
            return minor
    return None


def _visibly_deficient(A):
    """Fewer columns than rows, or a row of zeros: the rank of A is below
    its row count at a glance, and smith_normal_form refuses it."""
    return len(A[0]) < len(A) or not all(map(any, A))


def _check_row_transform(A, D, U, R):
    """D is the Smith form of A modulo R, a multiple of the index of its
    column lattice, and U its row transform: the diagonal is sympy's, a
    positive divisibility chain whose product divides R; U is invertible
    modulo R with no entry above R/2 in absolute value; gcd(R, row i of
    U*A) is d_i."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    n, m = len(A), len(A[0])
    assert all(D[i][j] == 0 for i in range(n) for j in range(m) if i != j)
    diag = [D[i][i] for i in range(n)]
    S = sympy_snf(Matrix(A), domain=ZZ)
    assert diag == [abs(int(S[i, i])) for i in range(n)]
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert R % prod(diag) == 0
    assert all(2 * abs(x) <= R for row in U for x in row)
    assert gcd(int(det(U)), R) == 1
    for i, row in enumerate(mat_mul(U, A)):
        assert gcd(R, *row) == diag[i]


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_snf_properties(A):
    """Modulo |Delta|, a matrix of full row rank has its row transform;
    one whose rank is visibly below its row count is refused."""
    R = _full_rank_modulus(A)
    if _visibly_deficient(A):
        with pytest.raises(ValueError, match="rank below n"):
            smith_normal_form(A, modulus=R or 1)
        return
    if R is None:
        return
    D, U, V = smith_normal_form(A, modulus=R)
    assert V == []
    _check_row_transform(A, D, U, R)


def _snf_cases():
    """300 matrices up to 4x4 with |entries| <= 2^8, about a third of the
    entries 0, drawn once from a fixed seed."""
    rng = random.Random(0)
    cases = []
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        cases.append([[rng.choice((0, rng.randint(-2**8, 2**8),
                                   rng.randint(-2**8, 2**8)))
                       for _ in range(m)] for _ in range(n)])
    return cases


SNF_CASES = _snf_cases()


def test_snf_transform_flags_agree_with_full_call():
    """Modulo R = |Delta| of _full_rank_modulus, each case of full row rank
    has its row transform, and modulo 6R the same diagonal: the invariant
    factors do not depend on the multiple of the index.  A matrix whose
    rank is visibly below n, with fewer columns than rows or a row of
    zeros, is refused."""
    full = 0
    for A in SNF_CASES:
        R = _full_rank_modulus(A)
        if _visibly_deficient(A):
            with pytest.raises(ValueError, match="rank below n"):
                smith_normal_form(A, modulus=R or 1)
            continue
        if R is None:
            continue
        full += 1
        D, U, V = smith_normal_form(A, modulus=R)
        _check_row_transform(A, D, U, R)
        D2, _, V2 = smith_normal_form(A, modulus=6 * R)
        assert V2 == V == []
        assert [D2[i][i] for i in range(len(A))] == \
            [D[i][i] for i in range(len(A))]
    assert full >= 100


def test_snf_unpacks_to_diagonal_transform_and_empty_v():
    A = [[4, 0, 6], [2, 2, 6]]
    out = smith_normal_form(A, modulus=8)
    assert len(out) == 3
    D, U, V = out
    assert [D[0][0], D[1][1]] == [2, 2]
    assert len(U) == 2 and V == []
    assert type(out) is tuple


def test_snf_q79_ray_class_relations_u_only():
    # a ray-class relation matrix captured while building alpha for Q(sqrt 79)
    A = [[15251194969974, 0, 7625597484987, 4192643766891, -11212799052631],
         [0, 15251194969974, 7625597484987, 11058551203083, -14905223429924],
         [0, 0, 0, 0, 3]]
    R = _full_rank_modulus(A)
    D, U, V = smith_normal_form(A, modulus=R)
    assert [D[i][i] for i in range(3)] == [1, 9, 15251194969974]
    _check_row_transform(A, D, U, R)
    assert V == []


def test_snf_diagonal_against_sympy():
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    for A in SNF_CASES:
        R = _full_rank_modulus(A)
        if R is None:
            continue
        S = sympy_snf(Matrix(A), domain=ZZ)
        D, _, _ = smith_normal_form(A, modulus=R)
        assert [D[i][i] for i in range(len(A))] == \
            [abs(S[i, i]) for i in range(len(A))]


# ------------------------------------------------------ SNF modulo R

# entries under 2^8, yet the exact elimination's entries blow up on it
FOUND_5X5 = [[0, 89, 0, 94, 220], [236, -207, -215, -148, 0],
             [0, 0, 0, -178, 75], [39, 200, 0, 0, -29],
             [-141, 0, 147, 0, 89]]


def test_snf_modulo_determinant_5x5():
    R = abs(int(det(FOUND_5X5)))
    assert R == 103460645526
    D, U, V = smith_normal_form(FOUND_5X5, modulus=R)
    assert [D[i][i] for i in range(5)] == [1, 1, 1, 1, R]
    assert all(D[i][j] == 0 for i in range(5) for j in range(5) if i != j)
    assert V == []
    # U is invertible modulo R, and row i of U*A is d_i times a row that
    # is primitive modulo R
    assert gcd(int(det(U)), R) == 1
    for i, row in enumerate(mat_mul(U, FOUND_5X5)):
        assert gcd(R, *row) == D[i][i]
    assert prod(_pivots(hermite_form(list(zip(*FOUND_5X5)), 5, R))) == R


def _diagonal_by_minors(A):
    """The SNF diagonal of a square A from its determinantal divisors: the
    product of the first k entries is the gcd of the k x k minors."""
    n = len(A)
    out, prev = [], 1
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = gcd(g, int(det([[A[i][j] for j in cols] for i in rows])))
        out.append(g // prev)
        prev = g
    return out


def _order_mod_rows(A, x):
    """Order of x in Z^n modulo the rows of a nonsingular square A: the
    lcm of the denominators of the rational y with y*A = x (Cramer)."""
    n = len(A)
    d = det(A)
    o = 1
    for j in range(n):
        Aj = [x if i == j else A[i] for i in range(n)]
        den = (det(Aj) / d).denominator
        o = o * den // gcd(o, den)
    return o


def _full_rank_cases():
    """24 nonsingular matrices up to 6x6 with |entries| <= 2^16, drawn once
    from a fixed seed, with |det| as the modulus."""
    rng = random.Random(3)
    cases = []
    while len(cases) < 24:
        n = rng.randint(1, 6)
        A = [[rng.randint(-2**16, 2**16) for _ in range(n)] for _ in range(n)]
        d = abs(int(det(A)))
        if d:
            cases.append((A, d))
    return cases


FULL_RANK_CASES = _full_rank_cases()


def test_modular_presentation_random_full_rank():
    """Invariants against the determinantal divisors and against the Smith
    form of A modulo R^2, another multiple of the index, and projections
    against orders read off the exact rational solve."""
    rng = random.Random(4)
    for A, R in FULL_RANK_CASES:
        n = len(A)
        G = smith_presentation(A, n, modulus=R)
        assert G.diag == _diagonal_by_minors(A)
        assert G.invariant_factors == tuple(d for d in G.diag if d > 1)
        assert G.order == R
        D, _, _ = smith_normal_form(A, modulus=R * R)
        assert G.diag == [D[i][i] for i in range(n)]
        assert all(G.project(row) == group_identity(G) for row in A)
        tor = [i for i, d in enumerate(G.diag) if d > 1]
        lifts = generator_lifts(G, R)
        for t, i in enumerate(tor):
            assert G.project(lifts[i]).coords == \
                tuple(int(s == t) for s in range(len(tor)))
        for _ in range(5):
            x = [rng.randint(-2**20, 2**20) for _ in range(n)]
            assert element_order(G, G.project(x)) == _order_mod_rows(A, x)


def test_modular_presentation_against_sympy():
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    for A, R in FULL_RANK_CASES:
        S = sympy_snf(Matrix(A), domain=ZZ)
        G = smith_presentation(A, len(A), modulus=R)
        assert G.diag == [abs(int(S[i, i])) for i in range(len(A))]


def test_exported_snf_of_wide_exponents_returns_modulo_a_minor():
    """The exports smith_normal_form and smith_presentation on
    WIDE_EXPONENTS (5 x 6) and on its transpose, modulo R = |Delta| of
    _full_rank_modulus: the exact elimination they ran before did not
    return on the transpose in 15 s; modulo R each call ends well inside a
    1 s timer, which raises in the test rather than let it hang.  The
    exponents have rank 5, so every invariant is 1 and the group of the
    six columns on five generators is trivial; the transpose, with fewer
    columns than rows, is refused by smith_normal_form."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    A = WIDE_EXPONENTS
    R = _full_rank_modulus(A)

    def expired(*args):
        raise TimeoutError("the Smith form did not return in 1 s")
    handler = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        D, _, _ = smith_normal_form(A, modulus=R)
        G = smith_presentation([list(c) for c in zip(*A)], 5, modulus=R)
        with pytest.raises(ValueError, match="rank below n"):
            smith_normal_form([list(c) for c in zip(*A)], modulus=R)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    S = sympy_snf(Matrix(A), domain=ZZ)
    assert [D[i][i] for i in range(5)] == \
        [abs(int(S[i, i])) for i in range(5)] == [1] * 5
    assert G.invariant_factors == () and G.order == 1


def test_presentation_diag_2_3():
    G = smith_presentation([[2, 0], [0, 3]], 2, modulus=6)
    assert G.invariant_factors == (6,)
    assert G.order == 6


def test_presentation_example():
    G = smith_presentation([[4, 2], [0, 2]], 2, modulus=8)
    assert G.invariant_factors == (2, 4)


def test_presentation_idempotent():
    G = smith_presentation([[2, 0], [0, 4]], 2, modulus=8)
    H = smith_presentation([[G.invariant_factors[0], 0],
                            [0, G.invariant_factors[1]]], 2,
                           modulus=G.order)
    assert H.invariant_factors == G.invariant_factors


def test_project_consistency():
    rels = [[4, 2], [0, 2]]
    G = smith_presentation(rels, 2, modulus=8)
    # every relation row must project to the identity
    for r in rels:
        assert G.project(r) == group_identity(G)


def test_element_order_cases():
    G = smith_presentation([[6]], 1, modulus=6)
    assert G.invariant_factors == (6,)
    assert element_order(G, group_identity(G)) == 1
    assert element_order(G, G.element([2])) == 3
    H = smith_presentation([[2, 0], [0, 4]], 2, modulus=8)
    assert element_order(H, H.element([1, 1])) == 4


def test_subgroup_image_order_cases():
    H = smith_presentation([[2, 0], [0, 4]], 2, modulus=8)
    assert subgroup_image_order(H, [H.element([1, 0]), H.element([0, 1])]) == 8
    assert subgroup_image_order(H, []) == 1
    G = smith_presentation([[6]], 1, modulus=6)
    assert subgroup_image_order(G, [G.element([2])]) == 3


def _order_modulo(G, x, gens):
    """The order of the class of x in G modulo <gens>: the least divisor m
    of its order in G with <gens, m x> = <gens>."""
    o, base = element_order(G, x), subgroup_image_order(G, gens)
    return min(m for m in range(1, o + 1) if o % m == 0 and
               subgroup_image_order(G, gens + [G.scale(m, x)]) == base)


def _hermite_quotient(rows, n, D):
    """(H, group) as RayClassTower.p_level reads a level: H the Hermite
    form of the rows modulo D, and the Smith presentation of its rows
    modulo the product of its pivots."""
    H = hermite_form(rows, n, D)
    return H, smith_presentation(H, n, modulus=prod(
        row[j] for j, row in enumerate(H)))


def test_hermite_quotients_against_sympy():
    """A group's relations and some ambient generators, read as
    RayClassTower.p_level reads a level, on 40 seeded groups and
    generator sets (none, and zero vectors, included), modulo the group
    order D: the invariant factors are sympy's Smith diagonal of the rows
    stacked, the order is |G| over |<gens>|, `project` kills each
    generator and maps each ambient vector to a class of the same order as
    in G modulo <gens>, and modulo the p-part of D it is the p-part.
    Permuted or reversed rows give the same Hermite form and the same
    group record."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(45)
    for _ in range(40):
        n = rng.randint(1, 4)
        rels = [[rng.randint(-30, 30) for _ in range(n)]
                for _ in range(n + 1)] + [[0] * n]
        R = _full_rank_modulus([list(c) for c in zip(*rels)])
        if R is None:
            continue
        G = smith_presentation(rels, n, modulus=R)
        gens = [[rng.randint(-40, 40) * rng.randint(0, 1) for _ in range(n)]
                for _ in range(rng.randint(0, 3))]
        rows = rels + gens
        H, Q = _hermite_quotient(rows, n, G.order)
        S = sympy_snf(Matrix(rows), domain=ZZ)
        assert Q.invariant_factors == tuple(
            abs(S[i, i]) for i in range(n) if abs(S[i, i]) > 1)
        images = [G.project(g) for g in gens]
        assert Q.order == G.order // subgroup_image_order(G, images)
        zero = Q.element([0] * len(Q.invariant_factors))
        assert all(Q.project(g) == zero for g in gens)
        for _ in range(3):
            x = [rng.randint(-99, 99) for _ in range(n)]
            assert element_order(Q, Q.project(x)) == \
                _order_modulo(G, G.project(x), images)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        for other in (shuffled, rows[::-1]):
            H2, Q2 = _hermite_quotient(other, n, G.order)
            assert (H2, group_record(Q2)) == (H, group_record(Q))
        for p, e in factorint(G.order).items():
            P = _hermite_quotient(rows, n, p**e)[1]
            assert P.invariant_factors == tuple(
                p**vp(d, p) for d in Q.invariant_factors if d % p == 0)


def test_matrix_rank_against_sympy():
    """matrix_rank's rank equals sympy's on 200 seeded integer matrices of
    up to 6 x 7, products of two random factors of a drawn inner size, so
    that many fall short of full rank; zero rows and empty inputs too."""
    pytest.importorskip("sympy")
    from sympy import Matrix
    rng = random.Random(46)
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    for _ in range(200):
        n, m, r = rng.randint(1, 6), rng.randint(1, 7), rng.randint(0, 5)
        B = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
        C = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(r)]
        A = [[sum(B[i][t] * C[t][j] for t in range(r)) for j in range(m)]
             for i in range(n)]
        assert matrix_rank(A) == Matrix(A).rank(), A


def test_solve_dlog_cases():
    G = smith_presentation([[9]], 1, modulus=9)
    assert solve_dlog(G, G.element([1]), G.element([4])) == 4
    H = smith_presentation([[6]], 1, modulus=6)
    assert solve_dlog(H, H.element([2]), H.element([3])) is None
    K = smith_presentation([[2, 0], [0, 4]], 2, modulus=8)
    n = solve_dlog(K, K.element([1, 1]), K.element([0, 2]))
    assert n is not None and K.scale(n, K.element([1, 1])) == K.element([0, 2])


def brute_elements(factors):
    return [GroupElement(c) for c in itertools.product(*[range(d) for d in factors])]


def test_brute_force_equivalence_small_groups():
    rng = random.Random(7)
    for factors in [(2,), (8,), (2, 4), (3, 9), (2, 2, 4), (5, 25), (6, 12), (10, 1000)]:
        rels = [[factors[i] if j == i else 0 for j in range(len(factors))]
                for i in range(len(factors))]
        G = smith_presentation(rels, len(factors), modulus=prod(factors))
        elems = brute_elements(factors)
        order = 1
        for d in factors:
            order *= d
        assert G.order == order
        for _ in range(10):
            g = G.element([rng.randrange(d) for d in factors])
            o = 1
            x = g
            while x != group_identity(G):
                x = G.add(x, g)
                o += 1
            assert o == element_order(G, g)
        for _ in range(5):
            gens = [G.element([rng.randrange(d) for d in factors])
                    for _ in range(rng.randrange(0, 3))]
            seen = {group_identity(G)}
            frontier = [group_identity(G)]
            while frontier:
                nxt = []
                for e in frontier:
                    for g in gens:
                        w = G.add(e, g)
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            assert len(seen) == subgroup_image_order(G, gens)
            assert G.order % len(seen) == 0  # Lagrange


def test_dlog_brute_equivalence():
    rng = random.Random(8)
    factors = (4, 8)
    G = smith_presentation([[4, 0], [0, 8]], 2, modulus=32)
    for _ in range(40):
        g = G.element([rng.randrange(d) for d in factors])
        h = G.element([rng.randrange(d) for d in factors])
        n = solve_dlog(G, g, h)
        brute = None
        for t in range(32):
            if G.scale(t, g) == h:
                brute = t
                break
        assert (n is None) == (brute is None)
        if n is not None:
            assert G.scale(n, g) == h


def test_kernel_basis():
    """On [[1, 2, 3], [2, 4, 6]] and every SNF case: the basis lies in the
    kernel, its size is m - rank from sympy's nullspace, and it is
    saturated, so it spans the whole integer kernel (every SNF invariant of
    the basis matrix is 1)."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    for A in [[[1, 2, 3], [2, 4, 6]]] + SNF_CASES:
        m = len(A[0])
        ker = kernel_basis(A)
        assert len(ker) == len(Matrix(A).nullspace()), A
        for v in ker:
            assert len(v) == m
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
        if ker:
            S = sympy_snf(Matrix(ker), domain=ZZ)
            assert [abs(S[i, i]) for i in range(len(ker))] == [1] * len(ker)
    assert len(kernel_basis([[1, 2, 3], [2, 4, 6]])) == 2


def _pivots(H):
    return [row[j] for j, row in enumerate(H)]


def test_lattice_index():
    """The index of a lattice is the product of its Hermite pivots modulo
    any multiple of it, and subgroup_image_order reads it so."""
    assert hermite_form([[2, 0], [0, 3]], 2, 6) == [[2, 0], [0, 3]]
    assert hermite_form([[2, 0], [0, 3]], 2, 36) == [[2, 0], [0, 3]]
    assert hermite_form([[1, 0], [0, 1]], 2, 1) == [[1, 0], [0, 1]]
    assert hermite_form([[4, 6], [0, 9]], 2, 72) == [[4, 6], [0, 9]]
    G = smith_presentation([[2, 0], [0, 3]], 2, modulus=6)
    assert subgroup_image_order(G, [G.element([2])]) == 3
    assert subgroup_image_order(G, [(2,), (3,)]) == 6


def test_snf_refuses_fewer_columns_than_rows_given_a_modulus():
    """The columns must span a lattice of full rank n: fewer than n of
    them is refused, as is a presentation with fewer relations than
    generators, whose group is infinite."""
    with pytest.raises(ValueError, match="rank below n"):
        smith_normal_form([[2], [3]], modulus=6)
    with pytest.raises(ValueError, match="rank below n"):
        smith_presentation([[4, 2]], 2, modulus=4)
    with pytest.raises(ValueError, match="rank below n"):
        smith_presentation([], 2, modulus=1)


def test_snf_refuses_a_coordinate_no_column_touches_given_a_modulus():
    """Given a modulus, a row of zeros, a coordinate that no relation
    touches, is refused: modulo R it would read as Z/R, not Z."""
    with pytest.raises(ValueError, match="rank below n"):
        smith_normal_form([[2, 4, 6], [0, 0, 0]], modulus=2)
    with pytest.raises(ValueError, match="rank below n"):
        smith_presentation([[3, 0], [6, 0]], 2, modulus=9)


def test_snf_refuses_a_modulus_that_is_not_a_positive_int():
    """The modulus has no default, and one below 1 or not an int is
    refused by both exports, before any elimination."""
    for bad in (0, -6, 6.0, "6", None):
        with pytest.raises(ValueError, match="positive int"):
            smith_normal_form([[2, 0], [0, 3]], modulus=bad)
        with pytest.raises(ValueError, match="positive int"):
            smith_presentation([[2, 0], [0, 3]], 2, modulus=bad)
    with pytest.raises(TypeError):
        smith_normal_form([[2, 0], [0, 3]])
    with pytest.raises(TypeError):
        smith_presentation([[2, 0], [0, 3]], 2)
    assert smith_presentation([[2, 0], [0, 3]], 2, modulus=6).order == 6


def test_group_refuses_a_diagonal_entry_below_1():
    """A 0 in the diagonal, once a free coordinate, or a negative entry is
    refused, not read as a trivial factor."""
    for diag in ([0], [2, 0], [1, 0, 4], [-3], (0,)):
        with pytest.raises(ValueError, match="below 1"):
            FiniteAbelianGroup(diag)
    G = FiniteAbelianGroup([1, 2, 4])
    assert G.invariant_factors == (2, 4) and G.order == 8
    assert FiniteAbelianGroup(()).order == 1


def test_hermite_form_refuses_fewer_rows_than_coordinates():
    with pytest.raises(ValueError, match="rank below n"):
        hermite_form([[2, 1]], 2, 4)
    with pytest.raises(ValueError, match="rank below n"):
        hermite_form([], 1, 3)
    assert hermite_form([], 0, 3) == []


def test_hermite_form_refuses_a_coordinate_no_row_touches():
    with pytest.raises(ValueError, match="rank below n"):
        hermite_form([[2, 0], [4, 0]], 2, 8)
    with pytest.raises(ValueError, match="rank below n"):
        hermite_form([[0, 3], [0, 6], [0, 9]], 2, 9)


def test_hermite_form_refuses_a_row_of_the_wrong_length():
    """A row longer or shorter than n is refused, not cut to n."""
    with pytest.raises(ValueError, match="length"):
        hermite_form([[1, 2, 3]], 1, 5)
    with pytest.raises(ValueError, match="length"):
        hermite_form([[1, 0], [3]], 2, 5)
    with pytest.raises(ValueError, match="length"):
        hermite_form([[1], [0]], 0, 5)


def _z2_z12():
    G = smith_presentation([[4, 0], [0, 6]], 2, modulus=24)
    assert G.invariant_factors == (2, 12)
    return G


def test_subgroup_image_order_refuses_coordinates_of_the_wrong_length():
    G = _z2_z12()
    for gens in ([(0,)], [(1, 1, 5)], [(0, 1), (1,)]):
        with pytest.raises(ValueError, match="length"):
            subgroup_image_order(G, gens)
    assert subgroup_image_order(G, [(0, 1)]) == 12
    assert subgroup_image_order(G, [(1, 0), (0, 3)]) == 8


def test_element_refuses_coordinates_of_the_wrong_length():
    G = _z2_z12()
    for coords in ((), (1,), (1, 1, 5)):
        with pytest.raises(ValueError, match="length"):
            G.element(coords)
    assert G.element((3, -1)).coords == (1, 11)


def test_element_order_refuses_coordinates_of_the_wrong_length():
    G = _z2_z12()
    for coords in ((1,), (1, 1, 5)):
        with pytest.raises(ValueError, match="length"):
            element_order(G, GroupElement(coords))
    assert element_order(G, GroupElement((1, 2))) == 6


@functools.lru_cache(maxsize=None)
def _hermite_grid(count=200, seed=53):
    """`count` seeded generator sets of full rank n: m rows of length n,
    1 <= n <= 8 and n <= m <= 9, entries up to 2^16 in absolute value,
    about a quarter of them 0."""
    from sympy import Matrix
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 8)
        m = rng.randint(n, 9)
        rows = [[rng.choice((0, rng.randint(-2**16, 2**16),
                             rng.randint(-2**16, 2**16),
                             rng.randint(-2**16, 2**16)))
                 for _ in range(n)] for _ in range(m)]
        if Matrix(rows).rank() == n:
            cases.append(rows)
    return cases


def _edge_cases(count=40, seed=54):
    """(rows, D) at the edges of hermite_form: n = 0 and n = 1, where the
    gcd of the last column is the whole form; rows whose entry the pivot
    divides, with more in the later columns; and the shape of
    RayClassTower.p_level, diagonal rows o_i e_i, most o_i prime to p,
    under relation rows, modulo a power of p."""
    cases = [([], 5), ([[], []], 7), ([[6]], 4), ([[6], [-10], [15]], 60),
             ([[0], [3]], 9), ([[4], [6]], 8), ([[7]], 1),
             ([[1, 1], [2, 0]], 4), ([[1, 2, 3], [2, 0, 1], [5, 7, 0]], 18),
             ([[2, 3, 1], [4, 0, 5], [6, 1, 0], [8, 8, 8]], 48),
             ([[3, 1], [9, 0], [6, 2]], 27)]
    rng = random.Random(seed)
    while len(cases) < count:
        p = rng.choice((2, 3, 5))
        n, D = rng.randint(2, 7), p**rng.randint(2, 9)
        diag = [[0] * i + [rng.choice((1, 2, 7, 11, 13, p, p * p))] +
                [0] * (n - 1 - i) for i in range(n)]
        rels = [[rng.randrange(D) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        cases.append((diag + rels, D))
    return cases


def test_hermite_form_against_sympy():
    """hermite_form, modulo a multiple D of the index, equals sympy's
    hermite_normal_form on a seeded grid up to 8 x 9 with entries up to
    2^16; and on the cases of _edge_cases, modulo any D, it equals sympy's
    form of the rows stacked on D*Z^n.  Sympy's form is the column-style
    one (Cohen, GTM 138, Alg. 2.4.5): on the coordinates in reverse order,
    with the rows as columns, it is the transpose of the row-style form
    read backwards."""
    pytest.importorskip("sympy")
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    def sympy_form(rows, n):
        W = hermite_normal_form(Matrix([r[::-1] for r in rows]).T)
        return [[int(W[n - 1 - j, n - 1 - i]) for j in range(n)]
                for i in range(n)]

    for k, rows in enumerate(_hermite_grid()):
        n = len(rows[0])
        index = prod(_pivots(sympy_form(rows, n)))
        H = hermite_form(rows, n, index * (1 + k % 5))
        assert H == sympy_form(rows, n), rows
    for rows, D in _edge_cases():
        n = len(rows[0]) if rows else 0
        full = rows + [[D if j == i else 0 for j in range(n)]
                       for i in range(n)]
        expected = sympy_form(full, n) if n else []
        assert hermite_form(rows, n, D) == expected, (rows, D)


def test_lattice_index_is_the_product_of_the_smith_diagonal():
    """The product of the Hermite pivots, modulo a multiple of the index,
    is the product of sympy's Smith diagonal on the same grid, and
    subgroup_image_order of the rows in (Z/2D)^n is (2D)^n over the index.
    (The exact elimination oracles.exact_smith_form does not return on
    most of it: from 3 x 6 up, its entries blow up.)"""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    for k, rows in enumerate(_hermite_grid()):
        n = len(rows[0])
        S = sympy_snf(Matrix(rows), domain=ZZ)
        index = prod(abs(int(S[i, i])) for i in range(n))
        D = index * (1 + k % 7)
        assert prod(_pivots(hermite_form(rows, n, D))) == index
        G = FiniteAbelianGroup([2 * D] * n)
        assert subgroup_image_order(G, rows) == (2 * D)**n // index


def test_lattice_intersection():
    # L1 = 2Z x Z, L2 = Z x 3Z: intersection 2Z x 3Z
    B1 = [[2, 0], [0, 1]]
    B2 = [[1, 0], [0, 3]]
    I = lattice_intersection(B1, B2)
    # modulo |Delta|, a nonzero 2 x 2 minor, the form is the lattice's own
    R = _full_rank_modulus(I)
    assert R is not None
    assert hermite_form(list(zip(*I)), 2, R) == [[2, 0], [0, 3]]


def test_subgroup_order_from_lattice():
    G = smith_presentation([[4, 0], [0, 4]], 2, modulus=16)
    cols = [[2, 0], [0, 0]]  # lattice spanned by (2,0)
    assert subgroup_order_from_lattice(G, cols) == 2


def test_decompose_abelian_z2_z4():
    elems = list(itertools.product(range(2), range(4)))
    def op(a, b):
        return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 4)
    gens, orders, dlog = decompose_abelian(elems, op, (0, 0))
    assert orders == [2, 4]
    assert len(dlog) == 8


def test_decompose_abelian_cyclic6_as_product():
    elems = list(itertools.product(range(2), range(3)))
    def op(a, b):
        return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 3)
    gens, orders, dlog = decompose_abelian(elems, op, (0, 0))
    assert orders == [6]
    assert dlog[gens[0]] == (1,)


def check_decomposition(elements, op, identity, decomposition, pairs):
    """(gens, orders, dlog) decomposes the group: the orders are a
    divisibility chain and equal the invariant factors of the max-order
    recursion, dlog is a bijection onto prod Z/d_i, the gens have unit
    coordinates, and dlog turns op into + on the given pairs."""
    gens, orders, dlog = decomposition
    assert all(d > 1 for d in orders)
    assert all(b % a == 0 for a, b in zip(orders, orders[1:]))
    assert orders == [o for _, o in reversed(
        decompose_by_max_order(sorted(elements), op, identity))]
    assert set(dlog) == set(elements) and len(elements) == prod(orders)
    assert set(dlog.values()) == set(itertools.product(
        *[range(d) for d in orders]))
    assert [dlog[g] for g in gens] == \
        [tuple(int(i == j) for j in range(len(orders)))
         for i in range(len(orders))]
    for a, b in pairs:
        assert dlog[op(a, b)] == tuple((x + y) % d for x, y, d in
                                       zip(dlog[a], dlog[b], orders))


@pytest.mark.parametrize("factors", [(2, 4), (6,), (2, 3), (2, 2, 4),
                                     (3, 9), (4, 2), (9, 3, 3)])
def test_decompose_abelian_relabelled(factors):
    """Z/d1 x ... with its elements relabelled by seeded shuffles of
    0, ..., h - 1, so the order of the labels says nothing of the law."""
    cells = list(itertools.product(*[range(d) for d in factors]))
    for seed in range(5):
        labels = list(range(len(cells)))
        random.Random(seed).shuffle(labels)
        to_label = dict(zip(cells, labels))
        to_cell = dict(zip(labels, cells))

        def op(a, b):
            return to_label[tuple((x + y) % d for x, y, d in
                                  zip(to_cell[a], to_cell[b], factors))]
        identity = to_label[(0,) * len(factors)]
        check_decomposition(labels, op, identity,
                            decompose_abelian(labels, op, identity),
                            itertools.product(labels, repeat=2))


def test_decompose_abelian_class_groups_d_below_2000():
    """The decomposition each class group of a squarefree d < 2000 with
    h > 1 keeps, on all pairs of classes (h is at most 14 there)."""
    seen = 0
    for d in range(2, 2000):
        if not squarefree(d):
            continue
        K = RealQuadraticField(d)
        clg = class_group(K)
        if clg.h == 1:
            continue
        seen += 1

        def kmul(k1, k2):
            return clg.key_of(_pair_to_ideal(K, *k1) *
                              _pair_to_ideal(K, *k2))
        keys = clg.cycle_keys
        check_decomposition(keys, kmul, clg.principal_key,
                            (clg.gen_keys, clg.gen_orders, clg._dlog),
                            itertools.product(keys, repeat=2))
    assert seen == 758


def test_cyclic_order_index_product():
    G = smith_presentation([[12]], 1, modulus=12)
    for c in range(12):
        g = G.element([c])
        o = element_order(G, g)
        assert o * (G.order // subgroup_image_order(G, [g])) // \
            (G.order // o) * 1 == o  # sanity
        assert o * (G.order // o) == G.order
        assert subgroup_image_order(G, [g]) == o


def test_relation_lattice_against_congruence_oracle():
    """relation_lattice on seeded element lists of Z/d_1 x ... x Z/d_k,
    with zero and repeated elements, against the congruence lattice
    {w : C w = 0 mod d} of the oracle: every row is a relation, the basis
    is lower triangular with diagonal >= 1, and the two lattices have the
    same index in Z^n, so they are equal.  That index, the product of the
    diagonal, is the order of the span of the elements."""
    rng = random.Random(20261019)
    for _ in range(300):
        k = rng.randint(1, 3)
        orders = [rng.randint(2, 12) for _ in range(k)]
        n = rng.randint(1, 5)
        coords = [tuple(rng.randrange(d) for d in orders) for _ in range(n)]
        if rng.random() < 0.3:
            coords[rng.randrange(n)] = coords[0]
        if rng.random() < 0.2:
            coords[rng.randrange(n)] = (0,) * k
        rows = relation_lattice(coords, orders)
        assert len(rows) == n
        for i, w in enumerate(rows):
            assert len(w) == n and w[i] >= 1 and not any(w[i + 1:])
            assert all(sum(x * c[t] for x, c in zip(w, coords)) % d == 0
                       for t, d in enumerate(orders)), (coords, orders, w)
        ref = solve_congruence_lattice([[c[t] for c in coords]
                                        for t in range(k)], orders)
        # both lattices hold |G|*Z^n, so they are equal exactly when their
        # Hermite forms modulo |G| are
        H = hermite_form(rows, n, prod(orders))
        assert H == hermite_form(ref, n, prod(orders))
        index = prod(_pivots(H))
        span = {(0,) * k}
        for c in coords:
            while True:
                grown = span | {tuple((a + b) % d for a, b, d in
                                      zip(x, c, orders)) for x in span}
                if grown == span:
                    break
                span = grown
        assert index == prod(w[i] for i, w in enumerate(rows)) == len(span)
    # the trivial group, as over Q: every element is a relation
    assert relation_lattice([(), ()], []) == [[1, 0], [0, 1]]
    assert relation_lattice([], [4]) == []
