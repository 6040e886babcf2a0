import functools
import itertools
import random
import signal
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from iwasawalab.abgroup import (smith_normal_form, smith_presentation,
                                lattice_index, element_order, matrix_rank,
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


def _working_modulus(A):
    """(r, R) for smith_normal_form with no modulus: the rank r of A and
    R = |Delta| of matrix_rank when r = n, its square when r < n."""
    r, R = matrix_rank(A)
    return r, (R if r == len(A) else R * R)


def _check_row_transform(A, D, U):
    """D is the Smith form of A modulo R, R of _working_modulus, and U its
    row transform: the diagonal is sympy's, a nonnegative divisibility
    chain whose product up to the rank r divides R, zero from r on; U is
    invertible modulo R with no entry above R/2 in absolute value;
    gcd(R, row i of U*A) is d_i for i < r and R past it."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    n, m = len(A), len(A[0])
    r, R = _working_modulus(A)
    assert all(D[i][j] == 0 for i in range(n) for j in range(m) if i != j)
    diag = [D[i][i] for i in range(min(n, m))]
    S = sympy_snf(Matrix(A), domain=ZZ)
    assert diag == [abs(int(S[i, i])) for i in range(min(n, m))]
    assert all(d > 0 for d in diag[:r]) and not any(diag[r:])
    for a, b in zip(diag[:r], diag[1:r]):
        assert b % a == 0
    assert R % prod(diag[:r]) == 0
    assert all(2 * abs(x) <= R for row in U for x in row)
    assert gcd(int(det(U)), R) == 1
    for i, row in enumerate(mat_mul(U, A)):
        assert gcd(R, *row) == (diag[i] if i < r else R)


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_snf_properties(A):
    D, U, V = smith_normal_form(A)
    assert V == []
    _check_row_transform(A, D, U)


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
    """With no modulus the call takes R of _working_modulus itself; given
    that R as `modulus` it returns the same U, and the same diagonal but
    for the positions from the rank on, which it reads as gcd(0, R) = R.
    A matrix whose rank is visibly below n, with fewer columns than rows or
    a row of zeros, is refused given a modulus."""
    for A in SNF_CASES:
        D, U, V = smith_normal_form(A)
        _check_row_transform(A, D, U)
        r, R = _working_modulus(A)
        if len(A[0]) < len(A) or not all(map(any, A)):
            with pytest.raises(ValueError, match="rank below n"):
                smith_normal_form(A, modulus=R)
            continue
        D2, U2, V2 = smith_normal_form(A, modulus=R)
        assert U2 == U and V2 == V == []
        k = min(len(A), len(A[0]))
        assert [D2[i][i] for i in range(k)] == \
            [D[i][i] if i < r else R for i in range(k)]


def test_snf_unpacks_to_diagonal_transform_and_empty_v():
    A = [[4, 2], [0, 2], [6, 6]]
    out = smith_normal_form(A)
    assert len(out) == 3
    D, U, V = out
    assert [D[0][0], D[1][1]] == [2, 2]
    assert len(U) == 3 and V == []
    assert type(out) is tuple


def test_snf_q79_ray_class_relations_u_only():
    # a ray-class relation matrix captured while building alpha for Q(sqrt 79)
    A = [[15251194969974, 0, 7625597484987, 4192643766891, -11212799052631],
         [0, 15251194969974, 7625597484987, 11058551203083, -14905223429924],
         [0, 0, 0, 0, 3]]
    D, U, V = smith_normal_form(A)
    assert [D[i][i] for i in range(3)] == [1, 9, 15251194969974]
    _check_row_transform(A, D, U)
    assert V == []


def test_snf_diagonal_against_sympy():
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    for A in SNF_CASES:
        S = sympy_snf(Matrix(A), domain=ZZ)
        k = min(len(A), len(A[0]))
        D, _, _ = smith_normal_form(A)
        assert [D[i][i] for i in range(k)] == \
            [abs(S[i, i]) for i in range(k)]


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
    # with no modulus R is the last Bareiss pivot, here +-det
    assert smith_normal_form(FOUND_5X5) == (D, U, V)
    assert lattice_index(FOUND_5X5, modulus=R) == R


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
    form with no modulus, and projections against orders read off the
    exact rational solve."""
    rng = random.Random(4)
    for A, R in FULL_RANK_CASES:
        n = len(A)
        G = smith_presentation(A, n, modulus=R)
        assert G.diag == _diagonal_by_minors(A)
        assert G.invariant_factors == tuple(d for d in G.diag if d > 1)
        assert G.order == R
        D, _, _ = smith_normal_form(A)
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


def test_exported_snf_of_wide_exponents_returns_with_no_modulus():
    """The exports smith_presentation and smith_normal_form, with no
    modulus, on WIDE_EXPONENTS (5 x 6) and its transpose: the exact
    elimination they ran before did not return on the transpose in 15 s;
    modulo |Delta| each call ends well inside a 1 s timer, which raises
    in the test rather than let it hang.  The exponents have rank 5, so
    every invariant is 1, and the group of the five rows on six
    generators has one free coordinate."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    def expired(*args):
        raise TimeoutError("the Smith form did not return in 1 s")
    handler = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        out = []
        for A in (WIDE_EXPONENTS, [list(c) for c in zip(*WIDE_EXPONENTS)]):
            out.append((A, smith_presentation(A, len(A[0])),
                        smith_normal_form(A)))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    for A, G, (D, _, _) in out:
        S = sympy_snf(Matrix(A), domain=ZZ)
        assert [D[i][i] for i in range(5)] == \
            [abs(int(S[i, i])) for i in range(5)] == [1] * 5
        assert G.invariant_factors == () and G.free_rank == len(A[0]) - 5


def _snf_grid():
    """300 matrices up to 8 x 9 drawn once from a fixed seed: every third
    a product B*C of inner size r below min(n, m), so rank-deficient, with
    |entries| < 2^15, the others with |entries| <= 2^16, about a third of
    them 0."""
    rng = random.Random(52)
    cases = []
    for t in range(300):
        n, m = rng.randint(1, 8), rng.randint(1, 9)
        if t % 3 == 0:
            r = rng.randint(0, min(n, m) - 1)
            B = [[rng.randint(-2**4, 2**4) for _ in range(r)]
                 for _ in range(n)]
            C = [[rng.randint(-2**8, 2**8) for _ in range(m)]
                 for _ in range(r)]
            cases.append([[sum(B[i][k] * C[k][j] for k in range(r))
                           for j in range(m)] for i in range(n)])
        else:
            cases.append([[rng.choice((0, rng.randint(-2**16, 2**16),
                                       rng.randint(-2**16, 2**16)))
                           for _ in range(m)] for _ in range(n)])
    return cases


def _check_torsion_projection(A):
    """The group G of Z^n modulo the columns of A, presented with no
    modulus: each torsion generator t_i, column i of W^-1 for sympy's
    exact decomposition S = W*A*V with d_i = S_ii > 1, projects to an
    element of order d_i, and the images generate all of the torsion
    coordinates, so that project maps the torsion subgroup isomorphically
    even when G is infinite."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_decomp
    n, m = len(A), len(A[0])
    G = smith_presentation([list(c) for c in zip(*A)], n)
    S, W, _ = smith_normal_decomp(Matrix(A), domain=ZZ)
    Winv = W.inv()
    torsion = [(abs(int(S[i, i])), [int(x) for x in Winv[:, i]])
               for i in range(min(n, m)) if abs(int(S[i, i])) > 1]
    assert G.invariant_factors == tuple(d for d, _ in torsion), A
    images = [G.project(t) for _, t in torsion]
    assert [element_order(G, g) for g in images] == \
        [d for d, _ in torsion], A
    T = FiniteAbelianGroup(list(G.invariant_factors))
    assert subgroup_image_order(T, [g.coords for g in images]) == \
        prod(G.invariant_factors), A


def test_snf_with_no_modulus_on_a_seeded_grid():
    """On _snf_grid, at least 100 of them rank-deficient: the diagonal of
    smith_normal_form with no modulus is sympy's; its zeros, with the rows
    past the m columns, count the n - rank free coordinates, as does
    smith_presentation's free rank on the columns; D is diagonal, each
    d_i up to the rank divides R of _working_modulus, and no entry of U
    exceeds R/2 in absolute value.  On each case of rank below n, the
    presentation's project is checked on the torsion subgroup."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    deficient = 0
    for A in _snf_grid():
        n, m = len(A), len(A[0])
        k = min(n, m)
        r, R = _working_modulus(A)
        deficient += r < k
        D, U, _ = smith_normal_form(A)
        S = sympy_snf(Matrix(A), domain=ZZ)
        diag = [D[i][i] for i in range(k)]
        assert diag == [abs(int(S[i, i])) for i in range(k)], A
        assert diag.count(0) + max(0, n - m) == n - r
        assert smith_presentation([list(c) for c in zip(*A)], n).free_rank \
            == n - r
        assert all(D[i][j] == 0 for i in range(n) for j in range(m)
                   if i != j)
        assert all(R % d == 0 for d in diag[:r])
        assert all(2 * abs(x) <= R for row in U for x in row), A
        if r < n:
            _check_torsion_projection(A)
    assert deficient >= 100


def test_infinite_group_projects_its_torsion_faithfully():
    """Z^2 modulo (0, 2): |Delta| = 2 is also the torsion invariant, so
    modulo 2 alone the torsion row could read the free coordinate.  The
    element (0, 1) has order 2 and projects to order 2.  The other cases
    have invariants equal to |Delta| beside free coordinates, or none."""
    pytest.importorskip("sympy")
    G = smith_presentation([[0, 2]], 2)
    assert G.invariant_factors == (2,) and G.free_rank == 1
    assert element_order(G, G.project([0, 1])) == 2
    for A in ([[0], [2]], [[2], [0]], [[0, 0], [3, 0], [0, 0]],
              [[6, 0], [0, 0]], [[2], [4]], [[4, 6], [2, 4], [0, 0]]):
        _check_torsion_projection(A)


def test_presentation_diag_2_3():
    G = smith_presentation([[2, 0], [0, 3]], 2)
    assert G.invariant_factors == (6,)
    assert G.free_rank == 0


def test_presentation_example():
    G = smith_presentation([[4, 2], [0, 2]], 2)
    assert G.invariant_factors == (2, 4)


def test_presentation_free():
    G = smith_presentation([], 2)
    assert G.invariant_factors == ()
    assert G.free_rank == 2


def test_presentation_idempotent():
    G = smith_presentation([[2, 0], [0, 4]], 2)
    H = smith_presentation([[G.invariant_factors[0], 0],
                            [0, G.invariant_factors[1]]], 2)
    assert H.invariant_factors == G.invariant_factors


def test_project_consistency():
    rels = [[4, 2], [0, 2]]
    G = smith_presentation(rels, 2)
    # every relation row must project to the identity
    for r in rels:
        assert G.project(r) == group_identity(G)


def test_element_order_cases():
    G = smith_presentation([[6]], 1)
    assert G.invariant_factors == (6,)
    assert element_order(G, group_identity(G)) == 1
    assert element_order(G, G.element([2])) == 3
    H = smith_presentation([[2, 0], [0, 4]], 2)
    assert element_order(H, H.element([1, 1])) == 4


def test_subgroup_image_order_cases():
    H = smith_presentation([[2, 0], [0, 4]], 2)
    assert subgroup_image_order(H, [H.element([1, 0]), H.element([0, 1])]) == 8
    assert subgroup_image_order(H, []) == 1
    G = smith_presentation([[6]], 1)
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
        G = smith_presentation(rels, n)
        if G.free_rank:
            continue
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
    that many fall short of full rank; zero rows and empty inputs too.
    Its |Delta| is a multiple of d_1 * ... * d_r, sympy's invariant
    factors up to the rank, as an r x r minor is, and 1 at rank 0."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(46)
    assert matrix_rank([]) == (0, 1)
    assert matrix_rank([[0, 0], [0, 0]]) == (0, 1)
    for _ in range(200):
        n, m, r = rng.randint(1, 6), rng.randint(1, 7), rng.randint(0, 5)
        B = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
        C = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(r)]
        A = [[sum(B[i][t] * C[t][j] for t in range(r)) for j in range(m)]
             for i in range(n)]
        rank, delta = matrix_rank(A)
        assert rank == Matrix(A).rank(), A
        S = sympy_snf(Matrix(A), domain=ZZ)
        assert delta > 0
        assert delta % prod(int(S[i, i]) for i in range(rank)) == 0, A


def test_solve_dlog_cases():
    G = smith_presentation([[9]], 1)
    assert solve_dlog(G, G.element([1]), G.element([4])) == 4
    H = smith_presentation([[6]], 1)
    assert solve_dlog(H, H.element([2]), H.element([3])) is None
    K = smith_presentation([[2, 0], [0, 4]], 2)
    n = solve_dlog(K, K.element([1, 1]), K.element([0, 2]))
    assert n is not None and K.scale(n, K.element([1, 1])) == K.element([0, 2])


def brute_elements(factors):
    return [GroupElement(c) for c in itertools.product(*[range(d) for d in factors])]


def test_brute_force_equivalence_small_groups():
    rng = random.Random(7)
    for factors in [(2,), (8,), (2, 4), (3, 9), (2, 2, 4), (5, 25), (6, 12), (10, 1000)]:
        rels = [[factors[i] if j == i else 0 for j in range(len(factors))]
                for i in range(len(factors))]
        G = smith_presentation(rels, len(factors))
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
    G = smith_presentation([[4, 0], [0, 8]], 2)
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


def test_lattice_index():
    assert lattice_index([[2, 0], [0, 3]]) == 6
    assert lattice_index([[1, 0], [0, 1]]) == 1


def test_snf_refuses_fewer_columns_than_rows_given_a_modulus():
    """Given a modulus, the columns must span a lattice of full rank n:
    fewer than n of them is refused, where the call with no modulus
    reads a free coordinate."""
    with pytest.raises(ValueError, match="rank below n"):
        smith_normal_form([[2], [3]], modulus=6)
    with pytest.raises(ValueError, match="rank below n"):
        smith_presentation([[4, 2]], 2, modulus=4)
    assert smith_presentation([[4, 2]], 2).free_rank == 1


def test_snf_refuses_a_coordinate_no_column_touches_given_a_modulus():
    """Given a modulus, a row of zeros, a coordinate that no relation
    touches, is refused: modulo R it would read as Z/R, not Z."""
    with pytest.raises(ValueError, match="rank below n"):
        smith_normal_form([[2, 4, 6], [0, 0, 0]], modulus=2)
    with pytest.raises(ValueError, match="rank below n"):
        smith_presentation([[3, 0], [6, 0]], 2, modulus=9)
    assert smith_presentation([[3, 0], [6, 0]], 2).free_rank == 1


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
        lattice_index([[2, 4], [0, 0]], modulus=8)


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


def test_hermite_form_against_sympy():
    """hermite_form, modulo a multiple D of the index, equals sympy's
    hermite_normal_form on a seeded grid up to 8 x 9 with entries up to
    2^16.  Sympy's form is the column-style one (Cohen, GTM 138, Alg.
    2.4.5): on the coordinates in reverse order, with the rows as columns,
    it is the transpose of the row-style form read backwards."""
    pytest.importorskip("sympy")
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form
    for k, rows in enumerate(_hermite_grid()):
        n = len(rows[0])
        W = hermite_normal_form(Matrix([r[::-1] for r in rows]).T)
        index = prod(int(W[i, i]) for i in range(n))
        H = hermite_form(rows, n, index * (1 + k % 5))
        assert H == [[int(W[n - 1 - j, n - 1 - i]) for j in range(n)]
                     for i in range(n)], rows


def test_lattice_index_is_the_product_of_the_smith_diagonal():
    """lattice_index, with no modulus and modulo a multiple of the index,
    is the product of sympy's Smith diagonal on the same grid.  (The exact
    elimination oracles.exact_smith_form does not return on most of it:
    from 3 x 6 up, its entries blow up.)"""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    for k, rows in enumerate(_hermite_grid()):
        n = len(rows[0])
        B = [list(c) for c in zip(*rows)]
        S = sympy_snf(Matrix(B), domain=ZZ)
        index = prod(abs(int(S[i, i])) for i in range(n))
        assert lattice_index(B) == index
        assert lattice_index(B, modulus=index * (1 + k % 7)) == index


def test_lattice_intersection():
    # L1 = 2Z x Z, L2 = Z x 3Z: intersection 2Z x 3Z
    B1 = [[2, 0], [0, 1]]
    B2 = [[1, 0], [0, 3]]
    I = lattice_intersection(B1, B2)
    assert lattice_index([[I[0][0], I[0][1]], [I[1][0], I[1][1]]]) == 6


def test_subgroup_order_from_lattice():
    G = smith_presentation([[4, 0], [0, 4]], 2)
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
    G = smith_presentation([[12]], 1)
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
        index = lattice_index([[w[i] for w in rows] for i in range(n)])
        assert index == lattice_index([[b[i] for b in ref]
                                       for i in range(n)])
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
