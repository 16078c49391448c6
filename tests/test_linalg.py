import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieposet.algebras import build_gA
from lieposet.forms import _dphi_rows, kernel
from lieposet.linalg import (
    _MODP,
    RatMatrix,
    ShapeError,
    _int_echelon,
    char_poly,
    determinant,
    int_null_space,
    int_rank,
    int_solve_scaled,
    kernel_basis,
    rank,
    rank_mod_p,
    skew_rank,
    solve,
)
from lieposet.posets import Poset
from lieposet.sweep import _pairing, enumerate_posets
from lieposet.toral import catalog_blocks
from oracles import (
    dense_int_echelon,
    dense_kernel_basis,
    dense_rows,
    dense_solve,
    integer_sqrt_exact,
    is_zero,
    mul_vector,
    poly_eval_matrix,
)


def naive_rref(rows):
    """Plain Fraction Gauss-Jordan; the independent elimination oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def dense_rank_mod_p(int_rows, ncols, p):
    """Dense forward elimination over GF(p); the same-field oracle."""
    rows = [[x % p for x in r] for r in int_rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rr = [(x * inv) % p for x in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rr)]
        r += 1
    return r


def random_matrix(rng, nrows, ncols, bound=9, rational=False):
    def entry():
        if rational:
            return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
        return Fraction(rng.randint(-bound, bound))

    return RatMatrix([[entry() for _ in range(ncols)] for _ in range(nrows)])


def test_kernel_identity_empty():
    assert kernel_basis(RatMatrix.identity(2)) == []


def test_kernel_one_by_two():
    basis = kernel_basis(RatMatrix([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_determinant_skew_two():
    assert determinant(RatMatrix([[0, 1], [-1, 0]])) == 1


def test_char_poly_diag():
    # diag(0, 1) -> x^2 - x
    assert char_poly(RatMatrix([[0, 0], [0, 1]])) == [1, -1, 0]


def test_char_poly_shape_error():
    with pytest.raises(ShapeError):
        char_poly(RatMatrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ShapeError):
        determinant(RatMatrix([[1, 2, 3]]))


def test_solve_simple_and_inconsistent():
    m = RatMatrix([[2, 0], [0, 4]])
    assert solve(m, [1, 2]) == [Fraction(1, 2), Fraction(1, 2)]
    assert solve(RatMatrix([[1, 1], [1, 1]]), [0, 1]) is None
    assert solve(RatMatrix([[1, 1], [2, 2]]), [3, 6]) is not None


def test_rank_matches_oracle_randomized():
    rng = random.Random(7)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, nrows, ncols, rational=rng.random() < 0.5)
        _, pivots = naive_rref(m.rows)
        assert rank(m) == len(pivots)


def test_kernel_matches_oracle_randomized():
    rng = random.Random(8)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols, rational=rng.random() < 0.5)
        basis = kernel_basis(m)
        assert len(basis) == ncols - rank(m)
        for v in basis:
            assert all(x == 0 for x in mul_vector(m, v))
        # basis vectors are linearly independent
        if basis:
            assert rank(RatMatrix(basis)) == len(basis)


def test_rank_nullity_randomized():
    rng = random.Random(9)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        m = random_matrix(rng, nrows, ncols)
        assert rank(m) + len(kernel_basis(m)) == ncols


def test_determinant_matches_permutation_expansion():
    rng = random.Random(10)
    from itertools import permutations

    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, rational=True)
        expected = Fraction(0)
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = Fraction(sign)
            for i in range(n):
                term *= m.rows[i][perm[i]]
            expected += term
        assert determinant(m) == expected


def test_skew_determinant_is_square():
    rng = random.Random(11)
    for n in range(1, 9):
        m = RatMatrix.zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.randint(-6, 6))
                m.rows[i][j] = v
                m.rows[j][i] = -v
        d = determinant(m)
        if n % 2 == 1:
            assert d == 0
        else:
            assert d >= 0
            assert integer_sqrt_exact(d) is not None


def test_cayley_hamilton_randomized():
    rng = random.Random(12)
    for n in range(1, 7):
        m = random_matrix(rng, n, n, bound=5, rational=(n <= 4))
        coeffs = char_poly(m)
        assert coeffs[0] == 1 and len(coeffs) == n + 1
        assert is_zero(poly_eval_matrix(coeffs, m))


def test_char_poly_triangular_fast_path_agrees():
    rng = random.Random(13)
    n = 6
    m = RatMatrix.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            m.rows[i][j] = Fraction(rng.randint(-3, 3))
    # Faddeev on triangular input against the product of (x - diag entry)
    poly = [Fraction(1)]
    for i in range(n):
        nxt = poly + [Fraction(0)]
        for k in range(len(poly)):
            nxt[k + 1] -= m.rows[i][i] * poly[k]
        poly = nxt
    assert char_poly(m) == poly


def test_kernel_stability_under_row_permutation():
    rng = random.Random(14)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
        m = random_matrix(rng, nrows, ncols)
        perm = list(range(nrows))
        rng.shuffle(perm)
        m2 = RatMatrix([m.rows[i] for i in perm])
        b1, b2 = kernel_basis(m), kernel_basis(m2)
        assert len(b1) == len(b2)
        if b1:
            # same row space of solutions: each basis solves the other matrix
            for v in b1:
                assert all(x == 0 for x in mul_vector(m2, v))
            for v in b2:
                assert all(x == 0 for x in mul_vector(m, v))
            stacked = RatMatrix(b1 + b2)
            assert rank(stacked) == len(b1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-30, 30), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_solve_consistency_property(rows):
    m = RatMatrix(rows)
    x = [Fraction(1), Fraction(-2), Fraction(3)]
    b = mul_vector(m, x)
    got = solve(m, b)
    assert got is not None
    assert mul_vector(m, got) == b


def skew_matrices(max_n, entries):
    """Square skew-symmetric integer row lists, drawn two ways.

    A - A^T, A strictly upper triangular, gives generic skew matrices,
    and B J B^T (J the standard symplectic form on 2m <= n coordinates)
    gives skew matrices of rank at most 2m, so rank deficits are common.
    """

    def difference(n):
        def skew(upper):
            a = [[0] * n for _ in range(n)]
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for (i, j), x in zip(pairs, upper):
                a[i][j], a[j][i] = x, -x
            return a

        size = n * (n - 1) // 2
        return st.lists(entries, min_size=size, max_size=size).map(skew)

    def symplectic(n):
        def product(b):
            m = len(b[0]) // 2 if b else 0
            return [
                [sum(b[k][2 * t] * b[l][2 * t + 1] - b[k][2 * t + 1] * b[l][2 * t] for t in range(m))
                 for l in range(n)]
                for k in range(n)
            ]

        return st.integers(0, n // 2).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=2 * m, max_size=2 * m), min_size=n, max_size=n
            ).map(product)
        )

    return st.integers(0, max_n).flatmap(lambda n: difference(n) | symplectic(n))


def _dict_rows(rows):
    """Dense integer rows as the dicts of their nonzeros."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


@settings(max_examples=200, deadline=None)
@given(skew_matrices(6, st.integers(-3, 3) | st.just(0) | st.sampled_from([_MODP, 2 * _MODP])))
def test_rank_mod_p_matches_exact_rank_on_small_matrices(matrix):
    # skew_rank is the exact rank whatever the entries. With entries in
    # [-3, 3] every minor of these 6 x 6 matrices is below p (Hadamard's
    # bound), so no nonzero minor vanishes mod p and the mod-p rank is
    # already exact; an entry that is a multiple of p breaks the bound,
    # and a deficit mod p then takes the exact fallback.
    n, rows = len(matrix), _dict_rows(matrix)
    exact = int_rank(rows, n)
    assert skew_rank(rows, n) == exact
    if all(abs(x) <= 3 for row in matrix for x in row):
        assert rank_mod_p(rows, n) == exact


# zero is drawn by two of the four branches, so about half the entries are zero
_SPARSE_ENTRY = st.integers(-3, 3) | st.integers(-(1 << 70), 1 << 70) | st.just(0) | st.just(0)


@settings(max_examples=150, deadline=None)
@given(skew_matrices(24, _SPARSE_ENTRY), st.sampled_from([2, 3, 7, _MODP]))
def test_rank_mod_p_matches_dense_elimination(matrix, p):
    # small primes make entries cancel, which exercises the deletions
    n = len(matrix)
    assert rank_mod_p(_dict_rows(matrix), n, p) == dense_rank_mod_p(matrix, n, p)


def test_rank_mod_p_edge_shapes():
    assert rank_mod_p([], 0) == 0
    assert rank_mod_p([{}, {}, {}], 3) == 0
    assert rank_mod_p([{1: 1}, {0: -1}], 2) == 2
    # odd size: a skew matrix is never of full rank
    assert rank_mod_p(_dict_rows([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]), 3) == 2
    # indices 0 and 3 stay isolated
    assert rank_mod_p([{}, {2: 5}, {1: -5}, {}], 4) == 2
    # only the entries above the diagonal are read
    assert rank_mod_p([{0: 7}, {0: 1, 1: 7}], 2) == 0
    # a non-square matrix cannot be skew
    for rows, ncols in (([], 4), ([[], []], 0), ([[1, 2, 3, 4]], 4), ([[0, 1], [-1, 0], [1, 1]], 2)):
        with pytest.raises(ShapeError):
            rank_mod_p(_dict_rows(rows), ncols)


def _skew(n, entries):
    """n x n skew dict rows from ``{(i, j): x}`` above the diagonal."""
    rows = [{} for _ in range(n)]
    for (i, j), x in entries.items():
        rows[i][j], rows[j][i] = x, -x
    return rows


def test_rank_mod_p_pivot_order_against_int_rank():
    # rank_mod_p pivots on an index of least degree and its least-degree
    # neighbour, and drops the indices each 2 x 2 pivot leaves isolated
    cases = [
        [],
        [{}],
        [{} for _ in range(4)],
        # all-zero rows among live ones
        _skew(5, {(1, 3): 2, (3, 4): -1}),
        # a star: the first pivot is a leaf and the centre, which leaves the
        # other leaves isolated mid-elimination
        _skew(5, {(0, k): k for k in range(1, 5)}),
        # K4 with Pfaffian 2·1 - 1·1 + 1·(-1) = 0: the Schur update cancels
        # the last entry, so the last two indices are isolated by cancellation
        _skew(4, {(0, 1): 2, (2, 3): 1, (0, 2): 1, (1, 3): 1, (0, 3): 1, (1, 2): -1}),
        # K4 and K6 with nonzero Pfaffian: every degree starts at n - 1, and the
        # first pivot drops the others to n - 3, below the least degree so far
        _skew(4, {(i, j): i + 2 * j + 1 for i in range(4) for j in range(i + 1, 4)}),
        _skew(6, {(i, j): (i * j) % 5 + 1 for i in range(6) for j in range(i + 1, 6)}),
        # a path 0 - 1 - ... - 7: degrees 1 and 2 throughout, a perfect matching
        _skew(8, {(i, i + 1): i + 1 for i in range(7)}),
    ]
    # the bordered contact matrices of the catalog, [[dφ, -φ], [φ, 0]]
    for blk in catalog_blocks():
        if blk.kind == "contact":
            gA = build_gA(blk.poset)
            rows, _, phi = _dphi_rows(gA, blk.form)
            n = gA.dim
            bordered = [row | {n: -p} if p else row for p, row in zip(phi, rows)]
            bordered.append({j: x for j, x in enumerate(phi) if x})
            assert rank_mod_p(bordered, n + 1) == n + 1, blk.id
            cases.append(bordered)
    for rows in cases:
        n = len(rows)
        exact = int_rank(rows, n)
        assert rank_mod_p(rows, n) == exact, rows
    assert [rank_mod_p(c, len(c)) for c in cases[:9]] == [0, 0, 0, 2, 2, 2, 4, 6, 8]


@settings(max_examples=100, deadline=None)
@given(skew_matrices(6, st.integers(-3, 3)), skew_matrices(6, st.integers(-3, 3)))
def test_rank_mod_p_multiples_of_p_are_zero(small, multiples):
    p = _MODP
    # a lower bound only: [[0, p], [-p, 0]] has rank 2 over Q; its minors
    # reach p, so skew_rank takes the exact fallback
    assert int_rank([{1: p}, {0: -p}], 2) == 2 and rank_mod_p([{1: p}, {0: -p}], 2) == 0
    assert skew_rank([{1: p}, {0: -p}], 2) == 2
    assert rank_mod_p(_dict_rows([[0, p, 1], [-p, 0, 2 * p], [-1, -2 * p, 0]]), 3) == 2
    assert rank_mod_p([{1: 7}, {0: -7}], 2, p=7) == 0
    # adding q times a skew matrix changes nothing mod q
    n = min(len(small), len(multiples))
    square = [r[:n] for r in small[:n]]
    for q in (7, p):
        shifted = [[square[i][j] + q * multiples[i][j] for j in range(n)] for i in range(n)]
        assert rank_mod_p(_dict_rows(shifted), n, q) == dense_rank_mod_p(square, n, q)
    assert rank_mod_p(_dict_rows(shifted), n) == int_rank(_dict_rows(square), n)


@st.composite
def bareiss_cases(draw):
    """Integer matrices up to 8 x 8: small or 16-bit entries, often sparse,
    and for about half the draws a product of two thinner factors, so
    rank deficits and zero rows are common."""
    def matrix(nrows, ncols, entries):
        row = st.lists(entries, min_size=ncols, max_size=ncols)
        return draw(st.lists(row, min_size=nrows, max_size=nrows))

    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    big = 1 << 16
    entries = draw(st.sampled_from([st.integers(-9, 9), st.integers(-big, big)])) | st.just(0)
    if draw(st.booleans()):
        return matrix(nrows, ncols, entries), ncols
    k = draw(st.integers(0, 3))
    base, mix = matrix(k, ncols, entries), matrix(nrows, k, st.integers(-3, 3))
    return [[sum(a * b[j] for a, b in zip(m, base)) for j in range(ncols)] for m in mix], ncols


@settings(max_examples=400, deadline=None)
@given(bareiss_cases(), st.data())
def test_sparse_bareiss_is_pivot_identical_to_dense(case, data):
    rows, ncols = case
    aug = data.draw(st.none() | st.integers(0, ncols))
    ech, pivots, sign = _int_echelon(_dict_rows(rows), ncols if aug is None else aug)
    dense = [[row.get(j, 0) for j in range(ncols)] for row in ech]
    assert (dense, pivots, sign) == dense_int_echelon(rows, ncols, augmented_from=aug)
    assert all(x for row in ech for x in row.values())


def _over(xs, d):
    return [Fraction(x, d) for x in xs]


@settings(max_examples=300, deadline=None)
@given(bareiss_cases())
def test_sparse_kernel_and_solve_match_dense_bit_for_bit(case):
    # repr tells Fraction(0) from a float 0.0 or -0.0: exact zeros throughout
    rows, ncols = case
    given_rows = _dict_rows(rows)
    gens, d = int_null_space(given_rows, ncols)
    assert repr([_over(g, d) for g in gens]) == repr(dense_kernel_basis(rows, ncols))
    if ncols:
        # the last column is the right-hand side; the kernel is that of A alone
        x, gens_a, d_a = int_solve_scaled(given_rows, ncols - 1)
        dense_x, dense_rank = dense_solve(rows, ncols - 1)
        assert repr(x and _over(x, d_a)) == repr(dense_x)
        assert ncols - 1 - len(gens_a) == dense_rank
        a = [r[:-1] for r in rows]
        assert repr([_over(g, d_a) for g in gens_a]) == repr(dense_kernel_basis(a, ncols - 1))
    # a nonzero right-hand side: x = (5, 0), and the kernel of [1 1] is (-1, 1)
    assert int_solve_scaled([{0: 1, 1: 1, 2: 5}], 2) == ([5, 0], [[-1, 1]], 1)
    assert int_solve_scaled([{0: 1, 1: 1, 2: 5}], 2)[1:] == int_null_space([{0: 1, 1: 1}], 2)
    # an empty back-substitution sum is an exact zero, not the float 0 / pivot
    assert repr(kernel_basis(RatMatrix([[1, 0]]))) == "[[Fraction(0, 1), Fraction(1, 1)]]"


@settings(max_examples=300, deadline=None)
@given(bareiss_cases())
def test_integer_front_ends_are_the_fraction_wrappers_without_floats(case):
    # int_null_space and int_solve_scaled give X over the last pivot D, of
    # either sign; kernel_basis and solve divide by D, exactly
    rows, ncols = case
    gens, d = int_null_space(_dict_rows(rows), ncols)
    assert d != 0 and all(type(x) is int for g in gens for x in g)
    if not rows:
        return
    basis = kernel_basis(RatMatrix(rows))
    assert basis == [_over(g, d) for g in gens]
    assert repr(basis) == repr(dense_kernel_basis(rows, ncols))
    if ncols:
        x, gens_a, d_a = int_solve_scaled(_dict_rows(rows), ncols - 1)
        fraction_x = solve(RatMatrix([r[:-1] for r in rows]), [r[-1] for r in rows])
        assert (gens_a, d_a) == int_null_space(_dict_rows(r[:-1] for r in rows), ncols - 1)
        assert (x is None) == (fraction_x is None)
        assert x is None or fraction_x == _over(x, d_a)
        assert repr(fraction_x) == repr(dense_solve(rows, ncols - 1)[0])


@functools.cache
def _sweep_posets():
    """Connected posets with n <= 6, and those whose g_A is Frobenius.

    A poset counts as Frobenius when dφ is exactly nonsingular for one
    fixed integer φ, which certifies index 0.
    """
    posets = enumerate_posets(6)
    frobenius = []
    for poset in posets:
        gA = build_gA(poset)
        rows = _dphi_rows(gA, list(range(1, gA.dim + 1)))[0]
        if gA.dim % 2 == 0 and int_rank(rows, gA.dim) == gA.dim:
            frobenius.append(poset)
    return posets, frobenius


def _exact_dot(row, v):
    return sum(x * v[j] for j, x in row.items())


def _draw_form(data, posets, diagonal):
    """g_A and a 16-bit φ on its basis, drawn as ``classify_contact`` draws
    it: every strict coefficient in [1, 2^16]; the diagonal only if asked."""
    gA = build_gA(data.draw(st.sampled_from(posets)))
    coeff = st.integers(1, 1 << 16)
    values = [
        data.draw(coeff if lab[0] == "e" or diagonal else st.just(0)) for lab in gA.labels
    ]
    return gA, values


def _assert_kernel_matches_legacy_oracle(gA, values):
    """``forms.kernel`` against the dense oracle on dφ of one draw: the exact
    vectors X / D, the recorded empty sums at the legacy floats' positions,
    and ``sweep._pairing`` equal, repr and all, to the legacy Python sums
    over the strict indices, over every index, and over every index with
    the diagonal filled in. True when a float is there."""
    rows, d = _dphi_rows(gA, values)[0], gA.dim
    rep = kernel(gA, values)
    exact = [_over(g, rep.scale) for g in rep.generators]
    assert repr(exact) == repr(dense_kernel_basis(dense_rows(rows, d), d))
    legacy = dense_kernel_basis(dense_rows(rows, d), d, legacy=True)
    floats = [{i for i, x in enumerate(v) if isinstance(x, float)} for v in legacy]
    assert rep.empty_sums == floats
    assert all(x == 0 for v in legacy for x in v if isinstance(x, float))
    strict = [i for i, lab in enumerate(gA.labels) if lab[0] == "e"]
    completed = [v or 1 for v in values]  # as the diagonal completion sets h_i
    for x, empty, v in zip(rep.generators, rep.empty_sums, legacy):
        for phi, indices in ((values, strict), (values, range(d)), (completed, range(d))):
            want = sum(phi[i] * v[i] for i in indices)
            assert repr(_pairing(phi, x, rep.scale, empty, indices)) == repr(want)
    return any(floats)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_int_kernel_basis_matches_dense_at_sweep_size(data):
    # forms.kernel on dφ of connected posets with n <= 6 (g_A of dimension
    # up to 20) matches the dense oracle: exactly, and at the legacy floats
    gA, values = _draw_form(data, _sweep_posets()[0], diagonal=False)
    rows, d = _dphi_rows(gA, values)[0], gA.dim
    _assert_kernel_matches_legacy_oracle(gA, values)
    rep = kernel(gA, values)
    assert rep.dimension == d - int_rank(rows, d)
    for g in rep.generators:
        assert all(_exact_dot(row, _over(g, rep.scale)) == 0 for row in rows)


def test_int_kernel_basis_matches_dense_on_witnesses_of_1_2_345():
    # the 60 witness draws of classify_contact at seed 0 on 1<2<{3,4,5},
    # the poset whose pairing the float 0 / pivot entries flip: lazily
    # scaled rows, the recorded empty sums and the pairing must all match
    # the dense oracle's legacy mode
    gA = build_gA(Poset.from_covers(5, [(1, 2), (2, 3), (2, 4), (2, 5)]))
    d = gA.dim
    strict = [i for i, lab in enumerate(gA.labels) if lab[0] == "e"]
    rng = random.Random(0)
    with_floats = 0
    for _ in range(60):
        values = [0] * d
        for i in strict:
            values[i] = rng.randint(1, 1 << 16)
        with_floats += _assert_kernel_matches_legacy_oracle(gA, values)
    assert d == 11 and with_floats == 55


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_int_solve_matches_dense_on_frobenius_forms(data):
    # the principal-element system dφ x = φ(b) of a Frobenius poset
    gA, values = _draw_form(data, _sweep_posets()[1], diagonal=data.draw(st.booleans()))
    (rows, _, phi), d = _dphi_rows(gA, values), gA.dim
    aug = [row | {d: p} if p else row for row, p in zip(rows, phi)]
    x, gens, scale = int_solve_scaled(aug, d)
    x = x and _over(x, scale)
    dense_x, dense_rank = dense_solve(dense_rows(aug, d + 1), d)
    assert repr(x) == repr(dense_x)
    assert d - len(gens) == dense_rank
    assert repr([_over(g, scale) for g in gens]) == repr(dense_kernel_basis(dense_rows(rows, d), d))
    if not gens:
        assert all(_exact_dot(row, x) == p for row, p in zip(rows, phi))
