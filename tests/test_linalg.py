import itertools
import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pplab import linalg
from pplab.linalg import RationalMatrix, Subspace, kernel_basis, rref, subspace_equal
from pplab.splitting import _sparse_rank

fracs = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def matrices(max_dim=4):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(
        lambda shape: st.lists(
            st.lists(fracs, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(RationalMatrix.from_rows)
    )


@st.composite
def sparse_matrices(draw, max_rows=12, max_cols=30):
    """Wide, mostly zero matrices shaped like the scaled selections pplab
    eliminates, with zero rows and repeated rows mixed in."""
    cols = draw(st.integers(1, max_cols))
    row = st.dictionaries(st.integers(0, cols - 1), fracs.filter(bool), max_size=4)
    rows = draw(st.lists(row, min_size=1, max_size=max_rows - 3))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    rows = draw(st.permutations(rows))
    return RationalMatrix.from_rows(
        [[r.get(j, Fraction(0)) for j in range(cols)] for r in rows], cols=cols
    )


any_matrices = st.one_of(matrices(), sparse_matrices())


def test_rref_proportional_rows():
    red = rref(RationalMatrix.from_rows([[1, 2], [2, 4]]))
    assert red.rank == 1
    assert red.pivots == (0,)


def test_rref_identity_is_fixed():
    m = RationalMatrix.identity(3)
    red = rref(m)
    assert red.matrix == m
    assert red.rank == 3


def test_rref_hand_elimination():
    red = rref(RationalMatrix.from_rows([[2, 0, 0], [0, 1, 0]]))
    assert red.matrix == RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    assert red.rank == 2


def test_kernel_basis_hand_solved():
    # 2a = 0 and b = 0 leave only the third coordinate free.
    ker = kernel_basis(RationalMatrix.from_rows([[2, 0, 0], [0, 1, 0]]))
    assert ker == Subspace.from_vectors([[0, 0, 1]], 3)


def test_kernel_of_identity_is_zero():
    for n in range(1, 5):
        assert kernel_basis(RationalMatrix.identity(n)).dim == 0


def test_kernel_of_zero_matrix_is_everything():
    ker = kernel_basis(RationalMatrix.zero(2, 3))
    assert ker.dim == 3
    assert ker.basis == RationalMatrix.identity(3)


def test_subspace_equal_scaling_invariance():
    a = Subspace.from_vectors([[1, 0]], 2)
    b = Subspace.from_vectors([[2, 0]], 2)
    assert subspace_equal(a, b)


def test_subspace_equal_distinct_lines():
    a = Subspace.from_vectors([[1, 0]], 2)
    b = Subspace.from_vectors([[0, 1]], 2)
    assert not subspace_equal(a, b)


def test_subspace_equal_full_space():
    a = Subspace.from_vectors([[1, 1], [1, -1]], 2)
    b = Subspace.from_vectors([[1, 0], [0, 1]], 2)
    assert subspace_equal(a, b)


def test_subspace_equal_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_equal(Subspace(2, ()), Subspace(3, ()))


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rref_is_idempotent(m):
    once = rref(m)
    twice = rref(once.matrix)
    assert once.matrix == twice.matrix
    assert once.pivots == twice.pivots


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(m)
    for i in range(ker.dim):
        image = m.mat_vec(ker.basis.row(i))
        assert all(x == 0 for x in image)


@settings(deadline=None, max_examples=100)
@given(any_matrices)
def test_rank_nullity(m):
    assert rref(m).rank + kernel_basis(m).dim == m.cols


@settings(deadline=None, max_examples=100)
@given(any_matrices)
def test_sparse_rank_matches_rref(m):
    rows = [{j: x for j, x in enumerate(row) if x} for row in m.to_rows()]
    assert _sparse_rank(rows) == len(_naive_gauss_jordan(m.to_rows())[1])


@settings(deadline=None, max_examples=40)
@given(matrices(max_dim=3), st.integers(0, 10**6))
def test_subspace_invariant_under_row_recombination(m, seed):
    import random

    rng = random.Random(seed)
    sub = Subspace.from_vectors(m.to_rows(), m.cols)
    rows = [list(sub.basis.row(i)) for i in range(sub.dim)]
    if not rows:
        return
    # Invertible recombination: shuffles, scalings and row additions.
    for _ in range(6):
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows))
        if i == j:
            c = Fraction(rng.choice([1, 2, 3, -1]))
            rows[i] = [c * x for x in rows[i]]
        else:
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    assert subspace_equal(Subspace.from_vectors(rows, m.cols), sub)


def _naive_gauss_jordan(rows):
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


@settings(deadline=None, max_examples=150)
@given(any_matrices)
def test_rref_matches_naive_gauss_jordan(m):
    got = rref(m)
    want_rows, want_pivots = _naive_gauss_jordan(m.to_rows())
    assert got.matrix.to_rows() == want_rows
    assert list(got.pivots) == want_pivots


@settings(deadline=None, max_examples=100)
@given(any_matrices)
def test_from_vectors_takes_dense_or_mapping_vectors(m):
    want_rows, _ = _naive_gauss_jordan(m.to_rows())
    want = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in want_rows if any(row))
    dense = Subspace.from_vectors(m.to_rows(), m.cols)
    # The same vectors as {column: value} mappings, with some zero values named.
    mappings = [{j: x for j, x in enumerate(row) if x or j % 2} for row in m.to_rows()]
    assert Subspace.from_vectors(mappings, m.cols) == dense
    assert dense.rows == want


@settings(deadline=None, max_examples=100)
@given(any_matrices)
def test_dense_views_match_the_dense_forms(m):
    # The dense forms the sparse rows stand for: the whole reduced matrix,
    # zero rows last, and its nonzero rows as the subspace basis.
    want_rows, _ = _naive_gauss_jordan(m.to_rows())
    red = rref(m)
    sub = Subspace.from_vectors(m.to_rows(), m.cols)
    assert red.matrix == RationalMatrix.from_rows(want_rows, cols=m.cols)
    kept = [row for row in want_rows if any(row)]
    assert sub.basis == RationalMatrix.from_rows(kept, cols=m.cols)
    assert all(isinstance(x, Fraction) for x in red.matrix.entries + sub.basis.entries)


def test_subspace_accepts_canonical_rows():
    rows = (((0, Fraction(1)), (2, Fraction(5))), ((1, Fraction(1)),))
    sub = Subspace(3, rows)
    assert sub.dim == 2
    assert sub == Subspace.from_vectors([[2, 0, 10], [1, 1, 5]], 3)


@pytest.mark.parametrize("rows", [
    (((1, Fraction(1)), (0, Fraction(2))),),
    (((0, Fraction(2)), (1, Fraction(1))),),
    (((1, Fraction(1)),), ((0, Fraction(1)),)),
    (((0, Fraction(1)),), ((0, Fraction(1)),)),
    (((0, Fraction(1)), (1, Fraction(3))), ((1, Fraction(1)),)),
    (((0, Fraction(1)), (3, Fraction(1))),),
    (((-1, Fraction(1)),),),
    (((0, Fraction(1)), (2, Fraction(0))),),
    ((),),
], ids=[
    "unsorted row", "lead not 1", "pivots decreasing", "pivot repeated",
    "pivot column in another row", "column >= ambient_dim", "negative column",
    "stored zero", "empty row",
])
def test_subspace_refuses_rows_that_are_not_canonical(rows):
    with pytest.raises(ValueError):
        Subspace(3, rows)


def test_from_vectors_refuses_bad_vectors():
    with pytest.raises(ValueError):
        Subspace.from_vectors([[1, 0], [1, 0, 0]], 3)
    with pytest.raises(ValueError):
        Subspace.from_vectors([{3: 1}], 3)
    with pytest.raises(ValueError):
        Subspace.from_vectors([{0: 1, -1: 2}, {0: 3}], 3)


def test_matmul_and_inverse_roundtrip():
    m = RationalMatrix.from_rows([[1, 2], [3, Fraction(7, 2)]])
    assert m.inverse() @ m == RationalMatrix.identity(2)
    assert m @ m.inverse() == RationalMatrix.identity(2)


@pytest.mark.parametrize("n", range(1, 6))
def test_inverse_is_two_sided(n):
    rng = random.Random(n)
    cases = []
    while len(cases) < 10:
        m = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        if m.det() != 0:
            cases.append(m)
    # Lower anti-triangular: only the last row has a nonzero leading entry,
    # so elimination has to swap rows before its first pivot.
    cases.append(
        RationalMatrix.from_rows(
            [[i + j + 1 if i + j >= n - 1 else 0 for j in range(n)] for i in range(n)]
        )
    )
    identity = RationalMatrix.identity(n)
    for m in cases:
        inv = m.inverse()
        assert m @ inv == identity == inv @ m


def test_inverse_of_singular_raises():
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ValueError):
        # Zero leading entry, and the third row is the sum of the first two.
        RationalMatrix.from_rows([[0, 1, 2], [1, 1, 1], [1, 2, 3]]).inverse()
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0]]).inverse()


def test_det_small_cases():
    assert RationalMatrix.from_rows([[1, 2], [3, 4]]).det() == -2
    assert RationalMatrix.identity(4).det() == 1
    assert RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]]).det() == 1


def _leibniz_det(rows):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        term = Fraction(1)
        for i, j in itertools.combinations(range(len(perm)), 2):
            if perm[i] > perm[j]:
                term = -term
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.just(Fraction(0)), fracs), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(RationalMatrix.from_rows)
)


@settings(deadline=None, max_examples=150)
@given(square_matrices)
def test_det_matches_leibniz(m):
    assert m.det() == _leibniz_det(m.to_rows())


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],  # one swap
    [[0, 0, 2], [0, 3, 0], [5, 0, 0]],  # anti-diagonal, odd
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],  # anti-diagonal, even
    [[0, 1, 2], [0, 0, 3], [4, 5, 6]],  # cyclic rows
    [[1, 2, 3], [2, 4, 6], [0, 1, 1]],  # proportional rows
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # zero column
    [[1, 2, 3], [4, 5, 6], [5, 7, 9]],  # dependent, no zero entries
    [[Fraction(1, 2), 1, 0, 0, 0], [0, 0, 0, 0, Fraction(-3, 2)], [0, 0, 1, 1, 0],
     [2, 0, 0, 0, 1], [0, 1, 0, Fraction(2, 3), 0]],
])
def test_det_hand_cases_match_leibniz(rows):
    m = RationalMatrix.from_rows(rows)
    assert m.det() == _leibniz_det(m.to_rows())


def _mixed_rows(m):
    """Sparse rows of m with integral entries as int, the rest as Fraction."""
    return [
        {j: x.numerator if x.denominator == 1 else x for j, x in enumerate(row) if x}
        for row in m.to_rows()
    ]


def _cleared(m):
    """m with each row multiplied by the lcm of its denominators."""
    return RationalMatrix.from_rows(
        [[x * lcm(*(y.denominator for y in row)) for x in row] for row in m.to_rows()],
        cols=m.cols,
    )


@settings(deadline=None, max_examples=100)
@given(any_matrices)
def test_eliminate_is_exact_on_int_and_mixed_rows(m):
    # int values must give the integer pivot rows of the same values as
    # Fractions, never float ones, and canonical rows over the rationals.
    for mat in (m, _cleared(m)):
        fraction_rows = [{j: x for j, x in enumerate(row) if x} for row in mat.to_rows()]
        got = linalg._eliminate(_mixed_rows(mat), reduced=True)
        assert got == linalg._eliminate(fraction_rows, reduced=True)
        assert all(type(x) is int for row in got.values() for x in row.values())
        want_rows, _ = _naive_gauss_jordan(mat.to_rows())
        want = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in want_rows if any(row))
        canonical = linalg._canonical_rows(got)
        assert canonical == want
        assert all(type(x) is Fraction for row in canonical for _, x in row)


@settings(deadline=None, max_examples=100)
@given(square_matrices)
def test_det_and_inverse_are_exact_on_int_and_mixed_rows(m):
    for mat in (m, _cleared(m)):
        want_det = _leibniz_det(mat.to_rows())
        want_inverse = mat.inverse() if want_det else None
        with mock.patch.object(linalg, "_sparse_rows", _mixed_rows):
            det = mat.det()
            inverse = mat.inverse() if want_det else None
        assert type(det) is Fraction and det == want_det
        # The helper the sweep's draws call on their integer rows directly.
        assert linalg._det(_mixed_rows(mat)) == want_det
        if want_det:
            assert inverse == want_inverse
            assert all(type(x) is Fraction for x in inverse.entries)
            assert mat @ inverse == RationalMatrix.identity(mat.rows)
