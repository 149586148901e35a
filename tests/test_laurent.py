import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pplab import laurent
from pplab.laurent import LaurentMatrix, LaurentPoly, block_components, det_laurent

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys = st.dictionaries(st.integers(-3, 3), fracs, max_size=4).map(LaurentPoly.from_dict)


def square(n, entries):
    return LaurentMatrix(n, n, tuple(entries))


def laurent_matrices(n):
    return st.lists(polys, min_size=n * n, max_size=n * n).map(lambda e: square(n, e))


small_polys = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2).map(
    LaurentPoly.from_dict
)
# Two of three entries are zero on average, so blocks and zero lines are common.
sparse_entries = st.one_of(st.just(LaurentPoly.zero()), st.just(LaurentPoly.zero()), small_polys)


@st.composite
def sparse_laurent_matrices(draw):
    n = draw(st.integers(1, 6))
    return square(n, draw(st.lists(sparse_entries, min_size=n * n, max_size=n * n)))


def inversion_sign(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def leibniz_det(m):
    """Oracle: the permutation sum, independent of peeling, blocks and Bareiss."""
    total = LaurentPoly.zero()
    for perm in itertools.permutations(range(m.rows)):
        term = LaurentPoly.const(inversion_sign(perm))
        for i, j in enumerate(perm):
            term = term * m.entry(i, j)
        total = total + term
    return total


def block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    entries = [LaurentPoly.zero()] * (n * n)
    at = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                entries[(at + i) * n + at + j] = b.entry(i, j)
        at += b.rows
    return square(n, entries)


def monomial_matrix(rng, n):
    return square(n, [LaurentPoly.t_pow(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n * n)])


def permutation_of_parity(rng, n, sign):
    perm = list(range(n))
    rng.shuffle(perm)
    if inversion_sign(perm) != sign:
        perm[0], perm[1] = perm[1], perm[0]
    return perm


def test_det_diag_t_and_t_inverse():
    m = LaurentMatrix.diagonal([LaurentPoly.t_pow(1), LaurentPoly.t_pow(-1)])
    assert det_laurent(m) == LaurentPoly.const(1)
    # The empty product: the 0x0 matrix has determinant 1.
    assert det_laurent(LaurentMatrix(0, 0, ())) == LaurentPoly.const(1)


def test_det_diag_t2_t2():
    m = LaurentMatrix.diagonal([LaurentPoly.t_pow(2), LaurentPoly.t_pow(2)])
    assert det_laurent(m) == LaurentPoly.t_pow(4)


def test_det_upper_triangular():
    m = LaurentMatrix.from_rows(
        [
            [LaurentPoly.t_pow(1), LaurentPoly.const(1)],
            [LaurentPoly.zero(), LaurentPoly.t_pow(1)],
        ]
    )
    assert det_laurent(m) == LaurentPoly.t_pow(2)


def test_det_non_square_raises():
    with pytest.raises(ValueError):
        det_laurent(LaurentMatrix(1, 2, (LaurentPoly.const(1), LaurentPoly.const(2))))


def test_det_singular_is_zero():
    row = [LaurentPoly.t_pow(1), LaurentPoly.t_pow(2)]
    m = LaurentMatrix.from_rows([row, row])
    assert det_laurent(m).is_zero()


@settings(deadline=None, max_examples=150)
@given(sparse_laurent_matrices())
def test_det_matches_leibniz_on_sparse_matrices(m):
    assert det_laurent(m) == leibniz_det(m)


@pytest.mark.parametrize("row_sign,col_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_det_of_permuted_block_diagonal(row_sign, col_sign):
    rng = random.Random(17 + 3 * row_sign + col_sign)
    for _ in range(6):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        sizes = sizes if sum(sizes) <= 6 else sizes[:2]
        blocks = [monomial_matrix(rng, s) for s in sizes]
        m = block_diagonal(blocks)
        rows = permutation_of_parity(rng, m.rows, row_sign)
        cols = permutation_of_parity(rng, m.rows, col_sign)
        p = m.submatrix(rows, cols)
        expected = LaurentPoly.const(row_sign * col_sign)
        for b in blocks:
            expected = expected * leibniz_det(b)
        assert det_laurent(p) == leibniz_det(p) == expected
        assert sorted(len(r) for r, _ in block_components(p)) == sorted(sizes)


def test_det_of_permuted_block_diagonal_cuts_no_blocks(monkeypatch):
    # det_laurent takes any square matrix as it is; cutting a cocycle into
    # blocks is left to TransitionData.
    def refused(*args):
        raise AssertionError("det_laurent cut the matrix into blocks")

    monkeypatch.setattr(laurent, "block_components", refused)
    rng = random.Random(41)
    for _ in range(6):
        blocks = [monomial_matrix(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        m = block_diagonal(blocks)
        rows = permutation_of_parity(rng, m.rows, rng.choice((1, -1)))
        cols = permutation_of_parity(rng, m.rows, rng.choice((1, -1)))
        p = m.submatrix(rows, cols)
        assert det_laurent(p) == leibniz_det(p)


def test_det_with_non_square_component_is_zero():
    # Rows 0 and 1 meet only column 0; row 2 meets columns 1 and 2.
    t, one, zero = LaurentPoly.t_pow(1), LaurentPoly.const(1), LaurentPoly.zero()
    m = LaurentMatrix.from_rows([[t, zero, zero], [one, zero, zero], [zero, t, one]])
    assert block_components(m) == [([0, 1], [0]), ([2], [1, 2])]
    assert det_laurent(m).is_zero()
    assert leibniz_det(m).is_zero()


def test_block_components_lists_zero_lines_as_their_own_blocks():
    one, zero = LaurentPoly.const(1), LaurentPoly.zero()
    m = LaurentMatrix.from_rows([[zero, one, zero], [zero, zero, zero], [zero, one, zero]])
    assert block_components(m) == [([0, 2], [1]), ([1], []), ([], [0]), ([], [2])]
    assert det_laurent(m).is_zero()


def test_block_components_sorts_indices_inside_a_block():
    # The search reaches row 2 before row 1 and column 2 before column 0.
    one, zero = LaurentPoly.const(1), LaurentPoly.zero()
    m = LaurentMatrix.from_rows([[zero, zero, one], [one, one, zero], [zero, one, one]])
    assert block_components(m) == [([0, 1, 2], [0, 1, 2])]


@settings(deadline=None, max_examples=40)
@given(laurent_matrices(2), laurent_matrices(2))
def test_det_is_multiplicative_2x2(a, b):
    assert det_laurent(a @ b) == det_laurent(a) * det_laurent(b)


@settings(deadline=None, max_examples=15)
@given(laurent_matrices(3), laurent_matrices(3))
def test_det_is_multiplicative_3x3(a, b):
    assert det_laurent(a @ b) == det_laurent(a) * det_laurent(b)


@settings(deadline=None, max_examples=30)
@given(laurent_matrices(3), st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)]))
def test_det_commutes_with_evaluation(m, t0):
    d = det_laurent(m)
    lhs = d.evaluate(t0) if not d.is_zero() else Fraction(0)
    assert lhs == m.evaluate(t0).det()


@settings(deadline=None, max_examples=60)
@given(polys, polys)
def test_exact_division_roundtrip(p, q):
    if q.is_zero():
        return
    prod = p * q
    assert prod.exact_div(q) == p


def test_exact_division_rejects_non_multiples():
    p = LaurentPoly.from_dict({0: 1, 1: 1})
    q = LaurentPoly.from_dict({0: 1, 2: 1})
    with pytest.raises(ArithmeticError):
        q.exact_div(p)


@settings(deadline=None, max_examples=60)
@given(polys, polys, st.sampled_from([Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5, 2)]))
def test_evaluation_is_a_ring_map(p, q, t0):
    assert (p * q).evaluate(t0) == p.evaluate(t0) * q.evaluate(t0)
    assert (p + q).evaluate(t0) == p.evaluate(t0) + q.evaluate(t0)


def test_zero_coefficients_never_stored():
    p = LaurentPoly.from_dict({2: Fraction(1), 3: Fraction(0)})
    assert p.coeffs == ((2, Fraction(1)),)
    q = p - p
    assert q.is_zero() and q.coeffs == ()


def test_matrix_evaluate_matches_entries():
    rng = random.Random(7)
    entries = [
        LaurentPoly.from_dict({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)})
        for _ in range(4)
    ]
    m = square(2, entries)
    t0 = Fraction(3, 2)
    ev = m.evaluate(t0)
    for i in range(2):
        for j in range(2):
            expected = m.entry(i, j).evaluate(t0) if not m.entry(i, j).is_zero() else 0
            assert ev.entry(i, j) == expected
