import random
from fractions import Fraction
from math import lcm

import pytest

from pplab.linalg import RationalMatrix, Subspace, subspace_equal
from pplab.parabolic import (
    GroupElement,
    _group_element,
    _parabolic_from_rng,
    _scaled_inverse_rows,
    _substitution_images,
)
from pplab.symspace import ParameterError, binomial, m_power_subspace, monomial_basis

from oracles import (
    chi,
    cleared_inverse,
    dual_action_matrix,
    identity_element,
    is_equivariant,
    product,
    random_parabolic,
    sym_action,
    target_rep_action,
)


def diag2(a):
    a = Fraction(a)
    return GroupElement(RationalMatrix.from_rows([[a, 0], [0, 1 / a]]), a)


def test_random_parabolic_structure():
    for seed in range(30):
        for N in (1, 2, 3):
            g = random_parabolic(N, seed)
            assert g.mat.det() == 1
            assert all(g.mat.entry(i, 0) == 0 for i in range(1, N + 1))
            assert g.mat.entry(0, 0) == g.parabolic_scalar != 0


def test_random_parabolic_is_seed_deterministic():
    assert random_parabolic(2, 17) == random_parabolic(2, 17)
    assert random_parabolic(2, 17, height=5) == random_parabolic(2, 17, height=5)


def test_random_parabolic_line_shape():
    # For N=1 the lower block is forced to 1/a by the determinant.
    for seed in range(20):
        g = random_parabolic(1, seed)
        a = g.parabolic_scalar
        assert g.mat.entry(1, 1) == 1 / a
        assert a.denominator <= 3 and abs(a.numerator) <= 3


def test_dual_action_identity():
    g = identity_element(2)
    assert dual_action_matrix(g) == RationalMatrix.identity(3)


def test_dual_action_diagonal_example():
    # Inverse-transpose on coordinates: x0 -> (1/2) x0, x1 -> 2 x1.
    d = dual_action_matrix(diag2(2))
    assert d == RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]])


def test_dual_action_preserves_hyperplane_span():
    # Images of x_1, ..., x_N have no x_0 component for stabilizer elements.
    for seed in range(10):
        for N in (1, 2, 3):
            d = dual_action_matrix(random_parabolic(N, seed))
            assert all(d.entry(0, j) == 0 for j in range(1, N + 1))


def test_sym_action_identity():
    g = identity_element(2)
    for n in (0, 1, 3):
        dim = len(monomial_basis(2, n))
        assert sym_action(g, n) == RationalMatrix.identity(dim)


def test_sym_action_degree_one_is_dual_action():
    for seed in range(8):
        for N in (1, 2):
            g = random_parabolic(N, seed)
            assert sym_action(g, 1) == dual_action_matrix(g)


def test_sym_action_diagonal_example():
    m = sym_action(diag2(2), 2)
    assert m == RationalMatrix.from_rows(
        [[Fraction(1, 4), 0, 0], [0, 1, 0], [0, 0, 4]]
    )


def test_sym_action_is_a_homomorphism_both_orders():
    for seed in range(6):
        for N in (1, 2):
            g = random_parabolic(N, 2 * seed)
            h = random_parabolic(N, 2 * seed + 1)
            for n in (2, 3):
                assert sym_action(product(g, h), n) == sym_action(g, n) @ sym_action(h, n)
                assert sym_action(product(h, g), n) == sym_action(h, n) @ sym_action(g, n)


def test_inverse_from_the_draw_is_the_cleared_inverse():
    # The inverse a drawn element brings along must be g.mat.inverse() cleared
    # by the lcm of its denominators, entry for entry.
    for N in range(1, 6):
        for height in range(1, 6):
            for seed in range(50):
                draw = _parabolic_from_rng(N, random.Random(seed), height)
                expected = cleared_inverse(_group_element(draw).mat)
                assert _scaled_inverse_rows(draw) == expected, (N, height, seed)


def fraction_draw(N, rng, height):
    # Reference for the integer draw: the element's inverse h built in
    # Fractions from the same random calls in the same order. Returns the
    # rows of h.
    mag = rng.randint(1, height)
    sign = rng.choice((1, -1))
    b = Fraction(sign * mag) if rng.random() < 0.5 else Fraction(sign, mag)
    stars = [rng.randint(-height, height) for _ in range(N)]
    block = [[int(i == j) for j in range(N)] for i in range(N)]
    if N >= 2:
        for _ in range(2 * N):
            i = rng.randrange(N)
            j = rng.randrange(N)
            while j == i:
                j = rng.randrange(N)
            c = rng.randint(-height, height)
            block[i] = [x + c * y for x, y in zip(block[i], block[j])]
    scaled = rng.randrange(N)
    rows = [[b] + [Fraction(s) for s in stars]]
    for i in range(N):
        rows.append([Fraction(0)] + [x / b if i == scaled else Fraction(x) for x in block[i]])
    return rows


def test_integer_draw_equals_the_fraction_draw():
    # (a, B, c) is (1/h00, h cleared by the lcm of its denominators, that
    # lcm) for the rational reference h, the element is the inverse of h,
    # and the generator state afterwards, which every later draw depends on,
    # is the same.
    for N in range(1, 6):
        for height in range(1, 6):
            for seed in range(40):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                draw = _parabolic_from_rng(N, rng, height)
                rows = fraction_draw(N, ref_rng, height)
                assert rng.getstate() == ref_rng.getstate(), (N, height, seed)
                c = lcm(*(x.denominator for row in rows for x in row))
                b_rows = tuple(tuple(int(x * c) for x in row) for row in rows)
                element = (1 / draw.b, *_scaled_inverse_rows(draw))
                assert element == (1 / rows[0][0], b_rows, c), (N, height, seed)
                h = RationalMatrix.from_rows(rows)
                assert _group_element(draw).mat == h.inverse(), (N, height, seed)


def test_truncated_substitution_images_are_restrictions():
    # Truncation modulo (x_1, ..., x_N)^(max_tail+1) must commute with the
    # expansion for any substitution, not only stabilizer-shaped ones.
    rng = random.Random(21)
    for N in (1, 2, 3):
        for _ in range(3):
            rows = [[rng.randint(-3, 3) for _ in range(N + 1)] for _ in range(N + 1)]
            rows[rng.randint(1, N)][0] = rng.choice((-2, -1, 1, 2))
            full = _substitution_images(rows, N, 5)
            for max_tail in range(6):
                cut = _substitution_images(rows, N, 5, max_tail)
                for d in range(6):
                    monos = monomial_basis(N, d).monomials
                    assert cut[d] == {
                        mono: {m: c for m, c in image.items() if monos[m][0] >= d - max_tail}
                        for mono, image in full[d].items()
                    }, (N, rows, max_tail, d)


def test_chi_values():
    assert chi(diag2(2), 3) == Fraction(1, 8)
    assert chi(diag2(1), 7) == 1
    assert chi(diag2(Fraction(1, 3)), 2) == 9


def test_chi_requires_parabolic():
    g = GroupElement(RationalMatrix.from_rows([[0, -1], [1, 0]]))
    with pytest.raises(ValueError):
        chi(g, 2)


def test_chi_is_multiplicative():
    for seed in range(8):
        g = random_parabolic(2, 3 * seed)
        h = random_parabolic(2, 3 * seed + 1)
        for n in (1, 2, 5):
            assert chi(product(g, h), n) == chi(g, n) * chi(h, n)


def test_target_rep_action_identity():
    g = identity_element(1)
    assert target_rep_action(g, 2, 1) == RationalMatrix.identity(2)


def test_target_rep_action_diagonal_example():
    m = target_rep_action(diag2(2), 2, 1)
    assert m == RationalMatrix.from_rows([[Fraction(1, 4), 0], [0, 1]])


def test_target_rep_dimension():
    for seed in range(5):
        for (N, n, k) in [(1, 3, 1), (2, 3, 2), (3, 4, 2)]:
            g = random_parabolic(N, seed)
            m = target_rep_action(g, n, k)
            assert m.rows == m.cols == binomial(k + N, N)


def test_target_rep_action_validates_range():
    with pytest.raises(ParameterError):
        target_rep_action(diag2(2), 2, 2)
    with pytest.raises(ParameterError):
        target_rep_action(diag2(2), 2, 0)


def test_is_equivariant_identity_and_zero():
    for seed in range(5):
        src = sym_action(random_parabolic(1, seed), 2)
        assert is_equivariant(RationalMatrix.identity(src.rows), src, src)
        assert is_equivariant(RationalMatrix.zero(src.rows, src.rows), src, src)


def test_is_equivariant_dimension_mismatch():
    g = random_parabolic(1, 0)
    with pytest.raises(ValueError):
        is_equivariant(RationalMatrix.identity(3), sym_action(g, 2), target_rep_action(g, 2, 1))


def test_hyperplane_powers_are_invariant():
    # The degree-n action maps the small-x_0 span into itself for every k:
    # the kernel of the jet projection is a subrepresentation.
    for seed in range(4):
        for N in (1, 2):
            g = random_parabolic(N, seed)
            for n in (2, 3, 4):
                a = sym_action(g, n)
                for k in range(1, n):
                    sub = m_power_subspace(N, n, k)
                    images = [a.mat_vec(sub.basis.row(i)) for i in range(sub.dim)]
                    together = Subspace.from_vectors(
                        [list(sub.basis.row(i)) for i in range(sub.dim)]
                        + [list(v) for v in images],
                        sub.ambient_dim,
                    )
                    assert subspace_equal(together, sub), (N, n, k, seed)


def test_quotient_line_transforms_by_chi():
    # Modulo the span of monomials divisible by some x_j (j >= 1), the
    # degree-n action is multiplication by chi(g, n): this pins the action
    # convention.
    for seed in range(8):
        for N in (1, 2):
            g = random_parabolic(N, seed)
            for n in (1, 2, 4):
                a = sym_action(g, n)
                assert a.entry(0, 0) == chi(g, n)
                assert all(a.entry(0, j) == 0 for j in range(1, a.cols))


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(RationalMatrix.from_rows([[2, 0], [0, 1]]))  # det 2
    with pytest.raises(ValueError):
        GroupElement(
            RationalMatrix.from_rows([[2, 0], [1, Fraction(1, 2)]]), Fraction(2)
        )  # nonzero below the corner
    with pytest.raises(ValueError):
        GroupElement(
            RationalMatrix.from_rows([[2, 0], [0, Fraction(1, 2)]]), Fraction(3)
        )  # scalar mismatch

