import random
from fractions import Fraction

import pytest

from pplab import jetmap
from pplab.jetmap import (
    _falling_factorial,
    _trial_checks,
    _trial_elements,
    exact_sequence_check,
    taylor_fiber_matrix,
    verify_jet_representation,
    verify_jet_representations,
    verify_kernel,
    x0_derivative_matrix,
)
from pplab.linalg import RationalMatrix, kernel_basis, rref, subspace_equal
from pplab.parabolic import (
    GroupElement,
    _parabolic_from_rng,
    _scaled_inverse_rows,
    _substitution_images,
)
from pplab.symspace import (
    ParameterError,
    binomial,
    dim_sym,
    m_power_subspace,
    monomial_basis,
)

from oracles import (
    PolyVector,
    chi,
    cleared_inverse,
    identity_element,
    is_equivariant,
    partial_derivative,
    random_parabolic,
    sym_action,
    target_rep_action,
)

GRID = [(N, n, k) for N in (1, 2, 3) for n in range(2, 6) for k in range(1, n)]


def test_jet_basis_size_and_order():
    # Jets are indexed by the degree-k monomials; their tails are the jet
    # exponents, by total degree and then descending-lexicographically.
    tails = tuple(mono[1:] for mono in monomial_basis(2, 2))
    assert len(tails) == binomial(4, 2) == 6
    assert tails == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_derivative_matrix_line_degree_two():
    m = x0_derivative_matrix(1, 2, 1)
    assert m == RationalMatrix.from_rows([[2, 0, 0], [0, 1, 0]])


def test_derivative_matrix_line_degree_three():
    # x0^3 -> 3 x0^2, x0^2 x1 -> 2 x0 x1, x0 x1^2 -> x1^2, x1^3 -> 0.
    m = x0_derivative_matrix(1, 3, 2)
    assert m == RationalMatrix.from_rows(
        [[3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0]]
    )


def test_derivative_matrix_column_oracle():
    # Columns must agree with iterating partial_derivative on each monomial.
    for (N, n, k) in [(1, 3, 1), (2, 3, 1), (2, 4, 2)]:
        m = x0_derivative_matrix(N, n, k)
        basis_n = monomial_basis(N, n)
        basis_k = monomial_basis(N, k)
        for col, mono in enumerate(basis_n):
            f = PolyVector.from_terms(basis_n, {mono: 1})
            for _ in range(n - k):
                f = partial_derivative(f, 0)
            assert f.basis == basis_k
            assert tuple(m.entry(r, col) for r in range(m.rows)) == f.coeffs


def test_derivative_matrix_is_surjective_on_grid():
    for (N, n, k) in GRID:
        assert rref(x0_derivative_matrix(N, n, k)).rank == binomial(k + N, N)


def test_derivative_matrix_validates_range():
    with pytest.raises(ParameterError):
        x0_derivative_matrix(1, 2, 2)
    with pytest.raises(ParameterError):
        x0_derivative_matrix(1, 2, 0)


def test_taylor_fiber_line_examples():
    m = taylor_fiber_matrix(1, 2, 1)
    basis = monomial_basis(1, 2)
    # F = x0 x1 dehomogenizes to u: value 0, first coefficient 1.
    col = basis.index_of((1, 1))
    assert (m.entry(0, col), m.entry(1, col)) == (0, 1)
    # F = x0^2 dehomogenizes to 1.
    col = basis.index_of((2, 0))
    assert (m.entry(0, col), m.entry(1, col)) == (1, 0)


def test_taylor_fiber_rank():
    for (N, n, k) in GRID:
        assert rref(taylor_fiber_matrix(N, n, k)).rank == binomial(k + N, N)


def test_derivative_and_taylor_maps_share_their_row_index():
    # phi is the Taylor map with each column scaled by its falling factorial,
    # so both write a degree-n monomial to the same jet row; _trial_checks
    # and the ffs of _equivariance_pass read phi's rows in that index.
    for (N, n, k) in GRID:
        phi = x0_derivative_matrix(N, n, k)
        taylor = taylor_fiber_matrix(N, n, k)
        basis_n = monomial_basis(N, n)
        assert (phi.rows, phi.cols) == (taylor.rows, taylor.cols)
        for r in range(phi.rows):
            for c, mono in enumerate(basis_n):
                expected = _falling_factorial(mono[0], n - k) * taylor.entry(r, c)
                assert phi.entry(r, c) == expected, (N, n, k, r, c)


def test_kernels_agree_three_ways():
    assert verify_kernel(1, 2, 1)
    assert verify_kernel(2, 2, 1)
    assert verify_kernel(1, 5, 3)


def test_kernel_example_is_x1_squared():
    ker = kernel_basis(x0_derivative_matrix(1, 2, 1))
    assert ker.dim == 1
    assert list(ker.basis.row(0)) == [0, 0, 1]


def test_kernels_agree_on_grid():
    for (N, n, k) in GRID:
        ker_phi = kernel_basis(x0_derivative_matrix(N, n, k))
        ker_taylor = kernel_basis(taylor_fiber_matrix(N, n, k))
        assert subspace_equal(ker_phi, ker_taylor), (N, n, k)
        assert subspace_equal(ker_phi, m_power_subspace(N, n, k)), (N, n, k)


def test_exact_sequence_dimensions():
    assert exact_sequence_check(1, 2, 1)
    assert m_power_subspace(1, 2, 1).dim + 2 == 3
    assert exact_sequence_check(2, 2, 1)
    assert m_power_subspace(2, 2, 1).dim + 3 == 6
    assert exact_sequence_check(3, 4, 2)
    assert m_power_subspace(3, 4, 2).dim == 25
    assert dim_sym(3, 4) == 35


def test_phi_is_equivariant_matrix_identity():
    # The literal intertwiner identity, through the public fraction-matrix ops.
    for (N, n, k) in [(1, 3, 1), (2, 3, 2), (2, 2, 1)]:
        phi = x0_derivative_matrix(N, n, k)
        for seed in range(10):
            g = random_parabolic(N, seed)
            assert is_equivariant(phi, sym_action(g, n), target_rep_action(g, n, k)), (N, n, k, seed)


def test_phi_equivariance_at_identity_is_trivial():
    for (N, n, k) in [(1, 2, 1), (2, 3, 2)]:
        phi = x0_derivative_matrix(N, n, k)
        g = identity_element(N)
        assert is_equivariant(phi, sym_action(g, n), target_rep_action(g, n, k))


def test_chain_rule_identity():
    # d/dx0 applied n-k times to g.f equals a^-(n-k) times g applied to the
    # derivative, for stabilizer elements g.
    rng = random.Random(5)
    for (N, n, k) in [(1, 3, 1), (2, 3, 1), (2, 4, 2)]:
        basis_n = monomial_basis(N, n)
        basis_k = monomial_basis(N, k)
        for seed in range(6):
            g = random_parabolic(N, seed)
            f = PolyVector(
                basis_n,
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(len(basis_n))),
            )
            gf = PolyVector(basis_n, sym_action(g, n).mat_vec(f.coeffs))
            lhs = gf
            for _ in range(n - k):
                lhs = partial_derivative(lhs, 0)
            df = f
            for _ in range(n - k):
                df = partial_derivative(df, 0)
            g_df = PolyVector(basis_k, sym_action(g, k).mat_vec(df.coeffs))
            rhs = g_df.scale(chi(g, n - k))
            assert lhs == rhs, (N, n, k, seed)


def test_verify_jet_representation_line():
    report = verify_jet_representation(1, 3, 1, trials=100, seed=11)
    assert report.passed
    assert report.equivariance_failures == 0
    assert report.equivariance_trials == 100


def test_verify_jet_representation_plane():
    report = verify_jet_representation(2, 3, 2, trials=100, seed=3)
    assert report.passed


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_jet_representation_needs_a_trial(trials):
    # With no trials the equivariance half would pass vacuously.
    with pytest.raises(ValueError):
        verify_jet_representation(1, 3, 1, trials=trials)


def test_verify_jet_representation_deterministic():
    a = verify_jet_representation(2, 4, 2, trials=20, seed=9)
    b = verify_jet_representation(2, 4, 2, trials=20, seed=9)
    assert a == b


def one_triple_checks(a, b_rows, c, N, n, k, ff):
    # The trial checks of one element as a one-triple verification runs
    # them: on the expansion truncated modulo (x_1, ..., x_N)^(k+1).
    return _trial_checks(_substitution_images(b_rows, N, n, k), a, c, n, k, ff)


def test_fast_path_agrees_with_matrix_path():
    # The integer trial checks inside verify_jet_representation must agree
    # with the public fraction-matrix equivariance test on the same elements.
    for (N, n, k) in [(1, 3, 1), (2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 4, 2)]:
        phi = x0_derivative_matrix(N, n, k)
        basis_k = monomial_basis(N, k)
        ff = [_falling_factorial(m[0] + (n - k), n - k) for m in basis_k]
        for seed in range(8):
            g = random_parabolic(N, seed)
            fast_phi, fast_quot = one_triple_checks(
                g.parabolic_scalar, *cleared_inverse(g.mat), N, n, k, ff
            )
            assert fast_phi == is_equivariant(phi, sym_action(g, n), target_rep_action(g, n, k))
            assert fast_quot  # implied by the full identity here


def test_trial_checks_reject_off_by_one_falling_factorials():
    # Shifting every falling factorial by one changes the ratios
    # ff[row] / ff[col] that the off-diagonal entries of the action must
    # satisfy; a diagonal element would not notice, so the first row is full.
    for (N, n, k) in [(1, 3, 1), (2, 4, 2), (3, 4, 1)]:
        rows = [[Fraction(int(i == j)) for j in range(N + 1)] for i in range(N + 1)]
        rows[0] = [Fraction(2)] + [Fraction(1)] * N
        rows[1][1] = Fraction(1, 2)
        g = GroupElement(RationalMatrix.from_rows(rows), Fraction(2))
        basis_k = monomial_basis(N, k)
        for shift in (-1, 1):
            ff = [_falling_factorial(m[0] + (n - k) + shift, n - k) for m in basis_k]
            checks = one_triple_checks(g.parabolic_scalar, *cleared_inverse(g.mat), N, n, k, ff)
            assert checks == (False, False), (N, n, k, shift)


def test_trial_checks_reject_an_element_that_moves_the_line():
    # First column (1, 1, 0, ...): the element does not fix the base point,
    # so the small-x_0 span is not invariant. GroupElement refuses such a
    # matrix as a stabilizer, so it is passed as its bare matrix, with a = 1.
    for (N, n, k) in [(1, 3, 1), (2, 3, 2), (3, 4, 2)]:
        rows = [[int(i == j) for j in range(N + 1)] for i in range(N + 1)]
        rows[1][0] = 1
        basis_k = monomial_basis(N, k)
        ff = [_falling_factorial(m[0] + (n - k), n - k) for m in basis_k]
        element = (Fraction(1), *cleared_inverse(RationalMatrix.from_rows(rows)))
        phi_ok, _ = one_triple_checks(*element, N, n, k, ff)
        assert not phi_ok, (N, n, k)
        # The block-triangularity half of phi_ok is computed on its own: with
        # an all-zero list the section comparison passes vacuously, and only
        # the images of the small-x_0 monomials can fail the element.
        assert one_triple_checks(*element, N, n, k, [0] * len(ff)) == (False, True), (N, n, k)


def seeded_draws(N, trials, seed, height):
    # What the trials of one verification must use: the elements drawn in
    # order from random.Random(seed), as (a, B, c) with g^-1 = B / c.
    rng = random.Random(seed)
    draws = []
    for _ in range(trials):
        draw = _parabolic_from_rng(N, rng, height)
        draws.append((1 / draw.b, *_scaled_inverse_rows(draw)))
    return draws


def test_report_does_not_depend_on_call_history(monkeypatch):
    # A report must come out the same cold, after another N, and after calls
    # that draw with a different seed, height or number of trials. A passing
    # report does not show which elements it used, so the elements each call
    # expands and hands to the trials are recorded and compared with a fresh
    # draw.
    seen = []
    expanded = []
    expand = jetmap._substitution_images
    checks = jetmap._trial_checks

    def recording_expansion(b_rows, *rest):
        expanded.append(b_rows)
        return expand(b_rows, *rest)

    def recording(levels, a, c, *rest):
        seen.append((a, expanded[-1], c))
        return checks(levels, a, c, *rest)

    monkeypatch.setattr(jetmap, "_substitution_images", recording_expansion)
    monkeypatch.setattr(jetmap, "_trial_checks", recording)

    def verify(N, n, k, trials=20, seed=5, height=3):
        seen.clear()
        report = verify_jet_representation(N, n, k, trials=trials, seed=seed, height=height)
        assert seen == seeded_draws(N, trials, seed, height)
        return report

    cold = verify(2, 4, 2)
    reports = [cold]
    for other in [
        dict(N=3, n=3, k=1),
        dict(N=2, n=4, k=1, seed=6),
        dict(N=2, n=4, k=2, height=4),
        dict(N=2, n=4, k=2, trials=7),
        dict(N=2, n=3, k=1),
    ]:
        verify(**other)
        reports.append(verify(2, 4, 2))
    assert all(report == cold for report in reports)
    assert cold.passed


def test_trial_elements_are_the_seeded_draws():
    for (N, trials, seed, height) in [(1, 4, 0, 3), (3, 5, 11, 2), (2, 3, 7, 5)]:
        assert list(_trial_elements(N, trials, seed, height)) == seeded_draws(N, trials, seed, height)


def random_trial_inputs(rng, N, shape):
    # Integer rows B, a corner scalar a and a clearing denominator c. A
    # "stabilizer" B has first column (b, 0, ..., 0) and a = c / b, the
    # corner of g = c B^-1, so its trials can pass; a "unipotent" one is
    # also the identity below its first row, so every monomial in x_1..x_N
    # is its own image; a "general" B moves the line and its a is arbitrary.
    rows = [[rng.randint(-3, 3) for _ in range(N + 1)] for _ in range(N + 1)]
    c = rng.randint(1, 4)
    if shape == "unipotent":
        rows[1:] = [[int(i == j) for j in range(N + 1)] for i in range(1, N + 1)]
    if shape in ("stabilizer", "unipotent"):
        rows[0][0] = rng.choice((-2, -1, 1, 2))
        for i in range(1, N + 1):
            rows[i][0] = 0
        return rows, Fraction(c, rows[0][0]), c
    return rows, Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)), c


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_shared_expansion_gives_the_per_triple_checks(N):
    # One expansion to degree 6 modulo (x_1..x_N)^6 must give every
    # 1 <= k < n <= 6 the verdicts of its own truncated expansion (the
    # oracle), for true, zero and random falling-factorial lists.
    rng = random.Random(100 + N)
    draws = 1 if N == 4 else 2
    for shape in ("stabilizer", "general"):
        for _ in range(draws):
            rows, a, c = random_trial_inputs(rng, N, shape)
            shared = _substitution_images(rows, N, 6, 5)
            for n in range(2, 7):
                for k in range(1, n):
                    oracle = _substitution_images(rows, N, n, k)
                    basis_k = monomial_basis(N, k)
                    true_ff = [_falling_factorial(m[0] + (n - k), n - k) for m in basis_k]
                    for ff in (true_ff, [0] * len(basis_k), [rng.randint(0, 2) for _ in basis_k]):
                        assert _trial_checks(shared, a, c, n, k, ff) == _trial_checks(
                            oracle, a, c, n, k, ff
                        ), (N, shape, rows, n, k, ff)


def dict_trial_checks(levels, a, c, n, k, ff):
    # Reference for the column-wise comparison: the checks built the two
    # scaled sides of every section column as dicts and compared them.
    img_n, img_k = levels[n], levels[k]
    dim_k = len(img_k)
    r = c ** (n - k) * a ** (k - n)
    p, q = r.numerator, r.denominator
    quot_ok = True
    for col in range(dim_k):
        lhs = {
            row: q * ff[row] * coeff
            for row, coeff in img_n[col].items()
            if row < dim_k and ff[row]
        }
        rhs = {row: p * ff[col] * coeff for row, coeff in img_k[col].items()} if ff[col] else {}
        if lhs != rhs:
            quot_ok = False
            break
    phi_ok = quot_ok and all(
        min(img_n[mono], default=dim_k) >= dim_k for mono in range(dim_k, len(img_n))
    )
    return phi_ok, quot_ok


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_trial_checks_give_the_dict_comparison_verdicts(N):
    # Every 1 <= k < n <= 6, on the shared expansion and on the triple's own,
    # for true falling factorials, all zeros, random ones and the true ones
    # with one entry zeroed (which leaves a key on one side only).
    rng = random.Random(200 + N)
    verdicts = set()
    for shape in ("stabilizer", "unipotent", "general"):
        for _ in range(1 if N == 4 else 2):
            rows, a, c = random_trial_inputs(rng, N, shape)
            shared = _substitution_images(rows, N, 6, 5)
            for n in range(2, 7):
                for k in range(1, n):
                    own = _substitution_images(rows, N, n, k)
                    basis_k = monomial_basis(N, k)
                    true_ff = [_falling_factorial(m[0] + (n - k), n - k) for m in basis_k]
                    holed = list(true_ff)
                    holed[rng.randrange(len(holed))] = 0
                    for ff in (
                        true_ff,
                        [0] * len(basis_k),
                        [rng.randint(0, 2) for _ in basis_k],
                        holed,
                    ):
                        for levels in (shared, own):
                            expected = dict_trial_checks(levels, a, c, n, k, ff)
                            assert _trial_checks(levels, a, c, n, k, ff) == expected, (
                                N, shape, rows, n, k, ff,
                            )
                            verdicts.add(expected)
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_shared_expansion_of_true_stabilizers_passes_every_triple():
    rng = random.Random(8)
    for N in (1, 2, 3):
        for _ in range(3):
            a, b_rows, c = seeded_draws(N, 1, rng.randrange(1000), 3)[0]
            shared = _substitution_images(b_rows, N, 6, 5)
            for n in range(2, 7):
                for k in range(1, n):
                    ff = [_falling_factorial(m[0] + (n - k), n - k) for m in monomial_basis(N, k)]
                    assert _trial_checks(shared, a, c, n, k, ff) == (True, True), (N, n, k)


def test_shared_expansion_rejects_an_element_that_moves_the_line():
    # With k below the expansion's max_k, the degree-n images of small-x_0
    # monomials are not empty even for a stabilizer; phi_ok must still see
    # that this element sends one of them into the section.
    for (N, n, k) in [(1, 3, 1), (2, 4, 2), (3, 4, 1)]:
        rows = [[int(i == j) for j in range(N + 1)] for i in range(N + 1)]
        rows[1][0] = 1
        b_rows, c = cleared_inverse(RationalMatrix.from_rows(rows))
        shared = _substitution_images(b_rows, N, n + 1, k + 1)
        ff = [_falling_factorial(m[0] + (n - k), n - k) for m in monomial_basis(N, k)]
        assert not _trial_checks(shared, Fraction(1), c, n, k, ff)[0], (N, n, k)
        assert _trial_checks(shared, Fraction(1), c, n, k, [0] * len(ff)) == (False, True)


def test_reports_of_one_pass_equal_the_one_triple_reports():
    degrees = [(n, k) for n in (2, 3, 4, 5) for k in range(1, n)]
    for N in (1, 2, 3):
        reports = verify_jet_representations(N, degrees, trials=8, seed=13, height=4)
        assert reports == [
            verify_jet_representation(N, n, k, trials=8, seed=13, height=4) for n, k in degrees
        ]
        assert all(report.passed for report in reports)


@pytest.mark.parametrize("degrees,trials", [([], 5), ([(3, 1), (2, 2)], 5), ([(3, 1)], 0)])
def test_verify_jet_representations_validates(degrees, trials):
    with pytest.raises(ValueError):
        verify_jet_representations(2, degrees, trials=trials)


def test_one_pass_expands_each_element_once(monkeypatch):
    calls = []
    expand = jetmap._substitution_images

    def counted(b_rows, N, max_degree, max_tail=None):
        calls.append((N, max_degree, max_tail))
        return expand(b_rows, N, max_degree, max_tail)

    monkeypatch.setattr(jetmap, "_substitution_images", counted)
    verify_jet_representations(3, [(2, 1), (5, 2), (4, 3)], trials=6, seed=1)
    assert calls == [(3, 5, 3)] * 6
    calls.clear()
    verify_jet_representation(3, 5, 2, trials=4, seed=1)
    assert calls == [(3, 5, 2)] * 4


def test_a_wrong_inverse_from_the_draw_is_an_internal_error(monkeypatch):
    # A fault in the closed-form inverse must not read as a counterexample.
    scaled = jetmap._scaled_inverse_rows

    def off_by_one(g):
        rows, c = scaled(g)
        return ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:], c

    monkeypatch.setattr(jetmap, "_scaled_inverse_rows", off_by_one)
    with pytest.raises(ArithmeticError):
        verify_jet_representation(2, 3, 1, trials=3)


def test_a_first_draw_whose_matrix_disagrees_with_its_inverse_is_an_internal_error(monkeypatch):
    # The rational element of the first draw carries the draw's B / c; built
    # from other stars, it is not their inverse. The integer check of the
    # draw itself passes, so only the Gauss-Jordan comparison can see it.
    build = jetmap._group_element

    def other_stars(draw):
        return build(draw._replace(stars=tuple(s + 1 for s in draw.stars)))

    monkeypatch.setattr(jetmap, "_group_element", other_stars)
    with pytest.raises(ArithmeticError, match="disagrees with elimination"):
        verify_jet_representation(2, 3, 1, trials=3)
