import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pplab
from pplab.linalg import Subspace
from pplab.jetmap import taylor_fiber_matrix
from pplab.splitting import jet_transition_matrix
from pplab.symspace import (
    MonomialBasis,
    ParameterError,
    binomial,
    check_corollary_regime,
    check_jet_regime,
    check_theorem_regime,
    codimension_identity,
    dim_sym,
    m_power_subspace,
    monomial_basis,
)

from oracles import PolyVector, partial_derivative, random_parabolic, sym_action


def test_basis_two_vars_degree_two():
    assert monomial_basis(1, 2).monomials == ((2, 0), (1, 1), (0, 2))


def test_basis_three_vars_degree_one():
    assert monomial_basis(2, 1).monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_basis_three_vars_degree_two_count():
    assert len(monomial_basis(2, 2)) == 6


def test_basis_is_descending_lex_without_duplicates():
    for N in range(1, 4):
        for n in range(0, 6):
            monos = monomial_basis(N, n).monomials
            assert len(set(monos)) == len(monos)
            assert list(monos) == sorted(monos, reverse=True)
            assert all(sum(m) == n for m in monos)


def test_basis_count_check_survives_optimize_flag():
    # The enumeration cross-check is verification, so it must not be an
    # assert: run under `python -O` with one monomial dropped and expect a raise.
    script = textwrap.dedent(
        """
        from pplab import symspace

        assert False, "asserts are live: not running under -O"
        monos = list(symspace._compositions_desc(3, 3))
        symspace._compositions_desc = lambda total, parts: iter(monos[:-1])
        try:
            symspace.monomial_basis(2, 3)
        except ArithmeticError as exc:
            print("raised:", exc)
        else:
            print("accepted a basis with a missing monomial")
        """
    )
    src = str(Path(pplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:"), proc.stdout


def test_dim_sym_values():
    assert dim_sym(2, 2) == 6  # 1 + 2 + 3
    assert dim_sym(1, 3) == 4
    assert dim_sym(3, 4) == 35


def test_basis_size_matches_dimension():
    for N in range(1, 5):
        for n in range(0, 9):
            assert len(monomial_basis(N, n)) == dim_sym(N, n)


def test_binomial_matches_math_comb():
    import math

    for n in range(0, 14):
        for k in range(0, n + 1):
            assert binomial(n, k) == math.comb(n, k)
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0


def test_binomial_is_not_recursive():
    # A Pascal recursion needs about n frames and overflows the default
    # recursion limit of 1000.
    import math

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(min(limit, 1000))
    try:
        assert binomial(2000, 1000) == math.comb(2000, 1000)
    finally:
        sys.setrecursionlimit(limit)


def test_m_power_subspace_line_degree_two():
    sub = m_power_subspace(1, 2, 1)
    assert sub.dim == 1
    # x1^2 is the last monomial of the degree-2 basis.
    assert sub == Subspace.from_vectors([[0, 0, 1]], 3)


def test_m_power_subspace_line_degree_three():
    sub = m_power_subspace(1, 3, 1)
    basis = monomial_basis(1, 3)
    expected = []
    for mono in ((1, 2), (0, 3)):  # x0*x1^2 and x1^3
        v = [0] * len(basis)
        v[basis.index_of(mono)] = 1
        expected.append(v)
    assert sub.dim == 2
    assert sub == Subspace.from_vectors(expected, len(basis))


def test_m_power_subspace_plane_degree_two():
    sub = m_power_subspace(2, 2, 1)
    basis = monomial_basis(2, 2)
    members = [(0, 2, 0), (0, 1, 1), (0, 0, 2)]
    vectors = []
    for mono in members:
        v = [0] * len(basis)
        v[basis.index_of(mono)] = 1
        vectors.append(v)
    assert sub.dim == 3 == sum(binomial(i + 1, 1) for i in range(2, 3))
    assert sub == Subspace.from_vectors(vectors, len(basis))


def test_m_power_subspace_is_the_rref_of_its_unit_vectors():
    # The subspace is built directly as a canonical basis; elimination of
    # its spanning unit vectors must give the same data.
    for N in (1, 2, 3):
        for n in range(2, 7):
            basis = monomial_basis(N, n)
            for k in range(1, n):
                units = [
                    [int(j == i) for j in range(len(basis))]
                    for i, mono in enumerate(basis)
                    if mono[0] < n - k
                ]
                assert m_power_subspace(N, n, k) == Subspace.from_vectors(units, len(basis))


def test_m_power_subspace_parameter_validation():
    with pytest.raises(ParameterError):
        m_power_subspace(1, 2, 0)
    with pytest.raises(ParameterError):
        m_power_subspace(1, 2, 2)


@pytest.mark.parametrize(
    "check,inside,outside",
    [
        (check_theorem_regime, [(1, 2, 1), (3, 9, 8)], [(0, 2, 1), (1, 2, 0), (1, 2, 2)]),
        (check_jet_regime, [(1, 1, 0), (2, 2, 4)], [(0, 1, 0), (1, 0, 0), (1, 1, -1)]),
        (check_corollary_regime, [(1, 1, 0), (2, 5, 4)], [(0, 2, 1), (1, 2, -1), (1, 2, 2)]),
    ],
    ids=["theorem", "jet", "corollary"],
)
def test_each_regime_is_checked_at_its_edges(check, inside, outside):
    for triple in inside:
        check(*triple)
    for triple in outside:
        with pytest.raises(ParameterError):
            check(*triple)


@pytest.mark.parametrize(
    "call",
    [
        lambda: monomial_basis(0, 2),
        lambda: monomial_basis(1, -1),
        lambda: dim_sym(0, 2),
        lambda: dim_sym(1, -1),
        lambda: taylor_fiber_matrix(1, 2, 3),
        lambda: jet_transition_matrix(1, 0, 1),
        lambda: sym_action(random_parabolic(1, 0), -1),
    ],
    ids=["basis N", "basis n", "dim N", "dim n", "taylor k > n", "cocycle n", "action n"],
)
def test_range_checks_on_caller_input_raise_parameter_error(call):
    # A command line reads ParameterError as a usage error (exit 2), so
    # every range check on N, n or k raises it; for callers of the library
    # it is exported and stays a ValueError.
    with pytest.raises(pplab.ParameterError) as exc:
        call()
    assert isinstance(exc.value, ValueError)


def test_m_power_subspace_is_multiplication_image():
    # The span of monomials with small x_0 exponent equals the span of all
    # products (degree k+1 monomial in x_1..x_N) * (degree n-k-1 monomial),
    # i.e. the image of the multiplication map.
    for (N, n, k) in [(1, 3, 1), (2, 3, 1), (2, 4, 2), (3, 3, 1)]:
        basis = monomial_basis(N, n)
        products = []
        for mu in monomial_basis(N, k + 1):
            if mu[0] != 0:
                continue
            for nu in monomial_basis(N, n - k - 1):
                prod = tuple(a + b for a, b in zip(mu, nu))
                v = [0] * len(basis)
                v[basis.index_of(prod)] = 1
                products.append(v)
        image = Subspace.from_vectors(products, len(basis))
        assert image == m_power_subspace(N, n, k)


def test_codimension_identity_examples():
    assert codimension_identity(1, 3, 1)  # 4 - 2 = 2 = binom(2,1)
    assert codimension_identity(2, 2, 1)  # 6 - 3 = 3 = binom(3,2)
    assert codimension_identity(3, 5, 2)  # 56 - 46 = 10 = binom(5,3)


def test_codimension_identity_full_grid():
    for N in (1, 2, 3):
        for n in range(2, 7):
            for k in range(1, n):
                assert codimension_identity(N, n, k), (N, n, k)
                assert m_power_subspace(N, n, k).dim + binomial(k + N, N) == dim_sym(N, n)


def _poly(basis: MonomialBasis, terms) -> PolyVector:
    return PolyVector.from_terms(basis, terms)


def test_partial_derivative_power_rule():
    basis = monomial_basis(1, 2)
    f = _poly(basis, {(2, 0): 1})
    df = partial_derivative(f, 0)
    assert df == _poly(monomial_basis(1, 1), {(1, 0): 2})


def test_partial_derivative_unrelated_variable():
    basis = monomial_basis(1, 2)
    f = _poly(basis, {(0, 2): 1})
    assert partial_derivative(f, 0).is_zero()


def test_partial_derivative_product_monomial():
    basis = monomial_basis(1, 2)
    f = _poly(basis, {(1, 1): 1})
    assert partial_derivative(f, 0) == _poly(monomial_basis(1, 1), {(0, 1): 1})


def _random_polyvector(N, n, rng):
    basis = monomial_basis(N, n)
    return PolyVector(
        basis, tuple(Fraction(rng.randint(-5, 5)) for _ in range(len(basis)))
    )


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 10**6))
def test_partial_derivatives_commute(N, n, seed):
    rng = random.Random(seed)
    f = _random_polyvector(N, n, rng)
    i = rng.randrange(N + 1)
    j = rng.randrange(N + 1)
    assert partial_derivative(partial_derivative(f, i), j) == partial_derivative(
        partial_derivative(f, j), i
    )


def _mult_by_var(f: PolyVector, var: int) -> PolyVector:
    # Multiplication by x_var, implemented locally for the Euler test.
    N = f.basis.num_vars - 1
    target = monomial_basis(N, f.basis.degree + 1)
    terms = {}
    for mono, c in f.terms().items():
        raised = mono[:var] + (mono[var] + 1,) + mono[var + 1 :]
        terms[raised] = c
    return PolyVector.from_terms(target, terms)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 10**6))
def test_euler_identity(N, n, seed):
    rng = random.Random(seed)
    f = _random_polyvector(N, n, rng)
    total = PolyVector.zero(f.basis)
    for i in range(N + 1):
        total = total + _mult_by_var(partial_derivative(f, i), i)
    assert total == f.scale(n)
