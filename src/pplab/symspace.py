"""Monomial bases of symmetric powers of the dual space, and their combinatorics.

A multi-index is a plain tuple of nonnegative exponents, one per variable
x_0, ..., x_N; its degree is the sum of the entries. Degree-n monomials are
ordered descending-lexicographically on the exponent tuple (largest x_0
exponent first), which makes the distinguished subspace spanned by monomials
with small x_0 exponent a contiguous suffix of every basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .linalg import Subspace

MultiIndex = tuple[int, ...]


class ParameterError(ValueError):
    """A caller-supplied value pplab refuses: an N, n or k outside the range
    an object is defined on, or a bad command-line input. Never raised for a
    value pplab derives itself, so a command line can read it as a usage
    error and any other ValueError as an internal one."""


@lru_cache(maxsize=None)
def binomial(n: int, k: int) -> int:
    """Binomial coefficient by the multiplicative formula, exact integers
    throughout. Kept independent of `math.comb`, which the checks compare
    it with. Each partial product is binom(n-k+i, i), so every division is
    exact."""
    if k < 0 or n < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i
    return out


def _compositions_desc(total: int, parts: int) -> Iterator[MultiIndex]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True, eq=True)
class MonomialBasis:
    """Ordered basis of the degree-n monomials in num_vars variables."""

    num_vars: int
    degree: int
    monomials: tuple[MultiIndex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {m: i for i, m in enumerate(self.monomials)}
        )

    def __len__(self) -> int:
        return len(self.monomials)

    def index_of(self, mono: MultiIndex) -> int:
        return self._index[mono]

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self.monomials)


@lru_cache(maxsize=None)
def monomial_basis(N: int, n: int) -> MonomialBasis:
    """All degree-n multi-indices in N+1 variables, descending lexicographic."""
    if N < 1:
        raise ParameterError("need at least two variables (N >= 1)")
    if n < 0:
        raise ParameterError("degree must be nonnegative")
    monos = tuple(_compositions_desc(n, N + 1))
    basis = MonomialBasis(N + 1, n, monos)
    if len(basis) != binomial(n + N, N):
        raise ArithmeticError(
            f"enumerated {len(basis)} degree-{n} monomials, expected {binomial(n + N, N)}"
        )
    return basis


def dim_sym(N: int, n: int) -> int:
    """Dimension of the space of degree-n forms in N+1 variables.

    Computed as the stacked sum over the x_0-exponent and cross-checked
    against the closed binomial; a mismatch would mean a combinatorics bug.
    """
    if N < 1 or n < 0:
        raise ParameterError("require N >= 1 and n >= 0")
    by_sum = sum(binomial(i + N - 1, N - 1) for i in range(n + 1))
    closed = binomial(n + N, N)
    if by_sum != closed:
        raise ArithmeticError(f"dimension formulas disagree: {by_sum} != {closed}")
    return closed


def check_theorem_regime(N: int, n: int, k: int) -> None:
    """The theorem's regime: the P-representation on the fibre of J^k(O(n))."""
    if N < 1 or not 1 <= k < n:
        raise ParameterError(f"require N >= 1 and 1 <= k < n, got N={N}, n={n}, k={k}")


def check_jet_regime(N: int, n: int, k: int) -> None:
    """The regime of the jet cocycle on a line."""
    if N < 1 or n < 1 or k < 0:
        raise ParameterError(f"require N >= 1, n >= 1, k >= 0, got N={N}, n={n}, k={k}")


def check_corollary_regime(N: int, n: int, k: int) -> None:
    """The regime of the splitting corollary."""
    if N < 1 or not 0 <= k < n:
        raise ParameterError(f"require N >= 1 and 0 <= k < n, got N={N}, n={n}, k={k}")


def m_power_subspace(N: int, n: int, k: int) -> Subspace:
    """Span of the degree-n monomials whose x_0 exponent is below n-k.

    This is the degree-n part of the (k+1)-st power of the hyperplane ideal
    (x_1, ..., x_N) inside the full space of degree-n forms.
    """
    check_theorem_regime(N, n, k)
    basis = monomial_basis(N, n)
    # Unit vectors in increasing index order are already canonical rows.
    one = Fraction(1)
    rows = tuple(((idx, one),) for idx, mono in enumerate(basis) if mono[0] < n - k)
    sub = Subspace(len(basis), rows)
    expected = sum(binomial(i + N - 1, N - 1) for i in range(k + 1, n + 1))
    if sub.dim != expected:
        raise ArithmeticError(f"small-x_0 subspace has dimension {sub.dim}, expected {expected}")
    return sub


def codimension_identity(N: int, n: int, k: int) -> bool:
    """Check that the subspace of forms with small x_0 exponent has codimension
    binom(k+N, N) in the degree-n forms, three independent ways: stacked sum
    formulas, closed binomials against the constructed subspace, and explicit
    basis enumeration."""
    check_theorem_regime(N, n, k)
    target = binomial(k + N, N)

    # Stacked sums over the x_0 exponent.
    head_sum = sum(binomial(i + N - 1, N - 1) for i in range(k + 1))
    full_sum = sum(binomial(i + N - 1, N - 1) for i in range(n + 1))
    tail_sum = sum(binomial(i + N - 1, N - 1) for i in range(k + 1, n + 1))

    # Closed binomials (math.comb is an independent implementation) against
    # the dimension of the actually constructed subspace.
    closed_codim = math.comb(n + N, N) - m_power_subspace(N, n, k).dim

    # Raw enumeration of monomials.
    basis = monomial_basis(N, n)
    count_small = sum(1 for mono in basis if mono[0] < n - k)
    count_jet = len(monomial_basis(N, k))

    return (
        head_sum == target
        and full_sum - tail_sum == target
        and closed_codim == math.comb(k + N, N)
        and len(basis) - count_small == target
        and count_jet == target
    )
