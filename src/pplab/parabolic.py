"""The special linear group over the rationals, its line-stabilizer subgroup,
and the induced actions on symmetric powers of the dual space.

Conventions, fixed once and locked in by tests:

* A group element g acts on functions by (g.f)(v) = f(g^-1 v). On the dual
  basis x_0, ..., x_N this is substitution of the linear forms given by the
  rows of g^-1.
* Action matrices use the column convention: the coefficient vector of g.f is
  action_matrix(g) @ coeffs(f). This makes g -> matrix a homomorphism, and it
  makes the one-dimensional quotient of the degree-n forms by the hyperplane
  ideal transform by a^-n, where a is the upper-left entry of a stabilizer
  element. That last consequence is what pins the convention.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .linalg import RationalMatrix
from .symspace import MultiIndex, binomial, dim_sym, monomial_basis


@dataclass(frozen=True)
class GroupElement:
    """A determinant-1 rational matrix, optionally flagged as a line stabilizer.

    When parabolic_scalar is set, the first column of mat must be
    (a, 0, ..., 0) with a equal to that scalar.
    """

    mat: RationalMatrix
    parabolic_scalar: Fraction | None = None

    def __post_init__(self) -> None:
        if self.mat.rows != self.mat.cols:
            raise ValueError("group elements must be square matrices")
        if self.mat.det() != 1:
            raise ValueError("group elements must have determinant 1")
        a = self.parabolic_scalar
        if a is not None:
            if a == 0:
                raise ValueError("stabilizer scalar must be nonzero")
            if self.mat.entry(0, 0) != a:
                raise ValueError("upper-left entry does not match the stabilizer scalar")
            if any(self.mat.entry(i, 0) != 0 for i in range(1, self.mat.rows)):
                raise ValueError("first column below the corner must vanish")

    @property
    def N(self) -> int:
        return self.mat.rows - 1

    @property
    def is_parabolic(self) -> bool:
        return self.parabolic_scalar is not None

    @staticmethod
    def identity(N: int) -> "GroupElement":
        return GroupElement(RationalMatrix.identity(N + 1), Fraction(1))

    def compose(self, other: "GroupElement") -> "GroupElement":
        scalar = None
        if self.is_parabolic and other.is_parabolic:
            scalar = self.parabolic_scalar * other.parabolic_scalar
        return GroupElement(self.mat @ other.mat, scalar)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return self.compose(other)


def _parabolic_from_rng(N: int, rng: random.Random, height: int) -> GroupElement:
    """Draw one stabilizer element with bounded integer data.

    The corner entry a is a nonzero integer of magnitude at most height, or
    the reciprocal of one. The lower-right block starts from the identity,
    gets shuffled by determinant-1 integer row operations, and then has one
    row scaled by 1/a so the total determinant is exactly 1.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    mag = rng.randint(1, height)
    sign = rng.choice((1, -1))
    a = Fraction(sign * mag) if rng.random() < 0.5 else Fraction(sign, mag)
    stars = [rng.randint(-height, height) for _ in range(N)]
    block = [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]
    if N >= 2:
        for _ in range(2 * N):
            i = rng.randrange(N)
            j = rng.randrange(N)
            while j == i:
                j = rng.randrange(N)
            c = rng.randint(-height, height)
            block[i] = [x + c * y for x, y in zip(block[i], block[j])]
    scaled = rng.randrange(N)
    block[scaled] = [x / a for x in block[scaled]]
    rows = [[a] + [Fraction(s) for s in stars]]
    for i in range(N):
        rows.append([Fraction(0)] + block[i])
    return GroupElement(RationalMatrix.from_rows(rows), a)


def random_parabolic(N: int, seed: int, height: int = 3) -> GroupElement:
    """Seed-deterministic random stabilizer element."""
    return _parabolic_from_rng(N, random.Random(seed), height)


def dual_action_matrix(g: GroupElement) -> RationalMatrix:
    """Matrix of the action on the dual space in the basis x_0, ..., x_N.

    Columns are images: column i holds the coefficients of g.x_i, which is the
    substitution of row i of g^-1. The result is the inverse transpose of g.
    """
    return g.mat.inverse().transpose()


def _scaled_inverse_rows(g: GroupElement) -> tuple[list[list[int]], int]:
    """Rows of g^-1 cleared to integers: returns (rows, c) with g^-1 = rows / c."""
    inv = g.mat.inverse()
    c = lcm(*(x.denominator for x in inv.entries))
    rows = [[int(x * c) for x in inv.row(i)] for i in range(inv.rows)]
    return rows, c


def _substitution_images(
    b_rows: list[list[int]], N: int, max_degree: int, max_tail: int | None = None
) -> list[dict[MultiIndex, dict[MultiIndex, int]]]:
    """Images of all monomials of degree <= max_degree under x_i -> row_i(b).

    Integer arithmetic throughout; index d of the returned list maps each
    degree-d monomial to the expanded image polynomial as a sparse dict.

    With max_tail set, every term whose x_1..x_N-degree exceeds it is dropped
    as soon as it appears, so the images are taken modulo the ideal
    (x_1, ..., x_N)^(max_tail+1). That ideal is graded and the quotient map
    is a ring homomorphism, so truncating each factor of a product gives the
    truncation of the product, whatever the substitution; a degree-d image
    keeps exactly its terms of x_0-exponent >= d - max_tail.
    """
    forms = [[(j, c) for j, c in enumerate(row) if c] for row in b_rows]
    heads = [[(j, c) for j, c in form if j == 0] for form in forms]
    zero_mono = (0,) * (N + 1)
    levels: list[dict[MultiIndex, dict[MultiIndex, int]]] = [{zero_mono: {zero_mono: 1}}]
    for d in range(1, max_degree + 1):
        # A term of x_0-exponent below `floor` may only gain more x_0.
        floor = 0 if max_tail is None else d - max_tail
        level: dict[MultiIndex, dict[MultiIndex, int]] = {}
        for mono in monomial_basis(N, d):
            var = next(i for i, e in enumerate(mono) if e)
            parent = mono[:var] + (mono[var] - 1,) + mono[var + 1 :]
            base = levels[d - 1][parent]
            acc: dict[MultiIndex, int] = {}
            for m2, coeff in base.items():
                for j, c in forms[var] if m2[0] >= floor else heads[var]:
                    key = m2[:j] + (m2[j] + 1,) + m2[j + 1 :]
                    acc[key] = acc.get(key, 0) + coeff * c
            level[mono] = {m: v for m, v in acc.items() if v}
        levels.append(level)
    return levels


def sym_action(g: GroupElement, n: int) -> RationalMatrix:
    """Matrix of the action on degree-n forms (column convention)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    N = g.N
    basis = monomial_basis(N, n)
    b_rows, c = _scaled_inverse_rows(g)
    images = _substitution_images(b_rows, N, n)[n]
    dim = len(basis)
    scale = Fraction(1, c**n)
    entries = [Fraction(0)] * (dim * dim)
    for col, mono in enumerate(basis):
        for m2, coeff in images[mono].items():
            entries[basis.index_of(m2) * dim + col] = coeff * scale
    return RationalMatrix(dim, dim, tuple(entries))


def chi(g: GroupElement, n: int) -> Fraction:
    """Character a^-n of a stabilizer element; the weight of the degree-n line."""
    if not g.is_parabolic:
        raise ValueError("character is only defined for line-stabilizer elements")
    return g.parabolic_scalar ** (-n)


def target_rep_action(g: GroupElement, n: int, k: int) -> RationalMatrix:
    """Action on the twisted degree-k forms: a^-(n-k) times the degree-k action.

    This is the representation carried by the order-k jet fiber of the
    degree-n line bundle, in the basis of degree-k monomials tensored with
    the fixed generator of the (n-k)-th power of the quotient line.
    """
    if not g.is_parabolic:
        raise ValueError("target action is only defined for line-stabilizer elements")
    if not 1 <= k < n:
        raise ValueError(f"require 1 <= k < n, got k={k}, n={n}")
    return sym_action(g, k).scale(chi(g, n - k))


@dataclass(frozen=True)
class RepAction:
    """A finite-dimensional action given by its dimension and matrix map."""

    dim: int
    action: Callable[[GroupElement], RationalMatrix]


def sym_rep(N: int, n: int) -> RepAction:
    return RepAction(dim_sym(N, n), lambda g: sym_action(g, n))


def target_rep(N: int, n: int, k: int) -> RepAction:
    return RepAction(binomial(k + N, N), lambda g: target_rep_action(g, n, k))


def is_equivariant(
    m: RationalMatrix, src: RepAction, dst: RepAction, g: GroupElement
) -> bool:
    """Whether m intertwines the two actions at g: m @ src(g) == dst(g) @ m."""
    if m.cols != src.dim or m.rows != dst.dim:
        raise ValueError("matrix shape does not match the representations")
    return m @ src.action(g) == dst.action(g) @ m
