"""The line stabilizer P in the special linear group over the rationals,
its seeded random elements, and their substitution action on forms.

Conventions, fixed once and locked in by tests:

* A group element g acts on functions by (g.f)(v) = f(g^-1 v). On the dual
  basis x_0, ..., x_N this is substitution of the linear forms given by the
  rows of g^-1, which is what `_substitution_images` expands.
* Action matrices use the column convention: the coefficient vector of g.f is
  action_matrix(g) @ coeffs(f). This makes g -> matrix a homomorphism, and it
  makes the one-dimensional quotient of the degree-n forms by the hyperplane
  ideal transform by a^-n, where a is the upper-left entry of a stabilizer
  element. That last consequence is what pins the convention; the dense
  action matrices that pin it are test oracles (`tests/oracles.py`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .linalg import RationalMatrix, _det
from .symspace import monomial_basis


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


class Draw(NamedTuple):
    """One stabilizer element g as `_parabolic_from_rng` draws it: by its
    inverse h = g^-1, in integers.

    h = [[b, s], [0, S E]] with corner b = u / v in lowest terms (one of |u|,
    v is 1), integer stars s, integer block E of determinant 1 and S the
    scaling of row `scaled` of E by 1/b. The trials read h, as the
    substitution x_i -> row_i(h), and g's corner a = 1/b.
    """

    b: Fraction
    stars: tuple[int, ...]
    block: tuple[tuple[int, ...], ...]
    scaled: int

    @property
    def clearing(self) -> int:
        """d = |u| v, the lcm of the denominators of h: the corner b has
        denominator v, and row `scaled` of the block is a row of E, whose
        entries have gcd 1, times v / u."""
        return abs(self.b.numerator) * self.b.denominator

    def cleared_rows(self) -> tuple[tuple[int, ...], ...]:
        """The integer rows of B = d h, d = `clearing`; row `scaled` of the
        block is E's row times d / b."""
        d, u, v = self.clearing, self.b.numerator, self.b.denominator
        rows = [(d * u // v, *(d * s for s in self.stars))]
        for i, row in enumerate(self.block):
            rows.append((0, *(x * (d * v // u if i == self.scaled else d) for x in row)))
        return tuple(rows)


def _parabolic_from_rng(N: int, rng: random.Random, height: int) -> Draw:
    """Draw one stabilizer element with bounded integer data, by its inverse.

    P is a group, so drawing h = g^-1 samples it as well as drawing g. The
    corner entry b of h is a nonzero integer of magnitude at most height, or
    the reciprocal of one. The lower-right block starts from the identity,
    gets shuffled by determinant-1 integer row operations, and then has one
    row scaled by 1/b so the total determinant is exactly 1.

    Nothing is computed after the last random call: `_scaled_inverse_rows`
    checks the draw and clears h to integers, and `_group_element` builds
    the rational g.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    mag = rng.randint(1, height)
    sign = rng.choice((1, -1))
    b = Fraction(sign * mag) if rng.random() < 0.5 else Fraction(sign, mag)
    stars = tuple(rng.randint(-height, height) for _ in range(N))
    block = [[int(i == j) for j in range(N)] for i in range(N)]
    if N >= 2:
        for _ in range(2 * N):
            i = rng.randrange(N)
            j = rng.randrange(N)
            while j == i:
                j = rng.randrange(N)
            c = rng.randint(-height, height)
            block[i] = [x + c * y for x, y in zip(block[i], block[j])]
    return Draw(b, stars, tuple(map(tuple, block)), rng.randrange(N))


def _group_element(draw: Draw) -> GroupElement:
    """The rational g = h^-1 of a draw, by `RationalMatrix.inverse`, as a
    `GroupElement`, which checks its determinant, its shape and its corner
    a = 1/b."""
    b = draw.b
    rows = [[b, *draw.stars]]
    for i, row in enumerate(draw.block):
        rows.append([0] + [x / b if i == draw.scaled else x for x in row])
    return GroupElement(RationalMatrix.from_rows(rows).inverse(), 1 / b)


def _scaled_inverse_rows(draw: Draw) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of g^-1 = h cleared to integers: (rows, c) with g^-1 = rows / c,
    the draw's `Draw.cleared_rows` and `Draw.clearing`.

    The rows B are checked exactly before they are returned, so a fault in
    the draw raises ArithmeticError: B[i][0] = 0 for i >= 1, B[0][0] = c b,
    and det B = c^(N+1), by `linalg._det`. Together they make B / c an
    element of P with corner b and determinant 1, so g is one with corner
    a = 1/b.
    """
    rows, c = draw.cleared_rows(), draw.clearing
    if rows[0][0] != c * draw.b or any(row[0] for row in rows[1:]):
        raise ArithmeticError("a drawn element's inverse has a wrong corner or first column")
    det = _det([dict(enumerate(row)) for row in rows])
    if det != c ** len(rows):
        raise ArithmeticError(
            f"a drawn element's inverse has determinant {det / c ** len(rows)}, not 1"
        )
    return rows, c


@lru_cache(maxsize=None)
def _expansion_plan(
    N: int, max_degree: int, max_tail: int
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[tuple[int, ...], ...]]:
    """Index tables for expanding substitutions up to degree max_degree
    modulo (x_1, ..., x_N)^(max_tail+1), with max_tail <= max_degree.

    Returns (steps, times). steps[d-1][i] is (parent, var) for the degree-d
    monomial of index i in monomial_basis(N, d): var is its first variable
    with a positive exponent, and parent is the index in
    monomial_basis(N, d-1) of the monomial divided by x_var.

    Terms are keyed by tail: the term x_0^(d-|tau|) x^tau of a degree-d form
    has the same index in monomial_basis(N, d) as the tail
    tau = (alpha_1, ..., alpha_N) has among all tails with |tau| <= max_tail,
    ordered by |tau| and then descending-lexicographically, because the
    degree-d basis lists x_0-exponents from d down. times[t][j] is the index
    of the tail t times x_j: t itself for j = 0, and -1 for j >= 1 once
    |tau| = max_tail, where the product falls into the ideal.
    """
    tails = [mono[1:] for mono in monomial_basis(N, max_tail)]
    index = {tau: t for t, tau in enumerate(tails)}
    times = tuple(
        (t,) + tuple(index.get(tau[:j] + (tau[j] + 1,) + tau[j + 1 :], -1) for j in range(N))
        for t, tau in enumerate(tails)
    )
    steps = []
    for d in range(1, max_degree + 1):
        lower = monomial_basis(N, d - 1)
        step = []
        for mono in monomial_basis(N, d):
            var = next(i for i, e in enumerate(mono) if e)
            step.append((lower.index_of(mono[:var] + (mono[var] - 1,) + mono[var + 1 :]), var))
        steps.append(tuple(step))
    return tuple(steps), times


def _substitution_images(
    b_rows: Sequence[Sequence[int]], N: int, max_degree: int, max_tail: int | None = None
) -> list[dict[int, dict[int, int]]]:
    """Images of all monomials of degree <= max_degree under x_i -> row_i(b).

    Integer arithmetic throughout. Index d of the returned list is a dict
    from the index of each degree-d monomial in monomial_basis(N, d) to its
    expanded image, a sparse dict from monomial indices in the same basis to
    nonzero integer coefficients. Each image is its parent's image (the
    monomial divided by its first variable x_var) times the linear form
    row_var(b), with monomial products read off `_expansion_plan`.

    With max_tail set, every term whose x_1..x_N-degree exceeds it is dropped
    as soon as it appears, so the images are taken modulo the ideal
    (x_1, ..., x_N)^(max_tail+1). That ideal is graded and the quotient map
    is a ring homomorphism, so truncating each factor of a product gives the
    truncation of the product, whatever the substitution; a degree-d image
    keeps exactly its terms of x_0-exponent >= d - max_tail, whose indices
    are those below binom(max_tail+N, N). Without it nothing is dropped: the
    plan for max_tail = max_degree truncates no degree up to max_degree.
    """
    tail = max_degree if max_tail is None else min(max_tail, max_degree)
    steps, times = _expansion_plan(N, max_degree, tail)
    forms = [[(j, c) for j, c in enumerate(row) if c] for row in b_rows]
    heads = [[(j, c) for j, c in form if j == 0] for form in forms]
    levels: list[dict[int, dict[int, int]]] = [{0: {0: 1}}]
    for step in steps:
        below = levels[-1]
        level: dict[int, dict[int, int]] = {}
        for mono, (parent, var) in enumerate(step):
            form, head = forms[var], heads[var]
            acc: dict[int, int] = {}
            for t, coeff in below[parent].items():
                after = times[t]
                # A tail already of degree max_tail may only gain more x_0.
                for j, c in form if after[-1] >= 0 else head:
                    key = after[j]
                    acc[key] = acc.get(key, 0) + coeff * c
            level[mono] = {m: v for m, v in acc.items() if v}
        levels.append(level)
    return levels


def _scalar_character(a: Fraction, n: int) -> Fraction:
    """The character a^-n, from the corner scalar a alone."""
    return a ** (-n)
