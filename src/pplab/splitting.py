"""Transition matrices of jet bundles restricted to a coordinate line, and
their splitting degrees: two twisted global-section counts prove a uniform
block, and column reduction over Q[1/t] reads any other.

Setup: the line {x_2 = ... = x_N = 0} is parameterized as (1 : t : 0 : ... : 0).
Chart 0 of the ambient space has affine coordinates u_i = x_i / x_0, chart 1
has w_0 = x_0 / x_1 and w_j = x_j / x_1. A degree-n form F restricts to
f_0(u) = F(1, u) on chart 0 and f_1(w) = F(w_0, 1, w_2, ..., w_N) on chart 1,
and order-k jets at a point of the line are truncated Taylor expansions of
these local functions in all N directions.

Orientation convention, fixed once: the transition matrix T(t) expresses
chart-0 jet coordinates through chart-1 jet coordinates,

    (chart-0 jet of F at t0) = T(t0) @ (chart-1 jet of F at t0),

so a line bundle of degree d gets the 1x1 cocycle (t^d) and splitting degrees
are read off with no sign flip; the k = 0 case pins this down in the tests,
and `transition_consistency` in `tests/oracles.py` checks the identity on
the closed-form jets of monomials.
Global sections of the bundle twisted by degree m are pairs of polynomial
vectors (f_0(t), f_1(s)) with f_0(t) = t^m * T(t) * f_1(1/t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .laurent import LaurentMatrix, LaurentPoly, block_components, det_laurent
from .linalg import Scalar, _eliminate
from .symspace import binomial, check_corollary_regime, check_jet_regime, monomial_basis


class TransitionData:
    """A rank-r Laurent cocycle on the two-chart line, with unit determinant.

    `TransitionData(rank, matrix)` cuts the matrix once into the connected
    components of its nonzero pattern (`block_components`). A constant row
    and column permutation is a gauge, and after one the cocycle is the
    direct sum of these blocks. `blocks` holds one TransitionData per
    component, in component order; identical blocks share one object, and
    that block's own `det_laurent`, which cuts nothing, is the only
    determinant taken for it. A connected cocycle is its own only block.
    `det_exponent` is e in det = c * t^e, the first Chern class: the sum of
    the blocks' exponents. A non-square component, or a block whose
    determinant is not a unit, raises ValueError.

    `jet_transition_matrix` knows its blocks before any matrix exists. It
    builds each distinct block through this constructor, which may cut it
    further, and places it with `_from_blocks`. Such a cocycle never cuts
    its whole matrix, and its dense `matrix` is a view, written from the
    blocks on first access.
    """

    def __init__(self, rank: int, matrix: LaurentMatrix) -> None:
        if matrix.rows != rank or matrix.cols != rank:
            raise ValueError("matrix shape does not match the rank")
        components = block_components(matrix)
        if len(components) == 1:
            unit = det_laurent(matrix).monomial_parts()
            if unit is None or unit[0] == 0:
                raise ValueError("transition determinant is not a unit (c * t^e)")
            blocks, exponent = None, unit[1]
        else:
            if any(len(rows) != len(cols) for rows, cols in components):
                # A non-square component makes the determinant 0.
                raise ValueError("transition determinant is not a unit (c * t^e)")
            shared: dict[LaurentMatrix, TransitionData] = {}
            parts: list[TransitionData] = []
            for rows, cols in components:
                block = matrix.submatrix(rows, cols)
                if block not in shared:
                    shared[block] = TransitionData(len(rows), block)
                parts.append(shared[block])
            blocks = tuple(parts)
            exponent = sum(block.det_exponent for block in blocks)
        self.rank = rank
        self.matrix = matrix
        # A connected cocycle stores no blocks, so it holds no reference to itself.
        self._blocks = blocks
        self.det_exponent = exponent

    @classmethod
    def _from_blocks(
        cls, rank: int, placed: Sequence[tuple[TransitionData, Sequence[int]]]
    ) -> TransitionData:
        """The direct sum of diagonal blocks: each (block, indices) puts the
        block's rows and columns at those indices of the whole. Its blocks
        are the placed blocks' own, in placement order: with multiplicity,
        the blocks that cutting its `matrix` would give."""
        data = cls.__new__(cls)
        data.rank = rank
        data._placed = placed
        data._blocks = tuple(part for block, _ in placed for part in block.blocks)
        data.det_exponent = sum(block.det_exponent for block, _ in placed)
        return data

    @cached_property
    def matrix(self) -> LaurentMatrix:
        """The dense matrix of a block-built cocycle, written on first
        access; the constructor stores the matrix it is given instead."""
        entries = [LaurentPoly.zero()] * (self.rank * self.rank)
        for block, indices in self._placed:
            for i, row in enumerate(indices):
                for j, col in enumerate(indices):
                    entries[row * self.rank + col] = block.matrix.entry(i, j)
        return LaurentMatrix(self.rank, self.rank, tuple(entries))

    @property
    def blocks(self) -> tuple[TransitionData, ...]:
        return (self,) if self._blocks is None else self._blocks

    @cached_property
    def adjugate_floor(self) -> int:
        """The bound L of `h0_twisted`, read once per cocycle."""
        row_mins = [
            min(p.min_exp for p in self.matrix.row(i) if not p.is_zero())
            for i in range(self.rank)
        ]
        return sum(row_mins) - max(row_mins)


@dataclass(frozen=True)
class SplittingType:
    """Multiset of line-bundle degrees, stored sorted descending."""

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.degrees, reverse=True)) != self.degrees:
            raise ValueError("degrees must be sorted descending")

    @property
    def rank(self) -> int:
        return len(self.degrees)


# ---------------------------------------------------------------------------
# Transition matrix from the closed form of its entries.
# ---------------------------------------------------------------------------

def _series_binomial(m: int, j: int) -> int:
    """Coefficient of x^j in (1 + x)^m for any integer m: binomial(m, j)
    for m >= 0, and (-1)^j binomial(j - m - 1, j) for m < 0."""
    if m >= 0:
        return binomial(m, j)
    return (-1) ** j * binomial(j - m - 1, j)


def _line_block(n: int, k: int) -> LaurentMatrix:
    """The N = 1 jet cocycle of degree n and order k, indexed by the s_1
    exponent: entry (a, b) is (-1)^b C(m, a - b) t^(m - a) with m = n - b
    for a >= b, and 0 above the diagonal."""
    size = k + 1
    entries = [LaurentPoly.zero()] * (size * size)
    for b in range(size):
        m = n - b
        for a in range(b, size):
            entries[a * size + b] = LaurentPoly.t_pow(m - a, (-1) ** b * _series_binomial(m, a - b))
    return LaurentMatrix(size, size, tuple(entries))


def jet_transition_matrix(N: int, n: int, k: int) -> TransitionData:
    """Order-k jet cocycle of the degree-n line bundle along the line.

    On the line, chart-0 local data satisfies
    f_0(u) = u_1^n * f_1(1/u_1, u_2/u_1, ..., u_N/u_1), so column beta of T,
    the chart-0 jet of the chart-1 coordinate monomial r^beta, holds the
    coefficients of (t + s_1)^n * r(s)^beta up to total s-degree k, where

        r_0(s) = 1/(t + s_1) - 1/t = -s_1 / (t (t + s_1)),
        r_j(s) = s_j / (t + s_1)          for j = 2, ..., N.

    Jets are indexed by the degree-k monomials: the jet s_1^a s^tau, written
    (a, tau) with tau the tail, is x_0^(k-a-|tau|) x_1^a x^tau. For
    beta = (b, tau) that product is
    (-1)^b t^(-b) s_1^b s^tau (t + s_1)^m with m = n - |tau| - b, so

        T[(a, tau), (b, tau)] = (-1)^b C(m, a - b) t^(m - a)    for a >= b,

    with C the binomial-series coefficient (`_series_binomial`; m >= n - k,
    so m < 0 only when k > n), and every other entry is 0. T is
    block-diagonal by the tail, and the block of tail degree d is the N = 1
    cocycle of degree n - d and order k - d (`_line_block`), lower
    triangular. So T has at most k + 1 distinct blocks: each is built once,
    through the `TransitionData` constructor, which takes its determinant
    and cuts it further where it falls apart (k > n makes C(m, j) = 0 for
    0 <= m < j). The blocks are placed at the indices of their jets in
    `monomial_basis(N, k)`, and the dense matrix is written only when read.
    """
    check_jet_regime(N, n, k)
    basis = monomial_basis(N, k)
    blocks: dict[int, TransitionData] = {}
    placed: list[tuple[TransitionData, list[int]]] = []
    for x0, a, *tail in basis:
        if a:
            continue
        # (k - d, 0, tail) is the first jet of each tail of degree d = k - x0.
        d = k - x0
        if d not in blocks:
            blocks[d] = TransitionData(x0 + 1, _line_block(n - d, x0))
        placed.append((blocks[d], [basis.index_of((x0 - i, i, *tail)) for i in range(x0 + 1)]))
    return TransitionData._from_blocks(len(basis), placed)


# ---------------------------------------------------------------------------
# Twisted global sections and splitting extraction.
# ---------------------------------------------------------------------------

def _sparse_rank(rows: list[dict[int, Scalar]]) -> int:
    """Rank of a sparse rational matrix given as {column: value} rows of
    ints and Fractions: the pivot count of `linalg._eliminate`."""
    return len(_eliminate(rows))


def _section_space_dim(data: TransitionData, m: int, degree_bound: int) -> int:
    """Dimension of pairs (f_0, f_1) with f_0(t) = t^m T(t) f_1(1/t) and the
    chart-1 components of degree at most degree_bound.

    This undercounts the true section space when degree_bound is too small,
    never overcounts; `h0_twisted` passes a bound proven to be large enough.
    Integer coefficients are summed as ints, and the elimination core
    behind `_sparse_rank` clears the denominators of the rest.
    """
    rho = data.rank
    width = degree_bound + 1
    unknowns = rho * width
    rows: dict[tuple[int, int], dict[int, Scalar]] = {}
    for comp in range(rho):
        for j in range(rho):
            poly = data.matrix.entry(comp, j)
            for exp, coeff in poly.coeffs:
                value = coeff.numerator if coeff.denominator == 1 else coeff
                # Only the negative exponents exp + m - i of chart 0 give equations.
                for i in range(max(0, exp + m + 1), width):
                    row = rows.setdefault((comp, exp + m - i), {})
                    col = j * width + i
                    row[col] = row.get(col, 0) + value
    rank = _sparse_rank(list(rows.values()))
    return unknowns - rank


def h0_twisted(data: TransitionData, m: int) -> int:
    """Dimension of the twisted global sections h^0(E(m)) on the line, exactly.

    The chart-1 degree bound is proven. With det T = c t^e, a section has
    f_1(1/t) = c^-1 t^(-m-e) adj(T)(t) f_0(t). Entry (i, j) of adj(T) is a
    signed minor without row j, so its exponents are at least the sum of the
    least exponents of the other rows, which is at least
    L = (sum of the row minima) - (largest row minimum). As f_0 is a
    polynomial in t, every exponent of f_1(1/t) is at least L - m - e, so
    deg f_1 <= max(0, m + e - L) holds for every section
    (`TransitionData.adjugate_floor` is L). Two of these counts are the
    certificate of a uniform block in `splitting_type`.
    """
    return _section_space_dim(data, m, max(0, m + data.det_exponent - data.adjugate_floor))


def splitting_type(data: TransitionData) -> SplittingType:
    """Degrees of the line-bundle summands of a unit-determinant cocycle.

    The cocycle is the direct sum of its blocks (`TransitionData.blocks`),
    so its splitting type is the union of theirs, and each distinct block
    is read once. A block of rank r whose determinant exponent e is r * d
    is proven uniform by two exact section counts, h0(-d-1) = 0 and
    h0(-d) = r: h0(m) is the sum of max(0, d_j + m + 1) over its degrees
    d_j, so the first count puts every d_j below d + 1, and the second
    then puts every d_j at d. This covers every jet block. Every other
    block is read by `_column_reduction`. A block whose degrees do not sum
    to e, or whose certificate fails while column reduction finds it
    uniform, raises ArithmeticError.
    """
    found: dict[int, list[int]] = {}
    degrees: list[int] = []
    for block in data.blocks:
        if id(block) not in found:
            rho, e = block.rank, block.det_exponent
            d, rest = divmod(e, rho)
            if not rest and h0_twisted(block, -d - 1) == 0 and h0_twisted(block, -d) == rho:
                block_degrees = [d] * rho
            else:
                block_degrees = _column_reduction(block)
                if not rest and block_degrees == [d] * rho:
                    raise ArithmeticError("section counts and column reduction disagree on a block")
            if sum(block_degrees) != e:
                raise ArithmeticError("block degrees do not sum to its determinant exponent")
            found[id(block)] = block_degrees
        degrees.extend(found[id(block)])
    return SplittingType(tuple(sorted(degrees, reverse=True)))


def _lowest_kernel(cols: list[list[LaurentPoly]], lows: list[int]) -> dict[int, int] | None:
    """A kernel vector {column: c_j} of the lowest-order matrix, whose
    column j holds the coefficients of t^low(j) in column j, or None when
    that matrix is invertible: `_eliminate` on the rows
    [lowest-order column j | unit vector j] gives a pivot row past the
    first rank columns exactly when a combination of columns vanishes."""
    rho = len(cols)
    rows = [
        {**{i: p.coeff(low) for i, p in enumerate(col)}, rho + j: 1}
        for j, (col, low) in enumerate(zip(cols, lows))
    ]
    for c, row in _eliminate(rows).items():
        if c >= rho:
            return {j - rho: v for j, v in row.items()}
    return None


def _column_reduction(data: TransitionData) -> list[int]:
    """Degrees of one block by column reduction over Q[1/t] (Wolovich 1974;
    Kailath, Linear Systems, 1980, 6.3), with no section count.

    low(j) is the least exponent of t in column j. While the lowest-order
    matrix has a kernel vector c, the column j* of least low(j) on its
    support, L, is replaced by the sum of c_j t^(L - low(j)) col_j. That is
    T -> T U with U unimodular over Q[1/t], which keeps h0 and det, and it
    clears t^L from column j*, so the sum of the lows rises. Every term of
    det T = c t^e has exponent at least that sum, so at most e - sum(lows)
    steps are needed; more raise ArithmeticError. When the matrix is
    invertible, T U = A(t) diag(t^low) with A(0) that matrix and det A a
    constant, so A is unimodular over Q[t] and the degrees are the lows.
    """
    rho = data.rank
    cols = [[data.matrix.entry(i, j) for i in range(rho)] for j in range(rho)]
    lows = [min(p.min_exp for p in col if not p.is_zero()) for col in cols]
    for _ in range(data.det_exponent - sum(lows) + 1):
        kernel = _lowest_kernel(cols, lows)
        if kernel is None:
            return lows
        low, star = min((lows[j], j) for j in kernel)
        cols[star] = [
            sum((cols[j][i].shift(low - lows[j]).scale(c) for j, c in kernel.items()), LaurentPoly.zero())
            for i in range(rho)
        ]
        lows[star] = min(p.min_exp for p in cols[star] if not p.is_zero())
    raise ArithmeticError("column reduction took more steps than the determinant exponent allows")


def jet_splitting_check(
    data: TransitionData, N: int, n: int, k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(computed, expected) splitting degrees of the order-k jet cocycle
    `data` of the degree-n line bundle: the corollary expects binom(N+k, N)
    copies of degree n-k."""
    check_corollary_regime(N, n, k)
    return splitting_type(data).degrees, (n - k,) * binomial(N + k, N)


# ---------------------------------------------------------------------------
# JSON export.
# ---------------------------------------------------------------------------

def transition_to_json_dict(data: TransitionData) -> dict:
    """Row-major JSON form: each entry is a list of [exponent, "num/den"]
    pairs sorted by exponent."""
    entries = []
    for poly in data.matrix.entries:
        entries.append([[e, f"{c.numerator}/{c.denominator}"] for e, c in poly.coeffs])
    return {"rank": data.rank, "variable": "t", "entries": entries}
