"""Laurent polynomials in one variable over the rationals, and matrices of them.

These are the carriers for transition matrices of bundles on the projective
line: finite-support maps from integer exponents to nonzero rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import RationalMatrix, Scalar, _frac


@dataclass(frozen=True)
class LaurentPoly:
    """sum of c_e * t^e with exact rational c_e; zero coefficients are never stored."""

    coeffs: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def from_dict(d: Mapping[int, Scalar]) -> "LaurentPoly":
        items = tuple(sorted((int(e), _frac(c)) for e, c in d.items() if c != 0))
        return LaurentPoly(items)

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(())

    @staticmethod
    def const(c: Scalar) -> "LaurentPoly":
        return LaurentPoly.from_dict({0: c})

    @staticmethod
    def t_pow(e: int, c: Scalar = 1) -> "LaurentPoly":
        return LaurentPoly.from_dict({e: c})

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, e: int) -> Fraction:
        for exp, c in self.coeffs:
            if exp == e:
                return c
        return Fraction(0)

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return self.coeffs[0][0]

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return self.coeffs[-1][0]

    def monomial_parts(self) -> tuple[Fraction, int] | None:
        """(coefficient, exponent) when this is a single term c*t^e, else None."""
        if len(self.coeffs) != 1:
            return None
        e, c = self.coeffs[0]
        return c, e

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = self.as_dict()
        for e, c in other.coeffs:
            acc[e] = acc.get(e, Fraction(0)) + c
        return LaurentPoly.from_dict(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly.from_dict(acc)

    def scale(self, c: Scalar) -> "LaurentPoly":
        c = _frac(c)
        if c == 0:
            return LaurentPoly.zero()
        return LaurentPoly(tuple((e, c * x) for e, x in self.coeffs))

    def shift(self, e: int) -> "LaurentPoly":
        return LaurentPoly(tuple((exp + e, c) for exp, c in self.coeffs))

    def evaluate(self, t0: Scalar) -> Fraction:
        t0 = _frac(t0)
        if t0 == 0:
            raise ValueError("cannot evaluate at t = 0 (negative exponents)")
        return sum((c * t0**e for e, c in self.coeffs), Fraction(0))

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient in the Laurent ring; raises if the division is not exact."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        rem = self.as_dict()
        quot: dict[int, Fraction] = {}
        # If the quotient exists its support width is bounded by the widths of
        # the operands, which bounds the number of leading-term cancellations.
        max_steps = (self.max_exp - self.min_exp) - (other.max_exp - other.min_exp) + 1
        d_lead_exp = other.max_exp
        d_lead_c = other.coeff(d_lead_exp)
        for _ in range(max_steps):
            if not rem:
                break
            lead = max(rem)
            e = lead - d_lead_exp
            c = rem[lead] / d_lead_c
            quot[e] = c
            for exp, dc in other.coeffs:
                k = exp + e
                val = rem.get(k, Fraction(0)) - c * dc
                if val == 0:
                    rem.pop(k, None)
                else:
                    rem[k] = val
        if rem:
            raise ArithmeticError("non-exact Laurent division")
        return LaurentPoly.from_dict(quot)


@dataclass(frozen=True)
class LaurentMatrix:
    rows: int
    cols: int
    entries: tuple[LaurentPoly, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[LaurentPoly]]) -> "LaurentMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[LaurentPoly] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return LaurentMatrix(nrows, ncols, tuple(flat))

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        one, zero = LaurentPoly.const(1), LaurentPoly.zero()
        return LaurentMatrix(
            n, n, tuple(one if i == j else zero for i in range(n) for j in range(n))
        )

    @staticmethod
    def diagonal(polys: Sequence[LaurentPoly]) -> "LaurentMatrix":
        n = len(polys)
        zero = LaurentPoly.zero()
        return LaurentMatrix(
            n, n, tuple(polys[i] if i == j else zero for i in range(n) for j in range(n))
        )

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[LaurentPoly, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "LaurentMatrix":
        return LaurentMatrix(
            len(rows), len(cols), tuple(self.entries[i * self.cols + j] for i in rows for j in cols)
        )

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = LaurentPoly.zero()
                for t in range(self.cols):
                    a = self.entry(i, t)
                    b = other.entry(t, j)
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                out.append(acc)
        return LaurentMatrix(self.rows, other.cols, tuple(out))

    def evaluate(self, t0: Scalar) -> RationalMatrix:
        return RationalMatrix(
            self.rows, self.cols, tuple(p.evaluate(t0) if not p.is_zero() else Fraction(0) for p in self.entries)
        )


def block_components(m: LaurentMatrix) -> list[tuple[list[int], list[int]]]:
    """Connected components of the nonzero pattern of m, as (rows, cols).

    The pattern is the bipartite graph with an edge from row i to column j
    for every nonzero entry. Each component lists its row and column indices
    in increasing order; components are ordered by their first row, and a
    zero column, a component without rows, comes last. Permuting the rows and
    the columns into the concatenated component order makes m block-diagonal.
    """
    row_cols = [[j for j, p in enumerate(m.row(i)) if not p.is_zero()] for i in range(m.rows)]
    col_rows: list[list[int]] = [[] for _ in range(m.cols)]
    for i, cols in enumerate(row_cols):
        for j in cols:
            col_rows[j].append(i)
    row_seen = [False] * m.rows
    col_seen = [False] * m.cols
    blocks: list[tuple[list[int], list[int]]] = []
    for start in range(m.rows):
        if row_seen[start]:
            continue
        row_seen[start] = True
        rows, cols, stack = [start], [], [start]
        while stack:
            for j in row_cols[stack.pop()]:
                if col_seen[j]:
                    continue
                col_seen[j] = True
                cols.append(j)
                for i in col_rows[j]:
                    if not row_seen[i]:
                        row_seen[i] = True
                        rows.append(i)
                        stack.append(i)
        blocks.append((sorted(rows), sorted(cols)))
    blocks.extend(([], [j]) for j in range(m.cols) if not col_seen[j])
    return blocks


def det_laurent(m: LaurentMatrix) -> LaurentPoly:
    """Exact determinant of a square Laurent-polynomial matrix.

    Rows with a single nonzero entry are peeled off first, each by cofactor
    expansion along it, which resolves permuted-triangular matrices in
    quadratic time; a zero row gives 0, and the 0x0 matrix has determinant
    1. The remaining core goes through fraction-free Bareiss elimination over
    the Laurent ring, whose divisions are exact. This path is correct for any
    square matrix and cuts nothing into blocks: `TransitionData` cuts a
    cocycle once and calls this on each distinct block.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    grid = [list(m.row(i)) for i in range(m.rows)]
    acc = LaurentPoly.const(1)
    sign = 1
    while grid:
        for i, row in enumerate(grid):
            nz = [j for j, p in enumerate(row) if not p.is_zero()]
            if not nz:
                return LaurentPoly.zero()
            if len(nz) == 1:
                j = nz[0]
                acc = acc * row[j]
                if (i + j) % 2 == 1:
                    sign = -sign
                grid = [r[:j] + r[j + 1 :] for a, r in enumerate(grid) if a != i]
                break
        else:
            return acc.scale(sign) * _det_bareiss(LaurentMatrix.from_rows(grid))
    return acc.scale(sign)


def _det_bareiss(m: LaurentMatrix) -> LaurentPoly:
    n = m.rows
    work = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    sign = 1
    prev = LaurentPoly.const(1)
    for c in range(n):
        piv_row = None
        for i in range(c, n):
            if not work[i][c].is_zero():
                piv_row = i
                break
        if piv_row is None:
            return LaurentPoly.zero()
        if piv_row != c:
            work[c], work[piv_row] = work[piv_row], work[c]
            sign = -sign
        piv = work[c][c]
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                num = piv * work[i][j] - work[i][c] * work[c][j]
                work[i][j] = num.exact_div(prev)
            work[i][c] = LaurentPoly.zero()
        prev = piv
    return work[n - 1][n - 1].scale(sign)
