"""Exact dense linear algebra over the rationals.

All entries are `fractions.Fraction`; there are no floats and no tolerances
anywhere. Matrices and subspaces are immutable after construction, so values
can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

Scalar = int | Fraction


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "RationalMatrix":
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                raise ValueError("cannot infer column count of an empty matrix")
            return RationalMatrix(0, cols, ())
        ncols = len(rows[0]) if cols is None else cols
        entries = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            entries.extend(_frac(x) for x in row)
        return RationalMatrix(nrows, ncols, tuple(entries))

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return RationalMatrix(
            n, n, tuple(one if i == j else zero for i in range(n) for j in range(n))
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix(rows, cols, (Fraction(0),) * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def iter_rows(self):
        for i in range(self.rows):
            yield self.row(i)

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def scale(self, c: Scalar) -> "RationalMatrix":
        c = _frac(c)
        return RationalMatrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return RationalMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(-1)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = []
        orows = other.to_rows()
        for i in range(self.rows):
            srow = self.row(i)
            acc = [Fraction(0)] * other.cols
            for t, x in enumerate(srow):
                if x:
                    orow = orows[t]
                    for j in range(other.cols):
                        acc[j] += x * orow[j]
            out.extend(acc)
        return RationalMatrix(self.rows, other.cols, tuple(out))

    def mat_vec(self, vec: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = [_frac(x) for x in vec]
        return tuple(
            sum((x * y for x, y in zip(self.row(i), v)), Fraction(0)) for i in range(self.rows)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def det(self) -> Fraction:
        """Exact determinant by fraction-free elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        work, scale = _integer_rows(self)
        sign = 1
        prev = 1
        for c in range(n):
            piv_row = None
            for i in range(c, n):
                if work[i][c] != 0:
                    piv_row = i
                    break
            if piv_row is None:
                return Fraction(0)
            if piv_row != c:
                work[c], work[piv_row] = work[piv_row], work[c]
                sign = -sign
            piv = work[c][c]
            for i in range(c + 1, n):
                ri, rc = work[i], work[c]
                f = ri[c]
                for j in range(c, n):
                    ri[j] = (piv * ri[j] - f * rc[j]) // prev
            prev = piv
        return Fraction(sign * work[n - 1][n - 1]) / scale

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination on [self | I].

        Works on Fraction rows directly and touches only the nonzero entries
        of each pivot row; the matrices inverted here are small and sparse.
        """
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        one, zero = Fraction(1), Fraction(0)
        aug = [list(self.row(i)) + [one if i == j else zero for j in range(n)] for i in range(n)]
        for c in range(n):
            piv_row = next((i for i in range(c, n) if aug[i][c]), None)
            if piv_row is None:
                raise ValueError("matrix is singular")
            aug[c], aug[piv_row] = aug[piv_row], aug[c]
            scale = 1 / aug[c][c]
            pivot = aug[c] = [x * scale if x else x for x in aug[c]]
            support = [j for j in range(c, 2 * n) if pivot[j]]
            for i in range(n):
                f = aug[i][c]
                if f and i != c:
                    row = aug[i]
                    for j in support:
                        row[j] -= f * pivot[j]
        return RationalMatrix(n, n, tuple(x for row in aug for x in row[n:]))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"


def _integer_rows(m: RationalMatrix) -> tuple[list[list[int]], Fraction]:
    """Clear denominators row by row.

    Returns integer rows plus the product of the scaling factors, so that
    det(original) = det(scaled) / product.
    """
    out = []
    scale = Fraction(1)
    for i in range(m.rows):
        row = m.row(i)
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scale *= mult
        out.append([int(x * mult) for x in row])
    return out, scale


@dataclass(frozen=True)
class RrefResult:
    matrix: "RationalMatrix"
    pivots: tuple[int, ...]
    rank: int


def rref(m: RationalMatrix) -> RrefResult:
    """Reduced row-echelon form.

    Forward elimination is fraction-free (Bareiss one-step division) on
    denominator-cleared rows, which keeps intermediate entries as minors of
    the input instead of letting them blow up; a final normalization pass
    produces the canonical RREF (pivot entries 1, zeros above and below,
    pivot columns strictly increasing). Pivots are chosen as the first
    nonzero entry in column order.
    """
    nrows, ncols = m.rows, m.cols
    work, _ = _integer_rows(m)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv_row = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                piv_row = i
                break
        if piv_row is None:
            continue
        if piv_row != r:
            work[r], work[piv_row] = work[piv_row], work[r]
        piv = work[r][c]
        for i in range(r + 1, nrows):
            ri, rr = work[i], work[r]
            f = ri[c]
            for j in range(ncols):
                ri[j] = (piv * ri[j] - f * rr[j]) // prev
        pivots.append(c)
        prev = piv
        r += 1
    frac_rows = [[Fraction(x) for x in row] for row in work]
    for idx in range(len(pivots) - 1, -1, -1):
        c = pivots[idx]
        piv = frac_rows[idx][c]
        frac_rows[idx] = [x / piv for x in frac_rows[idx]]
        for i in range(idx):
            f = frac_rows[i][c]
            if f:
                top = frac_rows[i]
                base = frac_rows[idx]
                frac_rows[i] = [a - f * b for a, b in zip(top, base)]
    return RrefResult(RationalMatrix.from_rows(frac_rows, cols=ncols), tuple(pivots), len(pivots))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim, stored by its canonical RREF basis.

    The basis matrix has one basis vector per row, is in reduced row-echelon
    form and has full row rank, so two subspaces are equal as sets of vectors
    exactly when their stored bases are equal as data.
    """

    ambient_dim: int
    basis: RationalMatrix

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width does not match ambient dimension")

    @property
    def dim(self) -> int:
        return self.basis.rows

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence[Scalar]], ambient_dim: int) -> "Subspace":
        if not vectors:
            return Subspace(ambient_dim, RationalMatrix.zero(0, ambient_dim))
        m = RationalMatrix.from_rows(vectors, cols=ambient_dim)
        red = rref(m)
        kept = [list(red.matrix.row(i)) for i in range(red.rank)]
        return Subspace(ambient_dim, RationalMatrix.from_rows(kept, cols=ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RationalMatrix.zero(0, ambient_dim))


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Exact equality of spans; raises if the ambient spaces differ."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return a.basis == b.basis


def kernel_basis(m: RationalMatrix) -> Subspace:
    """Null space of m as a canonical subspace of Q^cols."""
    red = rref(m)
    pivot_set = set(red.pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(red.pivots):
            v[p] = -red.matrix.entry(i, f)
        vectors.append(v)
    return Subspace.from_vectors(vectors, m.cols)
