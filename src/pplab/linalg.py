"""Exact linear algebra over the rationals.

`RationalMatrix` is a dense matrix. Its eliminations (reduced row-echelon
form, kernels, determinants, inverses) and the section ranks of
`splitting` run through one sparse fraction-free core over Python ints,
`_eliminate`, on {column: value} rows, because the matrices pplab
eliminates are scaled selections or nearly so. The core takes int and
`Fraction` values and clears each row's denominators; `Fraction`s are
built again only where results leave this module. Reduced forms
(`RrefResult`) and subspaces (`Subspace`) keep their canonical reduced
rows sparse; a dense matrix is built only when a caller asks for one.
Every entry they hand out is a `fractions.Fraction`; there are no floats
and no tolerances anywhere. Matrices and subspaces are immutable after
construction, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence

Scalar = int | Fraction
# One row of a reduced form: (column, value) pairs, columns increasing, no
# zero values.
SparseRow = tuple[tuple[int, Fraction], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    def det(self) -> Fraction:
        """Exact determinant, by `_det` on the sparse rows."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _det(_sparse_rows(self))

    def inverse(self) -> "RationalMatrix":
        """Exact inverse: the reduced form of [self | I] is [I | inverse]."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        pivots = _eliminate(_with_identity(_sparse_rows(self)), reduced=True)
        if any(c >= n for c in pivots):
            raise ValueError("matrix is singular")
        out = [Fraction(pivots[i].get(n + j, 0), pivots[i][i]) for i in range(n) for j in range(n)]
        return RationalMatrix(n, n, tuple(out))


def _sparse_rows(m: RationalMatrix) -> list[dict[int, Fraction]]:
    return [{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)]


def _with_identity(rows: list[dict[int, Scalar]]) -> list[dict[int, Scalar]]:
    """Sparse rows of [m | I] from the sparse rows of a square m."""
    for i, row in enumerate(rows):
        row[len(rows) + i] = 1
    return rows


def _det(rows: list[dict[int, Scalar]]) -> Fraction:
    """Exact determinant of the square m with these sparse rows of ints and
    Fractions, which `_with_identity` extends in place, from the
    elimination of [m | I]. Input row i becomes the pivot row
    s * (row i + a combination of earlier rows), and its scale s, the row's
    lcm times its `a` multipliers over its content divisors, is its entry
    in identity column i. So det is the signed product of lead / s over the
    pivots, or 0 when a row leads in the identity half."""
    n = len(rows)
    pivots = _eliminate(_with_identity(rows))
    if any(c >= n for c in pivots):
        return Fraction(0)
    # Row i ends up leading at column cols[i]; sorting the rows by that
    # column gives a triangular matrix, at the sign of the permutation.
    cols = list(pivots)
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
    leads = prod(row[c] for c, row in pivots.items())
    scales = prod(row[n + i] for i, row in enumerate(pivots.values()))
    return Fraction(-leads if inversions % 2 else leads, scales)


def _eliminate(
    rows: Iterable[Mapping[int, Scalar]], reduced: bool = False
) -> dict[int, dict[int, int]]:
    """Sparse fraction-free elimination over Python ints (after Bareiss,
    Math. Comp. 22, 1968): the one elimination core behind `rref`, `det`,
    `inverse`, `from_vectors` and the section ranks of `splitting`.

    Rows are {column: value} mappings of ints and Fractions; they are not
    modified, and zero values are ignored. Each row is first multiplied by
    the lcm of its denominators. It is then reduced by min-column pivoting:
    while a pivot row p leads at the row's minimum column c,
    r <- (p_c r - r_c p) / gcd(p_c, r_c), which clears column c, and r is
    divided by its content, the gcd of its entries. A row with no pivot at
    its minimum column becomes the pivot row there. Clearing denominators
    and dividing by the content multiply a row by a nonzero scalar, and the
    update adds a multiple of a pivot row to a nonzero multiple of r, so
    none of them changes the span of the rows seen so far. The pivot rows
    lead at distinct columns, so they are a basis of that span and their
    count is the rank. Each step removes the minimum column, so the loop
    ends.

    Returns the integer pivot rows keyed by their column, in the order the
    input rows became pivots. With `reduced`, a back-substitution pass
    clears every pivot column from the other pivot rows, which leaves each
    pivot row a multiple of its canonical reduced row-echelon row.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        den = lcm(*[v.denominator for v in row.values()])
        r = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        while r:
            c = min(r)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = r
                break
            a, b = pivot[c], r[c]
            g = gcd(a, b)
            if g != 1:
                a, b = a // g, b // g
            if a != 1:
                r = {cc: a * v for cc, v in r.items()}
            for cc, v in pivot.items():
                val = r.get(cc, 0) - b * v
                if val:
                    r[cc] = val
                else:
                    del r[cc]
            if r:
                g = gcd(*r.values())
                if g != 1:
                    r = {cc: v // g for cc, v in r.items()}
    if reduced and any(cc != c and cc in pivots for c, row in pivots.items() for cc in row):
        # Back substitution is this same loop over the pivot rows, largest
        # pivot first, with each pivot column c relabeled flip - c < lo: below
        # every non-pivot column, which all exceed the least pivot column lo,
        # and largest first. Each row is then cleared at its larger pivot
        # columns, by rows holding no other pivot column, before it becomes
        # the pivot row at its own column again. It is skipped when no pivot
        # row holds another pivot column, as for scaled selections.
        lo = min(pivots)
        flip = 2 * lo - 1
        back = _eliminate(
            {(flip - cc if cc in pivots else cc): v for cc, v in pivots[c].items()}
            for c in sorted(pivots, reverse=True)
        )
        pivots = {
            flip - c: {(flip - cc if cc < lo else cc): v for cc, v in row.items()}
            for c, row in back.items()
        }
    return pivots


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim, stored by its canonical reduced rows.

    Each row is a tuple of (column, value) pairs with increasing columns and
    no zero values, one row per basis vector: the nonzero rows of the reduced
    row-echelon form of any spanning set, which is unique. So two subspaces
    are equal as sets of vectors exactly when their rows are equal as data,
    and construction refuses rows that are not canonical. `basis` is the
    dense view, built on request.
    """

    ambient_dim: int
    rows: tuple[SparseRow, ...]

    def __post_init__(self) -> None:
        # A ValueError, not an assert: equality as data is only sound for
        # canonical rows, and `python -O` strips asserts.
        if self.ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        last_pivot = -1
        for row in self.rows:
            last = -1
            for c, x in row:
                if not last < c < self.ambient_dim:
                    raise ValueError("row columns must increase and stay below ambient_dim")
                if not x:
                    raise ValueError("canonical rows store no zero values")
                last = c
            if not row or row[0][1] != 1:
                raise ValueError("each canonical row leads with 1")
            if row[0][0] <= last_pivot:
                raise ValueError("pivot columns must strictly increase")
            last_pivot = row[0][0]
        pivots = set(self.pivots)
        if any(c in pivots for row in self.rows for c, _ in row[1:]):
            raise ValueError("a pivot column appears in another row")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[0][0] for row in self.rows)

    @property
    def basis(self) -> RationalMatrix:
        """Dense view: one basis vector per row."""
        return _dense(self.rows, self.dim, self.ambient_dim)

    @staticmethod
    def from_vectors(
        vectors: Sequence[Sequence[Scalar] | Mapping[int, Scalar]], ambient_dim: int
    ) -> "Subspace":
        """Span of the vectors, each either dense, of length ambient_dim, or
        a {column: value} mapping."""
        sparse = [_sparse_vector(v, ambient_dim) for v in vectors]
        pivots = _eliminate(sparse, reduced=True)
        return Subspace(ambient_dim, _canonical_rows(pivots))


def _sparse_vector(
    v: Sequence[Scalar] | Mapping[int, Scalar], ambient_dim: int
) -> dict[int, Fraction]:
    # A mapping column out of range stays in the span, so `Subspace` refuses it.
    if isinstance(v, Mapping):
        items = v.items()
    elif len(v) != ambient_dim:
        raise ValueError("ragged rows")
    else:
        items = enumerate(v)
    return {c: _frac(x) for c, x in items if x}


def _canonical_rows(pivots: dict[int, dict[int, int]]) -> tuple[SparseRow, ...]:
    """The reduced pivot rows of `_eliminate(..., reduced=True)` as sorted
    (column, value) tuples, each entry over its row's lead, in increasing
    pivot order."""
    return tuple(
        tuple((cc, Fraction(v, pivots[c][c])) for cc, v in sorted(pivots[c].items()))
        for c in sorted(pivots)
    )


def _dense(rows: Sequence[SparseRow], nrows: int, cols: int) -> RationalMatrix:
    """Dense nrows x cols matrix with the given sparse rows on top and zero
    rows below."""
    entries = [_ZERO] * (nrows * cols)
    for i, row in enumerate(rows):
        base = i * cols
        for j, x in row:
            entries[base + j] = x
    return RationalMatrix(nrows, cols, tuple(entries))


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form of a matrix with `rows` rows: its nonzero
    rows are the canonical rows of the matrix's row space, and the rest are
    zero. `matrix` is the dense view, built on request."""

    rows: int
    row_space: Subspace

    @property
    def pivots(self) -> tuple[int, ...]:
        return self.row_space.pivots

    @property
    def rank(self) -> int:
        return self.row_space.dim

    @property
    def matrix(self) -> RationalMatrix:
        return _dense(self.row_space.rows, self.rows, self.row_space.ambient_dim)

    def kernel(self) -> Subspace:
        """Null space of the reduced matrix, and so of the matrix it came
        from, as a canonical subspace: one vector per free column f, with 1
        at f and minus row i's entry in column f at pivot i."""
        cols = self.row_space.ambient_dim
        pivots = set(self.pivots)
        vectors = {f: {f: _ONE} for f in range(cols) if f not in pivots}
        for (p, _), *rest in self.row_space.rows:
            # Non-pivot entries of a canonical row lie in free columns.
            for f, x in rest:
                vectors[f][p] = -x
        return Subspace.from_vectors(list(vectors.values()), cols)


def rref(m: RationalMatrix) -> RrefResult:
    """Reduced row-echelon form: pivot entries 1, zeros above and below,
    pivot columns strictly increasing, zero rows last. The RREF is unique,
    so the sparse core's choice of pivots does not show in the result."""
    pivots = _eliminate(_sparse_rows(m), reduced=True)
    return RrefResult(m.rows, Subspace(m.cols, _canonical_rows(pivots)))


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Exact equality of spans; raises if the ambient spaces differ."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return a.rows == b.rows


def kernel_basis(m: RationalMatrix) -> Subspace:
    """Null space of m as a canonical subspace of Q^cols."""
    return rref(m).kernel()
