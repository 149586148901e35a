"""Reference implementations that the tests compare pplab against, and the
builders of their test data. Not a test module: tests import it as
`from oracles import ...`.

* The dense action path pins the action convention against the integer
  trials: a group element g acts on forms by (g.f)(v) = f(g^-1 v), that is
  by substituting the rows of g^-1 for x_0, ..., x_N, and its action
  matrices use the column convention, the coefficients of g.f being
  action_matrix(g) @ coeffs(f). Then g -> matrix is a homomorphism, and the
  line of x_0^n modulo the hyperplane ideal transforms by chi(g, n) = a^-n,
  a the corner of a stabilizer element.
* Closed-form jets of monomials on both charts of the coordinate line, and
  `transition_consistency`, the oracle for the jet cocycle.
* Forms as coefficient vectors, with `partial_derivative`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from pplab.laurent import LaurentMatrix, LaurentPoly
from pplab.linalg import RationalMatrix
from pplab.parabolic import GroupElement, _group_element, _parabolic_from_rng, _substitution_images
from pplab.splitting import TransitionData
from pplab.symspace import MonomialBasis, binomial, check_theorem_regime, monomial_basis

# --- the dense action path ------------------------------------------------


def random_parabolic(N: int, seed: int, height: int = 3) -> GroupElement:
    """Seed-deterministic random stabilizer element, from the trials' draw."""
    return _group_element(_parabolic_from_rng(N, random.Random(seed), height))


def identity_element(N: int) -> GroupElement:
    return GroupElement(RationalMatrix.identity(N + 1), Fraction(1))


def product(g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement(g.mat @ h.mat, g.parabolic_scalar * h.parabolic_scalar)


def cleared_inverse(mat: RationalMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The inverse by exact elimination, cleared to integers: (rows, c)
    with mat^-1 = rows / c, c the lcm of its denominators."""
    inv = mat.inverse()
    c = lcm(*(x.denominator for x in inv.entries))
    return tuple(tuple(int(x * c) for x in row) for row in inv.to_rows()), c


def dual_action_matrix(g: GroupElement) -> RationalMatrix:
    """Column i holds g.x_i, the substitution of row i of g^-1: the inverse
    transpose of g."""
    return g.mat.inverse().transpose()


def sym_action(g: GroupElement, n: int) -> RationalMatrix:
    """Matrix of the action on degree-n forms (column convention)."""
    rows, c = cleared_inverse(g.mat)
    images = _substitution_images(rows, g.mat.rows - 1, n)[n]
    dim = len(images)
    entries = [Fraction(0)] * (dim * dim)
    for col, image in images.items():
        for row, coeff in image.items():
            entries[row * dim + col] = Fraction(coeff, c**n)
    return RationalMatrix(dim, dim, tuple(entries))


def chi(g: GroupElement, n: int) -> Fraction:
    """The character a^-n of a stabilizer element: the weight of the
    degree-n line."""
    if g.parabolic_scalar is None:
        raise ValueError("character is only defined for line-stabilizer elements")
    return g.parabolic_scalar ** (-n)


def target_rep_action(g: GroupElement, n: int, k: int) -> RationalMatrix:
    """The action on the jet fiber: the degree-k forms twisted by chi(g, n-k)."""
    check_theorem_regime(g.mat.rows - 1, n, k)
    return sym_action(g, k).scale(chi(g, n - k))


def is_equivariant(m: RationalMatrix, src: RationalMatrix, dst: RationalMatrix) -> bool:
    """Whether m intertwines two action matrices of one element."""
    return m @ src == dst @ m


# --- jets of monomials on the two charts of the line -----------------------

DEFAULT_SAMPLE_POINTS: tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(-1, 3))


def chart0_jet(mono: tuple[int, ...], t0, k: int) -> tuple[Fraction, ...]:
    """Order-k Taylor coefficients of F(1, t0+s_1, s_2, ..., s_N) for the
    monomial F = x^mono, over the jet basis: s^alpha is indexed by the
    degree-k monomial x_0^(k-|alpha|) x^alpha."""
    return _chart_jet(mono[1], Fraction(t0), mono, k)


def chart1_jet(mono: tuple[int, ...], t0, k: int) -> tuple[Fraction, ...]:
    """Order-k Taylor coefficients of F(1/t0 + r_0, 1, r_2, ..., r_N) over
    the jet basis of `chart0_jet`, whose x_1 slot holds the exponent of the
    w_0 deviation."""
    return _chart_jet(mono[0], 1 / Fraction(t0), mono, k)


def _chart_jet(p: int, x: Fraction, mono: tuple[int, ...], k: int) -> tuple[Fraction, ...]:
    # (x + s)^p times the tail monomial: jet alpha has coefficient
    # C(p, alpha_1) x^(p - alpha_1) when alpha's tail is mono's.
    return tuple(
        Fraction(binomial(p, alpha[1])) * x ** (p - alpha[1])
        if alpha[2:] == mono[2:] and alpha[1] <= p
        else Fraction(0)
        for alpha in monomial_basis(len(mono) - 1, k)
    )


def transition_consistency(
    data: TransitionData, N: int, n: int, k: int, sample_points=DEFAULT_SAMPLE_POINTS
) -> bool:
    """Oracle for the cocycle: at each sample point t0 and for every degree-n
    monomial, the closed-form chart-0 jet equals T(t0) applied to the
    closed-form chart-1 jet, exactly."""
    if binomial(N + k, N) != data.rank:
        raise ValueError("transition data does not match the parameters")
    for t0 in sample_points:
        t_eval = data.matrix.evaluate(t0)
        for mono in monomial_basis(N, n):
            if t_eval.mat_vec(chart1_jet(mono, t0, k)) != chart0_jet(mono, t0, k):
                return False
    return True


def random_unimodular(
    rank: int, rng: random.Random, inverse_variable: bool = False, ops: int = 6, height: int = 2
) -> LaurentMatrix:
    """Random unimodular matrix of polynomials in t (or in 1/t): a product of
    elementary row additions, row swaps and sign flips, so the determinant is
    a nonzero constant."""
    sign_exp = -1 if inverse_variable else 1
    rows = [[LaurentPoly.const(int(i == j)) for j in range(rank)] for i in range(rank)]
    for _ in range(ops):
        kind = rng.randrange(3)
        if kind == 0 and rank >= 2:
            i = rng.randrange(rank)
            j = rng.randrange(rank)
            while j == i:
                j = rng.randrange(rank)
            deg = rng.randint(0, 2)
            p = LaurentPoly.from_dict({sign_exp * d: rng.randint(-height, height) for d in range(deg + 1)})
            rows[i] = [x + p * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1 and rank >= 2:
            i = rng.randrange(rank)
            j = rng.randrange(rank)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = rng.randrange(rank)
            rows[i] = [x.scale(-1) for x in rows[i]]
    return LaurentMatrix.from_rows(rows)


# --- forms as coefficient vectors ------------------------------------------


@dataclass(frozen=True)
class PolyVector:
    """A homogeneous form as a coefficient vector over a monomial basis."""

    basis: MonomialBasis
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def zero(basis: MonomialBasis) -> PolyVector:
        return PolyVector(basis, (Fraction(0),) * len(basis))

    @staticmethod
    def from_terms(basis: MonomialBasis, terms) -> PolyVector:
        coeffs = [Fraction(0)] * len(basis)
        for mono, c in terms.items():
            coeffs[basis.index_of(mono)] = Fraction(c)
        return PolyVector(basis, tuple(coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: PolyVector) -> PolyVector:
        return PolyVector(self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> PolyVector:
        return PolyVector(self.basis, tuple(c * x for x in self.coeffs))

    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return {m: c for m, c in zip(self.basis.monomials, self.coeffs) if c}


def partial_derivative(f: PolyVector, var: int) -> PolyVector:
    """d/dx_var of a homogeneous form, landing in the next degree down."""
    N, n = f.basis.num_vars - 1, f.basis.degree
    target = monomial_basis(N, max(n - 1, 0))
    out = [Fraction(0)] * len(target)
    for mono, c in zip(f.basis.monomials, f.coeffs):
        if n and c and mono[var]:
            out[target.index_of(mono[:var] + (mono[var] - 1,) + mono[var + 1 :])] += c * mono[var]
    return PolyVector(target, tuple(out))
