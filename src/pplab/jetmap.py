"""Two models of the order-k jet fiber of the degree-n line bundle at the
base point, and the checks that tie them to the twisted symmetric power.

Model one is intrinsic: the quotient of the degree-n forms by the kernel of
the iterated x_0-derivative. Model two is extrinsic: truncated Taylor data of
the dehomogenized form at the point (1 : 0 : ... : 0). Both models index the
fiber by the degree-k monomials (`monomial_basis(N, k)`): the jet u^tau is
x_0^(k-|tau|) x^tau, as in the identification of the fiber with the degree-k
forms twisted by a character. The module verifies that both have the same
kernel (the span of monomials with x_0-exponent below n-k), that the
derivative map intertwines the group actions, and that the induced map on the
quotient is an invertible intertwiner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .linalg import RationalMatrix, _dense, kernel_basis, rref, subspace_equal
from .parabolic import (
    _group_element,
    _parabolic_from_rng,
    _scalar_character,
    _scaled_inverse_rows,
    _substitution_images,
)
from .symspace import (
    MAX_SIZE,
    ParameterError,
    binomial,
    check_theorem_regime,
    dim_sym,
    m_power_subspace,
    monomial_basis,
)


def _falling_factorial(p: int, steps: int) -> int:
    out = 1
    for i in range(steps):
        out *= p - i
    return out


def _section_weights(N: int, n: int, k: int) -> list[int]:
    """The falling factorials that d^(n-k)/dx_0^(n-k) puts on its section,
    the first binom(N+k, N) degree-n monomials. Raises ArithmeticError
    unless monomial i of the section is x_0^(n-k) times degree-k monomial i
    and the next one has x_0-exponent below n-k."""
    steps, jets, monos = n - k, monomial_basis(N, k).monomials, monomial_basis(N, n).monomials
    section = monos[: len(jets)]
    if [(m[0] - steps, *m[1:]) for m in section] != list(jets) or monos[len(jets)][0] >= steps:
        raise ArithmeticError(f"degree-{n} monomials are not x_0^{steps} times degree-{k} ones")
    return [_falling_factorial(m[0], steps) for m in section]


def _section_matrix(N: int, n: int, k: int, weighted: bool) -> RationalMatrix:
    check_theorem_regime(N, n, k)
    weights = _section_weights(N, n, k)
    rows = [((i, Fraction(w if weighted else 1)),) for i, w in enumerate(weights)]
    return _dense(rows, len(rows), len(monomial_basis(N, n)))


def x0_derivative_matrix(N: int, n: int, k: int) -> RationalMatrix:
    """Matrix of the derivative map d^(n-k)/dx_0^(n-k) from degree-n to
    degree-k monomials, of rank binom(k+N, N): `_section_weights` on the
    diagonal of its first columns."""
    return _section_matrix(N, n, k, weighted=True)


def taylor_fiber_matrix(N: int, n: int, k: int) -> RationalMatrix:
    """Matrix sending a degree-n form F to the coefficients of u^tau,
    |tau| <= k, in F(1, u_1, ..., u_N), the order-k Taylor data at the base
    point: 1 where the derivative map has its weights."""
    return _section_matrix(N, n, k, weighted=False)


def verify_kernel(N: int, n: int, k: int) -> bool:
    """Kernel of the derivative map == span of small-x_0 monomials == kernel
    of the Taylor map, all as canonical subspaces."""
    ker_phi = kernel_basis(x0_derivative_matrix(N, n, k))
    sub = m_power_subspace(N, n, k)
    ker_taylor = kernel_basis(taylor_fiber_matrix(N, n, k))
    return subspace_equal(ker_phi, sub) and subspace_equal(sub, ker_taylor)


def exact_sequence_check(N: int, n: int, k: int) -> bool:
    """Exactness of 0 -> small-x_0 span -> degree-n forms -> jet fiber -> 0:
    the subspace is exactly the kernel and the dimensions add up."""
    phi = rref(x0_derivative_matrix(N, n, k))
    sub = m_power_subspace(N, n, k)
    return sub.dim + phi.rank == dim_sym(N, n) and subspace_equal(phi.kernel(), sub)


@dataclass(frozen=True)
class JetRepReport:
    """Outcome of the randomized jet-representation verification."""

    N: int
    n: int
    k: int
    kernel_matches: bool
    taylor_kernel_matches: bool
    rank_correct: bool
    equivariance_trials: int
    equivariance_failures: int
    quotient_iso_equivariant: bool

    def __post_init__(self) -> None:
        if self.equivariance_failures > self.equivariance_trials:
            raise ValueError("more failures than trials")

    @property
    def passed(self) -> bool:
        return (
            self.kernel_matches
            and self.taylor_kernel_matches
            and self.rank_correct
            and self.equivariance_failures == 0
            and self.quotient_iso_equivariant
        )


def _trial_elements(
    N: int, trials: int, seed: int, height: int
) -> Iterator[tuple[Fraction, tuple[tuple[int, ...], ...], int]]:
    """The stabilizer elements of one verification, as (a, B, c) each, one
    at a time.

    Draws `trials` elements with `_parabolic_from_rng` from
    random.Random(seed). Each draw is the inverse h = g^-1 of its element,
    and yields g's corner scalar a = 1/b and the integer rows B and clearing
    denominator c of h, g^-1 = B / c. Every draw's B and c come through
    `_scaled_inverse_rows`, which checks in integers that B / c lies in P
    with corner 1/a and determinant 1, so a fault in the draw raises
    ArithmeticError instead of failing the trials as if it were a
    counterexample. The first element is also built as a
    `GroupElement`, the inverse of the rational h by
    `RationalMatrix.inverse`, which checks its determinant, shape and corner
    a; its B / c is compared with its inverse by `RationalMatrix.inverse`.
    """
    rng = random.Random(seed)
    for trial in range(trials):
        draw = _parabolic_from_rng(N, rng, height)
        b_rows, c = _scaled_inverse_rows(draw)
        if trial == 0:
            g = _group_element(draw)
            drawn_inverse = RationalMatrix.from_rows(b_rows).scale(Fraction(1, c))
            if drawn_inverse != g.mat.inverse():
                raise ArithmeticError("a drawn element's inverse disagrees with elimination")
        yield 1 / draw.b, b_rows, c


def _trial_checks(
    levels: Sequence[dict[int, dict[int, int]]],
    a: Fraction,
    c: int,
    n: int,
    k: int,
    ff: Sequence[int],
) -> tuple[bool, bool]:
    """Integer-arithmetic equivariance checks of one triple (N, n, k) at one
    stabilizer element g, given by its corner scalar a and the substitution
    images `levels = _substitution_images(B, N, max_n, max_k)` of its inverse
    cleared to integer rows, g^-1 = B / c, for some max_n >= n and
    max_k >= k. Returns (phi_ok, quot_ok).

    The degree-d action is the integer substitution x_i -> row_i(B) divided
    by c^d, so both intertwiner identities reduce to integer equalities after
    cross-multiplying by the single rational r = c^(n-k) a^-(n-k) = p/q, the
    normalizations' ratio times the P-character of the twist: q is the
    character's denominator and p is c^(n-k) times its numerator, not
    necessarily in lowest terms, which a common factor of both sides of
    every comparison does not change.

    The derivative map reads only its section, the first dim_k degree-n
    monomials, which `_section_weights` checks are x_0^(n-k) times the
    degree-k monomials of the same index: the terms that survive modulo
    (x_1, ..., x_N)^(k+1). The levels are taken modulo the smaller ideal
    (x_1, ..., x_N)^(max_k+1); both quotient maps are ring maps, and the
    one to the larger ideal drops exactly the keys from dim_k up. So the
    degree-n images restricted to keys below dim_k are the ones the triple
    reads, and the degree-k images, k <= max_k, are complete. Images are
    keyed by basis index, so the section row of a degree-n key is the key.

    quot_ok compares, column by column, q * ff[row] times the restricted
    image of each section monomial with p * ff[col] times the degree-k
    image (taken as empty when ff[col] is 0), where ff is
    `_section_weights(N, n, k)`. It walks the degree-n image's terms with
    key below dim_k and ff[key] nonzero, each a nonzero integer, compares
    each with its term on the right (0 if absent), and counts them: all
    equal and as many as the right has terms means the two sides are the
    same sparse vector. The first unequal column ends the checks. phi_ok
    adds the block-triangularity of the degree-n action: no monomial
    outside the section may have a key below dim_k in its image, i.e. each
    must stay in the small-x_0 span. It takes the least key of the
    nonempty images outside the section in one pass.
    """
    img_n, img_k = levels[n], levels[k]
    dim_k = len(img_k)
    chi = _scalar_character(a, n - k)
    p, q = c ** (n - k) * chi.numerator, chi.denominator
    left = [q * f for f in ff]
    empty: dict[int, int] = {}
    for col in range(dim_k):
        right = img_k[col] if ff[col] else empty
        scale = p * ff[col]
        matched = 0
        for row, coeff in img_n[col].items():
            if row < dim_k and left[row]:
                if left[row] * coeff != scale * right.get(row, 0):
                    return False, False
                matched += 1
        if matched != len(right):
            return False, False
    outside = filter(None, map(img_n.__getitem__, range(dim_k, len(img_n))))
    return min(map(min, outside), default=dim_k) >= dim_k, True


def _equivariance_pass(
    N: int, degrees: Sequence[tuple[int, int]], trials: int, seed: int, height: int
) -> list[tuple[int, bool]]:
    """The equivariance trials of every (n, k) in `degrees`, in one pass
    over the stabilizer elements of N: (failures, quotient_ok) per (n, k).

    The elements do not depend on n or k, so each is drawn and then expanded
    once, by `_substitution_images` up to degree max_n modulo
    (x_1, ..., x_N)^(max_k+1), with max_n and max_k the largest n and k in
    `degrees`. That ideal lies inside each triple's (x_1, ..., x_N)^(k+1),
    so restricting the expansion gives every triple the images it reads (see
    `_trial_checks`). Each element's expansion is checked against every
    triple and then dropped, so no more than one is held at a time.
    """
    ffs = [_section_weights(N, n, k) for n, k in degrees]
    max_n = max(n for n, _ in degrees)
    max_k = max(k for _, k in degrees)
    failures = [0] * len(degrees)
    quotient_ok = [all(f != 0 for f in ff) for ff in ffs]
    for a, b_rows, c in _trial_elements(N, trials, seed, height):
        levels = _substitution_images(b_rows, N, max_n, max_k)
        for i, (n, k) in enumerate(degrees):
            phi_ok, quot_ok = _trial_checks(levels, a, c, n, k, ffs[i])
            if not phi_ok:
                failures[i] += 1
            if not quot_ok:
                quotient_ok[i] = False
    return list(zip(failures, quotient_ok))


def verify_jet_representations(
    N: int,
    degrees: Sequence[tuple[int, int]],
    trials: int = 100,
    seed: int = 0,
    height: int = 3,
) -> list[JetRepReport]:
    """`verify_jet_representation` of every (n, k) in `degrees`, in order,
    with the equivariance trials of all of them run in one pass over the
    stabilizer elements of N (`_equivariance_pass`)."""
    if not degrees:
        raise ValueError("require at least one (n, k)")
    for n, k in degrees:
        check_theorem_regime(N, n, k)
    if not 1 <= trials <= MAX_SIZE:
        raise ParameterError(f"require 1 <= trials <= {MAX_SIZE}, got trials={trials}")
    tallies = _equivariance_pass(N, degrees, trials, seed, height)
    return [
        verify_jet_representation(N, n, k, trials, seed, height, _tally=tally)
        for (n, k), tally in zip(degrees, tallies)
    ]


def verify_jet_representation(
    N: int,
    n: int,
    k: int,
    trials: int = 100,
    seed: int = 0,
    height: int = 3,
    *,
    _tally: tuple[int, bool] | None = None,
) -> JetRepReport:
    """Full randomized verification that the jet fiber carries the twisted
    degree-k action.

    Deterministically in the seed: checks the three-way kernel identification,
    the rank of the derivative map, and then for `trials` random stabilizer
    elements that the derivative map intertwines the degree-n action with the
    twisted degree-k action and that the induced map on the monomial section
    (x_0-exponent >= n-k) is an invertible intertwiner. Raises
    ParameterError when `trials` is below 1, which would pass with no
    equivariance evidence, or above MAX_SIZE.

    The trials are the one-triple case of `_equivariance_pass`: with
    max_n = n and max_k = k, each element is expanded modulo exactly the
    ideal (x_1, ..., x_N)^(k+1) that the triple reads, and nothing is
    restricted away. `verify_jet_representations` runs one pass for several
    triples and hands each its (failures, quotient_ok) as `_tally`.
    """
    check_theorem_regime(N, n, k)
    if not 1 <= trials <= MAX_SIZE:
        raise ParameterError(f"require 1 <= trials <= {MAX_SIZE}, got trials={trials}")
    if _tally is None:
        (_tally,) = _equivariance_pass(N, [(n, k)], trials, seed, height)
    failures, quotient_ok = _tally
    # One elimination of the derivative map gives both its kernel and its rank.
    phi = rref(x0_derivative_matrix(N, n, k))
    sub = m_power_subspace(N, n, k)
    return JetRepReport(
        N=N,
        n=n,
        k=k,
        kernel_matches=subspace_equal(phi.kernel(), sub),
        taylor_kernel_matches=subspace_equal(kernel_basis(taylor_fiber_matrix(N, n, k)), sub),
        rank_correct=phi.rank == binomial(k + N, N),
        equivariance_trials=trials,
        equivariance_failures=failures,
        quotient_iso_equivariant=quotient_ok,
    )
