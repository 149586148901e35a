import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings, strategies as st

from pplab import laurent, splitting
from pplab.laurent import LaurentMatrix, LaurentPoly, block_components, det_laurent
from pplab.splitting import (
    TransitionData,
    _section_space_dim,
    h0_twisted,
    jet_splitting_check,
    jet_transition_matrix,
    splitting_type,
    transition_to_json_dict,
)
from pplab.symspace import ParameterError, binomial, monomial_basis

from oracles import (
    DEFAULT_SAMPLE_POINTS,
    chart0_jet,
    chart1_jet,
    random_unimodular,
    transition_consistency,
)
from test_linalg import _naive_gauss_jordan


def diag_powers(*exps):
    return TransitionData(
        len(exps), LaurentMatrix.diagonal([LaurentPoly.t_pow(e) for e in exps])
    )


# --- convention pins ------------------------------------------------------

def test_order_zero_jets_give_plain_cocycle():
    # Pr^0 of a degree-n bundle is the bundle itself: 1x1 cocycle (t^n).
    for n in (1, 2, 4):
        data = jet_transition_matrix(1, n, 0)
        assert data.rank == 1
        assert data.matrix.entry(0, 0) == LaurentPoly.t_pow(n)
        assert splitting_type(data).degrees == (n,)


def test_line_first_jets_matrix_and_determinant():
    # Hand chain rule at (1 : t): f0(t+s) = (t+s)^2 f1(1/(t+s)) gives
    # columns (t^2, 2t) and (0, -1); determinant exponent is 2(n-1) = 2.
    data = jet_transition_matrix(1, 2, 1)
    m = data.matrix
    assert m.entry(0, 0) == LaurentPoly.t_pow(2)
    assert m.entry(1, 0) == LaurentPoly.t_pow(1, 2)
    assert m.entry(0, 1) == LaurentPoly.zero()
    assert m.entry(1, 1) == LaurentPoly.const(-1)
    assert data.det_exponent == 2
    assert det_laurent(data.matrix) == LaurentPoly.t_pow(2, -1)


# --- closed form against the series composition ---------------------------

def series_composition_cocycle(N, n, k):
    """The jet cocycle by multiplying truncated power series, a reference
    that shares nothing with the closed form: column beta is the truncation
    at total s-degree k of (t + s_1)^n * prod_i r_i(s)^beta_i, with
    r_0 = 1/(t + s_1) - 1/t and r_j = s_j / (t + s_1) expanded in s, every
    coefficient a Laurent polynomial in t. Jets are indexed by the tails of
    the degree-k monomials."""
    jb = [mono[1:] for mono in monomial_basis(N, k)]

    def s_mono(first, pos=None):
        return tuple(first * (p == 0) + (p == pos) for p in range(N))

    def mul(a, b):
        out = {}
        for ma, pa in a.items():
            for mb, pb in b.items():
                if sum(ma) + sum(mb) <= k:
                    key = tuple(x + y for x, y in zip(ma, mb))
                    out[key] = out.get(key, LaurentPoly.zero()) + pa * pb
        return {m: p for m, p in out.items() if not p.is_zero()}

    deviations = [{s_mono(i): LaurentPoly.t_pow(-1 - i, (-1) ** i) for i in range(1, k + 1)}]
    for pos in range(1, N):
        deviations.append(
            {s_mono(i, pos): LaurentPoly.t_pow(-1 - i, (-1) ** i) for i in range(k)}
        )
    zero_mono = (0,) * N
    prefactor = {s_mono(i): LaurentPoly.t_pow(n - i, binomial(n, i)) for i in range(min(n, k) + 1)}
    series = {zero_mono: prefactor}
    for beta in jb:
        if beta != zero_mono:
            pos = max(i for i, e in enumerate(beta) if e)
            parent = beta[:pos] + (beta[pos] - 1,) + beta[pos + 1 :]
            series[beta] = mul(series[parent], deviations[pos])
    dim = len(jb)
    entries = [LaurentPoly.zero()] * (dim * dim)
    for col, beta in enumerate(jb):
        for alpha, poly in series[beta].items():
            entries[jb.index(alpha) * dim + col] = poly
    return LaurentMatrix(dim, dim, tuple(entries))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_closed_form_cocycle_matches_series_composition(N):
    # Includes k > n, where the exponent m = n - |tau| - b of (t + s_1)^m
    # can go negative and the closed form needs the binomial series.
    cases = [
        (n, k) for n in range(1, 9) for k in range(9) if binomial(N + k, N) <= 84
    ]
    assert any(k > n for n, k in cases)
    for n, k in cases:
        assert jet_transition_matrix(N, n, k).matrix == series_composition_cocycle(N, n, k), (n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_line_jets_past_the_degree_split_off_negative_summands(n):
    # For k >= n, the order-k jets of O(n) on the line split as n+1 trivial
    # summands and k-n copies of O(-k-1); the degrees sum to (k+1)(n-k), the
    # determinant exponent. This reaches the negative exponents m of the
    # closed form.
    for k in range(n, n + 5):
        expected = (0,) * (n + 1) + (-k - 1,) * (k - n)
        assert splitting_type(jet_transition_matrix(1, n, k)).degrees == expected, k


# --- consistency oracle ---------------------------------------------------

def test_consistency_x0_power():
    for (N, n, k) in [(1, 3, 1), (2, 2, 1)]:
        data = jet_transition_matrix(N, n, k)
        mono = (n,) + (0,) * N
        for t0 in (Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
            jet0 = chart0_jet(mono, t0, k)
            jet1 = chart1_jet(mono, t0, k)
            assert data.matrix.evaluate(t0).mat_vec(jet1) == jet0


def test_consistency_x1_power_at_one():
    for (N, n, k) in [(1, 4, 2), (2, 3, 1)]:
        data = jet_transition_matrix(N, n, k)
        mono = (0, n) + (0,) * (N - 1)
        jet0 = chart0_jet(mono, 1, k)
        jet1 = chart1_jet(mono, 1, k)
        assert data.matrix.evaluate(Fraction(1)).mat_vec(jet1) == jet0


def test_consistency_all_monomials_plane():
    data = jet_transition_matrix(2, 2, 1)
    assert transition_consistency(data, 2, 2, 1, DEFAULT_SAMPLE_POINTS)


def test_consistency_random_extra_points():
    rng = random.Random(123)
    points = []
    while len(points) < 20:
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if p != 0:
            points.append(p)
    data = jet_transition_matrix(1, 3, 2)
    assert transition_consistency(data, 1, 3, 2, points)


def test_consistency_detects_corruption():
    data = jet_transition_matrix(1, 2, 1)
    entries = list(data.matrix.entries)
    entries[2] = entries[2] + LaurentPoly.const(1)
    bad = TransitionData(2, LaurentMatrix(2, 2, tuple(entries)))
    assert not transition_consistency(bad, 1, 2, 1)


# --- twisted sections -----------------------------------------------------

def test_h0_rank_one_classical_count():
    for d in range(-3, 4):
        data = diag_powers(d)
        for m in range(-4, 5):
            assert h0_twisted(data, m) == max(0, d + m + 1), (d, m)


def test_h0_diagonal_examples():
    data = diag_powers(2, 2)
    assert h0_twisted(data, -3) == 0
    assert h0_twisted(data, 0) == 6


def test_h0_monotone_with_bounded_differences():
    rng = random.Random(4)
    for trial in range(5):
        exps = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        data = diag_powers(*exps)
        values = [h0_twisted(data, m) for m in range(-6, 7)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d >= 0 for d in diffs)
        assert all(d <= data.rank for d in diffs)
        assert diffs == sorted(diffs)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_h0_of_gauged_cocycle_matches_closed_form(degrees, seed):
    data = TransitionData(len(degrees), gauged(random.Random(seed), degrees))
    for m in range(-8, 9):
        assert h0_twisted(data, m) == sum(max(0, d + m + 1) for d in degrees), m


@pytest.mark.parametrize(
    "N,n,k", [(N, n, k) for N in (1, 2, 3) for n in range(1, 7) for k in range(n)]
)
def test_h0_of_jet_cocycle_matches_closed_form(N, n, k):
    data = jet_transition_matrix(N, n, k)
    for m in range(k - n - 2, k - n + 3):
        assert h0_twisted(data, m) == binomial(N + k, N) * max(0, n - k + m + 1), m


def criterion_6_cases():
    """The 50 gauged cocycles of acceptance criterion 6, with their degrees."""
    rng = random.Random(20240201)
    for _ in range(50):
        rank = rng.randint(1, 4)
        degrees = [rng.randint(-4, 4) for _ in range(rank)]
        diag = LaurentMatrix.diagonal([LaurentPoly.t_pow(d) for d in degrees])
        left = random_unimodular(rank, rng, inverse_variable=False)
        right = random_unimodular(rank, rng, inverse_variable=True)
        yield TransitionData(rank, left @ diag @ right), degrees


def test_undercounted_sections_raise_instead_of_giving_wrong_degrees(monkeypatch):
    # With the chart-1 degree bound capped at 0, h0 undercounts, so the
    # certificate of a uniform block can fail. Column reduction, which
    # counts no sections, then finds the block uniform, and the two routes'
    # disagreement (or the degree sum) must refuse the answer rather than
    # return a wrong splitting.
    exact = splitting._section_space_dim
    monkeypatch.setattr(
        splitting, "_section_space_dim", lambda data, m, bound: exact(data, m, min(bound, 0))
    )
    raised = 0
    for data, degrees in criterion_6_cases():
        try:
            found = splitting_type(data).degrees
        except ArithmeticError:
            raised += 1
            continue
        assert found == tuple(sorted(degrees, reverse=True))
    assert raised > 0


# --- splitting extraction -------------------------------------------------

def test_splitting_diagonal():
    assert splitting_type(diag_powers(2, 2)).degrees == (2, 2)


def test_splitting_unimodular_reduction():
    m = LaurentMatrix.from_rows(
        [
            [LaurentPoly.t_pow(1), LaurentPoly.const(1)],
            [LaurentPoly.zero(), LaurentPoly.t_pow(1)],
        ]
    )
    assert splitting_type(TransitionData(2, m)).degrees == (1, 1)


def test_splitting_jet_line_degree_three():
    st = splitting_type(jet_transition_matrix(1, 3, 1))
    assert st.degrees == (2, 2)


def test_splitting_mixed_degrees():
    assert splitting_type(diag_powers(3, -1, 0)).degrees == (3, 0, -1)


def test_splitting_degree_sum_is_det_exponent():
    for data in (diag_powers(1, 2, -1), jet_transition_matrix(2, 3, 1)):
        st = splitting_type(data)
        assert sum(st.degrees) == data.det_exponent


def test_splitting_gauge_invariance():
    rng = random.Random(99)
    for trial in range(6):
        rank = rng.randint(1, 3)
        exps = [rng.randint(-3, 3) for _ in range(rank)]
        base = diag_powers(*exps)
        left = random_unimodular(rank, rng, inverse_variable=False)
        right = random_unimodular(rank, rng, inverse_variable=True)
        gauged = TransitionData(rank, left @ base.matrix @ right)
        assert splitting_type(gauged).degrees == tuple(sorted(exps, reverse=True))


def test_splitting_of_a_cocycle_with_non_integer_coefficients():
    # diag(t^d) gauged by unitriangular factors with coefficients 1/2 and
    # -2/3, and one column scaled by the constant 3/5, which is a gauge too,
    # so the section systems have non-integer coefficients to clear.
    degrees = [3, -1, 0]
    one, zero = LaurentPoly.const(1), LaurentPoly.zero()
    half_t = LaurentPoly.t_pow(1, Fraction(1, 2))
    inv_t = LaurentPoly.t_pow(-1, Fraction(-2, 3))
    left = LaurentMatrix.from_rows([[one, half_t, zero], [zero, one, half_t], [zero, zero, one]])
    right = LaurentMatrix.from_rows([[one, zero, zero], [inv_t, one, zero], [zero, inv_t, one]])
    scale = LaurentMatrix.diagonal([one, LaurentPoly.const(Fraction(3, 5)), one])
    data = TransitionData(3, left @ diag_powers(*degrees).matrix @ right @ scale)
    assert any(c.denominator != 1 for p in data.matrix.entries for _, c in p.coeffs)
    assert len(data.blocks) == 1
    for m in range(-6, 6):
        assert h0_twisted(data, m) == sum(max(0, d + m + 1) for d in degrees), m
    assert splitting_type(data).degrees == tuple(sorted(degrees, reverse=True))


def gauged(rng, exps):
    rank = len(exps)
    left = random_unimodular(rank, rng, inverse_variable=False)
    right = random_unimodular(rank, rng, inverse_variable=True)
    return left @ diag_powers(*exps).matrix @ right


def direct_sum(parts):
    n = sum(p.rows for p in parts)
    entries = [LaurentPoly.zero()] * (n * n)
    at = 0
    for p in parts:
        for i in range(p.rows):
            for j in range(p.cols):
                entries[(at + i) * n + at + j] = p.entry(i, j)
        at += p.rows
    return LaurentMatrix(n, n, tuple(entries))


def test_splitting_of_permuted_direct_sum_is_union_of_parts():
    # A constant row or column permutation is a gauge, and a direct sum
    # splits as the union of its summands' types.
    rng = random.Random(2024)
    for trial in range(8):
        part_exps = [
            [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(2, 3))
        ]
        parts = [gauged(rng, exps) for exps in part_exps]
        if trial % 2:
            parts.append(parts[0])  # a repeated summand still counts twice
            part_exps.append(part_exps[0])
        total = direct_sum(parts)
        rows = list(range(total.rows))
        cols = list(range(total.rows))
        rng.shuffle(rows)
        rng.shuffle(cols)
        data = TransitionData(total.rows, total.submatrix(rows, cols))
        union = sorted((d for exps in part_exps for d in exps), reverse=True)
        assert len(block_components(data.matrix)) >= len(parts)
        assert splitting_type(data).degrees == tuple(union)
        for part, exps in zip(parts, part_exps):
            assert splitting_type(TransitionData(part.rows, part)).degrees == tuple(
                sorted(exps, reverse=True)
            )


def test_splitting_rejects_a_non_square_block():
    # A zero row leaves a component without columns: the determinant is 0,
    # and the constructor refuses the cocycle before any block is read.
    one, zero = LaurentPoly.const(1), LaurentPoly.zero()
    with pytest.raises(ValueError, match="not a unit"):
        TransitionData(2, LaurentMatrix.from_rows([[one, one], [zero, zero]]))


def test_splitting_type_takes_each_determinant_once(monkeypatch):
    # The constructor cuts the cocycle into blocks and takes the determinant
    # of each distinct block once; splitting_type reads the blocks it keeps.
    rng = random.Random(77)
    parts = [gauged(rng, [2, -1]), gauged(rng, [0, 0, 3])]
    cases = [
        (jet_transition_matrix(3, 5, 3), (2,) * 20),
        (TransitionData(7, direct_sum(parts + parts[:1])), (3, 2, 2, 0, 0, -1, -1)),
    ]
    summed = cases[1][0]
    assert [block.rank for block in summed.blocks] == [2, 3, 2]
    assert summed.blocks[0] is summed.blocks[2]
    assert summed.det_exponent == sum(block.det_exponent for block in summed.blocks) == 5
    connected = TransitionData(2, parts[0])
    assert connected.blocks == (connected,)

    def refused(*args):
        raise AssertionError("splitting_type cut or took a determinant again")

    monkeypatch.setattr(splitting, "block_components", refused)
    monkeypatch.setattr(splitting, "det_laurent", refused)
    for data, degrees in cases:
        assert splitting_type(data).degrees == degrees


def test_transition_data_cuts_the_cocycle_once(monkeypatch):
    # A handed matrix is cut once, then each distinct block once, as its own
    # connected TransitionData; det_laurent cuts nothing again.
    # jet_transition_matrix hands the constructor only its distinct tail
    # blocks, so each is cut once, and the whole cocycle never, not even when
    # its view is read.
    rng = random.Random(77)
    parts = [gauged(rng, [2, -1]), gauged(rng, [0, 0, 3])]
    calls = []

    def counted(m):
        calls.append(m.rows)
        return block_components(m)

    monkeypatch.setattr(laurent, "block_components", counted)
    monkeypatch.setattr(splitting, "block_components", counted)
    summed = TransitionData(7, direct_sum(parts + parts[:1]))
    assert calls == [7, 2, 3]
    calls.clear()
    jet = jet_transition_matrix(3, 5, 3)
    distinct = {id(block) for block in jet.blocks}
    assert len(distinct) == 4 and len(jet.blocks) == 10
    assert calls == [4, 3, 2, 1]
    assert jet.matrix.rows == jet.rank == 20
    assert calls == [4, 3, 2, 1]
    assert summed.det_exponent == 5


def test_splitting_rejects_a_block_with_a_non_unit_determinant():
    # One block's determinant is t + 1, not c * t^e: the constructor
    # refuses it through that block's own TransitionData.
    one, t_plus_one = LaurentPoly.const(1), LaurentPoly.from_dict({0: 1, 1: 1})
    with pytest.raises(ValueError, match="not a unit"):
        TransitionData(2, LaurentMatrix.diagonal([t_plus_one, one]))
    with pytest.raises(ValueError, match="not a unit"):
        TransitionData(1, LaurentMatrix.diagonal([t_plus_one]))


def tails(N, k):
    """Tail exponents (alpha_2, ..., alpha_N) of total degree at most k."""
    out = []
    for d in range(k + 1):
        for combo in combinations_with_replacement(range(N - 1), d):
            out.append(tuple(combo.count(i) for i in range(N - 1)))
    return out


JET_CASES = [(N, k + 1 + extra, k) for N in (1, 2, 3) for k in (0, 1, 2, 3) for extra in (0, 2)]


@pytest.mark.parametrize("N,n,k", JET_CASES)
def test_jet_cocycle_blocks_follow_tail_exponents(N, n, k):
    data = jet_transition_matrix(N, n, k)
    jb = [mono[1:] for mono in monomial_basis(N, k)]
    blocks = block_components(data.matrix)
    assert len(blocks) == binomial(N - 1 + k, N - 1) == len(tails(N, k))
    seen = set()
    for rows, cols in blocks:
        assert rows == cols
        tail = jb[rows[0]][1:]
        assert all(jb[i][1:] == tail for i in rows)
        assert len(rows) == k + 1 - sum(tail)
        seen.add(tail)
    assert seen == set(tails(N, k))


@pytest.mark.parametrize("N,n,k", JET_CASES)
def test_jet_section_count_is_sum_over_blocks(N, n, k):
    data = jet_transition_matrix(N, n, k)
    parts = [
        TransitionData(len(rows), data.matrix.submatrix(rows, cols))
        for rows, cols in block_components(data.matrix)
    ]
    bound = 2 * (n + k) + 2
    for m in range(k - n - 2, k - n + 4):
        whole = _section_space_dim(data, m, bound)
        assert whole == sum(_section_space_dim(p, m, bound) for p in parts)


# k > n in each N, so some tail blocks fall apart and some do not.
VIEW_CASES = [(N, n, k) for N in (1, 2, 3) for n in (1, 2, 4) for k in (0, 1, 3, 5)]


@pytest.mark.parametrize("N,n,k", VIEW_CASES)
def test_cutting_the_dense_view_gives_the_placed_blocks(N, n, k):
    # jet_transition_matrix never cuts the whole cocycle; cutting its dense
    # view must give the blocks it placed, as matrices and with multiplicity.
    data = jet_transition_matrix(N, n, k)
    cut = Counter(data.matrix.submatrix(rows, cols) for rows, cols in block_components(data.matrix))
    assert cut == Counter(block.matrix for block in data.blocks)
    assert data.matrix is data.matrix
    assert det_laurent(data.matrix).monomial_parts()[1] == data.det_exponent


def test_a_tail_block_falls_apart_when_k_exceeds_n():
    # In the one block of (1, 1, 3), C(m, j) = 0 for 0 <= m < j leaves no
    # entry between jets 0-1 and jets 2-3, so the constructor cuts it in two.
    data = jet_transition_matrix(1, 1, 3)
    assert len(data.blocks) == 2
    assert [block.rank for block in data.blocks] == [2, 2]
    assert splitting_type(data).degrees == (0, 0, -4, -4)


def test_jet_cocycles_keep_their_golden_digest():
    # Pins every entry of the dense view, k > n included: the SHA-256 of the
    # JSON export of 306 cocycles, as the dense construction wrote them.
    triples = [
        (N, n, k)
        for N in range(1, 5)
        for n in range(1, 10)
        for k in range(10)
        if binomial(N + k, N) <= 130
    ]
    assert len(triples) == 306 and any(k > n for _, n, k in triples)
    digest = hashlib.sha256()
    for N, n, k in triples:
        export = transition_to_json_dict(jet_transition_matrix(N, n, k))
        digest.update(json.dumps([N, n, k, export]).encode())
    assert digest.hexdigest() == "f2a7fe80eb12a8611317a2bf03f9582a9f37395984e1c5f032c468abc643f58e"


# --- the twist-window search, kept as an oracle ---------------------------

def window_degrees(data):
    """Degrees of one block by a twist-window search over exact section
    counts, the reference for `splitting_type`'s certificate and column
    reduction: g(m) = h0(m) - h0(m-1) is the number of degrees >= -m. The
    window [a, b] starts at b = -floor(e/rank), a = b - 1, and widens one
    twist at a time until g(a) = 0 and g(b) = rank; the multiplicity of
    degree -m is then g(m) - g(m-1)."""
    e_det, rho = data.det_exponent, data.rank
    exponents = [e for p in data.matrix.entries for e, _ in p.coeffs]
    lo, hi = min(exponents), max(exponents)
    window_cap = rho * (abs(lo) + abs(hi) + 1) + abs(e_det) + 1
    h0 = {}

    def g(m):
        for twist in (m - 1, m):
            if twist not in h0:
                h0[twist] = h0_twisted(data, twist)
        return h0[m] - h0[m - 1]

    b = -(e_det // rho)
    a = b - 1
    while g(a) != 0 or g(b) != rho:
        if g(a) != 0:
            a -= 1
        else:
            b += 1
        if a < -window_cap or b > window_cap:
            raise ArithmeticError("twist window failed to stabilize")
    degrees = []
    for m in range(a + 1, b + 1):
        mult = g(m) - g(m - 1)
        if mult < 0:
            raise ArithmeticError(f"negative multiplicity of degree {-m}")
        degrees.extend([-m] * mult)
    return degrees


def window_splitting(data, memo=None):
    """The sorted union of `window_degrees` over the blocks of a cocycle,
    searched once per distinct block matrix (across calls, with `memo`)."""
    memo = {} if memo is None else memo
    degrees = []
    for block in data.blocks:
        if block.matrix not in memo:
            memo[block.matrix] = window_degrees(block)
        degrees.extend(memo[block.matrix])
    return tuple(sorted(degrees, reverse=True))


def workload_shaped_cases(seed, count=40):
    """Cocycles shaped like the benchmark's gauged ones: degrees -4..4 that
    include both ends, ranks 2-8, and diag(t^d) hidden by
    L = 1 + a t E_ij and R = 1 + b t^-1 E_ji, with i and j the positions
    of 4 and -4, so the gauge fills one 2x2 block."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(2, 8)
        degrees = [4, -4] + [rng.randint(-4, 4) for _ in range(rank - 2)]
        rng.shuffle(degrees)
        i, j = degrees.index(4), degrees.index(-4)
        left, right = [LaurentPoly.zero()] * (rank * rank), [LaurentPoly.zero()] * (rank * rank)
        for d in range(rank):
            left[d * rank + d] = right[d * rank + d] = LaurentPoly.const(1)
        left[i * rank + j] = LaurentPoly.t_pow(1, rng.choice((-2, -1, 1, 2)))
        right[j * rank + i] = LaurentPoly.t_pow(-1, rng.choice((-2, -1, 1, 2)))
        matrix = LaurentMatrix(rank, rank, tuple(left)) @ diag_powers(*degrees).matrix
        yield TransitionData(rank, matrix @ LaurentMatrix(rank, rank, tuple(right))), degrees


def test_splitting_type_matches_the_window_search_on_criterion_6_and_jet_cases():
    for data, degrees in criterion_6_cases():
        assert splitting_type(data).degrees == window_splitting(data) == tuple(
            sorted(degrees, reverse=True)
        )
    for case in JET_CASES:
        data = jet_transition_matrix(*case)
        assert splitting_type(data).degrees == window_splitting(data), case


def test_splitting_type_matches_the_window_search_on_every_small_jet_cocycle(monkeypatch):
    # n >= 1 is the regime of the jet cocycle. k > n is included, and even
    # there every block is uniform, so the certificate reads every block and
    # column reduction never runs on a jet cocycle.
    reductions = []
    reduce = splitting._column_reduction
    monkeypatch.setattr(
        splitting, "_column_reduction", lambda data: reductions.append(data) or reduce(data)
    )
    triples = [
        (N, n, k)
        for N in range(1, 5)
        for n in range(1, 9)
        for k in range(8)
        if binomial(N + k, N) <= 130
    ]
    assert len(triples) == 240 and any(k > n for _, n, k in triples)
    memo = {}
    for triple in triples:
        data = jet_transition_matrix(*triple)
        assert splitting_type(data).degrees == window_splitting(data, memo), triple
    assert reductions == []


def test_splitting_type_matches_the_window_search_on_workload_shaped_cocycles():
    for seed in (1, 3):
        for data, degrees in workload_shaped_cases(seed):
            expected = tuple(sorted(degrees, reverse=True))
            assert splitting_type(data).degrees == window_splitting(data) == expected


@st.composite
def non_uniform_blocks(draw):
    """One connected gauged block of rank 2-4 whose degrees are not all
    equal, with those degrees."""
    degrees = draw(
        st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda ds: len(set(ds)) > 1)
    )
    data = TransitionData(len(degrees), gauged(random.Random(draw(st.integers(0, 2**32 - 1))), degrees))
    assume(len(data.blocks) == 1)
    return data, degrees


@settings(deadline=None, max_examples=60)
@given(non_uniform_blocks())
def test_column_reduction_matches_the_window_search_on_non_uniform_blocks(case):
    data, degrees = case
    expected = tuple(sorted(degrees, reverse=True))
    assert tuple(sorted(splitting._column_reduction(data), reverse=True)) == expected
    assert splitting_type(data).degrees == window_splitting(data) == expected


def test_integer_sparse_rank_matches_rational_elimination(monkeypatch):
    # Capture every section system that the certificates of splitting_type
    # and the window-search oracle build, for the criterion-6 cocycles and
    # the jet cocycles of JET_CASES, and compare the fraction-free rank with
    # the rank the dense naive Gauss-Jordan oracle of test_linalg gives,
    # once per distinct system. The window search alone built 252 distinct
    # systems when splitting_type ran it.
    rank = splitting._sparse_rank
    systems = []

    def spy(rows):
        systems.append(rows)
        return rank(rows)

    monkeypatch.setattr(splitting, "_sparse_rank", spy)
    cocycles = [data for data, _ in criterion_6_cases()]
    cocycles += [jet_transition_matrix(*case) for case in JET_CASES]
    for data in cocycles:
        splitting_type(data)
        window_splitting(data)
    assert len(systems) > len(cocycles)

    oracle: dict[tuple, int] = {}
    nonzero = 0
    for rows in systems:
        width = 1 + max((c for row in rows for c in row), default=0)
        key = tuple(tuple(sorted(row.items())) for row in rows)
        if key not in oracle:
            dense = [[Fraction(row.get(c, 0)) for c in range(width)] for row in rows]
            oracle[key] = len(_naive_gauss_jordan(dense)[1]) if dense else 0
        expected = oracle[key]
        # Explicit zeros, as the accumulator leaves when terms cancel, and
        # an empty row change nothing.
        padded = [{0: 0, **row, width: 0} for row in rows] + [{}]
        for variant in (rows, padded):
            before = [dict(row) for row in variant]
            assert rank(variant) == expected
            assert variant == before
        nonzero += expected > 0
    assert nonzero > 0
    assert len(oracle) >= 252


def test_jet_splitting_is_uniform():
    for (N, n, k) in [(1, 4, 2), (2, 3, 2), (2, 4, 1)]:
        st = splitting_type(jet_transition_matrix(N, n, k))
        assert len(set(st.degrees)) == 1
        assert len(st.degrees) == binomial(N + k, N)


def test_verify_splitting_examples():
    for (N, n, k), uniform in [
        ((1, 3, 1), (2, 2)),
        ((2, 2, 1), (1, 1, 1)),
        ((1, 4, 2), (2, 2, 2)),
    ]:
        degrees, expected = jet_splitting_check(jet_transition_matrix(N, n, k), N, n, k)
        assert degrees == expected == uniform


def test_jet_splitting_check_returns_computed_and_expected():
    degrees, expected = jet_splitting_check(jet_transition_matrix(2, 4, 2), 2, 4, 2)
    assert degrees == expected == (2,) * 6
    # One row times t keeps the determinant a unit but breaks uniformity.
    data = jet_transition_matrix(2, 4, 2)
    entries = list(data.matrix.entries)
    entries[: data.rank] = [p.shift(1) for p in entries[: data.rank]]
    bent = TransitionData(data.rank, LaurentMatrix(data.rank, data.rank, tuple(entries)))
    degrees, expected = jet_splitting_check(bent, 2, 4, 2)
    assert sum(degrees) == sum(expected) + 1 and degrees != expected


def test_jet_splitting_check_validates_range():
    data = jet_transition_matrix(1, 2, 1)
    with pytest.raises(ParameterError):
        jet_splitting_check(data, 1, 2, 2)
    with pytest.raises(ParameterError):
        jet_splitting_check(data, 1, 2, -1)


def test_transition_data_rejects_non_unit_determinant():
    with pytest.raises(ValueError):
        TransitionData(2, LaurentMatrix.diagonal([LaurentPoly.t_pow(1), LaurentPoly.zero()]))
    with pytest.raises(ValueError):
        TransitionData(
            2,
            LaurentMatrix.diagonal(
                [LaurentPoly.const(1), LaurentPoly.from_dict({0: 1, 1: 1})]
            ),
        )


def test_unimodular_generator_has_constant_determinant():
    rng = random.Random(31)
    for _ in range(10):
        rank = rng.randint(1, 4)
        for inverse_variable in (False, True):
            u = random_unimodular(rank, rng, inverse_variable=inverse_variable)
            parts = det_laurent(u).monomial_parts()
            assert parts is not None
            c, e = parts
            assert e == 0 and c != 0


# --- export ---------------------------------------------------------------

def test_json_export_schema():
    data = jet_transition_matrix(1, 2, 1)
    d = transition_to_json_dict(data)
    assert set(d) == {"rank", "variable", "entries"}
    assert d["rank"] == 2
    assert d["variable"] == "t"
    assert len(d["entries"]) == 4
    # entry (0,0) is t^2: one [exponent, "num/den"] pair.
    assert d["entries"][0] == [[2, "1/1"]]
    for entry in d["entries"]:
        exps = [e for e, _ in entry]
        assert exps == sorted(exps)
        for _, frac in entry:
            num, den = frac.split("/")
            assert int(den) > 0
            assert Fraction(int(num), int(den)) != 0
