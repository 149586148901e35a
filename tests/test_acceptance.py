"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every comparison is exact; there are no tolerances.
"""

import json
import random
import time

from pplab.cli import run_sweep
from pplab.jetmap import verify_jet_representation, verify_kernel
from pplab.laurent import LaurentMatrix, LaurentPoly
from pplab.splitting import TransitionData, jet_transition_matrix, splitting_type
from pplab.symspace import binomial, codimension_identity, dim_sym, m_power_subspace

from oracles import DEFAULT_SAMPLE_POINTS, random_unimodular, transition_consistency

THEOREM_GRID = [(N, n, k) for N in (1, 2, 3) for n in range(2, 7) for k in range(1, n)]
SPLITTING_GRID = [(N, n, k) for N in (1, 2) for n in range(2, 5) for k in range(0, n)]


def _report(num: int, label: str, ok: bool, started: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {num}: {label} ({time.monotonic() - started:.2f}s)")


def test_criterion_1_dimension_identity():
    started = time.monotonic()
    ok = True
    for (N, n, k) in THEOREM_GRID:
        head = sum(binomial(i + N - 1, N - 1) for i in range(k + 1))
        ok = ok and head == binomial(k + N, N)
        ok = ok and dim_sym(N, n) - m_power_subspace(N, n, k).dim == binomial(k + N, N)
        ok = ok and codimension_identity(N, n, k)
    _report(1, "dimension identity on the full grid", ok, started)
    assert ok


def test_criterion_2_kernel_identification():
    started = time.monotonic()
    ok = all(verify_kernel(N, n, k) for (N, n, k) in THEOREM_GRID)
    _report(2, "three-way kernel identification on the full grid", ok, started)
    assert ok


def test_criterion_3_equivariance():
    started = time.monotonic()
    ok = True
    for idx, (N, n, k) in enumerate(THEOREM_GRID):
        report = verify_jet_representation(N, n, k, trials=100, seed=1000 + idx, height=3)
        triple_ok = (
            report.passed
            and report.equivariance_failures == 0
            and report.equivariance_trials == 100
        )
        if not triple_ok:
            print(f"  counterexample at (N={N}, n={n}, k={k}): {report}")
        ok = ok and triple_ok
    _report(3, "equivariance and quotient intertwiner, 100 trials per triple", ok, started)
    assert ok


def test_criterion_4_splitting_type():
    started = time.monotonic()
    ok = True
    for (N, n, k) in SPLITTING_GRID:
        st = splitting_type(jet_transition_matrix(N, n, k))
        expected = (n - k,) * binomial(N + k, N)
        if st.degrees != expected:
            print(f"  splitting mismatch at (N={N}, n={n}, k={k}): {st.degrees}")
            ok = False
    _report(4, "splitting type {n-k} with multiplicity binom(N+k, N)", ok, started)
    assert ok


def test_criterion_5_transition_oracle():
    started = time.monotonic()
    ok = True
    for (N, n, k) in SPLITTING_GRID:
        data = jet_transition_matrix(N, n, k)
        if not transition_consistency(data, N, n, k, DEFAULT_SAMPLE_POINTS):
            print(f"  cocycle inconsistency at (N={N}, n={n}, k={k})")
            ok = False
    _report(5, "transition matrices agree with chart jets at {1, 2, -1/3}", ok, started)
    assert ok


def test_criterion_6_splitting_extractor_oracle():
    started = time.monotonic()
    rng = random.Random(20240201)
    ok = True
    for case in range(50):
        rank = rng.randint(1, 4)
        degrees = [rng.randint(-4, 4) for _ in range(rank)]
        diag = LaurentMatrix.diagonal([LaurentPoly.t_pow(d) for d in degrees])
        left = random_unimodular(rank, rng, inverse_variable=False)
        right = random_unimodular(rank, rng, inverse_variable=True)
        data = TransitionData(rank, left @ diag @ right)
        st = splitting_type(data)
        case_ok = (
            st.degrees == tuple(sorted(degrees, reverse=True))
            and sum(st.degrees) == data.det_exponent
        )
        if not case_ok:
            print(f"  extractor failure in case {case}: degrees {degrees} -> {st.degrees}")
        ok = ok and case_ok
    _report(6, "gauged diagonal recovery, 50 random cases", ok, started)
    assert ok


def test_criterion_7_sweep_determinism():
    started = time.monotonic()
    config = dict(
        n_values=[1, 2], degree_values=[2, 3], k_values=None,
        trials=20, seed=77, height=3,
    )
    first = run_sweep(**config)
    second = run_sweep(**config)
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    ok = json.dumps(first) == json.dumps(second)
    _report(7, "byte-identical JSON result bodies for identical config and seed", ok, started)
    assert ok
