"""Planted faults, one row each: every verdict field shown able to fail.

Each row plants a fault in a computation, never in a verdict line, by a
monkeypatch. The first table names a report field: with the fault, the
command's exit code turns from 0 to 1 and that field reads false (a count of
failures reads above 0) on every triple of the report. The rows after it
plant faults in the checks of `splitting_type`, and show that the check
meant to catch each one fails: the library raises ArithmeticError, and a
command that reaches the fault exits 3 (internal error), never 0 or 1.

`quotient_iso_equivariant` has no row of its own: the trials find the
quotient map wrong only where they also count an equivariance failure, and
the falling factorials it starts from are never 0, so that field is implied
by `equivariance_failures > 0` and cannot fail on its own.
"""

import json
from fractions import Fraction

import pytest

from pplab import cli, jetmap, splitting, symspace
from pplab.laurent import LaurentPoly
from pplab.linalg import RationalMatrix, Subspace
from pplab.splitting import splitting_type
from pplab.symspace import dim_sym, monomial_basis

from test_cli import non_uniform_cocycle, run
from test_splitting import criterion_6_cases, workload_shaped_cases


def _with_entry(m, i, j, value):
    entries = list(m.entries)
    entries[i * m.cols + j] = Fraction(value)
    return RationalMatrix(m.rows, m.cols, tuple(entries))


def phi_writes_a_small_x0_monomial(monkeypatch):
    """The derivative map also sends the first monomial of x_0-exponent
    below n-k to row 0: the kernel loses it, and the rank stays."""
    build = jetmap.x0_derivative_matrix

    def mutant(N, n, k):
        col = next(i for i, mono in enumerate(monomial_basis(N, n)) if mono[0] < n - k)
        return _with_entry(build(N, n, k), 0, col, 1)

    monkeypatch.setattr(jetmap, "x0_derivative_matrix", mutant)


def phi_drops_its_first_entry(monkeypatch):
    """The derivative map loses its entry at x_0^n: the rank falls by one."""
    build = jetmap.x0_derivative_matrix
    monkeypatch.setattr(jetmap, "x0_derivative_matrix", lambda *t: _with_entry(build(*t), 0, 0, 0))


def taylor_drops_its_first_entry(monkeypatch):
    """The Taylor map loses its entry at x_0^n: its kernel grows."""
    build = jetmap.taylor_fiber_matrix
    monkeypatch.setattr(jetmap, "taylor_fiber_matrix", lambda *t: _with_entry(build(*t), 0, 0, 0))


def small_x0_span_one_power_wide(module):
    """`m_power_subspace`, as the module reads it, takes the monomials of
    x_0-exponent <= n-k, not < n-k."""

    def fault(monkeypatch):
        def wide(N, n, k):
            basis = monomial_basis(N, n)
            units = [{i: 1} for i, mono in enumerate(basis) if mono[0] <= n - k]
            return Subspace.from_vectors(units, len(basis))

        monkeypatch.setattr(module, "m_power_subspace", wide)

    return fault


def forms_counted_one_too_many(monkeypatch):
    """The exact sequence counts one degree-n form too many: the kernel is
    still the small-x_0 span, and only the dimension sum can see it."""
    monkeypatch.setattr(jetmap, "dim_sym", lambda N, n: dim_sym(N, n) + 1)


def off_by_one_falling_factorial(monkeypatch):
    """Every falling factorial of the derivative map, and the ratios the
    trials compare, start one step too high. The kernels and the rank are
    unchanged, so only the equivariance trials can see it."""
    orig = jetmap._falling_factorial
    monkeypatch.setattr(jetmap, "_falling_factorial", lambda p, s: orig(p + 1, s))


def wrong_twist(step):
    """The degree-k forms twisted by the P-character of n-k+step instead of
    n-k. Kernels and ranks do not see it."""

    def fault(monkeypatch):
        orig = jetmap._scalar_character
        monkeypatch.setattr(jetmap, "_scalar_character", lambda a, d: orig(a, d + step))

    return fault


def dual_action_without_transpose(monkeypatch):
    """x_i goes to column i of g^-1 instead of row i. The drawn inverse
    itself is right, so the first draw's Gauss-Jordan check passes and the
    fault must show as a counterexample, not as an internal error."""
    expand = jetmap._substitution_images

    def transposed(b_rows, *rest):
        return expand([list(col) for col in zip(*b_rows)], *rest)

    monkeypatch.setattr(jetmap, "_substitution_images", transposed)


THEOREM = ["verify-theorem", "--N", "2", "--n", "4", "--k", "2", "--trials", "20"]
# The default grid: the triples of one N share their stabilizer elements, so
# a fault in the trials must still show in every triple, not only the first.
SWEEP = ["sweep", "--trials", "20"]
DIMS = ["dims", "--N", "2", "--n", "4", "--k", "2"]


def row(label, fault, field, argv):
    return pytest.param(fault, field, argv, id=f"{label} in {argv[0]}")


FIELD_ROWS = [
    row("phi writes a small-x0 monomial", phi_writes_a_small_x0_monomial, "kernel_matches", THEOREM),
    row("phi writes a small-x0 monomial", phi_writes_a_small_x0_monomial, "kernel_matches", SWEEP),
    row("phi drops its first entry", phi_drops_its_first_entry, "rank_correct", THEOREM),
    row("phi drops its first entry", phi_drops_its_first_entry, "rank_correct", SWEEP),
    row("taylor drops its first entry", taylor_drops_its_first_entry, "taylor_kernel_matches", THEOREM),
    row("taylor drops its first entry", taylor_drops_its_first_entry, "taylor_kernel_matches", SWEEP),
    row("jetmap small-x0 span too wide", small_x0_span_one_power_wide(jetmap), "sequence_exact", SWEEP),
    row("forms counted one too many", forms_counted_one_too_many, "sequence_exact", SWEEP),
    row("symspace small-x0 span too wide", small_x0_span_one_power_wide(symspace), "dimension_identity", SWEEP),
    row("symspace small-x0 span too wide", small_x0_span_one_power_wide(symspace), "identity", DIMS),
    row("off-by-one falling factorial", off_by_one_falling_factorial, "equivariance_failures", THEOREM),
    row("off-by-one falling factorial", off_by_one_falling_factorial, "equivariance_failures", SWEEP),
    row("twist n-k+1", wrong_twist(1), "equivariance_failures", THEOREM),
    row("twist n-k+1", wrong_twist(1), "equivariance_failures", SWEEP),
    row("twist n-k-1", wrong_twist(-1), "equivariance_failures", THEOREM),
    row("twist n-k-1", wrong_twist(-1), "equivariance_failures", SWEEP),
    row("dual action without transpose", dual_action_without_transpose, "equivariance_failures", THEOREM),
    row("dual action without transpose", dual_action_without_transpose, "equivariance_failures", SWEEP),
]


@pytest.mark.parametrize("fault,field,argv", FIELD_ROWS)
def test_fault_fails_its_field(capsys, monkeypatch, fault, field, argv):
    assert run(capsys, *argv)[0] == 0
    fault(monkeypatch)
    code, out, err = run(capsys, *argv, "--output", "json")
    assert code == 1, err
    report = json.loads(out)
    assert report["overall_pass"] is False
    if "results" in report:
        results = [{**triple, **triple["theorem"]} for triple in report["results"]]
        assert len(results) == 30
    else:
        results = [report["result"]]
    for result in results:
        value = result[field]
        assert value > 0 if type(value) is int else value is False, result


def positive_power_step(monkeypatch):
    """Each column step multiplies col_j by t^(low(j) - L), a positive
    power of t, in place of t^(L - low(j)): U leaves Q[1/t], and the step
    no longer clears t^L."""
    reduce, shift = splitting._column_reduction, LaurentPoly.shift

    def mutant(data):
        monkeypatch.setattr(LaurentPoly, "shift", lambda p, e: shift(p, -e))
        try:
            return reduce(data)
        finally:
            monkeypatch.setattr(LaurentPoly, "shift", shift)

    monkeypatch.setattr(splitting, "_column_reduction", mutant)


def stopped_after_one_step(monkeypatch):
    """Column reduction takes the lowest-order matrix for invertible after
    its first step, so it returns lows that sum to less than e."""
    reduce, kernel = splitting._column_reduction, splitting._lowest_kernel
    calls = []

    def first_kernel_only(cols, lows):
        calls.append(lows)
        return kernel(cols, lows) if len(calls) == 1 else None

    def reduce_anew(data):
        calls.clear()
        return reduce(data)

    monkeypatch.setattr(splitting, "_lowest_kernel", first_kernel_only)
    monkeypatch.setattr(splitting, "_column_reduction", reduce_anew)


def certificate_one_twist_up(monkeypatch):
    """The certificate of degree d probes twists -d and -d+1 in place of
    -d-1 and -d, so it fails on every uniform block."""
    h0 = splitting.h0_twisted
    monkeypatch.setattr(splitting, "h0_twisted", lambda data, m: h0(data, m + 1))


def test_a_positive_power_in_a_column_step_raises_on_every_gauged_block(monkeypatch):
    cases = list(workload_shaped_cases(3))
    for data, degrees in cases:
        assert splitting_type(data).degrees == tuple(sorted(degrees, reverse=True))
    positive_power_step(monkeypatch)
    assert len(cases) == 40
    for data, _ in cases:
        with pytest.raises(ArithmeticError, match="more steps than the determinant exponent"):
            splitting_type(data)


def test_a_loop_stopped_after_one_step_trips_the_degree_sum_check(monkeypatch):
    # The cases that need two or more column steps are exactly the ones the
    # fault reaches; every other case keeps its true degrees.
    steps = []
    kernel = splitting._lowest_kernel

    def counted(cols, lows):
        found = kernel(cols, lows)
        steps.append(found is not None)
        return found

    cases = list(criterion_6_cases())
    needs_two = []
    with monkeypatch.context() as patch:
        patch.setattr(splitting, "_lowest_kernel", counted)
        for data, _ in cases:
            steps.clear()
            splitting_type(data)
            needs_two.append(sum(steps) >= 2)
    assert sum(needs_two) >= 10
    stopped_after_one_step(monkeypatch)
    for (data, degrees), reached in zip(cases, needs_two):
        if reached:
            with pytest.raises(ArithmeticError, match="do not sum"):
                splitting_type(data)
        else:
            assert splitting_type(data).degrees == tuple(sorted(degrees, reverse=True))


@pytest.mark.parametrize("command", [
    ["verify-corollary", "--N", "2", "--n", "4", "--k", "2"],
    ["sweep", "--N", "2", "--n", "4", "--k", "2", "--trials", "2"],
])
def test_a_certificate_one_twist_up_makes_the_routes_disagree(capsys, monkeypatch, command):
    assert run(capsys, *command)[0] == 0
    certificate_one_twist_up(monkeypatch)
    code, out, err = run(capsys, *command)
    assert code == 3, (out, err)
    assert out == ""
    assert err.startswith("internal error: ArithmeticError: section counts and column reduction")


@pytest.mark.parametrize("mutant", [positive_power_step, certificate_one_twist_up])
def test_a_fault_in_either_route_turns_a_counterexample_into_an_internal_error(
    capsys, monkeypatch, mutant
):
    # The non-uniform fixture of test_cli exits 1 with its true degrees;
    # its first block reaches column reduction, and its other blocks the
    # certificate.
    monkeypatch.setattr(cli, "jet_transition_matrix", non_uniform_cocycle)
    command = ["verify-corollary", "--N", "2", "--n", "3", "--k", "1"]
    assert run(capsys, *command)[0] == 1
    mutant(monkeypatch)
    code, out, err = run(capsys, *command)
    assert code == 3, (out, err)
    assert err.startswith("internal error: ArithmeticError")

