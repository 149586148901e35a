"""Planted faults in the checks of `splitting_type`, one row each.

Each row plants a fault in a computation, never in a verdict line, and
shows that the check meant to catch it fails: the library raises
ArithmeticError, and a command that reaches the fault exits 3 (internal
error), never 0 or 1. Without the fault the same inputs give their true
degrees, and the commands exit as they always have.
"""

import pytest

from pplab import cli, splitting
from pplab.laurent import LaurentPoly
from pplab.splitting import splitting_type

from test_cli import non_uniform_cocycle, run
from test_splitting import criterion_6_cases, workload_shaped_cases


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

