"""Workloads, jobs and the independent verdict gate of the pplab benchmark.

A job is one call into pplab that ends in one verdict. Every job carries its
expected answer, computed with `math.comb` or taken from the generated
inputs, never from pplab. `run_job` counts a job wrong when the call raises,
exits non-zero, or its report disagrees with that answer.

pplab functions are looked up on their modules at call time, so that spans
installed by `perfbench.tracer` see every call the benchmark makes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

from pplab import cli, jetmap, splitting
from pplab.laurent import LaurentMatrix, LaurentPoly

# The default grid of `pplab sweep`: N in 1..3, n in 2..5, all 1 <= k < n.
SWEEP_N = (1, 2, 3)
SWEEP_DEGREES = (2, 3, 4, 5)
SWEEP_TRIALS = 100
SWEEP_HEIGHT = 3

# Wide triples whose kernels take dense eliminations on 165-210 columns.
KERNEL_TRIPLES = ((4, 6, 4), (3, 8, 5))

# Jet cocycles of rank 28-126, read through `pplab verify-corollary`.
COROLLARY_TRIPLES = ((2, 8, 6), (3, 7, 5), (4, 6, 4), (4, 7, 5), (3, 9, 6), (5, 6, 4))

GAUGED_COUNT = 40
GAUGED_RANKS = range(2, 9)
GAUGED_DEGREES = range(-4, 5)


@dataclass(frozen=True)
class Job:
    """One call into pplab with its independently known answer.

    `kind` selects the call, `args` are its inputs and `expect` is the
    answer the gate compares the result with.
    """

    kind: str
    label: str
    args: tuple
    expect: object


@dataclass(frozen=True)
class Verdict:
    """Outcome of one job: whether it was right, why not, and its report
    with the run-dependent `elapsed_ms` field removed."""

    right: bool
    detail: str
    report: str


def jet_degrees(N: int, n: int, k: int) -> list[int]:
    """The splitting type the theorem predicts: binom(N+k, N) copies of n-k."""
    return [n - k] * comb(N + k, N)


def sweep_job(
    seed: int,
    N_values: tuple[int, ...] = SWEEP_N,
    degrees: tuple[int, ...] = SWEEP_DEGREES,
    trials: int = SWEEP_TRIALS,
) -> Job:
    """`pplab sweep` over every 1 <= k < n of the grid; the tests shrink it."""
    triples = {
        (N, n, k): jet_degrees(N, n, k) for N in N_values for n in degrees for k in range(1, n)
    }
    argv = [
        "sweep",
        "--N", *map(str, N_values),
        "--n", *map(str, degrees),
        "--trials", str(trials),
        "--seed", str(seed),
        "--height", str(SWEEP_HEIGHT),
    ]
    expect = {"seed": seed, "trials": trials, "triples": triples}
    return Job("sweep", f"sweep seed={seed}", tuple(argv), expect)


def dims_job(N: int, n: int, k: int) -> Job:
    forms, fiber = comb(n + N, N), comb(N + k, N)
    expect = {
        "dim_forms": forms,
        "dim_small_x0_subspace": forms - fiber,
        "fiber_rank": fiber,
        "identity": True,
    }
    return Job("dims", f"dims {N},{n},{k}", (N, n, k), expect)


def kernel_job(N: int, n: int, k: int) -> Job:
    return Job("verify_kernel", f"verify_kernel {N},{n},{k}", (N, n, k), True)


def sequence_job(N: int, n: int, k: int) -> Job:
    return Job("exact_sequence", f"exact_sequence_check {N},{n},{k}", (N, n, k), True)


def corollary_job(N: int, n: int, k: int) -> Job:
    expect = {"degrees": jet_degrees(N, n, k)}
    return Job("corollary", f"verify-corollary {N},{n},{k}", (N, n, k), expect)


def gauged_job(index: int, degrees: list[int], matrix: LaurentMatrix) -> Job:
    """Splitting type of L(t) diag(t^d) R(1/t): the answer is the generated d."""
    return Job(
        "gauged",
        f"gauged #{index} rank={len(degrees)}",
        (len(degrees), matrix),
        sorted(degrees, reverse=True),
    )


def gauged_cocycle(rng: random.Random, rank: int) -> tuple[list[int], LaurentMatrix]:
    """A diagonal cocycle diag(t^d) hidden by unimodular gauges.

    The degrees are drawn from -4..4 and always include both ends. The gauge
    is L = 1 + a t E_ij on the left and R = 1 + b t^-1 E_ji on the right, with
    i and j the positions of 4 and -4, so det = t^(sum d), the splitting type
    is the multiset of d, and the 2x2 block the gauge fills has no zero
    entry. Every cocycle of a rank then has the same exponent range, so the
    seed moves the answer but barely the work.
    """
    degrees = [GAUGED_DEGREES[0], GAUGED_DEGREES[-1]]
    degrees += [rng.choice(GAUGED_DEGREES) for _ in range(rank - 2)]
    rng.shuffle(degrees)
    i, j = degrees.index(GAUGED_DEGREES[-1]), degrees.index(GAUGED_DEGREES[0])
    left, right = LaurentMatrix.identity(rank), LaurentMatrix.identity(rank)
    left_entries, right_entries = list(left.entries), list(right.entries)
    left_entries[i * rank + j] = LaurentPoly.t_pow(1, rng.choice((-2, -1, 1, 2)))
    right_entries[j * rank + i] = LaurentPoly.t_pow(-1, rng.choice((-2, -1, 1, 2)))
    diag = LaurentMatrix.diagonal([LaurentPoly.t_pow(d) for d in degrees])
    return degrees, (
        LaurentMatrix(rank, rank, tuple(left_entries))
        @ diag
        @ LaurentMatrix(rank, rank, tuple(right_entries))
    )


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The inputs of one pass of a workload; the same seed gives the same jobs."""
    if workload == "sweep":
        return [sweep_job(seed)]
    if workload == "kernels":
        return [
            make(N, n, k)
            for (N, n, k) in KERNEL_TRIPLES
            for make in (dims_job, kernel_job, sequence_job)
        ]
    if workload == "splitting":
        rng = random.Random(seed)
        jobs = [corollary_job(*t) for t in COROLLARY_TRIPLES]
        for i in range(GAUGED_COUNT):
            rank = GAUGED_RANKS[i % len(GAUGED_RANKS)]
            jobs.append(gauged_job(i, *gauged_cocycle(rng, rank)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def triple_count(jobs: list[Job]) -> int:
    """Distinct (N, n, k) triples the jobs cover; the base of per-triple counts."""
    triples: set[tuple[int, int, int]] = set()
    for job in jobs:
        if job.kind == "sweep":
            triples.update(job.expect["triples"])
        elif job.kind != "gauged":
            triples.add(job.args)
    return len(triples)


def _cli_report(argv: list[str], out: Path) -> tuple[int, dict, str]:
    """Run a CLI command; return its exit code, its JSON report, and the
    report text without the `elapsed_ms` line, the one field that varies."""
    code = cli.main([*argv, "--output", "json", "--out", str(out)])
    text = out.read_text()
    steady = "\n".join(line for line in text.splitlines() if '"elapsed_ms"' not in line)
    return code, json.loads(text), steady


def _check_sweep(job: Job, code: int, report: dict) -> str:
    expect = job.expect
    if report["config"]["seed"] != expect["seed"]:
        return f"report seed {report['config']['seed']} is not the benchmark seed {expect['seed']}"
    rows = {(r["N"], r["n"], r["k"]): r for r in report["results"]}
    if set(rows) != set(expect["triples"]):
        return f"report covers {sorted(rows)}, expected {sorted(expect['triples'])}"
    for triple, degrees in expect["triples"].items():
        row, theorem = rows[triple], rows[triple]["theorem"]
        checks = {
            "kernel": theorem["kernel_matches"] and theorem["taylor_kernel_matches"],
            "rank": theorem["rank_correct"],
            "trials": theorem["equivariance_trials"] == expect["trials"],
            "failures": theorem["equivariance_failures"] == 0,
            "quotient": theorem["quotient_iso_equivariant"],
            "sequence": row["sequence_exact"],
            "dimension": row["dimension_identity"],
            "splitting": row["splitting"]["degrees"] == degrees,
            "pass": row["pass"],
        }
        failed = [name for name, ok in checks.items() if ok is not True]
        if failed:
            return f"triple {triple}: {', '.join(failed)} wrong"
    if code != 0 or report["overall_pass"] is not True:
        return f"exit code {code}, overall_pass {report['overall_pass']}"
    return ""


def _check_result(job: Job, code: int, report: dict) -> str:
    expect, result = job.expect, report["result"]
    wrong = {key: result.get(key) for key, value in expect.items() if result.get(key) != value}
    if wrong:
        return f"got {wrong}, expected {expect}"
    if code != 0 or report["overall_pass"] is not True:
        return f"exit code {code}, overall_pass {report['overall_pass']}"
    return ""


def _execute(job: Job, tmp: Path) -> tuple[str, str]:
    """Run one job; return (why it is wrong or "", its report)."""
    out = tmp / "report.json"
    out.unlink(missing_ok=True)
    if job.kind == "sweep":
        code, report, steady = _cli_report(list(job.args), out)
        return _check_sweep(job, code, report), steady
    if job.kind in ("dims", "corollary"):
        N, n, k = job.args
        command = "dims" if job.kind == "dims" else "verify-corollary"
        argv = [command, "--N", str(N), "--n", str(n), "--k", str(k)]
        code, report, steady = _cli_report(argv, out)
        return _check_result(job, code, report), steady
    if job.kind in ("verify_kernel", "exact_sequence"):
        check = jetmap.verify_kernel if job.kind == "verify_kernel" else jetmap.exact_sequence_check
        result = check(*job.args)
        why = "" if result is job.expect else f"returned {result!r}"
        return why, repr(result)
    if job.kind == "gauged":
        rank, matrix = job.args
        degrees = list(splitting.splitting_type(splitting.TransitionData(rank, matrix)).degrees)
        why = "" if degrees == job.expect else f"degrees {degrees}, expected {job.expect}"
        return why, repr(degrees)
    raise ValueError(f"unknown job kind {job.kind!r}")


def run_job(job: Job, tmp: Path) -> Verdict:
    """Run one job and judge it. A job that raises, even SystemExit from the
    argument parser, is a wrong verdict, not the end of the pass."""
    try:
        why, report = _execute(job, tmp)
    except (Exception, SystemExit) as exc:
        return Verdict(False, f"raised {type(exc).__name__}: {exc}", "")
    return Verdict(not why, why, report)
