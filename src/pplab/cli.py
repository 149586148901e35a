"""Command-line surface: single verifications, parameter sweeps, structured
reports, and a CI-friendly exit-code contract.

Exit codes: 0 when every requested check passes, 1 when a mathematical
counterexample is found, 2 on usage or parameter errors, 3 on an internal
error (any other exception; one `internal error:` line on stderr, no
traceback), so that a crash never reads as a counterexample.

Every report is laid out by `_report`: schema, tool_version, config (the
command and the checked options it declares, `_CHECKED`), the command's
fields, and elapsed_ms last. `_finish` writes it as JSON or text and turns
its overall_pass into the exit code. Reports are deterministic for a fixed
configuration and seed; only the elapsed_ms field varies between runs.

Each command declares only the options its handler reads (`COMMANDS`), so an
option it does not read is a usage error, reported with the usage of that
command. The environment variable PPLAB_SEED, when set, overrides --seed on
the commands that have it, verify-theorem and sweep. The ranges of N, n and
k are checked by the library, whose ParameterError is a usage error here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .jetmap import (
    JetRepReport,
    exact_sequence_check,
    verify_jet_representation,
    verify_jet_representations,
    x0_derivative_matrix,
)
from .splitting import (
    TransitionData,
    jet_splitting_check,
    jet_transition_matrix,
    splitting_type,
    transition_to_json_dict,
)
from .symspace import (
    ParameterError,
    binomial,
    check_corollary_regime,
    check_theorem_regime,
    codimension_identity,
    dim_sym,
    m_power_subspace,
)

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# The options a report's config records, in this order, where the command
# declares them.
_CHECKED = ("N", "n", "k", "trials", "seed", "height")


def _theorem_result(report: JetRepReport) -> dict:
    return {
        "kernel_matches": report.kernel_matches,
        "taylor_kernel_matches": report.taylor_kernel_matches,
        "rank_correct": report.rank_correct,
        "equivariance_trials": report.equivariance_trials,
        "equivariance_failures": report.equivariance_failures,
        "quotient_iso_equivariant": report.quotient_iso_equivariant,
        "pass": report.passed,
    }


def _splitting_result(data: TransitionData, N: int, n: int, k: int) -> dict:
    degrees, expected = jet_splitting_check(data, N, n, k)
    return {
        "degrees": list(degrees),
        "expected_degree": n - k,
        "multiplicity": len(expected),
        "pass": degrees == expected,
    }


def _config(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in _CHECKED if hasattr(args, name)}


def _report(command: str, config: dict, start: float, **fields) -> dict:
    """Lay out a report: schema, tool version, config, the command's fields
    in the order given, and the time since start last."""
    return {
        "schema": 1,
        "tool_version": __version__,
        "config": {"command": command, **config},
        **fields,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def _out_error(path: str, exc: OSError) -> ParameterError:
    return ParameterError(f"cannot write --out {path}: {exc.strerror or exc}")


def _check_out(path: str) -> None:
    """Open path for appending, so that a path that cannot be written fails
    before any work; an existing file is not truncated, and a file the check
    creates is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise _out_error(path, exc) from None
    if not existed:
        os.remove(path)


def _write(text: str, path: str | None) -> None:
    """Print text, or write it to path; a path that cannot be written is a
    usage error, not an internal one."""
    if not path:
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _out_error(path, exc) from None


def _finish(report: dict, args: argparse.Namespace, text: str) -> int:
    """Write the report as JSON or as text; its verdict is the exit code."""
    _write(json.dumps(report, indent=2) if args.output == "json" else text, args.out)
    return EXIT_PASS if report["overall_pass"] else EXIT_COUNTEREXAMPLE


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    start = time.monotonic()
    report = verify_jet_representation(
        args.N, args.n, args.k, trials=args.trials, seed=args.seed, height=args.height
    )
    verbose = {}
    if args.verbose:
        phi = x0_derivative_matrix(args.N, args.n, args.k)
        verbose["phi_matrix"] = [
            [str(phi.entry(i, j)) for j in range(phi.cols)] for i in range(phi.rows)
        ]
    body = _report(
        args.command, _config(args), start,
        result=_theorem_result(report),
        overall_pass=report.passed,
        **verbose,
    )
    text = (
        f"N={args.N} n={args.n} k={args.k}  "
        f"kernel {_ok(report.kernel_matches)}  taylor {_ok(report.taylor_kernel_matches)}  "
        f"rank {_ok(report.rank_correct)}  "
        f"equivariance {report.equivariance_trials - report.equivariance_failures}"
        f"/{report.equivariance_trials}  "
        f"quotient {_ok(report.quotient_iso_equivariant)}\n"
        f"overall: {'PASS' if report.passed else 'FAIL'}"
    )
    return _finish(body, args, text)


def cmd_verify_corollary(args: argparse.Namespace) -> int:
    check_corollary_regime(args.N, args.n, args.k)
    start = time.monotonic()
    data = jet_transition_matrix(args.N, args.n, args.k)
    result = _splitting_result(data, args.N, args.n, args.k)
    verbose = {"transition": transition_to_json_dict(data)} if args.verbose else {}
    body = _report(
        args.command, _config(args), start,
        result=result,
        overall_pass=result["pass"],
        **verbose,
    )
    degrees = "{" + ", ".join(str(d) for d in result["degrees"]) + "}"
    text = (
        f"N={args.N} n={args.n} k={args.k}  splitting {degrees} "
        f"{_ok(result['pass'])}\noverall: {'PASS' if result['pass'] else 'FAIL'}"
    )
    return _finish(body, args, text)


def cmd_dims(args: argparse.Namespace) -> int:
    check_theorem_regime(args.N, args.n, args.k)
    start = time.monotonic()
    full = dim_sym(args.N, args.n)
    sub = m_power_subspace(args.N, args.n, args.k).dim
    fiber = binomial(args.k + args.N, args.N)
    identity_ok = codimension_identity(args.N, args.n, args.k)
    body = _report(
        args.command, _config(args), start,
        result={
            "dim_forms": full,
            "dim_small_x0_subspace": sub,
            "fiber_rank": fiber,
            "identity": identity_ok,
        },
        overall_pass=identity_ok and full - sub == fiber,
    )
    text = (
        f"dim degree-{args.n} forms      = {full}\n"
        f"dim small-x0 subspace    = {sub}\n"
        f"jet fiber rank           = {fiber}\n"
        f"codimension identity     = {_ok(identity_ok)}\n"
        f"overall: {'PASS' if body['overall_pass'] else 'FAIL'}"
    )
    return _finish(body, args, text)


def cmd_splitting_type(args: argparse.Namespace) -> int:
    start = time.monotonic()
    st = splitting_type(jet_transition_matrix(args.N, args.n, args.k))
    body = _report(
        args.command, _config(args), start,
        result={"degrees": list(st.degrees), "rank": st.rank},
        overall_pass=True,
    )
    degrees = "{" + ", ".join(str(d) for d in st.degrees) + "}"
    text = f"N={args.N} n={args.n} k={args.k}  splitting {degrees}"
    return _finish(body, args, text)


def cmd_export_transition(args: argparse.Namespace) -> int:
    data = jet_transition_matrix(args.N, args.n, args.k)
    _write(json.dumps(transition_to_json_dict(data), indent=2), args.out)
    return EXIT_PASS


def run_sweep(
    n_values: list[int],
    degree_values: list[int],
    k_values: list[int] | None,
    trials: int,
    seed: int,
    height: int,
) -> dict:
    """Run all checks over every (N, n, k) with 1 <= k < n inside the ranges.

    The triples of one N share their stabilizer elements, so they are
    verified together, in one pass over the elements. The report is
    assembled in (N, n, k) order, so its JSON form is deterministic for a
    fixed configuration and seed.
    """
    start = time.monotonic()
    results = []
    overall = True
    for N in sorted(set(n_values)):
        degrees = [
            (n, k)
            for n in sorted(set(degree_values))
            for k in range(1, n)
            if k_values is None or k in k_values
        ]
        if not degrees:
            continue
        theorems = verify_jet_representations(
            N, degrees, trials=trials, seed=seed, height=height
        )
        for (n, k), theorem in zip(degrees, theorems):
            sequence_ok = exact_sequence_check(N, n, k)
            dims_ok = codimension_identity(N, n, k)
            split = _splitting_result(jet_transition_matrix(N, n, k), N, n, k)
            triple_pass = theorem.passed and sequence_ok and dims_ok and split["pass"]
            overall = overall and triple_pass
            results.append(
                {
                    "N": N,
                    "n": n,
                    "k": k,
                    "theorem": _theorem_result(theorem),
                    "sequence_exact": sequence_ok,
                    "dimension_identity": dims_ok,
                    "splitting": split,
                    "pass": triple_pass,
                }
            )
    config = {
        "N": sorted(set(n_values)),
        "n": sorted(set(degree_values)),
        "k": sorted(set(k_values)) if k_values is not None else None,
        "trials": trials,
        "seed": seed,
        "height": height,
    }
    return _report("sweep", config, start, results=results, overall_pass=overall)


def _sweep_text(report: dict) -> str:
    lines = [
        f"{'N':>3} {'n':>3} {'k':>3}  {'kernel':8} {'rank':6} {'equivariance':>12}  "
        f"{'sequence':8} {'dims':6} splitting"
    ]
    for row in report["results"]:
        t = row["theorem"]
        equiv = f"{t['equivariance_trials'] - t['equivariance_failures']}/{t['equivariance_trials']}"
        degrees = "{" + ",".join(str(d) for d in row["splitting"]["degrees"]) + "}"
        lines.append(
            f"{row['N']:>3} {row['n']:>3} {row['k']:>3}  "
            f"{_ok(t['kernel_matches'] and t['taylor_kernel_matches']):8} "
            f"{_ok(t['rank_correct']):6} {equiv:>12}  "
            f"{_ok(row['sequence_exact']):8} {_ok(row['dimension_identity']):6} "
            f"{degrees} {_ok(row['splitting']['pass'])}"
        )
    lines.append(
        f"overall: {'PASS' if report['overall_pass'] else 'FAIL'} "
        f"({len(report['results'])} triples, {report['elapsed_ms']} ms)"
    )
    return "\n".join(lines)


def cmd_sweep(args: argparse.Namespace) -> int:
    report = run_sweep(args.N, args.n, args.k, args.trials, args.seed, args.height)
    if not report["results"]:
        raise ParameterError("sweep ranges contain no (N, n, k) with 1 <= k < n")
    return _finish(report, args, _sweep_text(report))


def _ok(flag: bool) -> str:
    return "ok" if flag else "FAIL"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_TRIPLE = {
    "--N": dict(type=int, required=True, help="ambient dimension"),
    "--n": dict(type=int, required=True, help="line bundle degree"),
    "--k": dict(type=int, required=True, help="jet order"),
}
_RANGES = {
    "--N": dict(type=int, nargs="+", default=[1, 2, 3], help="ambient dimensions"),
    "--n": dict(type=int, nargs="+", default=[2, 3, 4, 5], help="line bundle degrees"),
    "--k": dict(type=int, nargs="+", default=None, help="jet orders (default: all 1 <= k < n)"),
}
_TRIALS = {
    "--trials": dict(type=_positive_int, default=100, help="random stabilizer trials"),
    "--seed": dict(type=int, default=0, help="random seed (PPLAB_SEED overrides)"),
    "--height": dict(type=_positive_int, default=3, help="entry bound for random elements"),
}
_OUT = {"--out": dict(default=None, help="write the output to this path")}
_REPORT = {"--output": dict(choices=("text", "json"), default="text")} | _OUT
_VERBOSE = {"--verbose": dict(action="store_true", help="embed full matrices in JSON reports")}

# Each command with its handler, its help and the only options the handler reads.
COMMANDS = (
    ("verify-theorem", cmd_verify_theorem, "kernel, rank and equivariance checks for one (N, n, k)",
     _TRIPLE | _TRIALS | _REPORT | _VERBOSE),
    ("verify-corollary", cmd_verify_corollary, "splitting-type check for one (N, n, k)",
     _TRIPLE | _REPORT | _VERBOSE),
    ("dims", cmd_dims, "dimension counts and the codimension identity", _TRIPLE | _REPORT),
    ("splitting-type", cmd_splitting_type, "compute the splitting type of the jet cocycle", _TRIPLE | _REPORT),
    ("export-transition", cmd_export_transition, "export the jet cocycle as JSON", _TRIPLE | _OUT),
    ("sweep", cmd_sweep, "run all checks over a parameter grid", _RANGES | _TRIALS | _REPORT),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pplab",
        description="Exact-arithmetic verification of jet bundles of line bundles on projective space.",
    )
    parser.add_argument("--version", action="version", version=f"pplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        # What parse_args does, but through the command's own parser, so the
        # usage line shows the options this command takes.
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    env_seed = os.environ.get("PPLAB_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: PPLAB_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
