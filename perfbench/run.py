"""pplab benchmark: time to verdict on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|kernels|splitting \\
        --seed N --seconds S --trace 0|1

Closed loop, one client: passes run one after another until `--seconds`
have gone by, each in a fresh child interpreter (`perfbench/child.py`), so
pplab's caches start cold as they do for every CLI invocation. The children
get `src` on PYTHONPATH and no PPLAB_SEED, so the benchmark seed is the seed
pplab sees. Every verdict is checked against answers computed without pplab
(`perfbench/jobs.py`).

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics, each a median over the passes. Their times are in
seconds at the nominal CPU speed of `perfbench/speed.py`, which samples the
speed of the core all through each pass; the line before the JSON gives the
medians as measured. With `--trace 1`, traced and untraced passes alternate
and the metrics are the per-layer spans and counts of `perfbench/tracer.py`,
in seconds as measured, the sampler's share of each span included. The lines
before the JSON repeat the metrics for people, with the seed, Python
version, git SHA and CPU count. Workload names and end-to-end units are
those of `BENCHMARK.json`; `perfbench/predictions.json` records which
end-to-end metric each layer metric should move, on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import LAYERS  # noqa: E402  (stdlib only; pplab loads on install)

# No run may take longer than this, whatever --seconds says.
RUN_LIMIT_S = 170

FIELD_UNITS = {
    "calls": "count",
    "self_s": "s",
    "cells": "count",
    "out_bits_max": "bits",
    "terms": "count",
    "unknowns_sum": "count",
    "degree_bound_max": "count",
    "rows_sum": "count",
    "per_triple": "calls/triple",
    "per_split": "calls/split",
}

PER_LAYER = (
    *((f"{name}.{f}", FIELD_UNITS[f]) for name, *_, fields in LAYERS for f in fields),
    ("symspace.monomial_basis.hits", "count"),
    ("symspace.monomial_basis.misses", "count"),
    ("trace.overhead", "ratio"),
    ("trace.uncovered_share", "share"),
    ("trace.dominant_share", "share"),
)


class PassError(RuntimeError):
    """A child pass could not run at all; no result may be printed."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_predictions() -> dict:
    return json.loads((BENCH / "predictions.json").read_text())


def git_sha() -> str:
    """The commit of the checkout; "unknown" unless the checkout root is a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def child_env() -> dict[str, str]:
    """The environment of a pass: pplab from this checkout's sources, and no
    PPLAB_SEED, which would override the seed the benchmark passes."""
    env = {key: value for key, value in os.environ.items() if key != "PPLAB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    return env


def run_child(workload: str, seed: int, traced: bool, tmp: Path, timeout: float) -> dict:
    command = [
        sys.executable,
        "-m",
        "perfbench.child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(int(traced)),
        "--tmp",
        str(tmp),
        "--spawned-ns",
        str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"a {workload} pass ran past the {RUN_LIMIT_S} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise PassError(f"a {workload} pass exited with code {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> dict[bool, list[dict]]:
    """Passes for about `seconds`: a pass starts while it is expected to
    end no later than half a pass after the deadline. With tracing, untraced
    and traced passes alternate and at least one of each runs."""
    modes = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    durations: list[float] = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        while len(durations) < len(modes) or (
            time.perf_counter() - start + median(durations) / 2 < seconds
        ):
            traced = modes[len(durations) % len(modes)]
            began = time.perf_counter()
            timeout = RUN_LIMIT_S - (began - start)
            passes[traced].append(run_child(workload, seed, traced, Path(tmp), timeout))
            durations.append(time.perf_counter() - began)
    return passes


def end_to_end_metrics(
    passes: list[dict], attempted: int, failed: int, scaled: bool = True
) -> dict[str, float]:
    """Medians over the passes; times at nominal speed unless `scaled` is false."""
    times = [p["scaled"] if scaled else p for p in passes]
    return {
        "setup_s": median(t["setup_s"] for t in times),
        "wall_s": median(t["wall_s"] for t in times),
        "slowest_job_s": median(max(t["job_s"]) for t in times),
        "peak_rss_mib": median(p["peak_rss_mib"] for p in passes),
        "right_verdict_share": (attempted - failed) / attempted,
    }


def _layer_values(p: dict, dominant: list[str]) -> dict[str, float]:
    layers = p["layers"]
    triples = max(p["triples"], 1)
    splits = layers["splitting.splitting_type"]["calls"]
    derived = {
        "per_triple": lambda layer: layer["calls"] / triples,
        "per_split": lambda layer: layer["calls"] / splits if splits else 0.0,
    }
    values = {}
    for name, *_, fields in LAYERS:
        layer = layers[name]
        for f in fields:
            values[f"{name}.{f}"] = derived[f](layer) if f in derived else layer.get(f, 0)
    values["symspace.monomial_basis.hits"] = p["monomial_basis"]["hits"]
    values["symspace.monomial_basis.misses"] = p["monomial_basis"]["misses"]
    # cli.* self time is pplab work that no finer span holds, so not covered.
    covered = sum(layer["self_s"] for name, layer in layers.items() if not name.startswith("cli."))
    values["trace.uncovered_share"] = max(p["wall_s"] - covered, 0.0) / p["wall_s"]
    values["trace.dominant_share"] = sum(layers[d]["total_s"] for d in dominant) / p["wall_s"]
    return values


def predicted_misses(layers: dict, workload: str, missing: list[str]) -> list[str]:
    """Spans predicted to fire on the workload that did not, and spans
    predicted absent that did; layers pplab no longer has are skipped."""
    misses = []
    for group in load_predictions()["layers"]:
        spans = sorted({m.rsplit(".", 1)[0] for m in group["metrics"]} & set(layers))
        for span in (s for s in spans if s not in missing):
            calls = layers[span]["calls"]
            if workload in group["fires"] and calls == 0:
                misses.append(f"{span} predicted to fire on {workload} but was not called")
            if workload in group["no_change"] and calls > 0:
                misses.append(f"{span} predicted absent on {workload} but was called {calls} times")
    return misses


def per_layer_metrics(traced: list[dict], untraced: list[dict], workload: str) -> dict[str, float]:
    dominant = load_predictions()["dominant"][workload]
    per_pass = [_layer_values(p, dominant) for p in traced]
    metrics = {name: median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["trace.overhead"] = median(p["scaled"]["wall_s"] for p in traced) / median(
        p["scaled"]["wall_s"] for p in untraced
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="pplab benchmark: time to verdict.")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= RUN_LIMIT_S // 2:
        parser.error(f"--seconds must be between 1 and {RUN_LIMIT_S // 2}")
    if not (ROOT / "src" / "pplab" / "__init__.py").is_file():
        print(f"error: no pplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = passes[False] + passes[True]
    attempted = sum(p["attempted"] for p in every)
    wrong = [w for p in every for w in p["wrong"]]
    if args.trace:
        metrics = per_layer_metrics(passes[True], passes[False], args.workload)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(passes[False], attempted, len(wrong))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(
        f"pplab benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} passes={len(passes[False])} untraced + {len(passes[True])} traced "
        f"python={platform.python_version()} git={git_sha()} nproc={os.cpu_count()}"
    )
    for name, value in metrics.items():
        print(f"  {name:40} {value:.6g} {units[name]}")
    if not args.trace:
        measured = end_to_end_metrics(passes[False], attempted, len(wrong), scaled=False)
        speed = median(p["speed"] for p in passes[False])
        times = ", ".join(f"{name} {measured[name]:.6g} s" for name in ("setup_s", "wall_s", "slowest_job_s"))
        print(f"  as measured, at {speed:.3g} of nominal speed: {times}")
    print(f"  {'wrong_verdict_share':40} {len(wrong) / attempted:.6g} ({len(wrong)} of {attempted} jobs)")
    for line in wrong[:10]:
        print(f"wrong verdict: {line}", file=sys.stderr)
    for p in passes[True][:1]:
        if p["missing_layers"]:
            print(f"note: layers not found in pplab: {', '.join(p['missing_layers'])}")
        for line in predicted_misses(p["layers"], args.workload, p["missing_layers"]):
            print(f"note: {line}")

    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": len(wrong),
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
