"""One pass of one workload, in a fresh interpreter.

Run as `python -m perfbench.child --workload W --seed S --trace 0|1
--tmp DIR --spawned-ns NS` from the checkout root with `src` on PYTHONPATH.
A fresh process per pass starts pplab's `lru_cache`s cold, as every CLI
invocation does. The pass result is printed as one JSON line. Its times are
given twice: as measured, and under `scaled` in seconds at the nominal CPU
speed of `perfbench.speed`, whose sampler runs from the start of `main`.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path
from statistics import fmean
from time import perf_counter

import pplab.symspace

from perfbench.jobs import Job, make_jobs, run_job, triple_count
from perfbench.speed import Sampler
from perfbench.tracer import Tracer


def run_pass(
    jobs: list[Job], tracer: Tracer | None, tmp: Path, sampler: Sampler | None = None
) -> dict:
    """Issue the jobs one after another and judge each verdict; with a
    tracer, install its spans for the pass and report them; with a sampler,
    add the times at nominal speed."""
    if tracer is not None:
        tracer.install()
    cache_before = pplab.symspace.monomial_basis.cache_info()
    windows, wrong = [], []
    try:
        for job in jobs:
            issued = perf_counter()
            verdict = run_job(job, tmp)
            windows.append((issued, perf_counter()))
            if not verdict.right:
                wrong.append(f"{job.label}: {verdict.detail}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    cache_after = pplab.symspace.monomial_basis.cache_info()

    first, last = windows[0][0], windows[-1][1]
    result = {
        "wall_s": last - first,
        "job_s": [end - start for start, end in windows],
        "attempted": len(jobs),
        "wrong": wrong,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "triples": triple_count(jobs),
        "monomial_basis": {
            "hits": cache_after.hits - cache_before.hits,
            "misses": cache_after.misses - cache_before.misses,
        },
    }
    if sampler is not None:
        result["scaled"] = {
            "wall_s": sampler.scaled(first, last),
            "job_s": [sampler.scaled(start, end) for start, end in windows],
        }
    if tracer is not None:
        result["missing_layers"] = tracer.missing
        result["layers"] = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.counts}
            for name, s in tracer.stats.items()
        }
    return result


def main() -> None:
    sampler = Sampler().start()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args()
    # The spawn time on the perf_counter clock, so set-up can be scaled.
    spawned = perf_counter() - (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawned_ns) / 1e9
    jobs = make_jobs(args.workload, args.seed)
    ready = perf_counter()
    result = run_pass(jobs, Tracer() if args.trace else None, args.tmp, sampler)
    sampler.stop()
    result["setup_s"] = ready - spawned
    result["scaled"]["setup_s"] = sampler.scaled(spawned, ready)
    result["speed"] = fmean(s[2] for s in sampler.samples)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
