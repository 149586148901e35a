"""Tests of the benchmark itself: the verdict gate can fail, tracing sees
every call and changes no result, and the spans fire where predicted.

The jobs here are small versions of the three workloads, built from the same
job constructors, so the tests stay fast.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from math import comb
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import pplab  # noqa: E402

from perfbench import child, run  # noqa: E402
from perfbench.jobs import (  # noqa: E402
    corollary_job,
    dims_job,
    gauged_cocycle,
    gauged_job,
    kernel_job,
    run_job,
    sequence_job,
    sweep_job,
)
from perfbench.speed import INTERVAL_S, NOMINAL_S, Sampler  # noqa: E402
from perfbench.tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = [w["name"] for w in run.load_spec()["workloads"]]


def small_jobs(workload: str) -> list:
    if workload == "sweep":
        return [sweep_job(3, N_values=(1, 2), degrees=(2, 3), trials=5)]
    if workload == "kernels":
        return [make(2, 4, 2) for make in (dims_job, kernel_job, sequence_job)]
    rng = random.Random(5)
    gauged = [gauged_job(i, *gauged_cocycle(rng, rank)) for i, rank in enumerate((2, 3, 4))]
    return [corollary_job(2, 3, 1), *gauged]


def test_gate_counts_planted_wrong_twist(tmp_path):
    N, n, k = 2, 3, 1
    planted = replace(corollary_job(N, n, k), expect={"degrees": [n - k + 1] * comb(N + k, N)})
    jobs = [corollary_job(1, 3, 1), planted, dims_job(2, 4, 2)]
    result = child.run_pass(jobs, None, tmp_path)
    assert len(result["wrong"]) == 1 and result["wrong"][0].startswith(planted.label)
    share = run.end_to_end_metrics([{"setup_s": 0.0, **result}], 3, 1, scaled=False)["right_verdict_share"]
    assert share == pytest.approx(2 / 3)


def test_gate_counts_planted_wrong_twist_in_sweep(tmp_path):
    job = sweep_job(3, N_values=(1, 2), degrees=(2, 3), trials=5)
    triples = dict(job.expect["triples"])
    N, n, k = 2, 3, 2
    triples[(N, n, k)] = [n - k + 1] * comb(N + k, N)
    planted = replace(job, expect={**job.expect, "triples": triples})
    result = child.run_pass([job, planted], None, tmp_path)
    assert [w.split(":")[0] for w in result["wrong"]] == [planted.label]


def test_gate_counts_raised_and_seed_override(tmp_path, monkeypatch):
    bad_regime = dims_job(2, 3, 3)
    assert len(child.run_pass([bad_regime], None, tmp_path)["wrong"]) == 1
    monkeypatch.setenv("PPLAB_SEED", "99")
    wrong = child.run_pass(small_jobs("sweep"), None, tmp_path)["wrong"]
    assert len(wrong) == 1 and "not the benchmark seed" in wrong[0]


def test_child_environment_drops_pplab_seed(monkeypatch):
    monkeypatch.setenv("PPLAB_SEED", "99")
    env = run.child_env()
    assert "PPLAB_SEED" not in env
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")


def test_every_binding_of_a_traced_name_is_wrapped():
    originals = {}
    for name, mod_name, attr, *_ in LAYERS:
        owner = sys.modules[mod_name]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        originals[name] = (owner, fn_name, owner.__dict__[fn_name])
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "pplab"]
    with Tracer() as tracer:
        for name, (owner, fn_name, raw) in originals.items():
            if name in tracer.missing:
                continue
            assert owner.__dict__[fn_name] is not raw, name
            for mod in modules:
                assert all(value is not raw for value in vars(mod).values()), (name, mod)
        assert pplab.jetmap.rref is not originals["linalg.rref"][2]
        assert pplab.cli.splitting_type is not originals["splitting.splitting_type"][2]
    for name, (owner, fn_name, raw) in originals.items():
        assert owner.__dict__[fn_name] is raw, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_verdict_or_report(workload, tmp_path):
    jobs = small_jobs(workload)
    plain = [run_job(job, tmp_path) for job in jobs]
    with Tracer():
        traced = [run_job(job, tmp_path) for job in jobs]
    assert all(v.right for v in plain), [v.detail for v in plain]
    assert traced == plain


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_fire_where_predicted(workload, tmp_path):
    result = child.run_pass(small_jobs(workload), Tracer(), tmp_path)
    assert result["wrong"] == []
    assert run.predicted_misses(result["layers"], workload, result["missing_layers"]) == []


def test_benchmark_json_matches_the_runner():
    spec = run.load_spec()
    predictions = run.load_predictions()
    assert list(predictions["dominant"]) == list(WORKLOADS)
    passes = [{"setup_s": 0.1, "wall_s": 1.0, "job_s": [1.0], "peak_rss_mib": 9.0}]
    passes[0]["scaled"] = dict(passes[0])
    assert list(run.end_to_end_metrics(passes, 1, 0)) == [m["name"] for m in spec["end_to_end"]]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    predicted = [m for group in predictions["layers"] for m in group["metrics"]]
    assert sorted(predicted) == sorted(name for name, _ in run.PER_LAYER)


def test_sampler_scales_a_window_by_the_sampled_speed():
    sampler = Sampler()
    sampler.samples = [(1.0, 0.01, 0.5), (2.0, 0.01, 0.7), (5.0, 0.01, 1.0)]
    assert sampler.scaled(0.5, 3.0) == pytest.approx((2.5 - 0.02) * 0.6)
    assert sampler.scaled(3.0, 4.0) == pytest.approx(1.0 * 2.2 / 3)
    sampler = Sampler().start()
    try:
        time.sleep(10 * INTERVAL_S)
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    for _, took, speed in sampler.samples:
        assert took > 0 and speed == pytest.approx(NOMINAL_S / took)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
