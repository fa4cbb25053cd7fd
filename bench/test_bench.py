"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Every workload runs once through the real worker; every correctness check
rejects a deliberately wrong value; the same seed gives the same inputs
and the same output fingerprints; BENCHMARK.json lists exactly the metrics
run.py reports; and the benchmark refuses to run without the sources.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def tiny_inputs(workload, seed):
    inputs = wl.make_inputs(workload, seed)
    if workload == "analytic_curves":
        inputs["cases"] = inputs["cases"][::wl.GEOMETRIES_PER_SHAPE]
        return inputs
    scenario = inputs["scenario"]
    scenario["sweep"]["steps"] = 2
    scenario["mc"]["trials"] = {"outage_sweep": 2048, "rate_sweep": 1024,
                                "antenna_sweep": 20}[workload]
    if workload == "rate_sweep":
        scenario["sweep"]["stop"] = 40
    if workload == "antenna_sweep":
        scenario["sweep"]["stop"] = 8
    return inputs


def run_tiny(workload, seed, directory, trace=False):
    """One repetition through the worker; returns (report, counts,
    problems, output fingerprint)."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs, path, panel = run.prepare(workload, tiny_inputs(workload, seed), directory)
    report, output = run.run_rep(workload, path, directory, 0, trace)
    counts, problems = run.check_rep(workload, inputs, panel, report, output)
    return report, counts, problems, hashlib.sha256(output).hexdigest()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_runs_and_fingerprint_repeats(workload, tmp_path):
    first = run_tiny(workload, 3, tmp_path / "a")
    report, counts, problems, fingerprint = first
    assert "error" not in report
    assert problems == []
    assert counts["failed"] == 0 and counts["ok"] > 0
    assert report["setup_s"] > 0 and report["peak_rss_mb"] > 0
    assert len(report["wall_s"]) == len(report["cpu_s"]) == 1
    assert len(report["kernel_s"]) == worker.KERNEL_WARMUP + 1
    assert run.speed_factor(report) > 0
    assert report["output_sha256"] == [fingerprint]
    assert run_tiny(workload, 3, tmp_path / "b")[3] == fingerprint


def test_traced_repetition_reports_layers(tmp_path):
    report, _, problems, _ = run_tiny("outage_sweep", 3, tmp_path, trace=True)
    assert problems == []
    trace = report["trace"]
    assert trace["functions"]["mcharness.empirical_outage"]["calls"] == 2
    assert trace["functions"]["cli.main"]["calls"] == 1
    metrics = run.layer_metrics(trace)
    assert set(metrics) == set(run.PER_LAYER) - {"trace.overhead"}
    assert metrics["mcharness.empirical_outage.trials_per_s"] > 0
    assert metrics["trace.share.mcharness"] > 0.5
    assert 0.0 <= metrics["trace.uncovered_share"] < 0.5


def test_same_seed_same_inputs():
    for workload in wl.WORKLOADS:
        assert wl.make_inputs(workload, 7) == wl.make_inputs(workload, 7)
        assert wl.make_inputs(workload, 7) != wl.make_inputs(workload, 8)


GOOD_OUTAGE = {"p_out_optimal": "0.5", "p_out_conventional": "0.6",
               "p_out_mc": "0.501", "mc_stderr": "0.001"}


def test_outage_check():
    assert wl.check_outage_row(GOOD_OUTAGE, 100_000) == []
    for key, value in (("p_out_optimal", "1.5"), ("p_out_mc", "-0.1"),
                       ("p_out_conventional", "1.2"), ("p_out_mc", "0.52"),
                       ("mc_stderr", "nan")):
        assert wl.check_outage_row(dict(GOOD_OUTAGE, **{key: value}), 100_000)


def test_rate_check():
    good = {"rate_mc": "0.0830", "rate_semianalytic": "0.0831",
            "rate_deterministic": "0.03"}
    assert wl.check_rate_row(good, 8192) == []
    assert wl.check_rate_row(dict(good, rate_mc="0.0950"), 8192)
    assert wl.check_rate_row(dict(good, rate_semianalytic="-1.0"), 8192)


def test_antenna_check():
    good = {"mean_active": "1.5", "pmf": "0.25;0.0;0.75"}
    assert wl.check_antenna_row(good, 1000) == []
    assert wl.check_antenna_row(dict(good, pmf="0.25;0.0;0.8"), 1000)
    assert wl.check_antenna_row(dict(good, mean_active="1.6"), 1000)
    assert wl.check_antenna_row(dict(good, pmf="1.5;-0.5;0.0", mean_active="-0.5"), 1000)


def test_cli_output_check_counts_missing_rows():
    inputs = wl.make_inputs("outage_sweep", 1)
    header = ",".join(GOOD_OUTAGE)
    row = ",".join(GOOD_OUTAGE.values())
    points = wl.check_cli_output("outage_sweep", inputs, f"{header}\n{row}\n")
    assert points[0] == [] and all(points[1:])
    assert len(points) == wl.sweep_points(inputs)


def test_api_checks():
    assert wl.classify_api("outage_auto", 0.3) == ("ok", [])
    assert wl.classify_api("outage_auto", 1.5)[0] == "failed"
    assert wl.classify_api("outage_fixed_power", -0.1)[0] == "failed"
    assert wl.classify_api("average_ser_binary", 0.6)[0] == "failed"
    assert wl.classify_api("ergodic_capacity", float("nan"))[0] == "failed"
    assert wl.classify_api("solve_lambda", 0.0)[0] == "failed"
    assert wl.classify_api("outage_auto", 0.3, 0.3 * (1 + 1e-6))[0] == "failed"
    assert wl.classify_api("outage_auto", 0.3, {"error": "raised"}) == ("ok", [])
    known = {"error": "ArithmeticError: SER quadrature error 2.5e-09 did not converge"}
    assert wl.classify_api("average_ser_binary", known) == ("not_converged", [])
    assert wl.classify_api("ergodic_capacity", known)[0] == "failed"
    assert wl.classify_api("average_ser_binary", {"error": "ValueError: x"})[0] == "failed"


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "outage_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
