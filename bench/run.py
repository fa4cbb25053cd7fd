"""crmimo benchmark.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads (see workloads.py for the inputs and why each exists):
outage_sweep, rate_sweep, antenna_sweep, analytic_curves.

With --trace 0 the run starts PROCESSES fresh interpreters
(bench/worker.py) one after another, each given an equal share of
--seconds: it sets up, then runs the workload repeatedly, timing each run.
The run reports the end-to-end metrics as medians, over all timed runs
(wall_s, cpu_s) or over the interpreters (setup_s, peak_rss_mb):

    wall_s       time to solution of the workload's calls, setup excluded
    cpu_s        user + system CPU time of the process over that span
    setup_s      interpreter start to the first layer call (imports, inputs)
    peak_rss_mb  peak resident memory of the process
    ok_ratio     operations that returned a checked, correct value, over
                 operations attempted (1 - fail_ratio)

setup_s, and wall_s and cpu_s of the workloads in workloads.CALIBRATED,
are calibrated.  On a shared host the same work runs up to twice as long
from one minute to the next, which would swamp any change in the code; so
every timed run follows a run of a fixed reference kernel
(worker.reference_kernel, independent of crmimo), and each interpreter's
times are scaled by REFERENCE_KERNEL_S over its median kernel time: seconds
at the host speed at which the kernel takes REFERENCE_KERNEL_S.  The raw
times are printed and recorded as well.

With --trace 1 it alternates untraced and traced repetitions and reports
the per-layer metrics of PER_LAYER (medians over the traced repetitions),
the tracing overhead and the share of the traced wall time that no layer
span covers.

Every output is checked (workloads.py).  An operation (one sweep point, or
one API call in analytic_curves) counts as failed when it raises or its
output fails a check.  The one exception is the documented SER quadrature
non-convergence of average_ser_binary: it lowers ok_ratio and is printed in
fail_ratio, but is not counted in the result's "failed", which holds only
unexpected errors and wrong outputs.  The last line of standard output is
the JSON result {"correct", "attempted", "failed", "metrics"}; the full
record (machine facts, output fingerprints, every repetition) is written to
bench/out/<workload>-seed<n>-trace<t>/result.json.
"""

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

PROCESSES = 5
# median reference-kernel time on the 2-vCPU host that defined the benchmark
REFERENCE_KERNEL_S = 0.08
WORKER_TIMEOUT_S = 120.0
MAX_RUN_S = 140.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}

# (traced function, fields reported from its spans); a share is the
# function's span time (self_share: minus its child spans) over the traced
# wall time, so an unused layer reads 0 rather than a time of 0 s
LAYER_FIELDS = (
    ("mcharness.empirical_outage", ("calls", "share")),
    ("mcharness.empirical_rate", ("calls", "share")),
    ("mcharness.run_blocks", ("calls", "share")),
    ("mcharness.block_generator", ("calls",)),
    ("leakage.antenna_pmf", ("calls", "share")),
    ("leakage.reduce_antennas", ("calls", "self_share")),
    ("leakage.leakage_probability", ("calls", "share")),
    ("leakage.expm", ("calls", "share")),
    ("outage.ergodic_capacity", ("calls", "share")),
    ("outage.average_ser_binary", ("calls", "share")),
    ("outage.outage_auto", ("calls", "share", "self_share")),
    ("powalloc.solve_lambda", ("calls", "share")),
    ("powalloc.mean_power", ("calls",)),
    ("powalloc.optimal_power", ("calls", "share")),
    ("linkstats.effective_mean_y", ("calls", "share")),
    ("linkstats.mean_sum_inid", ("calls", "share")),
    ("linkstats.hypoexp_weights", ("calls", "share")),
    ("linkstats.ensure_distinct", ("calls", "share")),
    ("specfun.regularized_upper_gamma", ("calls", "share")),
    ("specfun.exp1", ("calls", "share")),
    ("cli.Scenario.load", ("share",)),
    ("cli.Scenario.build_point", ("calls", "share")),
    ("cli.main", ("share",)),
)
# (metric, numerator, denominator) over calls, child calls and counters
LAYER_RATIOS = (
    ("mcharness.empirical_outage.trials_per_s",
     "mcharness.empirical_outage.trials", "mcharness.empirical_outage.total_s"),
    ("mcharness.empirical_rate.trials_per_s",
     "mcharness.empirical_rate.trials", "mcharness.empirical_rate.total_s"),
    ("leakage.antenna_pmf.trials_per_s",
     "leakage.antenna_pmf.trials", "leakage.antenna_pmf.total_s"),
    ("leakage.evals_per_trial",
     "leakage.leakage_probability.calls", "leakage.antenna_pmf.trials"),
    ("outage.capacity_evals_per_call",
     "outage.ergodic_capacity>outage.outage_auto", "outage.ergodic_capacity.calls"),
    ("outage.ser_evals_per_call",
     "outage.average_ser_binary>outage.outage_auto", "outage.average_ser_binary.calls"),
    ("powalloc.evals_per_solve",
     "powalloc.solve_lambda>powalloc.mean_power", "powalloc.solve_lambda.calls"),
)
_UNITS = {"calls": "count", "share": "share", "self_share": "share",
          "trials_per_s": "1/s"}
PER_LAYER = {
    **{f"{name}.{field}": _UNITS[field]
       for name, fields in LAYER_FIELDS for field in fields},
    **{metric: _UNITS.get(metric.rsplit(".", 1)[1], "ratio")
       for metric, _, _ in LAYER_RATIOS},
    "mcharness.redraws": "count",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.uncovered_share": "share",
    **{f"trace.share.{module}": "share" for module in MODULES},
}


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_threads(package_dir):
    """Thread count of each OpenBLAS bundled with a wheel, read through its
    own getter (the library the package has already loaded)."""
    found = {}
    for lib in sorted(glob.glob(os.path.join(package_dir + ".libs", "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(lib)] = getter()
                break
    return found


def machine_facts():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
        except (TypeError, KeyError):
            return None
        info = deps.get("blas", {})
        return {key: info.get(key) for key in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {
            **_openblas_threads(os.path.dirname(numpy.__file__)),
            **_openblas_threads(os.path.dirname(scipy.__file__)),
        },
        "thread_env": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def prepare(workload, inputs, run_dir):
    """Write the workload's inputs (adding the scenario file, or the
    reference panel); returns (inputs, inputs path, panel)."""
    panel = None
    if workload in wl.CLI_WORKLOADS:
        scenario = run_dir / "scenario.json"
        scenario.write_text(json.dumps(inputs["scenario"], indent=1) + "\n")
        inputs["scenario_file"] = str(scenario)
    else:
        panel = json.loads(REFERENCE.read_text())
        inputs["cases"] = inputs["cases"] + panel["cases"]
    path = run_dir / "inputs.json"
    path.write_text(json.dumps(inputs) + "\n")
    return inputs, path, panel


def run_rep(workload, inputs_path, run_dir, index, trace, budget=0.0):
    """One fresh interpreter running the workload for up to `budget`
    seconds (at least once); returns (report, output bytes)."""
    output = run_dir / f"rep{index}.out"
    report_path = run_dir / f"rep{index}.json"
    for stale in (output, report_path):
        stale.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(inputs_path),
             str(output), str(report_path), repr(t0), repr(budget),
             "1" if trace else "0"],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
        returncode = proc.returncode
    except subprocess.TimeoutExpired:
        returncode = "timeout"
    if returncode != 0 or not report_path.exists():
        return {"error": f"worker exited with {returncode}", "wall_s": []}, b""
    report = json.loads(report_path.read_text())
    return report, output.read_bytes() if output.exists() else b""


def check_rep(workload, inputs, panel, report, output):
    """Outcome counts and problems of one worker's runs: the checks of its
    last output, counted once per completed run, plus a run whose operations
    all failed when it stopped on an error."""
    runs = len(report["wall_s"])
    if workload in wl.CLI_WORKLOADS:
        total = wl.sweep_points(inputs)
        points = wl.check_cli_output(workload, inputs, output.decode()) if runs else []
        outcomes = ["failed" if point else "ok" for point in points]
        problems = [f"point {index}: {p}" for index, point in enumerate(points) for p in point]
    else:
        cases = inputs["cases"]
        total = len(cases) * len(wl.API_CALLS)
        records = json.loads(output) if runs else []
        first_panel = len(cases) - len(panel["cases"])
        outcomes, problems = [], []
        if len(records) != (len(cases) if runs else 0):
            outcomes = ["failed"] * total
            problems.append(f"{len(records)} records for {len(cases)} cases")
            records = []
        for index, record in enumerate(records):
            reference = panel["values"][index - first_panel] if index >= first_panel else {}
            for call in wl.API_CALLS:
                outcome, found = wl.classify_api(call, record[call], reference.get(call))
                outcomes.append(outcome)
                problems += [f"case {index}: {p}" for p in found]
    counts = {key: runs * outcomes.count(key) for key in ("ok", "not_converged", "failed")}
    if "error" in report:
        counts["failed"] += total
        problems.append(f"run stopped: {report['error']}")
    return counts, problems


def speed_factor(report):
    """REFERENCE_KERNEL_S over the interpreter's median reference-kernel time."""
    return REFERENCE_KERNEL_S / statistics.median(report["kernel_s"])


def _stats(values):
    values = sorted(values)
    return {"median": statistics.median(values), "min": values[0],
            "max": values[-1], "n": len(values)}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace):
    """The PER_LAYER metrics (except the overhead) of one traced repetition."""
    functions, counters = trace["functions"], trace["counters"]
    flat = dict(counters)
    flat.update(trace["child_calls"])
    for name, row in functions.items():
        flat.update({f"{name}.{field}": value for field, value in row.items()})
        flat[f"{name}.share"] = row["total_s"] / trace["wall_s"]
        flat[f"{name}.self_share"] = row["self_s"] / trace["wall_s"]
    metrics = {f"{name}.{field}": flat.get(f"{name}.{field}", 0)
               for name, fields in LAYER_FIELDS for field in fields}
    for metric, num, den in LAYER_RATIOS:
        metrics[metric] = _ratio(flat.get(num, 0), flat.get(den, 0))
    metrics["mcharness.redraws"] = counters.get("mcharness.redraws", 0)
    metrics["trace.wall_s"] = trace["wall_s"]
    metrics["trace.uncovered_share"] = trace["uncovered_share"]
    for module in MODULES:
        metrics[f"trace.share.{module}"] = trace["module_share"][module]
    return metrics


def run_workload(workload, seed, seconds, trace):
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs, inputs_path, panel = prepare(workload, wl.make_inputs(workload, seed), run_dir)
    machine = machine_facts()

    reps = []

    def repetition(traced, budget):
        report, output = run_rep(workload, inputs_path, run_dir, len(reps), traced, budget)
        counts, problems = check_rep(workload, inputs, panel, report, output)
        reps.append({"traced": traced, "report": report, "counts": counts,
                     "problems": problems})

    if not trace:
        for _ in range(PROCESSES):
            repetition(False, seconds / PROCESSES)
    else:
        # untraced and traced single runs, alternating, while the next pair
        # fits in the measuring time (and in MAX_RUN_S)
        start, longest = time.monotonic(), 0.0
        while True:
            began = time.monotonic()
            repetition(False, 0.0)
            repetition(True, 0.0)
            longest = max(longest, time.monotonic() - began)
            elapsed = time.monotonic() - start
            if elapsed + longest > min(seconds, MAX_RUN_S):
                break

    totals = {key: sum(r["counts"][key] for r in reps) for key in ("ok", "not_converged", "failed")}
    attempted = sum(totals.values())
    fingerprints = sorted({f for r in reps for f in r["report"].get("output_sha256", [])})
    problems = [p for r in reps for p in r["problems"]]
    if len(fingerprints) > 1:
        problems.append(f"repetitions disagree: {len(fingerprints)} distinct outputs")
    correct = totals["failed"] == 0 and len(fingerprints) == 1 and not problems

    plain = [r["report"] for r in reps if not r["traced"] and r["report"]["wall_s"]]
    summary, raw = {}, {}
    if plain:
        calibrated = speed_factor if workload in wl.CALIBRATED else (lambda report: 1.0)
        for table, scale, setup_scale in ((summary, calibrated, speed_factor),
                                          (raw, lambda report: 1.0, lambda report: 1.0)):
            table.update({key: _stats([v * scale(r) for r in plain for v in r[key]])
                          for key in ("wall_s", "cpu_s")})
            table["setup_s"] = _stats([r["setup_s"] * setup_scale(r) for r in plain])
        summary["peak_rss_mb"] = _stats([r["peak_rss_mb"] for r in plain])
    metrics = {key: summary[key]["median"] for key in summary}
    metrics["ok_ratio"] = _ratio(totals["ok"], attempted)
    layers = None
    if trace:
        traced = [r["report"] for r in reps if r["traced"] and "trace" in r["report"]]
        per_rep = [layer_metrics(r["trace"]) for r in traced]
        layers = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]} \
            if per_rep else {}
        if traced and plain:
            layers["trace.overhead"] = (
                statistics.median(r["wall_s"][0] * calibrated(r) for r in traced)
                / summary["wall_s"]["median"])

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine,
        "inputs_sha256": hashlib.sha256(inputs_path.read_bytes()).hexdigest(),
        "output_sha256": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        "outcomes": totals, "attempted": attempted,
        "fail_ratio": 1.0 - metrics["ok_ratio"],
        "correct": correct, "problems": problems[:50],
        "end_to_end": summary, "raw_times": raw, "metrics": metrics, "per_layer": layers,
        "functions": (traced[-1]["trace"]["functions"] if trace and traced else None),
        "spans": (traced[-1]["trace"]["spans"] if trace and traced else None),
        "repetitions": [{k: v for k, v in r.items() if k != "report"}
                        | {"report": {k: v for k, v in r["report"].items() if k != "trace"}}
                        for r in reps],
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result, run_dir / "result.json"


def print_report(result, path):
    print(f"{result['workload']}  seed {result['seed']}  "
          f"trace {'on' if result['trace'] else 'off'}")
    for key, stats in result["end_to_end"].items():
        raw = result["raw_times"].get(key)
        print(f"  {key:<12} {stats['median']:.6g} {END_TO_END[key]}  (median of "
              f"{stats['n']}, min {stats['min']:.6g}, max {stats['max']:.6g}"
              + (f"; raw median {raw['median']:.6g} s)" if raw else ")"))
    totals = result["outcomes"]
    print(f"  {'ok_ratio':<12} {result['metrics']['ok_ratio']:.6g} ratio")
    print(f"  {'fail_ratio':<12} {result['fail_ratio']:.6g} ratio  "
          f"({totals['failed']} failed, {totals['not_converged']} SER not converged, "
          f"of {result['attempted']} operations)")
    for key, value in (result["per_layer"] or {}).items():
        print(f"  {key:<48} {value:.6g} {PER_LAYER[key]}")
    for name, _ in LAYER_FIELDS if result["functions"] else ():
        row = result["functions"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        print(f"  {name:<36} calls {row['calls']:<8} total_s {row['total_s']:<10.4g} "
              f"self_s {row['self_s']:.4g}  (last traced run)")
    print(f"  output sha256 {result['output_sha256']}")
    print(f"  correct {result['correct']}; record in {path.relative_to(ROOT)}")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crmimo" / "__init__.py").is_file():
        print(f"benchmark: no crmimo package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result, path = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(result, path)
        results.append(result)
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for result in results:
        values = result["per_layer"] if args.trace else result["metrics"]
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for key, unit in wanted.items():
            if key in values:
                metrics[prefix + key] = {"value": values[key], "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["outcomes"]["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
