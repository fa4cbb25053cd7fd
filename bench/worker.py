"""Repetitions of a benchmark workload in one fresh interpreter.

    python3 bench/worker.py <workload> <inputs.json> <output> <report.json> \
        <t0> <budget_s> <trace: 0|1>

`t0` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this interpreter; setup time runs from there to the first call into
the package's layers (so it covers interpreter start, importing crmimo and
loading the inputs).  The workload then runs once, and again while the next
run still ends within <budget_s> of t0; each run is timed on its own, right
after a timed run of `reference_kernel` (which also runs KERNEL_WARMUP
times before the first).  For the CLI workloads <inputs.json> names the
scenario file the CLI is given.  The workload's outputs go to <output>: the
CLI's CSV, or the per-call records of analytic_curves as JSON.  Timings go
to <report.json>, with the sha256 of the output of every run.  With trace 1
the layers are wrapped by `tracer.Tracer` before the inputs are loaded, the
workload runs once, and the spans are saved next to the report.
"""

import hashlib
import json
import resource
import sys
import time

from workloads import API_CALLS, CLI_WORKLOADS, SHAPES

# reference-kernel runs before the first workload run, so that even an
# interpreter that times one run has a steady median kernel time
KERNEL_WARMUP = 2


def reference_kernel():
    """Fixed work, independent of crmimo, whose run time tracks how fast the
    host runs this process at the moment: an interpreter loop and small
    matrix products, as in the workloads."""
    import numpy as np
    total = 0
    for i in range(1_000_000):
        total += i * i
    a = np.full((64, 64), 1.0 / 64)
    for _ in range(400):
        a = a @ a
    return total


def _config(cr, shape):
    return cr.SystemConfig(m=shape["m"], n=shape["n"], l_t=shape["l_t"],
                           l_r=shape["l_r"], p_p=10.0, p_max=100.0,
                           q=10 ** 0.7, gamma_th=10 ** 0.3)


def evaluate_case(cr, case):
    """Run the analytic chain on one geometry.  Each call's record is its
    value, or {"error": ...} when it raised; calls whose inputs could not be
    built are recorded as skipped."""
    config = _config(cr, SHAPES[case["shape"]])
    record = {call: {"error": "skipped"} for call in API_CALLS}

    def attempt(call, fn, value=lambda result: result):
        try:
            result = fn()
        except Exception as exc:  # recorded and classified by the checks
            record[call] = {"error": f"{type(exc).__name__}: {exc}"}
            return None
        record[call] = value(result)
        return result

    stats = attempt("from_geometry",
                    lambda: cr.LinkStats.from_geometry(cr.Geometry(**case["geometry"])),
                    lambda s: s.mean_x)
    if stats is None:
        return record
    sol = attempt("solve_lambda", lambda: cr.solve_lambda(config, stats), lambda s: s.lam)
    if sol is None:
        return record
    attempt("outage_auto", lambda: cr.outage_auto(config, stats, sol).p_out)
    attempt("outage_fixed_power", lambda: cr.outage_fixed_power(
        config, stats, cr.conventional_power(config, stats)))
    attempt("ergodic_capacity", lambda: cr.ergodic_capacity(config, stats, sol))
    attempt("average_ser_binary",
            lambda: cr.average_ser_binary(config, stats, sol, 1.0, 1.0))
    return record


def main(argv):
    workload, inputs_path, output_path, report_path = argv[:4]
    t0, budget, trace = float(argv[4]), float(argv[5]), argv[6] == "1"

    import crmimo as cr
    from crmimo import cli

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(cr)

    with open(inputs_path) as fh:
        inputs = json.load(fh)
    if workload in CLI_WORKLOADS:
        cli.Scenario.load(inputs["scenario_file"])
        argv_cli = [inputs["command"], "--config", inputs["scenario_file"],
                    "--out", output_path, "--threads", str(inputs["threads"])]

        def run():
            code = cli.main(argv_cli)
            if code != 0:
                raise RuntimeError(f"crmimo {inputs['command']} exited with {code}")
    else:
        cases = inputs["cases"]

        def run():
            records = [evaluate_case(cr, case) for case in cases]
            with open(output_path, "w") as fh:
                json.dump(records, fh, sort_keys=True)

    clock = time.perf_counter
    report = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - t0,
              "kernel_s": [], "wall_s": [], "cpu_s": [], "output_sha256": []}
    deadline = clock() + budget - report["setup_s"]
    for _ in range(KERNEL_WARMUP):
        kernel0 = clock()
        reference_kernel()
        report["kernel_s"].append(clock() - kernel0)
    while True:
        kernel0 = clock()
        reference_kernel()
        report["kernel_s"].append(clock() - kernel0)
        cpu0, wall0 = time.process_time(), clock()
        try:
            run()
        except Exception as exc:  # the parent counts the run's operations as failed
            report["error"] = f"{type(exc).__name__}: {exc}"
            break
        wall1, cpu1 = clock(), time.process_time()
        report["wall_s"].append(wall1 - wall0)
        report["cpu_s"].append(cpu1 - cpu0)
        with open(output_path, "rb") as fh:
            report["output_sha256"].append(hashlib.sha256(fh.read()).hexdigest())
        now = clock()
        if tracer is not None or now + (now - kernel0) > deadline:
            break
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and "error" not in report:
        from tracer import layer_table
        report["trace"] = layer_table(tracer, (wall0, wall1))
        report["trace"]["counters"] = dict(tracer.counters)
        tracer.save(report_path[:-len(".json")] + ".spans.npz")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
