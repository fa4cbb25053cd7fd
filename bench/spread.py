"""Run the benchmark once per seed and report each end-to-end metric's
median, quartiles and spread (quartile distance over the median).

    python3 bench/spread.py --workload outage_sweep --seeds 1-10 [--seconds 30]

With --out the summary is also written as JSON.  Runs are sequential; each
is a separate `bench/run.py` process, measuring for the run_seconds of
BENCHMARK.json unless --seconds is given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default=json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "values": series}
        print(f"{args.workload} {name:<12} median {median:.6g}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  spread {summary[name]['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "seconds": args.seconds, "metrics": summary},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
