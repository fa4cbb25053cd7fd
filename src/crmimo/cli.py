"""Command-line front end: parsing, dispatch and output.

Parses scenario files (JSON; powers in dB at the boundary, linear
internally) and builds every sweep point on load, so a bad swept value
fails before any Monte-Carlo work.  A sweep point is the scenario document
with the fields its parameter sets (`SWEEPABLE`) replaced, parsed by the
same code as the base point.  `outage`, `rate`, `antennas` and `power`
run one sweep loop that solves each point's multiplier and evaluates one
row; points run in order (point i draws with seed + i) and --threads
spreads each point's Monte-Carlo blocks.  `power` is one row of that loop,
the solved allocation on the base point alone, sweep or not.  `validate`
runs the grid of `crmimo.validation` into a JSON report.  Sweeps emit CSV,
single points and `power` JSON, unless --format says otherwise.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import leakage, mcharness, outage, powalloc
from .linkstats import Geometry, LinkStats
from .powalloc import SystemConfig

# sweep parameter -> the (section, field) entries a sweep point replaces in
# the scenario document; section None is the top level
SWEEPABLE = {
    **{key: [("geometry", key)] for key in ("d_st_sr", "d_st_pr", "d_pt_sr")},
    **{key: [("system", key)] for key in ("q_db", "p_p_db", "p_max_db", "gamma_th_db", "m", "n")},
    "m_n": [("system", "m"), ("system", "n")],
    "n_lt": [("system", "n"), ("system", "l_t")],
    "t_g": [(None, "t_g")],
}
_SYSTEM_INTS = ("m", "n", "l_t", "l_r")


class ConfigError(ValueError):
    """Scenario file problem; the message carries the offending field path."""


def db_to_linear(db, path="dB value"):
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError as exc:
        raise ConfigError(f"{path}: {db!r} dB is past the float range") from exc


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def _need(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _section(raw, key, required=True):
    """The object `raw[key]` as a dict; None when absent and optional."""
    if not required and key not in raw:
        return None
    value = _need(raw, key, "scenario")
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: must be an object, got {value!r}")
    return dict(value)


def _number(value, path, kind=float):
    """`value` as a finite float, or as an int when kind is int.  Only JSON
    numbers qualify: not booleans, and not numeric strings."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = kind(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from exc
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return number


def _field(mapping, key, path, kind=float):
    """The required number mapping[key]."""
    return _number(_need(mapping, key, path), f"{path}.{key}", kind)


def _as_list(mapping, key, path, length):
    """The required number or list mapping[key] as `length` numbers."""
    value, path = _need(mapping, key, path), f"{path}.{key}"
    if not isinstance(value, (list, tuple)):
        return [_number(value, path)] * length
    vals = [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if len(vals) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(vals)}")
    return vals


class Scenario:
    """Validated scenario file: system parameters, geometry or explicit
    means, optional sweep, Monte-Carlo settings and leakage threshold."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("scenario: top level must be an object")
        self.raw = raw
        self.base = self.build_point()
        self.sweep = _section(raw, "sweep", required=False)
        if self.sweep is not None:
            param = _need(self.sweep, "parameter", "sweep")
            if param not in SWEEPABLE:
                raise ConfigError(f"sweep.parameter: {param!r} is not sweepable "
                                  f"(choose from {', '.join(SWEEPABLE)})")
            for section, _ in SWEEPABLE[param]:
                if section is not None and section not in raw:
                    raise ConfigError(f"sweep.parameter: {param!r} requires a {section} block")
            if self.sweep.get("scale", "linear") not in ("linear", "log"):
                raise ConfigError("sweep.scale: must be 'linear' or 'log'")
        mc = _section(raw, "mc", required=False) or {}
        self.trials = _number(mc.get("trials", 100000), "mc.trials", int)
        self.seed = _number(mc.get("seed", 0), "mc.seed", int)
        # fail fast: every sweep point is built before any Monte-Carlo work
        self.points = [(value, *self.build_point(value)) for value in self.sweep_values()]

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
        return cls(raw)

    def sweep_values(self):
        if self.sweep is None:
            return [None]
        start = _field(self.sweep, "start", "sweep")
        stop = _field(self.sweep, "stop", "sweep")
        steps = _field(self.sweep, "steps", "sweep", int)
        if steps < 1:
            raise ConfigError("sweep.steps: must be >= 1")
        if steps == 1:
            vals = [start]
        elif self.sweep.get("scale", "linear") == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError("sweep.start, sweep.stop: must be > 0 on a log scale")
            vals = [float(v) for v in np.geomspace(start, stop, steps)]
        else:
            vals = [float(v) for v in np.linspace(start, stop, steps)]
        if all(key in _SYSTEM_INTS for _, key in SWEEPABLE[self.sweep["parameter"]]):
            vals = [int(round(v)) for v in vals]
        return vals

    def build_point(self, swept_value=None):
        """Materialize (SystemConfig, LinkStats, t_g) at one sweep value: the
        scenario document with the swept fields replaced, section by copy."""
        raw = dict(self.raw)
        if swept_value is not None:
            for section, key in SWEEPABLE[self.sweep["parameter"]]:
                if section is None:
                    raw[key] = swept_value
                else:
                    raw[section] = {**raw[section], key: swept_value}
        system = _section(raw, "system")
        ints = {key: _field(system, key, "system", int) for key in _SYSTEM_INTS}
        linear = {key[:-3]: db_to_linear(_field(system, key, "system"), f"system.{key}")
                  for key in ("p_p_db", "p_max_db", "q_db", "gamma_th_db")}
        n0 = _number(system.get("n0", 1.0), "system.n0")
        if ("geometry" in raw) == ("means" in raw):
            raise ConfigError("scenario: exactly one of 'geometry' or 'means' must be present")
        t_g = _number(raw["t_g"], "t_g") if "t_g" in raw else None
        if t_g is not None and not 0.0 < t_g <= 1.0:
            raise ConfigError(f"t_g: must lie in (0, 1], got {t_g}")
        try:
            config = SystemConfig(**ints, **linear, n0=n0)
        except ValueError as exc:
            raise ConfigError(f"system: {exc}") from exc
        block = "geometry" if "geometry" in raw else "means"
        fields = _section(raw, block)
        try:
            if block == "geometry":
                stats = LinkStats.from_geometry(Geometry(
                    d_st_sr=_field(fields, "d_st_sr", "geometry"),
                    d_pt_sr=_as_list(fields, "d_pt_sr", "geometry", config.l_t),
                    d_st_pr=_as_list(fields, "d_st_pr", "geometry", config.l_r),
                    d_ref=_number(fields.get("d_ref", 100.0), "geometry.d_ref"),
                    alpha=_number(fields.get("alpha", 4.0), "geometry.alpha"),
                ))
            else:
                stats = LinkStats(
                    _field(fields, "mean_x", "means"),
                    _as_list(fields, "mean_y_per_pr", "means", config.l_r),
                    _as_list(fields, "mean_z_per_pt", "means", config.l_t),
                )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{block}: {exc}") from exc
        return config, stats, t_g


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)

def _emit_rows(columns, rows, fmt, out):
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        records = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(records if len(records) != 1 else records[0],
                          indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _outage_row(value, config, stats, sol, t_g, trials, seed, threads):
    """Analytic outage of the optimal and the conventional fixed
    allocation, plus the Monte-Carlo estimate with standard error."""
    p_conv = outage.outage_fixed_power(config, stats, powalloc.conventional_power(config, stats))
    mc = mcharness.empirical_outage(config, stats, sol, trials, seed, threads=threads)
    return [value if value is not None else 0.0,
            outage.outage_auto(config, stats, sol).p_out, p_conv, mc.value, mc.std_error]


def _antennas_row(value, config, stats, sol, t_g, trials, seed, threads):
    """Mean active-antenna count after reduction, its standard error, and
    the full PMF (';'-joined, l = 0..m).  Runs on one thread: each block's
    reduction is short numpy calls that mostly hold the interpreter lock."""
    if t_g is None:
        raise ConfigError("t_g: required for the antennas command")
    pmf = leakage.antenna_pmf(config, stats, sol, t_g, trials, seed)
    return [value if value is not None else 0.0, pmf.mean_active, pmf.std_error,
            ";".join(repr(float(p)) for p in pmf.pmf)]


def _rate_row(value, config, stats, sol, t_g, trials, seed, threads):
    """Monte-Carlo mean stream rate, the semi-analytic quadrature rate, and
    the deterministic large-array rate."""
    mc = mcharness.empirical_rate(config, stats, sol, trials, seed, threads=threads)
    det = math.log2(1.0 + outage.asymptotic_sinr(
        "both_massive_lt_massive", config, stats, sol).limit)
    return [value if value is not None else config.n,
            mc.value, outage.ergodic_capacity(config, stats, sol), det]


def _power_row(value, config, stats, sol, t_g, trials, seed, threads):
    """The solved allocation, the conventional fixed power and the link means."""
    return [sol.lam, sol.c_threshold, sol.target_mean_power, sol.slope, sol.offset,
            powalloc.conventional_power(config, stats),
            stats.mean_x, stats.mean_y, stats.mean_z]


# command -> (row function, CSV columns)
SWEEPS = {
    "outage": (_outage_row, ["swept_value", "p_out_optimal", "p_out_conventional",
                             "p_out_mc", "mc_stderr"]),
    "antennas": (_antennas_row, ["swept_value", "mean_active", "stderr", "pmf"]),
    "rate": (_rate_row, ["n_value", "rate_mc", "rate_semianalytic", "rate_deterministic"]),
    "power": (_power_row, ["lambda", "c_threshold", "target_mean_power", "slope", "offset",
                           "conventional_power", "mean_x", "mean_y", "mean_z"]),
}


def _sweep(points, command, trials, seed, threads, fmt, out):
    """One row per point, in order: solve the point's multiplier, evaluate
    the command's row with seed + point index."""
    row, columns = SWEEPS[command]
    rows = []
    for idx, (value, config, stats, t_g) in enumerate(points):
        sol = powalloc.solve_lambda(config, stats)
        rows.append(row(value, config, stats, sol, t_g, trials, seed + idx, threads))
    _emit_rows(columns, rows, fmt, out)
    return 0


def cmd_validate(trials, seed, threads, out):
    from . import validation  # the library and the other commands never load it

    checks, passed = validation.run_validation(trials, seed, threads)
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {c['name']}: observed {c['observed']:.3e} "
              f"(tolerance {c['tolerance']:.3e})")
    report = {"checks": checks, "passed": passed,
              "trials": trials, "seed": seed}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _check_mc(trials, seed, points):
    """Reject Monte-Carlo settings the estimators cannot use; sweep point i
    draws with seed + i, so each of those seeds must be an unsigned 64-bit
    integer."""
    if trials < 1:
        raise ConfigError(f"trials (--trials or mc.trials): must be >= 1, got {trials}")
    if seed < 0 or seed + points > 1 << 64:
        raise ConfigError(f"seed (--seed or mc.seed): seed + sweep index must lie "
                          f"in [0, 2^64), got seed {seed} with {points} sweep points")


def _writable(path):
    """A writable existing file, or a new name in a writable directory."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    return not os.path.isdir(path) and os.access(target, os.W_OK)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="crmimo",
        description="Underlay MIMO cognitive-radio link analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("outage", "antennas", "rate", "power", "validate"):
        p = sub.add_parser(name)
        if name != "validate":  # validate runs its own grid and writes JSON
            p.add_argument("--config", required=True, help="scenario file (JSON)")
            p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--trials", type=int, default=None,
                       help="Monte-Carlo trials (overrides scenario)")
        p.add_argument("--seed", type=int, default=None,
                       help="Monte-Carlo seed (overrides scenario)")
        p.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        if args.out and not _writable(args.out):
            raise ConfigError(f"--out: cannot write {args.out}")
        if args.command == "validate":
            trials = args.trials if args.trials is not None else 200000
            seed = args.seed if args.seed is not None else 0
            _check_mc(trials, seed, 1)
            return cmd_validate(trials, seed, args.threads, args.out)
        scenario = Scenario.load(args.config)
        trials = args.trials if args.trials is not None else scenario.trials
        seed = args.seed if args.seed is not None else scenario.seed
        _check_mc(trials, seed, len(scenario.points))
        points = scenario.points
        fmt = args.format or ("csv" if scenario.sweep is not None else "json")
        if args.command == "power":  # the base point alone, sweep or not
            points, fmt = [(None, *scenario.base)], args.format or "json"
        return _sweep(points, args.command, trials, seed, args.threads, fmt, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except powalloc.RootFindingError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
