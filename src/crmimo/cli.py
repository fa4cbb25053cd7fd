"""Command-line front end.

Parses scenario files (JSON; powers in dB at the boundary, linear
internally), runs analytic evaluations, Monte-Carlo validations and
figure-style parameter sweeps, and emits CSV for sweeps or JSON for
single-point runs and validation reports.  Sweep points run in order (point
i draws with seed + i); --threads spreads each point's Monte-Carlo blocks.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

import argparse
import json
import math
import sys

import numpy as np
from scipy.integrate import quad

from . import leakage, linkstats, mcharness, outage, powalloc
from .linkstats import Geometry, LinkStats
from .powalloc import SystemConfig

SWEEPABLE = (
    "d_st_sr", "d_st_pr", "d_pt_sr",
    "q_db", "p_p_db", "p_max_db", "gamma_th_db",
    "m", "n", "m_n", "n_lt",
    "t_g",
)
_INT_PARAMS = {"m", "n", "m_n", "n_lt"}
_GEOM_PARAMS = {"d_st_sr", "d_st_pr", "d_pt_sr"}


class ConfigError(ValueError):
    """Scenario file problem; the message carries the offending field path."""


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


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


def _as_list(value, length, path):
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
        system = _section(raw, "system")
        self.system = {key: _field(system, key, "system", int)
                       for key in ("m", "n", "l_t", "l_r")}
        for key in ("p_p_db", "p_max_db", "q_db", "gamma_th_db"):
            self.system[key] = _field(system, key, "system")
        self.system["n0"] = _number(system.get("n0", 1.0), "system.n0")
        has_geom = "geometry" in raw
        has_means = "means" in raw
        if has_geom == has_means:
            raise ConfigError("scenario: exactly one of 'geometry' or 'means' must be present")
        self.geometry = _section(raw, "geometry", required=False)
        self.means = _section(raw, "means", required=False)
        self.sweep = _section(raw, "sweep", required=False)
        if self.sweep is not None:
            param = _need(self.sweep, "parameter", "sweep")
            if param not in SWEEPABLE:
                raise ConfigError(f"sweep.parameter: {param!r} is not sweepable "
                                  f"(choose from {', '.join(SWEEPABLE)})")
            if param in _GEOM_PARAMS and not has_geom:
                raise ConfigError(f"sweep.parameter: {param!r} requires a geometry block")
            if self.sweep.get("scale", "linear") not in ("linear", "log"):
                raise ConfigError("sweep.scale: must be 'linear' or 'log'")
        mc = _section(raw, "mc", required=False) or {}
        self.trials = _number(mc.get("trials", 100000), "mc.trials", int)
        self.seed = _number(mc.get("seed", 0), "mc.seed", int)
        self.t_g = _number(raw["t_g"], "t_g") if "t_g" in raw else None
        # fail fast on invalid base parameters
        self.sweep_values()
        self.build_point()

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
        if self.sweep["parameter"] in _INT_PARAMS:
            vals = [int(round(v)) for v in vals]
        return vals

    def build_point(self, swept_value=None):
        """Materialize (SystemConfig, LinkStats, t_g) at one sweep value."""
        sysd = dict(self.system)
        geom = dict(self.geometry) if self.geometry is not None else None
        t_g = self.t_g
        if swept_value is not None:
            param = self.sweep["parameter"]
            if param in _GEOM_PARAMS:
                geom[param] = swept_value
            elif param == "m_n":
                sysd["m"] = swept_value
                sysd["n"] = swept_value
            elif param == "n_lt":
                sysd["n"] = swept_value
                sysd["l_t"] = swept_value
            elif param == "t_g":
                t_g = swept_value
            else:
                sysd[param] = swept_value
        try:
            config = SystemConfig(
                m=sysd["m"], n=sysd["n"], l_t=sysd["l_t"], l_r=sysd["l_r"],
                p_p=db_to_linear(sysd["p_p_db"]),
                p_max=db_to_linear(sysd["p_max_db"]),
                q=db_to_linear(sysd["q_db"]),
                gamma_th=db_to_linear(sysd["gamma_th_db"]),
                n0=sysd["n0"],
            )
        except ValueError as exc:
            raise ConfigError(f"system: {exc}") from exc
        try:
            if geom is not None:
                g = Geometry(
                    d_st_sr=_field(geom, "d_st_sr", "geometry"),
                    d_pt_sr=_as_list(_need(geom, "d_pt_sr", "geometry"),
                                     config.l_t, "geometry.d_pt_sr"),
                    d_st_pr=_as_list(_need(geom, "d_st_pr", "geometry"),
                                     config.l_r, "geometry.d_st_pr"),
                    d_ref=_number(geom.get("d_ref", 100.0), "geometry.d_ref"),
                    alpha=_number(geom.get("alpha", 4.0), "geometry.alpha"),
                )
                stats = LinkStats.from_geometry(g)
            else:
                m = self.means
                stats = LinkStats(
                    _field(m, "mean_x", "means"),
                    _as_list(_need(m, "mean_y_per_pr", "means"), config.l_r, "means.mean_y_per_pr"),
                    _as_list(_need(m, "mean_z_per_pt", "means"), config.l_t, "means.mean_z_per_pt"),
                )
        except ConfigError:
            raise
        except ValueError as exc:
            block = "geometry" if geom is not None else "means"
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

def cmd_outage(scenario, trials, seed, threads, fmt, out):
    """Per sweep point: analytic outage of the optimal and the conventional
    fixed allocation, plus the Monte-Carlo estimate with standard error."""
    values = scenario.sweep_values()

    def evaluate(idx, value):
        config, stats, _ = scenario.build_point(value)
        sol = powalloc.solve_lambda(config, stats)
        p_opt = outage.outage_auto(config, stats, sol).p_out
        p_conv = outage.outage_fixed_power(
            config, stats, powalloc.conventional_power(config, stats))
        mc = mcharness.empirical_outage(config, stats, sol, trials,
                                        seed + idx, threads=threads)
        return [value if value is not None else 0.0,
                p_opt, p_conv, mc.value, mc.std_error]

    rows = [evaluate(i, v) for i, v in enumerate(values)]
    _emit_rows(["swept_value", "p_out_optimal", "p_out_conventional",
                "p_out_mc", "mc_stderr"], rows, fmt, out)
    return 0


def cmd_antennas(scenario, trials, seed, fmt, out):
    """Per sweep point: mean active-antenna count after reduction, its
    standard error, and the full PMF (';'-joined, l = 0..m).  Runs on one
    thread: the per-trial reduction holds the interpreter lock."""
    if scenario.t_g is None and (scenario.sweep is None
                                 or scenario.sweep["parameter"] != "t_g"):
        raise ConfigError("t_g: required for the antennas command")
    values = scenario.sweep_values()

    def evaluate(idx, value):
        config, stats, t_g = scenario.build_point(value)
        sol = powalloc.solve_lambda(config, stats)
        pmf = leakage.antenna_pmf(config, stats, sol, t_g, trials, seed + idx)
        return [value if value is not None else 0.0,
                pmf.mean_active, pmf.std_error,
                ";".join(repr(float(p)) for p in pmf.pmf)]

    rows = [evaluate(i, v) for i, v in enumerate(values)]
    _emit_rows(["swept_value", "mean_active", "stderr", "pmf"], rows, fmt, out)
    return 0


def cmd_rate(scenario, trials, seed, threads, fmt, out):
    """Per sweep point: Monte-Carlo mean stream rate, the semi-analytic
    quadrature rate, and the deterministic large-array rate."""
    values = scenario.sweep_values()

    def evaluate(idx, value):
        config, stats, _ = scenario.build_point(value)
        sol = powalloc.solve_lambda(config, stats)
        mc = mcharness.empirical_rate(config, stats, sol, trials,
                                      seed + idx, threads=threads)
        semi = outage.ergodic_capacity(config, stats, sol)
        det = math.log2(1.0 + outage.asymptotic_sinr(
            "both_massive_lt_massive", config, stats, sol).limit)
        return [value if value is not None else config.n,
                mc.value, semi, det]

    rows = [evaluate(i, v) for i, v in enumerate(values)]
    _emit_rows(["n_value", "rate_mc", "rate_semianalytic", "rate_deterministic"],
               rows, fmt, out)
    return 0


def cmd_power(scenario, out):
    """Print the solved power allocation for a single-point scenario."""
    config, stats, _ = scenario.build_point()
    sol = powalloc.solve_lambda(config, stats)
    record = {
        "lambda": sol.lam,
        "c_threshold": sol.c_threshold,
        "target_mean_power": sol.target_mean_power,
        "slope": sol.slope,
        "offset": sol.offset,
        "conventional_power": powalloc.conventional_power(config, stats),
        "mean_x": stats.mean_x,
        "mean_y": stats.mean_y,
        "mean_z": stats.mean_z,
    }
    _emit_rows(list(record), [list(record.values())], "json", out)
    return 0


# ---------------------------------------------------------------------------
# validation grid
# ---------------------------------------------------------------------------

def _validation_point(m, n, l_t, l_r, d_st_sr, d_pt_sr, d_st_pr):
    """(SystemConfig, LinkStats) at the validation powers: interference cap
    7 dB, primary power 10 dB, power cap 20 dB, threshold 3 dB."""
    config = SystemConfig(m=m, n=n, l_t=l_t, l_r=l_r, p_p=db_to_linear(10),
                          p_max=db_to_linear(20), q=db_to_linear(7),
                          gamma_th=db_to_linear(3))
    stats = LinkStats.from_geometry(Geometry(
        d_st_sr=d_st_sr, d_pt_sr=d_pt_sr, d_st_pr=d_st_pr))
    return config, stats


def _validation_configs():
    """Small scenario grid spanning both multiplier branches, identical and
    distinct interference statistics, and every closed-form reduction."""
    return [
        _validation_point(4, 5, 2, 2, 18.0, (56.0, 56.0), (60.0, 60.0)),
        _validation_point(3, 3, 2, 2, 25.0, (45.0, 70.0), (55.0, 75.0)),
        _validation_point(2, 6, 4, 1, 30.0, (45.0, 60.0, 75.0, 90.0), (65.0,)),
        _validation_point(1, 2, 2, 1, 35.0, (50.0, 80.0), (70.0,)),
    ]


def run_validation(trials, seed, threads):
    """Run the invariant / oracle regression grid; returns (checks, passed)."""
    checks = []

    def record(name, tolerance, observed, ok):
        checks.append({"name": name, "tolerance": tolerance,
                       "observed": observed, "pass": bool(ok)})

    from .specfun import regularized_upper_gamma, upper_incomplete_gamma

    # elementary identities of the gamma kernel
    xs = np.geomspace(1e-6, 50, 40)
    err = max(abs(upper_incomplete_gamma(1, x) - math.exp(-x))
              / (math.exp(-x) + 1e-300) for x in xs)
    record("specfun.exp_identity", 1e-14, err, err <= 1e-14)

    err = 0.0
    for n in range(1, 31):
        for x in np.geomspace(1e-3, 40, 12):
            lhs = upper_incomplete_gamma(n + 1, x)
            rhs = n * upper_incomplete_gamma(n, x) + x ** n * math.exp(-x)
            err = max(err, abs(lhs - rhs) / rhs)
    record("specfun.recurrence", 1e-12, err, err <= 1e-12)

    # order statistics against the inclusion-exclusion oracle
    rng = np.random.Generator(np.random.Philox(key=seed))
    err = 0.0
    for _ in range(20):
        means = rng.uniform(0.2, 8.0, size=rng.integers(1, 6))
        oracle = 0.0
        import itertools as it
        for r in range(1, len(means) + 1):
            for sub in it.combinations(means, r):
                oracle += (-1.0) ** (r + 1) / sum(1.0 / m for m in sub)
        val = linkstats.mean_max_inid(list(means))
        err = max(err, abs(val - oracle) / oracle)
    record("linkstats.max_oracle", 1e-9, err, err <= 1e-9)

    # k tied means m make the sum an Erlang: tail Q(k, q / m)
    err = max(abs(linkstats.hypoexp_ccdf(x * m, [m] * k) - regularized_upper_gamma(k, x))
              for m in (0.3, 2.5) for k in range(1, 7) for x in (0.1, 1.0, 4.0, 15.0))
    record("linkstats.tied_tail", 1e-12, err, err <= 1e-12)

    err = 0.0
    for means in ([1.0, 2.5], [0.5, 1.5, 4.0]):
        val, _ = quad(lambda z: linkstats.sum_density_inid(z, means),
                      0, 60 * max(means), limit=200)
        err = max(err, abs(val - 1.0))
    record("linkstats.density_normalization", 1e-6, err, err <= 1e-6)

    # multiplier equation: closed form residual and quadrature oracle
    res_err, quad_err = 0.0, 0.0
    sols = []
    for config, stats in _validation_configs():
        sol = powalloc.solve_lambda(config, stats)
        sols.append(sol)
        res_err = max(res_err, abs(powalloc.mean_power(sol.lam, config, stats)
                                   - sol.target_mean_power) / sol.target_mean_power)
        shape = config.diversity_order
        ex = stats.mean_x

        def fx(x):
            return (x ** (shape - 1) * math.exp(-x / ex)
                    / (math.gamma(shape) * ex ** shape))

        val, _ = quad(lambda x: (sol.slope - sol.offset / x) * fx(x),
                      sol.c_threshold, np.inf, limit=200)
        quad_err = max(quad_err, abs(val - sol.target_mean_power) / sol.target_mean_power)
    record("powalloc.residual", 1e-10, res_err, res_err <= 1e-10)
    record("powalloc.quadrature_oracle", 1e-8, quad_err, quad_err <= 1e-8)

    # closed-form outage mixture against direct quadrature over the density,
    # at distinct means, then at ties: all means equal, and two of three
    def kernel_gap(points):
        err = 0.0
        for config, stats in points:
            sol = powalloc.solve_lambda(config, stats)
            a, bn = outage._cdf_coefficients(config, stats, sol.slope,
                                             sol.c_threshold, config.gamma_th)
            args = (a, bn, config.diversity_order, stats.mean_z_per_pt)
            err = max(err, abs(outage._mixed_outage(*args)
                               - outage._mixed_outage_quadrature(*args)))
        return err

    configs = _validation_configs()
    err = kernel_gap(configs[1:])
    record("outage.closed_form_vs_quadrature", 1e-12, err, err <= 1e-12)
    err = kernel_gap([configs[0], _validation_point(
        4, 5, 3, 2, 18.0, (56.0, 56.0, 70.0), (60.0, 60.0))])
    record("outage.tied_vs_quadrature", 1e-12, err, err <= 1e-12)

    # outage reconstructed by mixing the power CDF over the interference
    config, stats = configs[2]
    sol = sols[2]
    target = outage.outage_general(config, stats, sol).p_out

    def integrand(z):
        x = config.gamma_th * (config.p_p * z + config.n0)
        return (outage.received_power_cdf(x, sol, config, stats)
                * linkstats.sum_density_inid(z, list(stats.mean_z_per_pt)))

    val, _ = quad(integrand, 0, 60 * max(stats.mean_z_per_pt), limit=300)
    err = abs(val - target)
    record("outage.cdf_mixture", 1e-6, err, err <= 1e-6)

    # Monte-Carlo agreement
    worst = 0.0
    for (config, stats), sol in zip(configs[:3], sols[:3]):
        est = mcharness.empirical_outage(config, stats, sol, trials, seed,
                                         threads=threads)
        ana = outage.outage_auto(config, stats, sol).p_out
        worst = max(worst, abs(ana - est.value) / (3 * est.std_error))
    record("outage.mc_agreement_3sigma", 1.0, worst, worst <= 1.0)

    config, stats = configs[0]
    sol = sols[0]
    gains = mcharness.sample_stream_gains(config, stats, trials, seed, threads)
    powers = powalloc.optimal_power(gains, sol)
    se = float(np.std(powers, ddof=1) / math.sqrt(trials))
    dev = abs(float(np.mean(powers)) - sol.target_mean_power) / (3 * se)
    record("powalloc.mc_constraint_3sigma", 1.0, dev, dev <= 1.0)

    exact = [(([1.0], [1.0], 1.0), math.exp(-1)),
             (([1.0, 2.0], [1.0], 1.0), 2 * math.exp(-0.5) - math.exp(-1))]
    err = max(abs(leakage.leakage_probability(*args) - want)
              for args, want in exact)
    record("leakage.anchor_values", 1e-9, err, err <= 1e-9)
    worst = 0.0
    for args, _ in exact:
        est = mcharness.empirical_leakage(*args, trials, seed, threads=threads)
        ana = leakage.leakage_probability(*args)
        worst = max(worst, abs(ana - est.value) / (3 * est.std_error))
    record("leakage.mc_agreement_3sigma", 1.0, worst, worst <= 1.0)

    config, stats = configs[0]
    sol = sols[0]
    a = mcharness.empirical_outage(config, stats, sol, 20480, seed, threads=1)
    b = mcharness.empirical_outage(config, stats, sol, 20480, seed, threads=4)
    same = (a.value == b.value) and (a.std_error == b.std_error)
    record("mc.thread_determinism", 0.0, 0.0 if same else 1.0, same)

    return checks, all(c["pass"] for c in checks)


def cmd_validate(scenario, trials, seed, threads, fmt, out):
    checks, passed = run_validation(trials, seed, threads)
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="crmimo",
        description="Underlay MIMO cognitive-radio link analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("outage", True), ("antennas", True),
                               ("rate", True), ("power", True),
                               ("validate", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="scenario file (JSON)")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
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
        scenario = Scenario.load(args.config) if args.config else None
        if args.command == "validate":
            trials = args.trials if args.trials is not None else 200000
            seed = args.seed if args.seed is not None else 0
            _check_mc(trials, seed, 1)
            return cmd_validate(scenario, trials, seed, args.threads,
                                args.format, args.out)
        trials = args.trials if args.trials is not None else scenario.trials
        seed = args.seed if args.seed is not None else scenario.seed
        _check_mc(trials, seed, len(scenario.sweep_values()))
        fmt = args.format
        if fmt is None:
            fmt = "csv" if scenario.sweep is not None else "json"
        if args.command == "outage":
            return cmd_outage(scenario, trials, seed, args.threads, fmt, args.out)
        if args.command == "antennas":
            return cmd_antennas(scenario, trials, seed, fmt, args.out)
        if args.command == "rate":
            return cmd_rate(scenario, trials, seed, args.threads, fmt, args.out)
        if args.command == "power":
            return cmd_power(scenario, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except powalloc.RootFindingError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
