"""Validation grid: every closed form against an independent oracle.

`run_validation` checks the Erlang-tail kernels' identities, the
order-statistic and hypoexponential laws, the multiplier equation, the
outage mixture and the Monte-Carlo agreement of the zero-forcing chain on a
small grid of scenarios; `crmimo validate` prints its rows and writes them
as a report.  This module holds the double-precision oracles that grid
runs: inclusion-exclusion, the hypoexponential density, quadrature of the
outage mixture and of the mean power, and Monte-Carlo draws on `mcharness`
blocks and stream ids (direct Erlang draws of the stream gain,
`sample_stream_gains`, and the empirical leakage, `empirical_leakage`).
The high-precision and test-only oracles, the Kolmogorov-Smirnov check of
the ZF statistics among them, live in `tests/oracles.py`.  The library
never imports this module.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad

from . import leakage, linkstats, mcharness, outage, powalloc
from .specfun import _finite, _positives, erlang_tails, regularized_upper_gamma

# (m, n, l_t, l_r, d_st_sr, d_pt_sr, d_st_pr) at interference cap 7 dB,
# primary power 10 dB, power cap 20 dB and threshold 3 dB: both multiplier
# branches, identical and distinct interference statistics and every
# closed-form reduction; TIED makes two of three interferer means equal
GRID = (
    (4, 5, 2, 2, 18.0, (56.0, 56.0), (60.0, 60.0)),
    (3, 3, 2, 2, 25.0, (45.0, 70.0), (55.0, 75.0)),
    (2, 6, 4, 1, 30.0, (45.0, 60.0, 75.0, 90.0), (65.0,)),
    (1, 2, 2, 1, 35.0, (50.0, 80.0), (70.0,)),
)
TIED = (4, 5, 3, 2, 18.0, (56.0, 56.0, 70.0), (60.0, 60.0))


def _system(m, n, l_t, l_r, d_st_sr, d_pt_sr, d_st_pr):
    """(SystemConfig, LinkStats) at the validation powers."""
    config = powalloc.SystemConfig(m=m, n=n, l_t=l_t, l_r=l_r, p_p=10.0, p_max=100.0,
                                   q=10 ** 0.7, gamma_th=10 ** 0.3)
    return config, linkstats.LinkStats.from_geometry(linkstats.Geometry(
        d_st_sr=d_st_sr, d_pt_sr=d_pt_sr, d_st_pr=d_st_pr))


def _point(*spec):
    """(SystemConfig, LinkStats, PowerSolution) of `_system`."""
    config, stats = _system(*spec)
    return config, stats, powalloc.solve_lambda(config, stats)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def max_mean_oracle(means):
    """E[max] of independent exponentials by inclusion-exclusion: the sum
    over non-empty subsets S of (-1)^(|S|+1) / sum_{i in S} 1/m_i."""
    total = 0.0
    for r in range(1, len(means) + 1):
        for sub in itertools.combinations(means, r):
            total += (-1.0) ** (r + 1) / sum(1.0 / m for m in sub)
    return total


def sum_density_inid(z, means):
    """Density at z >= 0 of a sum of independent exponentials with the given
    means: the absorption flow out of the last stage of the stage chain over
    the sorted means, whose largest mean the negligible-stage cut never drops.
    """
    stack = np.sort(_positives(means, "means"))[None]
    z = _finite(z, "z")
    if z < 0.0:
        raise ValueError(f"z must be finite and >= 0, got {z!r}")
    occupancy = linkstats._stage_chain(stack[:, linkstats._negligible_cuts(stack)[0]:], z)
    # times the chain's last rate 1 / mean, not over the mean: the two round apart
    return max(0.0, float(occupancy[0, -1] * (1.0 / stack[0, -1])))


def _mixed_outage_quadrature(a, bn, n_terms, z_means):
    """Pr[stream power CDF argument below threshold], mixed over the
    interference by direct quadrature: int (1 - Q(n_terms, a z + bn)) f_Z(z) dz.

    Same quantity as the outage of `outage.outage_auto`, valid for any tie
    structure.
    """
    means = np.array(_positives(z_means, "interference means"))

    def integrand(z):
        return ((1.0 - regularized_upper_gamma(n_terms, a * z + bn))
                * sum_density_inid(z, means))

    # the Chernoff bound at s = 1 / (2 max m) leaves under e^-40 of the
    # mass of Z beyond 2 E[Z] + 80 max m; one adaptive `quad` per piece
    total = math.fsum(means)
    edges = (0.0, total, 2.0 * total + 80.0 * means.max())
    pieces = [quad(integrand, lo, hi, limit=200) for lo, hi in zip(edges, edges[1:])]
    val, err = math.fsum(v for v, _ in pieces), math.fsum(e for _, e in pieces)
    if err > 1e-7:
        raise ArithmeticError(f"outage quadrature error {err:.2e} exceeds 1e-7")
    return min(1.0, max(0.0, val))


def mean_power_quadrature(lam, config, stats):
    """`powalloc.mean_power` by quadrature: the allocation slope - offset / x
    over the Erlang(n - m + 1, E[X]) density of the stream gain, from the
    activation threshold C = offset / slope on.  Over s = (x - C) / E[X],
    where the density has unit scale whatever u = C / E[X], the integrand
    is slope s (u + s)^(N - 2) e^-(u + s) / Gamma(N), formed in log space.
    Raises ArithmeticError when quad's error estimate exceeds 1e-10 of the
    value."""
    slope = lam / (powalloc.LN2 * stats.mean_y)
    u = (config.p_p * stats.mean_z + config.n0) / (slope * stats.mean_x)
    shape = config.diversity_order
    log_norm = -u - math.lgamma(shape)

    def integrand(s):
        return slope * s * math.exp((shape - 2) * math.log(u + s) - s + log_norm)

    val, err = quad(integrand, 0.0, np.inf, limit=300, epsabs=0.0, epsrel=1e-12)
    if err > 1e-10 * val:
        raise ArithmeticError(f"mean power quadrature error {err:.2e} exceeds 1e-10 of {val:.6e}")
    return val


# ---------------------------------------------------------------------------
# Monte-Carlo oracles
# ---------------------------------------------------------------------------

def sample_stream_gains(config, stats, trials, seed, threads=1):
    """Direct Erlang(n-m+1, E[X]) draws of the per-stream effective gain."""
    trials, seed, threads = mcharness._check_mc(trials, seed, threads)
    draw = mcharness._erlang_draw(config, stats, seed, mcharness.STREAM_GAINS)
    return np.concatenate(mcharness.run_blocks(trials, draw, threads))


def empirical_leakage(powers, mean_y_per_pr, q, trials, seed, threads=1):
    """Frequency of min_j sum_i p_i |y_j^(i)|^2 > q over exponential draws
    of the interfering gains (the event that every primary receiver sees
    aggregate interference above q)."""
    trials, seed, threads = mcharness._check_mc(trials, seed, threads)
    p, means, q = leakage.checked_leakage_inputs(powers, mean_y_per_pr, q)

    def worker(block, size):
        rng = mcharness.block_generator(seed, mcharness.STREAM_LEAKAGE, block)
        y = rng.exponential(1.0, size=(size, means.size, p.size)) * means[None, :, None]
        s = y @ p
        return (s > q).all(axis=1).astype(float)

    return mcharness._estimate(mcharness.run_blocks(trials, worker, threads), trials, seed)


# ---------------------------------------------------------------------------
# checks: each returns the observed error of one row
# ---------------------------------------------------------------------------

def _sigmas(analytic, est):
    """|analytic - est.value| in units of three standard errors.  Too few
    trials can leave every draw alike and the standard error 0: the gap
    then reads 0 on exact agreement and inf otherwise."""
    if est.std_error == 0.0:
        return 0.0 if analytic == est.value else math.inf
    return abs(analytic - est.value) / (3 * est.std_error)


def _recurrence_gap(n, x):
    """Relative gap of Q(n + 1, x) = Q(n, x) + e^-x x^n / n!."""
    rhs = regularized_upper_gamma(n, x) + math.exp(n * math.log(x) - x - math.lgamma(n + 1))
    return abs(regularized_upper_gamma(n + 1, x) - rhs) / rhs


def _tails_gap():
    """erlang_tails against the scalar Q(n, x), n <= 30, across the log-space
    switch at 700, where the two round n ln x - x apart (8.5e-14 at Q(23, 750))."""
    xs = np.append(np.geomspace(1e-6, 50, 40), [650.0, 750.0, 1200.0])
    tails = erlang_tails(30, xs)
    return max(abs(tails[n - 1, i] - q) / (q + 1e-300) for n in range(1, 31)
               for i, q in enumerate(regularized_upper_gamma(n, x) for x in xs))


def _max_oracle_gap(seed):
    """mean_max_inid against inclusion-exclusion on 20 random mean sets."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    err = 0.0
    for _ in range(20):
        means = rng.uniform(0.2, 8.0, size=rng.integers(1, 6))
        oracle = max_mean_oracle(means)
        err = max(err, abs(linkstats.mean_max_inid(list(means)) - oracle) / oracle)
    return err


def _kernel_gap(config, stats, sol):
    """`outage_auto` against quadrature of the paper's received-power CDF
    1 - Q(n-m+1, x / (slope E[X]) + C / E[X]) at x = gamma (p_p z + n0) over
    the interference density: the CDF argument is a z + bn."""
    c1 = config.gamma_th / (sol.slope * stats.mean_x)
    a, bn = config.p_p * c1, config.n0 * c1 + sol.c_threshold / stats.mean_x
    return abs(outage.outage_auto(config, stats, sol).p_out - _mixed_outage_quadrature(
        a, bn, config.diversity_order, stats.mean_z_per_pt))


def _power_constraint_sigmas(config, stats, sol, trials, seed, threads):
    """The enforced mean power against the mean of the allocation over
    direct draws of the stream gain."""
    gains = sample_stream_gains(config, stats, trials, seed, threads)
    est = mcharness._estimate([powalloc.optimal_power(gains, sol)], trials, seed)
    return _sigmas(sol.target_mean_power, est)


def _thread_gap(config, stats, sol, seed):
    """0 when 1 and 4 threads give the same estimate, 1 otherwise."""
    one, four = (mcharness.empirical_outage(config, stats, sol, 20480, seed, threads=t)
                 for t in (1, 4))
    return 0.0 if one == four else 1.0


def run_validation(trials, seed, threads):
    """Run the grid; returns (checks, passed).  Each check is a row
    {name, tolerance, observed, pass} that passes when observed <= tolerance."""
    points = [_point(*spec) for spec in GRID]
    anchors = [(([1.0], [1.0], 1.0), math.exp(-1)),
               (([1.0, 2.0], [1.0], 1.0), 2 * math.exp(-0.5) - math.exp(-1))]
    rows = [
        ("specfun.erlang_tails", 1e-12, _tails_gap()),
        ("specfun.tail_recurrence", 1e-12,
         max(_recurrence_gap(n, x) for n in range(1, 31) for x in np.geomspace(1e-3, 40, 12))),
        ("linkstats.max_oracle", 1e-9, _max_oracle_gap(seed)),
        # k tied means m make the sum an Erlang: tail Q(k, q / m)
        ("linkstats.tied_tail", 1e-12,
         max(abs(leakage.leakage_probability([m] * k, [1.0], x * m) - regularized_upper_gamma(k, x))
             for m in (0.3, 2.5) for k in range(1, 7) for x in (0.1, 1.0, 4.0, 15.0))),
        ("linkstats.density_normalization", 1e-6,
         max(abs(quad(lambda z: sum_density_inid(z, means), 0, 60 * max(means),
                      limit=200)[0] - 1.0)
             for means in ([1.0, 2.5], [0.5, 1.5, 4.0]))),
        ("powalloc.residual", 1e-10,
         max(abs(powalloc.mean_power(sol.lam, config, stats) - sol.target_mean_power)
             / sol.target_mean_power for config, stats, sol in points)),
        ("powalloc.quadrature_oracle", 1e-8,
         max(abs(mean_power_quadrature(sol.lam, config, stats) - sol.target_mean_power)
             / sol.target_mean_power for config, stats, sol in points)),
        ("outage.closed_form_vs_quadrature", 1e-12,
         max(_kernel_gap(*point) for point in points[1:])),
        ("outage.tied_vs_quadrature", 1e-12,
         max(_kernel_gap(*point) for point in (points[0], _point(*TIED)))),
        ("outage.mc_agreement_3sigma", 1.0,
         max(_sigmas(outage.outage_auto(config, stats, sol).p_out,
                     mcharness.empirical_outage(config, stats, sol, trials, seed,
                                                threads=threads))
             for config, stats, sol in points[:3])),
        ("powalloc.mc_constraint_3sigma", 1.0,
         _power_constraint_sigmas(*points[0], trials, seed, threads)),
        ("leakage.anchor_values", 1e-9,
         max(abs(leakage.leakage_probability(*args) - want) for args, want in anchors)),
        ("leakage.mc_agreement_3sigma", 1.0,
         max(_sigmas(leakage.leakage_probability(*args),
                     empirical_leakage(*args, trials, seed, threads=threads))
             for args, _ in anchors)),
        ("mc.thread_determinism", 0.0, _thread_gap(*points[0], seed)),
    ]
    checks = [{"name": name, "tolerance": tolerance, "observed": observed,
               "pass": bool(observed <= tolerance)}
              for name, tolerance, observed in rows]
    return checks, all(c["pass"] for c in checks)
