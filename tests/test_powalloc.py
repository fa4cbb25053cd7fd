import math

import numpy as np
import pytest
from scipy.integrate import quad

from crmimo.linkstats import Geometry, LinkStats
from crmimo.powalloc import (
    LN2,
    SystemConfig,
    conventional_power,
    mean_power,
    optimal_power,
    solve_lambda,
)

Q_7DB = 10 ** 0.7
GAMMA_3DB = 10 ** 0.3


def anchor_setup(n=5):
    geom = Geometry(d_st_sr=18.0, d_pt_sr=(56.0, 56.0), d_st_pr=(60.0, 60.0))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=4, n=n, l_t=2, l_r=2, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    return config, stats


def equal_antenna_setup():
    geom = Geometry(d_st_sr=30.0, d_pt_sr=(45.0, 70.0), d_st_pr=(55.0, 75.0))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=3, n=3, l_t=2, l_r=2, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    return config, stats


def erlang_pdf(x, shape, scale):
    return x ** (shape - 1) * math.exp(-x / scale) / (math.gamma(shape) * scale ** shape)


def quadrature_mean_power(lam, config, stats):
    """Independent oracle: numerically integrate the clipped allocation
    against the stream-gain density."""
    slope = lam / (LN2 * stats.mean_y)
    offset = config.p_p * stats.mean_z + config.n0
    c = offset / slope
    shape, scale = config.diversity_order, stats.mean_x
    val, err = quad(lambda x: (slope - offset / x) * erlang_pdf(x, shape, scale),
                    c, np.inf, limit=300, epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-10
    return val


def test_config_validation():
    good = dict(m=2, n=4, l_t=1, l_r=1, p_p=1.0, p_max=1.0, q=1.0, gamma_th=1.0)
    SystemConfig(**good)
    for field, value in [("n", 1), ("m", 0), ("l_t", 0), ("l_r", 0),
                         ("p_p", 0.0), ("q", -1.0), ("gamma_th", 0.0)]:
        with pytest.raises(ValueError):
            SystemConfig(**{**good, field: value})


def test_config_rejects_non_finite_values():
    good = dict(m=2, n=4, l_t=1, l_r=1, p_p=1.0, p_max=1.0, q=1.0, gamma_th=1.0)
    for field in ("p_p", "p_max", "q", "gamma_th", "n0"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SystemConfig(**{**good, field: value})


def test_conventional_power_branches():
    config, stats = anchor_setup()
    want = min(config.q / (config.m * stats.mean_y), config.p_max / config.m)
    assert conventional_power(config, stats) == pytest.approx(want, rel=1e-14)
    assert want == config.q / (config.m * stats.mean_y)  # interference-limited here

    # single antenna, unit gain: directly the linear interference cap
    single = LinkStats.from_means(1.0, [1.0], [1.0])
    cfg1 = SystemConfig(m=1, n=1, l_t=1, l_r=1, p_p=10.0, p_max=100.0,
                        q=Q_7DB, gamma_th=GAMMA_3DB)
    assert conventional_power(cfg1, single) == pytest.approx(Q_7DB, rel=1e-14)

    # vanishing interference channel: the hardware cap takes over
    far = LinkStats.from_means(1.0, [1e-9], [1.0])
    assert conventional_power(cfg1, far) == pytest.approx(100.0, rel=1e-14)


def test_solution_invariants():
    for config, stats in (anchor_setup(), equal_antenna_setup()):
        sol = solve_lambda(config, stats)
        ey, ez = stats.mean_y, stats.mean_z
        c_expected = LN2 * (ey * config.n0 + config.p_p * ey * ez) / sol.lam
        assert sol.c_threshold == pytest.approx(c_expected, rel=1e-12)
        assert sol.slope * sol.c_threshold == pytest.approx(sol.offset, rel=1e-12)
        assert sol.target_mean_power == pytest.approx(
            min(config.q / (config.m * ey), config.p_max / config.m), rel=1e-14)


def test_root_residual_and_quadrature_oracle():
    for config, stats in (anchor_setup(), anchor_setup(n=8), equal_antenna_setup()):
        sol = solve_lambda(config, stats)
        residual = abs(mean_power(sol.lam, config, stats) - sol.target_mean_power)
        assert residual <= 1e-10 * sol.target_mean_power
        oracle = quadrature_mean_power(sol.lam, config, stats)
        assert oracle == pytest.approx(sol.target_mean_power, rel=1e-8)


def test_multiplier_matches_independent_quadrature_bisection():
    # solve the same root equation with the quadrature form only
    config, stats = equal_antenna_setup()
    sol = solve_lambda(config, stats)
    target = sol.target_mean_power
    lo, hi = sol.lam * 0.2, sol.lam * 5.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if quadrature_mean_power(mid, config, stats) < target:
            lo = mid
        else:
            hi = mid
    assert sol.lam == pytest.approx(0.5 * (lo + hi), rel=1e-7)


def test_many_receive_antennas_multiplier_limit():
    config, stats = anchor_setup(n=256)
    sol = solve_lambda(config, stats)
    lam_limit = min(LN2 * config.q / config.m,
                    LN2 * stats.mean_y * config.p_max / config.m)
    assert sol.lam == pytest.approx(lam_limit, rel=0.02)


def test_power_cap_branch():
    config, stats = anchor_setup()
    capped = SystemConfig(m=config.m, n=config.n, l_t=config.l_t, l_r=config.l_r,
                          p_p=config.p_p, p_max=config.p_max, q=1e9,
                          gamma_th=config.gamma_th)
    sol = solve_lambda(capped, stats)
    assert sol.target_mean_power == pytest.approx(config.p_max / config.m, rel=1e-14)
    residual = abs(mean_power(sol.lam, capped, stats) - sol.target_mean_power)
    assert residual <= 1e-10 * sol.target_mean_power


def test_optimal_power_shape():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    c = sol.c_threshold
    assert optimal_power(c, sol) == pytest.approx(0.0, abs=1e-15)
    assert optimal_power(0.0, sol) == 0.0
    assert optimal_power(1e12 * c, sol) == pytest.approx(sol.slope, rel=1e-10)
    # at 2C the rule gives exactly half the asymptotic power
    assert optimal_power(2 * c, sol) == pytest.approx(sol.slope / 2, rel=1e-12)
    arr = optimal_power(np.array([0.5 * c, c, 2 * c]), sol)
    assert arr.shape == (3,) and arr[0] == 0.0


def test_optimal_power_monotone_concave():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    xs = np.linspace(1.001 * sol.c_threshold, 50 * sol.c_threshold, 200)
    p = optimal_power(xs, sol)
    dp = np.diff(p)
    assert np.all(dp > 0)
    assert np.all(np.diff(dp) < 1e-15)


def test_mean_power_constraint_monte_carlo():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    rng = np.random.default_rng(31415)
    x = rng.gamma(config.diversity_order, stats.mean_x, size=200000)
    p = optimal_power(x, sol)
    se = p.std(ddof=1) / math.sqrt(p.size)
    assert abs(p.mean() - sol.target_mean_power) <= 3 * se


def test_mean_power_converges_with_receive_antennas():
    # at the limiting multiplier, the enforced mean rises monotonically to
    # the deterministic per-stream power as the array grows
    _, stats = anchor_setup()
    geom_cfg = dict(m=4, l_t=2, l_r=2, p_p=10.0, p_max=100.0, q=Q_7DB,
                    gamma_th=GAMMA_3DB)
    asym = None
    prev = -np.inf
    for n in (8, 32, 128, 512):
        config = SystemConfig(n=n, **geom_cfg)
        asym = conventional_power(config, stats)
        lam_limit = LN2 * stats.mean_y * asym
        val = mean_power(lam_limit, config, stats)
        assert val > prev
        prev = val
    assert prev == pytest.approx(asym, rel=0.02)
