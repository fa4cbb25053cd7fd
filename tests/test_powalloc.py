import math

import numpy as np
import pytest
from hypothesis import given, settings

from crmimo import powalloc
from crmimo.linkstats import LinkStats
from crmimo.outage import outage_auto
from crmimo.powalloc import (
    LN2,
    RootFindingError,
    SystemConfig,
    conventional_power,
    mean_power,
    optimal_power,
    solve_lambda,
)
from crmimo.validation import mean_power_quadrature

from accuracy import multiplier_systems
from oracles import anchor_setup, equal_antenna_setup

Q_7DB = 10 ** 0.7
GAMMA_3DB = 10 ** 0.3


def test_config_validation():
    good = dict(m=2, n=4, l_t=1, l_r=1, p_p=1.0, p_max=1.0, q=1.0, gamma_th=1.0)
    SystemConfig(**good)
    for field, value in [("n", 1), ("m", 0), ("l_t", 0), ("l_r", 0),
                         ("p_p", 0.0), ("q", -1.0), ("gamma_th", 0.0)]:
        with pytest.raises(ValueError):
            SystemConfig(**{**good, field: value})
    # numpy integers are stored as ints, so the outage runs on them;
    # bools and floats, integral ones too, are refused
    numpy_ints = SystemConfig(**{**good, "m": np.int64(4), "n": np.int64(4),
                                 "l_t": np.int64(1), "l_r": np.int64(1)})
    assert [(type(v), v) for v in (numpy_ints.m, numpy_ints.n, numpy_ints.l_t, numpy_ints.l_r)] \
        == [(int, 4), (int, 4), (int, 1), (int, 1)]
    stats = LinkStats(1.0, [1.0], [1.0])
    ints = SystemConfig(**{**good, "m": 4, "n": 4})
    assert outage_auto(numpy_ints, stats, solve_lambda(numpy_ints, stats)) \
        == outage_auto(ints, stats, solve_lambda(ints, stats))
    for field in ("m", "n", "l_t", "l_r"):
        for bad in (True, 1.5, 4.0):
            with pytest.raises(ValueError, match=f"SystemConfig.{field} must be an integer"):
                SystemConfig(**{**good, field: bad})


def test_config_rejects_non_finite_values():
    good = dict(m=2, n=4, l_t=1, l_r=1, p_p=1.0, p_max=1.0, q=1.0, gamma_th=1.0)
    for field in ("p_p", "p_max", "q", "gamma_th", "n0"):
        for value in (math.nan, math.inf, True, "1", None):
            with pytest.raises(ValueError, match="finite"):
                SystemConfig(**{**good, field: value})
        # ints and numpy floats are stored as floats
        for value in (2, np.float64(2.0)):
            assert type(getattr(SystemConfig(**{**good, field: value}), field)) is float


def test_conventional_power_branches():
    config, stats = anchor_setup()
    want = min(config.q / (config.m * stats.mean_y), config.p_max / config.m)
    assert conventional_power(config, stats) == pytest.approx(want, rel=1e-14)
    assert want == config.q / (config.m * stats.mean_y)  # interference-limited here

    # single antenna, unit gain: directly the linear interference cap
    single = LinkStats(1.0, [1.0], [1.0])
    cfg1 = SystemConfig(m=1, n=1, l_t=1, l_r=1, p_p=10.0, p_max=100.0,
                        q=Q_7DB, gamma_th=GAMMA_3DB)
    assert conventional_power(cfg1, single) == pytest.approx(Q_7DB, rel=1e-14)

    # vanishing interference channel: the hardware cap takes over
    far = LinkStats(1.0, [1e-9], [1.0])
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
    # the solver's residual, and the quadrature form of the mean power,
    # independent of the closed form, at the root; the multiplier's own
    # tolerance is the solve_lambda row of tests/accuracy.py
    for config, stats in (anchor_setup(), anchor_setup(n=8), equal_antenna_setup()):
        sol = solve_lambda(config, stats)
        residual = abs(mean_power(sol.lam, config, stats) - sol.target_mean_power)
        assert residual <= 1e-10 * sol.target_mean_power
        oracle = mean_power_quadrature(sol.lam, config, stats)
        assert oracle == pytest.approx(sol.target_mean_power, rel=1e-8)


@settings(max_examples=40)
@given(multiplier_systems())
def test_quadrature_oracle_holds_on_drawn_systems(system):
    # u = C / E[X] from 1e-3 to 50 and n - m up to 40: over s = (x - C) / E[X]
    # the density has unit scale; quad on the raw [C, inf) raised on 17 of
    # 150 such draws and was 100% off at u = 0.61
    config, stats = system
    sol = solve_lambda(config, stats)
    oracle = mean_power_quadrature(sol.lam, config, stats)
    assert oracle == pytest.approx(sol.target_mean_power, rel=1e-8)


def test_solve_lambda_evaluates_no_multiplier_twice(monkeypatch):
    # the root is a bracket end, whose mean power the iteration already
    # holds; the multiplier is the 50-digit root 2.02868942356625467 of the
    # same equation, correctly rounded (the solve_lambda row of
    # tests/accuracy.py)
    calls = []
    water_fill = powalloc._water_fill

    def recorded(lam, config, stats):
        calls.append(lam)
        return water_fill(lam, config, stats)

    monkeypatch.setattr(powalloc, "_water_fill", recorded)
    sol = solve_lambda(*anchor_setup())
    assert len(calls) == len(set(calls))
    assert len(calls) <= 8
    assert sol.lam == 2.0286894235662545


def test_solver_guards_raise_root_finding_error(monkeypatch):
    config, stats = anchor_setup()
    target = conventional_power(config, stats)
    water_fill = powalloc._water_fill
    calls = []

    def no_bracket(lam, config, stats):
        return 0.0, 0.0

    def bent(lam, config, stats):
        # true values at both bracket ends, then a dip below the lower end
        calls.append(lam)
        f, d = water_fill(lam, config, stats)
        return (f, d) if len(calls) <= 2 else (-f, d)

    def stepped(lam, config, stats):
        # jumps over the target by 1e-6 of it, with no slope to follow
        f, _ = water_fill(lam, config, stats)
        return target * (1.0 + math.copysign(1e-6, f - target)), 0.0

    for fake, message in ((no_bracket, "no bracket"), (bent, "not monotone"),
                          (stepped, "did not converge")):
        monkeypatch.setattr(powalloc, "_water_fill", fake)
        with pytest.raises(RootFindingError, match=message):
            solve_lambda(config, stats)


def test_multiplier_matches_independent_quadrature_bisection():
    # solve the same root equation with the quadrature form only
    config, stats = equal_antenna_setup()
    sol = solve_lambda(config, stats)
    target = sol.target_mean_power
    lo, hi = sol.lam * 0.2, sol.lam * 5.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mean_power_quadrature(mid, config, stats) < target:
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


def test_upper_bracket_expansion_converges():
    # a weak link under a strong primary: the root lies past lam_asym * 1e6
    config = SystemConfig(m=1, n=2, l_t=1, l_r=1, p_p=1e4, p_max=1e-3, q=1e-3,
                          gamma_th=1.0)
    stats = LinkStats(1e-3, [1.0], [10.0])
    sol = solve_lambda(config, stats)
    assert sol.lam > 1e6 * LN2 * stats.mean_y * sol.target_mean_power
    assert mean_power(sol.lam, config, stats) == pytest.approx(
        sol.target_mean_power, rel=1e-10, abs=0.0)


def test_vanishing_target_solves_past_e1_underflow():
    # m = n with a target of 1.9e-23: the lower bracket end evaluates E1 at
    # u = 1.05e23, where it underflows to 0, not a stray ArithmeticError
    config = SystemConfig(m=1, n=1, l_t=1, l_r=1, p_p=1.0, p_max=1.0,
                          q=2.0 / 1.0471285480508985e23, gamma_th=1.0)
    stats = LinkStats(1.0, [1.0], [1.0])
    sol = solve_lambda(config, stats)
    assert mean_power(sol.lam, config, stats) == pytest.approx(
        sol.target_mean_power, rel=1e-10, abs=0.0)


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
    # offset / x overflows at a subnormal gain: still zero power, no warning
    assert optimal_power(1e-320, sol) == 0.0
    assert optimal_power(np.array([0.0, 1e-320, 5e-324]), sol).tolist() == [0.0] * 3
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
