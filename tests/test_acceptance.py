"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints
one PASS line on success (run with -s to see them); any failure is a
regular assertion failure.  The heavy Monte-Carlo checks use one million
trials and fixed seeds.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import crmimo as cr
from crmimo.cli import main, run_validation

Q_7DB = 10 ** 0.7
GAMMA_3DB = 10 ** 0.3
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (m, n, l_t, l_r, d_st_sr, d_pt_sr, d_st_pr): spans equal/unequal antenna
# counts, identical/distinct interference statistics and l_t in {1, 2, 4};
# entry 6 is the flagship geometry (interference cap 7 dB, primary power
# 10 dB, threshold 3 dB, power cap 20 dB, exponent 4, reference 100 m)
REGRESSION_GRID = [
    (2, 2, 1, 1, 18.0, (50.0,), (70.0,)),
    (2, 2, 2, 2, 20.0, (56.0, 56.0), (60.0, 60.0)),
    (3, 3, 2, 2, 22.0, (45.0, 70.0), (55.0, 75.0)),
    (4, 4, 4, 2, 18.0, (60.0, 60.0, 60.0, 60.0), (65.0, 65.0)),
    (4, 4, 4, 1, 20.0, (40.0, 55.0, 70.0, 85.0), (70.0,)),
    (2, 4, 1, 2, 25.0, (50.0,), (50.0, 90.0)),
    (4, 5, 2, 2, 18.0, (56.0, 56.0), (60.0, 60.0)),
    (4, 5, 2, 2, 22.0, (50.0, 65.0), (58.0, 72.0)),
    (2, 6, 4, 1, 28.0, (65.0, 65.0, 65.0, 65.0), (60.0,)),
    (3, 6, 4, 2, 26.0, (45.0, 60.0, 75.0, 90.0), (55.0, 70.0)),
    (4, 8, 1, 2, 30.0, (70.0,), (70.0, 70.0)),
    (1, 2, 2, 1, 30.0, (50.0, 80.0), (70.0,)),
]


def build(m, n, l_t, l_r, d_st_sr, d_pt_sr, d_st_pr):
    config = cr.SystemConfig(m=m, n=n, l_t=l_t, l_r=l_r, p_p=10.0,
                             p_max=100.0, q=Q_7DB, gamma_th=GAMMA_3DB)
    stats = cr.LinkStats.from_geometry(cr.Geometry(
        d_st_sr=d_st_sr, d_pt_sr=d_pt_sr, d_st_pr=d_st_pr))
    return config, stats


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_outage_closed_form_vs_monte_carlo():
    worst = 0.0
    slowest = 0.0
    for idx, spec in enumerate(REGRESSION_GRID):
        config, stats = build(*spec)
        sol = cr.solve_lambda(config, stats)
        start = time.time()
        est = cr.empirical_outage(config, stats, sol, trials=10 ** 6,
                                  seed=1000 + idx, threads=4)
        elapsed = time.time() - start
        general = cr.outage_general(config, stats, sol).p_out
        branch = cr.outage_auto(config, stats, sol)
        dev = abs(general - est.value) / est.std_error
        assert dev <= 3.0, (
            f"grid {idx}: analytic {general:.6f} vs MC {est.value:.6f} "
            f"({dev:.2f} standard errors)")
        assert abs(branch.p_out - est.value) <= 3.0 * est.std_error, (
            f"grid {idx}: branch {branch.branch}")
        assert elapsed <= 60.0, f"grid {idx}: {elapsed:.1f} s"
        worst = max(worst, dev)
        slowest = max(slowest, elapsed)
    report(1, f"12 configs, analytic outage within 3 MC standard errors "
              f"(worst {worst:.2f}), slowest config {slowest:.1f} s")


def test_criterion_2_mean_power_constraint_closure():
    config, stats = build(*REGRESSION_GRID[6])
    sol = cr.solve_lambda(config, stats)
    target = sol.target_mean_power

    gains = cr.sample_stream_gains(config, stats, 10 ** 6, seed=2000)
    powers = cr.optimal_power(gains, sol)
    se = float(np.std(powers, ddof=1) / math.sqrt(powers.size))
    dev = abs(float(np.mean(powers)) - target)
    assert dev <= 3 * se, f"mean power off by {dev / se:.2f} standard errors"

    residual = abs(cr.mean_power(sol.lam, config, stats) - target)
    assert residual <= 1e-10 * target

    shape, scale = config.diversity_order, stats.mean_x

    def integrand(x):
        pdf = x ** (shape - 1) * math.exp(-x / scale) / (
            math.gamma(shape) * scale ** shape)
        return (sol.slope - sol.offset / x) * pdf

    oracle, _ = quad(integrand, sol.c_threshold, np.inf, limit=300,
                     epsabs=1e-13, epsrel=1e-12)
    assert abs(oracle - target) <= 1e-8 * target
    report(2, f"MC mean within {dev / se:.2f} standard errors; closed-form "
              f"residual {residual / target:.1e}, quadrature gap "
              f"{abs(oracle - target) / target:.1e}")


def test_criterion_3_reduction_identities():
    # equal antenna counts: the double sum collapses to the single sum
    config, stats = build(*REGRESSION_GRID[2])
    sol = cr.solve_lambda(config, stats)
    gap_equal = abs(cr.outage_general(config, stats, sol).p_out
                    - cr.outage_equal_antennas(config, stats, sol).p_out)
    assert gap_equal <= 1e-12

    # identical transmitters with equal antenna counts: single-term form
    config, stats = build(*REGRESSION_GRID[3])
    sol = cr.solve_lambda(config, stats)
    from crmimo.outage import _cdf_coefficients, _mixed_outage_iid

    a, bn = _cdf_coefficients(config, stats, sol, config.gamma_th)
    reduced = cr.outage_iid_pts(config, stats, sol).p_out
    double_sum = _mixed_outage_iid(a, bn, config.diversity_order,
                                   stats.mean_z_per_pt[0], stats.l_t)
    gap_iid = abs(reduced - double_sum)
    assert gap_iid <= 1e-12

    # a single primary transmitter collapses both branches
    config, stats = build(*REGRESSION_GRID[5])
    sol = cr.solve_lambda(config, stats)
    gap_lt1 = abs(cr.outage_general(config, stats, sol).p_out
                  - cr.outage_iid_pts(config, stats, sol).p_out)
    assert gap_lt1 <= 1e-10
    report(3, f"equal-antenna gap {gap_equal:.1e}, identical-transmitter gap "
              f"{gap_iid:.1e}, single-transmitter gap {gap_lt1:.1e}")


def test_criterion_4_distributional_equivalence():
    cases = [build(1, 1, 1, 1, 30.0, (56.0,), (60.0,)),
             build(4, 5, 2, 2, 18.0, (56.0, 56.0), (60.0, 60.0)),
             build(2, 6, 3, 1, 30.0, (45.0, 60.0, 75.0), (60.0,))]
    min_p = 1.0
    for config, stats in cases:
        chk = cr.zf_distribution_check(config, stats, trials=10 ** 5, seed=12,
                                       threads=4)
        assert chk.gain_pvalue > 0.01, (config.n, config.m, chk)
        assert chk.interference_pvalue > 0.01, (config.n, config.m, chk)
        min_p = min(min_p, chk.gain_pvalue, chk.interference_pvalue)
    report(4, f"KS tests at 1e5 trials for (n,m) in (1,1),(5,4),(6,2); "
              f"smallest p-value {min_p:.3f} > 0.01")


def test_criterion_5_order_statistics_means():
    rng = np.random.default_rng(50)
    worst_mc = 0.0
    for _ in range(6):
        means = rng.uniform(0.3, 6.0, size=rng.integers(2, 6))
        draws = rng.exponential(means, size=(10 ** 6, means.size))
        emp = draws.max(axis=1)
        se = emp.std(ddof=1) / math.sqrt(emp.size)
        dev = abs(cr.mean_max_inid(list(means)) - emp.mean()) / se
        assert dev <= 3.0
        worst_mc = max(worst_mc, dev)
    for l_r in (1, 2, 4):
        draws = rng.exponential(2.0, size=(10 ** 6, l_r)).max(axis=1)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        dev = abs(cr.mean_max_iid(2.0, l_r) - draws.mean()) / se
        assert dev <= 3.0
        worst_mc = max(worst_mc, dev)

    # inclusion-exclusion oracle
    for _ in range(100):
        means = list(rng.uniform(0.1, 9.0, size=rng.integers(1, 7)))
        oracle = sum((-1.0) ** (r + 1) / sum(1.0 / m for m in sub)
                     for r in range(1, len(means) + 1)
                     for sub in itertools.combinations(means, r))
        assert cr.mean_max_inid(means) == pytest.approx(oracle, rel=1e-9)

    for _ in range(1000):
        means = list(rng.uniform(0.05, 20.0, size=rng.integers(1, 7)))
        assert cr.mean_sum_inid(means) == pytest.approx(sum(means), rel=1e-10)
    report(5, f"max/sum statistics match MC within 3 standard errors (worst "
              f"{worst_mc:.2f}), oracle within 1e-9, linearity within 1e-10 "
              f"over 1000 cases")


def test_criterion_6_leakage_tail_anchors():
    anchors = [
        ([1.0], [1.0], 1.0, math.exp(-1)),
        ([1.0, 2.0], [1.0], 1.0, 2 * math.exp(-0.5) - math.exp(-1)),
        ([0.5, 1.3, 2.2], [0.8, 0.3], 2.5, None),
        ([2.0, 2.0, 2.0, 2.0], [0.5], 5.0, None),
        ([0.8, 1.7], [1.2, 0.6, 0.2], 3.0, None),
    ]
    worst = 0.0
    for idx, (powers, means, q, exact) in enumerate(anchors):
        ana = cr.leakage_probability(powers, means, q)
        if exact is not None:
            assert ana == pytest.approx(exact, rel=1e-12)
        est = cr.empirical_leakage(powers, means, q, trials=10 ** 6,
                                   seed=600 + idx, threads=4)
        dev = abs(ana - est.value) / est.std_error
        assert dev <= 3.0, (idx, ana, est)
        worst = max(worst, dev)
    report(6, f"five tail anchors (incl. e^-1 and 2e^-1/2 - e^-1) within "
              f"3 MC standard errors (worst {worst:.2f})")


def test_criterion_7_large_array_limits():
    # deterministic per-stream power at n = 512
    config, stats = build(4, 512, 2, 2, 18.0, (56.0, 56.0), (60.0, 60.0))
    sol = cr.solve_lambda(config, stats)
    gains = cr.sample_stream_gains(config, stats, 10 ** 6, seed=700)
    mc_mean = float(np.mean(cr.optimal_power(gains, sol)))
    asym = cr.conventional_power(config, stats)
    power_dev = abs(mc_mean - asym) / asym
    assert power_dev <= 0.02

    # deterministic rate in the joint large-array regime: the gap shrinks
    # as n = l_t grows and is inside 5% at 80
    gaps = []
    for idx, n_lt in enumerate((20, 80)):
        config, stats = build(16, n_lt, n_lt, 1, 15.0,
                              tuple([30.0] * n_lt), (300.0,))
        sol = cr.solve_lambda(config, stats)
        est = cr.empirical_rate(config, stats, sol, trials=16384,
                                seed=701 + idx, threads=4)
        det = math.log2(1.0 + cr.asymptotic_sinr(
            "both_massive_lt_massive", config, stats, sol).limit)
        gaps.append(abs(est.value - det) / det)
        semi = cr.ergodic_capacity(config, stats, sol)
        assert abs(semi - est.value) <= 3 * est.std_error
    assert gaps[1] < gaps[0]
    rate_dev = gaps[1]
    assert rate_dev <= 0.05
    report(7, f"n=512 mean power within {power_dev:.2%} of the limit; "
              f"n=l_t=80 MC rate within {rate_dev:.2%} of the deterministic "
              f"rate (gap shrinking from {gaps[0]:.2%} at n=l_t=20)")


def _scenario_points(name):
    from crmimo.cli import Scenario

    scenario = Scenario.load(str(SCENARIOS / name))
    return scenario, scenario.sweep_values()


def test_criterion_8_figure_trends():
    # optimal allocation never loses to the fixed one on the outage sweeps
    for name in ("outage_vs_pr_distance.json", "outage_vs_link_distance.json",
                 "outage_vs_interferer_distance.json"):
        scenario, values = _scenario_points(name)
        for value in values:
            config, stats, _ = scenario.build_point(value)
            sol = cr.solve_lambda(config, stats)
            p_opt = cr.outage_auto(config, stats, sol).p_out
            p_conv = cr.outage_fixed_power(
                config, stats, cr.conventional_power(config, stats))
            assert p_opt <= p_conv + 1e-12, (name, value, p_opt, p_conv)

    # tightening the leakage tolerance never keeps more antennas
    scenario, values = _scenario_points("antennas_vs_pr_distance.json")
    for value in values:
        config, stats, _ = scenario.build_point(value)
        sol = cr.solve_lambda(config, stats)
        loose = cr.antenna_pmf(config, stats, sol, 0.1, trials=2000, seed=850)
        tight = cr.antenna_pmf(config, stats, sol, 0.05, trials=2000, seed=850)
        assert tight.mean_active <= loose.mean_active + 1e-12

    # the normalized active count rises towards one with the array size
    scenario, values = _scenario_points("antennas_vs_array_size.json")
    ratios = []
    for idx, value in enumerate(values):
        config, stats, t_g = scenario.build_point(value)
        sol = cr.solve_lambda(config, stats)
        pmf = cr.antenna_pmf(config, stats, sol, t_g, trials=2000,
                             seed=860 + idx)
        ratios.append(pmf.mean_active / config.m)
    assert all(b >= a - 0.01 for a, b in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] >= 0.98, ratios

    # antenna reduction only improves the outage in the massive regime
    scenario, values = _scenario_points("outage_massive_reduction.json")
    for idx, value in enumerate(values):
        config, stats, t_g = scenario.build_point(value)
        sol = cr.solve_lambda(config, stats)
        fixed = cr.outage_auto(config, stats, sol).p_out
        pmf = cr.antenna_pmf(config, stats, sol, t_g, trials=600,
                             seed=870 + idx)
        mixed = pmf.pmf[0] * 1.0
        for l in range(1, config.m + 1):
            if pmf.pmf[l] == 0.0:
                continue
            cfg_l = cr.SystemConfig(m=l, n=config.n, l_t=config.l_t,
                                    l_r=config.l_r, p_p=config.p_p,
                                    p_max=config.p_max, q=config.q,
                                    gamma_th=config.gamma_th, n0=config.n0)
            sol_l = cr.solve_lambda(cfg_l, stats)
            mixed += pmf.pmf[l] * cr.outage_auto(cfg_l, stats, sol_l).p_out
        assert mixed <= fixed + 1e-12, (value, mixed, fixed)
    report(8, "bundled sweeps: optimal <= conventional outage everywhere; "
              "tighter tolerance never raises the active count; "
              f"active-count ratio climbs to {ratios[-1]:.3f}; "
              "reduction outage <= fixed outage in the massive regime")


def test_criterion_9_deterministic_output(tmp_path):
    scenario_path = str(SCENARIOS / "outage_vs_pr_distance.json")
    csv1, csv8 = tmp_path / "s1.csv", tmp_path / "s8.csv"
    assert main(["outage", "--config", scenario_path, "--trials", "50000",
                 "--threads", "1", "--out", str(csv1)]) == 0
    assert main(["outage", "--config", scenario_path, "--trials", "50000",
                 "--threads", "8", "--out", str(csv8)]) == 0
    assert csv1.read_bytes() == csv8.read_bytes()

    rep1, rep8 = tmp_path / "v1.json", tmp_path / "v8.json"
    assert main(["validate", "--trials", "60000", "--seed", "5",
                 "--threads", "1", "--out", str(rep1)]) == 0
    assert main(["validate", "--trials", "60000", "--seed", "5",
                 "--threads", "8", "--out", str(rep8)]) == 0
    assert rep1.read_bytes() == rep8.read_bytes()

    checks, passed = run_validation(trials=60000, seed=5, threads=2)
    assert passed
    report(9, f"sweep CSV and validation report byte-identical across 1 and 8 "
              f"threads; full validation grid green ({len(checks)} checks)")
