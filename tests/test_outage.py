import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from crmimo import outage
from crmimo.linkstats import Geometry, LinkStats, sum_density_inid, trusted_pf_weights
from crmimo.mcharness import empirical_outage, empirical_rate, sample_stream_gains
from crmimo.outage import (
    _MAX_LOG_TERM,
    _cdf_coefficients,
    _logaddexp,
    _mixed_outage_iid,
    _mixed_outage_inid,
    _mixed_outage_quadrature,
    asymptotic_sinr,
    average_ser_binary,
    ergodic_capacity,
    outage_auto,
    outage_fixed_power,
    outage_general,
    outage_iid_pts,
    received_power_cdf,
)
from crmimo.powalloc import (
    LN2,
    PowerSolution,
    SystemConfig,
    conventional_power,
    optimal_power,
    solve_lambda,
)
from crmimo.specfun import regularized_upper_gamma

Q_7DB = 10 ** 0.7
GAMMA_3DB = 10 ** 0.3


def anchor_setup():
    geom = Geometry(d_st_sr=18.0, d_pt_sr=(56.0, 56.0), d_st_pr=(60.0, 60.0))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=4, n=5, l_t=2, l_r=2, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    return config, stats


def inid_setup(m=3, n=6):
    geom = Geometry(d_st_sr=28.0, d_pt_sr=(45.0, 60.0, 75.0, 90.0),
                    d_st_pr=(58.0, 72.0))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=m, n=n, l_t=4, l_r=2, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    return config, stats


def degenerate_solution():
    """Vanishing multiplier: the activation threshold diverges and every
    stream is silent, so the outage is 1 at any threshold."""
    lam = 1e-12
    ey, offset = 1.0, 10.0
    slope = lam / (LN2 * ey)
    return PowerSolution(lam=lam, c_threshold=offset / slope,
                         target_mean_power=0.0, slope=slope, offset=offset)


def test_received_power_cdf_endpoints():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    inactivity = 1.0 - regularized_upper_gamma(
        config.diversity_order, sol.c_threshold / stats.mean_x)
    assert received_power_cdf(0.0, sol, config, stats) == pytest.approx(inactivity, rel=1e-12)
    assert received_power_cdf(1e15, sol, config, stats) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0, 5000, 300)
    vals = [received_power_cdf(x, sol, config, stats) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_received_power_cdf_against_sampled_allocation():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    gains = sample_stream_gains(config, stats, 200000, seed=17)
    received = optimal_power(gains, sol) * gains
    for x in [0.0, 50.0, 200.0, 800.0]:
        emp = float(np.mean(received <= x))
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / received.size)
        assert abs(received_power_cdf(x, sol, config, stats) - emp) <= 3 * se + 1e-12


def test_outage_limits_and_bounds():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    assert outage_general(config, stats, sol, gamma_th=1e12).p_out == pytest.approx(1.0, abs=1e-9)
    res = outage_general(config, stats, sol)
    assert 0.0 <= res.p_out <= 1.0
    assert res.branch == "general"
    assert res.lambda_used == sol.lam and res.c_used == sol.c_threshold


def test_equal_antenna_reduction_identity():
    # at m == n the general closed form keeps one diversity term, the
    # single sum 1 - sum_k w_k e^{-bn} / (a E[Z_k] + 1); it must agree with
    # direct quadrature of the same mixture
    geom = Geometry(d_st_sr=30.0, d_pt_sr=(45.0, 70.0), d_st_pr=(55.0, 75.0))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=3, n=3, l_t=2, l_r=2, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    sol = solve_lambda(config, stats)
    general = outage_general(config, stats, sol)
    assert outage_auto(config, stats, sol) == general
    a, bn = _cdf_coefficients(config, stats, sol, config.gamma_th)
    ms, w = trusted_pf_weights(stats.mean_z_per_pt)
    single_sum = 1.0 - math.fsum(float(wk) * math.exp(-bn) / (a * float(mk) + 1.0)
                                 for mk, wk in zip(ms, w))
    assert abs(general.p_out - single_sum) <= 1e-12
    quadrature = _mixed_outage_quadrature(a, bn, 1, stats.mean_z_per_pt)
    assert abs(general.p_out - quadrature) <= 1e-12


def test_single_transmitter_collapses_branches():
    geom = Geometry(d_st_sr=25.0, d_pt_sr=(56.0,), d_st_pr=(60.0, 75.0))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=2, n=4, l_t=1, l_r=2, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    sol = solve_lambda(config, stats)
    a = outage_general(config, stats, sol).p_out
    b = outage_iid_pts(config, stats, sol).p_out
    assert a == pytest.approx(b, rel=1e-10)


def test_tied_means_match_iid_branch_without_the_iid_flag():
    # the general evaluators do not trust partial fractions at an exact
    # tie; they integrate the exact density instead of perturbing the means
    config, stats = anchor_setup()
    assert stats.iid_z
    sol = solve_lambda(config, stats)
    assert abs(outage_general(config, stats, sol).p_out
               - outage_iid_pts(config, stats, sol).p_out) <= 1e-12
    power = conventional_power(config, stats)
    c1 = config.gamma_th / (power * stats.mean_x)
    a, bn = config.p_p * c1, config.n0 * c1
    n_terms = config.diversity_order
    assert abs(_mixed_outage_inid(a, bn, n_terms, stats.mean_z_per_pt)
               - _mixed_outage_iid(a, bn, n_terms, stats.mean_z_per_pt[0],
                                   stats.l_t)) <= 1e-12


def test_equal_means_take_the_iid_branch_however_built():
    config = SystemConfig(m=4, n=5, l_t=2, l_r=2, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    direct = LinkStats(mean_x=3.0, mean_y_per_pr=(0.5, 0.5),
                       mean_z_per_pt=(0.8, 0.8))
    built = LinkStats(3.0, [0.5, 0.5], [0.8, 0.8])
    assert direct.iid_y and direct.iid_z
    assert direct == built
    sol = solve_lambda(config, direct)
    assert sol == solve_lambda(config, built)
    res = outage_auto(config, direct, sol)
    assert res.branch == "iid_pts"
    assert res == outage_auto(config, built, sol)
    rate = ergodic_capacity(config, direct, sol)
    assert math.isfinite(rate) and 0.0 < rate < 100.0
    assert rate == ergodic_capacity(config, built, sol)


def test_iid_equal_antenna_reduction():
    geom = Geometry(d_st_sr=20.0, d_pt_sr=(56.0, 56.0, 56.0), d_st_pr=(60.0,))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=4, n=4, l_t=3, l_r=1, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    sol = solve_lambda(config, stats)
    res = outage_iid_pts(config, stats, sol)
    assert res.branch == "iid_pts_equal_antennas"
    # the reduced value equals the double-sum branch truncated to l = 0
    a, bn = _cdf_coefficients(config, stats, sol, config.gamma_th)
    full = _mixed_outage_iid(a, bn, 1, stats.mean_z_per_pt[0], stats.l_t)
    assert res.p_out == pytest.approx(full, abs=1e-12)


def test_iid_branch_requires_identical_means():
    config, stats = inid_setup()
    sol = solve_lambda(config, stats)
    with pytest.raises(ValueError):
        outage_iid_pts(config, stats, sol)


def test_outage_monotone_in_threshold_and_primary_power():
    config, stats = inid_setup()
    sol = solve_lambda(config, stats)
    gammas = np.geomspace(0.05, 50, 25)
    vals = [outage_general(config, stats, sol, gamma_th=g).p_out for g in gammas]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # raising the primary transmit power can only hurt
    prev = 0.0
    for p_p in (1.0, 5.0, 10.0, 30.0):
        cfg = SystemConfig(m=config.m, n=config.n, l_t=config.l_t, l_r=config.l_r,
                           p_p=p_p, p_max=config.p_max, q=config.q,
                           gamma_th=config.gamma_th)
        s = solve_lambda(cfg, stats)
        val = outage_general(cfg, stats, s).p_out
        assert val >= prev - 1e-12
        prev = val


def test_outage_improves_with_receive_antennas():
    prev = 1.0
    for n in (3, 4, 6, 9):
        config, stats = inid_setup(n=n)
        sol = solve_lambda(config, stats)
        val = outage_general(config, stats, sol).p_out
        assert val <= prev + 1e-12
        prev = val


def test_outage_matches_monte_carlo():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    est = empirical_outage(config, stats, sol, trials=200000, seed=8821)
    ana = outage_iid_pts(config, stats, sol).p_out
    assert abs(ana - est.value) <= 3 * est.std_error

    config, stats = inid_setup()
    sol = solve_lambda(config, stats)
    est = empirical_outage(config, stats, sol, trials=200000, seed=8822)
    ana = outage_general(config, stats, sol).p_out
    assert abs(ana - est.value) <= 3 * est.std_error


def test_outage_from_cdf_interference_mixture():
    # integrating the received-power CDF against the interference density
    # reconstructs the closed form
    config, stats = inid_setup()
    sol = solve_lambda(config, stats)
    target = outage_general(config, stats, sol).p_out

    def integrand(z):
        x = config.gamma_th * (config.p_p * z + config.n0)
        return (received_power_cdf(x, sol, config, stats)
                * sum_density_inid(z, list(stats.mean_z_per_pt)))

    val, _ = quad(integrand, 0, 80 * max(stats.mean_z_per_pt), limit=400)
    assert abs(val - target) <= 1e-6


def test_fixed_power_outage_against_sampling():
    config, stats = anchor_setup()
    p_fix = conventional_power(config, stats)
    ana = outage_fixed_power(config, stats, p_fix)
    gains = sample_stream_gains(config, stats, 200000, seed=5150)
    rng = np.random.default_rng(5151)
    z = np.zeros(gains.size)
    for ez in stats.mean_z_per_pt:
        z += rng.exponential(ez, size=gains.size)
    sinr = p_fix * gains / (config.p_p * z + config.n0)
    emp = float(np.mean(sinr < config.gamma_th))
    se = math.sqrt(emp * (1 - emp) / gains.size)
    assert abs(ana - emp) <= 3 * se


def test_asymptotic_sinr_cases():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    shape = config.diversity_order

    res = asymptotic_sinr("rx_massive", config, stats, sol, z_realization=12.0)
    assert math.isinf(res.limit)
    want = sol.slope * stats.mean_x * shape / (config.p_p * 12.0 + config.n0)
    assert res.pre_limit == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        asymptotic_sinr("rx_massive", config, stats, sol)

    res = asymptotic_sinr("both_massive_lt_massive", config, stats, sol)
    mu_x = shape * stats.mean_x
    p_det = sol.slope - sol.offset / mu_x
    want = p_det * mu_x / (config.p_p * stats.mean_z + config.n0)
    assert res.limit == pytest.approx(want, rel=1e-12)
    assert res.limit == res.pre_limit

    with pytest.raises(ValueError):
        asymptotic_sinr("bogus", config, stats, sol)


def test_case_iii_matches_limit_multiplier_substitution():
    # plugging the limiting multiplier into the finite-size equivalent
    # reproduces the fixed-ratio constant exactly
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    z = 7.5
    lam_limit = min(LN2 * config.q / config.m,
                    LN2 * stats.mean_y * config.p_max / config.m)
    pre = (lam_limit / (LN2 * stats.mean_y)) * stats.mean_x \
        * config.diversity_order / (config.p_p * z + config.n0)
    res = asymptotic_sinr("both_massive_lt_finite", config, stats, sol,
                          z_realization=z)
    assert res.limit == pytest.approx(pre, rel=1e-12)


def test_ergodic_capacity():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    cap = ergodic_capacity(config, stats, sol)
    est = empirical_rate(config, stats, sol, trials=200000, seed=606)
    assert abs(cap - est.value) <= 3 * est.std_error
    # silent system carries no rate
    assert ergodic_capacity(config, stats, degenerate_solution()) == pytest.approx(0.0, abs=1e-9)


def test_capacity_grows_with_interference_headroom():
    config, _ = anchor_setup()
    caps = []
    for d in (30.0, 100.0):
        geom = Geometry(d_st_sr=18.0, d_pt_sr=(56.0, 56.0), d_st_pr=(d, d))
        stats = LinkStats.from_geometry(geom)
        sol = solve_lambda(config, stats)
        caps.append(ergodic_capacity(config, stats, sol))
    assert caps[1] > caps[0]


def test_average_ser_binary():
    config, stats = anchor_setup()
    # outage identically 1: the error floor a/2
    assert average_ser_binary(config, stats, degenerate_solution(), 1.0, 1.0) \
        == pytest.approx(0.5, abs=1e-6)
    sol = solve_lambda(config, stats)
    ser = average_ser_binary(config, stats, sol, 1.0, 1.0)
    assert 0.0 <= ser <= 0.5
    with pytest.raises(ValueError):
        average_ser_binary(config, stats, sol, -1.0, 1.0)


def test_average_ser_matches_monte_carlo():
    # per-draw symbol error a*Q(sqrt(2 b sinr)) averaged over the chain
    from crmimo.mcharness import _stream_stats_block
    from scipy.special import erfc

    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    ana = average_ser_binary(config, stats, sol, 1.0, 1.0)
    vals = []
    for block in range(196):
        x, z = _stream_stats_block(config, stats, 2571, 11, block, 1024)
        p = optimal_power(x, sol)
        sinr = p * x / (config.p_p * z + config.n0)
        ser = 0.5 * erfc(np.sqrt(2 * sinr) / math.sqrt(2))
        vals.append(np.mean(ser, axis=1))
    v = np.concatenate(vals)
    se = v.std(ddof=1) / math.sqrt(v.size)
    assert abs(ana - v.mean()) <= 3 * se


# ---------------------------------------------------------------------------
# the per-tuple cached evaluator against its uncached reference
# ---------------------------------------------------------------------------

ORACLE = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def mixed_outage_inid_reference(a, bn, n_terms, z_means):
    """The closed-form evaluator with its weights recomputed on every call
    and numpy's logaddexp in the S_k(l) recursion: the reference that the
    per-tuple cached form must match bit for bit."""
    if a == 0.0:
        return 1.0 - regularized_upper_gamma(n_terms, bn)
    pf = trusted_pf_weights(z_means)
    if pf is None:
        return _mixed_outage_quadrature(a, bn, n_terms, z_means)
    weights = pf[1].astype(float).tolist()
    log_a = math.log(a)
    log_bn = math.log(bn)
    acc = []
    for mk, wk in zip(z_means, weights):
        beta = a + 1.0 / mk
        log_beta = math.log(beta)
        log_v = log_beta + log_bn - log_a
        log_ratio = log_a - log_beta
        pref = math.log(abs(wk)) - bn - log_beta - math.log(mk)
        sign = 1.0 if wk > 0 else -1.0
        log_s = 0.0
        for l in range(n_terms):
            if l > 0:
                log_s = np.logaddexp(log_s, l * log_v - math.lgamma(l + 1))
            term_log = pref + l * log_ratio + log_s
            if term_log > _MAX_LOG_TERM:
                raise OverflowError(
                    f"outage term exceeds the representable range "
                    f"(log term {term_log:.1f}); interference means are too close"
                )
            acc.append(sign * math.exp(term_log))
    return min(1.0, max(0.0, 1.0 - math.fsum(acc)))


def outcome(fn, *args):
    """The exact bits of a float result, or the exception raised."""
    try:
        return float(fn(*args)).hex()
    except OverflowError as exc:
        return repr(exc)


FINITE = st.floats(-800.0, 800.0)


@ORACLE
@given(FINITE, FINITE, st.floats(40.0, 800.0),
       st.sampled_from(["free", "equal", "above", "below"]))
@example(0.0, 0.0, 40.0, "equal")
@example(-0.0, 0.0, 40.0, "free")
@example(-745.0, 0.0, 40.0, "below")
def test_logaddexp_matches_numpy_bitwise(x, y, gap, mode):
    y = {"free": y, "equal": x, "above": x + gap, "below": x - gap}[mode]
    assert _logaddexp(x, y).hex() == float(np.logaddexp(x, y)).hex()
    assert _logaddexp(y, x).hex() == float(np.logaddexp(y, x)).hex()


# 2..20 distinct means: a scale times a product of spacing ratios, so the
# partial-fraction weights stay trusted and the closed form runs
DISTINCT_MEANS = st.builds(
    lambda base, ratios: [base * math.prod(ratios[:k]) for k in range(len(ratios) + 1)],
    st.floats(1e-3, 10.0), st.lists(st.floats(1.2, 3.0), min_size=1, max_size=19))


@ORACLE
@given(st.floats(1e-4, 1e2), st.floats(1e-4, 50.0), st.integers(1, 9), DISTINCT_MEANS)
@example(0.0, 0.5, 3, [0.2, 0.7])
def test_cached_evaluator_matches_uncached_reference(a, bn, n_terms, means):
    want = outcome(mixed_outage_inid_reference, a, bn, n_terms, means)
    assert outcome(_mixed_outage_inid, a, bn, n_terms, means) == want
    # the second call reads the cached terms
    assert outcome(_mixed_outage_inid, a, bn, n_terms, means) == want


def test_cached_evaluator_ignores_the_container_of_the_means():
    means = [0.31, 0.9, 2.4, 5.0]
    want = mixed_outage_inid_reference(0.7, 1.3, 4, means).hex()
    for _ in range(3):
        for given_as in (list(means), tuple(means), np.array(means)):
            assert _mixed_outage_inid(0.7, 1.3, 4, given_as).hex() == want
    for bad in ([math.inf, 1.0], (1.0, math.nan), np.array([0.5, -1.0])):
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                _mixed_outage_inid(0.7, 1.3, 4, bad)


def test_tied_means_still_take_the_quadrature(monkeypatch):
    calls = []
    monkeypatch.setattr(outage, "_mixed_outage_quadrature",
                        lambda *args: calls.append(args) or 0.25)
    tied = (0.5, 0.5, 0.8)
    for _ in range(2):
        assert _mixed_outage_inid(0.7, 1.3, 3, tied) == 0.25
    assert calls == [(0.7, 1.3, 3, tied)] * 2
