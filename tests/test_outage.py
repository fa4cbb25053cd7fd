import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmimo import outage, validation
from crmimo.linkstats import LinkStats
from crmimo.mcharness import STREAM_SER, _zf_estimate, empirical_outage, empirical_rate
from crmimo.outage import (
    _cdf_coefficients,
    _mixed_success,
    asymptotic_sinr,
    average_ser_binary,
    ergodic_capacity,
    outage_auto,
    outage_fixed_power,
)
from crmimo.powalloc import (
    LN2,
    PowerSolution,
    SystemConfig,
    conventional_power,
    optimal_power,
    solve_lambda,
)
from crmimo.specfun import _tails_underflow, erlang_tails, exp1, regularized_upper_gamma
from crmimo.validation import _mixed_outage_quadrature

from oracles import anchor_setup, large_n_system, log_uniform, paper_outage, point

Q_7DB = 10 ** 0.7
GAMMA_3DB = 10 ** 0.3


def inid_setup(m=3, n=6):
    return validation._system(m, n, 4, 2, 28.0, (45.0, 60.0, 75.0, 90.0), (58.0, 72.0))


def degenerate_solution():
    """Vanishing multiplier: the activation threshold diverges and every
    stream is silent, so the outage is 1 at any threshold."""
    lam = 1e-12
    ey, offset = 1.0, 10.0
    slope = lam / (LN2 * ey)
    return PowerSolution(lam=lam, c_threshold=offset / slope,
                         target_mean_power=0.0, slope=slope, offset=offset)


def test_outage_limits_and_bounds():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    assert outage_auto(config, stats, sol, gamma_th=1e12).p_out == pytest.approx(1.0, abs=1e-9)
    # a zero threshold is in the outage's domain: the inactivity probability
    inactivity = 1.0 - regularized_upper_gamma(
        config.diversity_order, sol.c_threshold / stats.mean_x)
    assert outage_auto(config, stats, sol, gamma_th=0.0).p_out == pytest.approx(inactivity, rel=1e-12)
    assert outage_fixed_power(config, stats, 0.0, gamma_th=0.0) == 1.0
    res = outage_auto(config, stats, sol)
    assert 0.0 <= res.p_out <= 1.0
    assert res.lambda_used == sol.lam and res.c_used == sol.c_threshold


@pytest.mark.parametrize("m, n, d_pt_sr, branch", [
    (3, 6, (45.0, 60.0, 75.0, 90.0), "general"),
    (3, 3, (45.0, 70.0), "general"),
    (3, 6, (56.0, 56.0), "iid_pts"),
    (3, 3, (56.0, 56.0, 56.0), "iid_pts_equal_antennas"),
])
def test_branch_names_the_paper_case(m, n, d_pt_sr, branch):
    # randomly placed transmitters (means that differ) are "general" at any
    # antenna counts; co-located ones (equal means) are "iid_pts", with the
    # single-term label at m == n
    config, stats, sol = validation._point(m, n, len(d_pt_sr), 2, 25.0, d_pt_sr, (60.0, 75.0))
    assert outage_auto(config, stats, sol).branch == branch


def test_equal_antenna_reduction_identity():
    # at m == n the general closed form keeps one diversity term, the
    # single sum 1 - sum_k w_k e^{-bn} / (a E[Z_k] + 1) with the two-mean
    # partial-fraction weights w_1 = m_1 / (m_1 - m_2), w_2 = m_2 / (m_2 - m_1);
    # it must agree with direct quadrature of the same mixture
    config, stats, sol = validation._point(3, 3, 2, 2, 30.0, (45.0, 70.0), (55.0, 75.0))
    general = outage_auto(config, stats, sol)
    a, bn = _cdf_coefficients(config, stats, sol.slope, sol.c_threshold,
                              config.gamma_th)
    m1, m2 = stats.mean_z_per_pt
    weights = (m1 / (m1 - m2), m2 / (m2 - m1))
    single_sum = 1.0 - math.fsum(wk * math.exp(-bn) / (a * mk + 1.0)
                                 for mk, wk in zip((m1, m2), weights))
    assert abs(general.p_out - single_sum) <= 1e-12
    quadrature = _mixed_outage_quadrature(a, bn, 1, stats.mean_z_per_pt)
    assert abs(general.p_out - quadrature) <= 1e-12


def test_single_transmitter_collapses_branches():
    config, stats, sol = validation._point(2, 4, 1, 2, 25.0, (56.0,), (60.0, 75.0))
    # one transmitter is the co-located case at l_t = 1: the paper's double
    # sum with an exponential interference
    res = outage_auto(config, stats, sol)
    assert res.branch == "iid_pts"
    a, bn = _cdf_coefficients(config, stats, sol.slope, sol.c_threshold,
                              config.gamma_th)
    want = paper_outage(a, bn, config.diversity_order, stats.mean_z_per_pt)
    assert abs(res.p_out - want) <= 1e-12


def test_tied_means_match_iid_branch_without_the_iid_flag():
    # an exact tie needs no special case: the outage and the fixed-power
    # outage agree with the paper's co-located double sum
    config, stats = anchor_setup()
    assert stats.iid_z
    sol = solve_lambda(config, stats)
    means, n_terms = stats.mean_z_per_pt, config.diversity_order
    a, bn = _cdf_coefficients(config, stats, sol.slope, sol.c_threshold,
                              config.gamma_th)
    want = paper_outage(a, bn, n_terms, means)
    assert abs(outage_auto(config, stats, sol).p_out - want) <= 1e-12
    power = conventional_power(config, stats)
    a, bn = _cdf_coefficients(config, stats, power, 0.0, config.gamma_th)
    assert abs(outage_fixed_power(config, stats, power)
               - paper_outage(a, bn, n_terms, means)) <= 1e-12


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
    config, stats, sol = validation._point(4, 4, 3, 1, 20.0, (56.0, 56.0, 56.0), (60.0,))
    res = outage_auto(config, stats, sol)
    assert res.branch == "iid_pts_equal_antennas"
    # the single term 1 - e^{-bn} (1 + a E_z)^{-l_t}
    a, bn = _cdf_coefficients(config, stats, sol.slope, sol.c_threshold,
                              config.gamma_th)
    single = 1.0 - math.exp(-bn) * (1.0 + a * stats.mean_z_per_pt[0]) ** -stats.l_t
    assert res.p_out == pytest.approx(single, abs=1e-12)


def test_outage_monotone_in_threshold_and_primary_power():
    config, stats = inid_setup()
    sol = solve_lambda(config, stats)
    gammas = np.geomspace(0.05, 50, 25)
    vals = [outage_auto(config, stats, sol, gamma_th=g).p_out for g in gammas]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # raising the primary transmit power can only hurt
    prev = 0.0
    for p_p in (1.0, 5.0, 10.0, 30.0):
        cfg = SystemConfig(m=config.m, n=config.n, l_t=config.l_t, l_r=config.l_r,
                           p_p=p_p, p_max=config.p_max, q=config.q,
                           gamma_th=config.gamma_th)
        s = solve_lambda(cfg, stats)
        val = outage_auto(cfg, stats, s).p_out
        assert val >= prev - 1e-12
        prev = val


def test_threshold_array_matches_scalar_calls():
    # an array of thresholds is one kernel call, bit for bit the scalar calls
    gammas = np.geomspace(1e-3, 1e4, 29)
    for config, stats in (anchor_setup(), validation._system(
            16, 80, 80, 1, 30.0, tuple(np.linspace(40.0, 90.0, 80)), (70.0,))):
        sol = solve_lambda(config, stats)
        power = conventional_power(config, stats)
        for f in (lambda g: outage_auto(config, stats, sol, gamma_th=g).p_out,
                  lambda g: outage_fixed_power(config, stats, power, g)):
            vals = f(gammas)
            assert isinstance(vals, np.ndarray) and vals.shape == gammas.shape
            assert vals.tolist() == [f(g) for g in gammas]
            assert isinstance(f(float(gammas[0])), float)
    assert outage_fixed_power(config, stats, 0.0, gammas).tolist() == [1.0] * gammas.size


def test_threshold_sequences_act_as_arrays_and_two_dims_are_refused():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    power = conventional_power(config, stats)
    for f in (lambda g: outage_auto(config, stats, sol, gamma_th=g).p_out,
              lambda g: outage_fixed_power(config, stats, power, g)):
        want = f(np.array([1.0, 2.0]))
        for seq in ([1.0, 2.0], (1.0, 2.0)):
            assert f(seq).tolist() == want.tolist()
        for bad in (np.ones((2, 2)), [[1.0], [1.0, 2.0]]):
            with pytest.raises(ValueError, match="thresholds must be finite and >= 0"):
                f(bad)


def test_outage_improves_with_receive_antennas():
    prev = 1.0
    for n in (3, 4, 6, 9):
        config, stats = inid_setup(n=n)
        sol = solve_lambda(config, stats)
        val = outage_auto(config, stats, sol).p_out
        assert val <= prev + 1e-12
        prev = val


def test_outage_matches_monte_carlo():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    est = empirical_outage(config, stats, sol, trials=200000, seed=8821)
    ana = outage_auto(config, stats, sol).p_out
    assert abs(ana - est.value) <= 3 * est.std_error

    config, stats = inid_setup()
    sol = solve_lambda(config, stats)
    est = empirical_outage(config, stats, sol, trials=200000, seed=8822)
    ana = outage_auto(config, stats, sol).p_out
    assert abs(ana - est.value) <= 3 * est.std_error


def test_outage_from_cdf_interference_mixture():
    # integrating the received-power CDF against the interference density
    # reconstructs the closed form
    config, stats = inid_setup()
    assert validation._kernel_gap(config, stats, solve_lambda(config, stats)) <= 1e-12


def test_fixed_power_outage_against_sampling():
    config, stats = anchor_setup()
    p_fix = conventional_power(config, stats)
    ana = outage_fixed_power(config, stats, p_fix)
    gains = validation.sample_stream_gains(config, stats, 200000, seed=5150)
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


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda c, s, p: outage_auto(c, s, p, gamma_th=INF),
    lambda c, s, p: outage_auto(c, s, p, gamma_th=-1.0),
    lambda c, s, p: outage_auto(c, s, p, gamma_th=NAN),
    lambda c, s, p: outage_auto(c, s, p, gamma_th=np.array([1.0, NAN])),
    lambda c, s, p: outage_auto(c, s, p, gamma_th=np.array([0.5, -1e-300])),
    lambda c, s, p: outage_fixed_power(c, s, 0.0, gamma_th=INF),
    lambda c, s, p: outage_fixed_power(c, s, 1.0, gamma_th=-1.0),
    lambda c, s, p: average_ser_binary(c, s, p, NAN, 1.0),
    lambda c, s, p: average_ser_binary(c, s, p, 1.0, INF),
    lambda c, s, p: average_ser_binary(c, s, p, INF, 1.0),
    lambda c, s, p: asymptotic_sinr("rx_massive", c, s, p, z_realization=-0.1),
    lambda c, s, p: asymptotic_sinr("rx_massive", c, s, p, z_realization=NAN),
    lambda c, s, p: asymptotic_sinr("both_massive_lt_finite", c, s, p, z_realization=INF),
    lambda c, s, p: exp1(NAN),
    lambda c, s, p: exp1(INF),
    lambda c, s, p: exp1(-INF),
    lambda c, s, p: regularized_upper_gamma(3, -INF),
    lambda c, s, p: regularized_upper_gamma(3, INF),
    lambda c, s, p: erlang_tails(3, np.array([1.0, INF])),
    lambda c, s, p: outage_fixed_power(c, s, NAN),
    lambda c, s, p: outage_fixed_power(c, s, INF),
    lambda c, s, p: outage_fixed_power(c, s, -INF),
    lambda c, s, p: optimal_power(-1.0, p),
    lambda c, s, p: optimal_power(NAN, p),
    lambda c, s, p: optimal_power(np.array([1.0, INF]), p),
], ids=["gamma-inf", "gamma-negative", "gamma-nan", "gamma-array-nan", "iid-gamma-negative",
        "fixed-silent-gamma-inf", "fixed-gamma-negative", "ser-a-nan", "ser-b-inf",
        "ser-a-inf", "rx-massive-z-negative", "rx-massive-z-nan", "lt-finite-z-inf",
        "exp1-nan", "exp1-inf", "gamma0-inf", "gamma3-inf", "tail-inf", "tails-inf",
        "fixed-power-nan", "fixed-power-inf",
        "fixed-power-minus-inf", "gain-negative", "gain-nan", "gain-array-inf"])
def test_out_of_domain_thresholds_and_constants_raise(call):
    """Thresholds, Erlang-tail arguments, fixed powers and
    stream gains lie in [0, inf) elementwise (a fixed power may be <= 0),
    the modulation constants and the interference realization are finite,
    and E1 needs a finite x > 0: outside that each call raises ValueError,
    never garbage or a numpy warning (warnings are errors in this suite)."""
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    with pytest.raises(ValueError):
        call(config, stats, sol)


@pytest.mark.parametrize("call, name", [
    (lambda c, s, p: outage_fixed_power(c, s, NAN), "power"),
    (lambda c, s, p: optimal_power(-1.0, p), "stream gains"),
], ids=["fixed-power-nan", "gain-negative"])
def test_out_of_domain_errors_name_the_argument(call, name):
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(config, stats, sol)
    # a power <= 0 is silence and a zero gain gets no power
    assert outage_fixed_power(config, stats, -1.0) == 1.0
    assert optimal_power(0.0, sol) == 0.0


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
    caps = [ergodic_capacity(*validation._point(4, 5, 2, 2, 18.0, (56.0, 56.0), (d, d)))
            for d in (30.0, 100.0)]
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
    from scipy.special import erfc

    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    ana = average_ser_binary(config, stats, sol, 1.0, 1.0)
    est = _zf_estimate(config, stats, sol, 196 * 1024, 2571, 1, STREAM_SER,
                       lambda sinr: 0.5 * erfc(np.sqrt(2 * sinr) / math.sqrt(2)))
    assert abs(ana - est.value) <= 3 * est.std_error


def mixed_outage(a, bn, n_terms, means):
    """The kernel's outage at each threshold, 1 - success clipped to [0, 1],
    as `outage_auto` forms it."""
    return np.clip(1.0 - _mixed_success(a, bn, n_terms, means), 0.0, 1.0)


def test_kernel_rejects_non_finite_or_negative_means():
    for bad in ([math.inf, 1.0], (1.0, math.nan), np.array([0.5, -1.0])):
        with pytest.raises(ValueError, match="finite"):
            mixed_outage(0.7, 1.3, 4, bad)


# exact at d_pt_sr = (56, 56, 70) m: a 30-digit mpmath quadrature of the
# positive sum (the former quadrature-based evaluation read 1.0744074498954972)
TIED_CAPACITY = 1.0744074578158771


def test_partial_tie_never_takes_the_quadrature(monkeypatch):
    config, stats, sol = validation._point(*validation.TIED)
    a, bn = _cdf_coefficients(config, stats, sol.slope, sol.c_threshold,
                              config.gamma_th)
    want = _mixed_outage_quadrature(a, bn, config.diversity_order, stats.mean_z_per_pt)
    # 64 tied means: the quadrature's range must cover the bulk of Z (mean 19.2)
    for a_big in (1e3, 1e4):
        args = (a_big, 5.0, 40, [0.3] * 64)
        assert abs(mixed_outage(*args) - _mixed_outage_quadrature(*args)) <= 1e-12

    def refuse(*args):
        raise AssertionError("the outage fell back to quadrature")

    monkeypatch.setattr(validation, "_mixed_outage_quadrature", refuse)
    res = outage_auto(config, stats, sol)
    assert res.branch == "general"
    assert abs(res.p_out - want) <= 1e-12
    assert 0.0 < outage_fixed_power(config, stats, conventional_power(config, stats)) < 1.0
    assert abs(ergodic_capacity(config, stats, sol) - TIED_CAPACITY) <= 1e-13


# ---------------------------------------------------------------------------
# pruned and chunked thresholds: the kernel gives every threshold the value
# it gives it alone
# ---------------------------------------------------------------------------

def underflow_bound(n_terms):
    """The least float past which `_tails_underflow(n_terms, x)` holds, by
    bisection up from max(n_terms, 746), where it fails."""
    lo = hi = max(float(n_terms), 746.0)
    while not _tails_underflow(n_terms, hi):
        lo, hi = hi, 2.0 * hi
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _tails_underflow(n_terms, mid) else (mid, hi)
    return hi


def near(value):
    """Floats at value, one ulp either side, and within 10% of it."""
    return st.one_of(st.sampled_from([value, math.nextafter(value, 0.0),
                                      math.nextafter(value, math.inf)]),
                     st.floats(0.9 * value, 1.1 * value))


@st.composite
def kernel_thresholds(draw):
    """(a, bn, N, means): N up to 2000, up to 80 interferer means with exact
    and near ties, and thresholds across the log-space switch at 700 and
    across the bound past which every Erlang tail underflows."""
    n_terms = draw(st.one_of(st.integers(1, 40), st.integers(1, 2000)))
    base = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=6))
    means = draw(st.lists(st.builds(lambda m, f: m * f, st.sampled_from(base),
                                    st.sampled_from([1.0, 1.0 + 1e-12, 1.0 + 1e-8])),
                          min_size=1, max_size=80))
    bound = underflow_bound(n_terms)
    bn = draw(st.lists(st.one_of(st.floats(0.0, 2.0 * bound), near(700.0), near(bound)),
                       min_size=1, max_size=12))
    a = draw(st.lists(st.one_of(st.just(0.0), log_uniform(1e-4, 1e4)),
                      min_size=len(bn), max_size=len(bn)))
    return np.array(a), np.array(bn), n_terms, means


@settings(max_examples=40)
@given(kernel_thresholds(), st.data())
def test_kernel_is_the_same_on_any_split_of_its_thresholds(case, data):
    a, bn, n_terms, means = case
    whole = _mixed_success(a, bn, n_terms, means)
    cuts = sorted(data.draw(st.lists(st.integers(0, a.size), max_size=4)))
    parts = [_mixed_success(a[i:j], bn[i:j], n_terms, means)
             for i, j in zip([0, *cuts], [*cuts, a.size])]
    assert np.array_equal(np.concatenate(parts), whole)
    rows = data.draw(st.integers(1, 3))
    with mock.patch.object(outage, "_CHUNK_BYTES", 8 * rows * max(n_terms, len(means))):
        assert np.array_equal(_mixed_success(a, bn, n_terms, means), whole)
    pruned = _tails_underflow(n_terms, bn)
    assert (whole[pruned] == 0.0).all()
    # every tail is 0.0 at each pruned threshold, and at the least pruned float
    past = np.append(bn[pruned], underflow_bound(n_terms))
    assert (erlang_tails(n_terms, past) == 0.0).all()


def test_kernel_sums_a_threshold_alone_in_its_chunk_as_the_whole_call_does():
    # past N = 8193 einsum adds a lone row's products in pieces of 8192, and
    # each row of a larger operand in order.  A threshold alone in its chunk
    # (the last of chunks of two, the one the pruning leaves, or the only
    # one of its call) still gets the whole call's value.  At r_k near 1 and
    # bn = 500 the products past the 8192nd are not 0.0, so the two sums
    # differ in their last bits
    n_terms, means = 9000, [1.0, 1.0 + 1e-8]
    a, bn = np.array([1e4, 3e4, 1e5, 2e4, 5e4]), np.full(5, 500.0)
    whole = _mixed_success(a, bn, n_terms, means)
    alone = [_mixed_success(a[i], bn[i], n_terms, means)[0] for i in range(a.size)]
    assert np.array_equal(alone, whole)
    with mock.patch.object(outage, "_CHUNK_BYTES", 8 * 2 * n_terms):
        assert np.array_equal(_mixed_success(a, bn, n_terms, means), whole)
    dead = 2.0 * underflow_bound(n_terms)
    got = _mixed_success(a[[2, 2]], np.array([500.0, dead]), n_terms, means)
    assert np.array_equal(got, [whole[2], 0.0])


# capacity and the SER (b = 1) on the geometry of large_n_system, recorded
# before the kernel pruned and chunked its thresholds
PINNED_INTEGRALS = {
    100: (5.954898453565, 1.2919456424402232e-07),
    400: (7.969840421163309, 9.301273032479128e-15),
    1000: (9.294734992036448, 9.131064076175645e-17),
    2000: (10.295722173984444, 9.345288325554266e-17),
    4000: (11.296215455989236, 8.072414872721337e-17),
    8000: (12.296462019669157, 1.0368827950481546e-16),
}


@pytest.mark.parametrize("n", [100, 400, 1000, 2000, 4000])
def test_capacity_and_ser_keep_their_values_at_large_n(n):
    config, stats, sol = point(large_n_system(n))
    assert ergodic_capacity(config, stats, sol) == PINNED_INTEGRALS[n][0]
    assert average_ser_binary(config, stats, sol, 1.0, 1.0) == PINNED_INTEGRALS[n][1]


def test_capacity_and_ser_at_n_8000_run_in_bounded_memory():
    # a kernel call holds a few (chunk x N) arrays of at most _CHUNK_BYTES;
    # with every threshold in one chunk the two traced 433.6 and 100.6 MiB
    config, stats, sol = point(large_n_system(8000))
    calls = (lambda: ergodic_capacity(config, stats, sol),
             lambda: average_ser_binary(config, stats, sol, 1.0, 1.0))
    for call, want in zip(calls, PINNED_INTEGRALS[8000]):
        tracemalloc.start()
        try:
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 64 * 2 ** 20, peak / 2 ** 20
