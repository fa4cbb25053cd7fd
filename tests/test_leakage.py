import math

import numpy as np
import pytest

from crmimo.leakage import _active_counts, antenna_pmf, leakage_probability, reduce_antennas
from crmimo.linkstats import Geometry, LinkStats, hypoexp_prefix_ccdf
from crmimo.mcharness import empirical_leakage
from crmimo.powalloc import PowerSolution, SystemConfig, optimal_power, solve_lambda

Q_7DB = 10 ** 0.7
GAMMA_3DB = 10 ** 0.3

# exact single- and two-stage anchors
E_MINUS_1 = 0.36787944117144233
TWO_STAGE = 0.8451818782538245  # 2 e^-1/2 - e^-1


def single_pr_setup(m=4, d_st_pr=60.0, q=Q_7DB):
    geom = Geometry(d_st_sr=18.0, d_pt_sr=(56.0,), d_st_pr=(d_st_pr,))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=m, n=m, l_t=1, l_r=1, p_p=10.0, p_max=100.0,
                          q=q, gamma_th=GAMMA_3DB)
    return config, stats


def test_anchor_values():
    assert leakage_probability([1.0], [1.0], 1.0) == pytest.approx(E_MINUS_1, rel=1e-12)
    assert leakage_probability([1.0, 2.0], [1.0], 1.0) == pytest.approx(TWO_STAGE, rel=1e-12)
    assert leakage_probability([1.0, 2.0], [1.0], 1e9) == pytest.approx(0.0, abs=1e-200)
    # single antenna, single receiver: exactly exp(-q / (p ey))
    for p, ey, q in [(0.7, 2.0, 3.0), (5.0, 0.3, 1.2)]:
        assert leakage_probability([p], [ey], q) == pytest.approx(
            math.exp(-q / (p * ey)), rel=1e-13)


def test_zero_power_handling():
    assert leakage_probability([0.0, 0.0], [1.0], 1.0) == 0.0
    # silent antennas do not contribute
    assert leakage_probability([1.0, 0.0, 2.0], [1.0], 1.0) == pytest.approx(
        TWO_STAGE, rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        leakage_probability([1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        leakage_probability([-1.0], [1.0], 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("powers, means, q", [
    pytest.param([NAN], [1.0], 1.0, id="power-nan"),
    pytest.param([1.0, NAN], [1.0], 1.0, id="second-power-nan"),
    pytest.param([1.0, INF], [1.0], 1.0, id="power-inf"),
    pytest.param([1.0], [], 1.0, id="no-receivers"),
    pytest.param([1.0], [1.0, NAN], 1.0, id="receiver-mean-nan"),
    pytest.param([1.0], [0.0], 1.0, id="receiver-mean-zero"),
    pytest.param([1.0], [1.0], NAN, id="q-nan"),
    pytest.param([1.0], [1.0], INF, id="q-inf"),
    pytest.param([[1.0, 2.0], [3.0, 4.0]], [1.0], 1.0, id="powers-2d"),
    pytest.param([1.0, 2.0], [[1.0], [2.0]], 1.0, id="receiver-means-2d"),
    pytest.param(3.0, [1.0], 1.0, id="power-scalar"),
    pytest.param([1.0], 1.0, 1.0, id="receiver-mean-scalar"),
])
@pytest.mark.parametrize("evaluate", [
    pytest.param(leakage_probability, id="closed-form"),
    pytest.param(lambda *args: empirical_leakage(*args, trials=100, seed=1), id="empirical"),
])
def test_out_of_domain_leakage_inputs_rejected(evaluate, powers, means, q):
    with pytest.raises(ValueError):
        evaluate(powers, means, q)


def test_monotonicity_grid():
    powers = [0.5, 1.0, 2.0]
    means = [1.0, 0.4]
    qs = np.linspace(0.5, 20, 30)
    vals = [leakage_probability(powers, means, q) for q in qs]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    # raising any single power raises the leakage
    base = leakage_probability(powers, means, 4.0)
    for i in range(3):
        bumped = list(powers)
        bumped[i] *= 1.5
        assert leakage_probability(bumped, means, 4.0) >= base - 1e-12


def test_stage_chain_tail_matches_sampling():
    rng = np.random.default_rng(42)
    # small stage counts
    for _ in range(20):
        th = rng.uniform(0.05, 2.0, size=rng.integers(1, 7))
        q = rng.uniform(0.5, 2.0) * th.sum()
        val = hypoexp_prefix_ccdf(q, np.sort(th))[-1]
        draws = rng.exponential(th, size=(100000, th.size)).sum(axis=1)
        emp = float(np.mean(draws > q))
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / draws.shape[0])
        assert abs(val - emp) <= 4 * se + 1e-6
    # a clustered 24-stage tail (partial fractions would cancel to garbage)
    th = rng.uniform(0.1, 0.5, size=24)
    q = th.sum() * 1.2
    val = hypoexp_prefix_ccdf(q, np.sort(th))[-1]
    draws = rng.exponential(th, size=(200000, th.size)).sum(axis=1)
    emp = float(np.mean(draws > q))
    se = math.sqrt(emp * (1 - emp) / draws.shape[0])
    assert abs(val - emp) <= 4 * se


def test_leakage_matches_monte_carlo():
    cases = [([1.0], [1.0], 1.0),
             ([1.0, 2.0], [1.0], 1.0),
             ([0.5, 1.3, 2.2], [0.8, 0.3], 2.5)]
    for powers, means, q in cases:
        ana = leakage_probability(powers, means, q)
        est = empirical_leakage(powers, means, q, trials=200000, seed=808)
        assert abs(ana - est.value) <= 3 * est.std_error


def test_reduce_antennas_trivial_threshold():
    config, stats = single_pr_setup()
    sol = solve_lambda(config, stats)
    gains = np.full(config.m, 50 * sol.c_threshold)
    report = reduce_antennas(gains, sol, config, stats, t_g=1.0)
    assert report.m_effective == config.m
    assert len(report.steps) == 1 and not report.suspended

    # a huge cap never leaks
    config_hq, stats_hq = single_pr_setup(q=1e9)
    sol_hq = solve_lambda(config_hq, stats_hq)
    gains = np.full(config_hq.m, 50 * sol_hq.c_threshold)
    report = reduce_antennas(gains, sol_hq, config_hq, stats_hq, t_g=0.05)
    assert report.m_effective == config_hq.m


def test_reduce_antennas_trace_replay():
    config, stats = single_pr_setup(d_st_pr=40.0)
    sol = solve_lambda(config, stats)
    rng = np.random.default_rng(7)
    gains = rng.gamma(config.diversity_order, stats.mean_x, size=config.m)
    t_g = 0.05
    report = reduce_antennas(gains, sol, config, stats, t_g)

    # hand replay: drop the largest-power antenna until within tolerance
    powers = list(optimal_power(gains, sol))
    expect_steps = []
    while powers:
        prob = leakage_probability(powers, stats.mean_y_per_pr, config.q)
        expect_steps.append((len(powers), prob))
        if prob <= t_g:
            break
        powers.remove(max(powers))
    # the reduction reads every step off one stage chain per receiver, the
    # replay evaluates each subset on its own: same counts, rounding apart,
    # and the full set is the same chain, so its step is the same float
    assert report.steps[0][1] == expect_steps[0][1]
    counts = [c for c, _ in report.steps]
    assert counts == [c for c, _ in expect_steps]
    assert report.m_effective == len(powers)
    for (_, got), (_, want) in zip(report.steps, expect_steps):
        assert abs(got - want) <= 1e-12
    assert counts == list(range(config.m, config.m - len(counts), -1))
    assert report.steps[-1][1] <= t_g or report.suspended


def brute_force_reduction(gains, sol, mean_y_per_pr, q, t_g):
    """The reduction as stated: evaluate the active set, drop its largest
    power (lowest index on ties) and repeat; every step is its own
    `leakage_probability` call.  Returns (steps, m_effective)."""
    powers = optimal_power(np.asarray(gains, dtype=float), sol)
    active = list(range(len(powers)))
    steps = []
    while active:
        prob = leakage_probability(powers[active], mean_y_per_pr, q)
        steps.append((len(active), prob))
        if prob <= t_g:
            return steps, len(active)
        active.remove(max(active, key=lambda i: (powers[i], -i)))
    return steps, 0


@pytest.mark.parametrize("t_g", [1e-6, 0.02, 0.1])
@pytest.mark.parametrize("l_r", [1, 2, 3])
@pytest.mark.parametrize("equal_receivers", [False, True])
def test_reduce_antennas_matches_brute_force(t_g, l_r, equal_receivers):
    # p = max(0, 1 - 1/x): gains below 1 are silent
    sol = PowerSolution(lam=1.0, c_threshold=1.0, target_mean_power=1.0,
                        slope=1.0, offset=1.0)
    rng = np.random.default_rng([l_r, int(equal_receivers), int(1e6 * t_g)])
    ey = [0.8] * l_r if equal_receivers else list(rng.uniform(0.2, 3.0, size=l_r))
    stats = LinkStats(1.0, ey, [1.0])
    seen = set()
    for kind in ("spread", "tied", "half-silent") * 12:
        m = int(rng.integers(1, 20))
        gains = rng.uniform(1.05, 20.0, size=m)
        if kind == "tied":
            gains[:] = gains[0]
        elif kind == "half-silent":
            gains[: m // 2] = rng.uniform(0.0, 1.0, size=m // 2)
            rng.shuffle(gains)
        q = 10 ** rng.uniform(-2.0, 2.0)
        config = SystemConfig(m=m, n=m, l_t=1, l_r=l_r, p_p=1.0, p_max=1.0,
                              q=q, gamma_th=1.0)
        report = reduce_antennas(gains, sol, config, stats, t_g)
        steps, m_eff = brute_force_reduction(gains, sol, ey, q, t_g)
        assert [c for c, _ in report.steps] == [c for c, _ in steps]
        assert report.m_effective == m_eff
        assert report.suspended == (m_eff == 0)
        assert report.steps[0] == steps[0]
        for (_, got), (_, want) in zip(report.steps, steps):
            assert abs(got - want) <= 1e-12, (kind, m, q, got, want)
        seen.add("suspended" if report.suspended
                 else "reduced" if m_eff < m else "kept")
    assert seen == {"suspended", "reduced", "kept"}


@pytest.mark.parametrize("t_g", [1e-6, 0.02, 0.1])
@pytest.mark.parametrize("l_r", [1, 2, 3])
def test_block_reduction_matches_brute_force(t_g, l_r):
    # one block mixes powered counts, so it runs one stacked chain per count
    # and receiver; a near-cutoff gain C (1 + 1e-14) gives a power below
    # 1e-12 of its row's largest, so the negligible-stage cut runs in a stack
    sol = PowerSolution(lam=1.0, c_threshold=1.0, target_mean_power=1.0,
                        slope=1.0, offset=1.0)
    rng = np.random.default_rng([l_r, int(1e6 * t_g), 18])
    ey = list(rng.uniform(0.2, 3.0, size=l_r))
    stats = LinkStats(1.0, ey, [1.0])
    seen = set()
    for m in (1, 4, 9, 17):
        for q in 10 ** rng.uniform(-2.0, 2.0, size=2):
            config = SystemConfig(m=m, n=m, l_t=1, l_r=l_r, p_p=1.0, p_max=1.0,
                                  q=q, gamma_th=1.0)
            block = rng.uniform(1.05, 20.0, size=(15, m))
            block[1::5] = block[1::5, :1]                                      # tied
            block[2::5, : m // 2] = rng.uniform(0.0, 1.0, size=(3, m // 2))   # half-silent
            block[3::5] = rng.uniform(0.0, 1.0, size=(3, m))                  # all-silent
            block[4::5, -1] = 1.0 + 1e-14                                     # near-cutoff
            for row in block:
                rng.shuffle(row)
            got = _active_counts(block, sol, config, stats, t_g)
            want = [brute_force_reduction(g, sol, ey, q, t_g)[1] for g in block]
            assert got.tolist() == want, (m, q)
            assert (got[3::5] == m).all()
            assert [reduce_antennas(g, sol, config, stats, t_g).m_effective
                    for g in block] == want
            seen.update("suspended" if c == 0 else "reduced" if c < m else "kept"
                        for c in want)
    assert seen == {"suspended", "reduced", "kept"}


def test_reduce_antennas_suspension():
    # single antenna whose leakage always exceeds the tolerance
    sol = PowerSolution(lam=1.0, c_threshold=1.0, target_mean_power=1.0,
                        slope=1.0, offset=1.0)
    stats = LinkStats(1.0, [1.0], [1.0])
    config = SystemConfig(m=1, n=1, l_t=1, l_r=1, p_p=1.0, p_max=1.0,
                          q=1e-4, gamma_th=1.0)
    report = reduce_antennas([100.0], sol, config, stats, t_g=0.5)
    assert report.suspended and report.m_effective == 0
    with pytest.raises(ValueError):
        reduce_antennas([100.0], sol, config, stats, t_g=0.0)
    with pytest.raises(ValueError):
        reduce_antennas([1.0, 2.0], sol, config, stats, t_g=0.5)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            reduce_antennas([bad], sol, config, stats, t_g=0.5)


def test_reduction_steps_never_increase_leakage():
    config, stats = single_pr_setup(d_st_pr=45.0)
    sol = solve_lambda(config, stats)
    rng = np.random.default_rng(99)
    for _ in range(40):
        gains = rng.gamma(config.diversity_order, stats.mean_x, size=config.m)
        report = reduce_antennas(gains, sol, config, stats, t_g=1e-9)
        probs = [p for _, p in report.steps]
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


def test_antenna_pmf_basics():
    config, stats = single_pr_setup()
    sol = solve_lambda(config, stats)
    pmf = antenna_pmf(config, stats, sol, t_g=1.0, trials=500, seed=3)
    assert pmf.pmf[config.m] == 1.0
    assert pmf.mean_active == config.m
    assert pmf.std_error == 0.0

    pmf = antenna_pmf(config, stats, sol, t_g=0.05, trials=800, seed=4)
    assert math.fsum(pmf.pmf) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= pmf.mean_active <= config.m
    assert pmf.mean_active == pytest.approx(
        sum(l * p for l, p in enumerate(pmf.pmf)), rel=1e-12)
    again = antenna_pmf(config, stats, sol, t_g=0.05, trials=800, seed=4)
    assert again.pmf == pmf.pmf and again.mean_active == pmf.mean_active


def test_antenna_pmf_suspension_case():
    # every draw transmits (threshold ~ 0) and every transmission leaks
    sol = PowerSolution(lam=1.0, c_threshold=1e-12, target_mean_power=1.0,
                        slope=1.0, offset=1e-12)
    stats = LinkStats(1.0, [1.0], [1.0])
    config = SystemConfig(m=1, n=1, l_t=1, l_r=1, p_p=1.0, p_max=1.0,
                          q=1e-6, gamma_th=1.0)
    pmf = antenna_pmf(config, stats, sol, t_g=0.5, trials=300, seed=5)
    assert pmf.pmf[0] == 1.0 and pmf.mean_active == 0.0


def test_tighter_tolerance_never_keeps_more_antennas():
    config, stats = single_pr_setup(d_st_pr=50.0)
    sol = solve_lambda(config, stats)
    rng = np.random.default_rng(123)
    for _ in range(30):
        gains = rng.gamma(config.diversity_order, stats.mean_x, size=config.m)
        loose = reduce_antennas(gains, sol, config, stats, t_g=0.1)
        tight = reduce_antennas(gains, sol, config, stats, t_g=0.05)
        assert tight.m_effective <= loose.m_effective
