import math
from dataclasses import dataclass

import numpy as np
import pytest

from crmimo.linkstats import Geometry, LinkStats
from crmimo.mcharness import (
    STREAM_OUTAGE,
    _stream_stats_block,
    block_generator,
    empirical_leakage,
    empirical_outage,
    empirical_rate,
    sample_stream_gains,
    zf_distribution_check,
)
from crmimo.outage import ergodic_capacity, received_power_cdf
from crmimo.powalloc import PowerSolution, SystemConfig, solve_lambda

Q_7DB = 10 ** 0.7
GAMMA_3DB = 10 ** 0.3


# ---------------------------------------------------------------------------
# per-draw zero-forcing reference: the oracle of the batched block statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelDraw:
    """One realization: desired channel h (n x m), interfering channel h_p
    (n x l_t), and per-receiver interfering gains y (l_r x m)."""

    h: np.ndarray
    h_p: np.ndarray
    y: np.ndarray


def complex_gaussian(rng, shape, variance):
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * math.sqrt(variance / 2.0)


def sample_channel(config, stats, rng):
    """Draw one ChannelDraw matching the configured dimensions."""
    h = complex_gaussian(rng, (config.n, config.m), stats.mean_x)
    h_p = np.empty((config.n, config.l_t), dtype=complex)
    for k, ez in enumerate(stats.mean_z_per_pt):
        h_p[:, k] = complex_gaussian(rng, (config.n,), ez)
    y = np.empty((config.l_r, config.m))
    for j, ey in enumerate(stats.mean_y_per_pr):
        y[j, :] = rng.exponential(ey, size=config.m)
    return ChannelDraw(h=h, h_p=h_p, y=y)


def zf_sinr(draw, powers, config):
    """Per-stream SINR of the zero-forcing detector via the explicit
    pseudo-inverse of h diag(sqrt(p)):

        sinr_i = 1 / (p_p ||row_i(G+) h_p||^2 + n0 ||row_i(G+)||^2).
    """
    p = np.asarray(powers, dtype=float)
    if np.any(p <= 0):
        raise ValueError("zf_sinr requires strictly positive powers for included streams")
    g = draw.h * np.sqrt(p)[None, :]
    gp = np.linalg.pinv(g)
    row2 = np.sum(np.abs(gp) ** 2, axis=1)
    denom = config.n0 * row2
    if draw.h_p.shape[1] > 0:
        denom = denom + config.p_p * np.sum(np.abs(gp @ draw.h_p) ** 2, axis=1)
    return 1.0 / denom


def anchor_setup():
    geom = Geometry(d_st_sr=18.0, d_pt_sr=(56.0, 56.0), d_st_pr=(60.0, 60.0))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=4, n=5, l_t=2, l_r=2, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    return config, stats


def test_zf_sinr_scalar_channel():
    # one antenna, no interferers: sinr = p |h|^2 / n0
    config = SystemConfig(m=1, n=1, l_t=1, l_r=1, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    draw = ChannelDraw(h=np.array([[math.sqrt(2.0) + 0.0j]]),
                       h_p=np.zeros((1, 0)), y=np.ones((1, 1)))
    sinr = zf_sinr(draw, [4.0], config)
    assert sinr[0] == pytest.approx(8.0, rel=1e-12)


def test_zf_sinr_orthogonal_columns():
    config = SystemConfig(m=2, n=4, l_t=1, l_r=1, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    h = np.zeros((4, 2), dtype=complex)
    h[0, 0] = 1.5
    h[2, 1] = 0.8j
    draw = ChannelDraw(h=h, h_p=np.zeros((4, 0)), y=np.ones((1, 2)))
    sinr = zf_sinr(draw, [2.0, 3.0], config)
    assert sinr[0] == pytest.approx(2.0 * 1.5 ** 2, rel=1e-12)
    assert sinr[1] == pytest.approx(3.0 * 0.8 ** 2, rel=1e-12)


def test_zf_sinr_against_normal_equations():
    config, stats = anchor_setup()
    rng = block_generator(12, 0, 0)
    draw = sample_channel(config, stats, rng)
    powers = np.array([0.5, 1.0, 2.0, 0.7])
    sinr = zf_sinr(draw, powers, config)
    # independent oracle: row norms from the inverse Gram matrix
    g = draw.h * np.sqrt(powers)[None, :]
    gram_inv = np.linalg.inv(g.conj().T @ g)
    gp = gram_inv @ g.conj().T
    denom = (config.p_p * np.sum(np.abs(gp @ draw.h_p) ** 2, axis=1)
             + config.n0 * np.einsum("ii->i", gram_inv).real)
    assert np.allclose(sinr, 1.0 / denom, rtol=1e-10)
    # exact algebraic identity of the returned values
    row2 = np.sum(np.abs(np.linalg.pinv(g)) ** 2, axis=1)
    cross2 = np.sum(np.abs(np.linalg.pinv(g) @ draw.h_p) ** 2, axis=1)
    assert np.allclose(sinr * (config.p_p * cross2 + config.n0 * row2), 1.0,
                       rtol=1e-12)


def test_zf_sinr_rejects_zero_power():
    config, stats = anchor_setup()
    draw = sample_channel(config, stats, block_generator(1, 0, 0))
    with pytest.raises(ValueError):
        zf_sinr(draw, [0.0, 1.0, 1.0, 1.0], config)


def test_sample_channel_dimensions_and_moments():
    config, stats = anchor_setup()
    rng = block_generator(5, 0, 0)
    draws = [sample_channel(config, stats, rng) for _ in range(400)]
    d = draws[0]
    assert d.h.shape == (config.n, config.m)
    assert d.h_p.shape == (config.n, config.l_t)
    assert d.y.shape == (config.l_r, config.m)
    h2 = np.mean([np.mean(np.abs(d.h) ** 2) for d in draws])
    assert h2 == pytest.approx(stats.mean_x, rel=0.05)
    y1 = np.mean([d.y.mean() for d in draws])
    assert y1 == pytest.approx(stats.mean_y_per_pr[0], rel=0.05)


def test_batched_block_matches_per_draw_zf():
    # rebuild one block's channels in the batched draw order (all desired
    # channels, then all unit-variance interfering channels scaled per
    # transmitter) and run each through the per-draw pseudo-inverse chain
    geom = Geometry(d_st_sr=22.0, d_pt_sr=(50.0, 65.0, 80.0), d_st_pr=(60.0,))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=3, n=5, l_t=3, l_r=1, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    seed, block, size = 17, 2, 64
    x_gain, z = _stream_stats_block(config, stats, seed, STREAM_OUTAGE, block, size)
    rng = block_generator(seed, STREAM_OUTAGE, block)
    h = complex_gaussian(rng, (size, config.n, config.m), stats.mean_x)
    hp = complex_gaussian(rng, (size, config.n, config.l_t), 1.0)
    hp = hp * np.sqrt(np.asarray(stats.mean_z_per_pt))[None, None, :]
    batched = x_gain / (config.p_p * z + config.n0)
    for t in range(size):
        draw = ChannelDraw(h=h[t], h_p=hp[t], y=np.ones((config.l_r, config.m)))
        sinr = zf_sinr(draw, np.ones(config.m), config)
        assert np.allclose(batched[t], sinr, rtol=1e-10, atol=0.0)


def test_zero_trials_rejected():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    with pytest.raises(ValueError, match="trials"):
        empirical_outage(config, stats, sol, trials=0, seed=1)
    with pytest.raises(ValueError, match="trials"):
        empirical_rate(config, stats, sol, trials=0, seed=1)
    with pytest.raises(ValueError, match="trials"):
        empirical_leakage([1.0], [1.0], 1.0, trials=0, seed=1)


def test_seed_outside_u64_rejected():
    top = 2 ** 64 - 1
    a = block_generator(top, 1, 0).standard_normal(4)
    assert not np.array_equal(a, block_generator(0, 1, 0).standard_normal(4))
    for bad in (2 ** 64, -1, 2 ** 65 + 3):
        with pytest.raises(ValueError, match="seed"):
            block_generator(bad, 1, 0)


def test_empirical_outage_extremes():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    high = SystemConfig(m=4, n=5, l_t=2, l_r=2, p_p=10.0, p_max=100.0,
                        q=Q_7DB, gamma_th=1e9)
    est = empirical_outage(high, stats, sol, trials=20000, seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-4)


def test_empirical_outage_noise_limited_tail():
    # negligible primary power: outage reduces to the received-power tail
    geom = Geometry(d_st_sr=18.0, d_pt_sr=(56.0,), d_st_pr=(60.0,))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=2, n=8, l_t=1, l_r=1, p_p=1e-12, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    sol = solve_lambda(config, stats)
    est = empirical_outage(config, stats, sol, trials=200000, seed=2)
    assert est.value < 1e-3
    ana = received_power_cdf(config.gamma_th * config.n0, sol, config, stats)
    assert abs(ana - est.value) <= 3 * est.std_error + 1e-6


def test_estimator_determinism():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    a = empirical_outage(config, stats, sol, trials=30000, seed=7, threads=1)
    b = empirical_outage(config, stats, sol, trials=30000, seed=7, threads=4)
    assert a == b
    c = empirical_outage(config, stats, sol, trials=30000, seed=8)
    assert c.value != a.value
    r1 = empirical_rate(config, stats, sol, trials=20000, seed=7, threads=1)
    r2 = empirical_rate(config, stats, sol, trials=20000, seed=7, threads=3)
    assert r1 == r2
    g1 = sample_stream_gains(config, stats, 5000, seed=9, threads=1)
    g2 = sample_stream_gains(config, stats, 5000, seed=9, threads=4)
    assert np.array_equal(g1, g2)


def test_distribution_check_small_arrays():
    geom = Geometry(d_st_sr=30.0, d_pt_sr=(56.0,), d_st_pr=(60.0,))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=1, n=1, l_t=1, l_r=1, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    chk = zf_distribution_check(config, stats, trials=30000, seed=11)
    assert chk.gain_pvalue > 0.01 and chk.interference_pvalue > 0.01

    geom = Geometry(d_st_sr=30.0, d_pt_sr=(45.0, 60.0, 75.0), d_st_pr=(60.0,))
    stats = LinkStats.from_geometry(geom)
    config = SystemConfig(m=2, n=6, l_t=3, l_r=1, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    chk = zf_distribution_check(config, stats, trials=30000, seed=11)
    assert chk.gain_pvalue > 0.01 and chk.interference_pvalue > 0.01


def test_empirical_leakage_extremes():
    est = empirical_leakage([1.0, 2.0], [1.0], 1e-9, trials=20000, seed=3)
    assert est.value == pytest.approx(1.0, abs=1e-4)
    est = empirical_leakage([1.0], [1.0], 1.0, trials=200000, seed=4)
    assert abs(est.value - math.exp(-1)) <= 3 * est.std_error


def test_empirical_rate_silent_system():
    config, stats = anchor_setup()
    silent = PowerSolution(lam=1e-12, c_threshold=1e18, target_mean_power=0.0,
                           slope=1e-16, offset=100.0)
    est = empirical_rate(config, stats, silent, trials=5000, seed=5)
    assert est.value == 0.0


def test_empirical_rate_matches_quadrature():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    est = empirical_rate(config, stats, sol, trials=150000, seed=6)
    cap = ergodic_capacity(config, stats, sol)
    assert abs(cap - est.value) <= 3 * est.std_error
