import dataclasses
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from crmimo import mcharness
from crmimo.leakage import antenna_pmf
from crmimo.linkstats import Geometry, LinkStats
from crmimo.mcharness import (
    STREAM_OUTAGE,
    STREAM_RATE,
    _complex_gaussian,
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
    """Whole-array draw: all real parts, then all imaginary parts."""
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
    seed, block = 17, 2
    for size in (1, 7, 64):
        x_gain, z = _stream_stats_block(config, stats, seed, STREAM_OUTAGE, block, size)
        rng = block_generator(seed, STREAM_OUTAGE, block)
        h = complex_gaussian(rng, (size, config.n, config.m), stats.mean_x)
        hp = complex_gaussian(rng, (size, config.n, config.l_t), 1.0)
        hp = hp * np.sqrt(np.asarray(stats.mean_z_per_pt))[None, None, :]
        batched = x_gain / (config.p_p * z + config.n0)
        assert batched.shape == (size, config.m)
        for t in range(size):
            draw = ChannelDraw(h=h[t], h_p=hp[t], y=np.ones((config.l_r, config.m)))
            sinr = zf_sinr(draw, np.ones(config.m), config)
            assert np.allclose(batched[t], sinr, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("shape", [(5, 4), (80, 16), (80, 80)])
@pytest.mark.parametrize("size", [1, 7, 476, 1024])
def test_slab_draw_matches_whole_array_draw(size, shape):
    # the slab-by-slab draw consumes the stream and rounds exactly as the
    # whole-array expression, with and without the per-column scale
    scale = np.sqrt(np.linspace(0.05, 3.0, shape[1]))
    for s in (None, scale):
        got = _complex_gaussian(block_generator(3, STREAM_RATE, 5),
                                (size,) + shape, 2.5, s)
        want = complex_gaussian(block_generator(3, STREAM_RATE, 5),
                                (size,) + shape, 2.5)
        if s is not None:
            want = want * s[None, None, :]
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_large_block_memory_peak():
    # two 1024-trial m=16, n=l_t=80 blocks run at once under --threads 2;
    # each may hold at most 1.6 times its interfering channel array (the
    # whole-array draw peaked at 2.2 times)
    config = SystemConfig(m=16, n=80, l_t=80, l_r=1, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    stats = LinkStats(mean_x=1.0, mean_y_per_pr=(1.0,),
                      mean_z_per_pt=tuple(np.linspace(0.1, 1.0, 80)))
    hp_bytes = 1024 * config.n * config.l_t * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        x_gain, z = _stream_stats_block(config, stats, 1, STREAM_RATE, 0, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x_gain.shape == z.shape == (1024, config.m)
    assert peak <= 1.6 * hp_bytes, peak / hp_bytes


def test_zero_trials_rejected():
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    with pytest.raises(ValueError, match="trials"):
        empirical_outage(config, stats, sol, trials=0, seed=1)
    with pytest.raises(ValueError, match="trials"):
        empirical_rate(config, stats, sol, trials=0, seed=1)
    with pytest.raises(ValueError, match="trials"):
        empirical_leakage([1.0], [1.0], 1.0, trials=0, seed=1)


@pytest.mark.parametrize("name, value", [
    ("trials", 2000.0), ("trials", True), ("trials", 0), ("trials", -3),
    ("threads", 0), ("threads", -2), ("threads", 2.5), ("threads", True),
    ("seed", 1.5), ("seed", -1), ("seed", 2 ** 64), ("seed", "1"),
    ("t_g", 0.0), ("t_g", math.nan), ("t_g", 1.5),
])
def test_malformed_monte_carlo_arguments_rejected(name, value, monkeypatch):
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    args = {"trials": 2000, "seed": 1, "threads": 2, "t_g": 0.02, name: value}
    t_g = args.pop("t_g")
    if name != "t_g":
        with pytest.raises(ValueError, match=name):
            empirical_outage(config, stats, sol, **args)
        with pytest.raises(ValueError, match=name):
            empirical_leakage([1.0], [1.0], 1.0, **args)
    if name != "threads":
        # antenna_pmf checks its arguments before any draw
        def no_draw(*_):
            raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(mcharness, "block_generator", no_draw)
        with pytest.raises(ValueError, match=name):
            antenna_pmf(config, stats, sol, t_g, args["trials"], args["seed"])


def test_numpy_integer_arguments_are_stored_as_int():
    # the checked int is stored, so the records serialise as JSON
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    trials, seed = np.int64(100), np.int64(1)
    results = (empirical_leakage([1.0], [1.0], 1.0, trials=trials, seed=seed),
               empirical_outage(config, stats, sol, trials=trials, seed=seed),
               antenna_pmf(config, stats, sol, 0.02, trials, seed))
    for result in results:
        assert type(result.trials) is int
        json.dumps(dataclasses.asdict(result))
    assert [type(result.seed) for result in results[:2]] == [int, int]
    assert results[0] == empirical_leakage([1.0], [1.0], 1.0, trials=100, seed=1)
    assert results[2] == antenna_pmf(config, stats, sol, 0.02, 100, 1)


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
    # numpy integers are accepted wherever Python ints are
    n = empirical_outage(config, stats, sol, trials=np.int64(30000),
                         seed=np.uint64(7), threads=np.int32(2))
    assert (n.value, n.std_error) == (a.value, a.std_error)


def test_interferer_count_follows_the_means():
    """h_p gets one column per interferer mean whatever config.l_t says, as
    the closed form does: a mismatched l_t gives the matched estimate."""
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    for l_t in (1, 3):
        other = SystemConfig(m=4, n=5, l_t=l_t, l_r=2, p_p=10.0, p_max=100.0,
                             q=Q_7DB, gamma_th=GAMMA_3DB)
        for estimator in (empirical_outage, empirical_rate):
            assert estimator(other, stats, sol, trials=1500, seed=3) \
                == estimator(config, stats, sol, trials=1500, seed=3)


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
