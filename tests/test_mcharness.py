import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from crmimo import mcharness
from crmimo.leakage import antenna_pmf
from crmimo.linkstats import Geometry, LinkStats
from crmimo.mcharness import (
    BLOCK_TRIALS,
    MAX_TRIALS,
    STREAM_OUTAGE,
    STREAM_RATE,
    _complex_slabs,
    _serial_matmul,
    _stream_stats_block,
    block_generator,
    empirical_outage,
    empirical_rate,
)
from crmimo.outage import ergodic_capacity, outage_auto
from crmimo.powalloc import PowerSolution, SystemConfig, solve_lambda
from crmimo.validation import _system, empirical_leakage, sample_stream_gains

from oracles import anchor_setup, complex_gaussian, zf_block_replay, zf_distribution_check

Q_7DB = 10 ** 0.7
GAMMA_3DB = 10 ** 0.3


def zf_setup(m, n, l_t, mean_x=1.3):
    """(SystemConfig, LinkStats) of an (m, n, l_t) ZF block with distinct
    interferer means over [0.1, 1]."""
    config = SystemConfig(m=m, n=n, l_t=l_t, l_r=1, p_p=10.0, p_max=100.0,
                          q=Q_7DB, gamma_th=GAMMA_3DB)
    return config, LinkStats(mean_x=mean_x, mean_y_per_pr=(1.0,),
                             mean_z_per_pt=tuple(np.linspace(0.1, 1.0, l_t)))


def recording_inv(calls, singular_first, inv=np.linalg.inv):
    """np.linalg.inv (as imported, not as patched) recording the stack size of
    each call into calls; if singular_first, the first call raises."""

    def record(a):
        calls.append(len(a))
        if singular_first and len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    return record


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
    config, stats = _system(3, 5, 3, 1, 22.0, (50.0, 65.0, 80.0), (60.0,))
    seed, block = 17, 2
    for size in (1, 7, 64):
        x_gain, z = _stream_stats_block(config, stats, seed, STREAM_OUTAGE, block, size, {})
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
    # the slabs consume the stream and round exactly as the whole-array
    # expression, with and without the per-column scale, and leave the
    # generator where the whole-array draw does: the draws after h start there
    scale = np.sqrt(np.linspace(0.05, 3.0, shape[1]))
    for s in (None, scale):
        rng = block_generator(3, STREAM_RATE, 5)
        slabs = []
        for rows, slab in _complex_slabs(rng, (size,) + shape, 2.5, {}, s):
            assert slab.flags.c_contiguous and len(slab) == len(range(size)[rows])
            assert slab.nbytes <= max(mcharness.SLAB_BYTES, slab[:1].nbytes)
            slabs.append((rows, slab.copy()))  # the next slab reuses its buffer
        ref = block_generator(3, STREAM_RATE, 5)
        want = complex_gaussian(ref, (size,) + shape, 2.5)
        if s is not None:
            want = want * s[None, None, :]
        assert [i for rows, _ in slabs for i in range(size)[rows]] == list(range(size))
        assert np.array_equal(np.concatenate([slab for _, slab in slabs]), want)
        assert np.array_equal(rng.standard_normal(4), ref.standard_normal(4))


@pytest.mark.parametrize("m, n, l_t, sizes", [
    (16, 80, 80, (1, 9, 10, 11, 1024)),  # 10 trials a slab
    (16, 40, 3, (1024,)),  # 546 trials a slab
    (64, 80, 17, (1, 47, 48, 49, 100)),  # 48 trials a slab; every product split
    (16, 80, 53, (1, 14, 15, 16, 100)),  # 15 trials a slab; h^H h_p split 40 + 13
])
def test_slab_projection_matches_whole_block(m, n, l_t, sizes):
    # the slab-by-slab projection of h_p rounds exactly as the whole-block
    # expression, on either side of each slab boundary
    config, stats = zf_setup(m, n, l_t)
    for size in sizes:
        x_gain, z = _stream_stats_block(config, stats, 4, STREAM_RATE, 3, size, {})
        want_x, want_z = zf_block_replay(config, stats, 4, STREAM_RATE, 3, size)
        assert np.array_equal(x_gain, want_x)
        assert np.array_equal(z, want_z)


@pytest.mark.parametrize("m, k, width", [
    *((16, 80, w) for w in range(56, 64)),  # 40 + 16..23: remainders 0-7
    (16, 80, 80),  # 40 + 40
    (64, 80, 17), (64, 80, 23), (64, 80, 64),  # the 8-column floor: 8 + 8 + ...
    (64, 64, 16),  # exactly at the cutoff: 8 + 8
    (16, 16, 80),  # under the cutoff: one call
    (16, 80, 1), (300, 300, 1), (300, 300, 15),  # too narrow to split
])
def test_serial_matmul_matches_one_product(m, k, width):
    # column chunks of whole 8-column groups round as one product, with the
    # transposed left operand of the Gram and the projection of h_p
    rng = block_generator(9, STREAM_RATE, 1)
    h = complex_gaussian(rng, (5, k, m), 1.0)
    b = complex_gaussian(rng, (5, k, width), 1.0)
    for a in (np.conj(np.transpose(h, (0, 2, 1))), np.conj(h).transpose(0, 2, 1).copy()):
        out = np.empty((5, m, width), complex)
        assert _serial_matmul(a, b, out) is out
        assert np.array_equal(out, a @ b)


@pytest.mark.parametrize("m, n, l_t", [
    (16, 20, 20), (16, 40, 40), (16, 80, 80), (64, 80, 17),
    (32, 64, 32),  # the Gram and h^H h_p: exactly SERIAL_GEMM_MADDS, split
])
def test_block_products_stay_under_the_serial_cutoff(m, n, l_t, monkeypatch):
    # every per-trial product of the ZF block is small enough that the BLAS
    # keeps it on the worker thread, and together they do the block's whole
    # Gram, projection and inverse-Gram work
    madds, work = [], []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        madds.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        work.append(madds[-1] * math.prod(a.shape[:-2]))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(mcharness.np, "matmul", spy)
    config, stats = zf_setup(m, n, l_t)
    size = 64
    _stream_stats_block(config, stats, 4, STREAM_RATE, 3, size, {})
    assert max(madds) < mcharness.SERIAL_GEMM_MADDS
    assert sum(work) == size * m * (n * m + n * l_t + m * l_t)


def block_peaks(m, n, l_t, size, blocks):
    """The traced peak of each of blocks blocks of size trials run on one
    workspace, over the bytes of the larger complex channel array."""
    config, stats = zf_setup(m, n, l_t, mean_x=1.0)
    channel_bytes = size * n * max(m, l_t) * np.dtype(complex).itemsize
    work, peaks = {}, []
    tracemalloc.start()
    try:
        for block in range(blocks):
            tracemalloc.reset_peak()
            x_gain, z = _stream_stats_block(config, stats, 1, STREAM_RATE, block, size, work)
            peaks.append(tracemalloc.get_traced_memory()[1] / channel_bytes)
    finally:
        tracemalloc.stop()
    assert x_gain.shape == z.shape == (size, m)
    return peaks


def test_large_block_memory_peak():
    # two 1024-trial m=16, n=l_t=80 blocks run at once under --threads 2;
    # each may hold at most 0.79 times its interfering channel array: the
    # real half of h_p, h^H, the Gram stack, inverted in place, and a few
    # slabs, with neither h nor h_p ever whole.  A second block on the same
    # workspace holds no more (0.77; 0.76 without a workspace; a whole-block
    # inverse beside the Gram stack peaked at 0.81, whole-array draws of h
    # and h_p at 1.26, a whole-block projection at 1.48, and a real-half
    # buffer grown from h's size to h_p's at 0.90)
    peaks = block_peaks(16, 80, 80, 1024, blocks=2)
    assert max(peaks) <= 0.79, peaks


def test_massive_block_memory_peak():
    # a 600-trial block of the m = n = 64, l_t = 1 massive-MIMO scenario
    # holds the real half of h (0.5 times the bytes of h), h^H (1.0), the
    # Gram stack, inverted in place (1.0), and a few slabs: 2.59 times in
    # all, where a whole-block inverse beside the Gram stack took it to 3.59
    peaks = block_peaks(64, 64, 1, 600, blocks=1)
    assert max(peaks) <= 2.7, peaks


@pytest.mark.parametrize("threads", [1, 2])
def test_estimator_call_frees_its_workspaces(threads):
    # the per-thread workspaces live for one estimator call: nothing of the
    # worker threads' buffers outlives it, also where the calling thread is
    # the worker and lives on
    config, stats = zf_setup(16, 80, 80, mean_x=1.0)
    sol = solve_lambda(config, stats)
    hp_bytes = 1024 * config.n * config.l_t * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        empirical_rate(config, stats, sol, trials=2048, seed=1, threads=threads)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before >= 0.75 * hp_bytes  # a workspace was traced
    assert abs(after - before) <= 1 << 20, after - before


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="no per-thread rusage")
def test_small_blocks_reuse_their_arrays():
    # after a warm-up call, the 64 (4, 5, 2) blocks of one call fault at most
    # 16 fresh pages in each, the workspace's first filling included; blocks
    # that allocated their own arrays faulted about 1 MiB each back in.  A
    # fresh interpreter, since the allocator's state depends on its history
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import resource
        from crmimo.linkstats import Geometry, LinkStats
        from crmimo.mcharness import empirical_outage
        from crmimo.powalloc import SystemConfig, solve_lambda
        stats = LinkStats.from_geometry(Geometry(18.0, (56.0, 56.0), (60.0, 60.0)))
        config = SystemConfig(m=4, n=5, l_t=2, l_r=2, p_p=10.0, p_max=100.0,
                              q=10 ** 0.7, gamma_th=10 ** 0.3)
        sol = solve_lambda(config, stats)
        empirical_outage(config, stats, sol, trials=4096, seed=1, threads=1)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        empirical_outage(config, stats, sol, trials=64 * 1024, seed=2, threads=1)
        print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
    """
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    faults = int(result.stdout)
    assert faults <= 16 * 64, faults / 64


def test_rank_deficient_block_is_redrawn(monkeypatch, caplog):
    # a singular Gram stack abandons the block's draws and redraws the whole
    # block under retry key 1, whose statistics are those of a whole-array
    # computation keyed so
    calls = []
    monkeypatch.setattr(mcharness.np.linalg, "inv", recording_inv(calls, True))
    m, n, l_t, size = 16, 80, 80, 23  # 10 trials a slab: h_p in three slabs
    config, stats = zf_setup(m, n, l_t)
    with caplog.at_level("WARNING", logger=mcharness.__name__):
        x_gain, z = _stream_stats_block(config, stats, 4, STREAM_RATE, 3, size, {})
    assert calls == [size, size]
    assert "rank-deficient channel block 3 (retry 0)" in caplog.text
    want_x, want_z = zf_block_replay(config, stats, 4, STREAM_RATE, 3, size, retry=1)
    assert np.array_equal(x_gain, want_x)
    assert np.array_equal(z, want_z)


@pytest.mark.parametrize("m, n, l_t", [
    (4, 5, 2),  # l_t < m
    (3, 5, 6),  # l_t > m: h_p's real half fills the shared buffer
    (64, 80, 17),  # every product split
])
def test_workspace_reuse_is_bit_identical(m, n, l_t, monkeypatch):
    # one workspace carried through full, short-last and tiny blocks, and a
    # rank-deficient redraw of the third, gives the bits of fresh workspaces
    # and allocates no buffer after the first block
    config, stats = zf_setup(m, n, l_t)
    sizes = (1024, 424, 7, 1024)
    work, reused, calls = {}, [], []
    for block, size in enumerate(sizes):
        calls.append([])
        monkeypatch.setattr(mcharness.np.linalg, "inv", recording_inv(calls[-1], block == 2))
        reused.append(_stream_stats_block(config, stats, 4, STREAM_RATE, block, size, work))
        if not block:
            first = dict(work)
    # each block inverts its trials once, in one or more chunks; the third
    # twice, since its first inverse raised
    assert [sum(block_calls) for block_calls in calls] == [1024, 424, 14, 1024]
    assert work.keys() == first.keys()
    assert all(work[name] is buf for name, buf in first.items())
    for block, size in enumerate(sizes):
        monkeypatch.setattr(mcharness.np.linalg, "inv", recording_inv([], block == 2))
        fresh = _stream_stats_block(config, stats, 4, STREAM_RATE, block, size, {})
        assert all(np.array_equal(a, b) for a, b in zip(reused[block], fresh))


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
    ("trials", MAX_TRIALS + 1), ("trials", 10 ** 30),
    ("threads", 0), ("threads", -2), ("threads", 2.5), ("threads", True),
    ("seed", 1.5), ("seed", -1), ("seed", 2 ** 64), ("seed", "1"),
    ("t_g", 0.0), ("t_g", math.nan), ("t_g", 1.5),
    ("t_g", True), ("t_g", "0.5"), ("t_g", None),
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
               antenna_pmf(config, stats, sol, 0.02, trials, seed),
               zf_distribution_check(config, stats, trials, seed))
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
    # the key's block field is 52 bits wide: block 2^52 repeats block 0, so
    # the trial bound stops one block short of it
    assert np.array_equal(block_generator(1, 1, 1 << 52).standard_normal(4),
                          block_generator(1, 1, 0).standard_normal(4))
    assert MAX_TRIALS // BLOCK_TRIALS == 1 << 52
    config, stats = anchor_setup()
    sol = solve_lambda(config, stats)
    estimators = (
        lambda seed: empirical_outage(config, stats, sol, 100, seed),
        lambda seed: empirical_rate(config, stats, sol, 100, seed),
        lambda seed: empirical_leakage([1.0], [1.0], 1.0, 100, seed),
        lambda seed: antenna_pmf(config, stats, sol, 0.02, 100, seed),
        lambda seed: sample_stream_gains(config, stats, 100, seed),
        lambda seed: zf_distribution_check(config, stats, 100, seed),
    )
    for bad in (2 ** 64, -1, 2 ** 65 + 3):
        for estimate in estimators:
            with pytest.raises(ValueError, match="seed"):
                estimate(bad)


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
    ana = outage_auto(config, stats, sol).p_out
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
    for spec in ((1, 1, 1, 1, 30.0, (56.0,), (60.0,)),
                 (2, 6, 3, 1, 30.0, (45.0, 60.0, 75.0), (60.0,))):
        chk = zf_distribution_check(*_system(*spec), trials=30000, seed=11)
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
