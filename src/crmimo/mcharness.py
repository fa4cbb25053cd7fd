"""Monte-Carlo ground truth for the closed forms.

Samples full channel matrices, applies zero-forcing detection through the
inverse Gram matrix, and measures outage, rate and leakage empirically.
Trials are grouped into fixed-size blocks, each driven by a counter-based
Philox generator keyed by (seed, stream id, block index) and reduced in
block order, so estimates are bit-identical for a given seed regardless of
how many worker threads process the blocks.  Every block loop (that of
`leakage.antenna_pmf` too) is `run_blocks`, with one Erlang gain draw and
one ZF SINR body shared by outage and rate.
"""

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linkstats import checked_leakage_inputs
from .powalloc import optimal_power
from .specfun import _check_int

log = logging.getLogger(__name__)

BLOCK_TRIALS = 1024
# Gaussian draws pass through a buffer of whole trials of at most this size
SLAB_BYTES = 1 << 20

# sub-stream ids keep draws of different estimators disjoint under one seed
STREAM_OUTAGE = 1
STREAM_RATE = 2
STREAM_LEAKAGE = 3
STREAM_KS_ZF = 4
STREAM_KS_GAIN_REF = 5
STREAM_KS_INT_REF = 6
STREAM_ANTENNA = 7
STREAM_GAINS = 8


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    trials: int
    seed: int


def _check_seed(seed):
    """seed as an int, checked: an unsigned 64-bit integer, since wider
    values would alias other seeds."""
    seed = _check_int(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def block_generator(seed, stream, block, retry=0):
    """Philox generator keyed by (seed, stream, retry, block); disjoint
    streams for any distinct key tuple (`_check_seed` checks the seed)."""
    seed = _check_seed(seed)
    key = (seed << 64) | ((stream & 0xFF) << 56) \
        | ((retry & 0xF) << 52) | (block & ((1 << 52) - 1))
    return np.random.Generator(np.random.Philox(key=key))


def block_sizes(trials):
    trials = _check_int(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sizes = [BLOCK_TRIALS] * (trials // BLOCK_TRIALS)
    if trials % BLOCK_TRIALS:
        sizes.append(trials % BLOCK_TRIALS)
    return sizes


def run_blocks(trials, worker, threads=1):
    """Evaluate worker(block_index, size) for every block and return the
    results in block order; the reduction order never depends on threads."""
    sizes = block_sizes(trials)
    threads = _check_int(threads, "threads")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [worker(b, s) for b, s in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(len(sizes)), sizes))


def _estimate(per_trial, trials, seed):
    values = np.concatenate(per_trial)
    se = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(value=float(np.mean(values)), std_error=se,
                      trials=_check_int(trials, "trials"), seed=_check_int(seed, "seed"))


# ---------------------------------------------------------------------------
# channel sampling
# ---------------------------------------------------------------------------

def _complex_gaussian(rng, shape, variance, scale=None):
    """((re + 1j*im) * sqrt(variance/2)) * scale, bit for bit, for whole-array
    draws of re then im, but drawn through one buffer of at most SLAB_BYTES."""
    z = np.empty(shape, dtype=complex)
    s = math.sqrt(variance / 2.0)
    step = max(1, SLAB_BYTES // (8 * math.prod(shape[1:])))
    buf = np.empty((min(step, shape[0]),) + shape[1:])
    for part in (z.real, z.imag):
        for start in range(0, shape[0], step):
            slab = buf[:shape[0] - start]
            rng.standard_normal(out=slab)
            out = part[start:start + len(slab)]
            np.multiply(slab, s, out=out)
            if scale is not None:
                out *= scale
    return z


def _stream_stats_block(config, stats, seed, stream, block, size):
    """Effective gains x_i = ||row_i(H+)||^-2 and interference ratios
    z_i = ||row_i(H+) h_p||^2 / ||row_i(H+)||^2 for one block, computed with
    unit powers (the power matrix scales out of both quantities).

    Rank-deficient draws (probability zero) are redrawn under a bumped key.
    h is released before h_p is drawn, and h_p once it is projected, so one
    large channel array is alive at a time.
    """
    scale = np.sqrt(np.asarray(stats.mean_z_per_pt))
    for retry in range(4):
        rng = block_generator(seed, stream, block, retry)
        h = _complex_gaussian(rng, (size, config.n, config.m), stats.mean_x)
        hh = np.conj(np.transpose(h, (0, 2, 1)))
        gram = hh @ h
        del h
        try:
            gram_inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            log.warning("rank-deficient channel block %d (retry %d); redrawing", block, retry)
            continue
        hp = _complex_gaussian(rng, (size, config.n, scale.size), 1.0, scale)
        cross = hh @ hp
        del hp, hh
        row_norm2 = np.einsum("bii->bi", gram_inv).real
        w = gram_inv @ cross
        cross2 = np.sum(np.abs(w) ** 2, axis=2)
        if np.all(np.isfinite(row_norm2)) and np.all(row_norm2 > 0):
            x_gain = 1.0 / row_norm2
            return x_gain, cross2 * x_gain
        log.warning("non-finite ZF statistics in block %d (retry %d); redrawing", block, retry)
    raise ArithmeticError(f"persistent rank deficiency in block {block}")


def _erlang_draw(config, stats, seed, stream, columns=()):
    """worker(block, size) drawing the block's Erlang(n-m+1, E[X]) stream
    gains directly, shape (size, *columns)."""
    return lambda block, size: block_generator(seed, stream, block).gamma(
        config.diversity_order, stats.mean_x, size=(size, *columns))


def sample_stream_gains(config, stats, trials, seed, threads=1):
    """Direct Erlang(n-m+1, E[X]) draws of the per-stream effective gain."""
    draw = _erlang_draw(config, stats, seed, STREAM_GAINS)
    return np.concatenate(run_blocks(trials, draw, threads))


# ---------------------------------------------------------------------------
# empirical estimators
# ---------------------------------------------------------------------------

def _zf_estimate(config, stats, sol, trials, seed, threads, stream, score):
    """Mean over trials of the per-trial stream mean of score(SINR), with the
    ZF-chain SINR p(x) x / (p_p z + N0) under the allocation."""

    def worker(block, size):
        x_gain, z = _stream_stats_block(config, stats, seed, stream, block, size)
        sinr = optimal_power(x_gain, sol) * x_gain / (config.p_p * z + config.n0)
        return np.mean(score(sinr), axis=1)

    return _estimate(run_blocks(trials, worker, threads), trials, seed)


def empirical_outage(config, stats, sol, trials, seed, threads=1):
    """Fraction of (trial, stream) pairs whose ZF-chain SINR falls below
    gamma_th; streams with zero allocated power count as outage."""
    return _zf_estimate(config, stats, sol, trials, seed, threads, STREAM_OUTAGE,
                        lambda sinr: sinr < config.gamma_th)


def empirical_rate(config, stats, sol, trials, seed, threads=1):
    """Mean of log2(1 + SINR) over the full ZF chain."""
    return _zf_estimate(config, stats, sol, trials, seed, threads, STREAM_RATE,
                        lambda sinr: np.log2(1.0 + sinr))


def empirical_leakage(powers, mean_y_per_pr, q, trials, seed, threads=1):
    """Frequency of min_j sum_i p_i |y_j^(i)|^2 > q over exponential draws
    of the interfering gains (the event that every primary receiver sees
    aggregate interference above q)."""
    p, means = checked_leakage_inputs(powers, mean_y_per_pr, q)

    def worker(block, size):
        rng = block_generator(seed, STREAM_LEAKAGE, block)
        y = rng.exponential(1.0, size=(size, means.size, p.size)) * means[None, :, None]
        s = y @ p
        return (s > q).all(axis=1).astype(float)

    return _estimate(run_blocks(trials, worker, threads), trials, seed)


# ---------------------------------------------------------------------------
# distributional equivalence of the ZF statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionCheck:
    """Two-sample KS comparison of the ZF-chain statistics against their
    reference laws: the effective gain against Erlang(n-m+1, E[X]) and the
    projected-interference ratio against the hypoexponential of the
    per-transmitter means."""

    gain_stat: float
    gain_pvalue: float
    interference_stat: float
    interference_pvalue: float
    trials: int


def zf_distribution_check(config, stats, trials, seed, threads=1):
    from scipy.stats import ks_2samp  # loaded on use: it is most of the import time
    def worker(block, size):
        x_gain, z = _stream_stats_block(config, stats, seed, STREAM_KS_ZF, block, size)
        return x_gain[:, 0], z[:, 0]

    parts = run_blocks(trials, worker, threads)
    x0 = np.concatenate([p[0] for p in parts])
    z0 = np.concatenate([p[1] for p in parts])

    def int_ref(block, size):
        rng = block_generator(seed, STREAM_KS_INT_REF, block)
        draws = np.zeros(size)
        for ez in stats.mean_z_per_pt:
            draws += rng.exponential(ez, size=size)
        return draws

    gain_ref = _erlang_draw(config, stats, seed, STREAM_KS_GAIN_REF)
    x_ref = np.concatenate(run_blocks(trials, gain_ref, threads))
    z_ref = np.concatenate(run_blocks(trials, int_ref, threads))
    ks_x = ks_2samp(x0, x_ref)
    ks_z = ks_2samp(z0, z_ref)
    return DistributionCheck(
        gain_stat=float(ks_x.statistic),
        gain_pvalue=float(ks_x.pvalue),
        interference_stat=float(ks_z.statistic),
        interference_pvalue=float(ks_z.pvalue),
        trials=trials,
    )
