"""Monte-Carlo ground truth for the closed forms.

Samples full channel matrices, applies zero-forcing detection through the
inverse Gram matrix, and measures outage and rate empirically.
Trials are grouped into fixed-size blocks, each driven by a counter-based
Philox generator keyed by (seed, stream id, block index) and reduced in
block order, so estimates are bit-identical for a given seed regardless of
how many worker threads process the blocks.  Each Monte-Carlo entry checks
its settings first, by one rule (`_check_mc`).  Every block loop (that of
`leakage.antenna_pmf` too) is `run_blocks`, with one Erlang gain draw and
one ZF SINR body shared by outage and rate.  A ZF block uses its channel
draws slab by slab and splits each matrix product of 16 or more columns so
that the BLAS keeps it on the calling thread.  Narrower products are not
split, and OpenBLAS threads a stack of matrix-vector products by a rule of
its own: at m = n = 64, l_t = 1 its helper threads run beside
`run_blocks`' workers.  Each worker thread fills one workspace of flat
buffers in place, block after block of an estimator call, so a small block
does not fault fresh pages in for its arrays; the workspaces are freed when
the call returns.  The Gram stack is inverted in place, so a block peaks at
about 0.76 times the bytes of its complex interfering channel at m = 16,
n = l_t = 80; at m = n = 64 the Gram stack is its largest array after h^H.
"""

import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .powalloc import optimal_power
from .specfun import _check_int

log = logging.getLogger(__name__)

BLOCK_TRIALS = 1024
# the Philox key holds a 52-bit block index: block 2^52 would repeat the
# draws of block 0
MAX_TRIALS = BLOCK_TRIALS << 52
# a ZF block's complex Gaussian draws come, and are used, in slabs of whole
# trials of at most this many bytes; only their real halves exist whole
SLAB_BYTES = 1 << 20
# OpenBLAS (0.3.31, bundled with numpy 2.4) hands a complex gemm of 65 536
# multiply-adds or more to helper threads: on a 2-vCPU host a stack of
# (16x80)@(80x48) products ran at CPU time = wall time, (16x80)@(80x52) to
# @(80x80) at 1.9-2.3 times wall time with no wall-time gain, and the helpers
# then spin against the worker threads; (64x64)@(64x16), exactly 65 536, ran
# at 21.8 ms CPU time against 10.5 ms wall time.  Per-trial products of 16 or
# more columns stay under this (`_serial_matmul`).  Narrower ones are one call,
# and OpenBLAS threads stacked matrix-vector products on its own rule: a
# (608, 64, 64) @ (608, 64, 1) stack ran at 7-8 ms CPU time against 3-4 ms
# wall time, so a block at m = n = 64, l_t = 1 is not serial.
SERIAL_GEMM_MADDS = 1 << 16

# sub-stream ids keep the draws of every estimator, the Monte-Carlo oracles of
# `validation` and of the tests too, disjoint under one seed
STREAM_OUTAGE = 1
STREAM_RATE = 2
STREAM_LEAKAGE = 3
STREAM_KS_ZF = 4
STREAM_KS_GAIN_REF = 5
STREAM_KS_INT_REF = 6
STREAM_ANTENNA = 7
STREAM_GAINS = 8
STREAM_SER = 11


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    trials: int
    seed: int


def _check_mc(trials, seed, threads=1):
    """(trials, seed, threads) as ints, checked: trials in [1, MAX_TRIALS],
    a seed in [0, 2^64), since wider values would alias other seeds, and
    threads >= 1.  Every Monte-Carlo entry calls it first."""
    trials, seed = _check_int(trials, "trials"), _check_int(seed, "seed")
    threads = _check_int(threads, "threads")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, 2^62], got {trials}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return trials, seed, threads


def block_generator(seed, stream, block, retry=0):
    """Philox generator keyed by (seed, stream, retry, block); disjoint
    streams for any distinct key tuple (`_check_mc` checks the seed and
    keeps the block index within its 52 bits)."""
    key = (seed << 64) | ((stream & 0xFF) << 56) \
        | ((retry & 0xF) << 52) | (block & ((1 << 52) - 1))
    return np.random.Generator(np.random.Philox(key=key))


def run_blocks(trials, worker, threads=1):
    """Evaluate worker(block_index, size) for every block of at most
    BLOCK_TRIALS trials and return the results in block order; the
    reduction order never depends on threads.  The caller has checked its
    arguments (`_check_mc`)."""
    blocks = range(-(-trials // BLOCK_TRIALS))
    sizes = (min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS) for b in blocks)
    if threads == 1:
        return list(map(worker, blocks, sizes))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, blocks, sizes))


def _estimate(per_trial, trials, seed):
    values = np.concatenate(per_trial)
    se = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(value=float(np.mean(values)), std_error=se, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# channel sampling
# ---------------------------------------------------------------------------

def _buffer(work, name, shape, dtype=float):
    """A C-contiguous array of shape over the leading elements of the flat
    buffer work[name], which is allocated anew only when too small."""
    count = math.prod(shape)
    buf = work.get(name)
    if buf is None or buf.size < count:
        buf = work[name] = np.empty(count, dtype)
    return buf[:count].reshape(shape)


def _slab_rows(shape):
    """Slices over the leading axis of a complex array of shape, each of
    whole trials of at most SLAB_BYTES (at least one trial)."""
    step = max(1, SLAB_BYTES // (16 * math.prod(shape[1:])))
    return (slice(start, start + step) for start in range(0, shape[0], step))


def _complex_slabs(rng, shape, variance, work, scale=None):
    """Yield (rows, slab) over slabs of whole trials, of at most SLAB_BYTES,
    of ((re + 1j*im) * sqrt(variance/2)) * scale, bit for bit as whole-array
    draws of re then im: re is drawn whole, each slab's im as the slab is
    taken, so rng may draw nothing else until all slabs are taken.  re and
    every slab are views of the workspace work's "re" and "slab" buffers,
    so a slab holds its values only until the next is taken."""
    s = math.sqrt(variance / 2.0)
    re = rng.standard_normal(out=_buffer(work, "re", shape))
    for rows in _slab_rows(shape):
        x = re[rows]
        slab = _buffer(work, "slab", x.shape, complex)
        for i, half in enumerate((slab.real, slab.imag)):
            if i:  # im is drawn into the rows of re just used
                rng.standard_normal(out=x)
            if scale is not None:
                np.multiply(x, s, out=x)
            np.multiply(x, s if scale is None else scale, out=half)
        yield rows, slab


def _serial_matmul(a, b, out):
    """a @ b for stacks of matrices, in column chunks of b holding fewer
    than SERIAL_GEMM_MADDS multiply-adds per matrix product, so the BLAS
    keeps each product on the calling thread.  Chunks are whole 8-column
    groups, the remainder under 8 folded into the last, which keeps the bits
    of one call; a product under the cutoff, or too narrow to split so, is
    one call, which OpenBLAS may still thread (see SERIAL_GEMM_MADDS).  The
    product is written to out."""
    m, k = a.shape[-2:]
    width = b.shape[-1]
    if m * k * width < SERIAL_GEMM_MADDS or width < 16:
        return np.matmul(a, b, out=out)
    step = 8 * max(1, (SERIAL_GEMM_MADDS // (m * k) - 7) // 8)
    edges = list(range(0, width - 7, step)) + [width]
    for lo, hi in zip(edges, edges[1:]):
        np.matmul(a, b[..., lo:hi], out=out[..., lo:hi])
    return out


def _stream_stats_block(config, stats, seed, stream, block, size, work):
    """Effective gains x_i = ||row_i(H+)||^-2 and interference ratios
    z_i = ||row_i(H+) h_p||^2 / ||row_i(H+)||^2 for one block, computed with
    unit powers (the power matrix scales out of both quantities).

    Rank-deficient draws (probability zero) are redrawn under a bumped key.
    h and h_p come from `_complex_slabs` and are used slab by slab, never
    whole.  Every array but the returned statistics and temporaries of at
    most SLAB_BYTES is a view of a buffer of the workspace work (a dict)
    that a worker thread carries from block to block of an estimator call.
    The Gram stack is inverted in place, slab by slab, since the Gram
    matrices are never read again; LAPACK inverts each matrix on its own,
    so the bits are those of one whole-stack inverse.  h and h_p share the
    real-half buffer, sized for the larger before h is drawn, so a block
    peaks at the real half of the larger draw, h^H, one m x m stack and a
    few slabs.  The Gram, projection and inverse-Gram products go through
    `_serial_matmul`.  Each trial makes the same matrix products, on
    operands of the same layout, as a whole-block computation, so the bits
    are those of one.
    """
    scale = np.sqrt(np.asarray(stats.mean_z_per_pt))
    n, m, l_t = config.n, config.m, scale.size
    # sized once: grown from h's size to h_p's, it would hold both at once
    _buffer(work, "re", (size, n, max(m, l_t)))
    hh = _buffer(work, "hh", (size, n, m), complex).transpose(0, 2, 1)
    gram = _buffer(work, "gram", (size, m, m), complex)
    cross2 = _buffer(work, "cross2", (size, m))
    for retry in range(4):
        rng = block_generator(seed, stream, block, retry)
        for rows, h in _complex_slabs(rng, (size, n, m), stats.mean_x, work):
            np.conj(h.transpose(0, 2, 1), out=hh[rows])
            _serial_matmul(hh[rows], h, out=gram[rows])
        try:  # gram then holds the inverse Gram matrices
            for rows in _slab_rows(gram.shape):
                gram[rows] = np.linalg.inv(gram[rows])
        except np.linalg.LinAlgError:
            log.warning("rank-deficient channel block %d (retry %d); redrawing", block, retry)
            continue
        for rows, hp in _complex_slabs(rng, (size, n, l_t), 1.0, work, scale):
            shape = hp.shape[:1] + (m, l_t)
            c = _serial_matmul(hh[rows], hp, out=_buffer(work, "c", shape, complex))
            w = _serial_matmul(gram[rows], c, out=_buffer(work, "w", shape, complex))
            w2 = np.abs(w, out=_buffer(work, "w2", shape))
            np.sum(np.square(w2, out=w2), axis=2, out=cross2[rows])
        row_norm2 = np.einsum("bii->bi", gram).real
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


# ---------------------------------------------------------------------------
# empirical estimators
# ---------------------------------------------------------------------------

def _zf_blocks(config, stats, trials, seed, threads, stream, reduce):
    """reduce(x_gain, z) of every ZF block, in block order.  Each worker
    thread carries one workspace through its blocks of this call; the
    workspaces are freed when the call returns."""
    local = threading.local()  # its attribute dict is the calling thread's own

    def worker(block, size):
        return reduce(*_stream_stats_block(config, stats, seed, stream, block, size,
                                           vars(local)))

    return run_blocks(trials, worker, threads)


def _zf_estimate(config, stats, sol, trials, seed, threads, stream, score):
    """Mean over trials of the per-trial stream mean of score(SINR), with the
    ZF-chain SINR p(x) x / (p_p z + N0) under the allocation."""
    trials, seed, threads = _check_mc(trials, seed, threads)

    def mean_score(x_gain, z):
        sinr = optimal_power(x_gain, sol) * x_gain / (config.p_p * z + config.n0)
        return np.mean(score(sinr), axis=1)

    return _estimate(_zf_blocks(config, stats, trials, seed, threads, stream, mean_score),
                     trials, seed)


def empirical_outage(config, stats, sol, trials, seed, threads=1):
    """Fraction of (trial, stream) pairs whose ZF-chain SINR falls below
    gamma_th; streams with zero allocated power count as outage."""
    return _zf_estimate(config, stats, sol, trials, seed, threads, STREAM_OUTAGE,
                        lambda sinr: sinr < config.gamma_th)


def empirical_rate(config, stats, sol, trials, seed, threads=1):
    """Mean of log2(1 + SINR) over the full ZF chain."""
    return _zf_estimate(config, stats, sol, trials, seed, threads, STREAM_RATE,
                        lambda sinr: np.log2(1.0 + sinr))
