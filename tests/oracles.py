"""Test oracles, one home per law.

Each oracle's docstring says what it checks:
* formula-independent: it reaches the law by another route than the
  library (partial fractions, the paper's double sum, uniformization,
  quadrature, sampling), so it checks the formula;
* replay for rounding: it runs the library's own formula in high
  precision, so it checks the rounding, not the formula.
The double-precision oracles that `crmimo validate` runs stay in
`crmimo.validation`; these need mpmath, `decimal` or `scipy.stats`, which
the library never loads.  Test modules import their shared oracles and
setups from here, never from one another.
"""

import collections
import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import strategies as st
from mpmath.calculus.quadrature import GaussLegendre
from scipy.stats import ks_2samp

from crmimo import mcharness, validation


def anchor_setup(n=5):
    """(SystemConfig, LinkStats) of the validation grid's first system, two
    tied interferers at m = 4, with n receive antennas."""
    m, _, *rest = validation.GRID[0]
    return validation._system(m, n, *rest)


def equal_antenna_setup():
    """(SystemConfig, LinkStats) at m = n = 3 with two distinct interferers."""
    return validation._system(3, 3, 2, 2, 30.0, (45.0, 70.0), (55.0, 75.0))


_exp = np.frompyfunc(Decimal.exp, 1, 1)


@functools.cache
def _legendre_rule(degree):
    """mpmath's 3 2^(degree - 1) Gauss-Legendre (node, weight) pairs on
    [-1, 1], in 32-digit Decimals."""
    return [(Decimal(mpmath.nstr(x, 32)), Decimal(mpmath.nstr(wt, 32)))
            for x, wt in GaussLegendre(mpmath.mp).calc_nodes(degree, 110)]


def _gauss_legendre(ends, degree):
    """(nodes, weights) as Decimal object arrays: the rule on each piece
    between consecutive Decimal ends."""
    nodes = [((lo + hi + (hi - lo) * x) / 2, (hi - lo) * wt / 2)
             for lo, hi in zip(ends, ends[1:]) for x, wt in _legendre_rule(degree)]
    return (np.array([x for x, _ in nodes], dtype=object),
            np.array([wt for _, wt in nodes], dtype=object))


# ---------------------------------------------------------------------------
# the Erlang tail, and the sum and the largest of independent exponentials
# ---------------------------------------------------------------------------

def erlang_tail(n, x):
    """Formula-independent: Q(n, x) = Gamma(n, x) / Gamma(n), mpmath's
    regularized upper incomplete gamma in 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.gammainc(n, x, regularized=True))


def erlang_tails_replay(n, x):
    """Replay for rounding: `erlang_tails` with each branch as one array
    expression, the per-order loop below the underflow guard (700) and every
    order's log-space terms as one (n, far) array past it.  The library
    writes the same operations into its output in place, so the two agree
    bit for bit."""
    near = np.minimum(x, 700.0)
    tails = np.empty((n, x.size))
    tails[0] = term = np.ones_like(near)
    for k in range(1, n):
        term = term * (near / k)
        tails[k] = tails[k - 1] + term
    tails *= np.exp(-near)
    far = x > 700.0
    logs = np.multiply.outer(np.arange(n), np.log(x[far])) \
        - np.array([math.lgamma(k + 1) for k in range(n)])[:, None]
    top = logs.max(axis=0, initial=-np.inf)
    tails[:, far] = np.exp(top - x[far]) * np.exp(logs - top).cumsum(axis=0)
    return tails


def exact_sum(values):
    """Formula-independent: the sum of floats in exact rational arithmetic,
    rounded once."""
    return float(sum(map(Fraction, values)))


def max_mean(means, degree=4):
    """Formula-independent: E[max of independent exponentials] =
    int_0^inf 1 - prod_j (1 - e^{-t/m_j}) dt in 30 digits, by composite
    Gauss-Legendre on pieces ending at M 2^-12, M 2^-11, ..., M and M (2, 4,
    8, ..., 96), M the largest mean; past 96 M the integrand is below
    64 e^-96.  Degree 4 gives the double of degree 5; degree 3 was 3e-15 off
    for 60 tied means."""
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        top = Decimal(max(means))
        ends = [top * Decimal(2) ** -k for k in range(12, -1, -1)]
        t, wt = _gauss_legendre([Decimal(0)] + ends + [top * k for k in (2, 4, 8, 16, 32, 64, 96)],
                                degree)
        survive = 0 * t + 1
        for m, count in collections.Counter(means).items():
            survive = survive * (1 - _exp(-t / Decimal(m))) ** count
        return float(sum((1 - survive) * wt))


# ---------------------------------------------------------------------------
# the mixed Erlang-tail law E_Z[Q(N, a Z + bn)]
# ---------------------------------------------------------------------------

def paper_outage(a, bn, n_terms, means):
    """Formula-independent: the outage 1 - E_Z[Q(N, a Z + bn)] as the paper
    writes it, for all means equal or for distinct ones; partial ties have
    no such form and raise ValueError.

    All l_t means equal to E_z (co-located transmitters, or one): the
    interference is an Erlang of order l_t, and in 40 digits
        1 - e^{-bn} sum_{l<N} sum_{s<=l} C(l,s) (s+l_t-1)! / (l! (l_t-1)!)
            bn^{l-s} a^s / (E_z^{l_t} (a + 1/E_z)^{s+l_t}).
    Distinct means: the density of the interference in partial fractions,
    w_k = prod_{j!=k} m_k / (m_k - m_j), mixed into the Erlang tail term by
    term,
        1 - e^{-bn} sum_k (w_k / m_k) sum_{l<N} sum_{s<=l}
            bn^{l-s} a^s / ((l-s)! (a + 1/m_k)^{s+1}),
    with 40 digits left after the weights' cancellation."""
    if len(set(means)) == 1:
        with mpmath.workdps(40):
            a, bn, ez, l_t = mpmath.mpf(a), mpmath.mpf(bn), mpmath.mpf(means[0]), len(means)
            beta = a + 1 / ez
            acc = mpmath.fsum(
                mpmath.mpf(math.comb(l, s) * math.factorial(s + l_t - 1))
                / (math.factorial(l) * math.factorial(l_t - 1))
                * bn ** (l - s) * a ** s / (ez ** l_t * beta ** (s + l_t))
                for l in range(n_terms) for s in range(l + 1))
            return float(1 - mpmath.exp(-bn) * acc)
    if len(set(means)) < len(means):
        raise ValueError(f"paper_outage needs distinct or all-equal means, got {means!r}")
    with mpmath.workdps(60):
        ms = [mpmath.mpf(m) for m in means]
        lost = max(abs(mpmath.fprod(mk / (mk - mj) for j, mj in enumerate(ms) if j != k))
                   for k, mk in enumerate(ms))
    with mpmath.workdps(40 + max(0, int(mpmath.log10(lost)) + 1)):
        a, bn = mpmath.mpf(a), mpmath.mpf(bn)
        ms = [mpmath.mpf(m) for m in means]
        # sums[j] = sum_{i<j} bn^i / i!
        sums, term = [mpmath.mpf(0)], mpmath.mpf(1)
        for i in range(n_terms):
            sums.append(sums[-1] + term)
            term *= bn / (i + 1)
        total = mpmath.mpf(0)
        for k, mk in enumerate(ms):
            wk = mpmath.fprod(mk / (mk - mj) for j, mj in enumerate(ms) if j != k)
            beta = a + 1 / mk
            # sum over l of the inner sum, regrouped by s
            total += wk / mk * mpmath.fsum(a ** s / beta ** (s + 1) * sums[n_terms - s]
                                           for s in range(n_terms))
        return float(1 - mpmath.exp(-bn) * total)


def decimal_success(a, bn, n_terms, means):
    """Replay for rounding: the kernel's positive sum, E_Z[Q(N, a Z + bn)] =
    prod_k (1 - r_k) sum_{s<N} h_s(r) Q(N - s, bn), at Decimal scalars
    (a, bn) or object arrays of them, in the context's precision: h_s by one
    running sum per mean and Q(N - s, bn) by one running sum of the Poisson
    terms, so O(N l_t) operations per node.  decimal's C arithmetic makes
    the large-N rows affordable, where mpmath's pure-Python numbers would
    take seconds per row; scalars skip numpy's per-operation overhead."""
    one = 0 * a + 1
    weight, h = one, [one] + [0 * one] * (n_terms - 1)
    for m in map(Decimal, means):
        t = a * m
        weight, r = weight / (1 + t), t / (1 + t)
        for s in range(1, n_terms):
            h[s] = h[s] + r * h[s - 1]
    term, cdf = _exp(-bn), [0 * one]
    for j in range(n_terms):
        cdf.append(cdf[-1] + term)
        term = term * bn / (j + 1)
    return weight * sum(hs * q for hs, q in zip(h, cdf[:0:-1]))


# ---------------------------------------------------------------------------
# capacity and SER: integrals of the success law
# ---------------------------------------------------------------------------

def quadrature_oracles(config, stats, sol, b=1.0, degree=4):
    """Formula-independent of the exp-sinh rule: (ergodic_capacity,
    average_ser_binary at A = 1 and B = b) in 30 digits, by composite
    Gauss-Legendre in t = sqrt(x) on one `decimal_success` S(t^2) per node:
    capacity = (1 / ln 2) int 2t S / (1 + t^2) dt and
    SER = sqrt(b / pi) int e^{-b t^2} (1 - S) dt.  S falls on the scale of the
    typical SINR x_t and drops where the noise alone reaches N, at
    x_0 = (N - c) / b_n (bn = b_n x + c), over a width w = sqrt(N) / b_n: the
    pieces end at x_t 4^k, x_0 + k w and t = k / sqrt(b) (e^{-b t^2} < e^-144
    past t = 12 / sqrt(b)), up to bn = N + 40 sqrt(N) + 150, past which
    S < e^-80.  Degree 4 gives the doubles of degree 5; degree 3 was 1e-13 off
    at small N."""
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        n_terms = config.diversity_order
        gain = Decimal(sol.slope) * Decimal(stats.mean_x)
        a, b_n = Decimal(config.p_p) / gain, Decimal(config.n0) / gain
        c = Decimal(sol.c_threshold) / Decimal(stats.mean_x)
        typical = n_terms / (a * Decimal(stats.mean_z) + b_n)
        x0, w = (n_terms - c) / b_n, Decimal(n_terms).sqrt() / b_n
        last = (n_terms + 40 * Decimal(n_terms).sqrt() + 150 - c) / b_n
        ends = [typical * Decimal(4) ** k for k in range(-4, 200)] \
            + [x0 + k * w for k in (-8, -2, 0, 2, 8)] + [last]
        b = Decimal(b)
        t, wt = _gauss_legendre(sorted({Decimal(0), *(x.sqrt() for x in ends if 0 < x <= last),
                                        *(k / b.sqrt() for k in (1, 2, 3, 4, 6, 8, 12))}), degree)
        x = t * t
        success = decimal_success(a * x, b_n * x + c, n_terms, stats.mean_z_per_pt)
        pi = Decimal(mpmath.nstr(mpmath.pi, 32))
        return (float(sum(2 * t * success / (1 + x) * wt) / Decimal(2).ln()),
                float(sum(_exp(-b * x) * (1 - success) * wt) * (b / pi).sqrt()))


# ---------------------------------------------------------------------------
# the mean power
# ---------------------------------------------------------------------------

def mp_mean_power(lam, config, stats):
    """Replay for rounding: mean_power's closed form in the working mpmath
    precision, on mpmath's incomplete gamma and E1."""
    ex, ey = mpmath.mpf(stats.mean_x), mpmath.mpf(stats.mean_y)
    slope = lam / (mpmath.log(2) * ey)
    offset = mpmath.mpf(config.p_p) * mpmath.mpf(stats.mean_z) + mpmath.mpf(config.n0)
    u = offset / (slope * ex)
    shape = config.diversity_order
    if shape > 1:
        return slope * mpmath.gammainc(shape, u, regularized=True) \
            - offset * mpmath.gammainc(shape - 1, u, regularized=True) / ((shape - 1) * ex)
    return slope * mpmath.exp(-u) - offset * mpmath.e1(u) / ex


# ---------------------------------------------------------------------------
# the stage chain: sums of independent exponentials
# ---------------------------------------------------------------------------

# log-spaced grid over [0.2, 5]: neighbouring means differ by 0.3%
MEAN_GRID = [0.2 * 25.0 ** (i / 999) for i in range(1000)]
# pairs 1e-8 apart: unscaled squaring of the stage chain lost 1.8e-9 here
NEAR_TIED_PAIRS = [m * f for m in (0.3, 0.6, 1.2, 2.4) for f in (1.0, 1.0 + 1e-8)]
# explicit (means, q) of the hypoexponential tail and density checks: partial-
# fraction weights 6e36, 3e28, 2.5e7 and 1e6, exact ties, and near-tied pairs
HYPOEXP_EXAMPLES = (
    ([1.0 + 1e-3 * k for k in range(16)], 12.0), ([0.2 + 0.01 * k for k in range(40)], 30.0),
    ([1.0, 1.0002, 1.0004], 0.3), ([1.0, 1.001, 1.002], 1.5), ([1.0, 1.0], 1.0),
    ([2.0] * 4, 5.0), ([0.5, 1.3, 1.3, 2.2], 2.0), (NEAR_TIED_PAIRS, 4.5))


@st.composite
def hypoexp_case(draw):
    """(means, q): 1-64 spread or near-tied (0.1% spacing) means, in random
    order, and a threshold between 5% and 200% of their sum."""
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        idx = draw(st.lists(st.integers(0, len(MEAN_GRID) - 1), min_size=n,
                            max_size=n, unique=True))
        means = [MEAN_GRID[i] for i in idx]
    else:
        base = draw(st.floats(0.2, 5.0))
        means = draw(st.permutations([base * (1 + 1e-3 * k) for k in range(n)]))
    return means, draw(st.floats(0.05, 2.0)) * math.fsum(means)


def stage_chain_oracle(means, z):
    """Formula-independent: (prefix tails, pdf) at z of a sum of independent
    exponentials, from the stage chain Exp(m_1) -> Exp(m_2) -> ... in
    40-digit arithmetic: the tail of every prefix sum m_1 + ... + m_j,
    j = 1..len(means), whose last entry is the tail of the whole sum, and
    the density of the whole sum.

    Uniformization: with L the largest rate, expm(G z) = sum_k Pois(k; L z)
    P^k for the substochastic P = I + G / L, so every term is nonnegative
    and no cancellation occurs; the series stops once the Poisson tail
    falls below 1e-30.  The first j stages evolve on their own, so the
    running sums of the stage occupancies are the prefix tails.
    """
    with mpmath.workdps(40):
        rates = [1 / mpmath.mpf(m) for m in means]
        big = max(rates)
        x = big * mpmath.mpf(z)
        stay = [1 - r / big for r in rates]
        move = [r / big for r in rates]
        occ = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (len(rates) - 1)
        seen = [mpmath.mpf(0)] * len(rates)
        pk, mass, k = mpmath.exp(-x), 0, 0
        while k <= x or 1 - mass > mpmath.mpf(10) ** -30:
            seen = [s + pk * o for s, o in zip(seen, occ)]
            mass += pk
            occ = [occ[0] * stay[0]] + [occ[j] * stay[j] + occ[j - 1] * move[j - 1]
                                        for j in range(1, len(occ))]
            k += 1
            pk *= x / k
        prefix = [float(mpmath.fsum(seen[:j])) for j in range(1, len(seen) + 1)]
        return prefix, float(seen[-1] * rates[-1])


# ---------------------------------------------------------------------------
# the zero-forcing statistics
# ---------------------------------------------------------------------------

def complex_gaussian(rng, shape, variance):
    """Whole-array circular complex Gaussian draw: all real parts, then all
    imaginary parts."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * math.sqrt(variance / 2.0)


def zf_block_replay(config, stats, seed, stream, block, size, retry=0):
    """Replay for rounding: (x_gain, z) of one ZF block of `mcharness` as a
    whole-block computation, from whole-array draws of h and h_p under the
    block's key: the inverse Gram stack, its diagonal and the projection of
    h_p, with no slab, chunk or workspace."""
    rng = mcharness.block_generator(seed, stream, block, retry)
    h = complex_gaussian(rng, (size, config.n, config.m), stats.mean_x)
    hh = np.conj(np.transpose(h, (0, 2, 1)))
    gram_inv = np.linalg.inv(hh @ h)
    hp = complex_gaussian(rng, (size, config.n, len(stats.mean_z_per_pt)), 1.0) \
        * np.sqrt(np.asarray(stats.mean_z_per_pt))
    x_gain = 1.0 / np.einsum("bii->bi", gram_inv).real
    return x_gain, np.sum(np.abs(gram_inv @ (hh @ hp)) ** 2, axis=2) * x_gain


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
    """Formula-independent: the distributional reformulation the closed
    forms rest on, by KS tests of ZF-chain draws against direct draws of
    the reference laws, on `mcharness` blocks and stream ids."""
    trials, seed, threads = mcharness._check_mc(trials, seed, threads)
    parts = mcharness._zf_blocks(config, stats, trials, seed, threads, mcharness.STREAM_KS_ZF,
                                 lambda x_gain, z: (x_gain[:, 0], z[:, 0]))
    x0 = np.concatenate([p[0] for p in parts])
    z0 = np.concatenate([p[1] for p in parts])

    def int_ref(block, size):
        rng = mcharness.block_generator(seed, mcharness.STREAM_KS_INT_REF, block)
        draws = np.zeros(size)
        for ez in stats.mean_z_per_pt:
            draws += rng.exponential(ez, size=size)
        return draws

    gain_ref = mcharness._erlang_draw(config, stats, seed, mcharness.STREAM_KS_GAIN_REF)
    x_ref = np.concatenate(mcharness.run_blocks(trials, gain_ref, threads))
    z_ref = np.concatenate(mcharness.run_blocks(trials, int_ref, threads))
    ks_x = ks_2samp(x0, x_ref)
    ks_z = ks_2samp(z0, z_ref)
    return DistributionCheck(
        gain_stat=float(ks_x.statistic),
        gain_pvalue=float(ks_x.pvalue),
        interference_stat=float(ks_z.statistic),
        interference_pvalue=float(ks_z.pvalue),
        trials=trials,
    )
