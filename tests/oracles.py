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

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal

import mpmath
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre
from scipy.stats import ks_2samp

from crmimo import mcharness, validation


def anchor_setup(n=5):
    """(SystemConfig, LinkStats) of the validation grid's first system, two
    tied interferers at m = 4, with n receive antennas."""
    m, _, *rest = validation.GRID[0]
    return validation._system(m, n, *rest)


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


_exp = np.frompyfunc(Decimal.exp, 1, 1)


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

def quadrature_oracles(config, stats, sol, b=1.0):
    """Formula-independent of the exp-sinh rule: (ergodic_capacity,
    average_ser_binary at A = 1 and B = b) by 30-digit adaptive mpmath
    quadrature of the success law, with `decimal_success` at 40 digits at
    each node."""
    def to_decimal(x):
        return Decimal(mpmath.nstr(x, 40))

    with mpmath.workdps(30):
        gain = mpmath.mpf(sol.slope) * stats.mean_x

        def success(x):
            a = config.p_p * x / gain
            bn = config.n0 * x / gain + mpmath.mpf(sol.c_threshold) / stats.mean_x
            with decimal.localcontext() as ctx:
                ctx.prec = 40
                s = decimal_success(to_decimal(a), to_decimal(bn), config.diversity_order,
                                    stats.mean_z_per_pt)
            return mpmath.mpf(str(s))

        typical = gain * config.diversity_order / (config.p_p * stats.mean_z + config.n0)
        cap = mpmath.quad(lambda x: success(x) / (1 + x), [0, typical, mpmath.inf])
        ser = mpmath.quad(lambda t: mpmath.exp(-b * t * t) * (1 - success(t * t)),
                          [0, 1 / mpmath.sqrt(b), mpmath.inf])
        return float(cap / mpmath.log(2)), float(ser * mpmath.sqrt(b / mpmath.pi))


def capacity_oracle(config, stats, sol, degree):
    """Formula-independent of the exp-sinh rule: ergodic_capacity in 30-digit
    arithmetic, int_0^inf success(e^u - 1) du with u = ln(1 + x), by
    composite Gauss-Legendre (3 2^(degree - 1) mpmath nodes per piece) of
    `decimal_success`.  The success falls on the scale of the typical SINR
    x_t, then drops where the noise alone reaches N, at x_0 = (N - c) / b
    (bn = b x + c), over a width w = sqrt(N) / b; the pieces end at x_t 4^k
    and at x_0 + k w.  Past x_0 + 40 w the success is below e^-150."""
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        n_terms = config.diversity_order
        gain = Decimal(sol.slope) * Decimal(stats.mean_x)
        a, b = Decimal(config.p_p) / gain, Decimal(config.n0) / gain
        c = Decimal(sol.c_threshold) / Decimal(stats.mean_x)
        typical = n_terms / (a * Decimal(stats.mean_z) + b)
        x0, w = (n_terms - c) / b, Decimal(n_terms).sqrt() / b
        ends = [Decimal(0)] + [typical * Decimal(4) ** k for k in range(-3, 12)
                               if typical * Decimal(4) ** k < x0 - 8 * w]
        ends = [(1 + x).ln() for x in ends + [x0 + k * w for k in (-8, -2, 0, 2, 8, 40)]]
        rule = [(Decimal(mpmath.nstr(x, 32)), Decimal(mpmath.nstr(wt, 32)))
                for x, wt in GaussLegendre(mpmath.mp).calc_nodes(degree, 110)]
        nodes = [((lo + hi + (hi - lo) * x) / 2, (hi - lo) * wt / 2)
                 for lo, hi in zip(ends, ends[1:]) for x, wt in rule]
        x = np.array([u.exp() - 1 for u, _ in nodes], dtype=object)
        success = decimal_success(a * x, b * x + c, n_terms, stats.mean_z_per_pt)
        return sum(f * wt for f, (_, wt) in zip(success, nodes)) / Decimal(2).ln()


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
