"""Closed-form outage probability of the secondary streams.

Evaluates the exact outage under the water-filling allocation and under a
fixed power, the large-array SINR equivalents, and the ergodic capacity and
binary-modulation symbol error rate as integrals of the outage.  The outage
is one sum of positive terms, exact for every tie structure of the
interferer means, evaluated by one kernel over an array of thresholds.
`outage_auto` is the one outage function for the optimal allocation, and
its `branch` names the paper's case.  A scalar outage is the kernel's
one-element case, and each integral is one kernel call on the nodes of the
exp-sinh rule of `specfun` (one more per halving of its step, where the
rule's error estimate asks for it).  The kernel gives success 0.0, without
the sum, to a threshold where every Erlang tail underflows to 0.0
(`specfun._tails_underflow`), and runs the others in chunks whose
(chunk x max(N, l_t)) arrays hold at most _CHUNK_BYTES (16 MiB), so a call
peaks at a few times that whatever N and its number of thresholds.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .powalloc import LN2, optimal_power
from .specfun import (_exp_sinh, _finite, _nonnegatives, _positive, _positives, _tails_underflow,
                      erlang_tails)

ASYMPTOTIC_CASES = ("rx_massive", "both_massive_lt_massive", "both_massive_lt_finite")

# the bytes of each (thresholds x max(N, l_t)) array of one chunk of the
# kernel.  A chunk holds about three such arrays at once (the h table, the
# Erlang tails and their work arrays); each chunk runs the N-step loop of h,
# so half this cap took 1.2 to 1.5 times as long at n = 8000 for half the
# memory
_CHUNK_BYTES = 1 << 24


@dataclass(frozen=True)
class OutageResult:
    p_out: float
    branch: str
    lambda_used: float
    c_used: float


# ---------------------------------------------------------------------------
# the outage mixed over the interference
# ---------------------------------------------------------------------------

def _mixed_success(a, bn, n_terms, z_means):
    """E_Z[Q(N, a Z + bn)] with N = n_terms and Z the sum of independent
    exponentials with the given means, one value per threshold (a, bn):
    the Erlang-tail success probability mixed over the interference.

    Tilting Z by e^{-aZ} keeps it a sum of exponentials, so with
    r_k = a E[Z_k] / (1 + a E[Z_k])

        E_Z[Q(N, a Z + bn)] = prod_k (1 - r_k) sum_{s<N} h_s(r) Q(N - s, bn),

    where h_s is the complete homogeneous polynomial of degree s in the r_k.
    Every term is positive and no difference of means appears, so ties need
    no special case; at a = 0 the sum is Q(N, bn).

    Where `_tails_underflow(N, bn)` holds (bn > 746 and
    bn - (N - 1) ln bn > 746) every tail Q(N - s, bn) is exactly 0.0, so
    such a threshold's success is 0.0 without t, r, h or the tails (summed,
    the zeros gave 0.0 too, or NaN where an h_s had overflowed to inf, from
    l_t in the hundreds at N in the thousands).  The other thresholds run
    in chunks whose (chunk x max(N, l_t)) arrays hold at most _CHUNK_BYTES.
    Each row is computed on its own, and einsum adds each row of a
    many-row operand in order; a lone row past N = 8193 it adds in pieces
    of its 8192-element buffer, so a lone row is run twice over, as two
    rows.  Neither the pruning, the chunking nor the call's size changes a
    value.
    """
    means = _positives(z_means, "interference means")
    a, bn = np.atleast_1d(a, bn)
    success = np.zeros(a.size)
    live = (~_tails_underflow(n_terms, bn)).nonzero()[0]  # NaN reaches erlang_tails
    step = max(1, _CHUNK_BYTES // (8 * max(n_terms, len(means))))
    for start in range(0, live.size, step):
        rows = live[start:start + step]
        if rows.size == 1:  # summed in order, as in a larger chunk
            rows = rows.repeat(2)
        # one row per threshold, each computed on its own
        t = np.multiply.outer(a[rows], means)
        # prod_k (1 - r_k) = prod_k 1 / (1 + t_k), summed in log space: a
        # product of l_t rounded factors drifts by up to l_t ulps
        weight = np.exp(-np.log1p(t).sum(axis=1))
        r = t / (1.0 + t)
        # h_s over the first k means is h_s over the first k - 1 plus r_k
        # times h_{s-1} over the first k: for each s, one running sum over
        # the means, in place (an array less per order, a tenth less time)
        h, row = np.empty((rows.size, n_terms)), np.ones_like(r)
        h[:, 0] = 1.0
        for s in range(1, n_terms):
            np.add.accumulate(np.multiply(r, row, out=row), axis=1, out=row)
            h[:, s] = row[:, -1]
        tails = erlang_tails(n_terms, bn[rows])
        success[rows] = weight * np.einsum("ts,st->t", h, tails[::-1])
    return success


def _cdf_coefficients(config, stats, slope, c_threshold, gamma_th):
    """(a, bn) of the outage integrand: the stream outage
    slope (X - C) < gamma (p_p z + n0) is the Erlang tail complement of X
    at u = a z + bn."""
    c1 = gamma_th / (slope * stats.mean_x)
    return config.p_p * c1, config.n0 * c1 + c_threshold / stats.mean_x


def _threshold(config, gamma_th):
    """gamma_th, the configured one when None, as a float scalar or 1-d
    array checked finite and >= 0 at every element (0 gives the stream
    inactivity probability)."""
    g = _nonnegatives(config.gamma_th if gamma_th is None else gamma_th, "gamma_th thresholds")
    if g.ndim > 1:
        raise ValueError(f"gamma_th thresholds must be finite and >= 0 on 1 axis, got {gamma_th!r}")
    return g


def _outage(config, stats, slope, c_threshold, gamma_th):
    """Outage of the received stream power slope (X - C) at threshold
    gamma_th (the configured one when None): a float, or an array for an
    array of thresholds."""
    g = _threshold(config, gamma_th)
    a, bn = _cdf_coefficients(config, stats, slope, c_threshold, g)
    p = np.clip(1.0 - _mixed_success(a, bn, config.diversity_order, stats.mean_z_per_pt),
                0.0, 1.0)
    return p if np.ndim(g) else float(p[0])


# ---------------------------------------------------------------------------
# public outage evaluations: gamma_th is the configured threshold when None;
# a 1-d array of thresholds gives an array of outages from one kernel call,
# the way to sweep the threshold (each call costs tens of microseconds of
# numpy overhead, however few thresholds it carries)
# ---------------------------------------------------------------------------

def outage_auto(config, stats, sol, gamma_th=None):
    """Exact outage under the optimal allocation.  The paper's two cases come
    from the one kernel, and `branch` names the case: "general" for randomly
    placed primary transmitters (interferer means that differ; ties are
    exact, no mean is perturbed), "iid_pts" for co-located ones (all means
    equal), and "iid_pts_equal_antennas" for co-located ones at m == n,
    where the sum is the single term 1 - e^{-bn} / (1 + a E_z)^{l_t}.

    Tolerance of its kernel (tests/test_accuracy.py): 1e-14 absolute for
    N = n - m + 1 <= 40, and 2e-13 absolute past bn = 700 on the pinned
    cases there (N up to 1200); 4.7e-13 has been seen at other such points
    (ROADMAP item 4).  The bound is absolute, not relative: a small outage
    carries fewer digits."""
    p = _outage(config, stats, sol.slope, sol.c_threshold, gamma_th)
    branch = ("general" if not stats.iid_z
              else "iid_pts_equal_antennas" if config.m == config.n else "iid_pts")
    return OutageResult(p_out=p, branch=branch,
                        lambda_used=sol.lam, c_used=sol.c_threshold)


def outage_fixed_power(config, stats, power, gamma_th=None):
    """Outage probability under a fixed per-stream power (the conventional
    baseline); returns the bare probability, 1 for a power <= 0.  The
    kernel and its tolerance are those of `outage_auto`."""
    power = _finite(power, "power")
    if power <= 0:
        g = _threshold(config, gamma_th)
        return np.ones(np.shape(g)) if np.ndim(g) else 1.0
    return _outage(config, stats, power, 0.0, gamma_th)


# ---------------------------------------------------------------------------
# large-array SINR equivalents
# ---------------------------------------------------------------------------

class AsymptoticSinr(NamedTuple):
    """`limit` is the asymptotic value (inf for the unbounded case);
    `pre_limit` is the finite-size deterministic equivalent."""

    limit: float
    pre_limit: float


def asymptotic_sinr(case, config, stats, sol, z_realization=None):
    """Deterministic SINR equivalents for large antenna counts.

    rx_massive              -- n -> inf, m and l_t finite: the SINR grows
                               without bound; pre_limit is
                               slope E[X] (n-m+1) / (p_p z + n0) at the
                               supplied interference realization z.
    both_massive_lt_massive -- m, n, l_t -> inf with n/m fixed: both the
                               stream gain and the aggregate interference
                               harden to their means, giving
                               p(mu_x) mu_x / (p_p E[Z] + n0) with
                               mu_x = (n-m+1) E[X].
    both_massive_lt_finite  -- m, n -> inf with n/m fixed, l_t finite: the
                               multiplier converges to its deterministic
                               value, giving
                               (min(q, E[Y] p_max) E[X]/E[Y]) ((n-m+1)/m)
                               / (p_p z + n0).
    """
    if case not in ASYMPTOTIC_CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {ASYMPTOTIC_CASES}")
    if z_realization is not None and _nonnegatives(z_realization, "z_realization").ndim:
        raise ValueError(f"z_realization must be one finite number >= 0, got {z_realization!r}")
    if z_realization is None and case != "both_massive_lt_massive":
        raise ValueError(f"{case} requires an interference realization z_realization")
    shape = config.diversity_order
    if case == "rx_massive":
        pre = sol.slope * stats.mean_x * shape / (config.p_p * z_realization + config.n0)
        return AsymptoticSinr(limit=math.inf, pre_limit=pre)
    if case == "both_massive_lt_massive":
        mu_x = shape * stats.mean_x
        val = optimal_power(mu_x, sol) * mu_x / (config.p_p * stats.mean_z + config.n0)
        return AsymptoticSinr(limit=val, pre_limit=val)
    ey = stats.mean_y
    val = (min(config.q, ey * config.p_max) * stats.mean_x / ey) * (shape / config.m) \
        / (config.p_p * z_realization + config.n0)
    return AsymptoticSinr(limit=val, pre_limit=val)


# ---------------------------------------------------------------------------
# integrals of the outage
# ---------------------------------------------------------------------------

def ergodic_capacity(config, stats, sol):
    """Mean stream rate (1/ln2) int_0^inf (1 - P_out(x)) / (1 + x) dx in bps/Hz.

    1 - P_out is the kernel's own success probability; the exp-sinh rule of
    `specfun`, finest near the typical SINR, stops once its error estimate
    is below 1e-13 relative (ArithmeticError otherwise).  Tolerance
    (tests/test_accuracy.py): 1e-14 relative on the systems its row draws
    (N up to 64 with l_t up to 80, and N up to 1997 at two interferers);
    the rule's 1e-13 gate is all that is claimed elsewhere.  Nodes where every
    Erlang tail underflows cost no sum, and each kernel call runs in
    chunks of at most _CHUNK_BYTES per array.
    """

    def integrand(x):
        a, bn = _cdf_coefficients(config, stats, sol.slope, sol.c_threshold, x)
        return _mixed_success(a, bn, config.diversity_order, stats.mean_z_per_pt) / (1.0 + x)

    typical = sol.slope * stats.mean_x * config.diversity_order / sol.offset
    return _exp_sinh(integrand, typical) / LN2


def average_ser_binary(config, stats, sol, a, b):
    """Mean symbol error rate (A sqrt(B) / (2 sqrt(pi)))
    int_0^inf e^{-Bx} x^{-1/2} P_out(x) dx for binary modulations.

    The integrable endpoint is removed by x = t^2, giving
    (A sqrt(B) / sqrt(pi)) int_0^inf e^{-B t^2} P_out(t^2) dt: the exp-sinh
    rule of `specfun` on the scale 1/sqrt(B).  P_out = 1 - success carries
    a few 1e-15 absolute error, so the rule's gate and the tolerance
    (tests/test_accuracy.py) are 1e-13 absolute, not relative
    (ArithmeticError past the gate).  The outage is evaluated only at nodes
    where e^{-B t^2} > 0 (the others are 0.0), by the kernel with its
    pruning and chunking.
    """
    a, b = _positive(a, "a"), _positive(b, "b")
    factor = a * math.sqrt(b) / math.sqrt(math.pi)

    def integrand(t):
        decay = np.exp(-b * t * t)
        live = decay > 0.0
        x = t[live]
        decay[live] *= _outage(config, stats, sol.slope, sol.c_threshold, x * x)
        return decay

    return factor * _exp_sinh(integrand, 1.0 / math.sqrt(b), 1e-13 / factor)
