"""Instantaneous interference-leakage control.

The average interference cap keeps the mean secondary interference at the
primary receivers below q, but single realizations can exceed it.  This
module gives the probability of that event for a power vector, drops
transmit antennas until it is within a tolerated level, and estimates the
law of the active-antenna count.  Antennas go by power, so a reduction is one
stage chain per primary receiver, begun by a positive uniformization series
(`linkstats`), whose prefix tails multiply into one receiver product: numpy
only; scipy serves `validate` and the tests.  A silent antenna is a stage of
mean 0, one of the chain's negligible stages, and leaks nothing.
The active-antenna law draws and runs its blocks through `mcharness` and
reduces each block at once: per receiver, one stack of the block's rows,
grouped by their count of negligible stages, silent ones included.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linkstats import _prefix_tails
from .mcharness import STREAM_ANTENNA, _check_mc, _erlang_draw, run_blocks
from .powalloc import optimal_power
from .specfun import _nonnegatives, _positive, _positives


def __getattr__(name):  # scipy's expm, loaded when bench/tracer.py looks up leakage.expm
    if name != "expm":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import expm
    return expm


@dataclass(frozen=True)
class LeakageReport:
    """Trace of one antenna-reduction run: (active count, leakage
    probability) per evaluation, the final active count, and whether
    transmission had to be suspended entirely."""

    steps: tuple
    m_effective: int
    suspended: bool


@dataclass(frozen=True)
class AntennaPmf:
    """Empirical distribution of the active-antenna count; pmf[l] is the
    probability of ending with l antennas, l = 0..m."""

    pmf: tuple
    mean_active: float
    std_error: float
    trials: int


def _check_t_g(t_g):
    """t_g as a float, checked: it must lie in (0, 1]."""
    t_g = _positive(t_g, "t_g")
    if t_g > 1.0:
        raise ValueError(f"t_g must be finite and lie in (0, 1], got {t_g!r}")
    return t_g


def checked_leakage_inputs(powers, mean_y_per_pr, q):
    """Powers, receiver means and q of a leakage query, checked and converted:
    a 1-d array of powers >= 0, a non-empty array of positive means, q > 0."""
    p = _nonnegatives(powers, "powers")
    if p.ndim != 1:
        raise ValueError(f"powers must be a 1-d sequence of finite values >= 0, got {powers!r}")
    return p, np.array(_positives(mean_y_per_pr, "mean_y_per_pr")), _positive(q, "q")


def _receiver_tails(powers, mean_y_per_pr, q):
    """Entry (b, j): the product over primary receivers of the tail at q of
    the aggregate interference from the j + 1 weakest antennas of row b of
    the (B, m) ascending powers, the prefix tails of one stage chain per
    receiver, stacked over the rows (`_prefix_tails`)."""
    tails = np.ones(powers.shape)
    for ey in mean_y_per_pr:
        tails *= _prefix_tails(q, powers * ey)
    return tails


def _active_counts(gains, sol, config, stats, t_g):
    """Final active count of the reduction for every row of the (B, m)
    stream gains: the first count from m down whose leakage is within t_g.
    The survivors are the weakest antennas, so the count is the longest
    prefix of the ascending powers within t_g; silent antennas come first
    and leak nothing, so an all-silent row keeps all m.  The rows are one
    stack per receiver, grouped by their count of negligible stages."""
    powers = np.sort(optimal_power(gains, sol), axis=1)
    tails = _receiver_tails(powers, stats.mean_y_per_pr, config.q)
    return np.max((tails <= t_g) * np.arange(1, config.m + 1), axis=1)


def leakage_probability(powers, mean_y_per_pr, q):
    """Probability that every primary receiver sees aggregate interference
    above q:

        prod_j Pr[sum_i p_i E[Y^(j)] E_i > q],  E_i ~ Exp(1) independent:

    per receiver the aggregate is a sum of independent exponentials with
    means p_i E[Y^(j)], the stage chain over the sorted means.  It is the
    last entry of the receiver product `_receiver_tails` over all antennas,
    so the first step of `reduce_antennas` by construction.  An antenna
    with zero power is a stage of mean 0 and adds nothing; all-zero or no
    powers mean no transmission and no leakage.  Tolerance
    (tests/test_accuracy.py): 1e-14 absolute at one to three receivers, for
    up to 64 powers; a product of tails in [0, 1] is off by at most the sum
    of their errors.
    """
    p, means, q = checked_leakage_inputs(powers, mean_y_per_pr, q)
    if p.size == 0:
        return 0.0
    return float(_receiver_tails(np.sort(p)[None], means, q)[0, -1])


def reduce_antennas(x_gains, sol, config, stats, t_g):
    """Iterative antenna reduction for one realization of the stream gains.

    Starting from all m antennas, evaluate the leakage probability of the
    current power vector; stop as soon as it is within t_g, otherwise drop
    the antenna with the largest average interference p_i * max_j E[Y^(j)],
    that is the largest power, and repeat.  Transmission is suspended when
    no antenna survives.  The survivors are the weakest antennas, silent
    ones first (the tie order leaves the same powers), so each step's
    leakage is a product over the receivers of prefix tails of one stage
    chain over the ascending powers: the one-row case of the block
    reduction that `antenna_pmf` runs, with every step kept.
    """
    t_g, gains = _check_t_g(t_g), _nonnegatives(x_gains, "stream gains")
    if gains.shape != (config.m,):
        raise ValueError(f"expected {config.m} finite stream gains >= 0, got {x_gains!r}")
    powers = np.sort(optimal_power(gains[None], sol), axis=1)
    tails = _receiver_tails(powers, stats.mean_y_per_pr, config.q)
    steps = []
    for count in range(config.m, 0, -1):
        prob = float(tails[0, count - 1])
        steps.append((count, prob))
        if prob <= t_g:
            return LeakageReport(steps=tuple(steps), m_effective=count, suspended=False)
    return LeakageReport(steps=tuple(steps), m_effective=0, suspended=True)


def antenna_pmf(config, stats, sol, t_g, trials, seed=0):
    """Distribution of the active-antenna count over independent stream-gain
    realizations (Erlang(n-m+1, E[X]) per antenna), obtained by running the
    reduction on each draw.  t_g, trials and seed are checked before any
    draw.  Each block of draws is reduced at once (`_active_counts`: per
    receiver, one stack grouped by count of negligible stages, silent ones
    included), and the blocks run through `run_blocks` on one thread and
    add up their integer counts.
    """
    trials, seed, _ = _check_mc(trials, seed)
    t_g = _check_t_g(t_g)
    draw = _erlang_draw(config, stats, seed, STREAM_ANTENNA, (config.m,))

    def worker(block, size):
        active = _active_counts(draw(block, size), sol, config, stats, t_g)
        return np.bincount(active, minlength=config.m + 1)

    counts = sum(run_blocks(trials, worker))
    levels = np.arange(config.m + 1)
    # exact integer sums, so the same floats as per-trial accumulation
    sum_l, sum_l2 = float(levels @ counts), float(levels ** 2 @ counts)
    mean = sum_l / trials
    var = (sum_l2 - trials * mean * mean) / (trials - 1) if trials > 1 else 0.0
    se = math.sqrt(max(0.0, var) / trials)
    return AntennaPmf(
        pmf=tuple(int(c) / trials for c in counts),
        mean_active=mean,
        std_error=se,
        trials=trials,
    )
