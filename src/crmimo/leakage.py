"""Instantaneous interference-leakage control.

The average interference cap keeps the mean secondary interference at the
primary receivers below q, but single realizations can exceed it.  This
module gives the probability of that event for a power vector, drops
transmit antennas until it is within a tolerated level, and estimates the
law of the active-antenna count.  Antennas go by power, so a reduction is one
stage chain per primary receiver, begun by a positive uniformization series
(`linkstats`), whose prefix tails multiply into one receiver product: numpy
only; scipy serves `validate` and the tests.
The active-antenna law draws and runs its blocks through `mcharness` and
reduces each block at once: its rows are grouped by powered-antenna count,
and each group and receiver is one stacked stage chain.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linkstats import _prefix_tails
from .mcharness import STREAM_ANTENNA, _check_seed, _erlang_draw, run_blocks
from .powalloc import optimal_power
from .specfun import _check_int, _nonnegatives, _positive, _positives


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


def _receiver_tails(powered, mean_y_per_pr, q):
    """Entry (b, j): the product over primary receivers of the tail at q of
    the aggregate interference from the j + 1 weakest powered antennas of
    row b of the (B, n) ascending powers, the prefix tails of one stage
    chain per receiver, stacked over the rows (`_prefix_tails`)."""
    tails = np.ones(powered.shape)
    if powered.size:
        for ey in mean_y_per_pr:
            tails *= _prefix_tails(q, powered * ey)
    return tails


def _powered_groups(gains, sol, config, stats):
    """The rows of the (B, m) stream gains grouped by their count n of
    powered antennas: yields each group's row indices and the receiver
    tails of its rows' ascending powered antennas, shape (rows, n)."""
    powers = np.sort(optimal_power(gains, sol), axis=1)
    counts = np.count_nonzero(powers, axis=1)
    for n in np.unique(counts):
        rows = np.flatnonzero(counts == n)
        yield rows, _receiver_tails(powers[rows, config.m - n:], stats.mean_y_per_pr, config.q)


def _active_counts(gains, sol, config, stats, t_g):
    """Final active count of the reduction for every row of the (B, m)
    stream gains: the first count from m down whose leakage is within t_g.
    The survivors are the weakest antennas, silent ones first, so the count
    is the silent ones plus the longest powered prefix within t_g; silent
    antennas leak nothing, so an all-silent row keeps all m."""
    active = np.empty(len(gains), dtype=np.intp)
    for rows, tails in _powered_groups(gains, sol, config, stats):
        n = tails.shape[1]
        longest = np.max((tails <= t_g) * np.arange(1, n + 1), axis=1, initial=0)
        active[rows] = config.m - n + longest
    return active


def leakage_probability(powers, mean_y_per_pr, q):
    """Probability that every primary receiver sees aggregate interference
    above q:

        prod_j Pr[sum_i p_i E[Y^(j)] E_i > q],  E_i ~ Exp(1) independent:

    per receiver the aggregate is a sum of independent exponentials with
    means p_i E[Y^(j)], the stage chain over the sorted means.  It is the
    last entry of the receiver product `_receiver_tails` over all powered
    antennas, so the first step of `reduce_antennas` by construction.
    Antennas with zero power are excluded; all-zero powers mean no
    transmission and no leakage.
    """
    p_all, means, q = checked_leakage_inputs(powers, mean_y_per_pr, q)
    powered = np.sort(p_all[p_all > 0])
    if powered.size == 0:
        return 0.0
    return float(_receiver_tails(powered[None], means, q)[0, -1])


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
    ((_, tails),) = _powered_groups(gains[None], sol, config, stats)
    silent = config.m - tails.shape[1]
    steps = []
    for count in range(config.m, 0, -1):
        prob = float(tails[0, count - silent - 1]) if count > silent else 0.0
        steps.append((count, prob))
        if prob <= t_g:
            return LeakageReport(steps=tuple(steps), m_effective=count, suspended=False)
    return LeakageReport(steps=tuple(steps), m_effective=0, suspended=True)


def antenna_pmf(config, stats, sol, t_g, trials, seed=0):
    """Distribution of the active-antenna count over independent stream-gain
    realizations (Erlang(n-m+1, E[X]) per antenna), obtained by running the
    reduction on each draw.  t_g, trials and seed are checked before any
    draw.  Each block of draws is reduced at once (`_active_counts`: one
    stacked stage chain per powered count and receiver), and the blocks run
    through `run_blocks` on one thread and add up their integer counts.
    """
    t_g, trials = _check_t_g(t_g), _check_int(trials, "trials")
    draw = _erlang_draw(config, stats, _check_seed(seed), STREAM_ANTENNA, (config.m,))

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
