"""Instantaneous interference-leakage control.

The average interference cap keeps the mean secondary interference at the
primary receivers below q, but individual realizations can still exceed
it.  This module evaluates the probability of that event for a given
power vector, iteratively disables transmit antennas until the
probability drops below a tolerated level, and estimates the resulting
distribution of the active-antenna count.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm  # noqa: F401  bench/tracer.py traces leakage.expm by name

from .linkstats import hypoexp_ccdf
from .mcharness import STREAM_ANTENNA, block_generator, block_sizes
from .powalloc import optimal_power


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


def leakage_probability(powers, mean_y_per_pr, q):
    """Probability that every primary receiver sees aggregate interference
    above q:

        prod_j sum_i W_i exp(-q / (p_i E[Y^(j)]))

    with W_i = prod_{k != i} p_i / (p_i - p_k): per receiver the aggregate
    is a sum of independent exponentials with means p_i E[Y^(j)], and the
    partial-fraction weights depend on the powers only.  Each tail is
    `hypoexp_ccdf`, which takes the stage chain when the weights are too
    large to trust.  Antennas with zero power are excluded; all-zero powers
    mean no transmission and no leakage.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    p_all = np.asarray(powers, dtype=float)
    if np.any(p_all < 0):
        raise ValueError("powers must be non-negative")
    p = p_all[p_all > 0]
    if p.size == 0:
        return 0.0
    total = 1.0
    for ey in mean_y_per_pr:
        total *= hypoexp_ccdf(q, p * ey)
    return total


def reduce_antennas(x_gains, sol, config, stats, t_g):
    """Iterative antenna reduction for one realization of the stream gains.

    Starting from all m antennas, evaluate the leakage probability of the
    current power vector; stop as soon as it is within t_g, otherwise drop
    the antenna with the largest average interference p_i * max_j E[Y^(j)]
    (ties broken towards the lowest index) and repeat.  Transmission is
    suspended when no antenna survives.
    """
    if not 0.0 < t_g <= 1.0:
        raise ValueError(f"t_g must lie in (0, 1], got {t_g}")
    gains = np.asarray(x_gains, dtype=float)
    if gains.shape != (config.m,):
        raise ValueError(f"expected {config.m} stream gains, got shape {gains.shape}")
    powers = optimal_power(gains, sol)
    max_ey = max(stats.mean_y_per_pr)
    active = list(range(config.m))
    steps = []
    while active:
        prob = leakage_probability(powers[active], stats.mean_y_per_pr, config.q)
        steps.append((len(active), prob))
        if prob <= t_g:
            return LeakageReport(steps=tuple(steps), m_effective=len(active),
                                 suspended=False)
        drop = max(active, key=lambda i: (powers[i] * max_ey, -i))
        active.remove(drop)
    return LeakageReport(steps=tuple(steps), m_effective=0, suspended=True)


def antenna_pmf(config, stats, sol, t_g, trials, seed=0):
    """Distribution of the active-antenna count over independent stream-gain
    realizations (Erlang(n-m+1, E[X]) per antenna), obtained by running the
    reduction on each draw.  Per-block keyed generators make the result
    independent of scheduling for a fixed seed.
    """
    counts = np.zeros(config.m + 1, dtype=np.int64)
    sum_l = 0.0
    sum_l2 = 0.0
    for block, size in enumerate(block_sizes(trials)):
        rng = block_generator(seed, STREAM_ANTENNA, block)
        draws = rng.gamma(config.diversity_order, stats.mean_x, size=(size, config.m))
        for row in draws:
            report = reduce_antennas(row, sol, config, stats, t_g)
            counts[report.m_effective] += 1
            sum_l += report.m_effective
            sum_l2 += report.m_effective ** 2
    mean = sum_l / trials
    var = (sum_l2 - trials * mean * mean) / (trials - 1) if trials > 1 else 0.0
    se = math.sqrt(max(0.0, var) / trials)
    return AntennaPmf(
        pmf=tuple(int(c) / trials for c in counts),
        mean_active=mean,
        std_error=se,
        trials=trials,
    )
