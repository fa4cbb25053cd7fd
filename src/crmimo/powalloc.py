"""Secondary transmit-power allocation.

Solves the average-interference-constrained rate maximization for the
common Lagrangian multiplier and exposes the per-stream water-filling
rule and the conventional fixed allocation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _check_int, _finite, _nonnegatives, _positive, exp1, regularized_upper_gamma

LN2 = math.log(2.0)


class RootFindingError(RuntimeError):
    """Raised when the multiplier equation cannot be bracketed or solved."""


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts, node counts and link-budget parameters (linear units,
    noise-normalized).  l_t and l_r serve only the CLI's scalar broadcast;
    computations count the nodes by the lengths of the `LinkStats` means."""

    m: int
    n: int
    l_t: int
    l_r: int
    p_p: float
    p_max: float
    q: float
    gamma_th: float
    n0: float = 1.0

    def __post_init__(self):
        for name, least in (("m", "1"), ("n", "m"), ("l_t", "1"), ("l_r", "1")):
            value = _check_int(getattr(self, name), f"SystemConfig.{name}")
            if value < (self.m if least == "m" else 1):
                raise ValueError(f"SystemConfig.{name} must be an integer >= {least}")
            object.__setattr__(self, name, value)
        for name in ("p_p", "p_max", "q", "gamma_th", "n0"):
            object.__setattr__(self, name, _positive(getattr(self, name), f"SystemConfig.{name}"))

    @property
    def diversity_order(self):
        """Shape parameter of each stream's effective channel gain."""
        return self.n - self.m + 1


@dataclass(frozen=True)
class PowerSolution:
    """Solved allocation: p_i(x) = max(0, slope - offset / x).

    c_threshold = offset / slope is the minimum channel gain that
    activates a stream; target_mean_power is the enforced per-stream
    average power min(q / (m E[Y]), p_max / m).
    """

    lam: float
    c_threshold: float
    target_mean_power: float
    slope: float
    offset: float


def conventional_power(config, stats):
    """Fixed per-stream power min(q / (m E[Y]), p_max / m)."""
    return min(config.q / (config.m * stats.mean_y), config.p_max / config.m)


def _water_fill(lam, config, stats):
    """(mean_power, its derivative Pr[X > C] / (ln2 E[Y]) = first / lam)."""
    if lam <= 0:
        return 0.0, 0.0
    ex = stats.mean_x
    slope = lam / (LN2 * stats.mean_y)
    offset = config.p_p * stats.mean_z + config.n0
    u = offset / (slope * ex)
    shape = config.diversity_order
    if shape > 1:
        first = slope * regularized_upper_gamma(shape, u)
        second = offset * regularized_upper_gamma(shape - 1, u) / ((shape - 1) * ex)
    else:
        first = slope * math.exp(-u)
        second = offset * exp1(u) / ex
    return first - second, first / lam


def mean_power(lam, config, stats):
    """Average of the water-filling power over the stream-gain distribution.

    Closed form of E[(lam/(ln2 E[Y]) - (p_p E[Z] + N0)/X)^+] with X an
    Erlang of shape n-m+1 and scale E[X]:

        n > m:  slope Q(n-m+1, u) - offset Q(n-m, u) / ((n-m) E[X])
        n = m:  slope e^-u - offset E1(u) / E[X]

    where u = C / E[X], C = offset / slope, slope = lam / (ln2 E[Y]).
    Convex and increasing in lam, with derivative Pr[X > C] / (ln2 E[Y]).
    Tolerance (tests/test_accuracy.py): 1e-13 relative for u up to 50; the
    difference of the two terms loses about u ulps to their cancellation.
    """
    return _water_fill(_finite(lam, "lam"), config, stats)[0]


def solve_lambda(config, stats):
    """Solve mean_power(lam) = min(q/(m E[Y]), p_max/m) by safeguarded Newton.

    mean_power < slope puts the bracket's lower end at lam_asym = ln2 E[Y]
    target; for n > m, mean_power >= slope - offset / ((n-m) E[X]) gives its
    upper end, which at n = m is widened eightfold.  From the upper end,
    Newton runs on ln mean_power against ln lam (nearly linear where a weak
    link makes the mean power fall like e^-u); a step leaving the bracket
    bisects it.  Monotonicity is checked on every evaluated point.  Stops
    once the Newton step is within 4 ulps of lam or the bracket collapses;
    the root is the bracket end with the smaller residual.  Raises
    RootFindingError if no bracket exists or the residual does not close.
    Tolerance (tests/test_accuracy.py): lam within 1e-14 relative of the
    root, for n - m up to 40 and u = C / E[X] at the root from 1e-3 to 50.
    """
    ey = stats.mean_y
    target = conventional_power(config, stats)
    offset = config.p_p * stats.mean_z + config.n0
    lo = LN2 * ey * target
    hi = (LN2 * ey * (target + offset / ((config.n - config.m) * stats.mean_x))
          if config.n > config.m else 8.0 * lo)

    f_lo, _ = _water_fill(lo, config, stats)
    f_hi, d_hi = _water_fill(hi, config, stats)
    for _ in range(60):
        if f_hi >= target:
            break
        hi *= 8.0
        f_hi, d_hi = _water_fill(hi, config, stats)
    if not (f_lo <= target <= f_hi):
        raise RootFindingError(
            f"no bracket for multiplier: f({lo:.3e})={f_lo:.3e}, "
            f"f({hi:.3e})={f_hi:.3e}, target={target:.3e}"
        )

    slack = 1e-9 * (abs(f_lo) + abs(f_hi) + target)
    lam, f, d = hi, f_hi, d_hi
    for _ in range(200):
        if abs(f - target) <= 4.0 * math.ulp(lam) * d:
            break
        step = (lam + lam * math.expm1(math.log(target / f) * f / (lam * d))
                if f > 0 and d > 0 else lo)
        lam = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < lam < hi:
            break
        f, d = _water_fill(lam, config, stats)
        if f < f_lo - slack or f > f_hi + slack:
            raise RootFindingError(
                f"mean power is not monotone near lam={lam:.6e} "
                f"(f_lo={f_lo:.6e}, f={f:.6e}, f_hi={f_hi:.6e})"
            )
        if f < target:
            lo, f_lo = lam, f
        else:
            hi, f_hi = lam, f

    residual, lam = min((abs(f_lo - target), lo), (abs(f_hi - target), hi))
    if residual > 1e-10 * target:
        raise RootFindingError(
            f"multiplier iteration did not converge: residual {residual:.3e} "
            f"exceeds {1e-10 * target:.3e}"
        )

    slope = lam / (LN2 * ey)
    return PowerSolution(
        lam=lam,
        c_threshold=offset / slope,
        target_mean_power=target,
        slope=slope,
        offset=offset,
    )


def optimal_power(x_i, sol):
    """Per-stream power max(0, slope - offset / x) for realized gain x.

    Accepts scalars or arrays of finite gains >= 0; a zero gain, or one so
    small that offset / x overflows, gets zero.
    """
    x = _nonnegatives(x_i, "stream gains")
    with np.errstate(divide="ignore", over="ignore"):
        p = np.maximum(sol.slope - sol.offset / x, 0.0)
    return p if x.ndim else float(p)
