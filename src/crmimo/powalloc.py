"""Secondary transmit-power allocation.

Solves the average-interference-constrained rate maximization for the
common Lagrangian multiplier and exposes the per-stream water-filling
rule and the conventional fixed allocation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _check_int, exp1, regularized_upper_gamma

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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"SystemConfig.{name} must be finite and positive, got {value}")

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


def mean_power(lam, config, stats):
    """Average of the water-filling power over the stream-gain distribution.

    Closed form of E[(lam/(ln2 E[Y]) - (p_p E[Z] + N0)/X)^+] with X an
    Erlang of shape n-m+1 and scale E[X]:

        n > m:  slope Q(n-m+1, u) - offset Q(n-m, u) / ((n-m) E[X])
        n = m:  slope e^-u - offset E1(u) / E[X]

    where u = C / E[X], C = offset / slope, slope = lam / (ln2 E[Y]).
    """
    if lam <= 0:
        return 0.0
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
    return first - second


def solve_lambda(config, stats):
    """Solve mean_power(lam) = min(q/(m E[Y]), p_max/m) by bracketed bisection.

    The left side is monotone increasing in lam; monotonicity is verified
    on the evaluated points rather than assumed.  The root is the upper end
    of the bracket, whose residual the bisection already holds.  Raises
    RootFindingError when no bracket exists or the residual does not close.
    """
    ey = stats.mean_y
    target = conventional_power(config, stats)
    lam_asym = LN2 * ey * target
    # f(lo) <= slope(lo) = 1e-6 target, so only the upper end may need widening
    lo, hi = lam_asym * 1e-6, lam_asym * 1e6

    f_lo = mean_power(lo, config, stats)
    f_hi = mean_power(hi, config, stats)
    for _ in range(60):
        if f_hi >= target:
            break
        hi *= 8.0
        f_hi = mean_power(hi, config, stats)
    if not (f_lo <= target <= f_hi):
        raise RootFindingError(
            f"no bracket for multiplier: f({lo:.3e})={f_lo:.3e}, "
            f"f({hi:.3e})={f_hi:.3e}, target={target:.3e}"
        )

    slack = 1e-9 * (abs(f_lo) + abs(f_hi) + target)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = mean_power(mid, config, stats)
        if f_mid < f_lo - slack or f_mid > f_hi + slack:
            raise RootFindingError(
                f"mean power is not monotone near lam={mid:.6e} "
                f"(f_lo={f_lo:.6e}, f_mid={f_mid:.6e}, f_hi={f_hi:.6e})"
            )
        if f_mid < target:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        if abs(f_mid - target) <= 1e-12 * target:
            hi, f_hi = mid, f_mid
            break

    lam, residual = hi, abs(f_hi - target)
    if residual > 1e-10 * target:
        raise RootFindingError(
            f"multiplier bisection did not converge: residual {residual:.3e} "
            f"exceeds {1e-10 * target:.3e}"
        )

    slope = lam / (LN2 * ey)
    offset = config.p_p * stats.mean_z + config.n0
    return PowerSolution(
        lam=lam,
        c_threshold=offset / slope,
        target_mean_power=target,
        slope=slope,
        offset=offset,
    )


def optimal_power(x_i, sol):
    """Per-stream power max(0, slope - offset / x) for realized gain x.

    Accepts scalars or arrays of finite gains >= 0; a zero gain gets zero.
    """
    x = np.asarray(x_i, dtype=float)
    if not ((0.0 <= x) & (x < math.inf)).all():  # NaN fails both
        raise ValueError(f"stream gains must be finite and >= 0, got {x_i}")
    with np.errstate(divide="ignore"):
        p = np.maximum(sol.slope - sol.offset / x, 0.0)
    if np.ndim(x_i) == 0:
        return float(p)
    return p
