"""Second-order channel statistics.

Builds all average channel gains from node geometry via power-law path
loss, and evaluates the order-statistics mean of the strongest
secondary-to-primary link (one integral, for any number of receivers)
together with the hypoexponential law (mean, density and tail) of the
aggregate primary-to-secondary interference.  This module is the only home
of that law's evaluator: one stage-chain matrix exponential over the means
in ascending order, exact for any tie structure, whose running occupancy
sums are the prefix tails (the last is the tail of the whole sum) and whose
last stage gives the density.  Its first level is a positive uniformization
series, so the library needs numpy only (scipy serves `validate`, the KS
check and the tests).  Means are never perturbed.
The outage mixture is a positive sum over the means themselves (`outage`).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .specfun import _check_int, _exp_sinh


def _finite_positive(x):
    """True for a finite number > 0 (False for NaN and inf)."""
    return 0.0 < x < math.inf


def pathloss_gain(d, d_ref, alpha):
    """Average channel gain (d / d_ref)^-alpha for distance d in meters."""
    if not all(map(_finite_positive, (d, d_ref, alpha))):
        raise ValueError(
            f"pathloss_gain requires finite positive inputs, got d={d}, d_ref={d_ref}, alpha={alpha}"
        )
    return (d / d_ref) ** (-alpha)


def _stage_chain(means, z):
    """Row 0 of expm(G z) for the bidiagonal generator G of the stage chain
    Exp(m_1) -> Exp(m_2) -> ... over ascending means: the probability of
    being in each stage at time z, exact for any tie structure; also returns
    the stage rates.  Squaring keeps the diagonal and superdiagonal at their
    exact values (Al-Mohy and Higham, 2009); plain squaring loses 1e-8 at
    near ties."""
    th = np.asarray(means, dtype=float)
    if not (th.size and 0.0 < th[0] and th[-1] < math.inf and (np.diff(th) >= 0).all()):
        raise ValueError(f"means must be finite, positive and ascending, got {th.tolist()}")
    if not 0.0 <= z < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {z}")
    # negligible leading stages only stiffen the generator; dropping them
    # shifts the sum by at most their total mean
    th = th[th > 1e-12 * th[-1]]
    rates, n = 1.0 / th, th.size
    s = max(0, math.frexp(16 * z * rates.max())[1])  # L = z max(rates) / 2^s < 1/16
    diags = -np.outer(2.0 ** np.arange(-s, 1), rates * z)  # diagonal of G z / 2^s .. G z
    a, b = diags[:, :-1], diags[:, 1:]
    # exact superdiagonals t (e^b - e^a) / (b - a), t = -a, without cancellation
    d = np.abs(b - a)
    sups = -a * np.exp(np.maximum(a, b)) * np.divide(
        np.expm1(-d), -d, out=np.ones_like(d), where=d > 0)
    # first level by uniformization (Jensen, 1953): e^{-L} sum_{k<=10} M^k / k!
    # over the nonnegative M = L I + G z / 2^s, by Horner's rule; no term is
    # negative, and the terms past k = 10 sum to under 1e-20
    big, eye = -diags[0].min(), np.eye(n)
    m, x = np.diag(big + diags[0]) + np.diag(-a[0], 1), eye
    for k in range(10, 0, -1):
        x = eye + m @ x / k
    x *= math.exp(-big)
    for k in range(s + 1):
        if k:
            x = x @ x
        x.flat[::n + 1], x.flat[1::n + 1] = np.exp(diags[k]), sups[k]
    return x[0], rates


def hypoexp_prefix_ccdf(q, means):
    """Pr[sum of the first j exponentials > q] for j = 1..len(means), means
    ascending: running sums of one stage chain's occupancy at q, since the
    leading j x j block of the bidiagonal generator evolves on its own.
    Leading stages that the chain drops as negligible get a chain of their own."""
    th = np.asarray(means, dtype=float)
    if th.ndim != 1 or not 0.0 <= q < math.inf:
        raise ValueError(f"hypoexp_prefix_ccdf needs 1-d means and a finite q >= 0, "
                         f"got {th.tolist()}, q={q}")
    if th.size == 0:
        return th
    occupancy = _stage_chain(th, q)[0]
    cut = th.size - occupancy.size
    head = hypoexp_prefix_ccdf(q, th[:cut])
    return np.clip(np.concatenate([head, np.cumsum(occupancy)]), 0.0, 1.0)


def checked_leakage_inputs(powers, mean_y_per_pr, q):
    """Powers and receiver means of a leakage query as 1-d float arrays, checked:
    powers finite and >= 0, means non-empty, finite and positive, q too."""
    p, means = np.asarray(powers, dtype=float), np.asarray(mean_y_per_pr, dtype=float)
    if not (p.ndim == means.ndim == 1 and np.isfinite(p).all() and (p >= 0).all()
            and means.size and all(map(_finite_positive, [q, *means]))):
        raise ValueError("leakage needs 1-d finite powers >= 0, 1-d finite positive receiver "
                         f"means and q, got {p.tolist()}, {means.tolist()}, q={q}")
    return p, means


def sum_density_inid(z, means):
    """Density of a sum of independent exponentials with the given means:
    the absorption flow out of the last stage of the stage chain over the
    sorted means, whose largest mean the negligible-stage cut never drops.
    """
    occupancy, rates = _stage_chain(np.sort(means), z)
    return max(0.0, float(occupancy[-1] * rates[-1]))


def mean_sum_inid(means):
    """Mean of a sum of independent exponentials: sum(means), by linearity."""
    ms = [float(m) for m in means]
    if not all(map(_finite_positive, ms)):
        raise ValueError(f"means must be finite and positive, got {ms}")
    return math.fsum(ms)


def mean_max_inid(means):
    """E[max of independent exponentials] = int_0^inf 1 - prod_j (1 - e^{-t/m_j}) dt.

    The product is summed in log space, log(1 - e^{-x}) = log(-expm1(-x)),
    and the exp-sinh rule of `specfun` on the scale of the largest mean is
    good to 1e-13 relative for any number of means, tied or not.
    """
    ms = [float(m) for m in means]
    if not ms or not all(map(_finite_positive, ms)):
        raise ValueError(f"mean_max_inid needs one or more finite positive means, got {ms}")
    rates = 1.0 / np.array(ms)

    def integrand(t):
        return -np.expm1(np.log(-np.expm1(-np.multiply.outer(t, rates))).sum(axis=1))

    return _exp_sinh(integrand, max(ms))


def mean_max_iid(mean, l_r):
    """E[max of l_r i.i.d. exponentials] = mean * H_{l_r}, the harmonic
    number (Renyi: the spacings of the order statistics are exponential)."""
    if not _finite_positive(mean):
        raise ValueError(f"mean must be finite and positive, got {mean}")
    l_r = _check_int(l_r, "l_r")
    if l_r < 1:
        raise ValueError(f"l_r must be a positive integer, got {l_r}")
    return mean * math.fsum(1.0 / k for k in range(1, l_r + 1))


@dataclass(frozen=True)
class Geometry:
    """Node distances (meters) defining one deployment."""

    d_st_sr: float
    d_pt_sr: tuple
    d_st_pr: tuple
    d_ref: float = 100.0
    alpha: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "d_pt_sr", tuple(float(d) for d in self.d_pt_sr))
        object.__setattr__(self, "d_st_pr", tuple(float(d) for d in self.d_st_pr))
        for name in ("d_st_sr", "d_ref", "alpha"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"Geometry.{name} must be finite and positive")
        for name in ("d_pt_sr", "d_st_pr"):
            ds = getattr(self, name)
            if not ds or not all(map(_finite_positive, ds)):
                raise ValueError(f"Geometry.{name} must be a non-empty list of "
                                 "finite positive distances")


@dataclass(frozen=True)
class LinkStats:
    """All average channel gains of one scenario.

    mean_x         -- per-entry gain of the desired channel
    mean_y_per_pr  -- gain from the secondary transmitter to each primary receiver
    mean_z_per_pt  -- gain from each primary transmitter to the secondary receiver
    """

    mean_x: float
    mean_y_per_pr: tuple
    mean_z_per_pt: tuple

    def __post_init__(self):
        object.__setattr__(self, "mean_x", float(self.mean_x))
        object.__setattr__(self, "mean_y_per_pr", tuple(float(v) for v in self.mean_y_per_pr))
        object.__setattr__(self, "mean_z_per_pt", tuple(float(v) for v in self.mean_z_per_pt))
        if not _finite_positive(self.mean_x):
            raise ValueError("LinkStats.mean_x must be finite and positive")
        for name in ("mean_y_per_pr", "mean_z_per_pt"):
            ms = getattr(self, name)
            if not ms or not all(map(_finite_positive, ms)):
                raise ValueError(f"LinkStats.{name} must be non-empty, finite and positive")

    @classmethod
    def from_geometry(cls, geom):
        """Derive all means from distances via path loss."""
        return cls(
            mean_x=pathloss_gain(geom.d_st_sr, geom.d_ref, geom.alpha),
            mean_y_per_pr=[pathloss_gain(d, geom.d_ref, geom.alpha) for d in geom.d_st_pr],
            mean_z_per_pt=[pathloss_gain(d, geom.d_ref, geom.alpha) for d in geom.d_pt_sr],
        )

    @cached_property
    def iid_y(self):
        """All primary receivers see the same mean (co-located receivers)."""
        return len(set(self.mean_y_per_pr)) == 1

    @cached_property
    def iid_z(self):
        """All primary transmitters have the same mean (co-located transmitters)."""
        return len(set(self.mean_z_per_pt)) == 1

    @cached_property
    def mean_y(self):
        """E[strongest interfering gain seen by any primary receiver]."""
        if self.iid_y:
            return mean_max_iid(self.mean_y_per_pr[0], self.l_r)
        return mean_max_inid(list(self.mean_y_per_pr))

    @cached_property
    def mean_z(self):
        """E[aggregate interfering gain at the secondary receiver]."""
        return mean_sum_inid(self.mean_z_per_pt)

    @property
    def l_r(self):
        return len(self.mean_y_per_pr)

    @property
    def l_t(self):
        return len(self.mean_z_per_pt)
