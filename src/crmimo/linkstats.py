"""Second-order channel statistics.

Builds all average channel gains from node geometry via power-law path
loss, and evaluates the order-statistics mean of the strongest
secondary-to-primary link together with the hypoexponential law (mean,
density and tail) of the aggregate primary-to-secondary interference.  This
module is the only home of that law's partial-fraction weights, of the
stage-chain matrix exponential and of the rule choosing between them: partial
fractions for distinct means with bounded weights, the stage chain (exact at
ties) otherwise.  Means are never perturbed.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

# Trust rule shared by every partial-fraction form of the hypoexponential
# law: the weights are undefined when two means are equal, and a weighted
# sum of exponentials loses about max|w| * eps of absolute accuracy to
# cancellation, so at an exact tie or beyond this weight magnitude callers
# switch to an evaluation that is valid for any tie structure (the
# stage-chain matrix exponential here, direct quadrature against the density
# in the outage mixture).  The tail and density below sum in extended
# precision, so their absolute error stays under 1e-12 + 100 eps_ext max|w|
# (about 1e-9 at the limit, 1e-14 on the stage chain).
PF_WEIGHT_LIMIT = 1e8


def pathloss_gain(d, d_ref, alpha):
    """Average channel gain (d / d_ref)^-alpha for distance d in meters."""
    if d <= 0 or d_ref <= 0 or alpha <= 0:
        raise ValueError(
            f"pathloss_gain requires positive inputs, got d={d}, d_ref={d_ref}, alpha={alpha}"
        )
    return (d / d_ref) ** (-alpha)


def trusted_pf_weights(means):
    """Means and partial-fraction weights w_k = prod_{j != k} m_k / (m_k - m_j),
    both in extended precision, when the partial-fraction form is trusted;
    None when two means are equal or max|w| > PF_WEIGHT_LIMIT.  The products
    are individually benign but the weights reach magnitudes where float64
    rounding would dominate their later cancellations."""
    ms = np.asarray(means, dtype=np.longdouble)
    if not ms.min() > 0:
        raise ValueError(f"means must be strictly positive, got {[float(m) for m in ms]}")
    diff = ms[:, None] - ms[None, :]
    np.fill_diagonal(diff, 1.0)
    if not diff.all():
        return None
    ratios = ms[:, None] / diff
    np.fill_diagonal(ratios, 1.0)
    w = ratios.prod(axis=1)
    return (ms, w) if abs(w).max() <= PF_WEIGHT_LIMIT else None


def _stage_chain(means, z):
    """Row 0 of expm(G z) for the bidiagonal generator G of the stage chain
    Exp(m_1) -> Exp(m_2) -> ...: the probability of being in each stage at
    time z, exact for any tie structure; also returns the stage rates."""
    th = np.asarray(means, dtype=float)
    # negligible stages only stiffen the generator; dropping them shifts
    # the sum by at most their total mean
    th = th[th > 1e-12 * th.max()]
    rates = 1.0 / th
    m = th.size
    gen = np.zeros((m, m))
    np.fill_diagonal(gen, -rates)
    gen[np.arange(m - 1), np.arange(1, m)] = rates[:-1]
    return expm(gen * z)[0], rates


def hypoexp_ccdf(q, means):
    """Pr[sum of independent exponentials with the given means > q]:
    sum_k w_k exp(-q / m_k) while the weights are trusted, else (ties
    included) the total occupancy of the stage chain at q."""
    pf = trusted_pf_weights(means)
    if pf is None:
        val = _stage_chain(means, q)[0].sum()
    else:
        ms, w = pf
        val = np.dot(w, np.exp(-q / ms))
    return min(1.0, max(0.0, float(val)))


def sum_density_inid(z, means):
    """Density of a sum of independent exponentials with the given means:
    f(z) = sum_k w_k exp(-z / m_k) / m_k while the weights are trusted,
    else (ties included) the absorption flow out of the last stage of the
    stage chain.
    """
    if z < 0:
        raise ValueError(f"density argument must be >= 0, got {z}")
    pf = trusted_pf_weights(means)
    if pf is None:
        occupancy, rates = _stage_chain(means, z)
        val = occupancy[-1] * rates[-1]
    else:
        ms, w = pf
        val = np.dot(w, np.exp(-z / ms) / ms)
    return max(0.0, float(val))


def mean_sum_inid(means):
    """Mean of a sum of independent exponentials: sum(means), by linearity."""
    ms = [float(m) for m in means]
    if any(m <= 0 for m in ms):
        raise ValueError(f"means must be strictly positive, got {ms}")
    return math.fsum(ms)


def mean_max_inid(means):
    """E[max of independent exponentials] by the nested alternating sum.

    Summing over the anchor index l and all subsets of the remaining
    receivers: sum_l sum_S (-1)^|S| / (m_l (1/m_l + sum_{j in S} 1/m_j)^2).
    Well defined at equal means (no difference terms appear).
    """
    ms = [float(m) for m in means]
    if not ms:
        raise ValueError("mean_max_inid requires at least one mean")
    if any(m <= 0 for m in ms):
        raise ValueError(f"means must be strictly positive, got {ms}")
    terms = []
    for l, m_l in enumerate(ms):
        others = [1.0 / m for i, m in enumerate(ms) if i != l]
        for k in range(len(ms)):
            for combo in itertools.combinations(others, k):
                rate = 1.0 / m_l + sum(combo)
                terms.append((-1.0) ** k / (m_l * rate * rate))
    return math.fsum(terms)


def mean_max_iid(mean, l_r):
    """E[max of l_r i.i.d. exponentials] = mean * H_{l_r}, the harmonic
    number (Renyi: the spacings of the order statistics are exponential)."""
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if l_r < 1 or l_r != int(l_r):
        raise ValueError(f"l_r must be a positive integer, got {l_r}")
    return mean * math.fsum(1.0 / k for k in range(1, int(l_r) + 1))


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
            if getattr(self, name) <= 0:
                raise ValueError(f"Geometry.{name} must be positive")
        if not self.d_pt_sr or any(d <= 0 for d in self.d_pt_sr):
            raise ValueError("Geometry.d_pt_sr must be a non-empty list of positive distances")
        if not self.d_st_pr or any(d <= 0 for d in self.d_st_pr):
            raise ValueError("Geometry.d_st_pr must be a non-empty list of positive distances")


@dataclass(frozen=True)
class LinkStats:
    """All average channel gains of one scenario.

    mean_x         -- per-entry gain of the desired channel
    mean_y_per_pr  -- gain from the secondary transmitter to each primary receiver
    mean_z_per_pt  -- gain from each primary transmitter to the secondary receiver
    iid_y / iid_z  -- whether the respective link sets are declared identical
    """

    mean_x: float
    mean_y_per_pr: tuple
    mean_z_per_pt: tuple
    iid_y: bool = False
    iid_z: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mean_y_per_pr", tuple(float(v) for v in self.mean_y_per_pr))
        object.__setattr__(self, "mean_z_per_pt", tuple(float(v) for v in self.mean_z_per_pt))
        if self.mean_x <= 0:
            raise ValueError("LinkStats.mean_x must be positive")
        if not self.mean_y_per_pr or any(v <= 0 for v in self.mean_y_per_pr):
            raise ValueError("LinkStats.mean_y_per_pr must be non-empty and positive")
        if not self.mean_z_per_pt or any(v <= 0 for v in self.mean_z_per_pt):
            raise ValueError("LinkStats.mean_z_per_pt must be non-empty and positive")
        if self.iid_y and len(set(self.mean_y_per_pr)) > 1:
            raise ValueError("iid_y is set but mean_y_per_pr entries differ")
        if self.iid_z and len(set(self.mean_z_per_pt)) > 1:
            raise ValueError("iid_z is set but mean_z_per_pt entries differ")

    @classmethod
    def from_geometry(cls, geom):
        """Derive all means from distances via path loss; the iid flags are
        inferred from exact distance equality."""
        mean_x = pathloss_gain(geom.d_st_sr, geom.d_ref, geom.alpha)
        ys = tuple(pathloss_gain(d, geom.d_ref, geom.alpha) for d in geom.d_st_pr)
        zs = tuple(pathloss_gain(d, geom.d_ref, geom.alpha) for d in geom.d_pt_sr)
        return cls(
            mean_x=mean_x,
            mean_y_per_pr=ys,
            mean_z_per_pt=zs,
            iid_y=len(set(ys)) == 1,
            iid_z=len(set(zs)) == 1,
        )

    @classmethod
    def from_means(cls, mean_x, mean_y_per_pr, mean_z_per_pt, iid_y=None, iid_z=None):
        ys = tuple(float(v) for v in mean_y_per_pr)
        zs = tuple(float(v) for v in mean_z_per_pt)
        if iid_y is None:
            iid_y = len(set(ys)) == 1
        if iid_z is None:
            iid_z = len(set(zs)) == 1
        return cls(mean_x=float(mean_x), mean_y_per_pr=ys, mean_z_per_pt=zs,
                   iid_y=iid_y, iid_z=iid_z)

    @cached_property
    def mean_y(self):
        """E[strongest interfering gain seen by any primary receiver]."""
        return effective_mean_y(self)

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


def effective_mean_y(stats):
    """Mean of the maximum interfering gain over all primary receivers."""
    if stats.iid_y:
        return mean_max_iid(stats.mean_y_per_pr[0], len(stats.mean_y_per_pr))
    return mean_max_inid(list(stats.mean_y_per_pr))
