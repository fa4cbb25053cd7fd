"""Second-order channel statistics.

Builds all average channel gains from node geometry via power-law path
loss, and evaluates the order-statistics mean of the strongest
secondary-to-primary link (one integral, for any number of receivers)
together with the hypoexponential law (mean, density and tail) of the
aggregate primary-to-secondary interference.  This module is the only home
of that law's evaluator: one stage-chain matrix exponential over the means
in ascending order, exact for any tie structure, whose running occupancy
sums are the prefix tails (the last is the tail of the whole sum) and whose
last stage gives the density; a stack of mean rows runs as one batch of
matrix products.  Its first level is a positive uniformization series, so
the library needs numpy only (scipy serves `validate`, the KS check and the
tests).  Means are never perturbed.
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


# cap on the bytes of one (rows, K, K) matrix or (levels, rows, K) array of
# a stacked stage chain; larger stacks run in slices of rows
_STACK_BYTES = 1 << 17


def _ascending_stack(means):
    """means as a (B, K) float stack, a 1-d row being the stack of one;
    raises unless every row is non-empty, finite, positive and ascending."""
    th = np.asarray(means, dtype=float)
    stack = np.atleast_2d(th)
    if not (stack.size and (0.0 < stack[:, 0]).all() and (stack[:, -1] < math.inf).all()
            and (np.diff(stack, axis=1) >= 0).all()):
        raise ValueError(f"means must be finite, positive and ascending, got {th.tolist()}")
    return stack


def _negligible_cuts(stack):
    """Per row, the number of leading stages with mean at most 1e-12 of the
    row's largest: they only stiffen the generator, and dropping them shifts
    the sum by at most their total mean."""
    return np.count_nonzero(stack <= 1e-12 * stack[:, -1:], axis=1)


def _stage_chain(means, z):
    """Row 0 of expm(G z) for the bidiagonal generator G of the stage chain
    Exp(m_1) -> Exp(m_2) -> ... over ascending means: the probability of
    being in each stage at time z, exact for any tie structure; also returns
    the stage rates, one row each per row of a (B, K) stack of means (a 1-d
    row is the stack of one).  Negligible leading stages are dropped; the
    rows must drop equally many, and run as batches of matrix products
    under one squaring count, the largest any row needs."""
    stack = _ascending_stack(means)
    if not 0.0 <= z < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {z}")
    cuts = _negligible_cuts(stack)
    if (cuts != cuts[0]).any():
        raise ValueError(f"stacked rows must drop equally many stages, got {cuts.tolist()}")
    rates = 1.0 / stack[:, cuts[0]:]
    rows, n = rates.shape
    s = max(0, math.frexp(16 * z * rates.max())[1])  # L = z max(rates) / 2^s < 1/16
    step = max(1, _STACK_BYTES // (8 * n * max(n, s + 1)))
    occupancy = np.concatenate([_squared_chain(rates[i:i + step] * z, s)
                                for i in range(0, rows, step)])
    return occupancy, rates


def _squared_chain(rz, s):
    """Row 0 of expm(G z) for each row of the (B, n) stage rates times z,
    by s squarings.  Squaring keeps the diagonal and superdiagonal at their
    exact values (Al-Mohy and Higham, 2009); plain squaring loses 1e-8 at
    near ties."""
    rows, n = rz.shape
    diags = -np.multiply.outer(2.0 ** np.arange(-s, 1), rz)  # of G z / 2^s .. G z
    a, b = diags[..., :-1], diags[..., 1:]
    # exact superdiagonals t (e^b - e^a) / (b - a), t = -a, without cancellation
    d = np.abs(b - a)
    sups = -a * np.exp(np.maximum(a, b)) * np.divide(
        np.expm1(-d), -d, out=np.ones_like(d), where=d > 0)
    # first level by uniformization (Jensen, 1953): e^{-L} sum_{k<=10} M^k / k!
    # over the nonnegative M = L I + G z / 2^s, by Horner's rule; no term is
    # negative, and the terms past k = 10 sum to under 1e-20
    big, eye = -diags[0].min(axis=1), np.eye(n)
    m, x = np.zeros((rows, n, n)), eye
    flat = m.reshape(rows, -1)
    flat[:, ::n + 1], flat[:, 1::n + 1] = big[:, None] + diags[0], -a[0]
    for k in range(10, 0, -1):
        x = m @ x
        x /= k
        x += eye
    x *= np.array([math.exp(-v) for v in big])[:, None, None]
    for k in range(s + 1):
        if k:
            x = x @ x
        flat = x.reshape(rows, -1)
        flat[:, ::n + 1], flat[:, 1::n + 1] = np.exp(diags[k]), sups[k]
    return x[:, 0].copy()  # not a view that keeps all of x alive


def _prefix_tails(q, means):
    """`hypoexp_prefix_ccdf` of every row of a (B, K) stack of ascending
    means: rows that drop equally many negligible stages share one stage
    chain, and the dropped stages get stacks of their own."""
    stack = _ascending_stack(means)
    cuts = _negligible_cuts(stack)
    tails = np.empty(stack.shape)
    for cut in np.unique(cuts):
        rows = np.flatnonzero(cuts == cut)
        tails[rows, cut:] = np.cumsum(_stage_chain(stack[rows, cut:], q)[0], axis=1)
        if cut:
            tails[rows, :cut] = _prefix_tails(q, stack[rows, :cut])
    return np.clip(tails, 0.0, 1.0)


def hypoexp_prefix_ccdf(q, means):
    """Pr[sum of the first j exponentials > q] for j = 1..len(means), means
    ascending: running sums of one stage chain's occupancy at q, since the
    leading j x j block of the bidiagonal generator evolves on its own.
    Leading stages that the chain drops as negligible get a chain of their own."""
    th = np.asarray(means, dtype=float)
    if th.ndim != 1 or not 0.0 <= q < math.inf:
        raise ValueError(f"hypoexp_prefix_ccdf needs 1-d means and a finite q >= 0, "
                         f"got {th.tolist()}, q={q}")
    return _prefix_tails(q, th[None])[0] if th.size else th


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
    return max(0.0, float(occupancy[0, -1] * rates[0, -1]))


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
