"""Second-order channel statistics.

Builds all average channel gains from node geometry via power-law path
loss, and evaluates the order-statistics mean of the strongest
secondary-to-primary link (one integral, for any number of receivers)
together with the hypoexponential law (mean and tail) of the
aggregate primary-to-secondary interference.  This module is the only home
of that law's evaluator: one stage-chain matrix exponential over the means
in ascending order, exact for any tie structure, whose running occupancy
sums are the prefix tails (the last is the tail of the whole sum) and whose
last stage gives the density; a stack of mean rows runs as one batch of
matrix products.  Its first level is a positive uniformization series, so
the library needs numpy only (scipy serves `validate` and the tests).
Means are never perturbed.
The outage mixture is a positive sum over the means themselves (`outage`).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .specfun import _check_int, _exp_sinh, _positive, _positives


def pathloss_gain(d, d_ref, alpha):
    """Average channel gain (d / d_ref)^-alpha for distance d in meters; a
    gain past the float range (inf or 0.0) raises ValueError."""
    try:
        gain = (_positive(d, "d") / _positive(d_ref, "d_ref")) ** -_positive(alpha, "alpha")
        if gain > 0.0:
            return gain
    except ArithmeticError:  # an overflow, or d / d_ref underflowed to 0.0
        pass
    raise ValueError(f"(d, d_ref, alpha) = {(d, d_ref, alpha)} give a gain past the float range")


# cap on the bytes of one (rows, K, K) matrix or (levels, rows, K) array of
# a stacked stage chain; larger stacks run in slices of rows
_STACK_BYTES = 1 << 17


def _negligible_cuts(stack):
    """Per row, the number of leading stages with mean at most 1e-12 of the
    row's largest, means 0 included: they only stiffen the generator, and
    dropping them shifts the sum by at most their total mean."""
    return np.count_nonzero(stack <= 1e-12 * stack[:, -1:], axis=1)


def _stage_chain(stack, z):
    """Row 0 of expm(G z) for the bidiagonal generator G of the stage chain
    Exp(m_1) -> Exp(m_2) -> ... over ascending means: the probability of
    being in each stage at time z, exact for any tie structure, one row per
    row of a (B, K) stack of means that `_prefix_tails` has checked and cut.
    The rows run as batches of matrix products under one squaring count,
    the largest any row needs."""
    rates = 1.0 / stack
    rows, n = rates.shape
    s = max(0, math.frexp(16 * z * rates.max())[1])  # L = z max(rates) / 2^s < 1/16
    step = max(1, _STACK_BYTES // (8 * n * max(n, s + 1)))
    return np.concatenate([_squared_chain(rates[i:i + step] * z, s)
                           for i in range(0, rows, step)])


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
    """Pr[sum of the first j exponentials > q] for j = 1..K, for every row of
    a (B, K) stack of ascending means (a 1-d row is the stack of one): running
    sums of one stage chain's occupancy at q, since the leading j x j block of
    the bidiagonal generator evolves on its own; the last is the tail of the
    whole sum.  Rows that drop equally many negligible stages share one stage
    chain, and the dropped stages get stacks of their own; a row cut whole
    holds means 0 alone, which never exceed q > 0, so its tails are 0.
    Raises unless every row is non-empty, finite, nonnegative and
    ascending; q > 0 is the caller's to check."""
    th = np.asarray(means, dtype=float)
    stack = np.atleast_2d(th)
    if not (stack.size and (0.0 <= stack[:, 0]).all() and (stack[:, -1] < math.inf).all()
            and (np.diff(stack, axis=1) >= 0).all()):
        raise ValueError(f"means must be finite, nonnegative and ascending, got {th.tolist()}")
    cuts = _negligible_cuts(stack)
    tails = np.zeros(stack.shape)
    for cut in np.unique(cuts[cuts < stack.shape[1]]):
        rows = np.flatnonzero(cuts == cut)
        tails[rows, cut:] = np.cumsum(_stage_chain(stack[rows, cut:], q), axis=1)
        if cut:
            tails[rows, :cut] = _prefix_tails(q, stack[rows, :cut])
    return np.clip(tails, 0.0, 1.0)


def mean_sum_inid(means):
    """Mean of a sum of independent exponentials: sum(means), by linearity,
    correctly rounded (tests/accuracy.py)."""
    return math.fsum(_positives(means, "means"))


def mean_max_inid(means):
    """E[max of independent exponentials] = int_0^inf 1 - prod_j (1 - e^{-t/m_j}) dt.

    The product is summed in log space, log(1 - e^{-x}) = log(-expm1(-x)),
    and the exp-sinh rule of `specfun` on the scale of the largest mean
    stops once its error estimate is below 1e-13 relative.  Tolerance
    (tests/accuracy.py): 1e-14 relative on the means its row draws (1 to
    12 over 0.1-9, a tied pair, and 64); the rule's 1e-13 gate is all that
    is claimed elsewhere.
    """
    ms = _positives(means, "means")
    rates = 1.0 / np.array(ms)

    def integrand(t):
        return -np.expm1(np.log(-np.expm1(-np.multiply.outer(t, rates))).sum(axis=1))

    return _exp_sinh(integrand, max(ms))


def mean_max_iid(mean, l_r):
    """E[max of l_r i.i.d. exponentials] = mean * H_{l_r}, the harmonic
    number (Renyi: the spacings of the order statistics are exponential).
    Tolerance (tests/accuracy.py): 1e-15 relative."""
    mean, l_r = _positive(mean, "mean"), _check_int(l_r, "l_r")
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
        for name, convert in (("d_st_sr", _positive), ("d_pt_sr", _positives),
                              ("d_st_pr", _positives), ("d_ref", _positive), ("alpha", _positive)):
            object.__setattr__(self, name, convert(getattr(self, name), f"Geometry.{name}"))


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
        for name, convert in (("mean_x", _positive), ("mean_y_per_pr", _positives),
                              ("mean_z_per_pt", _positives)):
            object.__setattr__(self, name, convert(getattr(self, name), f"LinkStats.{name}"))

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
