"""Closed-form outage probability of the secondary streams.

Evaluates the exact outage under the water-filling allocation, its
equal-antenna and co-located-transmitter reductions, the large-array SINR
equivalents, and the quadrature-based ergodic capacity and binary-modulation
symbol error rate.  Every term of the double sums combines exp(+large) with
an incomplete-gamma tail of matching magnitude, so all terms are assembled
in log space with the finite gamma series folded in.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .linkstats import sum_density_inid, trusted_pf_weights
from .powalloc import LN2
from .specfun import regularized_upper_gamma

_MAX_LOG_TERM = 700.0

ASYMPTOTIC_CASES = ("rx_massive", "both_massive_lt_massive", "both_massive_lt_finite")


@dataclass(frozen=True)
class OutageResult:
    p_out: float
    branch: str
    lambda_used: float
    c_used: float


def received_power_cdf(x, sol, config, stats):
    """CDF of the instantaneous received stream power p(X) * X.

    Equals the Erlang tail complement 1 - Q(n-m+1, u) at
    u = x / (slope E[X]) + C / E[X]; the value at x = 0 is the stream
    inactivity probability Pr[X <= C].
    """
    if x < 0:
        raise ValueError(f"received power must be >= 0, got {x}")
    u = x / (sol.slope * stats.mean_x) + sol.c_threshold / stats.mean_x
    return 1.0 - regularized_upper_gamma(config.diversity_order, u)


# ---------------------------------------------------------------------------
# core mixed-over-interference evaluators
# ---------------------------------------------------------------------------

def _mixed_outage_quadrature(a, bn, n_terms, z_means):
    """Pr[stream power CDF argument below threshold], mixed over the
    interference by direct quadrature: int (1 - Q(n_terms, a z + bn)) f_Z(z) dz.

    Same quantity as the closed form, valid for any tie structure; used
    when the partial-fraction weights are undefined (tied means) or too
    large for a trustworthy cancellation.
    """
    means = np.asarray(z_means, dtype=float)

    def integrand(z):
        return ((1.0 - regularized_upper_gamma(n_terms, a * z + bn))
                * sum_density_inid(z, means))

    cut = 80.0 * float(np.max(means))
    mid = 8.0 * float(np.sum(means))
    v1, e1 = quad(integrand, 0.0, min(mid, cut), limit=200)
    v2, e2 = quad(integrand, min(mid, cut), cut, limit=200)
    if e1 + e2 > 1e-7:
        raise ArithmeticError(
            f"outage quadrature error {e1 + e2:.2e} exceeds 1e-7")
    return min(1.0, max(0.0, v1 + v2))


def _mixed_outage_inid(a, bn, n_terms, z_means):
    """1 - sum_{l<n_terms} sum_k w_k a^l e^{-bn} S_k(l) / (E[Z_k] beta_k^{l+1})
    with beta_k = a + 1/E[Z_k], S_k(l) = sum_{s<=l} v_k^s / s!,
    v_k = beta_k bn / a.

    This is the interference-mixed Erlang tail with the incomplete-gamma
    series folded in; each (l, k) term is formed as sign * exp(log term).
    Where `linkstats` does not trust the weights (tied means, or weights
    that would cancel past float64) the mixture is integrated numerically
    instead.
    """
    if a == 0.0:
        return 1.0 - regularized_upper_gamma(n_terms, bn)
    pf = trusted_pf_weights(z_means)
    if pf is None:
        return _mixed_outage_quadrature(a, bn, n_terms, z_means)
    weights = pf[1].astype(float).tolist()
    log_a = math.log(a)
    log_bn = math.log(bn)
    acc = []
    for mk, wk in zip(z_means, weights):
        beta = a + 1.0 / mk
        log_beta = math.log(beta)
        log_v = log_beta + log_bn - log_a
        log_ratio = log_a - log_beta
        pref = math.log(abs(wk)) - bn - log_beta - math.log(mk)
        sign = 1.0 if wk > 0 else -1.0
        log_s = 0.0
        for l in range(n_terms):
            if l > 0:
                log_s = np.logaddexp(log_s, l * log_v - math.lgamma(l + 1))
            term_log = pref + l * log_ratio + log_s
            if term_log > _MAX_LOG_TERM:
                raise OverflowError(
                    f"outage term exceeds the representable range "
                    f"(log term {term_log:.1f}); interference means are too close"
                )
            acc.append(sign * math.exp(term_log))
    return min(1.0, max(0.0, 1.0 - math.fsum(acc)))


def _mixed_outage_iid(a, bn, n_terms, ez, l_t):
    """Co-located-transmitter branch: the interference sum is an Erlang of
    order l_t, giving all-positive terms

    1 - e^{-bn} sum_{l<n_terms} sum_{s<=l}
        C(l,s) (s+l_t-1)! / (l! (l_t-1)!) bn^{l-s} a^s
        / (E_z^{l_t} (a + 1/E_z)^{s+l_t}).
    """
    if a == 0.0:
        return 1.0 - regularized_upper_gamma(n_terms, bn)
    beta = a + 1.0 / ez
    log_a, log_bn, log_beta = math.log(a), math.log(bn), math.log(beta)
    const = -bn - l_t * math.log(ez) - math.lgamma(l_t)
    acc = []
    for l in range(n_terms):
        for s in range(l + 1):
            term_log = (
                const
                - math.lgamma(s + 1)
                - math.lgamma(l - s + 1)
                + math.lgamma(s + l_t)
                + (l - s) * log_bn
                + s * log_a
                - (s + l_t) * log_beta
            )
            acc.append(math.exp(term_log))
    return min(1.0, max(0.0, 1.0 - math.fsum(acc)))


def _cdf_coefficients(config, stats, sol, gamma_th):
    """(a, bn) of the outage integrand: the stream-power CDF evaluated at
    gamma (p_p z + n0) is the Erlang tail complement at u = a z + bn."""
    c1 = gamma_th / (sol.slope * stats.mean_x)
    a = config.p_p * c1
    bn = config.n0 * c1 + sol.c_threshold / stats.mean_x
    return a, bn


# ---------------------------------------------------------------------------
# public outage evaluations
# ---------------------------------------------------------------------------

def outage_general(config, stats, sol, gamma_th=None):
    """Exact outage for arbitrary per-transmitter interference means; tied
    means are integrated by quadrature, so no mean is perturbed."""
    g = config.gamma_th if gamma_th is None else gamma_th
    a, bn = _cdf_coefficients(config, stats, sol, g)
    p = _mixed_outage_inid(a, bn, config.diversity_order, stats.mean_z_per_pt)
    return OutageResult(p_out=p, branch="general",
                        lambda_used=sol.lam, c_used=sol.c_threshold)


def outage_equal_antennas(config, stats, sol, gamma_th=None):
    """Single-sum reduction for m == n (each stream gain is exponential):
    1 - sum_k w_k e^{-bn} / (a E[Z_k] + 1), i.e. the general form truncated
    to its first diversity term."""
    if config.m != config.n:
        raise ValueError("outage_equal_antennas requires m == n")
    g = config.gamma_th if gamma_th is None else gamma_th
    a, bn = _cdf_coefficients(config, stats, sol, g)
    p = _mixed_outage_inid(a, bn, 1, stats.mean_z_per_pt)
    return OutageResult(p_out=p, branch="equal_antennas",
                        lambda_used=sol.lam, c_used=sol.c_threshold)


def outage_iid_pts(config, stats, sol, gamma_th=None):
    """Outage for co-located primary transmit antennas (identical E[Z_k]);
    reduces to a single term 1 - e^{-bn} / (1 + a E_z)^{l_t} when m == n."""
    if not stats.iid_z:
        raise ValueError("outage_iid_pts requires identical per-transmitter means (iid_z)")
    g = config.gamma_th if gamma_th is None else gamma_th
    a, bn = _cdf_coefficients(config, stats, sol, g)
    ez = stats.mean_z_per_pt[0]
    l_t = stats.l_t
    if config.m == config.n:
        p = 1.0 - math.exp(-bn - l_t * math.log1p(a * ez)) if bn < 745.0 else 1.0
        p = min(1.0, max(0.0, p))
        return OutageResult(p_out=p, branch="iid_pts_equal_antennas",
                            lambda_used=sol.lam, c_used=sol.c_threshold)
    p = _mixed_outage_iid(a, bn, config.diversity_order, ez, l_t)
    return OutageResult(p_out=p, branch="iid_pts",
                        lambda_used=sol.lam, c_used=sol.c_threshold)


def outage_auto(config, stats, sol, gamma_th=None):
    """Dispatch to the branch matching the interference statistics."""
    if stats.iid_z:
        return outage_iid_pts(config, stats, sol, gamma_th)
    if config.m == config.n:
        return outage_equal_antennas(config, stats, sol, gamma_th)
    return outage_general(config, stats, sol, gamma_th)


def outage_fixed_power(config, stats, power, gamma_th=None):
    """Outage probability under a fixed per-stream power (the conventional
    baseline); returns the bare probability."""
    if power <= 0:
        return 1.0
    g = config.gamma_th if gamma_th is None else gamma_th
    c1 = g / (power * stats.mean_x)
    a = config.p_p * c1
    bn = config.n0 * c1
    if stats.iid_z:
        return _mixed_outage_iid(a, bn, config.diversity_order,
                                 stats.mean_z_per_pt[0], stats.l_t)
    return _mixed_outage_inid(a, bn, config.diversity_order, stats.mean_z_per_pt)


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
    shape = config.diversity_order
    if case == "rx_massive":
        if z_realization is None:
            raise ValueError("rx_massive requires an interference realization z_realization")
        pre = sol.slope * stats.mean_x * shape / (config.p_p * z_realization + config.n0)
        return AsymptoticSinr(limit=math.inf, pre_limit=pre)
    if case == "both_massive_lt_massive":
        mu_x = shape * stats.mean_x
        p_det = max(0.0, sol.slope - sol.offset / mu_x)
        val = p_det * mu_x / (config.p_p * stats.mean_z + config.n0)
        return AsymptoticSinr(limit=val, pre_limit=val)
    if z_realization is None:
        raise ValueError("both_massive_lt_finite requires an interference realization z_realization")
    ey = stats.mean_y
    val = (min(config.q, ey * config.p_max) * stats.mean_x / ey) * (shape / config.m) \
        / (config.p_p * z_realization + config.n0)
    return AsymptoticSinr(limit=val, pre_limit=val)


# ---------------------------------------------------------------------------
# quadrature metrics
# ---------------------------------------------------------------------------

def _sinr_scale(config, stats, sol):
    """Typical SINR magnitude, used to place the quadrature split."""
    return max(sol.slope * stats.mean_x * config.diversity_order / sol.offset, 1e-6)


def ergodic_capacity(config, stats, sol):
    """Mean stream rate (1/ln2) int_0^inf (1 - P_out(x)) / (1 + x) dx in bps/Hz."""

    def integrand(x):
        return (1.0 - outage_auto(config, stats, sol, gamma_th=x).p_out) / (1.0 + x)

    split = 4.0 * _sinr_scale(config, stats, sol)
    v1, e1 = quad(integrand, 0.0, split, limit=200)
    v2, e2 = quad(integrand, split, np.inf, limit=200)
    if e1 + e2 > 1e-6:
        raise ArithmeticError(
            f"capacity quadrature error {e1 + e2:.2e} exceeds 1e-6"
        )
    return (v1 + v2) / LN2


def average_ser_binary(config, stats, sol, a, b):
    """Mean symbol error rate (A sqrt(B) / (2 sqrt(pi)))
    int_0^inf e^{-Bx} x^{-1/2} P_out(x) dx for binary modulations.

    The integrable endpoint is removed by x = t^2, giving
    (A sqrt(B) / sqrt(pi)) int_0^inf e^{-B t^2} P_out(t^2) dt.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"modulation constants must be positive, got a={a}, b={b}")

    def integrand(t):
        return math.exp(-b * t * t) * outage_auto(config, stats, sol, gamma_th=t * t).p_out

    upper = math.sqrt(745.0 / b)
    val, err = quad(integrand, 0.0, upper, limit=200)
    if err > 1e-9 * (1.0 + abs(val)):
        raise ArithmeticError(f"SER quadrature error {err:.2e} did not converge")
    return a * math.sqrt(b) / math.sqrt(math.pi) * val
