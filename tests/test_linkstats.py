import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from crmimo.linkstats import (
    Geometry,
    LinkStats,
    effective_mean_y,
    hypoexp_ccdf,
    mean_max_iid,
    mean_max_inid,
    mean_sum_inid,
    pathloss_gain,
    sum_density_inid,
    trusted_pf_weights,
)

# frozen from the convolution oracle below: density of Exp(1) + Exp(2) at 1
HYPO_DENSITY_1 = 0.23865121854119112
PATHLOSS_56M = 10.168289254477298  # (56/100)^-4, quoted rounded to 10 elsewhere


def max_mean_oracle(means):
    """Inclusion-exclusion for E[max]: sum over non-empty subsets of
    (-1)^(|S|+1) / sum_{i in S} 1/m_i."""
    total = 0.0
    for r in range(1, len(means) + 1):
        for sub in itertools.combinations(means, r):
            total += (-1.0) ** (r + 1) / sum(1.0 / m for m in sub)
    return total


def test_pathloss_examples():
    assert pathloss_gain(25, 100, 4) == pytest.approx(256.0, rel=1e-14)
    assert pathloss_gain(100, 100, 4) == pytest.approx(1.0, rel=1e-14)
    assert pathloss_gain(56, 100, 4) == pytest.approx(PATHLOSS_56M, rel=1e-13)


def test_pathloss_domain():
    for bad in [(0, 100, 4), (10, 0, 4), (10, 100, 0), (-5, 100, 4)]:
        with pytest.raises(ValueError):
            pathloss_gain(*bad)


def test_mean_max_single_and_pairs():
    assert mean_max_inid([2.0]) == pytest.approx(2.0, rel=1e-14)
    # two i.i.d. exponentials: m (1 + 1/2)
    assert mean_max_inid([1.0, 1.0]) == pytest.approx(1.5, rel=1e-12)
    # distinct pair: a + b - 1/(1/a + 1/b) = 7/3
    assert mean_max_inid([1.0, 2.0]) == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_mean_max_matches_inclusion_exclusion():
    rng = np.random.default_rng(101)
    for _ in range(50):
        means = list(rng.uniform(0.1, 9.0, size=rng.integers(1, 7)))
        assert mean_max_inid(means) == pytest.approx(max_mean_oracle(means), rel=1e-9)


def test_mean_max_iid_values():
    assert mean_max_iid(1.0, 1) == pytest.approx(1.0, rel=1e-14)
    assert mean_max_iid(1.0, 2) == pytest.approx(1.5, rel=1e-14)
    # harmonic number: 2 * (1 + 1/2 + 1/3)
    assert mean_max_iid(2.0, 3) == pytest.approx(2 * 11.0 / 6.0, rel=1e-14)


def test_mean_max_iid_matches_harmonic_numbers():
    for l_r in range(1, 12):
        h = sum(1.0 / k for k in range(1, l_r + 1))
        assert mean_max_iid(3.7, l_r) == pytest.approx(3.7 * h, rel=1e-11)


def test_mean_max_equal_means_agree_with_iid_form():
    for l_r in range(1, 7):
        inid = mean_max_inid([2.5] * l_r)
        iid = mean_max_iid(2.5, l_r)
        assert inid == pytest.approx(iid, rel=1e-9)


def test_mean_max_bounds():
    rng = np.random.default_rng(77)
    for _ in range(30):
        means = list(rng.uniform(0.2, 5.0, size=rng.integers(2, 6)))
        val = mean_max_inid(means)
        assert max(means) <= val <= sum(means)


def test_mean_sum_examples():
    assert mean_sum_inid([5.0]) == pytest.approx(5.0, rel=1e-14)
    assert mean_sum_inid([1.0, 2.0]) == pytest.approx(3.0, rel=1e-12)
    assert mean_sum_inid([1.0, 2.0, 3.0]) == pytest.approx(6.0, rel=1e-12)


def test_mean_sum_linearity_property():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        means = list(rng.uniform(0.05, 20.0, size=rng.integers(1, 7)))
        assert mean_sum_inid(means) == pytest.approx(sum(means), rel=1e-10)


def test_density_examples():
    assert sum_density_inid(0.0, [1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    assert sum_density_inid(3.0, [3.0]) == pytest.approx(math.exp(-1) / 3, rel=1e-13)
    # convolution oracle for Exp(1) + Exp(2): int_0^z e^-s e^-(z-s)/2 / 2 ds
    oracle, _ = quad(lambda s: np.exp(-s) * np.exp(-(1 - s) / 2) / 2, 0, 1)
    assert oracle == pytest.approx(HYPO_DENSITY_1, abs=1e-12)
    assert sum_density_inid(1.0, [1.0, 2.0]) == pytest.approx(HYPO_DENSITY_1, rel=1e-10)


def test_density_nonnegative_and_normalized():
    for means in ([1.0, 2.5], [0.4, 1.1, 3.3], [2.0], [1.0, 1.0, 4.0]):
        zs = np.linspace(0, 40 * max(means), 400)
        vals = [sum_density_inid(z, means) for z in zs]
        assert min(vals) >= 0.0
        total, _ = quad(lambda z: sum_density_inid(z, means), 0,
                        60 * max(means), limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_ties_go_to_the_stage_chain_unperturbed():
    # exact and near ties are not trusted to partial fractions
    assert trusted_pf_weights([1.0, 1.0, 1.0]) is None
    assert trusted_pf_weights([2.0, 3.0, 2.0]) is None
    assert trusted_pf_weights([2.0, 2.0 * (1 + 1e-12)]) is None
    ms, w = trusted_pf_weights([1.0, 2.0])
    assert ms.dtype == np.longdouble and list(ms) == [1.0, 2.0]
    assert [float(x) for x in w] == [-1.0, 2.0]
    # Exp(1) + Exp(1) is Erlang(2, 1): tail 2/e and density 1/e at 1
    assert abs(hypoexp_ccdf(1.0, [1.0, 1.0]) - 2 * math.exp(-1)) <= 1e-15
    assert abs(sum_density_inid(1.0, [1.0, 1.0]) - math.exp(-1)) <= 1e-15
    for bad in ([1.0, -2.0], [0.0, 1.0], [1.0, math.nan]):
        with pytest.raises(ValueError):
            hypoexp_ccdf(1.0, bad)
        with pytest.raises(ValueError):
            sum_density_inid(1.0, bad)


def test_hypoexp_weights_sum_to_one():
    # CDF at infinity: sum of weights must be 1
    rng = np.random.default_rng(5)
    for _ in range(20):
        means = list(rng.uniform(0.1, 5.0, size=rng.integers(1, 6)))
        _, w = trusted_pf_weights(means)
        assert math.fsum(float(x) for x in w) == pytest.approx(1.0, rel=1e-9)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(d_st_sr=0.0, d_pt_sr=(50,), d_st_pr=(60,))
    with pytest.raises(ValueError):
        Geometry(d_st_sr=10.0, d_pt_sr=(), d_st_pr=(60,))
    with pytest.raises(ValueError):
        Geometry(d_st_sr=10.0, d_pt_sr=(50,), d_st_pr=(60,), alpha=-1)


def test_linkstats_from_geometry():
    geom = Geometry(d_st_sr=25.0, d_pt_sr=(56.0, 56.0), d_st_pr=(60.0, 80.0))
    stats = LinkStats.from_geometry(geom)
    assert stats.mean_x == pytest.approx(256.0)
    assert stats.iid_z and not stats.iid_y
    assert stats.l_t == 2 and stats.l_r == 2
    assert stats.mean_z == pytest.approx(2 * PATHLOSS_56M, rel=1e-12)


def test_linkstats_validation():
    with pytest.raises(ValueError):
        LinkStats(mean_x=1.0, mean_y_per_pr=(1.0, 2.0), mean_z_per_pt=(1.0,), iid_y=True)
    with pytest.raises(ValueError):
        LinkStats(mean_x=-1.0, mean_y_per_pr=(1.0,), mean_z_per_pt=(1.0,))


def test_effective_mean_dispatch():
    iid = LinkStats.from_means(1.0, [1.0, 1.0], [1.0])
    assert effective_mean_y(iid) == pytest.approx(1.5, rel=1e-12)
    single = LinkStats.from_means(1.0, [7.0], [1.0])
    assert effective_mean_y(single) == pytest.approx(7.0, rel=1e-14)
    inid = LinkStats.from_means(1.0, [1.0, 2.0], [1.0])
    assert effective_mean_y(inid) == pytest.approx(7.0 / 3.0, rel=1e-12)
    assert inid.mean_y == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_means_match_monte_carlo():
    rng = np.random.default_rng(909)
    for _ in range(10):
        means = rng.uniform(0.3, 6.0, size=rng.integers(2, 5))
        draws = rng.exponential(means, size=(200000, means.size))
        emp_max = draws.max(axis=1)
        emp_sum = draws.sum(axis=1)
        se_max = emp_max.std(ddof=1) / math.sqrt(len(emp_max))
        se_sum = emp_sum.std(ddof=1) / math.sqrt(len(emp_sum))
        assert abs(mean_max_inid(list(means)) - emp_max.mean()) <= 3 * se_max
        assert abs(mean_sum_inid(list(means)) - emp_sum.mean()) <= 3 * se_sum


# ---------------------------------------------------------------------------
# high-precision oracles
# ---------------------------------------------------------------------------

ORACLE = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def stage_chain_oracle(means, z):
    """(ccdf, pdf) at z of a sum of independent exponentials, from the stage
    chain Exp(m_1) -> Exp(m_2) -> ... in 40-digit arithmetic.

    Uniformization: with L the largest rate, expm(G z) = sum_k Pois(k; L z)
    P^k for the substochastic P = I + G / L, so every term is nonnegative
    and no cancellation occurs; the series stops once the Poisson tail
    falls below 1e-30.
    """
    with mpmath.workdps(40):
        rates = [1 / mpmath.mpf(m) for m in means]
        big = max(rates)
        x = big * mpmath.mpf(z)
        stay = [1 - r / big for r in rates]
        move = [r / big for r in rates]
        occ = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (len(rates) - 1)
        pk, mass, ccdf, last, k = mpmath.exp(-x), 0, 0, 0, 0
        while k <= x or 1 - mass > mpmath.mpf(10) ** -30:
            ccdf += pk * mpmath.fsum(occ)
            last += pk * occ[-1]
            mass += pk
            occ = [occ[0] * stay[0]] + [occ[j] * stay[j] + occ[j - 1] * move[j - 1]
                                        for j in range(1, len(occ))]
            k += 1
            pk *= x / k
        return float(ccdf), float(last * rates[-1])


# log-spaced grid over [0.2, 5]: neighbouring means differ by 0.3%
GRID = [0.2 * 25.0 ** (i / 999) for i in range(1000)]


@st.composite
def hypoexp_case(draw):
    """(means, q): 1-64 spread or near-tied (0.1% spacing) means, in random
    order, and a threshold between 5% and 200% of their sum."""
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        idx = draw(st.lists(st.integers(0, len(GRID) - 1), min_size=n,
                            max_size=n, unique=True))
        means = [GRID[i] for i in idx]
    else:
        base = draw(st.floats(0.2, 5.0))
        means = draw(st.permutations([base * (1 + 1e-3 * k) for k in range(n)]))
    return means, draw(st.floats(0.05, 2.0)) * math.fsum(means)


def hypoexp_tolerance(means):
    """1e-12 absolute, plus the cancellation error of the partial-fraction
    sum where it is trusted: about max|w| extended-precision epsilons."""
    pf = trusted_pf_weights(means)
    if pf is None:
        return 1e-12
    big = float(np.max(np.abs(pf[1])))
    return 1e-12 + 100 * float(np.finfo(np.longdouble).eps) * big


def test_stage_chain_oracle_matches_mpmath_expm():
    for means, z in (([1.0, 2.0], 1.0), ([0.5, 0.6, 1.3, 2.0, 0.1], 2.3),
                     ([1.0 + 1e-3 * k for k in range(6)], 5.0)):
        with mpmath.workdps(40):
            rates = [1 / mpmath.mpf(m) for m in means]
            gen = mpmath.zeros(len(means))
            for i, r in enumerate(rates):
                gen[i, i] = -r
                if i + 1 < len(means):
                    gen[i, i + 1] = r
            row = mpmath.expm(gen * z)[0, :]
            want = (float(mpmath.fsum(row)), float(row[len(means) - 1] * rates[-1]))
        assert stage_chain_oracle(means, z) == pytest.approx(want, rel=1e-15)
    assert stage_chain_oracle([1.0, 2.0], 1.0)[1] == pytest.approx(HYPO_DENSITY_1, rel=1e-15)


@ORACLE
@given(hypoexp_case())
@example(([1.0 + 1e-3 * k for k in range(16)], 12.0))    # max|w| 6e36
@example(([0.2 + 0.01 * k for k in range(40)], 30.0))    # max|w| 3e28
@example(([1.0, 1.0002, 1.0004], 0.3))                   # max|w| 2.5e7
@example(([1.0, 1.001, 1.002], 1.5))                     # max|w| 1e6
@example(([1.0, 1.0], 1.0))                              # exact ties
@example(([2.0] * 4, 5.0))
@example(([0.5, 1.3, 1.3, 2.2], 2.0))
def test_hypoexp_ccdf_and_density_match_oracle(case):
    means, q = case
    ccdf, pdf = stage_chain_oracle(means, q)
    tol = hypoexp_tolerance(means)
    assert abs(hypoexp_ccdf(q, means) - ccdf) <= tol
    assert abs(sum_density_inid(q, means) - pdf) * math.fsum(means) <= tol


@ORACLE
@given(st.one_of(
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=64),
    st.builds(lambda base, n: [base * (1 + 1e-3 * k) for k in range(n)],
              st.floats(1e-3, 1e3), st.integers(1, 64))))
def test_mean_sum_matches_exact_sum(means):
    with mpmath.workdps(40):
        exact = float(mpmath.fsum(mpmath.mpf(m) for m in means))
    assert mean_sum_inid(means) == pytest.approx(exact, rel=1e-12)


@ORACLE
@given(st.floats(1e-3, 1e3), st.integers(1, 64))
@example(1.0, 60)
def test_mean_max_iid_matches_inclusion_exclusion_oracle(mean, l_r):
    # E[max] = mean * sum_k (-1)^(k+1) C(l_r, k) / k, cancelling by up to
    # 2^64, so evaluated with 60 digits
    with mpmath.workdps(60):
        exact = mpmath.mpf(mean) * mpmath.fsum(
            (-1) ** (k + 1) * mpmath.binomial(l_r, k) / k for k in range(1, l_r + 1))
    assert mean_max_iid(mean, l_r) == pytest.approx(float(exact), rel=1e-12)
