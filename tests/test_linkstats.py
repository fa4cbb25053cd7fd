import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from crmimo.leakage import leakage_probability
from crmimo.linkstats import (
    Geometry,
    LinkStats,
    hypoexp_prefix_ccdf,
    mean_max_iid,
    mean_max_inid,
    mean_sum_inid,
    pathloss_gain,
    sum_density_inid,
)
from crmimo.linkstats import _prefix_tails, _stage_chain
from crmimo.validation import max_mean_oracle

# frozen from the convolution oracle below: density of Exp(1) + Exp(2) at 1
HYPO_DENSITY_1 = 0.23865121854119112
PATHLOSS_56M = 10.168289254477298  # (56/100)^-4, quoted rounded to 10 elsewhere


def tail(q, means):
    """Pr[sum of independent exponentials with the given means > q]: the
    last prefix tail over the sorted means."""
    return hypoexp_prefix_ccdf(q, sorted(means))[-1]


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
        means = list(rng.uniform(0.1, 9.0, size=rng.integers(1, 13)))
        assert mean_max_inid(means) == pytest.approx(max_mean_oracle(means), rel=1e-12)


def test_mean_max_of_64_receivers_against_mpmath():
    # far past the reach of inclusion-exclusion (2^64 subsets)
    means = list(np.random.default_rng(64).uniform(0.1, 9.0, size=64))
    with mpmath.workdps(30):
        want = mpmath.quad(lambda t: 1 - mpmath.fprod(1 - mpmath.exp(-t / m) for m in means),
                           [0, max(means), 8 * max(means), mpmath.inf])
    assert mean_max_inid(means) == pytest.approx(float(want), rel=1e-14)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        mean_max_inid(means)
        best = min(best, time.perf_counter() - start)
    assert best < 0.01


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
    # Exp(1) + Exp(1) is Erlang(2, 1): tail 2/e and density 1/e at 1
    assert abs(tail(1.0, [1.0, 1.0]) - 2 * math.exp(-1)) <= 1e-15
    assert abs(sum_density_inid(1.0, [1.0, 1.0]) - math.exp(-1)) <= 1e-15
    for bad in ([1.0, -2.0], [0.0, 1.0], [1.0, math.nan]):
        with pytest.raises(ValueError):
            tail(1.0, bad)
    for bad in ([1.0, -2.0], [0.0, 1.0], [1.0, math.nan], []):
        with pytest.raises(ValueError):
            sum_density_inid(1.0, bad)


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
        LinkStats(mean_x=-1.0, mean_y_per_pr=(1.0,), mean_z_per_pt=(1.0,))


NAN, INF = float("nan"), float("inf")
GEOM = {"d_st_sr": 10.0, "d_pt_sr": (50.0,), "d_st_pr": (60.0,)}
MEANS = {"mean_x": 1.0, "mean_y_per_pr": (1.0,), "mean_z_per_pt": (1.0,)}


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Geometry(**{**GEOM, "d_st_sr": NAN}), id="geometry-d_st_sr"),
    pytest.param(lambda: Geometry(**{**GEOM, "d_pt_sr": (50.0, INF)}), id="geometry-d_pt_sr"),
    pytest.param(lambda: Geometry(**{**GEOM, "d_st_pr": (NAN,)}), id="geometry-d_st_pr"),
    pytest.param(lambda: Geometry(**GEOM, d_ref=INF), id="geometry-d_ref"),
    pytest.param(lambda: Geometry(**GEOM, alpha=NAN), id="geometry-alpha"),
    pytest.param(lambda: LinkStats(NAN, [1.0], [1.0]), id="positional-mean_x"),
    pytest.param(lambda: LinkStats(1.0, [1.0], [INF]), id="positional-z"),
    pytest.param(lambda: LinkStats(**{**MEANS, "mean_x": INF}), id="linkstats-mean_x"),
    pytest.param(lambda: LinkStats(**{**MEANS, "mean_y_per_pr": (1.0, NAN)}),
                 id="linkstats-y"),
    pytest.param(lambda: pathloss_gain(NAN, 100.0, 4.0), id="pathloss-d"),
    pytest.param(lambda: pathloss_gain(50.0, INF, 4.0), id="pathloss-d_ref"),
    pytest.param(lambda: pathloss_gain(50.0, 100.0, INF), id="pathloss-alpha"),
    pytest.param(lambda: tail(1.0, [INF, 1.0]), id="hypoexp_ccdf-inf"),
    pytest.param(lambda: sum_density_inid(1.0, [1.0, NAN]), id="sum_density-nan"),
    pytest.param(lambda: tail(-1.0, [1.0, 2.0]), id="hypoexp_ccdf-q-negative"),
    pytest.param(lambda: tail(-1.0, [1.0, 1.0]), id="hypoexp_ccdf-q-negative-tied"),
    pytest.param(lambda: tail(NAN, [1.0, 2.0]), id="hypoexp_ccdf-q-nan"),
    pytest.param(lambda: tail(INF, [1.0, 2.0]), id="hypoexp_ccdf-q-inf"),
    pytest.param(lambda: hypoexp_prefix_ccdf(-1.0, [1.0, 2.0]), id="prefix_ccdf-q-negative"),
    pytest.param(lambda: hypoexp_prefix_ccdf(NAN, [1.0, 2.0]), id="prefix_ccdf-q-nan"),
    pytest.param(lambda: hypoexp_prefix_ccdf(INF, [1.0, 2.0]), id="prefix_ccdf-q-inf"),
    pytest.param(lambda: sum_density_inid(NAN, [1.0, 2.0]), id="sum_density-z-nan"),
    pytest.param(lambda: sum_density_inid(INF, [1.0, 2.0]), id="sum_density-z-inf"),
    pytest.param(lambda: sum_density_inid(INF, [1.0, 1.0]), id="sum_density-z-inf-tied"),
    pytest.param(lambda: leakage_probability([INF], [1.0], 1.0), id="leakage-inf"),
    pytest.param(lambda: mean_sum_inid([INF]), id="mean_sum-inf"),
    pytest.param(lambda: mean_max_iid(INF, 2), id="mean_max_iid-inf"),
    pytest.param(lambda: mean_max_iid(NAN, 2), id="mean_max_iid-nan"),
    pytest.param(lambda: mean_max_inid([INF, 1.0]), id="mean_max_inid-inf"),
])
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_effective_mean_dispatch():
    iid = LinkStats(1.0, [1.0, 1.0], [1.0])
    assert iid.mean_y == pytest.approx(1.5, rel=1e-12)
    single = LinkStats(1.0, [7.0], [1.0])
    assert single.mean_y == pytest.approx(7.0, rel=1e-14)
    inid = LinkStats(1.0, [1.0, 2.0], [1.0])
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

ORACLE = settings(max_examples=40)


def stage_chain_oracle(means, z):
    """(prefix tails, pdf) at z of a sum of independent exponentials, from
    the stage chain Exp(m_1) -> Exp(m_2) -> ... in 40-digit arithmetic: the
    tail of every prefix sum m_1 + ... + m_j, j = 1..len(means), whose last
    entry is the tail of the whole sum, and the density of the whole sum.

    Uniformization: with L the largest rate, expm(G z) = sum_k Pois(k; L z)
    P^k for the substochastic P = I + G / L, so every term is nonnegative
    and no cancellation occurs; the series stops once the Poisson tail
    falls below 1e-30.  The first j stages evolve on their own, so the
    running sums of the stage occupancies are the prefix tails.
    """
    with mpmath.workdps(40):
        rates = [1 / mpmath.mpf(m) for m in means]
        big = max(rates)
        x = big * mpmath.mpf(z)
        stay = [1 - r / big for r in rates]
        move = [r / big for r in rates]
        occ = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (len(rates) - 1)
        seen = [mpmath.mpf(0)] * len(rates)
        pk, mass, k = mpmath.exp(-x), 0, 0
        while k <= x or 1 - mass > mpmath.mpf(10) ** -30:
            seen = [s + pk * o for s, o in zip(seen, occ)]
            mass += pk
            occ = [occ[0] * stay[0]] + [occ[j] * stay[j] + occ[j - 1] * move[j - 1]
                                        for j in range(1, len(occ))]
            k += 1
            pk *= x / k
        prefix = [float(mpmath.fsum(seen[:j])) for j in range(1, len(seen) + 1)]
        return prefix, float(seen[-1] * rates[-1])


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


# pairs 1e-8 apart: unscaled squaring of the stage chain lost 1.8e-9 here
NEAR_TIED_PAIRS = [m * f for m in (0.3, 0.6, 1.2, 2.4) for f in (1.0, 1.0 + 1e-8)]


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
            prefix = [float(mpmath.fsum(row[:j])) for j in range(1, len(means) + 1)]
            pdf = float(row[len(means) - 1] * rates[-1])
        got_prefix, got_pdf = stage_chain_oracle(means, z)
        assert got_prefix == pytest.approx(prefix, rel=1e-15)
        assert got_pdf == pytest.approx(pdf, rel=1e-15)
    assert stage_chain_oracle([1.0, 2.0], 1.0)[1] == pytest.approx(HYPO_DENSITY_1, rel=1e-15)


@ORACLE
@given(hypoexp_case())
@example(([1.0 + 1e-3 * k for k in range(16)], 12.0))    # partial-fraction weights 6e36
@example(([0.2 + 0.01 * k for k in range(40)], 30.0))    # ... 3e28
@example(([1.0, 1.0002, 1.0004], 0.3))                   # ... 2.5e7
@example(([1.0, 1.001, 1.002], 1.5))                     # ... 1e6
@example(([1.0, 1.0], 1.0))                              # exact ties
@example(([2.0] * 4, 5.0))
@example(([0.5, 1.3, 1.3, 2.2], 2.0))
@example((NEAR_TIED_PAIRS, 4.5))
def test_hypoexp_ccdf_and_density_match_oracle(case):
    means, q = case
    prefix, pdf = stage_chain_oracle(means, q)
    assert abs(tail(q, means) - prefix[-1]) <= 1e-12
    assert abs(sum_density_inid(q, means) - pdf) * math.fsum(means) <= 1e-12


@ORACLE
@given(hypoexp_case())
@example(([1.0, 1.0, 1.0, 2.0, 2.0], 4.0))                # exact ties
@example((GRID[::15][:64], 100.0))                       # 64 means
@example(([0.7], 0.5))                                   # a single mean
@example(([1e-13, 0.5, 2.0], 1e-10))                     # leading stage below 1e-12 max
@example(([1e-13, 1.0], 1e-14))                          # ... that alone leaks at q
@example((NEAR_TIED_PAIRS, 4.5))
def test_hypoexp_prefix_ccdf_matches_oracle(case):
    means, q = sorted(case[0]), case[1]
    prefix, _ = stage_chain_oracle(means, q)
    assert np.max(np.abs(hypoexp_prefix_ccdf(q, means) - prefix)) <= 1e-12


def one_row_stage_chain(means, z):
    """The stage chain of one ascending row on its own, as it was evaluated
    before chains were stacked: the reference that a stack of one must
    match bit for bit."""
    th = np.asarray(means, dtype=float)
    th = th[th > 1e-12 * th[-1]]
    rates, n = 1.0 / th, th.size
    s = max(0, math.frexp(16 * z * rates.max())[1])
    diags = -np.outer(2.0 ** np.arange(-s, 1), rates * z)
    a, b = diags[:, :-1], diags[:, 1:]
    d = np.abs(b - a)
    sups = -a * np.exp(np.maximum(a, b)) * np.divide(
        np.expm1(-d), -d, out=np.ones_like(d), where=d > 0)
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


def test_stacked_stage_chain_matches_oracle():
    # a stack runs under the squaring count of its stiffest row: beside a
    # mean scaled by 1e-4 the other rows take about 13 squarings more than
    # their own chains would, and must still meet the oracle
    rng = np.random.default_rng(2024)
    for k in (1, 2, 5, 12, 24):
        stiff = rng.uniform(0.2, 3.0, size=k)
        stiff[0] *= 1e-4
        rows = [np.sort(rng.uniform(0.2, 3.0, size=k)) for _ in range(3)]
        rows += [np.full(k, 0.7), np.sort(NEAR_TIED_PAIRS[:k] + GRID[:max(0, k - 8)])]
        stack = np.array(rows + [np.sort(stiff)])
        z = 0.6 * float(np.median(stack.sum(axis=1)))
        occupancy, rates = _stage_chain(stack, z)
        assert np.array_equal(rates, 1.0 / stack)
        for row, occ in zip(stack[:-1], occupancy):
            prefix, pdf = stage_chain_oracle(row, z)
            assert np.max(np.abs(np.cumsum(occ) - prefix)) <= 1e-12, (k, row)
            assert abs(occ[-1] / row[-1] - pdf) * row.sum() <= 1e-12, (k, row)
        # the stiffest row keeps its own squaring count, so its own bits
        assert np.array_equal(occupancy[-1], one_row_stage_chain(stack[-1], z)[0])


@pytest.mark.parametrize("seed", range(4))
def test_stack_of_one_is_the_one_row_chain_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3, 8, 20, 40):
        row = np.sort(rng.uniform(0.05, 3.0, size=k) * 10.0 ** rng.uniform(-6, 6))
        if seed == 1:
            row[:] = row[0] * (1 + 1e-9 * rng.integers(0, 3, size=k))  # exact and near ties
        elif seed == 2:
            row[: k // 2] *= 1e-13  # negligible leading stages
        row.sort()
        z = float(row.sum() * 10.0 ** rng.uniform(-3, 1))
        occupancy, rates = _stage_chain(row, z)
        want_occupancy, want_rates = one_row_stage_chain(row, z)
        assert np.array_equal(occupancy[0], want_occupancy), (k, row, z)
        assert np.array_equal(rates[0], want_rates)
        assert sum_density_inid(z, row) == max(0.0, float(want_occupancy[-1] * want_rates[-1]))


def test_stacked_prefix_tails_mix_negligible_cuts():
    # rows that drop 2, 1, 0 and 1 negligible leading stages in one call
    stack = np.array([[1e-13, 2e-13, 0.5, 2.0], [1e-13, 0.4, 0.5, 2.0],
                      [0.3, 0.4, 0.5, 2.0], [1e-14, 1.0, 1.0, 1.0]])
    for q in (1e-13, 0.5, 3.0):
        tails = _prefix_tails(q, stack)
        for row, got in zip(stack, tails):
            assert np.max(np.abs(got - hypoexp_prefix_ccdf(q, row))) <= 1e-12
            if q < 1e-12:  # the oracle's series is as long as q over the least mean
                assert np.max(np.abs(got - stage_chain_oracle(row, q)[0])) <= 1e-12
    with pytest.raises(ValueError, match="equally many"):
        _stage_chain(stack, 1.0)


def test_hypoexp_prefix_ccdf_domain():
    assert hypoexp_prefix_ccdf(1.0, []).size == 0
    for bad in ([2.0, 1.0], [1.0, NAN, 2.0], [0.0, 1.0], [1.0, INF], 3.0, [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            hypoexp_prefix_ccdf(1.0, bad)
    # the threshold is checked when there are no means too
    for q in (NAN, -1.0, INF):
        with pytest.raises(ValueError):
            hypoexp_prefix_ccdf(q, [])


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
