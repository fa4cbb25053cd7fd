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
    mean_max_iid,
    mean_max_inid,
    mean_sum_inid,
    pathloss_gain,
)
from crmimo.linkstats import _prefix_tails, _stage_chain
from crmimo.validation import _mixed_outage_quadrature, sum_density_inid

from oracles import HYPOEXP_EXAMPLES, MEAN_GRID, NEAR_TIED_PAIRS, hypoexp_case, stage_chain_oracle

# frozen from the convolution oracle below: density of Exp(1) + Exp(2) at 1
HYPO_DENSITY_1 = 0.23865121854119112
PATHLOSS_56M = 10.168289254477298  # (56/100)^-4, quoted rounded to 10 elsewhere


def tail(q, means):
    """Pr[sum of independent exponentials with the given means > q]: the
    leakage at q of powers equal to the means into one unit-mean receiver."""
    return leakage_probability(means, [1.0], q)


def test_pathloss_examples():
    assert pathloss_gain(25, 100, 4) == pytest.approx(256.0, rel=1e-14)
    assert pathloss_gain(100, 100, 4) == pytest.approx(1.0, rel=1e-14)
    assert pathloss_gain(56, 100, 4) == pytest.approx(PATHLOSS_56M, rel=1e-13)


def test_pathloss_domain():
    for bad in [(0, 100, 4), (10, 0, 4), (10, 100, 0), (-5, 100, 4)]:
        with pytest.raises(ValueError):
            pathloss_gain(*bad)
    # a gain past the float range: an overflow, d / d_ref underflowing to
    # 0.0, or a gain underflowing to 0.0; the error names all three arguments
    for bad in [(1e-300, 100, 4), (1e-100, 100.0, 4.0), (25, 1e300, 4), (25, 100, 1000),
                (1e-300, 1e300, 4), (1e300, 1e-300, 4), (1e300, 1, 4)]:
        with pytest.raises(ValueError, match=r"^\(d, d_ref, alpha\) = \(.+\) give a gain "
                                             r"past the float range$"):
            pathloss_gain(*bad)
    assert pathloss_gain(1e80, 1, 4) == 1e-320  # a subnormal gain is still a gain


def test_mean_max_of_64_receivers_takes_under_10_ms():
    # its accuracy is a row of tests/test_accuracy.py
    means = list(np.random.default_rng(64).uniform(0.1, 9.0, size=64))
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        mean_max_inid(means)
        best = min(best, time.perf_counter() - start)
    assert best < 0.01


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
    for bad in ([1.0, -2.0], [1.0, math.nan]):
        with pytest.raises(ValueError):
            tail(1.0, bad)
    for bad in ([1.0, -2.0], [0.0, 1.0], [1.0, math.nan], [], "12"):
        with pytest.raises(ValueError, match="^means must be"):
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
# every positive-real input of the geometry and the statistics, as a call on
# one value; the raw value is checked, so no bool or string passes as a number
REAL_INPUTS = {
    "geometry-d_st_sr": lambda v: Geometry(**{**GEOM, "d_st_sr": v}),
    "geometry-d_pt_sr": lambda v: Geometry(**{**GEOM, "d_pt_sr": (50.0, v)}),
    "geometry-d_st_pr": lambda v: Geometry(**{**GEOM, "d_st_pr": (v,)}),
    "geometry-d_ref": lambda v: Geometry(**GEOM, d_ref=v),
    "geometry-alpha": lambda v: Geometry(**GEOM, alpha=v),
    "linkstats-mean_x": lambda v: LinkStats(**{**MEANS, "mean_x": v}),
    "linkstats-y": lambda v: LinkStats(**{**MEANS, "mean_y_per_pr": (1.0, v)}),
    "linkstats-z": lambda v: LinkStats(**{**MEANS, "mean_z_per_pt": (v,)}),
    "pathloss-d": lambda v: pathloss_gain(v, 100.0, 4.0),
    "pathloss-d_ref": lambda v: pathloss_gain(50.0, v, 4.0),
    "pathloss-alpha": lambda v: pathloss_gain(50.0, 100.0, v),
    "sum_density-z": lambda v: sum_density_inid(v, [1.0, 2.0]),
    "sum_density-means": lambda v: sum_density_inid(1.0, [1.0, v]),
    "mixed_quadrature-means": lambda v: _mixed_outage_quadrature(0.7, 1.3, 4, [1.0, v]),
}
NOT_NUMBERS = {"bool": True, "str": "1", "none": None}


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
    pytest.param(lambda: sum_density_inid(NAN, [1.0, 2.0]), id="sum_density-z-nan"),
    pytest.param(lambda: sum_density_inid(INF, [1.0, 2.0]), id="sum_density-z-inf"),
    pytest.param(lambda: sum_density_inid(INF, [1.0, 1.0]), id="sum_density-z-inf-tied"),
    pytest.param(lambda: sum_density_inid(-1.0, [1.0, 2.0]), id="sum_density-z-negative"),
    pytest.param(lambda: sum_density_inid(1.0, "12"), id="sum_density-means-digits"),
    pytest.param(lambda: sum_density_inid(1.0, 2.0), id="sum_density-means-scalar"),
    pytest.param(lambda: _mixed_outage_quadrature(0.7, 1.3, 4, [1.0, INF]),
                 id="mixed_quadrature-inf"),
    pytest.param(lambda: _mixed_outage_quadrature(0.7, 1.3, 4, "12"),
                 id="mixed_quadrature-digits"),
    pytest.param(lambda: leakage_probability([INF], [1.0], 1.0), id="leakage-inf"),
    pytest.param(lambda: mean_sum_inid([INF]), id="mean_sum-inf"),
    pytest.param(lambda: mean_max_iid(INF, 2), id="mean_max_iid-inf"),
    pytest.param(lambda: mean_max_iid(NAN, 2), id="mean_max_iid-nan"),
    pytest.param(lambda: mean_max_inid([INF, 1.0]), id="mean_max_inid-inf"),
    *(pytest.param(lambda call=call, value=value: call(value), id=f"{entry}-{kind}")
      for entry, call in REAL_INPUTS.items() for kind, value in NOT_NUMBERS.items()),
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
def test_hypoexp_density_matches_oracle(case):
    # the tail at the same cases is the leakage_probability row of
    # tests/test_accuracy.py
    means, q = case
    _, pdf = stage_chain_oracle(means, q)
    assert abs(sum_density_inid(q, means) - pdf) * math.fsum(means) <= 1e-12


for case in HYPOEXP_EXAMPLES:
    test_hypoexp_density_matches_oracle = example(case)(test_hypoexp_density_matches_oracle)


@ORACLE
@given(hypoexp_case())
@example(([1.0, 1.0, 1.0, 2.0, 2.0], 4.0))                # exact ties
@example((MEAN_GRID[::15][:64], 100.0))                       # 64 means
@example(([0.7], 0.5))                                   # a single mean
@example(([1e-13, 0.5, 2.0], 1e-10))                     # leading stage below 1e-12 max
@example(([1e-13, 1.0], 1e-14))                          # ... that alone leaks at q
@example((NEAR_TIED_PAIRS, 4.5))
def test_hypoexp_prefix_ccdf_matches_oracle(case):
    means, q = sorted(case[0]), case[1]
    prefix, _ = stage_chain_oracle(means, q)
    assert np.max(np.abs(_prefix_tails(q, means) - prefix)) <= 1e-12


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
        rows += [np.full(k, 0.7), np.sort(NEAR_TIED_PAIRS[:k] + MEAN_GRID[:max(0, k - 8)])]
        stack = np.array(rows + [np.sort(stiff)])
        z = 0.6 * float(np.median(stack.sum(axis=1)))
        occupancy = _stage_chain(stack, z)
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
        occupancy = _stage_chain(row[None, row > 1e-12 * row[-1]], z)
        want_occupancy, want_rates = one_row_stage_chain(row, z)
        assert np.array_equal(occupancy[0], want_occupancy), (k, row, z)
        assert sum_density_inid(z, row) == max(0.0, float(want_occupancy[-1] * want_rates[-1]))


def test_stacked_prefix_tails_mix_negligible_cuts():
    # rows that drop 2, 1, 0 and 1 negligible leading stages in one call
    stack = np.array([[1e-13, 2e-13, 0.5, 2.0], [1e-13, 0.4, 0.5, 2.0],
                      [0.3, 0.4, 0.5, 2.0], [1e-14, 1.0, 1.0, 1.0]])
    for q in (1e-13, 0.5, 3.0):
        tails = _prefix_tails(q, stack)
        for row, got in zip(stack, tails):
            assert np.max(np.abs(got - _prefix_tails(q, row))) <= 1e-12
            if q < 1e-12:  # the oracle's series is as long as q over the least mean
                assert np.max(np.abs(got - stage_chain_oracle(row, q)[0])) <= 1e-12


def test_hypoexp_prefix_ccdf_domain():
    # the stage chain trusts its stack: `_prefix_tails` refuses descending,
    # negative, NaN, inf and missing means, in any row
    for bad in ([2.0, 1.0], [1.0, NAN, 2.0], [-1.0, 1.0], [1.0, INF], [],
                [[0.5, 1.0], [1.0, 0.5]]):
        with pytest.raises(ValueError, match="finite, nonnegative and ascending"):
            _prefix_tails(1.0, bad)
    # a stage of mean 0 is in the domain: it never exceeds q > 0
    assert np.array_equal(_prefix_tails(1.0, [0.0, 1.0]), [[0.0, *_prefix_tails(1.0, [1.0])[0]]])
    assert np.array_equal(_prefix_tails(1.0, [[0.0, 0.0], [0.0, 1.0]])[0], [0.0, 0.0])


@given(hypoexp_case(), st.integers(1, 8))
@example(([1e-13, 0.5, 2.0], 1e-10), 3)                 # zeros, then a stage below 1e-12 max
@example(([1e-14, 1e-13, 1.0], 1e-14), 1)
def test_zero_mean_stages_prefix_zero_tails(case, k):
    means, q = sorted(case[0]), case[1]
    got = _prefix_tails(q, [0.0] * k + means)
    assert np.array_equal(got, [[0.0] * k + _prefix_tails(q, means)[0].tolist()])
