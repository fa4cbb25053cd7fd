"""One accuracy table: every public closed form against its oracle.

Each row of ROWS holds the tolerance that its functions' docstrings state (a
value, absolute or relative, per region where there is more than one), the
explicit cases run first, one strategy of cases drawn after them, and one
oracle from tests/oracles.py; the outage row checks both outage functions
through their one kernel.  A tolerance is tightened or widened in its row
alone.  No other test module runs a row.  A check fails when a public
numeric function has neither a row nor a stated reason to have none.
Importing the table calls neither the library nor an oracle.
"""

import decimal
import functools
import inspect
import math
from decimal import Decimal
from typing import Callable, NamedTuple, Union

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crmimo as cr
from crmimo import powalloc
from crmimo.linkstats import LinkStats
from crmimo.outage import _mixed_success
from crmimo.powalloc import SystemConfig

import oracles
from oracles import (
    HYPOEXP_EXAMPLES,
    LARGE_N,
    anchor_setup,
    equal_antenna_setup,
    hypoexp_case,
    integrals,
    large_n_system,
    log_uniform,
    multiplier_systems,
    point,
    system_at,
)


ABS, REL = False, True


class Row(NamedTuple):
    """One public closed form.  A tolerance (value, relative[, region]) gates
    |got - want| <= value, times |want| if relative; the first without a
    region, or whose region(case, want) holds, applies to a case."""

    names: tuple
    tols: tuple
    call: Callable  # case -> the library's value
    oracle: Callable  # case -> the oracle's value
    cases: st.SearchStrategy
    examples: Union[tuple, Callable] = ()  # or a function giving them, called on each run
    draws: int = 40


def spread(lo, mid, hi):
    """Floats over [lo, hi], drawn as often below mid as above it."""
    return st.one_of(st.floats(lo, mid), st.floats(mid, hi))


@functools.cache
def multiplier_examples():
    """Two systems of the validation grid and one at m = n, the weak link
    whose root lies past lam_asym * 1e6, then weak links with the most
    Newton steps (n - m = 1) and 18 bracket widenings (n = m)."""
    return (anchor_setup(), anchor_setup(n=8), equal_antenna_setup(),
            (SystemConfig(m=1, n=2, l_t=1, l_r=1, p_p=1e4, p_max=1e-3, q=1e-3, gamma_th=1.0),
             LinkStats(1e-3, [1.0], [10.0])),
            system_at(1, 2, 50.0), system_at(2, 2, 30.0))


def with_multiplier(system, u):
    """(config, stats, the multiplier that puts u = C / E[X] at u)."""
    config, stats = system
    return config, stats, powalloc.LN2 * stats.mean_y \
        * (config.p_p * stats.mean_z + config.n0) / (u * stats.mean_x)


def mean_power_oracle(case):
    config, stats, lam = case
    with mpmath.workdps(50):
        return float(oracles.mp_mean_power(mpmath.mpf(lam), config, stats))


def multiplier_root(system):
    """The 50-digit root of mean_power(lam) = target, from the library's."""
    target = cr.conventional_power(*system)
    with mpmath.workdps(50):
        return mpmath.findroot(lambda x: oracles.mp_mean_power(x, *system) - target,
                               mpmath.mpf(cr.solve_lambda(*system).lam))


def multiplier(system):
    """solve_lambda's multiplier, after checking that it took at most 16
    mean-power evaluations once the bracket closed (bisection took about 58)
    and that the closed-form derivative there (the first term over lam) is
    within 1e-14 relative of the 50-digit one."""
    target, values, water_fill = cr.conventional_power(*system), [], powalloc._water_fill

    def recorded(lam, config, stats):
        values.append(water_fill(lam, config, stats))
        return values[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(powalloc, "_water_fill", recorded)
        lam = cr.solve_lambda(*system).lam
    assert len(values) - 1 - next(i for i, (f, _) in enumerate(values) if f >= target) <= 16
    with mpmath.workdps(50):
        slope = mpmath.diff(lambda x: oracles.mp_mean_power(x, *system), mpmath.mpf(lam))
        assert abs(water_fill(lam, *system)[1] - slope) <= 1e-14 * slope
    return lam


@st.composite
def interferer_means(draw):
    """1..64 means over 1e-2..10, then exact ties, near ties (1e-8 apart,
    relative) or neither."""
    size = draw(st.integers(1, 64))
    means = draw(st.lists(spread(1e-2, 1.0, 10.0), min_size=size, max_size=size))
    tie = draw(st.sampled_from(["none", "exact", "near"]))
    if len(means) > 1 and tie != "none":
        k = draw(st.integers(1, len(means) - 1))
        step = 0.0 if tie == "exact" else 1e-8
        means[1:k + 1] = [means[0] * (1.0 + step * i) for i in range(1, k + 1)]
    return means


def kernel_oracle(case):
    """The paper's forms (distinct or all-equal means, N <= 40), else the
    positive sum replayed in 50 digits (partial ties, and N past 40)."""
    a, bn, n_terms, means = case
    if len(set(means)) in (1, len(means)) and n_terms <= 40:
        return oracles.paper_outage(*case)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float(1 - oracles.decimal_success(Decimal(a), Decimal(bn), n_terms, means))


@st.composite
def receiver_systems(draw):
    """(m, n, l_t, l_r, d_st_sr, d_pt_sr, d_st_pr) at one primary receiver,
    N = n - m + 1 up to 64 and l_t up to 80, with interferer distances
    exactly tied in two groups, distinct, or 1e-8 apart (relative)."""
    tie = draw(st.sampled_from(["none", "exact", "near"]))
    l_t, d = draw(st.integers(1, 80)), draw(st.floats(30.0, 100.0))
    if tie == "exact":
        k = draw(st.integers(0, l_t))
        d_pt_sr = (d,) * k + (draw(st.floats(30.0, 100.0)),) * (l_t - k)
    elif tie == "near":
        d_pt_sr = tuple(d * (1.0 + 1e-8 * i) for i in range(l_t))
    else:
        d_pt_sr = tuple(draw(st.lists(st.floats(30.0, 100.0), min_size=l_t, max_size=l_t)))
    m, shape = draw(st.integers(1, 16)), draw(st.integers(1, 64))
    return (m, m + shape - 1, l_t, 1, draw(st.floats(15.0, 45.0)), d_pt_sr,
            (draw(st.floats(30.0, 100.0)),))


# an analytic_curves geometry that adaptive quad had 2.0e-9 off; a system
# whose SER adaptive quad could not converge; n - m = 64; l_t = 80 in two tied
# groups; strong links, SER 1.1e-7 and 1.0e-8, where the outage's rounding
# noise exceeds 1e-13 of the SER, so its gate is absolute
RECEIVER_SYSTEMS = (
    (4, 4, 2, 1, 36.259, (35.258, 59.279), (85.586,)),
    (16, 40, 40, 1, 30.0, (60.0,) * 40, (70.0,)),
    (2, 66, 2, 1, 20.0, (50.0, 50.0), (40.0,)),
    (4, 5, 80, 1, 25.0, (40.0,) * 40 + (90.0,) * 40, (60.0,)),
    (4, 8, 2, 1, 12.0, (70.0, 70.0), (80.0,)),
    (2, 6, 2, 1, 15.0, (80.0, 90.0), (80.0,)))

ROWS = (
    Row(("regularized_upper_gamma",),
        ((1e-300, ABS, lambda case, want: want < 1e-300),  # Q near and past underflow
         (1e-15, REL, lambda case, want: case[0] == 1 and case[1] <= 700),  # e^-x alone
         (1e-14, REL, lambda case, want: case[1] <= 700),  # the direct sum
         (2e-12, REL)),  # x > 700: the log-space tail, about x ulps
        lambda case: cr.regularized_upper_gamma(*case), lambda case: oracles.erlang_tail(*case),
        st.tuples(st.integers(1, 400), st.one_of(st.just(0.0), log_uniform(1e-6, 2000.0))),
        ((1, 0.5), *((1, float(x)) for x in np.geomspace(1e-6, 50, 60)), (3, 2.0),
         *((n, x) for n in (1, 2, 5, 30, 200) for x in (0.0, 1e-3, 0.5, 5.0, 50.0, 800.0, 1200.0))),
        draws=60),
    Row(("mean_sum_inid",), ((2.0 ** -53, REL),),  # correctly rounded
        cr.mean_sum_inid, oracles.exact_sum,
        st.one_of(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=64),
                  st.builds(lambda base, n: [base * (1 + 1e-3 * k) for k in range(n)],
                            st.floats(1e-3, 1e3), st.integers(1, 64))),
        ([5.0], [1.0, 2.0], [1.0, 2.0, 3.0]),
        draws=80),
    Row(("mean_max_iid",), ((1e-15, REL),),
        lambda case: cr.mean_max_iid(*case), lambda case: oracles.max_mean([case[0]] * case[1]),
        st.tuples(st.floats(1e-3, 1e3), st.integers(1, 64)),
        # inclusion-exclusion, sum_k (-1)^(k+1) C(l_r, k) / k, cancels by up
        # to 2^60 at (1, 60); then 1, 1 + 1/2 and 2 (1 + 1/2 + 1/3), and
        # harmonic numbers
        ((1.0, 60), (1.0, 1), (1.0, 2), (2.0, 3), *((3.7, l_r) for l_r in range(1, 12))),
        draws=80),
    Row(("mean_max_inid",), ((1e-14, REL),),
        cr.mean_max_inid, oracles.max_mean,
        st.lists(st.floats(0.1, 9.0), min_size=1, max_size=12),
        # one mean, an i.i.d. pair (1.5) and a distinct pair (7/3), then far
        # past the reach of inclusion-exclusion (2^64 subsets)
        ([2.0], [1.0, 1.0], [1.0, 2.0],
         list(np.random.default_rng(64).uniform(0.1, 9.0, size=64)))),
    Row(("leakage_probability",), ((1e-14, ABS),),
        lambda case: cr.leakage_probability(*case),
        lambda case: math.prod(oracles.stage_chain_oracle([p * ey for p in case[0]], case[2])[0][-1]
                               for ey in case[1]),
        st.builds(lambda case, receivers: (case[0], receivers, case[1]), hypoexp_case(),
                  st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3)),
        (*((means, [1.0], q) for means, q in HYPOEXP_EXAMPLES),
         # one and two stages: e^-1 and 2 e^-1/2 - e^-1, and e^{-q / (p E[Y])}
         ([1.0], [1.0], 1.0), ([1.0, 2.0], [1.0], 1.0), ([0.7], [2.0], 3.0), ([5.0], [0.3], 1.2))),
    Row(("mean_power",), ((1e-13, REL),),  # u up to 50 loses about u ulps to cancellation
        lambda case: cr.mean_power(case[2], *case[:2]), mean_power_oracle,
        st.builds(with_multiplier, multiplier_systems(), log_uniform(1e-3, 50.0)),
        lambda: tuple((*system, cr.solve_lambda(*system).lam) for system in multiplier_examples())),
    Row(("solve_lambda",), ((1e-14, REL),),
        multiplier, multiplier_root, multiplier_systems(), multiplier_examples, draws=60),
    Row(("outage_auto", "outage_fixed_power"),
        ((2e-13, ABS, lambda case, want: case[1] > 700),  # Erlang tails in log space
         (1e-14, ABS, lambda case, want: case[2] <= 40)),
        lambda case: float(np.clip(1.0 - _mixed_success(*case), 0.0, 1.0)[0]), kernel_oracle,
        st.tuples(spread(1e-4, 1.0, 1e4), spread(1e-4, 1.0, 60.0), st.integers(1, 40),
                  interferer_means()),
        ((0.7, 1.3, 4, [0.5, 0.5, 0.8]), (1e4, 5.0, 40, [0.3] * 64),
         (2.0, 3.0, 40, [0.05 * 1.1 ** k for k in range(64)]),
         (0.7, 1.3, 6, [1.0, 1.0 + 1e-8, 1.0 + 2e-8, 2.0]), (1e-4, 60.0, 40, [10.0] * 3 + [1e-2]),
         (0.0, 2.5, 7, [1.0, 2.0]),
         # bn past 700: the Erlang tails are summed in log space, for many terms
         (0.01, 900.0, 1000, [1.0, 2.0, 5.0]), (0.05, 750.0, 800, [0.5] * 4),
         (1e-3, 1200.0, 1200, [3.0, 3.0, 7.0])),
        draws=200),
    Row(("ergodic_capacity",), ((1e-14, REL),),
        lambda spec: cr.ergodic_capacity(*point(spec)), lambda spec: integrals(spec, 1.0)[0],
        receiver_systems(), RECEIVER_SYSTEMS + tuple(large_n_system(n) for n in LARGE_N),
        draws=4),
    Row(("average_ser_binary",), ((1e-13, ABS),),
        lambda case: cr.average_ser_binary(*point(case[0]), 1.0, case[1]),
        lambda case: integrals(*case)[1],
        st.tuples(receiver_systems(), st.sampled_from([0.25, 1.0, 4.0])),
        tuple((spec, 1.0) for spec in RECEIVER_SYSTEMS), draws=4),
)


def meets_tolerance(row, case):
    got, want = row.call(case), row.oracle(case)
    value, relative, *_ = next(t for t in row.tols if len(t) < 3 or t[2](case, want))
    assert abs(got - want) <= value * (abs(want) if relative else 1.0), (case, got, want)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: "-".join(row.names))
def test_row_meets_its_tolerance(row):
    # the explicit cases, then row.draws cases of the row's strategy
    @settings(max_examples=row.draws)
    @given(row.cases)
    def drawn(case):
        meets_tolerance(row, case)

    examples = row.examples() if callable(row.examples) else row.examples
    for case in reversed(examples):
        drawn = example(case)(drawn)
    drawn()


# public numeric functions without a row, and why
EXEMPT = {
    "empirical_outage": "Monte Carlo, checked at 3 sigma against the closed form elsewhere",
    "empirical_rate": "Monte Carlo, checked at 3 sigma against the closed form elsewhere",
    "antenna_pmf": "Monte Carlo, checked at 3 sigma and against a brute-force reduction",
    "conventional_power": "elementary: min(q / (m E[Y]), p_max / m)",
    "optimal_power": "elementary: max(0, slope - offset / x)",
    "pathloss_gain": "elementary: (d / d_ref)^-alpha",
    "reduce_antennas": "its steps are leakage_probability's tails",
    "asymptotic_sinr": "its equivalents against the exact closed form are ROADMAP item 10",
}


def test_every_numeric_name_has_a_row():
    numeric = {name for name in cr.__all__ if inspect.isfunction(getattr(cr, name))}
    rows = {name for row in ROWS for name in row.names}
    assert not rows & EXEMPT.keys()
    assert rows | EXEMPT.keys() == numeric


def test_quadrature_oracles_converge():
    # 24 nodes a piece give the doubles of 48: for the capacity and SER on
    # the explicit systems below n = 100 at the SER scale b = 0.25, where a
    # layout without the pieces x_t 4^k inside x_0 +- 8 w was 8e-12 off at
    # (16, 40, 40); for E[max], also with 60 tied means.  At N up to 1997,
    # degree 3 already gives degree 4's capacity to 1e-15 relative
    for spec in RECEIVER_SYSTEMS:
        assert oracles.quadrature_oracles(*point(spec), 0.25, degree=5) == integrals(spec, 0.25)
    for n in LARGE_N:
        spec = large_n_system(n)
        want = integrals(spec, 1.0)[0]
        assert abs(oracles.quadrature_oracles(*point(spec), degree=3)[0] - want) <= 1e-15 * want
    for means in ([0.1, 9.0], [1.0] * 60, list(np.random.default_rng(12).uniform(0.1, 9.0, 12))):
        assert oracles.max_mean(means, degree=5) == oracles.max_mean(means)
