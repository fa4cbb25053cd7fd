"""Runs the accuracy table of tests/accuracy.py: every row at its tolerance,
and every public numeric function either in a row or exempt with a reason."""

import inspect

import numpy as np
import pytest

import crmimo as cr

import oracles
from accuracy import RECEIVER_SYSTEMS, ROWS, integrals, point, run


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


@pytest.mark.parametrize("row", ROWS, ids=lambda row: "-".join(row.names))
def test_row_meets_its_tolerance(row):
    run(row, row.examples)


def test_every_numeric_name_has_a_row():
    numeric = {name for name in cr.__all__ if inspect.isfunction(getattr(cr, name))}
    rows = {name for row in ROWS for name in row.names}
    assert not rows & EXEMPT.keys()
    assert rows | EXEMPT.keys() == numeric


def test_quadrature_oracles_converge():
    # 24 nodes a piece give the doubles of 48: for the capacity and SER on
    # the explicit systems below n = 100 at the SER scale b = 0.25, where a
    # layout without the pieces x_t 4^k inside x_0 +- 8 w was 8e-12 off at
    # (16, 40, 40); for E[max], also with 60 tied means.  At N up to 1997
    # test_outage's test_capacity_at_large_diversity_order_matches_oracle
    # checks that degree 3 already gives degree 4's capacity
    for spec in RECEIVER_SYSTEMS:
        assert oracles.quadrature_oracles(*point(spec), 0.25, degree=5) == integrals(spec, 0.25)
    for means in ([0.1, 9.0], [1.0] * 60, list(np.random.default_rng(12).uniform(0.1, 9.0, 12))):
        assert oracles.max_mean(means, degree=5) == oracles.max_mean(means)
