import math

import numpy as np
import pytest
from scipy.integrate import quad

from crmimo.linkstats import mean_max_iid
from crmimo.powalloc import SystemConfig
from crmimo.specfun import (
    _exp_sinh,
    erlang_tails,
    exp1,
    gamma,
    regularized_upper_gamma,
    upper_incomplete_gamma,
)

# frozen from the adaptive-quadrature oracles below
GAMMA_3_2 = 1.3533528323661270   # int_2^inf t^2 e^-t dt
E1_AT_1 = 0.21938393439552029    # int_1^inf e^-t / t dt


def test_gamma_factorial_values():
    assert gamma(1) == 1.0
    assert gamma(3) == 2.0
    assert gamma(5) == 24.0
    assert gamma(171) == float(math.factorial(170))


def test_gamma_domain_and_overflow():
    with pytest.raises(ValueError):
        gamma(0)
    with pytest.raises(ValueError):
        gamma(-2)
    with pytest.raises(ValueError):
        gamma(2.5)
    with pytest.raises(OverflowError):
        gamma(200)


GOOD_CONFIG = dict(m=2, n=4, l_t=1, l_r=1, p_p=1.0, p_max=1.0, q=1.0, gamma_th=1.0)


@pytest.mark.parametrize("call, field", [
    (lambda: SystemConfig(**{**GOOD_CONFIG, "m": math.inf}), "SystemConfig.m"),
    (lambda: SystemConfig(**{**GOOD_CONFIG, "n": -math.inf}), "SystemConfig.n"),
    (lambda: SystemConfig(**{**GOOD_CONFIG, "m": math.nan}), "SystemConfig.m"),
    (lambda: SystemConfig(**{**GOOD_CONFIG, "l_t": None}), "SystemConfig.l_t"),
    (lambda: gamma(math.inf), "n"),
    (lambda: gamma(None), "n"),
    (lambda: regularized_upper_gamma(math.nan, 1.0), "n"),
    (lambda: mean_max_iid(1.0, True), "l_r"),
    (lambda: mean_max_iid(1.0, math.inf), "l_r"),
], ids=["config-m-inf", "config-n-minus-inf", "config-m-nan", "config-l_t-none",
        "gamma-inf", "gamma-none", "tail-n-nan", "max-l_r-bool", "max-l_r-inf"])
def test_integer_inputs_name_the_field(call, field):
    """One rule for integer inputs: bools, NaN, +-inf and non-numbers raise a
    ValueError that names the field (integral floats and numpy integers
    pass, as `test_config_validation` and the case below pin)."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        call()
    assert gamma(np.int64(5)) == gamma(5.0) == 24.0


def test_exp_sinh_gate_raises_on_slow_decay():
    # 1 / (1 + x) is not integrable: the nested-rule gap is far past 1e-13
    with pytest.raises(ArithmeticError, match="exp-sinh error estimate"):
        _exp_sinh(lambda x: 1 / (1 + x), 1.0)


def test_upper_incomplete_order_one_is_exponential():
    assert upper_incomplete_gamma(1, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-15)
    for x in np.geomspace(1e-6, 50, 60):
        err = abs(upper_incomplete_gamma(1, x) - math.exp(-x))
        assert err <= 1e-14 * math.exp(-x) + 1e-300


def test_upper_incomplete_against_quadrature_oracle():
    oracle, est_err = quad(lambda t: t ** 2 * np.exp(-t), 2, np.inf)
    assert est_err < 1e-8
    assert oracle == pytest.approx(GAMMA_3_2, abs=1e-8)
    assert upper_incomplete_gamma(3, 2) == pytest.approx(GAMMA_3_2, rel=1e-12)
    # the elementary series value: 10 e^-2
    assert upper_incomplete_gamma(3, 2) == pytest.approx(10 * math.exp(-2), rel=1e-14)


def test_order_zero_is_exponential_integral():
    oracle, est_err = quad(lambda t: np.exp(-t) / t, 1, np.inf)
    assert est_err < 1e-8
    assert oracle == pytest.approx(E1_AT_1, abs=1e-8)
    assert upper_incomplete_gamma(0, 1) == pytest.approx(E1_AT_1, rel=1e-12)


def test_order_zero_accuracy_both_branches():
    # quadrature oracle across the series / continued-fraction boundary;
    # the oracle needs relative error control since E1 spans many decades
    for x in [1e-3, 0.05, 0.3, 0.9, 1.0, 1.5, 4.0, 12.0, 35.0]:
        oracle, _ = quad(lambda t, x=x: np.exp(-t) / t, x, np.inf,
                         epsabs=1e-300, epsrel=1e-13, limit=400)
        assert exp1(x) == pytest.approx(oracle, rel=1e-10)


def test_domain_errors():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0, 0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-1, 1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(2, -0.5)


def test_reduces_to_gamma_at_zero():
    for n in range(1, 31):
        assert upper_incomplete_gamma(n, 0.0) == gamma(n)


def test_recurrence_relation():
    # Gamma(n+1, x) = n Gamma(n, x) + x^n e^-x
    for n in range(1, 31):
        for x in np.geomspace(1e-3, 40, 15):
            lhs = upper_incomplete_gamma(n + 1, x)
            rhs = n * upper_incomplete_gamma(n, x) + x ** n * math.exp(-x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_monotone_decreasing_in_x():
    # non-increasing within a ULP: at tiny x and larger n the decrease is
    # below float resolution
    for n in [0, 1, 2, 5, 12]:
        xs = np.geomspace(0.05, 30, 40)
        vals = [upper_incomplete_gamma(n, x) for x in xs]
        assert all(b <= a * (1 + 5e-16) for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]


def test_regularized_tail_cross_check():
    from scipy.special import gammaincc

    xs = [0.0, 1e-3, 0.5, 5.0, 50.0, 800.0, 1200.0]
    for n in [1, 2, 5, 30, 200]:
        # the array form gives every order 1..n at every x at once
        columns = erlang_tails(n, np.array(xs))
        for i, x in enumerate(xs):
            ref = gammaincc(np.arange(1, n + 1), x)
            mine = regularized_upper_gamma(n, x)
            assert mine == pytest.approx(float(ref[-1]), rel=1e-11, abs=1e-280)
            assert columns[:, i] == pytest.approx(ref, rel=1e-11, abs=1e-280)
