import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from crmimo.linkstats import mean_max_iid
from crmimo.powalloc import SystemConfig
from crmimo.specfun import _exp_sinh, _ordered_fsum, erlang_tails, exp1, regularized_upper_gamma
from crmimo.validation import empirical_leakage

from accuracy import ORDER_ONE_CASES, check
from oracles import erlang_tail, erlang_tails_replay

# frozen from the adaptive-quadrature oracle below
E1_AT_1 = 0.21938393439552029    # int_1^inf e^-t / t dt


GOOD_CONFIG = dict(m=2, n=4, l_t=1, l_r=1, p_p=1.0, p_max=1.0, q=1.0, gamma_th=1.0)
GOOD_MC = dict(trials=100, seed=1, threads=1)

# every integer input of the library: (call on one value, field named in
# the error, a valid value)
INTEGER_INPUTS = {
    **{f"config-{name}": (lambda v, name=name: SystemConfig(**{**GOOD_CONFIG, name: v}),
                          f"SystemConfig.{name}", GOOD_CONFIG[name])
       for name in ("m", "n", "l_t", "l_r")},
    "tail-n": (lambda v: regularized_upper_gamma(v, 1.0), "n", 3),
    "max-l_r": (lambda v: mean_max_iid(1.0, v), "l_r", 3),
    **{name: (lambda v, name=name: empirical_leakage([1.0], [1.0], 1.0, **{**GOOD_MC, name: v}),
              name, GOOD_MC[name])
       for name in ("trials", "seed", "threads")},
}
NOT_INTEGERS = {"bool": True, "float": 4.0, "fraction": 2.5, "nan": math.nan,
                "inf": math.inf, "minus-inf": -math.inf, "none": None, "str": "1"}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry in INTEGER_INPUTS for kind, value in NOT_INTEGERS.items()])
def test_integer_inputs_name_the_field(entry, value):
    """One rule for integer inputs: bools, floats (integral ones too), NaN,
    +-inf, None and strings raise a ValueError that names the field."""
    call, field, _ = INTEGER_INPUTS[entry]
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        call(value)


@pytest.mark.parametrize("entry", INTEGER_INPUTS)
def test_numpy_integers_pass(entry):
    call, _, good = INTEGER_INPUTS[entry]
    assert call(np.int64(good)) == call(good)


def test_exp_sinh_gate_raises_on_slow_decay():
    # 1 / (1 + x) is not integrable: the nested-rule gap is far past 1e-13
    # at every step down to 2^-9
    with pytest.raises(ArithmeticError, match="exp-sinh error estimate .* at step 2\\^-9"):
        _exp_sinh(lambda x: 1 / (1 + x), 1.0)


@pytest.mark.parametrize("width, sizes", [
    (0.1, [577]),                     # passes at step 2^-6: one call on its nodes
    (0.03, [577, 576, 1152]),         # the midpoints of steps 2^-7 and 2^-8
    (0.003, [577, 576, 1152, 2304]),  # still misses its gate at step 2^-9
])
def test_exp_sinh_refines_a_narrow_peak(width, sizes):
    # a Gaussian peak at x = 1, exp(-((x - 1) / width)^2): its integral is
    # width sqrt(pi) to far below 1e-16 once the tail under 0 is negligible
    calls = []

    def peak(x):
        calls.append(x.size)
        return np.exp(-((x - 1.0) / width) ** 2)

    if width > 0.01:
        assert _exp_sinh(peak, 1.0) == pytest.approx(width * math.sqrt(math.pi), rel=1e-15)
    else:
        with pytest.raises(ArithmeticError, match="at step 2\\^-9"):
            _exp_sinh(peak, 1.0)
    assert calls == sizes


@settings(max_examples=300)
@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.2250738585072014e-308),
                          st.floats(1e-300, 1e300)), min_size=1, max_size=2000))
def test_ordered_fsum_is_fsum_bit_for_bit(terms):
    # fsum is correctly rounded: the largest-first order cannot move a bit,
    # subnormals and exact zeros included
    terms = np.array(terms)
    assert _ordered_fsum(terms) == math.fsum(terms)


def test_upper_incomplete_order_one_is_exponential():
    check("regularized_upper_gamma", ORDER_ONE_CASES)


def test_upper_incomplete_against_quadrature_oracle():
    # the row's oracle at (3, 2) against int_2^inf t^2 e^-t dt = Gamma(3) Q(3, 2)
    value, est_err = quad(lambda t: t ** 2 * np.exp(-t), 2, np.inf)
    assert est_err < 1e-8
    assert erlang_tail(3, 2.0) == pytest.approx(value / 2, abs=1e-8)
    check("regularized_upper_gamma", [(3, 2.0)])


def test_order_zero_is_exponential_integral():
    oracle, est_err = quad(lambda t: np.exp(-t) / t, 1, np.inf)
    assert est_err < 1e-8
    assert oracle == pytest.approx(E1_AT_1, abs=1e-8)
    assert exp1(1.0) == pytest.approx(E1_AT_1, rel=1e-12)


def test_order_zero_accuracy_both_branches():
    # quadrature oracle across the series / continued-fraction boundary;
    # the oracle needs relative error control since E1 spans many decades
    for x in [1e-3, 0.05, 0.3, 0.9, 1.0, 1.5, 4.0, 12.0, 35.0]:
        oracle, _ = quad(lambda t, x=x: np.exp(-t) / t, x, np.inf,
                         epsabs=1e-300, epsrel=1e-13, limit=400)
        assert exp1(x) == pytest.approx(oracle, rel=1e-10)


def test_exp1_on_log_grid_to_1e30():
    # past x = 746, e^-x and E1(x) underflow to 0.0; the continued fraction
    # used to stall there (147 of these points raised, the first at 1.1e19)
    for x in np.logspace(0.0, 30.0, 3001):
        with mpmath.workdps(30):
            oracle = float(mpmath.e1(x))
        got = exp1(float(x))
        assert got == pytest.approx(oracle, rel=1e-12, abs=1e-300), x
        if x >= 746.0:
            assert got == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        exp1(0.0)
    with pytest.raises(ValueError):
        regularized_upper_gamma(0, 1.0)
    with pytest.raises(ValueError):
        regularized_upper_gamma(2, -0.5)


def test_reduces_to_gamma_at_zero():
    # Gamma(n, 0) = Gamma(n): the regularized tail is 1
    for n in range(1, 31):
        assert regularized_upper_gamma(n, 0.0) == 1.0


def test_recurrence_relation():
    # Q(n+1, x) = Q(n, x) + x^n e^-x / n!
    for n in range(1, 31):
        for x in np.geomspace(1e-3, 40, 15):
            lhs = regularized_upper_gamma(n + 1, x)
            rhs = regularized_upper_gamma(n, x) + math.exp(n * math.log(x) - x - math.lgamma(n + 1))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_monotone_decreasing_in_x():
    # non-increasing within a ULP: at tiny x and larger n the decrease is
    # below float resolution
    xs = np.geomspace(0.05, 30, 40)
    for tail in [exp1, *(lambda x, n=n: regularized_upper_gamma(n, x) for n in [1, 2, 5, 12])]:
        vals = [tail(x) for x in xs]
        assert all(b <= a * (1 + 5e-16) for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]


def test_regularized_tail_cross_check():
    # the array form gives every order 1..n at every x at once; the scalar
    # Q(n, x) on the same grid is a row of tests/accuracy.py
    from scipy.special import gammaincc

    xs = [0.0, 1e-3, 0.5, 5.0, 50.0, 800.0, 1200.0]
    for n in [1, 2, 5, 30, 200]:
        columns = erlang_tails(n, np.array(xs))
        for i, x in enumerate(xs):
            ref = gammaincc(np.arange(1, n + 1), x)
            assert columns[:, i] == pytest.approx(ref, rel=1e-11, abs=1e-280)


def test_erlang_tails_fills_one_array():
    # the running sums are written into the returned array: at n = 1997
    # over 1152 nodes (a capacity integrand at diversity order 1997) on
    # [0, 700], below the underflow guard, and on [0, 3000], three quarters
    # of them past it, the call peaks at no more than 1.5 times its output.
    # A list of rows copied into one array peaked at 3.0 times it below the
    # guard, and four (n x far) arrays at 3.3 times it past the guard; the
    # values are those of the one-array-per-branch replay, bit for bit
    for hi in (700.0, 3000.0):
        x = np.linspace(0.0, hi, 1152)
        tracemalloc.start()
        try:
            tails = erlang_tails(1997, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tails.shape == (1997, 1152)
        assert peak <= 1.5 * tails.nbytes, (hi, peak / tails.nbytes)
        assert np.array_equal(tails, erlang_tails_replay(1997, x))


def test_erlang_tails_names_the_first_bad_argument():
    # a 4609-node array is not printed whole
    x = np.linspace(0.0, 10.0, 4609)
    x[[7, 3000]] = math.nan, -1.0
    with pytest.raises(ValueError, match=r"got x\[7\] = nan$"):
        erlang_tails(3, x)
