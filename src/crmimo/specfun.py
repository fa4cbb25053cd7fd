"""The Erlang tail, E1 and the library's one quadrature rule.

Every closed form in this package reduces to the Erlang tail Q(n, x), the
finite series of the regularized upper incomplete gamma at integer order,
and the exponential integral E1; every integral (capacity, SER, E[max]) is
one fixed exp-sinh rule.  The scalar functions are pure Python and bit-stable
across platforms; `erlang_tails` gives every order at an array of arguments.

It owns the library's input rules too: one converter per kind of input
checks the raw value, then converts it, and raises ValueError naming the
field: `_check_int` for counts, `_finite` and `_positive` for real scalars,
`_positives` for sequences of positive reals, `_nonnegatives` for arrays.
"""

import math
import numbers
import operator
import sys

import numpy as np

_EULER_GAMMA = 0.57721566490153286060651209008240243

# exp(-x) underflows to subnormal/zero past ~745; switch to log-space there
_LOG_SAFE_X = 700.0
# math.exp(-x) is 0.0 from here on
_E1_UNDERFLOW_X = 746.0

# the exp-sinh rule (Takahasi and Mori, 1974): the trapezoid rule at step
# 2^-6 in t for x = exp(pi/2 sinh t), |t| <= 4.5 (x from 2e-31 to 5e30)
_DE_T = np.arange(-288, 289) / 64.0
_DE_X = np.exp(np.pi / 2 * np.sinh(_DE_T))
_DE_W = _DE_X * np.cosh(_DE_T) * (np.pi / 128.0)


def _check_int(n, name):
    """n as an int: integers and numpy integers pass; bools, floats (4.0
    too), NaN, inf, None and strings raise ValueError naming the field."""
    if not isinstance(n, bool):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {n!r}")


def _finite(x, name):
    """x as a float, checked before it is converted: a finite real number
    (an int, a float or a numpy number); NaN, inf, ints past the float range,
    bools and non-numbers such as strings and None raise ValueError naming
    the field."""
    if (type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)) \
            and -sys.float_info.max <= x <= sys.float_info.max:
        return float(x)
    raise ValueError(f"{name} must be finite, got {x!r}")


def _positive(x, name):
    """x as a float > 0 by the rule of `_finite`.  A float skips the
    abstract-class check, which costs ten times the comparison."""
    if (type(x) is float and 0.0 < x < math.inf) or _finite(x, name) > 0.0:
        return float(x)
    raise ValueError(f"{name} must be finite and positive, got {x!r}")


def _positives(values, name):
    """values as a tuple of floats: a non-empty sequence (a list, a tuple or
    a 1-d array) whose entries each pass `_positive`; a scalar, a string,
    None or an empty sequence raises ValueError naming the field."""
    items = () if isinstance(values, (str, bytes)) or not np.iterable(values) else tuple(values)
    if not items:
        raise ValueError(f"{name} must be a non-empty sequence of finite positives, got {values!r}")
    return tuple([_positive(v, name) for v in items])


def _nonnegatives(x, name):
    """x as a float array, 0-d for a scalar, checked before it is converted:
    finite values >= 0 of an integer or float numpy dtype.  Bools, strings,
    None and other objects, and ragged nesting, raise ValueError naming the
    field.  numpy gives a numeric list that holds a bool a numeric dtype, so
    such a bool is still read as 1.0."""
    try:
        a = np.asarray(x)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind in "iuf" and ((0.0 <= a) & (a < math.inf)).all():  # NaN fails both
        return a.astype(float, copy=False)
    raise ValueError(f"{name} must be finite and >= 0, got {x!r}")


def exp1(x):
    """Exponential integral E1(x) = int_x^inf e^-t / t dt, x > 0.

    Power series below 1, modified-Lentz continued fraction above;
    relative error <= 1e-12 on both branches.  From x = 746 on, e^-x and
    with it E1(x) < e^-x underflow to 0.0.
    """
    x = _positive(x, "x")
    if x >= _E1_UNDERFLOW_X:
        return 0.0
    if x < 1.0:
        # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!)
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            inc = -term / k
            total += inc
            if abs(inc) <= 1e-17 * abs(total):
                break
        return total
    # E1(x) = e^-x / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...))))
    tiny = 1e-300
    f = x + 1.0
    c = f
    d = 0.0
    for k in range(1, 300):
        a = -(k * k)
        b = x + 2 * k + 1
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return math.exp(-x) / f
    raise ArithmeticError(f"exp1 continued fraction did not converge for x={x}")


def regularized_upper_gamma(n, x):
    """Q(n, x) = Gamma(n, x) / Gamma(n) = e^-x sum_{k=0}^{n-1} x^k / k!.

    The Erlang-tail form; valid for any integer n >= 1 without factorial
    overflow.  Summed in pure Python below the underflow guard, so the
    multiplier equation sees bit-stable values; past it, the log-space last
    tail of `erlang_tails`.
    """
    n, x = _check_int(n, "n"), _finite(x, "x")
    if n < 1 or x < 0.0:
        raise ValueError(f"the Erlang tail Q(n, x) requires n >= 1 and a finite x >= 0, "
                         f"got n={n}, x={x}")
    if x > _LOG_SAFE_X:
        return float(erlang_tails(n, np.array([x]))[-1, 0])
    term = total = 1.0
    for k in range(1, n):
        term *= x / k
        total += term
    return math.exp(-x) * total


def erlang_tails(n, x):
    """The (n, x.size) array of [Q(1, x_i), ..., Q(n, x_i)], the running sums
    of the Poisson(x_i) pmf, for integer n >= 1 and a 1-d array of finite x >= 0,
    in one pass of the finite series.  Past the underflow guard the terms
    x^k / k! are formed in log space, relative to the largest."""
    if not ((0.0 <= x) & (x < math.inf)).all():  # NaN fails both
        raise ValueError(f"the Erlang tail Q(n, x) requires a finite x >= 0, got {x}")
    near = np.minimum(x, _LOG_SAFE_X)
    term, sums = 1.0, [np.ones_like(near)]
    for k in range(1, n):
        term = term * (near / k)
        sums.append(sums[-1] + term)
    tails, far = np.exp(-near) * np.array(sums), x > _LOG_SAFE_X
    if far.any():
        logs = np.multiply.outer(np.arange(n), np.log(x[far])) \
            - np.array([math.lgamma(k + 1) for k in range(n)])[:, None]
        top = logs.max(axis=0)
        tails[:, far] = np.exp(top - x[far]) * np.exp(logs - top).cumsum(axis=0)
    return tails


def _exp_sinh(f, scale, atol=0.0):
    """int_0^inf f(x) dx for an f smooth on (0, inf) that takes the array of
    nodes scale * _DE_X and decays at both ends.  The gap to the nested rule
    at step 2^-5 (every other node) estimates the error; past both 1e-13 of
    the integral and atol it raises ArithmeticError."""
    terms = f(scale * _DE_X) * _DE_W
    fine = math.fsum(terms)
    err = scale * abs(fine - 2.0 * math.fsum(terms[::2]))
    if not err <= max(1e-13 * abs(scale * fine), atol):
        raise ArithmeticError(f"exp-sinh error estimate {err:.2e} too large for {scale * fine:.6e}")
    return scale * fine

