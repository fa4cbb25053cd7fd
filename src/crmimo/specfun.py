"""The Erlang tail, E1 and the library's one quadrature rule.

Every closed form in this package reduces to the Erlang tail Q(n, x), the
finite series of the regularized upper incomplete gamma at integer order,
and the exponential integral E1; every integral (capacity, SER, E[max]) is
one exp-sinh rule, which halves its step only where its error estimate
asks.  The scalar functions are pure Python and bit-stable
across platforms; `erlang_tails` gives every order at an array of arguments.

It owns the library's input rules too: one converter per kind of input
checks the raw value, then converts it, and raises ValueError naming the
field: `_check_int` for counts, `_finite` and `_positive` for real scalars,
`_positives` for sequences of positive reals, `_nonnegatives` for arrays.
"""

import functools
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


def _de_nodes(k, level):
    """Nodes x = exp(pi/2 sinh t) of the exp-sinh rule at t = k 2^-level, and
    their weights dx/dt times the step 2^-6."""
    t = k / 2.0 ** level
    x = np.exp(np.pi / 2 * np.sinh(t))
    return x, x * np.cosh(t) * (np.pi / 128.0)


# the exp-sinh rule (Takahasi and Mori, 1974): the trapezoid rule at step
# 2^-6 in t for |t| <= 4.5 (x from 2e-31 to 5e30), and the odd k of steps
# 2^-7, 2^-8 and 2^-9, the midpoints that halve its step in turn
_DE_X, _DE_W = _de_nodes(np.arange(-288, 289), 6)
_DE_MIDPOINTS = [_de_nodes(np.arange(1 - 288 * 2 ** j, 288 * 2 ** j, 2), 6 + j) for j in (1, 2, 3)]


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
    tail of `erlang_tails`.  Tolerance (tests/accuracy.py): 1e-14
    relative for x <= 700 (1e-15 at n = 1, where it is e^-x alone), 2e-12
    relative past 700, where rounding n ln x - x costs about x ulps, and
    1e-300 absolute where Q underflows.
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
    of the Poisson(x_i) pmf, for integer n >= 1 and a 1-d array of finite
    x >= 0 (ValueError names the first other value), in one pass of the
    finite series written into the returned array.  Past the underflow
    guard the terms x^k / k! are formed in log space, relative to the
    largest (top <= (n - 1) ln x), in blocks of at most n / 8 orders (or
    2^16 terms), so that a call whose output passes a few MiB peaks at no
    more than 1.5 times it.  Where `_tails_underflow(n, x)` holds, every
    tail is exactly 0.0, and the outage kernel forms none."""
    valid = (0.0 <= x) & (x < math.inf)  # NaN fails both
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(f"the Erlang tail Q(n, x) requires a finite x >= 0, got x[{i}] = {x[i]}")
    tails = np.empty((n, x.size))
    far = x > _LOG_SAFE_X
    if not far.all():
        near = np.minimum(x, _LOG_SAFE_X)
        tails[0] = term = np.ones_like(near)
        ratio = np.empty_like(near)
        for k in range(1, n):
            np.multiply(term, np.divide(near, k, out=ratio), out=term)
            np.add(tails[k - 1], term, out=tails[k])
        tails *= np.exp(-near)
    if far.any():
        log_x = np.log(x[far])
        orders = np.arange(n)
        log_factorials = np.array([math.lgamma(k + 1) for k in range(n)])
        # blocks of n / 8 orders (of 2^16 terms where that is more): each
        # work array holds at most an eighth of a large output
        step = max(-(-n // 8), (1 << 16) // log_x.size)
        blocks = [slice(k, k + step) for k in range(0, n, step)]

        def logs(block):
            return np.multiply.outer(orders[block], log_x) - log_factorials[block, None]

        top = functools.reduce(np.maximum, [logs(block).max(axis=0) for block in blocks])
        scale, total = np.exp(top - x[far]), 0.0
        # the running sum carried from block to block adds as one cumsum would
        for block in blocks:
            sums = np.exp(logs(block) - top)
            sums[0] += total
            sums = sums.cumsum(axis=0)
            total = sums[-1].copy()
            tails[block, far] = scale * sums
    return tails


def _tails_underflow(n, x):
    """True where every tail of `erlang_tails(n, x)` is exactly 0.0: where
    x > 746 and x - (n - 1) ln x > 746.  There the log-space branch scales
    its sums by e^{top - x} <= e^{(n - 1) ln x - x}, below e^-746, which
    underflows to 0.0 with a margin of 0.8 over the rounding of top - x.
    With x clipped to [1, 1e300] the second test alone decides (it fails
    at every x <= 746 and holds at x = inf), and neither log(0) nor
    inf - inf is formed; NaN gives False."""
    x = np.minimum(np.maximum(x, 1.0), 1e300)  # np.clip costs twice as much
    return x - (n - 1) * np.log(x) > 746.0


def _ordered_fsum(terms):
    """math.fsum of an array, fed as a list from the largest term down: the
    value is fsum's, and the order keeps its list of partial sums short."""
    return math.fsum(np.sort(terms)[::-1].tolist())


def _exp_sinh(f, scale, atol=0.0):
    """int_0^inf f(x) dx for an f >= 0, smooth on (0, inf), that takes an
    array of nodes scale * x and decays at both ends.

    The trapezoid rule at step 2^-6 in t (577 nodes, one call of f) is
    checked against the nested rule at step 2^-5 (every other node).  If
    their gap passes both 1e-13 of the integral and atol, the step-2^-6 value
    is returned; if not, f is called on the midpoints of the last step, and
    the rules at steps 2^-7 and 2^-6 are compared in turn, and so on down to
    step 2^-9 (4609 nodes).  The first step whose gap passes is returned;
    past step 2^-9, ArithmeticError is raised.  Where the integrand narrows,
    as the capacity's does like 1/sqrt(n - m + 1), the step-2^-5 rule misses
    it long before the finer ones do.

    Each rule is one `math.fsum` of the terms f(x) w, fed from the largest
    down.  fsum is correctly rounded, so its value does not depend on that
    order; and with terms >= 0 every partial sum is at most the total, so no
    intermediate overflow depends on it either.
    """
    terms = f(scale * _DE_X) * _DE_W
    fine, coarse = _ordered_fsum(terms), 2.0 * _ordered_fsum(terms[::2])
    for level in range(6, 10):  # fine is the rule at step 2^-level
        err = scale * abs(fine - coarse)
        if err <= max(1e-13 * abs(scale * fine), atol):
            return scale * fine
        if level < 9:
            x, w = _DE_MIDPOINTS[level - 6]
            terms = np.concatenate((terms, f(scale * x) * w))
            # the terms carry the step 2^-6; the new rule's is 2^-(level + 1)
            fine, coarse = _ordered_fsum(terms) / 2.0 ** (level - 5), fine
    raise ArithmeticError(f"exp-sinh error estimate {err:.2e} at step 2^-9 "
                          f"too large for {scale * fine:.6e}")
