"""Integer-order gamma kernels.

Every closed form in this package reduces to the elementary finite series
of the upper incomplete gamma function at integer order, plus the
exponential integral E1 for order zero.  The functions here are scalar,
pure Python, and branch-free in their output so results are bit-stable
across platforms.
"""

import math

_EULER_GAMMA = 0.57721566490153286060651209008240243

# exp(-x) underflows to subnormal/zero past ~745; switch to log-space there
_LOG_SAFE_X = 700.0


def _check_int(n, name):
    if isinstance(n, bool) or n != int(n):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    return int(n)


def gamma(n):
    """Gamma(n) = (n-1)! for integer n >= 1.

    Raises OverflowError once (n-1)! exceeds the double range (n > 171).
    """
    n = _check_int(n, "n")
    if n < 1:
        raise ValueError(f"gamma requires n >= 1, got {n}")
    return float(math.factorial(n - 1))


def exp1(x):
    """Exponential integral E1(x) = int_x^inf e^-t / t dt, x > 0.

    Power series below 1, modified-Lentz continued fraction above;
    relative error <= 1e-12 on both branches.
    """
    if x <= 0.0:
        raise ValueError(f"exp1 requires x > 0, got {x}")
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
    overflow.  Falls back to log-space accumulation for large x.
    """
    return erlang_tails(n, x)[-1]


def erlang_tails(n, x):
    """[Q(1, x), ..., Q(n, x)], the running sums of the Poisson(x) pmf, for
    integer n >= 1 and x >= 0, in one pass of the finite series.  Past the
    underflow guard the sums are kept in log space:
    log Q(j, x) = -x + logsumexp_{k<j} (k ln x - ln k!).
    """
    n = _check_int(n, "n")
    if n < 1 or not x >= 0.0:
        raise ValueError(f"the Erlang tail Q(n, x) requires n >= 1 and x >= 0, "
                         f"got n={n}, x={x}")
    if x <= _LOG_SAFE_X:
        scale = math.exp(-x)
        term = total = 1.0
        tails = [scale]
        for k in range(1, n):
            term *= x / k
            total += term
            tails.append(scale * total)
        return tails
    lx = math.log(x)
    lmax, s, tails = -math.inf, 0.0, []
    for k in range(n):
        lt = k * lx - math.lgamma(k + 1)
        if lt > lmax:
            s, lmax = s * math.exp(lmax - lt) + 1.0, lt
        else:
            s += math.exp(lt - lmax)
        lq = -x + lmax + math.log(s)
        tails.append(math.exp(lq) if lq > -745.0 else 0.0)
    return tails


def upper_incomplete_gamma(n, x):
    """Gamma(n, x) for integer n >= 0 and real x >= 0.

    n >= 1 uses the elementary finite series (n-1)! e^-x sum x^k/k!;
    n = 0 is the exponential integral E1(x), undefined at x = 0.
    """
    n = _check_int(n, "n")
    if n < 0:
        raise ValueError(f"upper_incomplete_gamma requires n >= 0, got {n}")
    if x < 0.0:
        raise ValueError(f"upper_incomplete_gamma requires x >= 0, got {x}")
    if n == 0:
        if x == 0.0:
            raise ValueError("upper_incomplete_gamma(0, 0) diverges")
        return exp1(x)
    return gamma(n) * regularized_upper_gamma(n, x)
