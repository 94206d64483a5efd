"""Special functions the package evaluates itself, in double precision:
`sine_integral` for the tail of `kernels.fisher_limit`, and `kolmogorov_sf`
and `normal_cdf` for the p-values of the harness's KS tests.  They live here
rather than in scipy.special, whose import alone would cost every `sddelab`
command more time than numpy does, for three functions of a few lines each."""

import math

import numpy as np


def sine_integral(x: float) -> float:
    """Si(x) = integral over [0, x] of sin(t)/t dt, for x >= 0: the power
    series up to x = 4, and above it pi/2 + Im e^(-ix) E_1(ix), with E_1's
    continued fraction summed by the modified Lentz method (Press et al.,
    Numerical Recipes, 3rd ed., section 6.8)."""
    if x <= 4.0:
        term = total = x
        k = 0
        while abs(term) > 1e-17 * abs(total):
            k += 1
            term *= -x * x / ((2 * k) * (2 * k + 1))
            total += term / (2 * k + 1)
        return total
    b = complex(1.0, x)
    c, d = 1e300, 1.0 / b
    h = d
    k = 0
    while True:
        k += 1
        b += 2.0
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        h *= c * d
        if abs(c * d - 1.0) <= 1e-16:
            return 0.5 * math.pi + (h * complex(math.cos(x), -math.sin(x))).imag


def kolmogorov_sf(y: float) -> float:
    """P(K > y), K the limit in law of sqrt(n) times the KS statistic
    (Kolmogorov 1933): from y = 0.82 up the alternating series
    2 sum_k (-1)^(k-1) e^(-2 k^2 y^2), below it one minus the Jacobi theta
    form (sqrt(2 pi)/y) sum_k e^(-(2k-1)^2 pi^2/(8 y^2)) of P(K <= y)
    (Marsaglia, Tsang & Wang 2003, J. Stat. Softw. 8(18)).  The switch lies
    just below the median of K (0.8276), so one minus the theta form never
    cancels to below 1/2, where it would lose the last bits; seven and four
    terms reach rounding on either side.  Exactly 1 for y <= 0 and 0 at
    +inf."""
    if y <= 0.0:
        return 1.0
    if y >= 0.82:
        return 2.0 * math.fsum((-1.0) ** (k - 1) * math.exp(-2.0 * k * k * y * y) for k in range(1, 8))
    a = math.pi * math.pi / 8.0 / y / y  # inf, not an error, once y is tiny
    return 1.0 - math.sqrt(2.0 * math.pi) * math.fsum(math.exp(-(2 * k - 1) ** 2 * a) for k in range(1, 5)) / y


def normal_cdf(x) -> np.ndarray:
    """The standard normal CDF 1/2 erfc(-x/sqrt(2)), elementwise by
    `math.erfc`: erfc rather than 1 + erf, so that the lower tail keeps its
    relative accuracy.  The argument t = -x/sqrt(2) is rounded, which alone
    would cost up to about x^2 ulp in the lower tail (72 near x = -8), so
    the rounding error dt, found exactly by Dekker's product (1971) and the
    tail of sqrt(1/2), enters through erfc(t + dt) = erfc(t) -
    2/sqrt(pi) e^(-t^2) dt.  |x| is cut at 40, where the CDF is 0 or 1 in
    double precision."""
    x = np.clip(np.asarray(x, dtype=float), -40.0, 40.0)
    c = math.sqrt(0.5)
    split = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
    c_hi = split * c - (split * c - c)
    c_lo = c - c_hi
    x_hi = split * x - (split * x - x)
    x_lo = x - x_hi
    p = x * c
    # x sqrt(1/2) - p, with -4.833646656726457e-17 = sqrt(1/2) - c
    p_lo = ((x_hi * c_hi - p) + x_hi * c_lo + x_lo * c_hi) + x_lo * c_lo + x * -4.833646656726457e-17
    erfc = np.fromiter(map(math.erfc, (-p).ravel().tolist()), float, p.size).reshape(p.shape)
    return 0.5 * (erfc + 2.0 / math.sqrt(math.pi) * np.exp(-p * p) * p_lo)
