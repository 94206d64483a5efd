"""Special functions the package evaluates itself, in double precision,
rather than importing them."""

import math


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
