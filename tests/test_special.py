import math
import warnings

import numpy as np
import pytest

from sddelab.special import kolmogorov_sf, normal_cdf, sine_integral


def test_sine_integral_against_mpmath():
    # the series below x = 4, the continued fraction above, and the switch
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate((np.geomspace(1e-8, 1e6, 600), np.linspace(3.9, 4.1, 41), [np.nextafter(4.0, 5.0)]))
    for x in xs:
        want = float(mpmath.si(mpmath.mpf(float(x))))
        assert abs(sine_integral(float(x)) - want) <= 1e-15 * want
    assert sine_integral(0.0) == 0.0


def _kolmogorov_sf_mp(mpmath, y):
    y = mpmath.mpf(y)
    if y < 0.5:
        theta = mpmath.nsum(lambda k: mpmath.exp(-((2 * k - 1) * mpmath.pi) ** 2 / (8 * y * y)), [1, mpmath.inf])
        return 1 - mpmath.sqrt(2 * mpmath.pi) / y * theta
    return 2 * mpmath.nsum(lambda k: (-1) ** (k - 1) * mpmath.exp(-2 * k * k * y * y), [1, mpmath.inf])


def test_kolmogorov_sf_against_mpmath():
    # both forms, the switch at 0.82 and the point 1 inside the series, each
    # point no further from the 40-digit value than scipy's kolmogorov is,
    # give or take 2 ulp
    mpmath = pytest.importorskip("mpmath")
    sp = pytest.importorskip("scipy.special")
    ys = np.concatenate((np.linspace(0.02, 7.0, 700), np.linspace(0.75, 1.05, 301), [np.nextafter(0.82, 0.0), 0.82]))
    with mpmath.workdps(40), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for y in ys.tolist():
            want = _kolmogorov_sf_mp(mpmath, y)
            ours, theirs = abs(kolmogorov_sf(y) - want), abs(float(sp.kolmogorov(y)) - want)
            assert ours <= theirs + 2.0 * math.ulp(float(want)), y
        assert kolmogorov_sf(0.0) == 1.0 and kolmogorov_sf(-1.0) == 1.0 and kolmogorov_sf(5e-324) == 1.0
        assert kolmogorov_sf(math.inf) == 0.0


def test_normal_cdf_against_mpmath():
    # the lower tail in relative terms, the upper tail next to 1, and the
    # elementwise shape of the result
    mpmath = pytest.importorskip("mpmath")
    sp = pytest.importorskip("scipy.special")
    xs = np.linspace(-8.0, 8.0, 1601)
    with mpmath.workdps(40), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ours = normal_cdf(xs)
        for x, got, theirs in zip(xs.tolist(), ours.tolist(), sp.ndtr(xs).tolist()):
            want = mpmath.ncdf(x)
            assert abs(got - want) <= abs(theirs - want) + 2.0 * math.ulp(float(want)), x
        assert normal_cdf(xs[:1600].reshape(2, 800)).shape == (2, 800)
        assert normal_cdf([-math.inf, 0.0, math.inf, 1e300, -1e300]).tolist() == [0.0, 0.5, 1.0, 1.0, 0.0]
        assert math.isnan(normal_cdf(math.nan))
