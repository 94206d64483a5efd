import numpy as np
import pytest

from sddelab.special import sine_integral


def test_sine_integral_against_mpmath():
    # the series below x = 4, the continued fraction above, and the switch
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate((np.geomspace(1e-8, 1e6, 600), np.linspace(3.9, 4.1, 41), [np.nextafter(4.0, 5.0)]))
    for x in xs:
        want = float(mpmath.si(mpmath.mpf(float(x))))
        assert abs(sine_integral(float(x)) - want) <= 1e-15 * want
    assert sine_integral(0.0) == 0.0
