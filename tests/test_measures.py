import importlib.resources
import json
import re

import numpy as np
import pytest

from sddelab.measures import (
    MAX_MOMENT_ORDER,
    MIN_SAMPLED_GRID,
    DensityPiece,
    MeasureError,
    SignedMeasure,
    _exp_kernel_moments,
    _ik_gauss,
    _leggauss_cached,
    _poly_defint,
    _ik_upward,
    exp_moment,
    exp_moments,
    exp_moments_01_many,
    tail_mass,
    total_variation,
)
from sddelab.spectrum import classify

D0 = SignedMeasure.point_masses(1.0, (0.0, 1.0))
DM1 = SignedMeasure.point_masses(1.0, (-1.0, 1.0))
BAL = SignedMeasure.point_masses(1.0, (0.0, 1.0), (-1.0, -1.0))


def sin_measure(n=4097):
    grid = np.linspace(-2 * np.pi, 0.0, n)
    return SignedMeasure.sampled_density(2 * np.pi, np.sin(grid))


# ---------------------------------------------------------------------------
# total_variation


def test_total_variation_unit_atom():
    assert total_variation(D0) == 1.0


def test_total_variation_two_atoms():
    assert total_variation(BAL) == 2.0


def test_total_variation_sin_density():
    # oracle: exact piecewise antiderivative of |sin| over [-2pi, 0] gives 4
    assert total_variation(sin_measure()) == pytest.approx(4.0, abs=1e-9)


def test_total_variation_signed_polynomial():
    # p(u) = u + 1/2 on [-1, 0] changes sign at -1/2; int |p| = 1/4 exactly
    m = SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (0.5, 1.0))])
    assert total_variation(m) == pytest.approx(0.25, abs=1e-14)


# ---------------------------------------------------------------------------
# tail_mass


def test_tail_mass_balanced_half():
    # only the atom at 0 lies inside [-0.5, 0]
    assert tail_mass(BAL, 0.5) == 1.0


def test_tail_mass_balanced_full():
    # both atoms included, weights cancel
    assert tail_mass(BAL, 1.0) == 0.0


def test_tail_mass_atom_at_closed_boundary():
    assert tail_mass(D0, 0.0) == 1.0


def test_tail_mass_domain_error():
    with pytest.raises(MeasureError):
        tail_mass(D0, 1.5)
    with pytest.raises(MeasureError):
        tail_mass(D0, -0.2)


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda: SignedMeasure.from_dict({"atoms": [{"u": 0.0, "w": 1.0}]}), "measure descriptor needs field 'r'"),
        (lambda: SignedMeasure(-1.0, ((0.0, 1.0),)), "r must be positive, got -1.0"),
        (lambda: SignedMeasure(0.0, ((0.0, 1.0),)), "r must be positive, got 0.0"),
        (lambda: SignedMeasure(1.0, (), (DensityPiece(-0.5, -0.5, (1.0,)),)), "degenerate density piece [-0.5, -0.5]"),
        (lambda: SignedMeasure(1.0, (), (DensityPiece(-2.0, -1.5, (1.0,)),)), "density piece [-2.0, -1.5] outside [-r, 0]"),
        (lambda: SignedMeasure(1.0, (), (DensityPiece(-0.5, 0.25, (1.0,)),)), "density piece [-0.5, 0.25] outside [-r, 0]"),
    ],
    ids=["no_r", "r_negative", "r_zero", "degenerate_piece", "piece_left_of_r", "piece_right_of_0"],
)
def test_refused_measures_named(build, names):
    with pytest.raises(MeasureError, match=re.escape(names)):
        build()


def test_tail_mass_polynomial():
    # Lebesgue density on [-1,0]: a([-t,0]) = t
    m = SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (1.0,))])
    for t in (0.0, 0.25, 1.0):
        assert tail_mass(m, t) == pytest.approx(t, abs=1e-14)


# ---------------------------------------------------------------------------
# exp_moment


def test_exp_moment_dirac0():
    for lam in (0.0, 2 + 3j, -5.0, 1j):
        assert exp_moment(D0, lam, 0) == pytest.approx(1.0, abs=1e-15)


def test_exp_moment_delay_atom():
    got = exp_moment(DM1, 1j * np.pi / 2, 0)
    assert got == pytest.approx(-1j, abs=1e-14)


def test_exp_moment_sin_first_moment():
    # oracle: int_{-2pi}^0 u sin u du via antiderivative sin u - u cos u
    got = exp_moment(sin_measure(), 0.0, 1)
    assert got == pytest.approx(-2 * np.pi, abs=1e-9)


def _sin_closed_form(lam):
    """M_0 and M_1 of sin(u) du on [-2pi, 0]: M_0 = (e^(-2 pi lam) - 1)/(lam^2 + 1)
    and M_1 = dM_0/dlam."""
    e = np.exp(-2 * np.pi * lam)
    q = lam * lam + 1
    return (e - 1) / q, (-2 * np.pi * e * q - 2 * lam * (e - 1)) / q**2


def test_exp_moment_packaged_sin_density_closed_form():
    # exact oracle for the packaged descriptor, down to the search floor -10/r
    d = json.loads(importlib.resources.files("sddelab").joinpath("configs", "sin_density.json").read_text())
    m = SignedMeasure.from_dict(d)
    for re in (1.0, -0.5, -1.0, -1.5, -10.0 / m.r):
        for im in (0.3, 2.0, 5.0, 30.0):
            lam = complex(re, im)
            m0, m1 = _sin_closed_form(lam)
            assert exp_moment(m, lam, 0) == pytest.approx(m0, rel=1e-11)
            assert exp_moment(m, lam, 1) == pytest.approx(m1, rel=1e-11)


def test_exp_moment_polynomial_against_mpmath():
    # independent high-precision quadrature oracle for a quadratic density
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    m = SignedMeasure.polynomial_density(1.5, [(-1.5, -0.3, (0.7, -1.2, 0.4))])
    for lam in (0.3 - 2.1j, -4.0 + 0.5j, 25.0 + 40.0j, 3e-5 + 1e-5j):
        for j in (0, 1, 3):
            f = lambda u: (0.7 - 1.2 * u + 0.4 * u**2) * u**j * mp.e ** (
                mp.mpc(lam.real, lam.imag) * u
            )
            want = complex(mp.quad(f, [-1.5, -0.3]))
            got = exp_moment(m, lam, j)
            assert got == pytest.approx(want, rel=1e-11)


# ---------------------------------------------------------------------------
# invariants


def _horner(coeffs, u):
    # the hand-written loop the polynomial toolkit replaced, as the reference
    out = np.zeros_like(np.asarray(u, dtype=complex if np.iscomplexobj(coeffs) else float))
    for c in reversed(coeffs):
        out = out * u + c
    return out


def test_polynomial_toolkit_matches_horner_bitwise():
    # polyint/polyval keep the bits of the loops they replaced: 1-D
    # integrals, the (degree, panels) rows of DelayStencil, real evaluation
    # and the complex residue polynomials of kernels.residue_expansion_eval
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = rng.standard_normal(rng.integers(1, 8)) * 10.0 ** rng.integers(-3, 4)
        lo, hi = np.sort(rng.uniform(-3.0, 0.0, 2))
        anti = [0.0] + [ck / (k + 1) for k, ck in enumerate(c)]
        assert _poly_defint(tuple(c), lo, hi) == _horner(anti, hi) - _horner(anti, lo)
        rows = rng.standard_normal((c.size, 5))
        los, his = rng.uniform(-3.0, -1.5, 5), rng.uniform(-1.5, 0.0, 5)
        anti2 = [np.zeros(5)] + [row / (k + 1) for k, row in enumerate(rows)]
        assert _poly_defint(rows, los, his).tobytes() == (_horner(anti2, his) - _horner(anti2, los)).tobytes()
        u = rng.uniform(-3.0, 0.0, 9)
        assert np.polynomial.polynomial.polyval(u, c).tobytes() == _horner(c, u).tobytes()
        z = c + 1j * rng.standard_normal(c.size)
        assert np.polynomial.polynomial.polyval(u, z).tobytes() == _horner(z, u).tobytes()


def test_tail_mass_matches_zero_moment():
    for m in (D0, BAL, sin_measure(), SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (1.0, 0.5))])):
        assert tail_mass(m, m.r) == pytest.approx(exp_moment(m, 0.0, 0).real, abs=1e-12)


def test_exp_moment_bound():
    rng = np.random.default_rng(3)
    measures = [D0, BAL, DM1, sin_measure(513)]
    for m in measures:
        tv = total_variation(m)
        for _ in range(20):
            lam = complex(rng.uniform(-6, 6), rng.uniform(-20, 20))
            j = int(rng.integers(0, 5))
            bound = tv * m.r**j * np.exp(m.r * max(0.0, -lam.real))
            assert abs(exp_moment(m, lam, j)) <= bound * (1 + 1e-9) + 1e-12


def test_exp_moment_conjugate_symmetry():
    rng = np.random.default_rng(4)
    m = SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (1.0, 2.0))])
    for meas in (BAL, m, sin_measure(513)):
        for _ in range(10):
            lam = complex(rng.uniform(-4, 4), rng.uniform(-10, 10))
            j = int(rng.integers(0, 4))
            a_ = exp_moment(meas, lam, j)
            b_ = exp_moment(meas, np.conj(lam), j)
            assert b_ == pytest.approx(np.conj(a_), rel=1e-12, abs=1e-14)


def test_exp_moments_one_body_at_numbers_and_arrays():
    # one sum serves a number (scalar arithmetic, as exp_moment uses it) and
    # an array (as exp_moments_01_many uses it); the two routes agree to
    # rounding, atoms and density pieces alike
    pieces = SignedMeasure.polynomial_density(1.0, [(-1.0, -0.5, (0.3, 2.0)), (-0.5, 0.0, (1.0, -1.0, 0.5))])
    m = SignedMeasure(1.0, ((0.0, 0.7), (-0.4, -1.3)), pieces.density_pieces)
    lams = np.array([0.0, 1e-6j, 0.8 - 2.5j, -3.0 + 12.0j, 40.0j])
    orders = (0, 1, 3)
    rows = exp_moments(m, lams, orders)
    assert [row.shape for row in rows] == [lams.shape] * 3
    for k, lam in enumerate(lams):
        at = exp_moments(m, complex(lam), orders)
        assert [type(x) for x in at] == [np.complex128] * 3
        for j, x, row in zip(orders, at, rows):
            assert row[k] == pytest.approx(x, rel=1e-12, abs=1e-14)
            assert exp_moment(m, lam, j) == pytest.approx(x, rel=1e-12, abs=1e-14)
    np.testing.assert_array_equal(exp_moments_01_many(m, lams), exp_moments(m, lams, (0, 1)))
    for bad in ((-1,), (0, MAX_MOMENT_ORDER + 1)):
        with pytest.raises(MeasureError):
            exp_moments(m, 0.5, bad)


@pytest.mark.parametrize("kmax", [5, 24, 44])
@pytest.mark.parametrize("lo, hi", [(-1.0, 0.0), (-1.0, -0.5), (-2.0 * np.pi, 0.0)])
def test_kernel_moments_at_zero_exact(kmax, lo, hi):
    # I_k(0) = (hi^(k+1) - lo^(k+1))/(k+1), up to the highest order a density
    # piece asks for (MAX_MOMENT_ORDER plus a fit of degree 20)
    k = np.arange(kmax + 1)
    want = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    np.testing.assert_allclose(_exp_kernel_moments(0.0, kmax, lo, hi), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lo, hi", [(-1.0, 0.0), (-1.5, -0.3)])
def test_kernel_moments_near_zero_against_mpmath(lo, hi):
    # |lambda| max|u| < 1e-4, down to 1e-300, in four directions: an
    # independent high-precision quadrature oracle for the band near 0
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    kmax = 6
    for radius in (1e-300, 1e-12, 1e-6, 9e-5):
        for lam in radius * np.array([1.0, 1j, -1.0, np.exp(2.3j)]):
            z = mp.mpc(lam.real, lam.imag)
            want = [complex(mp.quad(lambda u: u**k * mp.e ** (z * u), [lo, hi])) for k in range(kmax + 1)]
            np.testing.assert_allclose(_exp_kernel_moments(lam, kmax, lo, hi), want, rtol=1e-12, atol=0.0)


def test_upward_and_quadrature_branches_agree_at_switch():
    kmax = 4
    for ang in (0.4, 2.0):
        lam = 2.0 * (kmax + 1) * np.exp(1j * ang)
        a_ = _ik_upward(lam, kmax, -1.0, -0.2)
        b_ = _ik_gauss(lam, kmax, -1.0, -0.2)
        np.testing.assert_allclose(a_, b_, rtol=1e-11)


def test_branch_selection_is_continuous():
    # walking lambda across the dispatch thresholds produces no jumps
    kmax = 3
    vals = [_exp_kernel_moments(complex(x), kmax, -1.0, 0.0)[kmax] for x in np.linspace(5e-5, 12.0, 60)]
    vals = np.array(vals)
    diffs = np.abs(np.diff(vals)) / np.maximum(np.abs(vals[1:]), 1e-30)
    assert np.all(diffs < 0.5)


def test_gauss_rules_built_by_a_density_classify():
    # one Gauss-Legendre order per moment call, rounded up to a multiple of
    # 16, so a cold classify of the packaged density builds a few rules (a
    # rule per distinct per-lambda order built 35)
    doc = importlib.resources.files("sddelab").joinpath("configs", "sin_density.json").read_text()
    a = SignedMeasure.from_dict(json.loads(doc))
    cache = _leggauss_cached.__defaults__[0]
    cache.clear()
    classify(1.0, a)
    assert 1 <= len(cache) <= 4, sorted(cache)
    assert all(n % 16 == 0 for n in cache), sorted(cache)


def test_gauss_one_rule_per_call_matches_per_lambda_calls():
    # lambda spread over the whole Gauss band of [-1, 0] at kmax = 10,
    # |lambda| max|u| from 1e-4 to 2 (kmax + 1), in every direction:
    # the call's one rule (for its largest |lambda|) agrees with each
    # lambda's own
    kmax, lo, hi = 10, -1.0, 0.0
    radii = np.geomspace(1e-4, 21.9, 40)
    lams = radii * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, radii.size, endpoint=False))
    together = _ik_gauss(lams, kmax, lo, hi)
    apart = np.column_stack([_ik_gauss(lam, kmax, lo, hi)[:, 0] for lam in lams])
    np.testing.assert_allclose(together, apart, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# descriptor validation


def test_json_descriptor_roundtrip():
    d = {
        "r": 1.0,
        "atoms": [{"u": 0.0, "w": 1.0}, {"u": -1.0, "w": -2.0}],
        "density": [{"lo": -1.0, "hi": -0.5, "coeffs": [1.0, 0.25]}],
    }
    m = SignedMeasure.from_dict(d)
    again = SignedMeasure.from_dict(json.loads(json.dumps(m.to_dict())))
    assert again == m


def test_atom_outside_support_rejected():
    with pytest.raises(MeasureError):
        SignedMeasure.point_masses(1.0, (-1.5, 1.0))
    with pytest.raises(MeasureError):
        SignedMeasure.point_masses(1.0, (0.5, 1.0))


def test_zero_weight_atom_rejected():
    with pytest.raises(MeasureError):
        SignedMeasure.point_masses(1.0, (0.0, 0.0))


@pytest.mark.parametrize(
    "d, message",
    [
        ({"r": 1.0, "atoms": [{"u": 0.0, "w": float("nan")}]}, "atom at u = 0.0 has a non-finite weight nan"),
        ({"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}, {"u": -0.5, "w": float("-inf")}]}, "atom at u = -0.5 has a non-finite weight -inf"),
        (
            {"r": 1.0, "density": [{"lo": -1.0, "hi": -0.5, "coeffs": [1.0]}, {"lo": -0.5, "hi": 0.0, "coeffs": [1.0, float("inf")]}]},
            "density piece [-0.5, 0.0] needs finite coefficients, got [1.0, inf]",
        ),
        ({"r": 1.0, "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [float("nan")]}]}, "density piece [-1.0, 0.0] needs finite coefficients, got [nan]"),
        ({"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}], "density": [{"lo": -1.0, "hi": 0.0, "coeffs": []}]}, "density piece [-1.0, 0.0] needs finite coefficients, got []"),
    ],
)
def test_non_finite_measure_values_rejected(d, message):
    # refused where the measure is built, naming the atom or the piece, not
    # later as a root search or a path that is not finite
    with pytest.raises(MeasureError, match=re.escape(message)):
        SignedMeasure.from_dict(d)


def test_overlapping_density_pieces_rejected():
    with pytest.raises(MeasureError):
        SignedMeasure.polynomial_density(1.0, [(-1.0, -0.4, (1.0,)), (-0.6, 0.0, (1.0,))])


def test_density_and_sampled_exclusive():
    d = {
        "r": 1.0,
        "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1.0]}],
        "sampled": {"n": 65, "expr_values": [1.0] * 65},
    }
    with pytest.raises(MeasureError):
        SignedMeasure.from_dict(d)


def test_identically_zero_rejected():
    with pytest.raises(MeasureError):
        SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (0.0,))])


def test_sampled_n_mismatch_rejected():
    with pytest.raises(MeasureError):
        SignedMeasure.from_dict({"r": 1.0, "sampled": {"n": 10, "expr_values": [0.1] * 65}})


def test_sampled_grid_too_small_rejected():
    with pytest.raises(MeasureError):
        SignedMeasure.from_dict({"r": 1.0, "sampled": {"expr_values": [0.1] * (MIN_SAMPLED_GRID - 1)}})


def test_sampled_density_bisects_at_kink():
    # |u + 1/2| on [-1, 0] has its kink at the middle sample: one bisection
    # leaves two linear pieces, and int |u + 1/2| du = 1/4 exactly
    u = np.linspace(-1.0, 0.0, 65)
    m = SignedMeasure.sampled_density(1.0, np.abs(u + 0.5))
    assert [(p.lo, p.hi) for p in m.density_pieces] == [(-1.0, -0.5), (-0.5, 0.0)]
    assert total_variation(m) == pytest.approx(0.25, abs=1e-14)
    assert tail_mass(m, 0.5) == pytest.approx(0.125, abs=1e-14)
