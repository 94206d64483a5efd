import importlib
import importlib.resources
import json
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sddelab.kernels import KernelError, fisher_limit
from sddelab.measures import SignedMeasure, exp_moment
from sddelab.spectrum import (
    MERGE_TOL,
    NEG_INF,
    CharRoot,
    SpectrumError,
    _insert_after,
    _newton_polish,
    _next,
    _winding_count,
    build_root_data,
    char_derivative,
    char_value,
    classify,
    count_zeros,
    laurent_coeffs,
    real_gcd,
    roots_in_strip,
)

D0 = SignedMeasure.point_masses(1.0, (0.0, 1.0))
DM1 = SignedMeasure.point_masses(1.0, (-1.0, 1.0))
BAL = SignedMeasure.point_masses(1.0, (0.0, 1.0), (-1.0, -1.0))

# rightmost root of lambda = e^(-lambda), frozen from a Newton iteration on
# f(x) = x - e^(-x) (independent of the strip search)
OMEGA = 0.5671432904097838


def packaged_measure(name):
    d = json.loads(importlib.resources.files("sddelab").joinpath("configs", name).read_text())
    return SignedMeasure.from_dict(d)


def sin_measure(n=4097):
    grid = np.linspace(-2 * np.pi, 0.0, n)
    return SignedMeasure.sampled_density(2 * np.pi, np.sin(grid))


def test_omega_constant_oracle():
    x = 0.5
    for _ in range(50):
        x = x - (x - math.exp(-x)) / (1 + math.exp(-x))
    assert x == pytest.approx(OMEGA, abs=1e-15)


# ---------------------------------------------------------------------------
# char_value / char_derivative


def test_char_value_theta_zero_is_identity():
    assert char_value(0.0, D0, 2 + 3j) == 2 + 3j


def test_char_value_omega_root():
    assert abs(char_value(1.0, DM1, OMEGA)) < 1e-9


def test_char_value_hayes_root():
    assert abs(char_value(-np.pi / 2, DM1, 1j * np.pi / 2)) < 1e-12


def test_char_derivative_theta_zero():
    assert char_derivative(0.0, D0, 1.7 - 0.3j, 1) == 1.0


def test_char_derivative_order_zero_is_h():
    for theta, a, lam in ((0.0, D0, 1.7 - 0.3j), (1.0, DM1, OMEGA), (-np.pi / 2, BAL, 0.2 + 3.0j)):
        assert char_derivative(theta, a, lam, 0) == char_value(theta, a, lam) == lam - theta * exp_moment(a, lam, 0)
    for k in (-1, 25):
        with pytest.raises(SpectrumError):
            char_derivative(1.0, D0, 0.5, k)


def test_char_derivative_hayes():
    got = char_derivative(-np.pi / 2, DM1, 1j * np.pi / 2, 1)
    assert got == pytest.approx(1 + 1j * np.pi / 2, abs=1e-13)


def test_char_second_derivative_dirac0():
    assert char_derivative(1.0, D0, 0.3 + 0.1j, 2) == 0.0


# ---------------------------------------------------------------------------
# roots_in_strip


def test_roots_theta_zero():
    roots = roots_in_strip(0.0, D0, -1.0)
    assert [(z.lam, z.multiplicity) for z in roots] == [(0.0 + 0.0j, 1)]
    assert roots_in_strip(0.0, D0, 0.5) == []


def test_roots_omega():
    roots = roots_in_strip(1.0, DM1, 0.0)
    assert len(roots) == 1
    assert roots[0].multiplicity == 1
    assert roots[0].lam == pytest.approx(OMEGA, abs=1e-10)


def test_roots_hayes_boundary():
    roots = roots_in_strip(-np.pi / 2, DM1, -0.1)
    lams = sorted((z.lam.imag for z in roots))
    assert len(roots) == 2
    assert lams == pytest.approx([-np.pi / 2, np.pi / 2], abs=1e-10)
    assert all(abs(z.lam.real) < 1e-10 for z in roots)


LAMBERT_CASES = [(1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), (0.7, 0.5, -1.2), (-1.3, 0.4, 0.9)]


def two_atoms(r, w0, w1):
    return SignedMeasure.point_masses(r, *[(u, w) for u, w in ((0.0, w0), (-r, w1)) if w])


def test_roots_against_lambert_branches():
    # oracle: for a = w0 d_0 + w1 d_{-r} the roots of h are
    # lambda_k = theta w0 + W_k(theta w1 r e^(-theta w0 r)) / r (Corless et al.
    # 1996; Asl & Ulsoy 2003), over every branch whose root lies in the strip
    from scipy.special import lambertw

    for theta_r, w0, w1 in LAMBERT_CASES:
        n_reported = set()
        for r in (1.0, 2.0, 4.0, 8.0):
            theta, a, c = theta_r / r, two_atoms(r, w0, w1), -3.0 / r
            z = theta * w1 * r * math.exp(-theta * w0 * r)
            want = [theta * w0 + complex(lambertw(z, k)) / r for k in range(-60, 61)]
            want = sorted((w for w in want if w.real >= c), key=lambda z: (z.real, z.imag))
            got = sorted((rt.lam for rt in roots_in_strip(theta, a, c)), key=lambda z: (z.real, z.imag))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9)
            n_reported.add(len(classify(theta, a).roots))
        # the descent is scale-free: every r reports the same roots
        assert len(n_reported) == 1
    # the branch point: a double root at -1/r for theta = -1/(e r)
    for r in (1.0, 2.0, 4.0, 8.0):
        roots = roots_in_strip(-1.0 / (math.e * r), two_atoms(r, 0.0, 1.0), -3.0 / r)
        assert [rt.multiplicity for rt in roots] == [2]
        assert roots[0].lam * r == pytest.approx(-1.0, abs=1e-7)


@pytest.mark.parametrize("r, theta, n_right", [(200.0, 1.0, 65), (200.0, -1.0, 64), (1000.0, 1.0, 319), (1000.0, -1.0, 318)])
def test_long_delay_against_lambert_w(r, theta, n_right):
    # oracle: on a = d_{-r} the roots are r lambda = W_k(theta r) (Corless et
    # al. 1996).  Every root with Re >= 0 is listed, and the report is that
    # of d_{-1} at theta r with every root scaled by 1/r: the box rule of the
    # search holds no absolute length
    from scipy.special import lambertw

    k = np.arange(-int(r), int(r) + 1)
    want = lambertw(theta * r, k)
    want = want[want.real >= 0.0]
    assert want.size == n_right
    rep = classify(theta, SignedMeasure.point_masses(r, (-r, 1.0)))
    assert r * rep.v0 == pytest.approx(want.real.max(), rel=1e-12)
    dist = np.abs(np.array([r * rt.lam for rt in rep.roots])[:, None] - want[None, :])
    assert dist.shape == (n_right, n_right)
    assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-13 * r
    unit = classify(theta * r, DM1)
    assert (rep.regime, rep.m_star) == (unit.regime, unit.m_star)
    assert r * rep.v_star == pytest.approx(unit.v_star, rel=1e-12)
    assert [r * x for x in rep.H] == pytest.approx(unit.H, rel=1e-12)


@pytest.mark.parametrize("w0", [0.0, 0.5, -0.3, -0.8, 0.9])
def test_classify_on_hayes_boundary(w0):
    # oracle: a = w0 d_0 + d_{-1} has the root pair +-i omega exactly on the
    # boundary cos omega = -w0, theta_b = -omega/sin omega (Hayes 1950), and
    # the pair moves into the right half-plane as theta falls through theta_b
    a = two_atoms(1.0, w0, 1.0)
    omega = math.acos(-w0)
    theta_b = -omega / math.sin(omega)
    at = classify(theta_b, a)
    assert at.regime == "LAQ"
    assert at.H == pytest.approx([omega], abs=1e-9)
    assert classify(theta_b * (1.0 - 1e-6), a).regime == "LAN"
    assert classify(theta_b * (1.0 + 1e-6), a).regime == "PLAMN"


def test_zero_count_matches_returned_multiplicities():
    theta = -np.pi / 2
    roots = roots_in_strip(theta, DM1, -3.0)
    n, rect = count_zeros(theta, DM1, -3.0, 0.5, -40.0, 40.0)
    inside = [
        z
        for z in roots
        if rect[0] <= z.lam.real <= rect[1] and rect[2] <= z.lam.imag <= rect[3]
    ]
    assert n == sum(z.multiplicity for z in inside)


def test_root_sum_on_lambert_w_boxes():
    # the contour integral of z h'/h dz / (2 pi i) is the sum of the roots
    # inside: W(1) alone for lambda = e^(-lambda), the pair W_0(-2) and its
    # conjugate for lambda = -2 e^(-lambda)
    from scipy.special import lambertw

    n, s = _winding_count(1.0, DM1, (0.0, 1.0, -0.5, 0.5))
    assert n == 1 and abs(s - complex(lambertw(1.0))) <= 1e-6
    n, s = _winding_count(-2.0, DM1, (-1.0, 1.0, -2.5, 2.5))
    assert n == 2 and abs(s - 2.0 * lambertw(-2.0).real) <= 1e-6


def test_root_search_work_on_double_and_simple_roots(monkeypatch):
    # balanced_atoms at theta = 1 has a double root at 0: the first box that
    # holds it has the root sum 2 x 0 to rounding, so Newton on h' starts
    # there instead of after a bisection down to a fixed size.  dirac0's
    # root theta is simple, and a count of 1 already certifies it: only a
    # box of several roots is recounted around its polished root
    spectrum = importlib.import_module("sddelab.spectrum")
    points, recounts = [], []
    moments, winding = spectrum.exp_moments_01_many, spectrum._winding_count

    def counted_moments(a, pts):
        points.append(len(pts))
        return moments(a, pts)

    def counted_winding(theta, a, rect):
        recounts.append(sys._getframe(1).f_code.co_name == "cluster_count")
        return winding(theta, a, rect)

    monkeypatch.setattr(spectrum, "exp_moments_01_many", counted_moments)
    monkeypatch.setattr(spectrum, "_winding_count", counted_winding)
    rep = classify(1.0, packaged_measure("balanced_atoms.json"))
    assert [rt.multiplicity for rt in rep.roots] == [2] and abs(rep.roots[0].lam) <= 1e-15
    assert any(recounts)
    assert sum(points) <= 400
    points.clear()
    recounts.clear()
    rep = classify(0.5, packaged_measure("dirac0.json"))
    assert [(rt.lam, rt.multiplicity) for rt in rep.roots] == [(0.5, 1)]
    assert recounts and not any(recounts)


def test_newton_stops_at_rounding_floor(monkeypatch):
    # |h| does not fall below about 1e-14 at sin_density's zero root, where
    # steps of 1e-15 only dither; the start is the box centre the search
    # once polished this root from, in 7 steps and 73 more at the floor
    spectrum = importlib.import_module("sddelab.spectrum")
    a = packaged_measure("sin_density.json")
    orders = []

    def counted(theta, a, lam, k):
        orders.append(k)
        return char_derivative(theta, a, lam, k)

    monkeypatch.setattr(spectrum, "char_derivative", counted)
    z = _newton_polish(1.0, a, 0.15637499999999993 + 0.14005624999999994j, 1, 1.5)
    assert z is not None and abs(z) <= 1e-13
    assert orders.count(0) <= 10  # one h per step


def sin_closed_form_count(theta, c):
    # zeros with Re >= c of g(lam) = lam (1 + lam^2) - theta (e^(-2 pi lam) - 1),
    # which is (1 + lam^2) h(lam) for the packaged sin density, less its
    # zeros +-i that h does not have; by the argument principle on a finely
    # sampled rectangle that holds them all, since there
    # |lam| (|lam|^2 - 1) <= |theta| (e^(-2 pi c) + 1)
    R = (abs(theta) * (math.exp(-2.0 * math.pi * c) + 1.0)) ** (1.0 / 3.0) + 2.0
    corners = [complex(c, -R), complex(R, -R), complex(R, R), complex(c, R)]
    z = np.concatenate(
        [np.linspace(p, q, math.ceil(abs(q - p) / 1e-3), endpoint=False) for p, q in zip(corners, corners[1:] + corners[:1])]
    )
    g = z * (1.0 + z * z) - theta * np.expm1(-2.0 * np.pi * z)
    turns = float(np.sum(np.angle(np.roll(g, -1) / g))) / (2.0 * np.pi)
    assert abs(turns - round(turns)) <= 1e-6
    return round(turns) - 2


@pytest.mark.parametrize("theta", [1.0, -1.0, 0.3])
def test_sin_density_floor_search(theta):
    # the floor cut of classify: a strip height from |lambda| e^(10) would
    # need millions of contour points; the density's moments fall as
    # 1/|lambda|, so the roots lie within about the square root of that
    a = packaged_measure("sin_density.json")
    c = -10.0 / a.r
    roots = roots_in_strip(theta, a, c)
    assert sum(rt.multiplicity for rt in roots) == sin_closed_form_count(theta, c)
    for rt in roots:
        lam = rt.lam
        h = lam - theta * np.expm1(-2.0 * np.pi * lam) / (1.0 + lam * lam)
        assert abs(h) <= 1e-9 * (1.0 + abs(lam))


PACKAGED = ("balanced_atoms.json", "dirac0.json", "dirac_delay.json", "hayes_boundary.json", "sin_density.json")


@pytest.mark.parametrize(
    "a, theta, c",
    [
        (packaged_measure(name), theta, -2.0 / packaged_measure(name).r)
        for name in PACKAGED
        for theta in (-2.0, -np.pi / 2, -1.0, -0.5, 0.15, 0.5, 1.0)
    ]
    # just past the double root -1 of theta = -1/e: a pair at Im +-0.014
    # (eps = 1e-4) and +-0.0045 (1e-5), close enough to the axis for the
    # upper half scan to find both roots
    + [(SignedMeasure.point_masses(1.0, (-1.0, -math.exp(-1.0) * (1.0 + eps))), 1.0, -1.5) for eps in (1e-4, 1e-5)],
)
def test_roots_real_or_exact_conjugate_pairs(a, theta, c):
    # a real root is exactly real, and every other root is listed with the
    # exact conjugate of it and the same multiplicity
    roots = {(rt.lam, rt.multiplicity) for rt in roots_in_strip(theta, a, c)}
    assert roots
    for lam, m in roots:
        assert lam.imag == 0.0 or abs(lam.imag) > MERGE_TOL
        assert (lam.conjugate(), m) in roots


def test_double_root_multiplicity():
    # h(lam) = lam - theta e^(-lam) has a double root at -1 when theta = -1/e
    theta = -1.0 / math.e
    roots = roots_in_strip(theta, DM1, -1.5)
    assert len(roots) == 1
    assert roots[0].multiplicity == 2
    assert roots[0].lam == pytest.approx(-1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# laurent_coeffs / build_root_data


def test_laurent_theta_zero():
    A = laurent_coeffs(0.0, D0, 0.0, 1, K=0)
    assert A[0] == pytest.approx(1.0, abs=1e-14)  # A_{-1}


def test_laurent_shifted_identity():
    # h = lam - 1 at the root 1: 1/(z-1) is its own Laurent series
    A = laurent_coeffs(1.0, D0, 1.0, 1, K=2)
    assert A[0] == pytest.approx(1.0, abs=1e-14)
    assert abs(A[1]) < 1e-14 and abs(A[2]) < 1e-14


def test_laurent_hayes_simple_root():
    A = laurent_coeffs(-np.pi / 2, DM1, 1j * np.pi / 2, 1, K=0)
    assert A[0] == pytest.approx(1.0 / (1 + 1j * np.pi / 2), abs=1e-12)


def test_laurent_simple_root_reciprocal_derivative():
    for theta, a, lam in [(1.0, DM1, OMEGA), (-0.5, D0, -0.5)]:
        A = laurent_coeffs(theta, a, lam, 1, K=0)
        hp = char_derivative(theta, a, lam, 1)
        assert A[0] == pytest.approx(1.0 / hp, rel=1e-10)


def test_laurent_rejects_non_root():
    with pytest.raises(SpectrumError):
        laurent_coeffs(1.0, DM1, 0.3 + 0.1j, 1)


def test_laurent_multiplicity_inconsistent():
    # h'(-1) vanishes at the double root, so claiming m = 1 there must fail
    theta = -1.0 / math.e
    with pytest.raises(SpectrumError):
        laurent_coeffs(theta, DM1, -1.0, 1)


def test_laurent_double_root():
    # 1/h near the double root -1 (theta = -1/e): leading coefficient is
    # A_{-2} = 1/(h''(-1)/2) = 2 e^... with h'' = theta M_2 sign handling;
    # cross-check against the direct Taylor quotient
    theta = -1.0 / math.e
    h2 = char_derivative(theta, DM1, -1.0, 2) / 2.0
    A = laurent_coeffs(theta, DM1, -1.0, 2, K=0)
    assert A[0] == pytest.approx(1.0 / h2, rel=1e-9)  # A_{-2}
    h3 = char_derivative(theta, DM1, -1.0, 3) / 6.0
    assert A[1] == pytest.approx(-h3 / h2**2, rel=1e-9)  # A_{-1}


def test_build_root_data_balanced_zero_root():
    root = build_root_data(0.0, BAL, CharRoot(0.0 + 0.0j, 1))
    assert root.m_tilde == NEG_INF
    assert root.P_poly == (0.0 + 0.0j,)


def test_build_root_data_dirac0_zero_root():
    root = build_root_data(0.0, D0, CharRoot(0.0 + 0.0j, 1))
    assert root.m_tilde == 0
    assert root.P_poly[0] == pytest.approx(1.0, abs=1e-14)


def test_build_root_data_sin_remark_cancellation():
    # P at the zero root vanishes because the density integrates to zero
    root = build_root_data(0.15, sin_measure(), CharRoot(0.0 + 0.0j, 1))
    assert root.m_tilde == NEG_INF


def test_root_data_conjugate_symmetry():
    bare = roots_in_strip(-np.pi / 2, DM1, -0.1)
    data = {round(z.lam.imag, 9): build_root_data(-np.pi / 2, DM1, z) for z in bare}
    up = data[round(np.pi / 2, 9)]
    dn = data[round(-np.pi / 2, 9)]
    assert dn.P_poly[0] == pytest.approx(np.conj(up.P_poly[0]), rel=1e-12)
    assert dn.p_poly[0] == pytest.approx(np.conj(up.p_poly[0]), rel=1e-12)


def test_hayes_contributing_coefficient():
    # c at +i pi/2 equals -i/(1 + i pi/2) (Laurent residue times e^{-lam})
    bare = roots_in_strip(-np.pi / 2, DM1, -0.1)
    up = next(z for z in bare if z.lam.imag > 0)
    data = build_root_data(-np.pi / 2, DM1, up)
    assert data.P_poly[0] == pytest.approx(-1j / (1 + 1j * np.pi / 2), abs=1e-12)


def _last_nonzero(P) -> float:
    """The index of P's last nonzero coefficient, -inf for the zero polynomial."""
    return max((float(ell) for ell, c in enumerate(P) if c != 0.0), default=NEG_INF)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    r=st.sampled_from([0.5, 1.0, 2.0]),
    atoms=st.lists(
        st.tuples(
            st.sampled_from([0.0, -0.25, -0.5, -1.0 / 3.0, -1.0]),
            st.floats(-2.0, 2.0).filter(lambda w: abs(w) > 1e-3),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda atom: atom[0],
    ),
    balance=st.booleans(),
    theta=st.floats(-2.5, 2.5).filter(lambda x: abs(x) > 1e-3),
)
def test_kernel_polynomial_from_multiplicity(r, atoms, balance, theta):
    # the degree is m - 1 at a root lam != 0 and m - 2 at the zero root that
    # a vanishing total mass puts there, and P equals the moment sum
    # sum_j A_{-j-1-l} M_j(lam) / (j! l!) that defines the kernel polynomial
    if balance:  # an atom at -3/4 takes the total mass to exactly zero
        atoms = [*atoms, (-0.75, -sum(w for _, w in atoms))]
    assume(balance or abs(sum(w for _, w in atoms)) > 1e-3)
    a = SignedMeasure.point_masses(r, *[(u * r, w) for u, w in atoms])
    for rt in roots_in_strip(theta, a, -2.0 / r):
        data = build_root_data(theta, a, rt)
        m = rt.multiplicity
        at_zero = balance and abs(rt.lam) <= 1e-8
        want = m - 2 if at_zero else m - 1
        assert data.m_tilde == (want if want >= 0 else NEG_INF) == _last_nonzero(data.P_poly)
        lam = 0.0 if at_zero else rt.lam
        M = [0.0 if j == 0 and at_zero else exp_moment(a, lam, j) for j in range(m)]
        A = data.laurent  # A_{-m} .. A_0
        ref = [
            sum(A[m - 1 - j - ell] * M[j] / math.factorial(j) for j in range(m - ell)) / math.factorial(ell)
            for ell in range(m)
        ]
        scale = max(abs(c) for c in ref)
        assert all(abs(p - q) <= 1e-10 * scale for p, q in zip(data.P_poly, ref))


@pytest.mark.parametrize(
    "atoms",
    [
        ((0, 1), (-1, -1)),  # balanced_atoms: P_0 = 2 at theta = 1
        ((0, 3), (Fraction(-1, 2), -2), (-1, -1)),
        ((0, 1), (Fraction(-1, 4), -2), (-1, 1)),
    ],
)
def test_double_zero_root_kernel_polynomial_exact(atoms):
    # zero total mass and theta = 1/M_1: h(z) = -theta M_2 z^2/2 + ..., so
    # lam = 0 is a double root with A_{-2} = -2/(theta M_2) and the kernel
    # polynomial is the constant P_0 = A_{-2}/theta = -2 M_1^2/M_2
    M1, M2 = (sum(Fraction(w) * Fraction(u) ** j for u, w in atoms) for j in (1, 2))
    theta = 1 / M1
    a = SignedMeasure.point_masses(1.0, *[(float(u), float(w)) for u, w in atoms])
    zero = next(rt for rt in roots_in_strip(float(theta), a, -1.0) if abs(rt.lam) <= 1e-8)
    assert zero.multiplicity == 2
    data = build_root_data(float(theta), a, zero)
    assert data.m_tilde == 0 and data.P_poly[1] == 0.0
    assert data.P_poly[0] == pytest.approx(float(-2 * M1**2 / M2), rel=1e-12)
    if atoms == ((0, 1), (-1, -1)):
        rep = classify(1.0, packaged_measure("balanced_atoms.json"))
        assert [rt.P_poly[0] for rt in rep.contributing_roots] == pytest.approx([2.0], rel=1e-12)


CATALOG = [
    ("dirac0.json", -0.5),
    ("dirac0.json", 0.5),
    ("dirac_delay.json", -1.0),
    ("dirac_delay.json", 1.0),
    ("hayes_boundary.json", -np.pi / 2),
    ("balanced_atoms.json", 0.0),
    ("balanced_atoms.json", 1.0),
    ("sin_density.json", 1.0),
]


# the generated LAN measure of the benchmark's mc_density workload
DENSITY_MEASURE = {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}], "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1.0, 1.0]}]}


@pytest.mark.parametrize(
    "a, theta",
    [(packaged_measure(name), theta) for name, theta in CATALOG]
    + [(packaged_measure(name), 0.0) for name in ("dirac0.json", "balanced_atoms.json", "sin_density.json")]
    + [(SignedMeasure.from_dict(DENSITY_MEASURE), theta) for theta in (-0.5, 0.0, 0.5, 2.0)],
)
def test_kernel_degree_is_last_nonzero_coefficient(a, theta):
    # m_tilde comes from the multiplicity rule; it must be the degree of
    # the kernel polynomial that build_root_data fills in
    roots = roots_in_strip(theta, a, -2.0 / a.r)
    assert roots
    for rt in roots:
        data = build_root_data(theta, a, rt)
        assert data.m_tilde == _last_nonzero(data.P_poly)


def test_classify_builds_root_data_only_for_contributing_roots(monkeypatch):
    spectrum = importlib.import_module("sddelab.spectrum")
    calls = {"build": 0, "strip": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(spectrum, "build_root_data", counted("build", spectrum.build_root_data))
    monkeypatch.setattr(spectrum, "roots_in_strip", counted("strip", spectrum.roots_in_strip))
    for name, theta in CATALOG:
        calls.update(build=0, strip=0)
        rep = classify(theta, packaged_measure(name))
        assert calls["build"] == len(rep.contributing_roots), (name, theta)
        assert all(rt.laurent for rt in rep.contributing_roots)
    calls.update(build=0, strip=0)
    rep = classify(0.0, packaged_measure("balanced_atoms.json"))
    assert rep.regime == "LAN" and calls == {"build": 0, "strip": 1}


# ---------------------------------------------------------------------------
# classify


def test_classify_lan_ou():
    rep = classify(-0.5, D0)
    assert rep.regime == "LAN"
    assert rep.v_star == pytest.approx(-0.5, abs=1e-10)
    assert rep.scaling.describe() == "T^-1/2"
    assert rep.scaling.value(4.0) == pytest.approx(0.5)


def test_classify_laq_theta0():
    rep = classify(0.0, D0)
    assert rep.regime == "LAQ"
    assert rep.v_star == 0.0 and rep.m_star == 0
    assert rep.scaling.value(10.0) == pytest.approx(0.1)


def test_classify_lan_theta0_balanced():
    rep = classify(0.0, BAL)
    assert rep.regime == "LAN"
    assert rep.v_star == NEG_INF and rep.m_star == NEG_INF


def test_classify_hayes_laq():
    rep = classify(-np.pi / 2, DM1)
    assert rep.regime == "LAQ"
    assert abs(rep.v_star) <= 1e-8
    assert rep.m_star == 0
    assert rep.H == pytest.approx([np.pi / 2], abs=1e-9)
    assert len(rep.contributing_roots) == 2


def test_classify_lamn():
    rep = classify(0.5, D0)
    assert rep.regime == "LAMN"
    assert rep.v_star == pytest.approx(0.5, abs=1e-12)
    assert rep.H == []
    assert rep.scaling.value(2.0) == pytest.approx(math.exp(-1.0))


def test_classify_plamn():
    rep = classify(-2.0, DM1)
    assert rep.regime == "PLAMN"
    from scipy.special import lambertw

    w = complex(lambertw(-2.0, 0))
    assert rep.v_star == pytest.approx(w.real, abs=1e-9)
    assert rep.H == pytest.approx([w.imag], abs=1e-9)
    assert rep.D == pytest.approx(w.imag, abs=1e-9)
    assert rep.period == pytest.approx(2 * np.pi / w.imag, rel=1e-9)


def test_classify_sin_remark():
    rep = classify(0.15, sin_measure())
    assert rep.regime == "LAN"
    assert abs(rep.v0) <= 1e-8  # rightmost root at 0
    assert rep.v_star < -1e-3  # but the kernel polynomial there vanishes
    zero_root = min(rep.roots, key=lambda z: abs(z.lam))
    assert zero_root.m_tilde == NEG_INF


def sin_h_and_dh(theta, z):
    # h and h' for the packaged sin density in closed form:
    # M_0(lam) = (e^(-2 pi lam) - 1)/(lam^2 + 1)
    e = np.exp(-2 * np.pi * z)
    q = z * z + 1
    m0 = (e - 1) / q
    m1 = (-2 * np.pi * e * q - 2 * z * (e - 1)) / q**2
    return z - theta * m0, 1 - theta * m1


def newton_fixed_point(theta, z):
    for _ in range(50):
        h, dh = sin_h_and_dh(theta, z)
        z -= h / dh
    return z


def test_classify_packaged_sin_density_roots_closed_form():
    # exact oracle: h(lam) = lam - (e^(-2 pi lam) - 1)/(lam^2 + 1) for theta = 1;
    # every root found is a fixed point of Newton on the closed form, and the
    # report lists some of them
    a = packaged_measure("sin_density.json")
    rep = classify(1.0, a)
    assert rep.regime == "PLAMN"
    strip = roots_in_strip(1.0, a, -1.0)
    assert len(strip) >= 5
    for rt in strip:
        z = newton_fixed_point(1.0, rt.lam)
        assert abs(rt.lam - z) <= 1e-12 * (1 + abs(z))
    for rt in rep.roots:
        assert min(abs(rt.lam - s.lam) for s in strip) <= 1e-12 * (1 + abs(rt.lam))
    assert rep.v0 == pytest.approx(max(rt.lam.real for rt in rep.roots))


def test_classify_sin_density_newton_stays_in_box():
    # Newton iterates that wandered far left overflowed the moments there
    a = packaged_measure("sin_density.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify(-0.3, a)
    assert rep.regime == "LAMN"
    z = newton_fixed_point(-0.3, complex(rep.v_star))
    assert abs(rep.v_star - z) <= 1e-12 * (1 + abs(z))


def test_classify_inputs_the_unit_descent_rejected():
    # a descent in absolute unit steps ran its contours into roots here
    for theta, atoms in [
        (7.452, [(0.0, 1.012), (-0.25, 1.734), (-1.0, -1.396)]),
        (-12.072, [(0.0, -0.989), (-0.5, -1.879), (-1.0, -1.813)]),
    ]:
        a = SignedMeasure.point_masses(1.0, *atoms)
        rep = classify(theta, a)
        assert rep.regime == "LAMN" and rep.H == []
        assert abs(char_value(theta, a, rep.v_star)) <= 1e-9 * (1.0 + rep.v_star)


def test_v_star_below_v0_only_in_remark_case():
    for theta, a in [(-0.5, D0), (0.5, D0), (1.0, DM1), (-2.0, DM1), (-np.pi / 2, DM1)]:
        rep = classify(theta, a)
        assert rep.v_star <= rep.v0 + 1e-12
        assert rep.v_star == pytest.approx(rep.v0, abs=1e-9)
    rep = classify(0.15, sin_measure())
    assert rep.v_star < rep.v0 - 1e-3
    assert abs(rep.v0) <= 1e-8


def test_classify_no_root_above_floor():
    # the only root, -15/r, lies below the floor -10/r at every r
    for r in (1.0, 4.0):
        rep = classify(-15.0 / r, SignedMeasure.point_masses(r, (0.0, 1.0)))
        assert rep.regime == "LAN" and rep.roots == []
        assert rep.v0 == NEG_INF and rep.v_star == NEG_INF
        assert rep.warnings == [
            f"no characteristic roots found above the cut floor {-10.0 / r:g}; v0 and v* reported as -inf"
        ]
        assert rep.to_dict()["v0"] is None


def test_classify_plain_ou_at_moderate_theta():
    # h(lambda) = lambda - theta on dirac0: theta is the only root, on the
    # floor cut -10/r at theta = -10 and below it further left
    a = packaged_measure("dirac0.json")
    rep = classify(-10.0, a)
    assert rep.regime == "LAN"
    assert rep.v0 == pytest.approx(-10.0, abs=1e-12)
    assert rep.v_star == pytest.approx(-10.0, abs=1e-12)
    for theta in (-25.0, -100.0):
        rep = classify(theta, a)
        assert rep.regime == "LAN" and rep.v_star == NEG_INF
        assert rep.warnings == ["no characteristic roots found above the cut floor -10; v0 and v* reported as -inf"]


def test_classify_laq_band_scale_free():
    # one atom at 0: the only root is theta, so v* = theta; the LAQ band is
    # |v*| r <= ZERO_TOL, the same problem on either time scale
    d0_r4 = SignedMeasure.point_masses(4.0, (0.0, 1.0))
    assert classify(5e-9, d0_r4).regime == classify(2e-8, D0).regime == "LAMN"
    assert classify(2e-9, d0_r4).regime == classify(8e-9, D0).regime == "LAQ"
    assert classify(-2e-9, d0_r4).regime == "LAQ"
    with pytest.raises(KernelError):
        fisher_limit(-2e-9, d0_r4)


@pytest.mark.parametrize("c", [1e-13, 1e-11, 1e-9])
def test_classify_zero_mass_scale_free(c):
    # theta * a is the model, so (1, c * delta_0) and (c, delta_0) are one
    # problem: the zero-mass test must not read the root at c as lambda = 0
    small = classify(1.0, SignedMeasure.point_masses(1.0, (0.0, c)))
    unit = classify(c, D0)
    assert small.regime == unit.regime
    assert small.v_star == pytest.approx(unit.v_star, rel=1e-12)


def test_classify_regime_hint_override():
    rep = classify(-0.5, D0, regime_hint="LAQ")
    assert rep.regime == "LAQ"
    assert any("overridden" in w for w in rep.warnings)


# ---------------------------------------------------------------------------
# real_gcd


def test_real_gcd_singleton():
    assert real_gcd([np.pi / 2]) == pytest.approx(np.pi / 2)


def test_real_gcd_integers():
    assert real_gcd([2.0, 3.0]) == pytest.approx(1.0, abs=1e-9)


def test_real_gcd_incommensurable():
    assert real_gcd([1.0, math.sqrt(2.0)]) is None


def test_real_gcd_common_scale():
    d = real_gcd([np.pi / 2, 3 * np.pi / 2, np.pi])
    assert d == pytest.approx(np.pi / 2, rel=1e-9)


def test_real_gcd_validates_inputs():
    with pytest.raises(ValueError):
        real_gcd([])
    with pytest.raises(ValueError):
        real_gcd([1.0], tol=1e-3)


def test_found_roots_satisfy_residual_invariant():
    for theta, a in [(1.0, DM1), (-np.pi / 2, DM1), (-2.0, DM1), (0.15, sin_measure())]:
        for rt in roots_in_strip(theta, a, -1.0):
            assert abs(char_value(theta, a, rt.lam)) <= 1e-9 * (1.0 + abs(rt.lam))


def test_leading_laurent_coefficient_nonzero():
    theta = -1.0 / math.e
    root = build_root_data(theta, DM1, CharRoot(-1.0 + 0.0j, 2))
    assert abs(root.laurent[0]) > 1e-6  # A_{-m}
    assert root.m_tilde <= root.multiplicity - 1


def test_plamn_divisor_absolute_tolerance():
    rep = classify(-2.0, DM1)
    for h in rep.H:
        k = round(h / rep.D)
        assert abs(h - k * rep.D) <= 1e-8


def test_regime_report_json_encodes_minus_infinity_as_null():
    doc = classify(0.0, BAL).to_dict()
    assert doc["v_star"] is None and doc["m_star"] is None
    assert doc["regime"] == "LAN"


def test_classify_triple_root_critical_case():
    # a = 3 d_0 - 4 d_{-1/2} + d_{-1}, theta = 1: total mass, first and second
    # moments vanish jointly, giving a triple root at 0 whose kernel
    # polynomial has degree 1 (hand-computed c_1 = A_{-3} M_1 = 12,
    # c_0 = A_{-2} = -h_4/h_3^2 = 4.5)
    a3 = SignedMeasure.point_masses(1.0, (0.0, 3.0), (-0.5, -4.0), (-1.0, 1.0))
    rep = classify(1.0, a3)
    assert rep.regime == "LAQ"
    assert rep.m_star == 1
    root = rep.contributing_roots[0]
    assert root.multiplicity == 3
    assert root.P_poly[1] == pytest.approx(12.0, rel=1e-9)
    assert root.P_poly[0] == pytest.approx(4.5, rel=1e-9)
    assert rep.scaling.value(10.0) == pytest.approx(1e-2)


def test_roots_in_strip_cut_above_all_roots():
    assert roots_in_strip(-0.5, D0, 2.0) == []


def test_random_systems_root_search_properties():
    # randomized stress: residual, conjugate pairing, and count consistency
    rng = np.random.default_rng(424242)
    for trial in range(10):
        n_atoms = int(rng.integers(1, 4))
        atoms = []
        for _ in range(n_atoms):
            u = float(rng.uniform(-1.0, 0.0)) if rng.random() < 0.5 else float(
                rng.choice([-1.0, -0.5, 0.0])
            )
            atoms.append((u, float(rng.uniform(-2.0, 2.0)) or 0.7))
        pieces = []
        if rng.random() < 0.5:
            pieces.append((-1.0, 0.0, tuple(rng.uniform(-1.5, 1.5, int(rng.integers(1, 3))))))
        try:
            a = SignedMeasure(
                r=1.0,
                atoms=tuple(atoms),
                density_pieces=SignedMeasure.polynomial_density(1.0, pieces).density_pieces
                if pieces
                else (),
            )
        except Exception:
            continue
        theta = float(rng.uniform(-2.5, 2.5)) or 0.9
        c = float(rng.uniform(-2.0, -0.3))
        roots = roots_in_strip(theta, a, c)
        lams = {complex(round(z.lam.real, 9), round(z.lam.imag, 9)) for z in roots}
        for z in roots:
            assert abs(char_value(theta, a, z.lam)) <= 1e-9 * (1.0 + abs(z.lam))
            key = complex(round(z.lam.real, 9), round(z.lam.imag, 9))
            assert key.conjugate() in lams
        n, rect = count_zeros(theta, a, c, 3.0 + abs(theta) * 4, -30.0, 30.0)
        inside = sum(
            z.multiplicity
            for z in roots
            if rect[0] <= z.lam.real <= rect[1] and rect[2] <= z.lam.imag <= rect[3]
        )
        assert n == inside


def test_random_systems_classify_invariants():
    # v* <= v0 with equality except the vanishing-kernel-polynomial case,
    # and the regime tag always matches the sign of v*
    rng = np.random.default_rng(31415)
    checked = 0
    for _ in range(8):
        atoms = [
            (float(rng.choice([-1.0, -0.5, 0.0])), float(rng.uniform(-1.5, 1.5)))
        ]
        if rng.random() < 0.5:
            atoms.append((float(rng.uniform(-1.0, 0.0)), float(rng.uniform(-1.5, 1.5))))
        try:
            a = SignedMeasure(r=1.0, atoms=tuple(a for a in atoms if a[1] != 0.0))
        except Exception:
            continue
        theta = float(rng.uniform(-2.0, 2.0))
        if theta == 0.0:
            continue
        rep = classify(theta, a)
        checked += 1
        assert rep.v_star <= rep.v0 + 1e-9
        if rep.regime == "LAN":
            assert rep.v_star < 0 or rep.v_star == NEG_INF
        elif rep.regime == "LAQ":
            assert abs(rep.v_star) <= 1e-8
        elif rep.regime in ("LAMN", "PLAMN"):
            assert rep.v_star > 1e-8
            assert rep.contributing_roots
    assert checked >= 5


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    r=st.sampled_from([0.5, 2.0, 4.0, 8.0]),
    atoms=st.lists(
        st.tuples(st.sampled_from([0.0, -0.25, -0.5, -0.75, -1.0]), st.floats(-2.0, 2.0).filter(bool)),
        min_size=1,
        max_size=3,
        unique_by=lambda atom: atom[0],
    ),
    theta=st.floats(-3.0, 3.0).filter(bool),
)
def test_classify_invariant_under_time_rescaling(r, atoms, theta):
    # h_r(lam) = h_1(lam r) / r for a_r(du) = a_1(du / r): theta on the
    # delay r is theta r on the delay 1, with every root scaled by 1/r
    scaled = classify(theta, SignedMeasure.point_masses(r, *[(u * r, w) for u, w in atoms]))
    unit = classify(theta * r, SignedMeasure.point_masses(1.0, *atoms))
    assert (scaled.regime, scaled.m_star) == (unit.regime, unit.m_star)
    assert len(scaled.roots) == len(unit.roots)
    for x, y in [(scaled.v0, unit.v0), (scaled.v_star, unit.v_star), *zip(scaled.H, unit.H)]:
        if y == NEG_INF:
            assert x == NEG_INF
        else:
            assert r * x == pytest.approx(y, abs=1e-9 * (1 + abs(y)))
    assert len(scaled.H) == len(unit.H)


def test_initial_contour_above_cap_refused_before_sampling(monkeypatch):
    # r = 1: sample spacing 0.5, so the rectangle [-1, 0] x [-h, h] starts
    # with 8 + 4h + 8 + 4h points.  A point costs one moment value for atoms
    # and degree + 2 more per density piece, 3 for a constant one.  h is
    # never evaluated above the cap, and is evaluated on it.
    spectrum = importlib.import_module("sddelab.spectrum")
    cap = spectrum._MAX_CONTOUR_VALUES
    assert cap == 2_000_000
    flat = SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (1.0,))])

    class Evaluated(Exception):
        pass

    def refuse(a, pts):
        raise Evaluated(len(pts))

    monkeypatch.setattr(spectrum, "exp_moments_01_many", refuse)
    for a, width, h_over in ((D0, 1, 249_999.0), (flat, 3, 83_332.0)):
        points = 16 + 8 * int(h_over)
        assert points * width > cap >= (points - 8) * width
        with pytest.raises(SpectrumError, match=re.escape(f"{points:.3g} points needs {points * width:.3g} moment values")):
            count_zeros(-0.5, a, -1.0, 0.0, -h_over, h_over)
        with pytest.raises(Evaluated) as hit:
            count_zeros(-0.5, a, -1.0, 0.0, 1.0 - h_over, h_over - 1.0)
        assert hit.value.args == (points - 8,)


def test_contour_insertion_matches_np_insert():
    # the refinement grows z, h and dist from one position vector; each must
    # equal np.insert after the bad segments, the last one (which closes the
    # contour) included
    rng = np.random.default_rng(11)
    for n in (1, 2, 8, 97):
        for _ in range(20):
            bad = rng.random(n) < rng.random()
            bad[-1] = rng.random() < 0.5 or not bad.any()
            idx = np.nonzero(bad)[0]
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            dist = rng.random(n)
            zm = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
            dm = rng.random(idx.size)
            got_z, got_d = _insert_after(idx, (z, zm), (dist, dm))
            np.testing.assert_array_equal(got_z, np.insert(z, idx + 1, zm))
            np.testing.assert_array_equal(got_d, np.insert(dist, idx + 1, dm))
            assert got_z.dtype == z.dtype and got_d.dtype == dist.dtype
            np.testing.assert_array_equal(_next(z), np.roll(z, -1))
