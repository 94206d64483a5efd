import importlib
import importlib.resources
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sddelab
from sddelab.harness import ks_two_sample, ks_vs_standard_normal, sample_limit
from sddelab.limit_laws import (
    LAQ_ROWS,
    LAQ_TERMS,
    LimitLawError,
    _bridge_anti,
    _bridge_forms,
    _bridge_pair,
    _initial_mix,
    sample_lamn_many,
    sample_lan_many,
    sample_laq_many,
    sample_plamn_many,
)
from sddelab.measures import SignedMeasure, exp_moment
from sddelab.simulate import InitialPath
from sddelab.spectrum import ZERO_TOL, classify

D0 = SignedMeasure.point_masses(1.0, (0.0, 1.0))
DM1 = SignedMeasure.point_masses(1.0, (-1.0, 1.0))


def rng_(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def packaged(name):
    return SignedMeasure.from_dict(json.loads(importlib.resources.files("sddelab").joinpath("configs", f"{name}.json").read_text()))


# ---------------------------------------------------------------------------
# LAN


def test_lan_variance_and_info():
    delta, info = sample_lan_many(1.0, 10_000, rng_(1))
    assert float(np.var(delta)) == pytest.approx(1.0, abs=0.05)
    np.testing.assert_array_equal(info, 1.0)
    _, info_half = sample_lan_many(0.5, 100, rng_(2))
    np.testing.assert_array_equal(info_half, 0.5)


def test_lan_normality():
    delta, _ = sample_lan_many(1.0, 10_000, rng_(3))
    _, p = ks_vs_standard_normal(delta)
    assert p > 0.01


def test_lan_rejects_bad_J():
    with pytest.raises(LimitLawError):
        sample_lan_many(0.0, 1, rng_(0))


# ---------------------------------------------------------------------------
# LAQ


def test_laq_brownian_case_moments():
    # theta=0, a=dirac0: (Delta, J) = (int W dW, int W^2 ds);
    # E int_0^1 W^2 = 1/2 and E int W dW = 0
    rep = classify(0.0, D0)
    delta, info = sample_laq_many(0.0, D0, rep, 10_000, rng_(4))
    assert float(np.mean(info)) == pytest.approx(0.5, rel=0.02)
    assert float(np.mean(delta)) == pytest.approx(0.0, abs=0.02)
    # Var(int W dW) = int_0^1 s ds = 1/2
    assert float(np.var(delta)) == pytest.approx(0.5, rel=0.05)


def test_laq_hayes_expected_information():
    # |c|^2 = 1/(1 + pi^2/4) at both roots; E int_0^1 |Z|^2 ds = 1/2 each
    rep = classify(-np.pi / 2, DM1)
    delta, info = sample_laq_many(-np.pi / 2, DM1, rep, 10_000, rng_(5))
    want = 1.0 / (1.0 + np.pi**2 / 4.0)
    assert float(np.mean(info)) == pytest.approx(want, rel=0.02)
    assert np.all(np.isfinite(delta))


def test_laq_requires_laq_report():
    rep = classify(-0.5, D0)
    with pytest.raises(LimitLawError):
        sample_laq_many(0.0, D0, rep, 1, rng_(0))


def test_laq_deterministic_given_seed():
    rep = classify(0.0, D0)
    a1 = sample_laq_many(0.0, D0, rep, 32, rng_(9))
    a2 = sample_laq_many(0.0, D0, rep, 32, rng_(9))
    np.testing.assert_array_equal(a1[0], a2[0])
    np.testing.assert_array_equal(a1[1], a2[1])


def test_laq_row_blocks_keep_the_unblocked_bits(monkeypatch):
    # row blocks of one C-order (n, K+1) stream are the same normals; a
    # trailing block of 208 rows (n = 2000) keeps the bits, and n = 257 and
    # 513 leave no lone trailing row
    limit_laws = importlib.import_module("sddelab.limit_laws")
    rep = classify(0.0, D0)
    for n in (2000, 257, 513):
        blocked = sample_laq_many(0.0, D0, rep, n, rng_(5))
        monkeypatch.setattr(limit_laws, "LAQ_ROWS", n)  # one block: the unblocked draw
        whole = sample_laq_many(0.0, D0, rep, n, rng_(5))
        monkeypatch.undo()
        np.testing.assert_array_equal(blocked[0], whole[0])
        np.testing.assert_array_equal(blocked[1], whole[1])


def test_laq_memory_does_not_grow_with_draws():
    # bridge coefficients are held LAQ_ROWS draws at a time, so from 2000 to
    # 10 000 draws the peak grows by the output arrays and their temporaries
    # only (under 200 bytes a draw), not by the 257 coefficients per draw and
    # frequency (2 kB real, 4 kB complex)
    for theta, a in ((0.0, D0), (-np.pi / 2, DM1)):
        rep = classify(theta, a)
        sample_laq_many(theta, a, rep, 10, rng_(0))  # warms up numpy and BLAS
        peaks = []
        for n in (2000, 10_000):
            tracemalloc.start()
            try:
                sample_laq_many(theta, a, rep, n, rng_(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 200 * 8000, peaks


def test_laq_truncation_refinement_coupled():
    # K and 2K bridge terms taken from the first normals of one draw: the
    # mean-square gap of delta and of info shrinks like 1/K (the complex
    # m* = 0 delta carries the slowest tail, the Levy area's)
    for m in (0, 1):
        for complex_z in (False, True):
            g = rng_(6).standard_normal((2, 2000, 257))
            g = g if complex_z else g[0]  # (g0, g1): xi = (g0 + i g1)/sqrt(2)
            for K in (32, 64, 128):
                d_k, i_k = _bridge_pair(g[..., : K + 1], m, _bridge_forms(m, K), _bridge_anti(m, K))
                d_2k, i_2k = _bridge_pair(g[..., : 2 * K + 1], m, _bridge_forms(m, 2 * K), _bridge_anti(m, 2 * K))
                assert float(np.mean(np.abs(d_k - d_2k) ** 2)) <= 0.1 / K, (m, complex_z, K)
                assert float(np.mean((i_k - i_2k) ** 2)) <= 0.1 / K, (m, complex_z, K)


def quadrature_forms(m, K):
    """G and N of the K-term bridge expansion by Gauss-Legendre quadrature:
    64 nodes on each of ceil(K/16) panels, at most 16 periods of the highest
    frequency 2 K pi per panel."""
    x, w = np.polynomial.legendre.leggauss(64)
    panels = -(-K // 16)
    s = ((np.arange(panels)[:, None] + (x + 1.0) / 2.0) / panels).ravel()
    w = np.tile(w / (2.0 * panels), panels)
    omega = np.pi * np.arange(1, K + 1)[:, None]
    z = 1j * omega * s
    taylor = sum(z**j / math.factorial(j) for j in range(m + 1))
    osc = math.factorial(m) * (np.exp(z) - taylor) / (1j * omega) ** (m + 1)
    psi = np.vstack([s ** (m + 1) / (m + 1), math.sqrt(2.0) * osc.real])
    de = np.vstack([np.ones_like(s), math.sqrt(2.0) * np.cos(omega * s)])
    return (psi * w) @ psi.T, (psi * w) @ de.T


@pytest.mark.parametrize("K", [16, 256])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_bridge_forms_match_quadrature(m, K):
    G_ref, N_ref = quadrature_forms(m, K)
    G, N_sym = _bridge_forms(m, K)
    N_anti = _bridge_anti(m, K)

    def dense(form):
        d, UV = form
        U, V = np.vsplit(UV, 2)
        return np.diag(d) + U.T @ V + V.T @ U

    np.testing.assert_allclose(dense(G), G_ref, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(dense(N_sym) + N_anti, N_ref, rtol=0.0, atol=1e-14)


def test_laq_ito_formula_at_m_zero():
    # Ito's formula for |Z|^2: Re int_0^1 Z dconj(Z) = (|Z(1)|^2 - 1)/2, and
    # the truncated expansion keeps it exactly since Z(1) = xi_0
    NG = _bridge_forms(0, LAQ_TERMS)
    g = rng_(31).standard_normal((2, 500, LAQ_TERMS + 1))
    ito, _ = _bridge_pair(g[0], 0, NG)
    np.testing.assert_allclose(ito, (g[0, :, 0] ** 2 - 1.0) / 2.0, rtol=0.0, atol=1e-13)
    ito, _ = _bridge_pair(g, 0, NG, _bridge_anti(0, LAQ_TERMS))
    np.testing.assert_allclose(ito.real, ((g[0, :, 0] ** 2 + g[1, :, 0] ** 2) / 2.0 - 1.0) / 2.0, rtol=0.0, atol=1e-13)


def reference_laq(theta, a, report, n, rng):
    """sample_laq_many for n <= LAQ_ROWS draws by the quadrature forms and
    complex bridge coefficients xi = (g0 + i g1)/sqrt(2)."""
    m = int(report.m_star)
    G, N = quadrature_forms(m, LAQ_TERMS)
    roots = [(complex(rt.lam), rt.P_poly[m]) for rt in report.contributing_roots]
    delta, info = np.zeros(n, dtype=complex), np.zeros(n)
    for phi in sorted({round(abs(lam.imag), 12) for lam, _ in roots}):
        if phi <= ZERO_TOL:
            xi = rng.standard_normal((n, LAQ_TERMS + 1))
        else:
            g = rng.standard_normal((2, n, LAQ_TERMS + 1))
            xi = (g[0] + 1j * g[1]) / math.sqrt(2.0)
        ito = np.einsum("ij,ij->i", xi @ N, np.conj(xi)) - np.trace(N)
        energy = np.einsum("ij,ij->i", xi @ G, np.conj(xi)).real + 1.0 / ((2 * m + 1) * (2 * m + 2)) - np.trace(G)
        for lam, c in roots:
            if round(abs(lam.imag), 12) == phi:
                delta += c * (np.conj(ito) if lam.imag < -ZERO_TOL else ito)
                info += abs(c) ** 2 * energy
    return delta.real, info


@pytest.mark.parametrize("name, theta", [("dirac0", 0.0), ("hayes_boundary", -np.pi / 2), ("balanced_atoms", 1.0)])
def test_laq_matches_complex_quadrature_route(name, theta):
    a = packaged(name)
    rep = classify(theta, a)
    n = LAQ_ROWS - 56
    delta, info = sample_laq_many(theta, a, rep, n, rng_(32))
    ref_delta, ref_info = reference_laq(theta, a, rep, n, rng_(32))
    np.testing.assert_allclose(delta, ref_delta, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(info, ref_info, rtol=1e-12, atol=0.0)


def test_laq_memory_of_a_call():
    # no forms are kept between calls, so every call builds them: two
    # diagonal-plus-low-rank forms and the dense antisymmetric part of N
    # (0.5 MB); with one block of normals and its product that stays under
    # 8 MB
    a = packaged("hayes_boundary")
    rep = classify(-np.pi / 2, a)
    tracemalloc.start()
    try:
        sample_laq_many(-np.pi / 2, a, rep, 2000, rng_(33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_laq_calls_keep_no_module_state():
    # a module-level array would pin the allocator's heap between calls
    limit_laws = importlib.import_module("sddelab.limit_laws")
    before = set(vars(limit_laws))
    for name, theta in (("hayes_boundary", -np.pi / 2), ("dirac0", 0.0)):
        a = packaged(name)
        sample_laq_many(theta, a, classify(theta, a), 300, rng_(34))
    assert set(vars(limit_laws)) == before
    assert not any(isinstance(v, np.ndarray) for v in vars(limit_laws).values())


def test_laq_draws_do_not_depend_on_blas_threads():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    code = (
        "import sys, json, importlib.resources, numpy as np\n"
        "from sddelab.limit_laws import sample_laq_many\n"
        "from sddelab.measures import SignedMeasure\n"
        "from sddelab.spectrum import classify\n"
        "for name, theta in (('dirac0', 0.0), ('hayes_boundary', -np.pi / 2)):\n"
        "    doc = importlib.resources.files('sddelab').joinpath('configs', name + '.json').read_text()\n"
        "    a = SignedMeasure.from_dict(json.loads(doc))\n"
        "    for arr in sample_laq_many(theta, a, classify(theta, a), 2000, np.random.Generator(np.random.Philox(key=7))):\n"
        "        sys.stdout.buffer.write(arr.tobytes())\n"
    )
    src = os.path.dirname(os.path.dirname(sddelab.__file__))
    out = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, check=True, timeout=120,
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(out[0]) == 2 * 2 * 2000 * 8
    assert out[0] == out[1]


def test_laq_dickey_fuller_quantiles():
    # theta = 0 with a = dirac0: delta/info = int W dW / int W^2 is the
    # Dickey-Fuller law, Fuller (1976), Table 8.5.1, n = infinity; the
    # tolerances are 4 Monte Carlo SDs of a 40 000-draw quantile
    rep = classify(0.0, D0)
    delta, info = sample_laq_many(0.0, D0, rep, 40_000, rng_(21))
    probs = [0.01, 0.025, 0.05, 0.10, 0.90, 0.95, 0.975, 0.99]
    table = [-13.8, -10.5, -8.1, -5.7, 0.93, 1.28, 1.60, 2.03]
    tol = [0.6, 0.5, 0.27, 0.17, 0.04, 0.045, 0.06, 0.06]
    got = np.quantile(delta / info, probs)
    for p, g, want, t in zip(probs, got, table, tol):
        assert abs(g - want) <= t, (p, g, want)


def test_laq_white_moments():
    # White (1958): E int W^2 = 1/2, Var int W^2 = 1/3, Var int W dW = 1/2
    rep = classify(0.0, D0)
    delta, info = sample_laq_many(0.0, D0, rep, 20_000, rng_(22))
    n = info.size

    def var_se(x):
        c = x - np.mean(x)
        return math.sqrt((np.mean(c**4) - np.mean(c**2) ** 2) / n)

    assert abs(np.mean(info) - 0.5) <= 4.0 * np.std(info) / math.sqrt(n)
    assert abs(np.var(info) - 1.0 / 3.0) <= 4.0 * var_se(info)
    assert abs(np.var(delta) - 0.5) <= 4.0 * var_se(delta)


def expected_information(report) -> float:
    """E[J] for x0 = 0 and d = 0, by quadrature in t of e^(-2 v* t) E[amp(t)^2],
    with amp(t) = sum over real and upper roots of w Re(c G e^(-i phi t))
    and E[G_j G_k] = 1/(lam_j + lam_k), E[G_j conj(G_k)] = 1/(lam_j + conj(lam_k))."""
    m = int(report.m_star)
    kept = [
        (complex(rt.lam.real, 0.0), rt.P_poly[m], 1.0) if abs(rt.lam.imag) <= ZERO_TOL else (complex(rt.lam), rt.P_poly[m], 2.0)
        for rt in report.contributing_roots
        if rt.lam.imag >= -ZERO_TOL
    ]
    v = report.v_star
    t = np.linspace(0.0, 40.0 / v, 400_001)
    beta = [w * c * np.exp(-1j * lam.imag * t) for lam, c, w in kept]
    second = np.zeros_like(t)
    for j, (lam_j, _, _) in enumerate(kept):
        for k, (lam_k, _, _) in enumerate(kept):
            prod = beta[j] * beta[k] / (lam_j + lam_k) + beta[j] * np.conj(beta[k]) / (lam_j + np.conj(lam_k))
            second += 0.5 * prod.real
    return float(np.trapezoid(np.exp(-2.0 * v * t) * second, t))


@pytest.mark.parametrize("name, theta", [("sin_density", 1.0), ("dirac_delay", -2.0), ("dirac_delay", 1.0)])
def test_limit_mean_information(name, theta):
    a = SignedMeasure.from_dict(json.loads(importlib.resources.files("sddelab").joinpath("configs", f"{name}.json").read_text()))
    rep = classify(theta, a)
    _, info, _ = sample_limit(theta, a, rep, InitialPath.zero(), 20_000, rng_(23))
    want = expected_information(rep)
    assert abs(np.mean(info) - want) <= 4.0 * np.std(info) / math.sqrt(info.size), (np.mean(info), want)


# ---------------------------------------------------------------------------
# LAMN


def test_lamn_unit_information():
    # theta=0.5, a=dirac0, x0=0: U ~ N(0, 1) and J = U^2, so Var J = 2 and
    # the 3% band is 4.2 standard errors of the mean of 40 000 draws
    rep = classify(0.5, D0)
    delta, info = sample_lamn_many(0.5, D0, rep, InitialPath.zero(), 40_000, rng_(7))
    assert float(np.mean(info)) == pytest.approx(1.0, rel=0.03)
    _, p = ks_vs_standard_normal(delta / np.sqrt(info))
    assert p > 0.001


def test_lamn_initial_shift():
    # x0 = 1 with a point mass at 0: the mixing integral vanishes, U ~ N(1,1)
    rep = classify(0.5, D0)
    rng = rng_(8)
    _, info = sample_lamn_many(0.5, D0, rep, InitialPath.constant(1.0), 20_000, rng)
    U = np.sqrt(info)  # J = U^2 here since c^2/(2 v*) = 1
    # |U| where U ~ N(1,1): E U^2 = 2
    assert float(np.mean(U**2)) == pytest.approx(2.0, rel=0.05)


def test_lamn_degenerate_noise_off():
    # with the noise off, J = c^2 U^2/(2 v*) at U's centre X0(0) + mix: a
    # point mass at 0 mixes nothing in, so the centre is 1 and J = 1
    rep = classify(0.5, D0)
    ((lam, c),) = [(rt.lam, rt.P_poly[int(rep.m_star)]) for rt in rep.contributing_roots]
    x0 = InitialPath.constant(1.0)
    assert _initial_mix(0.5, D0, x0, lam) == 0
    assert float(x0.eval(np.array(0.0), D0.r)) + _initial_mix(0.5, D0, x0, lam).real == 1.0
    assert abs(c) ** 2 / (2 * rep.v_star) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("theta, a, seed", [(0.5, D0, 31), (1.0, DM1, 32)])
def test_lamn_ratio_is_standard_cauchy(theta, a, seed):
    # at x0 = 0, U = G ~ N(0, 1/(2 v*)) and delta/info = z/sqrt(J), so
    # (|c|/(2 v*)) delta/info = z/|sqrt(2 v*) U| is standard Cauchy (White 1958)
    import scipy.stats as st

    rep = classify(theta, a)
    c = rep.contributing_roots[0].P_poly[int(rep.m_star)]
    delta, info = sample_lamn_many(theta, a, rep, InitialPath.zero(), 20_000, rng_(seed))
    ratio = abs(c) / (2.0 * rep.v_star) * delta / info
    _, p = st.kstest(ratio, lambda x: 0.5 + np.arctan(x) / np.pi)
    assert p > 0.001, p


def test_lamn_refuses_complex_contributing_root():
    rep = classify(-2.0, DM1, regime_hint="LAMN")
    with pytest.raises(LimitLawError, match="LAMN requires a single real contributing root"):
        sample_lamn_many(-2.0, DM1, rep, InitialPath.zero(), 5, rng_(0))


def test_lamn_requires_lamn_report():
    with pytest.raises(LimitLawError):
        sample_lamn_many(0.0, D0, classify(0.0, D0), InitialPath.zero(), 1, rng_(0))


def test_lamn_hint_needs_positive_v_star():
    # a LAMN hint on a stable measure: the mixing variance 1/(2 v*) does not
    # exist, and the sampler says so instead of failing in math.sqrt
    rep = classify(-0.5, D0, regime_hint="LAMN")
    with pytest.raises(LimitLawError, match=r"LAMN needs v\* > 0, got v\* = -0\.5"):
        sample_lamn_many(-0.5, D0, rep, InitialPath.zero(), 5, rng_(0))


# ---------------------------------------------------------------------------
# PLAMN


def test_plamn_periodicity_in_d():
    rep = classify(-2.0, DM1)
    period = rep.period
    d1, i1 = sample_plamn_many(-2.0, DM1, rep, InitialPath.zero(), 0.7, 64, rng_(11))
    d2, i2 = sample_plamn_many(-2.0, DM1, rep, InitialPath.zero(), 0.7 + period, 64, rng_(11))
    np.testing.assert_allclose(i1, i2, rtol=1e-10)


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
def test_plamn_refuses_non_finite_phase(d):
    rep = classify(-2.0, DM1)
    with pytest.raises(LimitLawError, match="phase d must be finite"):
        sample_plamn_many(-2.0, DM1, rep, InitialPath.zero(), d, 5, rng_(0))


def test_plamn_information_positive():
    rep = classify(-2.0, DM1)
    _, info = sample_plamn_many(-2.0, DM1, rep, InitialPath.zero(), 0.3, 1000, rng_(12))
    assert np.all(info > 0)


def test_plamn_single_real_root_reduces_to_lamn():
    rep = classify(1.0, DM1)  # LAMN: single real contributing root
    assert rep.regime == "LAMN"
    d_p, i_p = sample_plamn_many(1.0, DM1, rep, InitialPath.zero(), 0.0, 2000, rng_(13))
    d_l, i_l = sample_lamn_many(1.0, DM1, rep, InitialPath.zero(), 2000, rng_(14))
    _, p_info = ks_two_sample(i_p, i_l)
    _, p_delta = ks_two_sample(d_p, d_l)
    assert p_info > 0.01 and p_delta > 0.01


def test_plamn_single_draw_uses_phase():
    # one draw at phase 0.4 has the information of the same draw a period on
    rep = classify(-2.0, DM1)
    _, info = sample_plamn_many(-2.0, DM1, rep, InitialPath.zero(), 0.4, 1, rng_(15))
    _, info_next = sample_plamn_many(-2.0, DM1, rep, InitialPath.zero(), 0.4 + rep.period, 1, rng_(15))
    assert info.shape == (1,) and info[0] > 0
    assert info_next[0] == pytest.approx(info[0], rel=1e-10)


def test_laq_iterated_integral_order_one():
    # triple root at 0 with m* = 1: J = c1^2 int_0^1 Z_{0,1}^2 ds and
    # E int_0^1 Z_{0,1}(s)^2 ds = int s^3/3 ds = 1/12, so E[J] = 144/12 = 12
    a3 = SignedMeasure.point_masses(1.0, (0.0, 3.0), (-0.5, -4.0), (-1.0, 1.0))
    rep = classify(1.0, a3)
    delta, info = sample_laq_many(1.0, a3, rep, 4000, rng_(77))
    assert float(np.mean(info)) == pytest.approx(12.0, rel=0.08)
    assert float(np.mean(delta)) == pytest.approx(0.0, abs=0.5)


def test_initial_mix_closed_form():
    # theta=1, unit-delay atom, x0 = 1: integral of e^{-lam(s-u)} over [u,0]
    # gives (1 - e^{-lam})/lam at u = -1
    lam = 0.5671432904097838
    got = _initial_mix(1.0, DM1, InitialPath.constant(1.0), lam)
    want = (1 - math.exp(-lam)) / lam
    assert complex(got) == pytest.approx(want, rel=1e-7)


def _dens(*pieces):
    return SignedMeasure.polynomial_density(1.0, pieces).density_pieces


@pytest.mark.parametrize(
    "a",
    [
        SignedMeasure(r=1.0, density_pieces=_dens((-1.0, -0.5, (2.0,)))),
        SignedMeasure(r=1.0, density_pieces=_dens((-1.0, -0.5, (1.0,)), (-0.5, 0.0, (-1.0,)))),
        SignedMeasure(r=1.0, atoms=((-1.0, 0.5),), density_pieces=_dens((-0.7, -0.2, (1.5,)))),
        SignedMeasure.point_masses(1.0, (-1.0, 0.6), (-0.3737, -1.1), (-0.25, 0.4)),
    ],
    ids=["density-half", "density-jump", "atom-and-density", "off-grid-atoms"],
)
@pytest.mark.parametrize("lam", [0.3, 1.0, 0.5 + 2j])
def test_initial_mix_closed_form_against_measure(a, lam):
    # x0 = 1: the inner integral is (1 - e^{lam u})/lam, so the mixing term
    # is theta (M_0(0) - M_0(lam))/lam; the outer quadrature is exact
    # against each density piece, jumps included
    got = _initial_mix(1.0, a, InitialPath.constant(1.0), lam)
    want = (exp_moment(a, 0.0) - exp_moment(a, lam)) / lam
    assert complex(got) == pytest.approx(want, rel=1e-6)


def _z(x):
    # mean of the draws in units of its standard error
    return float(np.mean(x)) / (float(np.std(x, ddof=1)) / math.sqrt(x.size))


@pytest.mark.parametrize(
    "name, theta",
    [
        ("dirac0", -0.5),
        ("dirac0", 0.0),
        ("dirac0", 0.5),
        ("hayes_boundary", -math.pi / 2),
        ("dirac_delay", -2.0),
        ("balanced_atoms", 1.0),
        ("sin_density", 1.0),
    ],
)
@pytest.mark.parametrize("key", [1, 2])
def test_limit_law_score_identities(name, theta, key):
    # the score is a martingale limit: E[Delta] = 0 and E[Delta^2] = E[J]
    # for every law; the mixed-normal laws (LAN included) are N(0, J) given
    # J, so E[exp(h Delta - h^2 J/2)] = 1.  LAQ's weights are too
    # heavy-tailed for that last mean to settle at 40 000 draws.
    a = packaged(name)
    report = classify(theta, a)
    delta, info, _ = sample_limit(theta, a, report, InitialPath.zero(), 40_000, rng_(key))
    assert abs(_z(delta)) < 4.0 and abs(_z(delta * delta - info)) < 4.0
    if report.regime != "LAQ":
        for h in (-1.0, -0.3, 0.3, 1.0):
            assert abs(_z(np.exp(h * delta - h * h * info / 2.0) - 1.0)) < 4.0, h


def test_all_samplers_deterministic_given_seed():
    rep_lamn = classify(0.5, D0)
    rep_plamn = classify(-2.0, DM1)
    for draw in (
        lambda s: sample_lan_many(1.0, 8, rng_(s)),
        lambda s: sample_lamn_many(0.5, D0, rep_lamn, InitialPath.constant(1.0), 8, rng_(s)),
        lambda s: sample_plamn_many(-2.0, DM1, rep_plamn, InitialPath.zero(), 0.2, 8, rng_(s)),
    ):
        a1, a2 = draw(5), draw(5)
        np.testing.assert_array_equal(a1[0], a2[0])
        np.testing.assert_array_equal(a1[1], a2[1])


def test_initial_mix_sampled_path_against_dense_quadrature():
    rng = np.random.default_rng(99)
    x0 = InitialPath.sampled(rng.uniform(-1.0, 1.0, 17))
    lam = 0.4 + 1.1j
    theta = -0.8
    a = SignedMeasure(
        r=1.0,
        atoms=((-1.0, 0.6), (-0.25, -1.1)),
        density_pieces=SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (0.5, 0.3))]).density_pieces,
    )
    got = _initial_mix(theta, a, x0, lam)
    s = np.linspace(-1.0, 0.0, 40001)
    x0v = x0.eval(s, 1.0)

    def inner(u):
        ss = s[s >= u - 1e-12]
        return np.trapezoid(np.exp(-lam * (ss - u)) * x0.eval(ss, 1.0), ss)

    u_out = np.linspace(-1.0, 0.0, 801)
    want_density = np.trapezoid((0.5 + 0.3 * u_out) * np.array([inner(u) for u in u_out]), u_out)
    want = theta * (0.6 * inner(-1.0) - 1.1 * inner(-0.25) + want_density)
    assert complex(got) == pytest.approx(want, rel=2e-5)


def test_single_draws():
    delta, info = sample_lan_many(2.0, 1, rng_(1))
    assert delta.shape == (1,) and info[0] == 2.0
    rep = classify(0.0, D0)
    assert rep.regime == "LAQ"
    delta, _ = sample_laq_many(0.0, D0, rep, 1, rng_(2))
    assert delta.shape == (1,) and np.isfinite(delta[0])
