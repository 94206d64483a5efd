import importlib
import math
from fractions import Fraction

import numpy as np
import pytest

from sddelab.kernels import (
    DelayStencil,
    Grid,
    KernelError,
    fisher_limit,
    fisher_theta0,
    residue_expansion_eval,
    solve_fundamental,
    y_kernel,
)
from sddelab.measures import SignedMeasure, tail_mass, total_variation
from sddelab.simulate import InitialPath
from sddelab.spectrum import build_root_data, classify, roots_in_strip

D0 = SignedMeasure.point_masses(1.0, (0.0, 1.0))
DM1 = SignedMeasure.point_masses(1.0, (-1.0, 1.0))
BAL = SignedMeasure.point_masses(1.0, (0.0, 1.0), (-1.0, -1.0))
OFF_GRID_DELAY = SignedMeasure.point_masses(1.0, (-0.3737, 1.0))
TWO_DELAYS = SignedMeasure.point_masses(2.0, (-2.0, 1.0), (-0.7531, -0.5))
MC_DENSITY = SignedMeasure.from_dict(
    {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}], "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1.0, 1.0]}]}
)
INTERIOR_DENSITY = SignedMeasure.from_dict({"r": 1.0, "density": [{"lo": -0.7, "hi": -0.2, "coeffs": [0.5, -1.25]}]})


def sin_measure(n=4097):
    grid = np.linspace(-2 * np.pi, 0.0, n)
    return SignedMeasure.sampled_density(2 * np.pi, np.sin(grid))


# ---------------------------------------------------------------------------
# Grid


def test_grid_build_exact_delay_division():
    g = Grid.build(1.0, 200.0, 0.01)
    assert g.n_delay == 100 and g.n_steps == 20000
    assert g.n_delay * g.dt == pytest.approx(1.0, abs=1e-15)
    assert g.T == pytest.approx(200.0, rel=1e-12)


def test_grid_build_snaps_to_lattice():
    # dt becomes an exact divisor of r and T the nearest grid multiple
    g = Grid.build(2 * np.pi, 10.0, 1e-3)
    assert g.n_delay == 6283
    assert g.n_delay * g.dt == pytest.approx(2 * np.pi, abs=1e-15)
    assert abs(g.T - 10.0) <= 0.5 * g.dt
    with pytest.raises(KernelError):
        Grid.build(1.0, 10.0, 3.0)
    with pytest.raises(KernelError):
        Grid.build(1.0, 1e-9, 0.01)


# ---------------------------------------------------------------------------
# solve_fundamental


def test_fundamental_theta_zero_is_one():
    g = Grid.build(1.0, 5.0, 1e-3)
    kern = solve_fundamental(0.0, D0, g)
    assert np.all(kern.x0_values[: g.n_delay] == 0.0)
    np.testing.assert_array_equal(kern.x0_values[g.n_delay :], 1.0)


def test_fundamental_ou_exponential():
    g = Grid.build(1.0, 10.0, 1e-3)
    kern = solve_fundamental(-0.5, D0, g)
    truth = np.exp(-0.5 * g.state_times())
    assert np.max(np.abs(kern.x0_values[g.n_delay :] - truth)) < 1e-6


def test_fundamental_method_of_steps_piecewise():
    # hand computation: x = 1 on [0,1], then 1 - (pi/2)(t-1) on [1,2]
    g = Grid.build(1.0, 2.0, 1e-3)
    kern = solve_fundamental(-np.pi / 2, DM1, g)
    t = g.state_times()
    truth = np.where(t <= 1.0, 1.0, 1.0 - (np.pi / 2) * (t - 1.0))
    assert np.max(np.abs(kern.x0_values[g.n_delay :] - truth)) < 1e-12


def test_fundamental_second_order_convergence():
    errs = []
    for dt in (2e-3, 1e-3):
        g = Grid.build(1.0, 10.0, dt)
        kern = solve_fundamental(-0.5, D0, g)
        errs.append(np.max(np.abs(kern.x0_values[g.n_delay :] - np.exp(-0.5 * g.state_times()))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("dt", (2e-3, 1e-3, 5e-4))
def test_fundamental_off_grid_delay_atom_method_of_steps(dt):
    # x' = theta x(t - tau) with x = 1 at 0: by the method of steps
    # x(t) = sum over k tau <= t of theta^k (t - k tau)^k / k!; tau falls
    # between nodes, so the atom is interpolated (first order at the kinks)
    tau, theta = 0.3737, -np.pi / 2
    a = SignedMeasure.point_masses(1.0, (-tau, 1.0))
    g = Grid.build(1.0, 2.0, dt)
    kern = solve_fundamental(theta, a, g)
    t = g.state_times()
    want = sum(
        np.where(t >= k * tau, theta**k * np.maximum(t - k * tau, 0.0) ** k / math.factorial(k), 0.0)
        for k in range(int(g.T / tau) + 1)
    )
    assert np.max(np.abs(kern.x0_values[g.n_delay :] - want)) <= abs(theta) * dt


# ---------------------------------------------------------------------------
# delay stencil


def test_stencil_panel_weights_closed_form():
    # density c0 + c1 u on [-0.7, -0.2], which starts and ends inside panels:
    # panel_right[j] = int p(u) (u - u_j)/dt du over panel j, panel_left[j]
    # the rest of int p(u) du there (the two hats sum to one on a panel)
    c0, c1, lo, hi = 0.5, -1.25, -0.7, -0.2
    a = SignedMeasure.polynomial_density(1.0, [(lo, hi, (c0, c1))])
    g = Grid(r=1.0, n_delay=8, n_steps=1)
    st = DelayStencil(a, g)
    c0, c1, dt = Fraction(c0), Fraction(c1), Fraction(g.dt)
    want_left, want_right = np.zeros(8), np.zeros(8)
    for j in range(8):
        uj = Fraction(-1) + j * dt
        a_, b_ = max(Fraction(lo), uj), min(Fraction(hi), uj + dt)
        if b_ <= a_:
            continue
        full = c0 * (b_ - a_) + c1 * (b_**2 - a_**2) / 2
        F = lambda u: c0 * (u**2 / 2 - uj * u) + c1 * (u**3 / 3 - uj * u**2 / 2)
        right = (F(b_) - F(a_)) / dt
        want_left[j], want_right[j] = float(full - right), float(right)
    np.testing.assert_allclose(st.panel_right, want_right, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(st.panel_left, want_left, rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(st.q, np.append(st.panel_left, 0.0) + np.append(0.0, st.panel_right))


# ---------------------------------------------------------------------------
# y_kernel


def test_y_kernel_dirac0_equals_x():
    g = Grid.build(1.0, 5.0, 1e-3)
    kern = solve_fundamental(-0.7, D0, g)
    y = y_kernel(-0.7, D0, kern)
    np.testing.assert_allclose(y, kern.x0_values[g.n_delay :], atol=1e-14)


def test_y_kernel_theta0_equals_tail_mass():
    # theta = 0 kernel: y(t) = a([-t,0]) on [0,r], a([-r,0]) past r
    for a in (BAL, SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (1.0,))])):
        g = Grid.build(1.0, 3.0, 1e-3)
        kern = solve_fundamental(0.0, a, g)
        y = y_kernel(0.0, a, kern)
        t = g.state_times()
        want = np.array([tail_mass(a, min(ti, 1.0)) for ti in t])
        assert np.max(np.abs(y - want)) < 1e-10


def test_y_kernel_ou_exponential():
    g = Grid.build(1.0, 8.0, 1e-3)
    kern = solve_fundamental(-0.5, D0, g)
    y = y_kernel(-0.5, D0, kern)
    assert np.max(np.abs(y - np.exp(-0.5 * g.state_times()))) < 1e-6


# ---------------------------------------------------------------------------
# residue expansion


def test_residue_theta_zero_constant():
    roots = [build_root_data(0.0, D0, rt) for rt in roots_in_strip(0.0, D0, -1.0)]
    assert residue_expansion_eval(0.0, D0, roots, 3.7) == pytest.approx(1.0, abs=1e-12)


def test_residue_single_exponential():
    roots = [build_root_data(-0.5, D0, rt) for rt in roots_in_strip(-0.5, D0, -1.0)]
    t = np.linspace(0.0, 6.0, 13)
    np.testing.assert_allclose(residue_expansion_eval(-0.5, D0, roots, t), np.exp(-0.5 * t), atol=1e-11)


@pytest.mark.parametrize("theta", [1.0, -np.pi / 2])
def test_residue_matches_ode_solution(theta):
    bare = roots_in_strip(theta, DM1, -3.0)
    roots = [build_root_data(theta, DM1, rt) for rt in bare]
    g = Grid.build(1.0, 10.0, 1e-3)
    kern = solve_fundamental(theta, DM1, g)
    t = g.state_times()
    sel = t >= 5.0
    vals = residue_expansion_eval(theta, DM1, roots, t[sel])
    assert np.max(np.abs(vals - kern.x0_values[g.n_delay :][sel])) <= 1e-3


# ---------------------------------------------------------------------------
# fisher_limit / fisher_theta0


def test_fisher_limit_ou_oracle():
    assert fisher_limit(-0.5, D0) == pytest.approx(1.0, abs=1e-4)
    assert fisher_limit(-1.0, D0) == pytest.approx(0.5, abs=1e-4)


def test_fisher_limit_requires_subcritical():
    with pytest.raises(KernelError):
        fisher_limit(0.5, D0)
    with pytest.raises(KernelError):
        fisher_limit(0.0, D0)


def test_fisher_limit_sin_density_positive():
    J = fisher_limit(0.15, sin_measure(), n_delay=1024)
    assert np.isfinite(J) and J > 0


def test_fisher_limit_dt_refinement_stable():
    a = fisher_limit(-0.5, D0, n_delay=500)
    b = fisher_limit(-0.5, D0, n_delay=1000)
    assert abs(a - b) < 4e-4


def test_fisher_theta0_balanced():
    assert fisher_theta0(BAL) == pytest.approx(1.0, abs=1e-12)


def test_fisher_theta0_three_atoms():
    tri = SignedMeasure.point_masses(1.0, (0.0, 1.0), (-0.5, -2.0), (-1.0, 1.0))
    assert fisher_theta0(tri) == pytest.approx(1.0, abs=1e-12)


def test_fisher_theta0_sin_density():
    # oracle: a([-t,0]) = cos t - 1, and int_0^{2pi} (cos t - 1)^2 dt = 3 pi
    assert fisher_theta0(sin_measure()) == pytest.approx(3 * np.pi, abs=1e-6)


def test_fisher_theta0_polynomial_density():
    # a(du) = (u + 1/2) du on [-1,0]: a([-t,0]) = t/2 - t^2/2;
    # int_0^1 (t/2 - t^2/2)^2 dt = 1/120
    m = SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (0.5, 1.0))])
    assert fisher_theta0(m) == pytest.approx(1.0 / 120.0, abs=1e-14)


def test_fisher_theta0_rejects_unbalanced():
    with pytest.raises(KernelError):
        fisher_theta0(D0)


def test_fisher_limit_agrees_with_theta0_route():
    # theta = 0 with a([-r, 0]) = 0: fisher_limit is the exact tail-mass integral
    assert fisher_limit(0.0, BAL, report=classify(0.0, BAL)) == fisher_theta0(BAL) == 1.0
    sin = sin_measure()
    assert fisher_limit(0.0, sin) == fisher_theta0(sin)


# ---------------------------------------------------------------------------
# Cauchy-Schwarz bound on the initial-path mixing term


def test_mixing_term_cauchy_schwarz_bound():
    rng = np.random.default_rng(8)
    theta = -0.5
    a = BAL
    g = Grid.build(1.0, 12.0, 2e-3)
    kern = solve_fundamental(theta, a, g)
    y = y_kernel(theta, a, kern)
    t = g.state_times()
    x0 = InitialPath.sampled(rng.uniform(-1.0, 1.0, 33))
    s = np.linspace(-1.0, 0.0, 2001)
    x0v = x0.eval(s, 1.0)

    def interp_y(arg):
        return np.interp(arg, t, y, left=0.0, right=0.0)

    def I_of_t(ti):
        total = 0.0
        for u, w in a.atoms:
            ss = s[s >= u]
            if ss.size < 2:
                continue
            vals = interp_y(ti + u - ss) * x0.eval(ss, 1.0)
            total += w * np.trapezoid(vals, ss)
        return total

    ts = t[(t >= 1.0)]
    I_sq = np.array([I_of_t(ti) ** 2 for ti in ts[:: max(1, ts.size // 400)]])
    lhs = np.trapezoid(I_sq, ts[:: max(1, ts.size // 400)])
    rhs = 1.0 * total_variation(a) * np.trapezoid(x0v**2, s) * np.trapezoid(y**2, t)
    assert lhs <= rhs * (1 + 1e-9)


def test_kernel_samples_are_grid_continuous():
    # |x(t+dt) - x(t)| <= |theta| ||a|| max|x| dt on t >= 0
    for theta, a in [(1.0, DM1), (-np.pi / 2, DM1), (-0.5, D0)]:
        g = Grid.build(1.0, 6.0, 1e-3)
        kern = solve_fundamental(theta, a, g)
        x = kern.x0_values[g.n_delay :]
        bound = abs(theta) * total_variation(a) * np.max(np.abs(x)) * g.dt
        assert np.max(np.abs(np.diff(x))) <= bound * (1 + 1e-6)


def test_kernel_polynomial_growth_triple_root():
    # the symmetric (trapezoidal) delay update preserves the triple-root
    # cancellations well enough for the kernel to track c0 + c1 t
    a3 = SignedMeasure.point_masses(1.0, (0.0, 3.0), (-0.5, -4.0), (-1.0, 1.0))
    g = Grid.build(1.0, 10.0, 0.002)
    kern = solve_fundamental(1.0, a3, g)
    y = y_kernel(1.0, a3, kern)
    t = g.state_times()
    sel = t >= 5.0
    rel = np.abs(y[sel] - (4.5 + 12.0 * t[sel])) / (4.5 + 12.0 * t[sel])
    assert np.max(rel) < 0.01


def test_fisher_theta0_atoms_with_sampled_density():
    # a = delta_0 - delta_{-1} + sin(2 pi u) du on [-1, 0]: for t < 1,
    # a([-t, 0]) = 1 - 1/(2 pi) + cos(2 pi t)/(2 pi), so
    # J_0 = (1 - 1/(2 pi))^2 + 1/(8 pi^2)
    grid_u = np.linspace(-1.0, 0.0, 129)
    mixed = SignedMeasure.from_dict(
        {
            "r": 1.0,
            "atoms": [{"u": 0.0, "w": 1.0}, {"u": -1.0, "w": -1.0}],
            "sampled": {"expr_values": np.sin(2 * np.pi * grid_u).tolist()},
        }
    )
    want = (1 - 1 / (2 * np.pi)) ** 2 + 1 / (8 * np.pi**2)
    assert fisher_theta0(mixed) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "theta,a",
    [
        (1.0, DM1),
        (-np.pi / 2, DM1),
        (-2.0, DM1),
        (-0.5, SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (1.0,))])),
    ],
)
def test_kernel_polynomial_expansion_matches_solver(theta, a):
    # y(t) equals the sum of P(t) e^(lam t) over roots right of the cut, up
    # to the o(e^{ct}) remainder: validates the kernel-polynomial
    # coefficients functionally against the delay solver
    bare = roots_in_strip(theta, a, -3.0)
    roots = [build_root_data(theta, a, z) for z in bare]
    g = Grid.build(1.0, 10.0, 1e-3)
    kern = solve_fundamental(theta, a, g)
    y = y_kernel(theta, a, kern)
    t = g.state_times()
    sel = t >= 5.0
    acc = np.zeros(t[sel].shape, dtype=complex)
    for rt in roots:
        pv = np.zeros(t[sel].shape, dtype=complex)
        for c in reversed(rt.P_poly):
            pv = pv * t[sel] + c
        acc += pv * np.exp(rt.lam * t[sel])
    assert np.max(np.abs(acc.real - y[sel])) <= 1e-4


def test_recorded_kernel_y_matches_y_kernel():
    # solve_fundamental records y from its predictor's stencil sums, which
    # y_kernel returns; the stencil over the finished path gives the same
    # bits (apply at node j reads only nodes <= j), for atoms on and off the
    # grid, at the jump, and a density
    off_grid = SignedMeasure.point_masses(1.0, (-0.3737, 0.8), (0.0, -0.3))
    dens = SignedMeasure.from_dict(
        {"r": 1.0, "atoms": [{"u": -1.0, "w": 0.5}], "density": [{"lo": -0.7, "hi": -0.2, "coeffs": [0.5, -1.25]}]}
    )
    g = Grid(r=1.0, n_delay=40, n_steps=300)
    cases = [(-0.8, off_grid, g), (1.1, dens, g), (-1.0, BAL, g), (0.0, BAL, g)]
    # pure delays, every atom at least 18 nodes back: an off-grid one, and
    # two on r = 2, one of them off the grid
    cases += [
        (-0.8, OFF_GRID_DELAY, Grid(r=1.0, n_delay=50, n_steps=300)),
        (-0.6, TWO_DELAYS, Grid(r=2.0, n_delay=50, n_steps=300)),
    ]
    for theta, a, g in cases:
        kern = solve_fundamental(theta, a, g)
        want = DelayStencil(a, g).path(kern.x0_values, start=g.n_delay)
        np.testing.assert_array_equal(y_kernel(theta, a, kern), want)


def test_continued_fundamental_matches_fresh_solve():
    dens = SignedMeasure.from_dict(
        {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}], "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1.0, 1.0]}]}
    )
    # on these grids the pure delays advance 18, 18 and 50 nodes at a time,
    # so the 120-step prefix ends inside a chunk
    cases = ((-0.8, OFF_GRID_DELAY), (-0.6, TWO_DELAYS), (-0.5, dens), (-1.0, DM1))
    for theta, a in cases:
        short, long = Grid(r=a.r, n_delay=50, n_steps=120), Grid(r=a.r, n_delay=50, n_steps=777)
        cont = solve_fundamental(theta, a, long, prefix=solve_fundamental(theta, a, short))
        fresh = solve_fundamental(theta, a, long)
        np.testing.assert_array_equal(cont.x0_values, fresh.x0_values)
        np.testing.assert_array_equal(cont.y_values, fresh.y_values)
    with pytest.raises(KernelError):
        solve_fundamental(-0.5, dens, short, prefix=fresh)


def _heun_reference(theta, a, grid):
    # the method of steps one node at a time over numpy arrays: a predictor,
    # then the trapezoidal corrector, each from DelayStencil.apply
    nd, ns, dt = grid.n_delay, grid.n_steps, grid.dt
    st = DelayStencil(a, grid)
    x, y = np.zeros(nd + ns + 1), np.empty(ns + 1)
    x[nd] = 1.0
    for k in range(ns):
        j = nd + k
        y[k] = f_right = st.apply(x, j, start=nd)
        x[j + 1] = x[j] + dt * theta * f_right
        f_left = st.apply(x, j + 1, start=nd, left=True)
        x[j + 1] = x[j] + 0.5 * dt * theta * (f_right + f_left)
    y[ns] = st.apply(x, nd + ns, start=nd)
    return x, y


@pytest.mark.parametrize(
    "theta, a, n_delay, n_steps",
    [
        (-1.0, DM1, 1000, 4321),  # whole chunks of 1000 steps, a partial last one
        (1.3, DM1, 1000, 2500),
        (-1.0, BAL, 100, 2000),  # lag-0 atom, and an atom on the jump node
        (0.7, BAL, 100, 2000),
        (-0.8, SignedMeasure.point_masses(1.0, (-0.3737, 0.8), (0.0, -0.3)), 100, 2000),
        (-0.8, OFF_GRID_DELAY, 100, 2000),
        (-0.6, TWO_DELAYS, 50, 1500),
        (np.float32(-0.7), BAL, 50, 500),  # theta's own precision in dt*theta
        (np.float32(-0.7), DM1, 50, 500),
        (-0.5, MC_DENSITY, 100, 2000),  # a lag-0 atom and a density over the whole window
        (-0.8, INTERIOR_DENSITY, 40, 1200),  # a density alone, on panels inside the window
        (1.1, INTERIOR_DENSITY, 40, 300),
    ],
)
def test_fundamental_matches_reference_heun_loop(theta, a, n_delay, n_steps):
    grid = Grid(r=a.r, n_delay=n_delay, n_steps=n_steps)
    x, y = _heun_reference(theta, a, grid)
    kern = solve_fundamental(theta, a, grid)
    np.testing.assert_array_equal(kern.x0_values, x)
    np.testing.assert_array_equal(kern.y_values, y)


def test_fisher_limit_continues_its_solve(monkeypatch):
    # when the tail bound asks for t_cut > T, fisher_limit continues its
    # first solve; the longer kernel is the bits of a fresh solve on that grid
    kernels = importlib.import_module("sddelab.kernels")
    solve = kernels.solve_fundamental
    calls = []

    def recording(theta, a, grid, prefix=None):
        calls.append((grid, prefix, solve(theta, a, grid, prefix)))
        return calls[-1][2]

    monkeypatch.setattr(kernels, "solve_fundamental", recording)
    a = SignedMeasure.point_masses(1.0, (-1.0, 1.0))
    J = fisher_limit(-1.0, a)
    assert len(calls) == 2 and calls[1][1] is calls[0][2]
    grid, _, cont = calls[1]
    assert grid.n_steps > calls[0][0].n_steps
    fresh = solve(-1.0, a, grid)
    np.testing.assert_array_equal(cont.x0_values, fresh.x0_values)
    np.testing.assert_array_equal(cont.y_values, fresh.y_values)
    assert J == pytest.approx(float(np.trapezoid(fresh.y_values**2, dx=grid.dt)), abs=1e-9)
