import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sddelab.kernels import (
    MAX_GRID_NODES,
    DelayStencil,
    Grid,
    KernelError,
    fisher_limit,
    fisher_theta0,
    residue_expansion_eval,
    solve_fundamental,
    y_kernel,
)
from sddelab.measures import DensityPiece, SignedMeasure, exp_moment, tail_mass, total_variation
from sddelab.simulate import InitialPath
from sddelab.spectrum import CharRoot, build_root_data, classify, roots_in_strip

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


def test_grid_refuses_non_finite_ratios_and_huge_grids():
    # refused before any array exists: r/dt overflows, T/dt overflows, or
    # the node count passes the cap
    with pytest.raises(KernelError, match="r/dt = inf"):
        Grid.build(1.0, 1.0, 1e-320)
    with pytest.raises(KernelError, match="T/dt = inf"):
        Grid.build(1.0, 1e300, 1e-10)
    with pytest.raises(KernelError, match="2000000000003 nodes"):
        Grid.build(1.0, 1e12, 0.5)
    with pytest.raises(KernelError, match="exceeds the cap"):
        Grid(r=1.0, n_delay=10, n_steps=MAX_GRID_NODES)
    assert Grid(r=1.0, n_delay=10, n_steps=MAX_GRID_NODES - 11).n_total == MAX_GRID_NODES


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
    # between nodes, so the atom is interpolated (first order at a kink, at
    # one node each) and the Heun step across its jump is split there:
    # second order
    tau, theta = 0.3737, -np.pi / 2
    a = SignedMeasure.point_masses(1.0, (-tau, 1.0))
    g = Grid.build(1.0, 2.0, dt)
    kern = solve_fundamental(theta, a, g)
    t = g.state_times()
    want = sum(
        np.where(t >= k * tau, theta**k * np.maximum(t - k * tau, 0.0) ** k / math.factorial(k), 0.0)
        for k in range(int(g.T / tau) + 1)
    )
    assert np.max(np.abs(kern.x0_values[g.n_delay :] - want)) <= abs(theta) * dt**2


def test_fundamental_refuses_a_solution_past_the_float_range():
    # theta dt = 0.5 on dirac0: each Heun step multiplies x by 1.625, which
    # passes the float range at step 1462; the solve is refused there, and a
    # record with a non-finite y names y's time
    g = Grid.build(1.0, 20.0, 0.01)
    with pytest.raises(KernelError, match=r"^the fundamental solution is not finite at t = 14\.62$"):
        solve_fundamental(50.0, D0, g)
    kern = solve_fundamental(-0.5, D0, g)
    y = kern.y_values.copy()
    y[300] = np.nan
    with pytest.raises(KernelError, match=r"not finite at t = 3$"):
        dataclasses.replace(kern, y_values=y)


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


def _ramp(atoms, pieces, t):
    # integral of a([-s, 0]) over s in [0, t]: sum w (t + u)_+ plus the
    # integral of p(u) (t + u) over the part of each piece right of -t
    P = np.polynomial.polynomial
    total = sum(w * max(t + u, 0.0) for u, w in atoms)
    for lo, hi, c in pieces:
        lo = max(lo, -t)
        if lo < hi:
            F = P.polyint(P.polymul(c, (t, 1.0)))
            total += P.polyval(hi, F) - P.polyval(lo, F)
    return total


def test_unit_step_exact_oracle():
    # atoms at 0, on a node (-0.25), off the grid (-0.3737) and at -r, and
    # density pieces that start and end inside panels
    atoms = ((0.0, 0.5), (-0.25, -0.7), (-0.3737, 0.8), (-1.0, 0.3))
    pieces = ((-0.613, -0.1, (0.5, -1.25)), (-0.95, -0.7, (1.0, 2.0, 3.0)))
    a = SignedMeasure(1.0, atoms, tuple(DensityPiece(lo, hi, c) for lo, hi, c in pieces))
    for measure, dens in ((SignedMeasure.point_masses(1.0, *atoms), ()), (a, pieces)):
        g = Grid(r=1.0, n_delay=40, n_steps=100)
        st = DelayStencil(measure, g)
        A, G = st.unit_step(g.n_steps)
        assert (A.shape, G.shape) == ((101,), (100,))
        # a shorter horizon, also inside the first delay window, is a prefix
        for n in (1, 25, 40, 41):
            A_n, G_n = st.unit_step(n)
            np.testing.assert_array_equal(A_n, A[: n + 1])
            np.testing.assert_array_equal(G_n, G[:n])
        # A_k = a([-t_k, 0]), each atom where the stencil puts it
        placed = SignedMeasure(1.0, tuple(((s + frac) * g.dt, w) for s, frac, w in st.atoms), measure.density_pieces)
        want = [tail_mass(placed, min(k * g.dt, 1.0)) for k in range(101)]
        assert np.max(np.abs(A - want)) <= 1e-14 * total_variation(measure)
        # past the first delay window both are a([-r, 0])
        assert np.all(A[40:] == A[40]) and np.all(G[40:] == A[40])
        # dt sum G over the first K steps is the integral of A: exact for
        # the atoms, and within the trapezoid bound for the density, t_K/12
        # max|p'| plus 1/8 of each jump of p (a kink of A inside a panel),
        # times dt^2
        err = np.array([abs(g.dt * G[:K].sum() - _ramp(atoms, dens, K * g.dt)) for K in range(101)])
        if not dens:
            assert np.max(err) <= 1e-13
        else:
            P = np.polynomial.polynomial
            jumps = sum(abs(P.polyval(e, c)) for lo, hi, c in pieces for e in (lo, hi))
            slope = max(abs(P.polyval(e, P.polyder(c))) for lo, hi, c in pieces for e in (lo, hi))  # p' is linear
            bound = (np.arange(101) * g.dt / 12 * slope + jumps / 8) * g.dt**2
            assert np.all(err <= bound)


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


@pytest.mark.parametrize("root", [CharRoot(-0.5 + 0j, 1), CharRoot(1j, 1, laurent=(1.0 + 0j,))])
def test_residue_needs_root_data(root):
    with pytest.raises(KernelError, match="root data missing p_poly"):
        residue_expansion_eval(-0.5, D0, [root], 1.0)


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
    # OU: J = 1/(2|theta|)
    assert fisher_limit(-0.5, D0) == pytest.approx(1.0, rel=1e-8)
    assert fisher_limit(-1.0, D0) == pytest.approx(0.5, rel=1e-8)
    # classify's contour does not reach the root -200, so the report is
    # the OU one with v* moved there
    report = dataclasses.replace(classify(-0.5, D0), v_star=-200.0)
    assert fisher_limit(-200.0, D0, report) == pytest.approx(1.0 / 400.0, rel=1e-8)


def test_fisher_limit_stiff_lag0_atom_without_warning():
    # dirac0 far left: the one root theta lies below classify's floor, so
    # v* = -inf, and the axis integrand 1/(w^2 + theta^2) is the lag-0
    # atom's term of the tail, exact from Omega = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (-30.0, -2000.0, -5000.0):
            assert fisher_limit(theta, D0) == pytest.approx(1.0 / (2.0 * abs(theta)), rel=1e-8)


@pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
def test_fisher_limit_unit_delay_closed_form(b):
    # dX = -b X(t-1) dt + dW: J is the stationary variance
    # (1 + sin b)/(2 b cos b) (Kuechler & Mensch 1992); y jumps at the
    # on-grid lag 1, and at b = 1.5, near pi/2, the grid follows the error
    # estimate further
    want = (1.0 + math.sin(b)) / (2.0 * b * math.cos(b))
    assert fisher_limit(-b, DM1) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_fisher_limit_unit_delay_near_the_boundary(eps):
    # theta = -(pi/2 - eps) is LAN with v* ~ -0.45 eps: J grows like 1/eps,
    # all of it from a Lorentzian of width |v*| at Im lam ~ pi/2
    b = math.pi / 2 - eps
    want = (1.0 + math.sin(b)) / (2.0 * b * math.cos(b))
    assert fisher_limit(-b, DM1) == pytest.approx(want, rel=1e-9)


def test_fisher_limit_boundary_limit_of_the_critical_root():
    # as v* -> 0- through the simple pair lam_c = +-i pi/2 of delta_-1 at
    # theta = -pi/2, J |v*| -> |c|^2 with c = M_0(lam_c)/h'(lam_c) = -i/(1 +
    # i pi/2), so |c|^2 = 1/(1 + pi^2/4); the gap is O(eps)
    lam = 0.5j * math.pi
    c = exp_moment(DM1, lam) / (1.0 + 0.5 * math.pi * exp_moment(DM1, lam, 1))
    assert abs(c) ** 2 == pytest.approx(1.0 / (1.0 + math.pi**2 / 4.0), rel=1e-15)
    for eps in (1e-4, 1e-6):
        report = classify(-(math.pi / 2 - eps), DM1)
        J = fisher_limit(-(math.pi / 2 - eps), DM1, report)
        assert J * abs(report.v_star) == pytest.approx(abs(c) ** 2, rel=2.0 * eps)


@pytest.mark.parametrize("r", [2.0, 4.0])
def test_fisher_limit_time_rescaling(r):
    # X(rt) solves the problem with theta r and the delay 1 on a time scale
    # r times longer: J(theta, delta_-r) = r J(theta r, delta_-1)
    for theta in (-0.5 / r, -1.0 / r):
        J = fisher_limit(theta, SignedMeasure.point_masses(r, (-r, 1.0)))
        assert J == pytest.approx(r * fisher_limit(theta * r, DM1), rel=1e-8)


def _parseval_information(theta, atoms, omega=1000.0):
    """J = (1/pi) int_0^inf |M(i w)/h(i w)|^2 dw with M(l) = sum w_k e^(l u_k)
    and h(l) = l - theta M(l): mpmath quadrature on [0, omega] in panels of
    10, and beyond omega the leading term |M|^2/w^2 in closed form, whose
    cosines integrate by Si; the rest of the tail is O(omega^-3)."""
    mpmath = pytest.importorskip("mpmath")

    def f(w):
        lam = 1j * w
        M = sum(wk * mpmath.exp(lam * uk) for uk, wk in atoms)
        return abs(M / (lam - theta * M)) ** 2

    with mpmath.workdps(15):
        head = mpmath.quad(f, mpmath.linspace(0, omega, int(omega / 10) + 1))
        tail = 0
        for uj, wj in atoms:
            for uk, wk in atoms:
                d = abs(uj - uk)
                tail += wj * wk * (mpmath.cos(d * omega) / omega - d * (mpmath.pi / 2 - mpmath.si(d * omega)))
        return float((head + tail) / mpmath.pi)


@pytest.mark.parametrize(
    "atoms",
    [
        ((0.0, 1.0), (-0.5, 0.7)),  # lags 0 and r/2
        ((-1.0 / 3.0, 1.0), (-1.0, 0.3)),  # no lag-0 atom, lags r/3 and r
        ((0.0, 1.0), (-1.0 / 3.0, 0.7)),
        # two atoms at one lag act as one
        ((0.0, 1.0), (-0.5, 0.3), (-0.5, 0.4)),
        ((0.0, 1.0), (-1.0 / 3.0, 0.3), (-1.0 / 3.0, 0.4)),
    ],
)
def test_fisher_limit_parseval_oracle(atoms):
    J = fisher_limit(-0.8, SignedMeasure.point_masses(1.0, *atoms))
    assert J == pytest.approx(_parseval_information(-0.8, atoms), rel=1e-8)


def test_fisher_limit_requires_subcritical():
    with pytest.raises(KernelError):
        fisher_limit(0.5, D0)
    with pytest.raises(KernelError):
        fisher_limit(0.0, D0)


def test_fisher_limit_refuses_a_non_finite_theta():
    # with a report given, theta is read first by its finiteness check
    with pytest.raises(KernelError, match="finite"):
        fisher_limit(-math.inf, D0, classify(-0.5, D0))


def test_fisher_limit_sin_density_positive():
    J = fisher_limit(0.15, sin_measure())
    assert np.isfinite(J) and J > 0


def test_fisher_limit_dt_refinement_stable():
    # the time-domain J from delay grids of 250 and 500 nodes, and of 500 and
    # 1000, against the axis route
    a = _time_domain_information(-0.5, D0, 250, 24.0)
    b = _time_domain_information(-0.5, D0, 500, 24.0)
    assert abs(a - b) < 1e-9 and abs(a - 1.0) < 1e-8
    assert fisher_limit(-0.5, D0) == pytest.approx(b, abs=1e-9)


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
    # solve_fundamental records y = A + Lz from its predictor's stencil
    # sums, which y_kernel returns; the unit step's part plus the stencil
    # over the finished z gives the same bits (apply at node j reads only
    # nodes <= j), for atoms on and off the grid, at the jump, and a density
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
        st = DelayStencil(a, g)
        want = st.unit_step(g.n_steps)[0] + st.path(kern.z_values)
        np.testing.assert_array_equal(y_kernel(theta, a, kern), want)


def test_continued_fundamental_matches_fresh_solve():
    # the steps to a longer horizon continue those to a shorter one: on
    # their common nodes the longer solve has the bits of the shorter
    dens = SignedMeasure.from_dict(
        {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}], "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1.0, 1.0]}]}
    )
    cases = ((-0.8, OFF_GRID_DELAY), (-0.6, TWO_DELAYS), (-0.5, dens), (-1.0, DM1))
    for theta, a in cases:
        short = solve_fundamental(theta, a, Grid(r=a.r, n_delay=50, n_steps=120))
        long = solve_fundamental(theta, a, Grid(r=a.r, n_delay=50, n_steps=777))
        np.testing.assert_array_equal(long.x0_values[: short.x0_values.size], short.x0_values)
        np.testing.assert_array_equal(long.y_values[:121], short.y_values)


def _heun_reference(theta, a, grid):
    # the method of steps for z = x0 - 1(t >= 0) one node at a time over
    # numpy arrays: a predictor, then the trapezoidal corrector, each from
    # DelayStencil.apply, with the unit step's part A and its step integrals
    # G from DelayStencil.unit_step
    nd, ns, dt = grid.n_delay, grid.n_steps, grid.dt
    st = DelayStencil(a, grid)
    A, G = st.unit_step(ns)
    z, y = np.zeros(nd + ns + 1), np.empty(ns + 1)
    for k in range(ns):
        j = nd + k
        lz = st.apply(z, j)
        y[k] = A[k] + lz
        z[j + 1] = z[j] + dt * theta * y[k]
        z[j + 1] = z[j] + (dt * theta * G[k] + 0.5 * dt * theta * (lz + st.apply(z, j + 1)))
    y[ns] = A[ns] + st.apply(z, nd + ns)
    return z, y


@pytest.mark.parametrize(
    "theta, a, n_delay, n_steps",
    [
        (-1.0, DM1, 1000, 4321),  # a lag of 1000 nodes, T not a multiple of it
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
    z, y = _heun_reference(theta, a, grid)
    kern = solve_fundamental(theta, a, grid)
    np.testing.assert_array_equal(kern.z_values, z)
    np.testing.assert_array_equal(kern.y_values, y)


def _time_domain_information(theta, a, n_delay, T):
    """J by the time-domain route: the trapezoid of y^2 on [0, T] from
    solve_fundamental on n_delay and 2 n_delay delay nodes, combined by one
    Richardson step.  Every atom must sit on a node of both grids: y jumps
    by the atoms' weight at their lag, and the panel ending there takes y's
    left limit y - w."""
    sums = []
    for n in (n_delay, 2 * n_delay):
        grid = Grid(r=a.r, n_delay=n, n_steps=round(T * n / a.r))
        y, dt = solve_fundamental(theta, a, grid).y_values, grid.dt
        total = float(np.trapezoid(y * y, dx=dt))
        jumps = {}
        for u, w in a.atoms:
            jumps[round(-u / dt)] = jumps.get(round(-u / dt), 0.0) + w
        for i, w in jumps.items():
            if 0 < i <= grid.n_steps:
                total += 0.5 * dt * ((y[i] - w) ** 2 - y[i] ** 2)
        sums.append(total)
    return (4.0 * sums[1] - sums[0]) / 3.0


def _small_lan_systems(count, seed=11):
    # atoms at 0 (of either sign) and at lags k/20, density pieces of degree
    # <= 2 between multiples of 1/20, theta of either sign; kept when
    # classify puts v* in (-3, -0.25), so that [0, 12/|v*|] holds J to 1e-10
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        atoms = [(0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.2)))] if len(out) % 3 < 2 else []
        for _ in range(int(rng.integers(0 if atoms else 1, 3))):
            atoms.append((-int(rng.integers(1, 21)) / 20, float(rng.uniform(-1.0, 1.0))))
        pieces = ()
        if rng.random() < 0.4:
            lo = -int(rng.integers(2, 21)) / 20
            hi = lo + int(rng.integers(1, round(-20 * lo) + 1)) / 20
            pieces = (DensityPiece(lo, hi, tuple(rng.uniform(-1.0, 1.0, int(rng.integers(1, 4))).tolist())),)
        a = SignedMeasure(1.0, tuple(atoms), pieces)
        theta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.5))
        report = classify(theta, a)
        if report.regime == "LAN" and -3.0 < report.v_star < -0.25:
            out.append((theta, a, report))
    return out


def test_fisher_limit_matches_time_domain_oracle():
    # the axis route against the time-domain one (on-grid lags, where one
    # Richardson step of 200/400 nodes is within 2e-8) over 20 systems
    systems = _small_lan_systems(20)
    assert sum(1 for _, a, _ in systems if any(u == 0.0 for u, _ in a.atoms)) >= 10
    assert sum(1 for _, a, _ in systems if a.density_pieces) >= 5
    for theta, a, report in systems:
        J = fisher_limit(theta, a, report)
        assert J == pytest.approx(_time_domain_information(theta, a, 200, 12.0 / abs(report.v_star)), rel=1e-7)
