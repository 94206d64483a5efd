"""Deterministic delay analysis: the fundamental solution of
x'(t) = theta * integral x(t+u) a(du), the kernel y(t) = integral
x(t+u) a(du), residue-expansion evaluation over characteristic roots, and
the limiting Fisher information.

Discretization: uniform grid with dt = r/n_delay, method of steps with an
order-2 Heun corrector.  The delay functional uses exact integrals of the
density against the piecewise-linear nodal basis, atom locations snapped to
grid nodes when within 1e-12 (linear interpolation otherwise), and
left/right limits at the nodes where an atom crosses the unit jump of the
fundamental solution at time 0 (keeps the integrator at order 2 there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import SignedMeasure, _poly_defint, tail_mass, total_variation
from .spectrum import NEG_INF, RegimeReport, ZERO_TOL, classify

ATOM_SNAP = 1e-12


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform grid covering [-r, T] with dt = r/n_delay and T = n_steps*dt."""

    r: float
    n_delay: int
    n_steps: int

    def __post_init__(self):
        if self.r <= 0 or self.n_delay < 1 or self.n_steps < 1:
            raise KernelError("grid needs r > 0, n_delay >= 1, n_steps >= 1")

    @property
    def dt(self) -> float:
        return self.r / self.n_delay

    @property
    def T(self) -> float:
        return self.n_steps * self.dt

    @property
    def n_total(self) -> int:
        """Number of nodes on [-r, T]."""
        return self.n_delay + self.n_steps + 1

    def times(self) -> np.ndarray:
        return (np.arange(self.n_total) - self.n_delay) * self.dt

    def state_times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @staticmethod
    def build(r: float, T: float, dt: float) -> "Grid":
        """Grid with dt snapped to an exact divisor of r (dt := r/n_delay)
        and T snapped to the nearest grid multiple (within half a step)."""
        n_delay = int(round(r / dt))
        if n_delay < 1:
            raise KernelError(f"dt={dt} exceeds the delay horizon r={r}")
        dt_eff = r / n_delay
        n_steps = int(round(T / dt_eff))
        if n_steps < 1:
            raise KernelError(f"horizon T={T} is below one step dt={dt_eff}")
        return Grid(r=r, n_delay=n_delay, n_steps=n_steps)


@dataclass
class Kernel:
    grid: Grid
    x0_values: np.ndarray  # fundamental solution on [-r, T]
    y_values: np.ndarray | None = None  # kernel y on [0, T], filled lazily


# ---------------------------------------------------------------------------
# delay-functional stencil


class DelayStencil:
    """Quadrature of v -> integral v(t+u) a(du) on the grid.

    Atoms become (index offset, interpolation fraction, weight) triples;
    the density becomes nodal weights q_j = integral of density * hat_j,
    stored per panel so the window can be truncated at a node (used while
    the fundamental solution's jump at 0 is inside the delay window).
    """

    def __init__(self, a: SignedMeasure, grid: Grid):
        self.grid = grid
        dt = grid.dt
        nd = grid.n_delay
        self.atoms: list[tuple[int, float, float]] = []
        for u, w in a.atoms:
            s = u / dt
            s_round = round(s)
            if abs(u - s_round * dt) <= ATOM_SNAP:
                self.atoms.append((int(s_round), 0.0, w))
            else:
                self.atoms.append((int(math.floor(s)), s - math.floor(s), w))
        # per-panel hat moments of the density: panel j = [u_j, u_{j+1}]
        self.panel_left = np.zeros(nd)
        self.panel_right = np.zeros(nd)
        nodes = -grid.r + dt * np.arange(nd + 1)
        for p in a.density_pieces:
            j_lo = max(0, int(math.floor((p.lo + grid.r) / dt - 1e-12)))
            j_hi = min(nd - 1, int(math.ceil((p.hi + grid.r) / dt + 1e-12)))
            for j in range(j_lo, j_hi + 1):
                lo = max(p.lo, nodes[j])
                hi = min(p.hi, nodes[j + 1])
                if hi <= lo:
                    continue
                # hat_j falls 1 -> 0 over the panel, hat_{j+1} rises 0 -> 1
                rise = [-nodes[j] / dt, 1.0 / dt]
                prod_rise = _poly_mul(p.coeffs, rise)
                int_rise = _poly_defint(prod_rise, lo, hi)
                int_full = _poly_defint(p.coeffs, lo, hi)
                self.panel_right[j] += int_rise
                self.panel_left[j] += int_full - int_rise
        self.q = np.zeros(nd + 1)
        self.q[:-1] += self.panel_left
        self.q[1:] += self.panel_right
        self.has_density = bool(a.density_pieces)

    def apply_rows(self, X: np.ndarray, j: int) -> np.ndarray:
        """Delay functional at node j for full-history rows (continuous X;
        X[:, j] is the state at the evaluation time)."""
        nd = self.grid.n_delay
        out = np.zeros(X.shape[0])
        for s, frac, w in self.atoms:
            if frac == 0.0:
                out += w * X[:, j + s]
            else:
                out += w * ((1.0 - frac) * X[:, j + s] + frac * X[:, j + s + 1])
        if self.has_density:
            out += X[:, j - nd : j + 1] @ self.q
        return out


def _poly_mul(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a_ in enumerate(p):
        for j, b_ in enumerate(q):
            out[i + j] += a_ * b_
    return out


# ---------------------------------------------------------------------------
# fundamental solution


def _jump_functional(stencil: DelayStencil, x: np.ndarray, j: int, left: bool) -> float:
    """Delay functional for the fundamental solution at node j (>= n_delay):
    x vanishes strictly before time 0, so the window is truncated at the node
    of time 0; `left` selects the left limit at nodes where an atom lands
    exactly on the jump."""
    nd = stencil.grid.n_delay
    out = 0.0
    for s, frac, w in stencil.atoms:
        idx = j + s
        if frac == 0.0:
            if idx < nd:
                continue
            if idx == nd and left:
                continue
            out += w * x[idx]
        else:
            if idx + 1 <= nd:
                continue
            lo_val = x[idx] if idx >= nd else 0.0
            out += w * ((1.0 - frac) * lo_val + frac * x[idx + 1])
    if stencil.has_density:
        lo_panel = max(0, 2 * nd - j)  # first panel whose nodes are at/after time 0
        if lo_panel == 0:
            out += x[j - nd : j + 1] @ stencil.q
        else:
            seg = x[nd : j + 1]
            out += seg[1:] @ stencil.panel_right[lo_panel:]
            out += seg[:-1] @ stencil.panel_left[lo_panel:]
    return out


def solve_fundamental(theta: float, a: SignedMeasure, grid: Grid) -> Kernel:
    """Fundamental solution on [-r, T]: zero before 0, one at 0, then the
    delay ODE integrated by trapezoidal (Heun) steps."""
    nd, ns = grid.n_delay, grid.n_steps
    dt = grid.dt
    x = np.zeros(nd + ns + 1)
    x[nd] = 1.0
    if theta == 0.0:
        x[nd:] = 1.0
        return Kernel(grid=grid, x0_values=x)
    st = DelayStencil(a, grid)
    for k in range(ns):
        j = nd + k
        f_right = _jump_functional(st, x, j, left=False)
        x[j + 1] = x[j] + dt * theta * f_right  # predictor, in place
        f_left = _jump_functional(st, x, j + 1, left=True)
        x[j + 1] = x[j] + 0.5 * dt * theta * (f_right + f_left)
    return Kernel(grid=grid, x0_values=x)


def y_kernel(theta: float, a: SignedMeasure, kernel: Kernel) -> np.ndarray:
    """y(t) = integral x(t+u) a(du) on [0, T] (atom hits at the jump use the
    actual value x(0) = 1)."""
    if kernel.y_values is not None:
        return kernel.y_values
    grid = kernel.grid
    st = DelayStencil(a, grid)
    x = kernel.x0_values
    y = np.empty(grid.n_steps + 1)
    for k in range(grid.n_steps + 1):
        y[k] = _jump_functional(st, x, grid.n_delay + k, left=False)
    kernel.y_values = y
    return y


# ---------------------------------------------------------------------------
# residue expansion


def residue_expansion_eval(theta: float, a: SignedMeasure, roots, t):
    """Sum of p(t) e^(lambda t) over the listed roots, as a real number
    (conjugate pairs are expected to be present and cancel the imaginary
    part; the real part is returned)."""
    t_arr = np.asarray(t, dtype=float)
    acc = np.zeros(t_arr.shape, dtype=complex)
    for root in roots:
        if not root.p_poly:
            raise KernelError("root data missing p_poly; run build_root_data first")
        pv = np.zeros(t_arr.shape, dtype=complex)
        for c in reversed(root.p_poly):
            pv = pv * t_arr + c
        acc += pv * np.exp(root.lam * t_arr)
    out = acc.real
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# limiting Fisher information


def fisher_limit(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport | None = None,
    n_delay: int | None = None,
    tail_tol: float = 1e-10,
) -> float:
    """J = integral over [0, inf) of y(t)^2 dt, for subcritical (v* < 0)
    parameters: trapezoid on [0, T_cut] plus the analytic exponential tail
    bound chosen below tail_tol."""
    if report is None:
        report = classify(theta, a)
    if not report.v_star < -ZERO_TOL:
        raise KernelError("information diverges: v* >= 0")
    c = report.v_star / 2.0 if report.v_star != NEG_INF else -5.0 / a.r
    if n_delay is None:
        n_delay = min(max(int(round(a.r / 1e-3)), 64), 8192)

    horizon = max(2.0 * a.r, 8.0 / abs(c))
    grid = Grid(r=a.r, n_delay=n_delay, n_steps=int(math.ceil(horizon / (a.r / n_delay))))
    kern = solve_fundamental(theta, a, grid)
    y = y_kernel(theta, a, kern)
    ts = grid.state_times()
    window = ts >= 0.5 * grid.T
    C = float(np.max(np.abs(y[window]) * np.exp(-c * ts[window])))
    if C > 0.0:
        t_cut = math.log(tail_tol * 2.0 * abs(c) / C**2) / (2.0 * c)
        if t_cut > grid.T:
            grid = Grid(r=a.r, n_delay=n_delay, n_steps=int(math.ceil(t_cut / (a.r / n_delay))))
            kern = solve_fundamental(theta, a, grid)
            y = y_kernel(theta, a, kern)
        tail = C**2 * math.exp(2.0 * c * grid.T) / (2.0 * abs(c))
    else:
        tail = 0.0
    J = float(np.trapezoid(y * y, dx=grid.dt)) + tail
    return J


def fisher_theta0(a: SignedMeasure) -> float:
    """J_0 = integral over [0, r] of a([-t, 0])^2 dt, requiring
    a([-r, 0]) = 0 (the theta = 0 LAN case)."""
    tv = total_variation(a)
    if abs(tail_mass(a, a.r)) > 1e-12 * (1.0 + tv):
        raise KernelError("fisher_theta0 requires a([-r,0]) = 0 (otherwise theta=0 is LAQ)")
    # piecewise-polynomial tail mass: integrate its square exactly between
    # breakpoints with Gauss-Legendre of sufficient order
    brk = {0.0, a.r}
    max_deg = 0
    for u, _ in a.atoms:
        brk.add(-u)
    for p in a.density_pieces:
        brk.update((-p.lo, -p.hi))
        max_deg = max(max_deg, len(p.coeffs))
    pts = sorted(b for b in brk if -1e-12 <= b <= a.r + 1e-12)
    nodes, weights = np.polynomial.legendre.leggauss(max_deg + 2)
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo < 1e-15:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t_nodes = mid + half * nodes
        vals = np.array([tail_mass(a, float(t)) ** 2 for t in t_nodes])
        total += half * float(weights @ vals)
    return total
