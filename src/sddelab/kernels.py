"""Deterministic delay analysis: the fundamental solution of
x'(t) = theta * integral x(t+u) a(du), the kernel y(t) = integral
x(t+u) a(du), residue-expansion evaluation over characteristic roots, and
the limiting Fisher information.

Discretization: uniform grid with dt = r/n_delay, method of steps with an
order-2 Heun corrector.  One quadrature, `DelayStencil`, serves the
fundamental solution, the kernel y, the simulated paths and the initial-path
term of the mixed-normal limit laws (`limit_laws._initial_mix`): exact integrals
of the density against the piecewise-linear nodal basis, atom locations
snapped to grid nodes when within 1e-12 (linear interpolation otherwise),
and the window truncated at the unit jump of the fundamental solution at
time 0, with left limits where an atom lands on it (order 2 there).

`solve_fundamental` takes one of two routes through the same Heun steps,
with the same bits: whole chunks of the method of steps for an atom-only
stencil whose reads lie at least `CHUNK_FLOOR` nodes back, and otherwise,
densities included, one node at a time on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import SignedMeasure, _leggauss_cached, _poly_defint, has_zero_mass, tail_mass
from .spectrum import NEG_INF, RegimeReport, classify, in_lan_band

ATOM_SNAP = 1e-12
# shortest stencil lag that `solve_fundamental` advances as whole chunks
# rather than step by step (chunks of 16 already beat stepping)
CHUNK_FLOOR = 16
FISHER_TAIL_TOL = 1e-10  # bound on the analytic tail of the Fisher integral


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform grid covering [-r, T] with dt = r/n_delay and T = n_steps*dt."""

    r: float
    n_delay: int
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0) or self.n_delay < 1 or self.n_steps < 1:
            raise KernelError("grid needs a finite r > 0, n_delay >= 1, n_steps >= 1")

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
        if not (math.isfinite(T) and math.isfinite(dt) and dt > 0.0):
            raise KernelError(f"grid needs a finite T and dt with dt > 0, got T={T}, dt={dt}")
        n_delay = int(round(r / dt))
        if n_delay < 1:
            raise KernelError(f"dt={dt} exceeds the delay horizon r={r}")
        dt_eff = r / n_delay
        n_steps = int(round(T / dt_eff))
        if n_steps < 1:
            raise KernelError(f"horizon T={T} is below one step dt={dt_eff}")
        return Grid(r=r, n_delay=n_delay, n_steps=n_steps)


@dataclass(frozen=True)
class Kernel:
    """`solve_fundamental`'s record: x0 on [-r, T] and the kernel y on [0, T]."""

    grid: Grid
    x0_values: np.ndarray
    y_values: np.ndarray


# ---------------------------------------------------------------------------
# delay-functional stencil


class DelayStencil:
    """Quadrature of v -> integral v(t+u) a(du) on the grid.

    Atoms become (index offset, interpolation fraction, weight) triples;
    the density becomes nodal weights q_j = integral of density * hat_j,
    also kept per panel so the window can be truncated at the node where a
    path begins.  Paths are node-major: X[i] is the state at node i (node 0
    is -r), a float for one path or a row of replicates for a batch.
    """

    def __init__(self, a: SignedMeasure, grid: Grid):
        self.grid = grid
        dt, nd = grid.dt, grid.n_delay
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
            j = np.arange(j_lo, j_hi + 1)
            lo, hi = np.maximum(p.lo, nodes[j]), np.minimum(p.hi, nodes[j + 1])
            keep = hi > lo
            j, lo, hi = j[keep], lo[keep], hi[keep]
            # hat_j falls 1 -> 0 over the panel, hat_{j+1} rises 0 -> 1 as
            # (u - u_j)/dt; prod_rise holds the coefficients of p * rise
            c = np.asarray(p.coeffs, dtype=float)[:, None]
            prod_rise = np.zeros((c.shape[0] + 1, j.size))
            prod_rise[1:] += c * (1.0 / dt)
            prod_rise[:-1] += c * (-nodes[j] / dt)
            int_rise = _poly_defint(prod_rise, lo, hi)
            int_full = _poly_defint(p.coeffs, lo, hi)
            self.panel_right[j] += int_rise
            self.panel_left[j] += int_full - int_rise
        self.q = np.zeros(nd + 1)
        self.q[:-1] += self.panel_left
        self.q[1:] += self.panel_right
        self.has_density = bool(a.density_pieces)
        # every atom read of a Heun step lies at least `lag` nodes behind the
        # node the step writes (an off-grid atom also reads the node after
        # its floor)
        self.lag = min((-s - (frac != 0.0) for s, frac, _ in self.atoms), default=nd)

    def apply(self, X: np.ndarray, j: int, start: int = 0, left: bool = False, out=None, density: bool = True):
        """Delay functional at node j >= n_delay.  X is zero before node
        `start`: 0 for a simulated path (continuous initial segment),
        n_delay for the fundamental solution (jump at time 0).  Reads before
        `start` add those zeros; the two reads across the jump are skipped:
        an atom on `start` when `left` takes the left limit there, and an
        off-grid atom straddling `start`, which sees the zero before it.  X may
        be a memoryview of a path, whose reads are Python floats (the
        density's window sum reads it through `np.asarray`, a view).  With
        `out`, a row of replicates, the terms are added to it in place and
        it is returned: from a row of +0.0 that is the bits of the sum
        without `out`, which starts from 0.0 and adds the atoms in order.
        `density=False` leaves out the window sum, for a caller that forms
        it itself."""
        nd = self.grid.n_delay
        acc = 0.0 if out is None else out
        for s, frac, w in self.atoms:
            idx = j + s
            if frac == 0.0:
                if idx != start or not left:
                    acc += w * X[idx]
            elif idx + 1 != start:
                acc += w * ((1.0 - frac) * X[idx] + frac * X[idx + 1])
        if self.has_density and density:
            X = np.asarray(X)  # .dot below: the bits of @ at less cost per call
            lo = start + nd - j  # first panel whose nodes are at/after start
            if lo <= 0:
                acc += X[j - nd : j + 1].T.dot(self.q)
            else:
                seg = X[start : j + 1]
                acc += seg[1:].T.dot(self.panel_right[lo:])
                acc += seg[:-1].T.dot(self.panel_left[lo:])
        return acc

    def apply_span(self, X: np.ndarray, j: int, m: int, start: int, left: bool = False) -> np.ndarray:
        """`apply` of an atom-only stencil at nodes j, ..., j+m-1 of a path
        X that is zero before `start`, as one array: the same products,
        added in atom order to zero, so every element has the bits of
        `apply`.  A skipped read (the left limit at `start`, an off-grid
        atom straddling it) is zeroed; adding +0 changes no sum."""
        out = np.zeros(m)
        for s, frac, w in self.atoms:
            i = j + s
            if frac == 0.0:
                term = w * X[i : i + m]
                cut = start - i if left else -1
            else:
                term = w * ((1.0 - frac) * X[i : i + m] + frac * X[i + 1 : i + m + 1])
                cut = start - 1 - i
            if 0 <= cut < m:
                term[cut] = 0.0
            out += term
        return out

    def path(self, X: np.ndarray, start: int = 0) -> np.ndarray:
        """The functional at every node of [0, T], node-major like X."""
        nd, ns = self.grid.n_delay, self.grid.n_steps
        Y = np.empty((ns + 1,) + np.shape(X)[1:])
        for k in range(ns + 1):
            Y[k] = self.apply(X, nd + k, start)
        return Y


# ---------------------------------------------------------------------------
# fundamental solution


def solve_fundamental(theta: float, a: SignedMeasure, grid: Grid, prefix: Kernel | None = None) -> Kernel:
    """Fundamental solution on [-r, T]: zero before 0, one at 0, then the
    delay ODE integrated by trapezoidal (Heun) steps, whose predictors
    record the kernel y on [0, T] with the bits of `DelayStencil.path` over
    the solution (apply at node j reads only nodes <= j).  `prefix`, a
    solution of the same problem on a grid with the same r and n_delay and
    no more steps, is continued from its last node rather than solved
    again: every node is the bits of a fresh solve.

    An atom-only stencil whose lag L is at least `CHUNK_FLOOR` advances L
    steps at a time: the predictor is never read, the stencil sums of the
    chunk come from `DelayStencil.apply_span`, and the nodes are
    x[j] + ((0.5*dt)*theta)*(f_right + f_left) accumulated by `np.cumsum`,
    the sequential additions of the step loop.  Every other stencil steps
    on Python floats read through memoryviews of x and y (no copy), which
    skips boxing numpy scalars and keeps the bits of a loop over arrays."""
    if not math.isfinite(theta):
        raise KernelError(f"theta must be finite, got {theta}")
    nd, ns, dt = grid.n_delay, grid.n_steps, grid.dt
    x = np.zeros(nd + ns + 1)
    y = np.empty(ns + 1)
    x[nd] = 1.0
    k0 = 0
    if prefix is not None:
        k0 = prefix.grid.n_steps
        if (prefix.grid.r, prefix.grid.n_delay) != (grid.r, nd) or k0 > ns:
            raise KernelError("prefix must be a shorter solve on the same delay grid")
        x[: nd + k0 + 1] = prefix.x0_values
        y[:k0] = prefix.y_values[:k0]
    st = DelayStencil(a, grid)
    # the products each step evaluates first, in theta's precision, then
    # widened as a step widens them against its float64 stencil sums
    full, half = float(dt * theta), float(0.5 * dt * theta)
    if not st.has_density and st.lag >= CHUNK_FLOOR:
        for k in range(k0, ns, st.lag):
            j, m = nd + k, min(st.lag, ns - k)
            y[k : k + m] = f_right = st.apply_span(x, j, m, start=nd)
            inc = half * (f_right + st.apply_span(x, j + 1, m, start=nd, left=True))
            inc[0] += x[j]
            np.cumsum(inc, out=x[j + 1 : j + 1 + m])
    else:
        X, Y = memoryview(x), memoryview(y)
        for k in range(k0, ns):
            j = nd + k
            Y[k] = f_right = st.apply(X, j, start=nd)
            X[j + 1] = X[j] + full * f_right  # predictor, in place
            f_left = st.apply(X, j + 1, start=nd, left=True)
            X[j + 1] = X[j] + half * (f_right + f_left)
    y[ns] = st.apply(x, nd + ns, start=nd)
    return Kernel(grid=grid, x0_values=x, y_values=y)


def y_kernel(theta: float, a: SignedMeasure, kernel: Kernel) -> np.ndarray:
    """y(t) = integral x(t+u) a(du) on [0, T] (atom hits at the jump use the
    actual value x(0) = 1), as `solve_fundamental(theta, a, grid)` records it."""
    return kernel.y_values


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
        acc += np.polynomial.polynomial.polyval(t_arr, root.p_poly) * np.exp(root.lam * t_arr)
    out = acc.real
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# limiting Fisher information


def fisher_limit(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport | None = None,
    n_delay: int | None = None,
) -> float:
    """J = integral over [0, inf) of y(t)^2 dt, for parameters in the LAN
    band of v*: trapezoid on [0, T_cut] plus the analytic exponential tail
    bound chosen below FISHER_TAIL_TOL.  At theta = 0 with a([-r, 0]) = 0 it
    is the closed form `fisher_theta0`."""
    if theta == 0.0 and has_zero_mass(a):
        return fisher_theta0(a)
    if report is None:
        report = classify(theta, a)
    if not in_lan_band(report.v_star, a.r):
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
        t_cut = math.log(FISHER_TAIL_TOL * 2.0 * abs(c) / C**2) / (2.0 * c)
        if t_cut > grid.T:  # carry the same solve on to t_cut
            grid = Grid(r=a.r, n_delay=n_delay, n_steps=int(math.ceil(t_cut / (a.r / n_delay))))
            kern = solve_fundamental(theta, a, grid, prefix=kern)
            y = y_kernel(theta, a, kern)
        tail = C**2 * math.exp(2.0 * c * grid.T) / (2.0 * abs(c))
    else:
        tail = 0.0
    return float(np.trapezoid(y * y, dx=grid.dt)) + tail


def fisher_theta0(a: SignedMeasure) -> float:
    """J_0 = integral over [0, r] of a([-t, 0])^2 dt, requiring
    a([-r, 0]) = 0 (the theta = 0 LAN case)."""
    if not has_zero_mass(a):
        raise KernelError("fisher_theta0 requires a([-r,0]) = 0 (otherwise theta=0 is LAQ)")
    # piecewise-polynomial tail mass: integrate its square exactly between
    # breakpoints with Gauss-Legendre of sufficient order
    brk = {0.0, a.r, *(-u for u, _ in a.atoms)}
    max_deg = 0
    for p in a.density_pieces:
        brk.update((-p.lo, -p.hi))
        max_deg = max(max_deg, len(p.coeffs))
    pts = sorted(b for b in brk if -1e-12 <= b <= a.r + 1e-12)
    nodes, weights = _leggauss_cached(max_deg + 2)
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo < 1e-15:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t_nodes = mid + half * nodes
        vals = np.array([tail_mass(a, float(t)) ** 2 for t in t_nodes])
        total += half * float(weights @ vals)
    return total
