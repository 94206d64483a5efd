"""Deterministic delay analysis: the fundamental solution of
x'(t) = theta * integral x(t+u) a(du), the kernel y(t) = integral
x(t+u) a(du), residue-expansion evaluation over characteristic roots, and
the limiting Fisher information.

Discretization: uniform grid with dt = r/n_delay, method of steps with an
order-2 Heun corrector taken one node at a time.  The fundamental solution
is x0 = 1(t >= 0) + z, with z continuous and 0 on [-r, 0] (its
variation-of-constants form), so y = A + Lz: the unit step's part
A(t) = a([-t, 0]) and its integral over each step are closed form
(`DelayStencil.unit_step`), and the one quadrature L, `DelayStencil`, reads
only continuous paths: z, the simulated paths and the initial-path term of
the mixed-normal limit laws (`limit_laws._initial_mix`).  It integrates the
density exactly against the piecewise-linear nodal basis and snaps atom
locations to grid nodes when within 1e-12 (linear interpolation otherwise).

`fisher_limit` solves nothing in time: in the LAN band y's Laplace
transform M_0/h is analytic on the imaginary axis, and J is its Parseval
integral there, by Gauss-Legendre panels and a closed-form tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import SignedMeasure, _leggauss_cached, _poly_defint, exp_moment_bound, exp_moments, has_zero_mass
from .measures import tail_mass, total_variation
from .special import sine_integral
from .spectrum import RegimeReport, classify, in_lan_band

ATOM_SNAP = 1e-12
MAX_GRID_NODES = 10**8  # nodes of a grid on [-r, T]: 0.8 GB per path of floats
FISHER_REL_TOL = 5e-9  # relative accuracy `fisher_limit` aims at


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
        if self.n_total > MAX_GRID_NODES:
            raise KernelError(f"a grid of {self.n_total} nodes exceeds the cap of {MAX_GRID_NODES}")

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
        if not math.isfinite(r / dt):
            raise KernelError(f"r/dt = {r / dt} is not finite (r={r}, dt={dt})")
        n_delay = int(round(r / dt))
        if n_delay < 1:
            raise KernelError(f"dt={dt} exceeds the delay horizon r={r}")
        dt_eff = r / n_delay
        if not math.isfinite(T / dt_eff):
            raise KernelError(f"T/dt = {T / dt_eff} is not finite (T={T}, dt={dt_eff})")
        n_steps = int(round(T / dt_eff))
        if n_steps < 1:
            raise KernelError(f"horizon T={T} is below one step dt={dt_eff}")
        return Grid(r=r, n_delay=n_delay, n_steps=n_steps)


@dataclass(frozen=True)
class Kernel:
    """`solve_fundamental`'s record: z = x0 - 1(t >= 0) on [-r, T] and the
    kernel y on [0, T].  A non-finite z or y is refused, naming its first
    time."""

    grid: Grid
    z_values: np.ndarray
    y_values: np.ndarray

    def __post_init__(self):
        nd = self.grid.n_delay  # node of t = 0 in z, of y[0]
        bad = [k + i for k, v in ((0, self.z_values), (nd, self.y_values)) for i in np.flatnonzero(~np.isfinite(v))[:1]]
        if bad:
            raise KernelError(f"the fundamental solution is not finite at t = {(min(bad) - nd) * self.grid.dt:.6g}")

    @property
    def x0_values(self) -> np.ndarray:
        """The fundamental solution x0 = 1(t >= 0) + z on [-r, T]."""
        return np.concatenate((self.z_values[: self.grid.n_delay], self.z_values[self.grid.n_delay :] + 1.0))


# ---------------------------------------------------------------------------
# delay-functional stencil


class DelayStencil:
    """Quadrature of v -> integral v(t+u) a(du) on the grid, for a path v
    that is continuous on [-r, T] (the fundamental solution's jump at 0 is
    `unit_step`'s part).

    Atoms become (index offset, interpolation fraction, weight) triples;
    the density becomes nodal weights q_j = integral of density * hat_j,
    also kept per panel for `unit_step`.  Paths are node-major: X[i] is the
    state at node i (node 0 is -r), a float for one path or a row of
    replicates for a batch.
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

    def apply(self, X: np.ndarray, j: int, out=None, density: bool = True):
        """Delay functional at node j >= n_delay.  X may be a memoryview of a
        path, whose reads are Python floats (the density's window sum reads
        it through `np.asarray`, a view).  With `out`, a row of replicates,
        the terms are added to it in place and it is returned: from a row of
        +0.0 that is the bits of the sum without `out`, which starts from
        0.0 and adds the atoms in order.  `density=False` leaves out the
        window sum, for a caller that forms it itself."""
        acc = 0.0 if out is None else out
        for s, frac, w in self.atoms:
            idx = j + s
            if frac == 0.0:
                acc += w * X[idx]
            else:
                acc += w * ((1.0 - frac) * X[idx] + frac * X[idx + 1])
        if self.has_density and density:
            X = np.asarray(X)  # .dot below: the bits of @ at less cost per call
            acc += X[j - self.grid.n_delay : j + 1].T.dot(self.q)
        return acc

    def unit_step(self, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
        """The functional of the unit step 1(t >= 0) on [0, n_steps*dt], as
        A at nodes 0..n_steps, A_k = a([-t_k, 0]) (an atom on a node counted
        there), and G, A's integral over step k in units of dt: exact for
        the atoms (an off-grid atom counts the fraction frac of the step
        that holds its jump) and the trapezoid (A_k + A_{k+1})/2 for the
        density.  Past the first delay window both are a([-r, 0])."""
        A = np.concatenate(([0.0], np.cumsum((self.panel_left + self.panel_right)[::-1])))
        G = 0.5 * (A[:-1] + A[1:])  # over the first delay window, then extended
        for s, frac, w in self.atoms:
            A[-s:] += w
            G[-s:] += w
            if frac != 0.0:
                G[-s - 1] += frac * w
        A_out, G_out = np.full(n_steps + 1, A[-1]), np.full(n_steps, A[-1])
        A_out[: self.grid.n_delay + 1], G_out[: self.grid.n_delay] = A[: n_steps + 1], G[:n_steps]
        return A_out, G_out

    def path(self, X: np.ndarray) -> np.ndarray:
        """The functional at every node of [0, T], node-major like X."""
        nd, ns = self.grid.n_delay, self.grid.n_steps
        Y = np.empty((ns + 1,) + np.shape(X)[1:])
        for k in range(ns + 1):
            Y[k] = self.apply(X, nd + k)
        return Y


# ---------------------------------------------------------------------------
# fundamental solution


def solve_fundamental(theta: float, a: SignedMeasure, grid: Grid) -> Kernel:
    """Fundamental solution x0 = 1(t >= 0) + z on [-r, T]: z is zero up to
    0, then z' = theta (A + Lz) integrated by trapezoidal (Heun) steps, with
    A and its step integrals G from `DelayStencil.unit_step` and L the
    stencil.  The predictor z*_{k+1} = z_k + theta dt (A_k + Lz_k) records
    the kernel y = A + Lz on [0, T] with the bits of A plus
    `DelayStencil.path` over z (apply at node j reads only nodes <= j); the
    corrector is z_{k+1} = z_k + (theta dt G_k + theta dt/2 (Lz_k + Lz*_{k+1})).
    The steps run on Python floats read through memoryviews of z and y (no
    copy), which skips boxing numpy scalars and keeps the bits of a loop over
    arrays."""
    if not math.isfinite(theta):
        raise KernelError(f"theta must be finite, got {theta}")
    nd, ns, dt = grid.n_delay, grid.n_steps, grid.dt
    z = np.zeros(nd + ns + 1)
    y = np.empty(ns + 1)
    st = DelayStencil(a, grid)
    A, step = st.unit_step(ns)
    # the products each step evaluates first, in theta's precision, then
    # widened as a step widens them against its float64 stencil sums
    full, half = float(dt * theta), float(0.5 * dt * theta)
    step *= full  # theta dt G: the unit step's part of each increment
    with np.errstate(over="ignore", invalid="ignore"):
        Z, Y, A_, S = memoryview(z), memoryview(y), memoryview(A), memoryview(step)
        for k in range(ns):
            j = nd + k
            lz = st.apply(Z, j)
            Y[k] = A_[k] + lz
            Z[j + 1] = Z[j] + full * Y[k]  # predictor, in place
            Z[j + 1] = Z[j] + (S[k] + half * (lz + st.apply(Z, j + 1)))
        y[ns] = A[ns] + st.apply(z, nd + ns)
    return Kernel(grid=grid, z_values=z, y_values=y)


def y_kernel(theta: float, a: SignedMeasure, kernel: Kernel) -> np.ndarray:
    """y(t) = integral x0(t+u) a(du) = A + Lz on [0, T] (an atom on the jump
    reads x0(0) = 1), as `solve_fundamental(theta, a, grid)` records it."""
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


def fisher_limit(theta: float, a: SignedMeasure, report: RegimeReport | None = None) -> float:
    """J = integral over [0, inf) of y(t)^2 dt in the LAN band of v*, as
    (1/pi) integral over [0, inf) of |M_0(iw)/h(iw)|^2 dw: `_axis_head` on
    panels 2/r wide, with more edges at Im lam +- |Re lam| 2^k around each
    root of the report with a nonzero kernel polynomial (near a LAN boundary
    a Lorentzian of width |Re lam|; a root the report leaves out lies below
    classify's last cut, over 1/r left of the axis), and `_axis_tail` past
    Omega.  The tail leaves out O(K/w^4): K = (|a| reach + B)^2 + 4 |theta|
    |a({0})|^3 reach, |a| the total variation, reach = |theta| |a - a({0})|
    >= |theta R|, B the density's term of `exp_moment_bound`, and the second
    term the lag-0 atom's cross terms with R.  Omega puts K/(3 Omega^3) at
    FISHER_REL_TOL/16 of pi J0, J0 from the panels up to the last refined
    root or to 2 reach, where |theta R/s| <= 1/2, plus one panel.  A lag-0
    atom alone is all tail, exact from Omega = 0.  At theta = 0 with
    a([-r, 0]) = 0 it is the closed form `fisher_theta0`."""
    if theta == 0.0 and has_zero_mass(a):
        return fisher_theta0(a)
    if report is None:
        report = classify(theta, a)
    if not in_lan_band(report.v_star, a.r):
        raise KernelError("information diverges: v* >= 0")
    if not math.isfinite(theta):
        raise KernelError(f"theta must be finite, got {theta}")
    if not a.density_pieces and all(u == 0.0 for u, _ in a.atoms):
        return _axis_tail(theta, a, 0.0) / math.pi
    width = 2.0 / a.r
    edges = [0.0]
    for rt in report.roots:
        g = -rt.lam.real
        if rt.m_tilde >= 0 and rt.lam.imag >= 0.0 and 0.0 < g < width:
            edges.append(rt.lam.imag)
            while g < width:
                edges += [rt.lam.imag - g, rt.lam.imag + g]
                g *= 2.0
    tv, a0 = total_variation(a), abs(sum(w for u, w in a.atoms if u == 0.0))
    reach = abs(theta) * (tv - a0)
    omega0 = max(max(edges), 2.0 * reach) + width
    edges = np.unique(np.clip(np.concatenate((edges, np.arange(0.0, omega0, width), [omega0])), 0.0, omega0))
    head = _axis_head(theta, a, edges)
    K = (tv * reach + exp_moment_bound(a, 0.0)[1]) ** 2 + 4.0 * abs(theta) * a0**3 * reach
    omega = max(omega0, (16.0 * K / (3.0 * FISHER_REL_TOL * (head + _axis_tail(theta, a, omega0)))) ** (1.0 / 3.0))
    if omega > omega0:
        head += _axis_head(theta, a, np.append(np.arange(omega0, omega, width), omega))
    return (head + _axis_tail(theta, a, omega)) / math.pi


def _axis_head(theta: float, a: SignedMeasure, edges: np.ndarray) -> float:
    """Integral of |M_0(iw)/h(iw)|^2 over [edges[0], edges[-1]]: a 16-node
    Gauss-Legendre rule per panel between edges, 4096 panels at a time."""
    x, w = _leggauss_cached(16)
    total = 0.0
    for i in range(0, edges.size - 1, 4096):
        e = edges[i : i + 4097]
        half = 0.5 * np.diff(e)[:, None]
        iw = 1j * (0.5 * (e[1:] + e[:-1])[:, None] + half * x)
        m0 = exp_moments(a, iw, (0,))[0]
        total += float(np.sum(half * w * np.abs(m0 / (iw - theta * m0)) ** 2))
    return total


def _axis_tail(theta: float, a: SignedMeasure, omega: float) -> float:
    """Integral of |M_0(iw)/h(iw)|^2 over (omega, inf) from its expansion
    |M_0|^2/|s|^2 (1 + 2 Re theta R/s) around s = iw - theta a({0}), R =
    M_0 - a({0}), exact for a lag-0 atom.  Atoms at lags u, v give |M_0|^2
    the terms w_u w_v cos((u - v) w), and a density piece's ends e its
    values +-p(e) e^(iwe)/(iw).  With u = v they keep |s|^2 and integrate
    by atan; the rest take w^2 and integrate by `sine_integral`."""
    lags, ends = {}, {}  # weight per atom location, value per density piece end
    for u, w in a.atoms:
        lags[u] = lags.get(u, 0.0) + w
    for p in a.density_pieces:
        for e, q in ((p.hi, 1.0), (p.lo, -1.0)):
            ends[e] = ends.get(e, 0.0) + q * float(np.polynomial.polynomial.polyval(e, p.coeffs))
    c = abs(theta * lags.get(0.0, 0.0))
    flat = math.atan2(c, omega) / c if c else 1.0 / omega  # integral of 1/(w^2 + c^2)
    total = 0.0
    for u, w in lags.items():
        for e, q in ends.items():
            total -= 2.0 * w * q * _sin_over_cube(u - e, omega)
        for v, x in lags.items():
            d = abs(u - v)
            total += w * x * (flat if d == 0.0 else math.cos(d * omega) / omega - d * (0.5 * math.pi - sine_integral(d * omega)))
            for p, z in lags.items():
                total += 2.0 * theta * w * x * z * _sin_over_cube(p + u - v, omega)
    return total


def _sin_over_cube(e: float, omega: float) -> float:
    """Integral of sin(e w)/w^3 over (omega, inf), e^2 sign(e) g(|e| omega)
    with g(X) = sin X/(2X^2) + cos X/(2X) - (pi/2 - Si(X))/2."""
    if e == 0.0:
        return 0.0
    X = abs(e) * omega
    g = math.sin(X) / (2.0 * X * X) + math.cos(X) / (2.0 * X) - 0.5 * (0.5 * math.pi - sine_integral(X))
    return math.copysign(e * e, e) * g


def fisher_theta0(a: SignedMeasure) -> float:
    """J_0 = integral over [0, r] of a([-t, 0])^2 dt, requiring
    a([-r, 0]) = 0 (the theta = 0 LAN case)."""
    if not has_zero_mass(a):
        raise KernelError("fisher_theta0 requires a([-r,0]) = 0 (otherwise theta=0 is LAQ)")
    # piecewise-polynomial tail mass: integrate its square exactly between
    # breakpoints with Gauss-Legendre of sufficient order
    brk = {0.0, a.r, *(-u for u, _ in a.atoms), *(-e for p in a.density_pieces for e in (p.lo, p.hi))}
    max_deg = max((len(p.coeffs) for p in a.density_pieces), default=0)
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
