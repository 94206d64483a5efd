"""Deterministic delay analysis: the fundamental solution of
x'(t) = theta * integral x(t+u) a(du), the kernel y(t) = integral
x(t+u) a(du), residue-expansion evaluation over characteristic roots, and
the limiting Fisher information.

Discretization: uniform grid with dt = r/n_delay, method of steps with an
order-2 Heun corrector.  The fundamental solution is x0 = 1(t >= 0) + z,
with z continuous and 0 on [-r, 0] (its variation-of-constants form), so
y = A + Lz: the unit step's part A(t) = a([-t, 0]) and its integral over
each step are closed form (`DelayStencil.unit_step`), and the one
quadrature L, `DelayStencil`, reads only continuous paths: z, the simulated
paths and the initial-path term of the mixed-normal limit laws
(`limit_laws._initial_mix`).  It integrates the density exactly against the
piecewise-linear nodal basis and snaps atom locations to grid nodes when
within 1e-12 (linear interpolation otherwise).

`solve_fundamental` takes one of two routes through the same Heun steps,
with the same bits: whole chunks of the method of steps for an atom-only
stencil whose reads lie at least `CHUNK_FLOOR` nodes back, and otherwise,
densities included, one node at a time on Python floats.

`fisher_limit` aims at a stated relative accuracy, FISHER_REL_TOL, rather
than a fixed resolution: trapezoids of y^2 split at the jumps of A on grids
of n, 2n, 4n, ... delay nodes over one horizon, from the fewest n (at least
FISHER_FIRST_NODES) on which the Heun step is stable, each pair combined by
one Richardson step, until the error estimated from successive
extrapolations is below it.  A cap on the doublings, FISHER_MAX_DOUBLINGS,
that ends them first is reported by a RuntimeWarning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .measures import SignedMeasure, _leggauss_cached, _poly_defint, has_zero_mass, tail_mass, total_variation
from .spectrum import NEG_INF, RegimeReport, classify, in_lan_band

ATOM_SNAP = 1e-12
# shortest stencil lag that `solve_fundamental` advances as whole chunks
# rather than step by step (chunks of 16 already beat stepping)
CHUNK_FLOOR = 16
MAX_GRID_NODES = 10**8  # nodes of a grid on [-r, T]: 0.8 GB per path of floats
FISHER_TAIL_TOL = 1e-10  # bound on the analytic tail of the Fisher integral
FISHER_REL_TOL = 5e-9  # relative error estimate `fisher_limit` stops at
FISHER_FIRST_NODES = 32  # fewest delay nodes of `fisher_limit`'s first solve
FISHER_MAX_DOUBLINGS = 8  # its finest solve has 2^8 times the first one's nodes


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
    """`solve_fundamental`'s record: z = x0 - 1(t >= 0) on [-r, T], the
    kernel y on [0, T] and the stencil that made them.  A non-finite z or y
    is refused, naming its first time."""

    grid: Grid
    z_values: np.ndarray
    y_values: np.ndarray
    stencil: DelayStencil

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
        # every atom read of a Heun step lies at least `lag` nodes behind the
        # node the step writes (an off-grid atom also reads the node after
        # its floor)
        self.lag = min((-s - (frac != 0.0) for s, frac, _ in self.atoms), default=nd)

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

    def apply_span(self, X: np.ndarray, j: int, m: int) -> np.ndarray:
        """`apply` of an atom-only stencil at nodes j, ..., j+m-1, as one
        array: the same products, added in atom order to zero, so every
        element has the bits of `apply`."""
        out = np.zeros(m)
        for s, frac, w in self.atoms:
            i = j + s
            if frac == 0.0:
                out += w * X[i : i + m]
            else:
                out += w * ((1.0 - frac) * X[i : i + m] + frac * X[i + 1 : i + m + 1])
        return out

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


def solve_fundamental(theta: float, a: SignedMeasure, grid: Grid, prefix: Kernel | None = None) -> Kernel:
    """Fundamental solution x0 = 1(t >= 0) + z on [-r, T]: z is zero up to
    0, then z' = theta (A + Lz) integrated by trapezoidal (Heun) steps, with
    A and its step integrals G from `DelayStencil.unit_step` and L the
    stencil.  The predictor z*_{k+1} = z_k + theta dt (A_k + Lz_k) records
    the kernel y = A + Lz on [0, T] with the bits of A plus
    `DelayStencil.path` over z (apply at node j reads only nodes <= j); the
    corrector is z_{k+1} = z_k + (theta dt G_k + theta dt/2 (Lz_k + Lz*_{k+1})).
    `prefix`, a solution of the same problem on a grid with the same r and
    n_delay and no more steps, is continued from its last node rather than
    solved again: every node is the bits of a fresh solve.

    An atom-only stencil whose lag L is at least `CHUNK_FLOOR` advances L
    steps at a time: the predictor is never read, the stencil sums of the
    chunk come from `DelayStencil.apply_span`, and the nodes are the
    increments accumulated by `np.cumsum`, the sequential additions of the
    step loop.  Every other stencil steps on Python floats read through
    memoryviews of z and y (no copy), which skips boxing numpy scalars and
    keeps the bits of a loop over arrays."""
    if not math.isfinite(theta):
        raise KernelError(f"theta must be finite, got {theta}")
    nd, ns, dt = grid.n_delay, grid.n_steps, grid.dt
    z = np.zeros(nd + ns + 1)
    y = np.empty(ns + 1)
    k0 = 0
    if prefix is not None:
        k0 = prefix.grid.n_steps
        if (prefix.grid.r, prefix.grid.n_delay) != (grid.r, nd) or k0 > ns:
            raise KernelError("prefix must be a shorter solve on the same delay grid")
        z[: nd + k0 + 1] = prefix.z_values
        y[:k0] = prefix.y_values[:k0]
    st = DelayStencil(a, grid)
    A, step = st.unit_step(ns)
    # the products each step evaluates first, in theta's precision, then
    # widened as a step widens them against its float64 stencil sums
    full, half = float(dt * theta), float(0.5 * dt * theta)
    step *= full  # theta dt G: the unit step's part of each increment
    with np.errstate(over="ignore", invalid="ignore"):
        if not st.has_density and st.lag >= CHUNK_FLOOR:
            for k in range(k0, ns, st.lag):
                j, m = nd + k, min(st.lag, ns - k)
                y[k : k + m] = lz = st.apply_span(z, j, m)
                inc = step[k : k + m] + half * (lz + st.apply_span(z, j + 1, m))
                inc[0] += z[j]
                np.cumsum(inc, out=z[j + 1 : j + 1 + m])
            y[k0:ns] += A[k0:ns]
        else:
            Z, Y, A_, S = memoryview(z), memoryview(y), memoryview(A), memoryview(step)
            for k in range(k0, ns):
                j = nd + k
                lz = st.apply(Z, j)
                Y[k] = A_[k] + lz
                Z[j + 1] = Z[j] + full * Y[k]  # predictor, in place
                Z[j + 1] = Z[j] + (S[k] + half * (lz + st.apply(Z, j + 1)))
        y[ns] = A[ns] + st.apply(z, nd + ns)
    return Kernel(grid=grid, z_values=z, y_values=y, stencil=st)


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
    """J = integral over [0, inf) of y(t)^2 dt, for parameters in the LAN
    band of v*.  Each solve gives the trapezoid I_n of y^2 on [0, T] over n
    delay nodes, split at the jumps of y (`_y_squared_integral`).  The first
    solve is on the fewest n = FISHER_FIRST_NODES * 2^k with
    |theta| |a| r / n <= 1 (|a| the total variation), which keeps its Heun
    steps stable; T and the analytic exponential tail bound, chosen below
    FISHER_TAIL_TOL, come from it, and it is continued to T.  Solves on n
    and 2n nodes give the Richardson value R_n = (4 I_2n - I_n)/3 + tail.
    n doubles until the error of the latest R, estimated as its move from
    the one before over 2^p - 1, is at most FISHER_REL_TOL relative.  The
    order p comes from the ratio 2^p of the last two moves, at most 3 (the
    Heun expansion's next term; an on-grid lag or a density shows it), and
    is 2 (an off-grid lag, whose interpolation error Richardson does not
    cancel) until there are two.  After FISHER_MAX_DOUBLINGS doublings of
    the first solve's nodes it returns the latest R with a RuntimeWarning
    giving the estimate.  At theta = 0 with a([-r, 0]) = 0 it is the closed
    form `fisher_theta0`."""
    if theta == 0.0 and has_zero_mass(a):
        return fisher_theta0(a)
    if report is None:
        report = classify(theta, a)
    if not in_lan_band(report.v_star, a.r):
        raise KernelError("information diverges: v* >= 0")
    c = report.v_star / 2.0 if report.v_star != NEG_INF else -5.0 / a.r
    if not math.isfinite(theta):
        raise KernelError(f"theta must be finite, got {theta}")
    stiffness = abs(theta) * total_variation(a) * a.r
    n = FISHER_FIRST_NODES
    while n < stiffness:
        n *= 2

    horizon = max(2.0 * a.r, 8.0 / abs(c))
    grid = Grid(r=a.r, n_delay=n, n_steps=int(math.ceil(horizon / (a.r / n))))
    kern = solve_fundamental(theta, a, grid)
    y = y_kernel(theta, a, kern)
    ts = grid.state_times()
    window = ts >= 0.5 * grid.T
    # log C, C = max |y(t)| e^(-c t) over the second half of [0, T]
    with np.errstate(divide="ignore"):
        log_C = float(np.max(np.log(np.abs(y[window])) - c * ts[window]))
    if log_C > -math.inf:
        t_cut = (math.log(FISHER_TAIL_TOL * 2.0 * abs(c)) - 2.0 * log_C) / (2.0 * c)
        if t_cut > grid.T:  # carry the same solve on to t_cut
            grid = Grid(r=a.r, n_delay=n, n_steps=int(math.ceil(t_cut / (a.r / n))))
            kern = solve_fundamental(theta, a, grid, prefix=kern)
        tail = math.exp(2.0 * (log_C + c * grid.T)) / (2.0 * abs(c))
    else:
        tail = 0.0
    coarse = _y_squared_integral(kern)
    extrapolated = move = None
    while True:
        # twice the nodes on the same [0, T]
        grid = Grid(r=a.r, n_delay=2 * grid.n_delay, n_steps=2 * grid.n_steps)
        fine = _y_squared_integral(solve_fundamental(theta, a, grid))
        previous, extrapolated = extrapolated, (4.0 * fine - coarse) / 3.0 + tail
        error = math.inf
        if previous is not None:
            last_move, move = move, abs(extrapolated - previous)
            if last_move is None:
                rate = 4.0
            else:
                rate = 8.0 if 8.0 * move <= last_move else last_move / move
            error = move / (rate - 1.0) if rate > 1.0 else math.inf
            if error <= FISHER_REL_TOL * abs(extrapolated):
                return float(extrapolated)
        if grid.n_delay >= n << FISHER_MAX_DOUBLINGS:
            warnings.warn(
                f"fisher_limit: relative error estimate {error / abs(extrapolated):.2g} is above "
                f"{FISHER_REL_TOL:g} at the cap of {grid.n_delay} delay nodes",
                RuntimeWarning,
                stacklevel=2,
            )
            return float(extrapolated)
        coarse = fine


def _y_squared_integral(kern: Kernel) -> float:
    """Trapezoid of y^2 over the kernel's grid, split at every jump of y = A
    + Lz: at t = -u for atoms (u, w), A jumps by their sum w.  On the grid the panel
    ending at the jump takes y's left limit y - w; off it, the panel holding
    the jump is two trapezoids, with y's other terms interpolated to the
    jump from the panel's ends.  The atom reads 0 before the jump, w just
    after it and c = w (1 + frac z(dt)) at the panel's end."""
    grid, st = kern.grid, kern.stencil
    nd, ns, dt = grid.n_delay, grid.n_steps, grid.dt
    z, y = kern.z_values, kern.y_values
    total = float(np.trapezoid(y * y, dx=dt))
    jumps: dict[tuple[int, float], float] = {}  # atoms the stencil puts in one place jump as one
    for s, frac, w in st.atoms:
        jumps[s, frac] = jumps.get((s, frac), 0.0) + w
    for (s, frac), w in jumps.items():
        i = -s - (frac != 0.0)  # the jump node, or the panel [t_i, t_i+1] holding the jump
        if frac == 0.0 and 0 < i <= ns:
            total += 0.5 * dt * ((y[i] - w) ** 2 - y[i] ** 2)
        elif frac != 0.0 and i < ns:
            c = w * (1.0 + frac * z[nd + 1])
            y_left = frac * y[i] + (1.0 - frac) * (y[i + 1] - c)
            split = (1.0 - frac) * (y[i] ** 2 + y_left**2) + frac * ((y_left + w) ** 2 + y[i + 1] ** 2)
            total += 0.5 * dt * (split - y[i] ** 2 - y[i + 1] ** 2)
    return total


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
