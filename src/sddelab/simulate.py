"""Euler-Maruyama simulation of the linear SDDE
dX(t) = theta * (integral X(t+u) a(du)) dt + dW(t) with a fixed continuous
initial path on [-r, 0].

Brownian increments come from a counter-based generator (Philox) keyed by a
64-bit seed; replicate seeds are derived from a master seed by a splittable
hash so replicates are reproducible and order-independent.

One time-major stepper advances a batch of paths together: node i of the
state is the row X[i] of replicates, and the delay functional is the one
`kernels.DelayStencil`, applied at a node of that buffer (a simulated path
begins at node 0, since its initial segment is continuous).
`simulate_batch` steps a buffer covering [-r, T] and returns row-major
(W, X, Y).  `simulate_sums` keeps only a window of n_delay + 1 + BLOCK nodes
whose last n_delay + 1 rows slide to the front after each block, draws each
replicate's increments block by block (the same numbers as
`brownian_increments`), and returns running sums of Y dX, Y^2 and Y, so its
memory grows with n_delay and not with the number of steps.  Every sum is
accumulated element by element in step order, so for atom-only measures a
replicate's numbers do not depend on the batch it is simulated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import DelayStencil, Grid
from .measures import SignedMeasure


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class InitialPath:
    """Deterministic continuous initial segment on [-r, 0]."""

    kind: str  # "zero" | "constant" | "sampled"
    value: float = 0.0
    values: tuple[float, ...] = ()

    @staticmethod
    def zero() -> "InitialPath":
        return InitialPath(kind="zero")

    @staticmethod
    def constant(c: float) -> "InitialPath":
        return InitialPath(kind="constant", value=float(c))

    @staticmethod
    def sampled(values) -> "InitialPath":
        vals = tuple(float(v) for v in values)
        if len(vals) < 2:
            raise SimulationError("sampled initial path needs >= 2 values")
        return InitialPath(kind="sampled", values=vals)

    def eval(self, s: np.ndarray, r: float) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros(s.shape)
        if self.kind == "constant":
            return np.full(s.shape, self.value)
        own = np.linspace(-r, 0.0, len(self.values))
        return np.interp(s, own, np.asarray(self.values))

    def values_on(self, grid: Grid) -> np.ndarray:
        s = -grid.r + grid.dt * np.arange(grid.n_delay + 1)
        return self.eval(s, grid.r)

    @staticmethod
    def from_dict(d) -> "InitialPath":
        if d is None:
            return InitialPath.zero()
        if isinstance(d, (int, float)):
            return InitialPath.constant(float(d))
        kind = d.get("kind", "zero")
        if kind == "zero":
            return InitialPath.zero()
        if kind == "constant":
            return InitialPath.constant(d["value"])
        if kind == "sampled":
            return InitialPath.sampled(d["values"])
        raise SimulationError(f"unknown initial path kind {kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "sampled":
            return {"kind": "sampled", "values": list(self.values)}
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        return {"kind": "zero"}


@dataclass
class SamplePath:
    grid: Grid
    W: np.ndarray  # cumulative Wiener values on [0, T], W[0] = 0
    X: np.ndarray  # state on [-r, T]
    Y: np.ndarray  # delay functional on [0, T]
    theta_true: float
    seed: int


def derive_seed(master: int, index: int, stream: int = 0) -> int:
    """Splittable 64-bit replicate seed from (master seed, replicate index);
    stream separates independent seed families (e.g. limit-law draws)."""
    ss = np.random.SeedSequence(master, spawn_key=(stream, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def brownian_increments(seed: int, n_steps: int, dt: float) -> np.ndarray:
    """i.i.d. normal(0, dt) increments from a Philox stream keyed by seed."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.standard_normal(n_steps) * math.sqrt(dt)


BLOCK = 256  # steps per block of increment draws and of the sliding window


@dataclass
class RunningSums:
    """Per-replicate left-point sums over the steps t_0, ..., t_{n-1} of a
    batch, and the delay functional at T."""

    y_dx: np.ndarray  # sum of Y(t_k) * (X(t_{k+1}) - X(t_k))
    y_y: np.ndarray  # sum of Y(t_k)^2
    y: np.ndarray  # sum of Y(t_k)
    y_end: np.ndarray  # Y(T)


def _step(st: DelayStencil, buf: np.ndarray, j: int, theta_dt: float, dw: np.ndarray):
    """One Euler step of the time-major buffer at node j: returns Y, the
    delay functional at j, and sets buf[j + 1] = buf[j] + (theta dt) Y + dw."""
    y = st.apply(buf, j)
    np.add(buf[j], theta_dt * y, out=buf[j + 1])
    buf[j + 1] += dw
    return y


def simulate_batch(
    theta: float,
    a: SignedMeasure,
    x0: InitialPath,
    grid: Grid,
    seeds,
    dW: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate len(seeds) paths together; returns (W, X, Y) with rows =
    replicates.  `dW` overrides the Brownian increments (rows matching
    seeds), e.g. zeros for a noise-free integration check."""
    seeds = list(seeds)
    n = len(seeds)
    nd, ns, dt = grid.n_delay, grid.n_steps, grid.dt
    if dW is None:
        dW = np.empty((ns, n))
        for i, seed in enumerate(seeds):
            dW[:, i] = brownian_increments(seed, ns, dt)
    else:
        dW = np.asarray(dW, dtype=float)
        if dW.shape != (n, ns):
            raise SimulationError(f"dW must have shape {(n, ns)}, got {dW.shape}")
        dW = dW.T
    X = np.empty((nd + ns + 1, n))
    X[: nd + 1] = x0.values_on(grid)[:, None]
    Y = np.empty((ns + 1, n))
    st = DelayStencil(a, grid)
    for k in range(ns):
        Y[k] = _step(st, X, nd + k, theta * dt, dW[k])
    Y[ns] = st.apply(X, nd + ns)
    W = np.zeros((n, ns + 1))
    W[:, 1:] = np.cumsum(dW, axis=0).T
    return W, np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)


def increment_blocks(seeds, n_steps: int, dt: float):
    """The increments brownian_increments(seed, n_steps, dt) of every seed,
    time-major, BLOCK steps at a time: each block is a (steps, seeds) array,
    drawn from one Philox stream per seed that carries on across blocks."""
    gens = [np.random.Generator(np.random.Philox(key=seed)) for seed in seeds]
    draws = np.empty((len(gens), BLOCK))
    sqrt_dt = math.sqrt(dt)
    for k0 in range(0, n_steps, BLOCK):
        b = min(BLOCK, n_steps - k0)
        for gen, row in zip(gens, draws):
            gen.standard_normal(out=row[:b])
        yield np.multiply(draws[:, :b].T, sqrt_dt, order="C")


def simulate_sums(theta: float, a: SignedMeasure, x0: InitialPath, grid: Grid, seeds) -> RunningSums:
    """The paths of `simulate_batch`, reduced to their running sums as they
    are stepped; memory grows with n_delay * len(seeds), not with n_steps."""
    seeds = list(seeds)
    n = len(seeds)
    nd, ns, theta_dt = grid.n_delay, grid.n_steps, theta * grid.dt
    st = DelayStencil(a, grid)
    buf = np.empty((nd + 1 + BLOCK, n))
    buf[: nd + 1] = x0.values_on(grid)[:, None]
    terms = np.empty((3, n))  # Y dX, Y^2 and Y of one step
    sums = np.zeros((3, n))
    for dW in increment_blocks(seeds, ns, grid.dt):
        for k, dw in enumerate(dW):
            j = nd + k
            y = _step(st, buf, j, theta_dt, dw)
            terms[1:] = y
            np.subtract(buf[j + 1], buf[j], out=terms[0])
            terms[:2] *= y
            sums += terms
        buf[: nd + 1] = buf[len(dW) : len(dW) + nd + 1]
    y_end = np.empty(n)
    y_end[:] = st.apply(buf, nd)
    return RunningSums(y_dx=sums[0], y_y=sums[1], y=sums[2], y_end=y_end)


def simulate(
    theta: float,
    a: SignedMeasure,
    x0: InitialPath,
    grid: Grid,
    seed: int,
    dW: np.ndarray | None = None,
) -> SamplePath:
    """Single path; the numbers of the corresponding batch row (bit for bit
    for atom-only measures, to rounding with a density)."""
    dW2 = None if dW is None else np.asarray(dW, dtype=float)[None, :]
    W, X, Y = simulate_batch(theta, a, x0, grid, [seed], dW=dW2)
    return SamplePath(grid=grid, W=W[0], X=X[0], Y=Y[0], theta_true=theta, seed=int(seed))


def y_process(X: np.ndarray, a: SignedMeasure, grid: Grid) -> np.ndarray:
    """Recompute the delay functional from state samples on [-r, T] with the
    same quadrature simulate uses.  Accepts one path (1-d) or rows (2-d)."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != grid.n_total:
        raise SimulationError(
            f"X must cover [-r, T] with {grid.n_total} samples, got {X.shape[-1]}"
        )
    return np.ascontiguousarray(DelayStencil(a, grid).path(X.T).T)


# ---------------------------------------------------------------------------
# CSV persistence (t, W, X, Y); W and Y are empty for t < 0


def path_to_csv(path: SamplePath, fh) -> None:
    grid = path.grid
    nd = grid.n_delay
    fh.write("t,W,X,Y\n")
    times = grid.times()
    for i, t in enumerate(times):
        if i < nd:
            fh.write(f"{t:.17g},,{path.X[i]:.17g},\n")
        else:
            k = i - nd
            fh.write(f"{t:.17g},{path.W[k]:.17g},{path.X[i]:.17g},{path.Y[k]:.17g}\n")


def path_from_csv(fh, theta_true: float = float("nan"), seed: int = 0) -> SamplePath:
    header = fh.readline().strip().split(",")
    if header[:4] != ["t", "W", "X", "Y"]:
        raise SimulationError("path CSV must have columns t,W,X,Y")
    ts, Ws, Xs, Ys = [], [], [], []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        t_s, w_s, x_s, y_s = line.split(",")
        ts.append(float(t_s))
        Xs.append(float(x_s))
        if w_s:
            Ws.append(float(w_s))
            Ys.append(float(y_s))
    ts = np.asarray(ts)
    nd = int(np.sum(ts < -1e-15))
    ns = len(Ws) - 1
    if ns < 1 or nd < 1:
        raise SimulationError("path CSV too short")
    dt = float(ts[1] - ts[0])
    r = nd * dt
    grid = Grid(r=r, n_delay=nd, n_steps=ns)
    return SamplePath(
        grid=grid,
        W=np.asarray(Ws),
        X=np.asarray(Xs),
        Y=np.asarray(Ys),
        theta_true=theta_true,
        seed=seed,
    )
