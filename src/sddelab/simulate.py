"""Euler-Maruyama simulation of the linear SDDE
dX(t) = theta * (integral X(t+u) a(du)) dt + dW(t) with a fixed continuous
initial path on [-r, 0].

Brownian increments come from a counter-based generator (Philox) keyed by a
64-bit seed; replicate seeds are derived from a master seed by a splittable
hash so replicates are reproducible and order-independent.

One time-major stepper advances a batch of paths together: node i of the
state is the row X[i] of replicates, read by the one `kernels.DelayStencil`
(a path begins at node 0, its initial segment being continuous).  Row j + 1
holds the increment dW before step j adds X(t_j) + theta dt Y(t_j) to it.
Both simulators advance TILE steps at a time by `_tile`, whose loop keeps
only the Euler recurrence with the atoms added straight into the row of Y;
a density's window sum over the nodes known at the tile's start is one
matrix product per tile (the method of steps), so with a density the
numbers also depend, to rounding, on the tile split.  `simulate_batch`
steps a buffer covering [-r, T] and returns row-major (W, X, Y), W being
the cumulative sum of the increments.  `simulate_sums` keeps a window of
n_delay + 1 + BLOCK nodes whose last n_delay + 1 slide to the front after
each block, plus (TILE + 1) * 3 * n floats of tile scratch (and TILE *
(n_delay + 1) tile weights with a density), and returns running sums of
Y dX, Y^2 and Y: its memory grows with n_delay and not with n_steps.  Both
draw through `increment_blocks`, straight into the buffer rows the
increments will update, on every core; each replicate owns its Philox
stream, so the split of the replicates across threads changes no number.
One tile reduction, `_add_tile`, accumulates every sum element by element
in step order, and `path_sums` feeds it the rows of finished paths, so for
atom-only measures a replicate's numbers depend neither on its batch nor
on the route to its statistics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import DelayStencil, Grid
from .measures import SignedMeasure, json_document


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class InitialPath:
    """Deterministic continuous initial segment on [-r, 0], linear between
    `values` at equally spaced times from -r to 0: one value is a constant
    path (JSON kind constant), (0.0,) the zero path (kind zero)."""

    values: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if not self.values:
            raise SimulationError("initial path needs at least one value")
        bad = [i for i, v in enumerate(self.values) if not math.isfinite(v)]
        if bad and len(self.values) == 1:
            raise SimulationError(f"initial path value must be finite, got {self.values[0]}")
        if bad:
            raise SimulationError(f"initial path values must be finite, got values[{bad[0]}] = {self.values[bad[0]]}")

    @staticmethod
    def zero() -> "InitialPath":
        return InitialPath()

    @staticmethod
    def constant(c: float) -> "InitialPath":
        return InitialPath((float(c),))

    @staticmethod
    def sampled(values) -> "InitialPath":
        vals = tuple(float(v) for v in values)
        if len(vals) < 2:
            raise SimulationError("sampled initial path needs >= 2 values")
        return InitialPath(vals)

    def eval(self, s: np.ndarray, r: float) -> np.ndarray:
        return np.interp(s, np.linspace(-r, 0.0, len(self.values)), self.values)

    def values_on(self, grid: Grid) -> np.ndarray:
        return self.eval(-grid.r + grid.dt * np.arange(grid.n_delay + 1), grid.r)

    @staticmethod
    def from_dict(d) -> "InitialPath":
        if d is None:
            return InitialPath.zero()
        if isinstance(d, (int, float)):
            return InitialPath.constant(float(d))
        with json_document(d, "initial path", SimulationError):
            unknown = sorted(set(d) - {"kind", "value", "values"})
            if unknown:
                raise SimulationError(f"unknown initial path keys: {', '.join(unknown)}")
            kind = d.get("kind", "zero")
            if kind == "zero":
                return InitialPath.zero()
            if kind == "constant":
                return InitialPath.constant(d["value"])
            if kind == "sampled":
                return InitialPath.sampled(d["values"])
            raise SimulationError(f"unknown initial path kind {kind!r}")

    def to_dict(self) -> dict:
        if len(self.values) > 1:
            return {"kind": "sampled", "values": list(self.values)}
        if any(self.values):
            return {"kind": "constant", "value": self.values[0]}
        return {"kind": "zero"}


@dataclass
class SamplePath:
    """One path on a grid; a non-finite value is refused, naming its time."""

    grid: Grid
    W: np.ndarray  # cumulative Wiener values on [0, T], W[0] = 0
    X: np.ndarray  # state on [-r, T]
    Y: np.ndarray  # delay functional on [0, T]

    def __post_init__(self):
        nd = self.grid.n_delay  # node of t = 0 in X, of W[0] and Y[0]
        bad = [k + i for k, v in ((0, self.X), (nd, self.W), (nd, self.Y)) for i in np.flatnonzero(~np.isfinite(v))[:1]]
        if bad:
            raise SimulationError(f"sample path is not finite at t = {(min(bad) - nd) * self.grid.dt:.6g}")


def derive_seed(master: int, index: int, stream: int = 0) -> int:
    """Splittable 64-bit replicate seed from (master seed, replicate index);
    stream separates independent seed families (e.g. limit-law draws)."""
    ss = np.random.SeedSequence(master, spawn_key=(stream, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def brownian_increments(seed: int, n_steps: int, dt: float) -> np.ndarray:
    """i.i.d. normal(0, dt) increments from a Philox stream keyed by seed."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.standard_normal(n_steps) * math.sqrt(dt)


BLOCK = 1024  # steps per block of increment draws and of the sliding window
TILE = 16  # steps whose running sums and known density sums are formed at once; divides BLOCK
DRAW_TILE = 64  # generators drawn into one cache-sized tile, then copied into the window


def _draw_workers() -> int:
    """Threads that draw a block of increments: one per core this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


@dataclass
class RunningSums:
    """Per-replicate left-point sums over the steps t_0, ..., t_{n-1} of a
    batch, and the delay functional at T."""

    y_dx: np.ndarray  # sum of Y(t_k) * (X(t_{k+1}) - X(t_k))
    y_y: np.ndarray  # sum of Y(t_k)^2
    y: np.ndarray  # sum of Y(t_k)
    y_end: np.ndarray  # Y(T)


def _tile_weights(st: DelayStencil) -> np.ndarray | None:
    """Qt[k, c] = q[c - k] for c >= k, else 0: row k of Qt @ X[j0 - nd : j0 + 1]
    is the density's window sum at node j0 + k over the nodes known at j0.
    None for an atom-only stencil."""
    if not st.has_density:
        return None
    shift = np.arange(st.grid.n_delay + 1) - np.arange(TILE)[:, None]
    return np.where(shift >= 0, st.q[np.maximum(shift, 0)], 0.0)


def _tile(st: DelayStencil, qt, buf: np.ndarray, j0: int, m: int, theta_dt: float, Y, tmp):
    """m <= TILE Euler steps of the time-major buffer from node j0, whose rows
    j0 + 1, ..., j0 + m hold the increments dW: Y[k] receives the delay
    functional at node j0 + k, and row j + 1 becomes buf[j] + (theta dt) Y + dW
    (addition commutes, so these are the bits of adding the drift to dW).
    Y starts from +0.0, or with a density from its window sums over the
    nodes known at j0, one product with the tile weights `qt`; the atoms are
    added step by step, and so is the density's product over the at most k
    nodes stepped inside the tile.  `tmp` is a row of scratch."""
    nd = st.grid.n_delay
    if qt is None:
        Y[:m] = 0.0
    else:
        np.matmul(qt[:m], buf[j0 - nd : j0 + 1], out=Y[:m])
    for k in range(m):
        j = j0 + k
        y = st.apply(buf, j, out=Y[k], density=False)
        if qt is not None and k:
            lo = max(j0 + 1, j - nd)
            y += np.dot(st.q[nd - (j - lo) :], buf[lo : j + 1], out=tmp)
        np.multiply(y, theta_dt, out=tmp)
        tmp += buf[j]
        buf[j + 1] += tmp


def _add_tile(terms: np.ndarray, sums: np.ndarray, x: np.ndarray) -> None:
    """Add a tile's left-point terms to the (3, n) sums of Y dX, Y^2 and Y;
    x holds the states at its m + 1 nodes, terms[1 : m + 1, 2] the Y of its
    m steps.  Row 0 of the step-major (TILE + 1, 3, n) scratch takes the
    sums, so the reduce over axis 0 adds in step order, also for n = 1."""
    dx, yy, y = terms[1 : len(x)].transpose(1, 0, 2)
    np.subtract(x[1:], x[:-1], out=dx)
    dx *= y
    np.multiply(y, y, out=yy)
    terms[0] = sums
    np.add.reduce(terms[: len(x)], axis=0, out=sums)


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
    if not math.isfinite(theta):
        raise SimulationError(f"theta must be finite, got {theta}")
    seeds = list(seeds)
    n = len(seeds)
    nd, ns, dt = grid.n_delay, grid.n_steps, grid.dt
    X = np.empty((nd + ns + 1, n))
    X[: nd + 1] = x0.values_on(grid)[:, None]
    if dW is None:
        for _ in increment_blocks(seeds, ns, dt, X[nd + 1 :]):
            pass
    else:
        dW = np.asarray(dW, dtype=float)
        if dW.shape != (n, ns):
            raise SimulationError(f"dW must have shape {(n, ns)}, got {dW.shape}")
        X[nd + 1 :] = dW.T
    W = np.zeros((n, ns + 1))
    W[:, 1:] = np.cumsum(X[nd + 1 :], axis=0).T
    Y = np.empty((ns + 1, n))
    st = DelayStencil(a, grid)
    qt, tmp = _tile_weights(st), np.empty(n)
    for k0 in range(0, ns, TILE):
        _tile(st, qt, X, nd + k0, min(TILE, ns - k0), theta * dt, Y[k0:], tmp)
    Y[ns] = st.apply(X, nd + ns)
    return W, np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)


def increment_blocks(seeds, n_steps: int, dt: float, out: np.ndarray):
    """Draw the increments brownian_increments(seed, n_steps, dt) of every
    seed into the time-major rows of `out`, a column per seed, BLOCK steps
    at a time: yields b once the b rows from row k0 % len(out) hold steps
    k0, ..., k0 + b - 1, so `out` is a window of min(BLOCK, n_steps) rows
    or a whole path of n_steps rows.  Each seed's Philox stream carries on
    across blocks.  Every draw worker takes a contiguous group of seeds and
    draws DRAW_TILE streams at a time into its own tile, one standard_normal
    call per stream (numpy fills it without the GIL), then copies the tile
    into its columns of `out`.  The pool lives as long as the generator."""
    gens = [np.random.Generator(np.random.Philox(key=seed)) for seed in seeds]
    sqrt_dt = math.sqrt(dt)
    n_workers = max(1, min(_draw_workers(), len(gens)))
    bounds = [len(gens) * i // n_workers for i in range(n_workers + 1)]
    tiles = [np.empty((min(DRAW_TILE, hi - lo), min(BLOCK, n_steps))) for lo, hi in zip(bounds, bounds[1:])]

    def draw(lo, hi, tile, rows):
        b = len(rows)
        for t0 in range(lo, hi, DRAW_TILE):
            t1 = min(t0 + DRAW_TILE, hi)
            for gen, row in zip(gens[t0:t1], tile):
                gen.standard_normal(out=row[:b])
            np.multiply(tile[: t1 - t0, :b].T, sqrt_dt, out=rows[:, t0:t1])

    with ThreadPoolExecutor(n_workers) as pool:
        for k0 in range(0, n_steps, BLOCK):
            b = min(BLOCK, n_steps - k0)
            rows = out[k0 % len(out) :][:b]
            tasks = [pool.submit(draw, lo, hi, tile, rows) for lo, hi, tile in zip(bounds, bounds[1:], tiles)]
            for task in tasks:
                task.result()
            yield b


def simulate_sums(theta: float, a: SignedMeasure, x0: InitialPath, grid: Grid, seeds) -> RunningSums:
    """The paths of `simulate_batch`, reduced to their running sums as they
    are stepped; memory grows with n_delay * len(seeds), not with n_steps."""
    if not math.isfinite(theta):
        raise SimulationError(f"theta must be finite, got {theta}")
    seeds = list(seeds)
    n = len(seeds)
    nd, ns, theta_dt = grid.n_delay, grid.n_steps, theta * grid.dt
    st = DelayStencil(a, grid)
    buf = np.empty((nd + 1 + min(BLOCK, ns), n))
    buf[: nd + 1] = x0.values_on(grid)[:, None]
    qt, tmp = _tile_weights(st), np.empty(n)
    terms = np.empty((TILE + 1, 3, n))  # the scratch of `_add_tile`
    sums = np.zeros((3, n))
    for b in increment_blocks(seeds, ns, grid.dt, buf[nd + 1 :]):
        for j0 in range(nd, nd + b, TILE):
            m = min(TILE, nd + b - j0)
            _tile(st, qt, buf, j0, m, theta_dt, terms[1 : m + 1, 2], tmp)
            _add_tile(terms, sums, buf[j0 : j0 + m + 1])
        buf[: nd + 1] = buf[b : b + nd + 1]
    y_end = st.apply(buf, nd, out=np.zeros(n))
    return RunningSums(y_dx=sums[0], y_y=sums[1], y=sums[2], y_end=y_end)


def path_sums(X: np.ndarray, Y: np.ndarray, n_delay: int) -> RunningSums:
    """The sums of `simulate_sums`, bit for bit, of path rows as
    `simulate_batch` returns them, fed tile by tile through `_add_tile`."""
    n, ns = Y.shape[0], Y.shape[1] - 1
    terms, sums = np.empty((TILE + 1, 3, n)), np.zeros((3, n))
    for k0 in range(0, ns, TILE):
        m = min(TILE, ns - k0)
        terms[1 : m + 1, 2] = Y.T[k0 : k0 + m]
        _add_tile(terms, sums, X.T[n_delay + k0 : n_delay + k0 + m + 1])
    return RunningSums(y_dx=sums[0], y_y=sums[1], y=sums[2], y_end=Y[:, -1].copy())


def simulate(
    theta: float,
    a: SignedMeasure,
    x0: InitialPath,
    grid: Grid,
    seed: int,
    dW: np.ndarray | None = None,
) -> SamplePath:
    """Single path; the numbers of the corresponding batch row (bit for bit
    for atom-only measures, to rounding with a density).  A path that leaves
    the float range is refused."""
    dW2 = None if dW is None else np.asarray(dW, dtype=float)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        W, X, Y = simulate_batch(theta, a, x0, grid, [seed], dW=dW2)
    return SamplePath(grid=grid, W=W[0], X=X[0], Y=Y[0])


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
# CSV persistence: every CSV's writer, and the path (t, W, X, Y), W and Y empty for t < 0


def write_csv(fh, header: str, *columns) -> None:
    """One row per element of the longest column, floats at 17 significant
    digits and ints as they are; a shorter column starts that many rows late,
    its first cells empty."""
    cells = []
    for col in map(np.asarray, columns):
        fmt = "{:.17g}".format if col.dtype.kind == "f" else str
        cells.append(list(map(fmt, col.tolist())))
    n = max(map(len, cells))
    fh.write(header + "\n")
    fh.writelines(",".join(row) + "\n" for row in zip(*([""] * (n - len(c)) + c for c in cells)))


def path_to_csv(path: SamplePath, fh) -> None:
    write_csv(fh, "t,W,X,Y", path.grid.times(), path.W, path.X, path.Y)


def path_from_csv(fh) -> SamplePath:
    """(t, X) from every non-blank row, n_delay from the rows with t < 0 and
    (W, Y) from the rows after them."""
    header = fh.readline().strip().split(",")
    if header[:4] != ["t", "W", "X", "Y"]:
        raise SimulationError("path CSV must have columns t,W,X,Y")
    rows = [line for line in fh if line.strip()]
    ts, X = np.loadtxt(rows, delimiter=",", usecols=(0, 2), unpack=True, ndmin=2) if rows else np.empty((2, 0))
    nd = int(np.sum(ts < -1e-15))
    if nd < 1 or len(rows) - nd < 2:
        raise SimulationError("path CSV too short")
    try:
        W, Y = np.loadtxt(rows[nd:], delimiter=",", usecols=(1, 3), unpack=True, ndmin=2)
    except ValueError as exc:
        raise SimulationError(f"path CSV needs numbers W and Y at t >= 0 (row 0 is t = 0): {exc}") from exc
    # t_0 = -n_delay * (r / n_delay) gives back the simulating grid's dt,
    # where the difference of two rounded times would not
    grid = Grid(r=float(-ts[0]), n_delay=nd, n_steps=len(rows) - nd - 1)
    return SamplePath(grid=grid, W=W, X=X, Y=Y)
