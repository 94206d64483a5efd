import importlib
import io
import math
import warnings

import numpy as np
import pytest

from sddelab.inference import batch_statistics, mle, score_and_info, statistics_from_sums
from sddelab.kernels import DelayStencil, Grid, fisher_limit, fisher_theta0
from sddelab.measures import SignedMeasure
from sddelab.simulate import (
    BLOCK,
    TILE,
    InitialPath,
    brownian_increments,
    derive_seed,
    increment_blocks,
    path_from_csv,
    path_sums,
    path_to_csv,
    simulate,
    simulate_batch,
    simulate_sums,
    write_csv,
    y_process,
)

D0 = SignedMeasure.point_masses(1.0, (0.0, 1.0))
BAL = SignedMeasure.point_masses(1.0, (0.0, 1.0), (-1.0, -1.0))
LEB = SignedMeasure.polynomial_density(1.0, [(-1.0, 0.0, (1.0,))])
ATOM_DENS = SignedMeasure.from_dict(
    {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}], "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1.0, 1.0]}]}
)
OFF_GRID = SignedMeasure.point_masses(1.0, (-0.3737, 0.8), (0.0, -0.3))
NEG = SignedMeasure.point_masses(1.0, (-0.5, -1.0))  # w X = -0 on a zero node
# the module, which the package's `simulate` function shadows as an attribute
S = importlib.import_module("sddelab.simulate")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: InitialPath.constant(float("nan")), r"initial path value must be finite, got nan"),
        (lambda: InitialPath((float("-inf"),)), r"initial path value must be finite, got -inf"),
        (lambda: InitialPath.sampled([0.0, 1.0, float("inf")]), r"initial path values must be finite, got values\[2\] = inf"),
        (lambda: InitialPath.from_dict({"kind": "sampled", "values": [float("nan"), 0.0]}), r"values\[0\] = nan"),
    ],
)
def test_initial_path_refuses_non_finite_values(make, message):
    with pytest.raises(S.SimulationError, match=message):
        make()


def test_initial_path_refuses_empty_values_and_unknown_keys():
    with pytest.raises(S.SimulationError, match="initial path needs at least one value"):
        InitialPath(())
    with pytest.raises(S.SimulationError, match="unknown initial path keys: r, value_"):
        InitialPath.from_dict({"kind": "constant", "value_": 1.0, "r": 1.0})


def test_theta_zero_path_is_shifted_wiener():
    g = Grid.build(1.0, 10.0, 0.01)
    p = simulate(0.0, D0, InitialPath.constant(3.0), g, seed=1)
    assert np.max(np.abs(p.X[g.n_delay :] - (3.0 + p.W))) < 1e-12
    assert p.W[0] == 0.0
    np.testing.assert_array_equal(p.X[: g.n_delay + 1], 3.0)


def test_zero_noise_euler_recursion():
    g = Grid.build(1.0, 10.0, 0.01)
    p = simulate(-0.5, D0, InitialPath.constant(1.0), g, seed=0, dW=np.zeros(g.n_steps))
    expected = (1 - 0.5 * g.dt) ** np.arange(g.n_steps + 1)
    assert np.max(np.abs(p.X[g.n_delay :] - expected)) < 1e-12


def test_ou_stationary_variance():
    g = Grid.build(1.0, 200.0, 0.01)
    seeds = [derive_seed(123, i) for i in range(1000)]
    _, X, _ = simulate_batch(-0.5, D0, InitialPath.zero(), g, seeds)
    pooled = X[:, g.n_delay + g.n_steps // 2 :]
    assert float(np.mean(pooled**2)) == pytest.approx(1.0, rel=0.05)


def test_y_process_dirac0_identity():
    g = Grid.build(1.0, 4.0, 0.01)
    p = simulate(-0.5, D0, InitialPath.constant(1.0), g, seed=5)
    np.testing.assert_array_equal(y_process(p.X, D0, g), p.X[g.n_delay :])


def test_y_process_balanced_constant_cancels():
    g = Grid.build(1.0, 4.0, 0.01)
    X = np.ones(g.n_total)
    assert np.max(np.abs(y_process(X, BAL, g))) == 0.0


def test_y_process_lebesgue_linear():
    # X(t) = t with density 1 on [-1,0]: Y(t) = int (t+u) du = t - 1/2
    g = Grid.build(1.0, 4.0, 0.01)
    X = g.times()
    Y = y_process(X, LEB, g)
    want = g.state_times() - 0.5
    assert np.max(np.abs(Y - want)) < 1e-12


def test_path_internal_consistency():
    g = Grid.build(1.0, 5.0, 0.01)
    p = simulate(0.3, BAL, InitialPath.constant(0.5), g, seed=9)
    np.testing.assert_allclose(y_process(p.X, BAL, g), p.Y, atol=1e-12)


def test_replicate_seeds_are_order_independent():
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(7, 4)
    assert derive_seed(8, 3) != derive_seed(7, 3)
    assert derive_seed(7, 3, stream=1) != derive_seed(7, 3)


def test_single_path_matches_batch_row():
    g = Grid.build(1.0, 3.0, 0.01)
    seeds = [derive_seed(11, i) for i in range(4)]
    W, X, Y = simulate_batch(-0.5, BAL, InitialPath.zero(), g, seeds)
    p2 = simulate(-0.5, BAL, InitialPath.zero(), g, seeds[2])
    # atom-only measure: no BLAS sum whose rounding depends on the batch
    np.testing.assert_array_equal(p2.X, X[2])
    np.testing.assert_array_equal(p2.W, W[2])
    np.testing.assert_array_equal(p2.Y, Y[2])


def test_increment_blocks_match_brownian_increments(monkeypatch):
    # 131 seeds: with one worker, two full tiles of DRAW_TILE streams and a
    # partial one; with 2 and 3 workers, groups of unequal size
    seeds = [derive_seed(21, i) for i in range(131)]
    for workers in (1, 2, 3):
        monkeypatch.setattr(S, "_draw_workers", lambda: workers)
        for n_steps in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37):
            out = np.full((BLOCK, len(seeds)), np.nan)
            blocks = [out[:b].copy() for b in increment_blocks(seeds, n_steps, 0.01, out)]
            assert [len(b) for b in blocks[:-1]] == [BLOCK] * (len(blocks) - 1)
            want = np.stack([brownian_increments(s, n_steps, 0.01) for s in seeds], axis=1)
            np.testing.assert_array_equal(np.concatenate(blocks), want)
            # n_steps rows: each block lands at its own rows, the whole path
            path = np.full((n_steps, len(seeds)), np.nan)
            for _ in increment_blocks(seeds, n_steps, 0.01, path):
                pass
            np.testing.assert_array_equal(path, want)


def _step_order_sums(X, Y, n_delay):
    """Reference: the running sums of a step-by-step loop over a path batch."""
    sums = np.zeros((3, X.shape[0]))
    for k in range(Y.shape[1] - 1):
        y = Y[:, k]
        sums += (y * (X[:, n_delay + k + 1] - X[:, n_delay + k]), y * y, y)
    return sums


def test_streamed_sums_run_in_step_order():
    # n_steps = 2 * BLOCK + 37: two full blocks of the sliding window and a
    # partial one.  The sums are those of a step loop over simulate_batch's
    # paths bit for bit; with atoms only, in any batch the replicate is in.
    g = Grid(r=1.0, n_delay=100, n_steps=2 * BLOCK + 37)
    seeds = [derive_seed(3, i) for i in range(7)]
    x0 = InitialPath.constant(0.2)
    for a in (OFF_GRID, ATOM_DENS):
        _, X, Y = simulate_batch(0.4, a, x0, g, seeds)
        got = simulate_sums(0.4, a, x0, g, seeds)
        np.testing.assert_array_equal(np.array([got.y_dx, got.y_y, got.y]), _step_order_sums(X, Y, g.n_delay))
        np.testing.assert_array_equal(got.y_end, Y[:, -1])
    parts = [simulate_sums(0.4, OFF_GRID, x0, g, seeds[lo:hi]) for lo, hi in ((0, 1), (1, 3), (3, 7))]
    whole = simulate_sums(0.4, OFF_GRID, x0, g, seeds)
    for name in ("y_dx", "y_y", "y", "y_end"):
        np.testing.assert_array_equal(np.concatenate([getattr(p, name) for p in parts]), getattr(whole, name))


def _reference_paths(theta, a, x0, g, seeds):
    """Reference: one Euler step at a time, X[j+1] = dW + (X[j] + theta dt Y)
    with Y from `DelayStencil.apply` on the whole row of replicates."""
    st = DelayStencil(a, g)
    nd, ns = g.n_delay, g.n_steps
    X = np.empty((g.n_total, len(seeds)))
    X[: nd + 1] = x0.values_on(g)[:, None]
    X[nd + 1 :] = np.stack([brownian_increments(s, ns, g.dt) for s in seeds], axis=1)
    Y = np.empty((ns + 1, len(seeds)))
    for k in range(ns + 1):
        Y[k] = st.apply(X, nd + k)
        if k < ns:
            X[nd + k + 1] += X[nd + k] + theta * g.dt * Y[k]
    return X.T, Y.T


def _same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [1, 2, 1000])
def test_tiled_stepper_is_the_step_loop_bit_for_bit(n):
    # tiles of TILE steps inside blocks of BLOCK: a partial tile, one tile,
    # one more step, and two full blocks plus a partial one.  With one
    # replicate, a reduce over a contiguous step axis would add pairwise.
    seeds = [derive_seed(17, i) for i in range(n)]
    x0 = InitialPath.zero()  # zero nodes: the first atom's 0.0 + w X keeps +0
    for n_steps in (TILE - 1, TILE, TILE + 1, 2 * BLOCK + 37):
        g = Grid(r=1.0, n_delay=10, n_steps=n_steps)
        for a in (BAL, OFF_GRID, NEG):
            _, X, Y = simulate_batch(-0.7, a, x0, g, seeds)
            Xr, Yr = _reference_paths(-0.7, a, x0, g, seeds)
            _same_bits(X, Xr)
            _same_bits(Y, Yr)
            got = simulate_sums(-0.7, a, x0, g, seeds)
            _same_bits(np.array([got.y_dx, got.y_y, got.y]), _step_order_sums(X, Y, g.n_delay))
            _same_bits(got.y_end, Y[:, -1])


@pytest.mark.parametrize("n_delay", [8, 100])
def test_tiled_density_within_summation_bound(n_delay):
    # The tile splits the window sum at the nodes known at its start, so Y
    # is y_process's sum of the same terms (n_delay + 1 nodal products of
    # the density and at most one atom, N <= n_delay + 2) in another order.
    # Each order errs by at most (N - 1) u sum|term|, and a product formed
    # with or without a fused multiply-add by at most u |term|, so to first
    # order the two differ by at most N eps sum|term| (eps = 2u).
    # n_delay = 8 < TILE: late steps of a tile read no node known at its
    # start.
    g = Grid(r=1.0, n_delay=n_delay, n_steps=2 * TILE + 5)
    seeds = [derive_seed(5, i) for i in range(3)]
    for a in (ATOM_DENS, LEB):
        _, X, Y = simulate_batch(0.6, a, InitialPath.constant(0.3), g, seeds)
        st = DelayStencil(a, g)
        nd = g.n_delay
        terms = np.stack(
            [np.abs(st.q) @ np.abs(X[:, k : k + nd + 1]).T for k in range(g.n_steps + 1)], axis=1
        )
        for s, _, w in st.atoms:  # on-grid atoms only in these measures
            terms += abs(w) * np.abs(X[:, nd + s : nd + s + g.n_steps + 1])
        bound = (nd + 2) * np.finfo(float).eps * terms
        assert np.all(np.abs(Y - y_process(X, a, g)) <= bound)


def test_apply_out_has_the_bits_of_apply():
    g = Grid(r=1.0, n_delay=50, n_steps=40)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((g.n_total, 6))
    X[::7] = 0.0  # atoms reading +0 with a negative weight give -0 products
    for a in (D0, BAL, OFF_GRID, NEG, ATOM_DENS):
        st = DelayStencil(a, g)
        for j in (g.n_delay, g.n_delay + 17, g.n_total - 1):
            for start, left in ((0, False), (g.n_delay, False), (g.n_delay, True), (j, True)):
                want = st.apply(X, j, start=start, left=left)
                out = np.zeros(6)
                assert st.apply(X, j, start=start, left=left, out=out) is out
                _same_bits(out, np.broadcast_to(want, out.shape))


def test_streamed_statistics_match_batch_statistics():
    # the batch's statistics are the streamed ones, bit for bit
    g = Grid.build(1.0, 6.0, 0.01)
    seeds = [derive_seed(8, i) for i in range(6)]
    theta, r = -0.4, g.T**-0.5
    for a in (BAL, ATOM_DENS):
        _, X, Y = simulate_batch(theta, a, InitialPath.zero(), g, seeds)
        delta, info, hat = batch_statistics(Y, X, g.n_delay, g.dt, theta, r)
        sums = simulate_sums(theta, a, InitialPath.zero(), g, seeds)
        delta2, info2, hat2 = statistics_from_sums(sums.y_dx, sums.y_y, g.dt, theta, r)
        _same_bits(delta2, delta)
        _same_bits(info2, info)
        _same_bits(hat2, hat)


@pytest.mark.parametrize("a", [BAL, ATOM_DENS], ids=["atoms", "atom+density"])
@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("n_steps", [TILE - 1, TILE, TILE + 1, 2 * BLOCK + 37])
def test_batch_route_is_the_streamed_summation(a, n, n_steps):
    # simulate_batch + batch_statistics and simulate_sums +
    # statistics_from_sums add the same terms in the same order, whatever
    # the batch size and however the steps fall into tiles and blocks
    g = Grid(r=1.0, n_delay=10, n_steps=n_steps)
    seeds = [derive_seed(21, i) for i in range(n)]
    theta, scaling = -0.7, g.T**-0.5
    _, X, Y = simulate_batch(theta, a, InitialPath.constant(0.5), g, seeds)
    sums = simulate_sums(theta, a, InitialPath.constant(0.5), g, seeds)
    got = batch_statistics(Y, X, g.n_delay, g.dt, theta, scaling)
    want = statistics_from_sums(sums.y_dx, sums.y_y, g.dt, theta, scaling)
    for x, y in zip(got, want):
        _same_bits(x, y)
    ps = path_sums(X, Y, g.n_delay)
    for name in ("y_dx", "y_y", "y"):
        _same_bits(getattr(ps, name), getattr(sums, name))


def test_strong_order_one_under_refinement():
    # common Brownian increments: halving dt halves the strong error
    errs = []
    for dt in (0.02, 0.01, 0.005):
        g_f = Grid.build(1.0, 5.0, dt / 2)
        g_c = Grid.build(1.0, 5.0, dt)
        dWf = brownian_increments(42, g_f.n_steps, g_f.dt)
        dWc = dWf.reshape(-1, 2).sum(axis=1)
        pf = simulate(0.5, D0, InitialPath.constant(1.0), g_f, 0, dW=dWf)
        pc = simulate(0.5, D0, InitialPath.constant(1.0), g_c, 0, dW=dWc)
        errs.append(np.max(np.abs(pf.X[g_f.n_delay :: 2] - pc.X[g_c.n_delay :])))
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.3 < coarse / fine < 3.4


def test_ergodic_time_averages_lan():
    # subcritical time averages approach (0, J) across replicates
    g = Grid.build(1.0, 200.0, 0.01)
    seeds = [derive_seed(2024, i) for i in range(500)]
    _, _, Y = simulate_batch(-0.5, D0, InitialPath.zero(), g, seeds)
    mean_Y = np.sum(Y[:, :-1], axis=1) * g.dt / g.T
    mean_Y2 = np.einsum("ij,ij->i", Y[:, :-1], Y[:, :-1]) * g.dt / g.T
    J = 1.0
    assert abs(np.median(mean_Y)) <= 0.05 * np.sqrt(J)
    assert abs(np.median(mean_Y2) - J) <= 0.05 * J


def test_ergodic_time_averages_theta0_balanced():
    g = Grid.build(1.0, 200.0, 0.01)
    seeds = [derive_seed(77, i) for i in range(500)]
    _, _, Y = simulate_batch(0.0, BAL, InitialPath.zero(), g, seeds)
    mean_Y2 = np.einsum("ij,ij->i", Y[:, :-1], Y[:, :-1]) * g.dt / g.T
    J = fisher_theta0(BAL)
    assert abs(np.median(mean_Y2) - J) <= 0.05 * J


def test_supercritical_scaled_path_settles():
    # e^{-theta t} Y(t) stabilizes pathwise for theta = 0.5, a = dirac at 0
    g = Grid.build(1.0, 20.0, 0.01)
    seeds = [derive_seed(31337, i) for i in range(300)]
    _, _, Y = simulate_batch(0.5, D0, InitialPath.zero(), g, seeds)
    t = g.state_times()
    sel = t >= 15.0
    scaled = Y[:, sel] * np.exp(-0.5 * t[sel])[None, :]
    osc = np.max(scaled, axis=1) - np.min(scaled, axis=1)
    limit = np.abs(Y[:, -1]) * np.exp(-0.5 * t[-1])
    assert np.median(osc) <= 0.05 * np.median(limit)


def test_csv_roundtrip():
    g = Grid.build(1.0, 2.0, 0.01)
    p = simulate(-0.5, D0, InitialPath.constant(1.0), g, seed=3)
    buf = io.StringIO()
    path_to_csv(p, buf)
    buf.seek(0)
    q = path_from_csv(buf)
    assert q.grid.n_delay == g.n_delay and q.grid.n_steps == g.n_steps
    np.testing.assert_array_equal(q.X, p.X)
    np.testing.assert_array_equal(q.W, p.W)
    np.testing.assert_array_equal(q.Y, p.Y)


@pytest.mark.parametrize("dt", [0.01, 0.003, 0.1])
def test_csv_roundtrip_keeps_grid_and_statistics(dt):
    # the grid comes back from t_0 = -r, not from a difference of rounded
    # times, so dt, T and every statistic of the path are unchanged
    g = Grid.build(1.0, 3.0, dt)
    p = simulate(-0.5, D0, InitialPath.constant(1.0), g, seed=5)
    buf = io.StringIO()
    path_to_csv(p, buf)
    buf.seek(0)
    q = path_from_csv(buf)
    assert (q.grid.dt, q.grid.T) == (g.dt, g.T)
    assert score_and_info(q, -0.5, 0.7) == score_and_info(p, -0.5, 0.7)
    assert mle(q) == mle(p)


def test_write_csv_columns():
    # a shorter column starts late with empty cells; ints (a seed above 2^53)
    # are written exactly, floats at 17 digits, NaN as nan
    buf = io.StringIO()
    seed = 2**63 + 1
    write_csv(buf, "i,seed,x", range(3), np.array([seed], dtype=np.uint64), np.array([0.1, float("nan")]))
    assert buf.getvalue() == f"i,seed,x\n0,,\n1,,0.10000000000000001\n2,{seed},nan\n"
    # a path as a per-node format writes it: W and Y empty before t = 0
    g = Grid.build(1.0, 1.0, 0.1)
    p = simulate(-0.5, D0, InitialPath.constant(1.0), g, seed=3)
    buf = io.StringIO()
    path_to_csv(p, buf)
    nd, X = g.n_delay, p.X
    rows = [f"{t:.17g},,{X[i]:.17g}," if i < nd else f"{t:.17g},{p.W[i - nd]:.17g},{X[i]:.17g},{p.Y[i - nd]:.17g}"
            for i, t in enumerate(g.times())]
    assert buf.getvalue().splitlines() == ["t,W,X,Y", *rows]


def test_path_csv_skips_blank_lines():
    g = Grid.build(1.0, 1.0, 0.1)
    p = simulate(-0.5, D0, InitialPath.constant(1.0), g, seed=3)
    buf = io.StringIO()
    path_to_csv(p, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    q = path_from_csv(io.StringIO("".join(lines[:3] + ["\n", "  \n"] + lines[3:13] + ["\n"] + lines[13:] + ["\n"])))
    assert (q.grid.n_delay, q.grid.n_steps, q.grid.dt) == (g.n_delay, g.n_steps, g.dt)
    for got, want in ((q.W, p.W), (q.X, p.X), (q.Y, p.Y)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text",
    ["t,W,X,Y\n", "t,W,X,Y\n\n \n", "t,W,X,Y\n-1,,0,\n-0.5,,0,\n", "t,W,X,Y\n-1,,0,\n0,0,0,0\n", "t,W,X,Y\n0,0,0,0\n1,1,1,1\n"],
)
def test_path_csv_too_short_without_numpy_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(S.SimulationError, match="path CSV too short"):
            path_from_csv(io.StringIO(text))


def test_initial_path_kinds():
    g = Grid.build(1.0, 1.0, 0.25)
    assert np.all(InitialPath.zero().values_on(g) == 0.0)
    assert np.all(InitialPath.constant(2.5).values_on(g) == 2.5)
    ip = InitialPath.sampled([0.0, 1.0, 0.0])
    vals = ip.values_on(g)
    np.testing.assert_allclose(vals, [0.0, 0.5, 1.0, 0.5, 0.0])
    assert InitialPath.from_dict(ip.to_dict()) == ip
    for path, kind in ((InitialPath.zero(), "zero"), (InitialPath.constant(2.5), "constant"), (ip, "sampled")):
        assert path.to_dict()["kind"] == kind and InitialPath.from_dict(path.to_dict()) == path


def test_constant_initial_path_is_bitwise_full():
    # one value is a constant path: interpolating it returns the value's bits
    # at every node, and the zero path is +0.0, never -0.0
    for g in (Grid.build(1.0, 1.0, 0.25), Grid.build(0.37, 1.0, 0.01), Grid(r=2.0, n_delay=7, n_steps=3)):
        for c in (2.5, -1.0 / 3.0, 5e-324, -0.0, 1e300, math.pi):
            got = InitialPath.constant(c).values_on(g)
            want = np.full(g.n_delay + 1, c)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        zero = InitialPath.zero().values_on(g)
        assert zero.tobytes() == np.zeros(g.n_delay + 1).tobytes() and not np.signbit(zero).any()


def test_simulate_with_sampled_density_measure():
    n = 513
    grid_u = np.linspace(-2 * np.pi, 0.0, n)
    sinm = SignedMeasure.sampled_density(2 * np.pi, np.sin(grid_u))
    g = Grid(r=2 * np.pi, n_delay=256, n_steps=512)
    p = simulate(0.15, sinm, InitialPath.constant(1.0), g, seed=13)
    assert np.all(np.isfinite(p.X))
    np.testing.assert_allclose(y_process(p.X, sinm, g), p.Y, atol=1e-12)


def test_delay_functional_against_direct_quadrature():
    # independent evaluation: interpolated atoms plus trapezoid of density*X
    rng = np.random.default_rng(55)
    a = SignedMeasure(
        r=1.0,
        atoms=((-0.37, 0.8), (0.0, -0.3)),
        density_pieces=SignedMeasure.polynomial_density(
            1.0, [(-1.0, 0.0, (0.4, -0.9))]
        ).density_pieces,
    )
    g = Grid.build(1.0, 2.0, 0.01)
    X = rng.standard_normal(g.n_total).cumsum() * 0.1
    Y = y_process(X, a, g)
    t_all = g.times()
    fine = np.linspace(-1.0, 0.0, 2001)
    rho = 0.4 - 0.9 * fine
    for k in (0, 57, g.n_steps):
        t = k * g.dt
        manual = 0.8 * np.interp(t - 0.37, t_all, X) - 0.3 * np.interp(t, t_all, X)
        manual += np.trapezoid(rho * np.interp(t + fine, t_all, X), fine)
        assert Y[k] == pytest.approx(manual, abs=2e-4)


def test_initial_path_numeric_shorthand():
    ip = InitialPath.from_dict(2.0)
    assert ip.values == (2.0,) and ip.to_dict() == {"kind": "constant", "value": 2.0}
    assert InitialPath.from_dict(None).values == (0.0,)


def test_path_csv_rejects_bad_header():
    import io as _io

    with pytest.raises(Exception):
        path_from_csv(_io.StringIO("a,b,c,d\n1,2,3,4\n"))
