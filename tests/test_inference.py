import numpy as np
import pytest

from sddelab.harness import ks_vs_standard_normal
from sddelab.inference import (
    InferenceError,
    batch_statistics,
    log_likelihood_ratio,
    mle,
    score_and_info,
)
from sddelab.kernels import Grid
from sddelab.measures import SignedMeasure
from sddelab.simulate import InitialPath, derive_seed, simulate, simulate_batch

D0 = SignedMeasure.point_masses(1.0, (0.0, 1.0))
BAL = SignedMeasure.point_masses(1.0, (0.0, 1.0), (-1.0, -1.0))


def make_path(theta=-0.5, a=D0, T=20.0, dt=0.01, seed=1, x0=None, **kw):
    g = Grid.build(a.r, T, dt)
    return simulate(theta, a, x0 or InitialPath.constant(1.0), g, seed=seed, **kw)


def test_llr_same_parameter_is_zero():
    p = make_path()
    assert log_likelihood_ratio(p, -0.5, -0.5) == 0.0


def test_llr_against_zero_denominator():
    # reduces to theta * int Y dX - theta^2/2 * int Y^2 dt
    p = make_path()
    theta = 0.8
    Y = p.Y[:-1]
    dX = np.diff(p.X[p.grid.n_delay :])
    want = theta * float(Y @ dX) - 0.5 * theta**2 * float(Y @ Y) * p.grid.dt
    assert log_likelihood_ratio(p, theta, 0.0) == pytest.approx(want, rel=1e-14)


def test_llr_recentered_form_identity():
    # (theta+h vs theta) equals h int Y dW - h^2/2 int Y^2 dt with
    # dW = dX - theta Y dt recovered from the same increments
    p = make_path(theta=0.3, a=BAL)
    h = 0.7
    Y = p.Y[:-1]
    dX = np.diff(p.X[p.grid.n_delay :])
    dW = dX - 0.3 * Y * p.grid.dt
    want = h * float(Y @ dW) - 0.5 * h**2 * float(Y @ Y) * p.grid.dt
    got = log_likelihood_ratio(p, 0.3 + h, 0.3)
    assert got == pytest.approx(want, rel=1e-12)


def test_quadratic_expansion_identity():
    # log-likelihood ratio at theta + r h equals h delta - h^2/2 info
    rng = np.random.default_rng(0)
    for trial in range(20):
        theta = float(rng.uniform(-1, 1))
        seed = int(rng.integers(0, 2**63))
        p = make_path(theta=theta, T=10.0, seed=seed, a=BAL if trial % 2 else D0)
        r = p.grid.T**-0.5
        pair = score_and_info(p, theta, r)
        for h in (-2.0, -1.0, 0.5, 1.0, 3.0):
            lhs = log_likelihood_ratio(p, theta + r * h, theta)
            rhs = h * pair.delta - 0.5 * h**2 * pair.info
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: score_and_info(p, float("inf"), 1.0), "theta must be finite, got inf"),
        (lambda p: score_and_info(p, -0.5, float("nan")), "scaling must be finite, got nan"),
        (lambda p: log_likelihood_ratio(p, float("nan"), -0.5), "theta_num must be finite, got nan"),
        (lambda p: log_likelihood_ratio(p, 0.0, float("-inf")), "theta_den must be finite, got -inf"),
    ],
)
def test_statistics_refuse_non_finite_parameters(call, message):
    with pytest.raises(InferenceError, match=f"^{message}$"):
        call(make_path(T=1.0, dt=0.1))


def test_score_zero_on_degenerate_path():
    g = Grid.build(1.0, 4.0, 0.01)
    p = simulate(0.0, BAL, InitialPath.zero(), g, seed=0, dW=np.zeros(g.n_steps))
    pair = score_and_info(p, 0.0, 1.0)
    assert pair.delta == 0.0 and pair.info == 0.0


def test_score_info_matches_ou_fisher():
    g = Grid.build(1.0, 200.0, 0.01)
    seeds = [derive_seed(5150, i) for i in range(1000)]
    _, X, Y = simulate_batch(-0.5, D0, InitialPath.zero(), g, seeds)
    _, info, _ = batch_statistics(Y, X, g.n_delay, g.dt, -0.5, g.T**-0.5)
    assert float(np.mean(info)) == pytest.approx(1.0, rel=0.05)


def test_mle_noiseless_identification():
    g = Grid.build(1.0, 10.0, 0.001)
    p = simulate(-0.5, D0, InitialPath.constant(1.0), g, seed=0, dW=np.zeros(g.n_steps))
    assert mle(p) == pytest.approx(-0.5, abs=1e-2)


def test_mle_degenerate_path_rejected():
    g = Grid.build(1.0, 4.0, 0.01)
    p = simulate(0.0, BAL, InitialPath.zero(), g, seed=0, dW=np.zeros(g.n_steps))
    with pytest.raises(InferenceError):
        mle(p)


def test_mle_lan_consistency():
    g = Grid.build(1.0, 200.0, 0.01)
    seeds = [derive_seed(404, i) for i in range(500)]
    _, X, Y = simulate_batch(-0.5, D0, InitialPath.zero(), g, seeds)
    _, _, theta_hat = batch_statistics(Y, X, g.n_delay, g.dt, -0.5, g.T**-0.5)
    assert float(np.median(np.abs(theta_hat + 0.5))) <= 0.05


def test_mle_supercritical_fast_rate():
    g = Grid.build(1.0, 30.0, 0.005)
    seeds = [derive_seed(606, i) for i in range(500)]
    _, X, Y = simulate_batch(0.5, D0, InitialPath.zero(), g, seeds)
    _, _, theta_hat = batch_statistics(Y, X, g.n_delay, g.dt, 0.5, 1.0)
    assert float(np.median(np.abs(theta_hat - 0.5))) <= 1e-2


def test_mle_is_grid_argmax_of_likelihood():
    p = make_path(theta=-0.4, T=30.0, seed=12)
    hat = mle(p)
    grid_thetas = np.arange(-2.0, 2.0, 0.01)
    Y = p.Y[:-1]
    dX = np.diff(p.X[p.grid.n_delay :])
    s1 = float(Y @ dX)
    s2 = float(Y @ Y) * p.grid.dt
    vals = grid_thetas * s1 - 0.5 * grid_thetas**2 * s2
    best = grid_thetas[int(np.argmax(vals))]
    assert abs(best - hat) <= 0.01 + 1e-12


def test_normalized_score_is_standard_normal_in_lan():
    g = Grid.build(1.0, 100.0, 0.02)
    seeds = [derive_seed(90210, i) for i in range(1000)]
    _, X, Y = simulate_batch(-0.5, D0, InitialPath.zero(), g, seeds)
    delta, info, _ = batch_statistics(Y, X, g.n_delay, g.dt, -0.5, g.T**-0.5)
    stat, p = ks_vs_standard_normal(delta / np.sqrt(info))
    assert p > 0.001


def test_inconsistent_path_arrays_rejected():
    p = make_path(T=5.0)
    broken = type(p)(grid=p.grid, W=p.W, X=p.X[:-3], Y=p.Y)
    with pytest.raises(InferenceError):
        log_likelihood_ratio(broken, 0.1, 0.0)
