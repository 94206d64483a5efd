"""Likelihood machinery on observed paths: log-likelihood ratios between
drift parameters, the scaled score/information pair, and the closed-form
maximum likelihood estimator theta_hat = (int Y dX) / (int Y^2 dt).

All stochastic integrals are left-point Ito sums on the path grid; the
Brownian increments under a hypothesized theta are recovered as
dW = dX - theta * Y dt, so everything is computable from observation data.
Every statistic, of one path or a batch, is `statistics_from_sums` of the
sums of Y dX and Y^2 that `simulate.path_sums` adds with the stepper's tile
reduction, so a path's statistics are the same bits through every route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import SamplePath, path_sums


MIN_INFO = 1e-12  # int Y^2 dt at or below which a path is degenerate (no MLE)


class InferenceError(ValueError):
    pass


@dataclass(frozen=True)
class ScorePair:
    delta: float  # scaled score r * int Y dW
    info: float  # scaled observed information r^2 * int Y^2 dt
    scaling: float
    T: float


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise InferenceError(f"{name} must be finite, got {value}")


def _statistics(path: SamplePath, theta: float, scaling: float) -> list[float]:
    """(delta, info, theta_hat) of one path from its `path_sums`."""
    grid = path.grid
    if path.Y.shape[0] != grid.n_steps + 1 or path.X.shape[0] != grid.n_total:
        raise InferenceError("path arrays do not match the path grid")
    sums = path_sums(path.X[None], path.Y[None], grid.n_delay)
    return [float(v[0]) for v in statistics_from_sums(sums.y_dx, sums.y_y, grid.dt, theta, scaling)]


def log_likelihood_ratio(path: SamplePath, theta_num: float, theta_den: float) -> float:
    """log dP_num/dP_den along the observed path (left-point Ito sums), as
    h delta - h^2/2 info at theta_den with h = theta_num - theta_den."""
    _require_finite(theta_num=theta_num, theta_den=theta_den)
    delta, info, _ = _statistics(path, theta_den, 1.0)
    return (theta_num - theta_den) * delta - 0.5 * (theta_num - theta_den) ** 2 * info


def score_and_info(path: SamplePath, theta: float, scaling: float) -> ScorePair:
    """Scaled score and observed information at the hypothesized theta."""
    _require_finite(theta=theta, scaling=scaling)
    delta, info, _ = _statistics(path, theta, scaling)
    return ScorePair(delta=delta, info=info, scaling=scaling, T=path.grid.T)


def mle(path: SamplePath) -> float:
    """Maximizer of the quadratic log-likelihood in theta."""
    _, info, theta_hat = _statistics(path, 0.0, 1.0)
    if info <= MIN_INFO:
        raise InferenceError("degenerate path: int Y^2 dt vanishes")
    return theta_hat


def statistics_from_sums(
    s_ydx: np.ndarray, s_yy: np.ndarray, dt: float, theta: float, scaling: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta, info, theta_hat) from the left-point sums of Y dX and Y^2."""
    s2 = s_yy * dt
    dW_dot = s_ydx - theta * s2
    delta = scaling * dW_dot
    info = scaling**2 * s2
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_hat = np.where(s2 > MIN_INFO, s_ydx / s2, np.nan)
    return delta, info, theta_hat


def batch_statistics(
    Y: np.ndarray, X: np.ndarray, n_delay: int, dt: float, theta: float, scaling: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (delta, info, theta_hat) over rows of a simulated batch."""
    sums = path_sums(X, Y, n_delay)
    return statistics_from_sums(sums.y_dx, sums.y_y, dt, theta, scaling)
