"""Likelihood machinery on observed paths: log-likelihood ratios between
drift parameters, the scaled score/information pair, and the closed-form
maximum likelihood estimator theta_hat = (int Y dX) / (int Y^2 dt).

All stochastic integrals are left-point Ito sums on the path grid; the
Brownian increments under a hypothesized theta are recovered as
dW = dX - theta * Y dt, so everything is computable from observation data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import SamplePath


class InferenceError(ValueError):
    pass


@dataclass(frozen=True)
class ScorePair:
    delta: float  # scaled score r * int Y dW
    info: float  # scaled observed information r^2 * int Y^2 dt
    scaling: float
    T: float


def _sums(path: SamplePath) -> tuple[np.ndarray, np.ndarray, float]:
    grid = path.grid
    if path.Y.shape[0] != grid.n_steps + 1 or path.X.shape[0] != grid.n_total:
        raise InferenceError("path arrays do not match the path grid")
    Y = path.Y[:-1]
    dX = np.diff(path.X[grid.n_delay :])
    return Y, dX, grid.dt


def log_likelihood_ratio(path: SamplePath, theta_num: float, theta_den: float) -> float:
    """log dP_num/dP_den along the observed path (left-point Ito sums)."""
    Y, dX, dt = _sums(path)
    s1 = float(Y @ dX)
    s2 = float(Y @ Y) * dt
    return (theta_num - theta_den) * s1 - 0.5 * (theta_num**2 - theta_den**2) * s2


def score_and_info(path: SamplePath, theta: float, scaling: float) -> ScorePair:
    """Scaled score and observed information at the hypothesized theta."""
    Y, dX, dt = _sums(path)
    dW = dX - theta * Y * dt
    delta = scaling * float(Y @ dW)
    info = scaling**2 * float(Y @ Y) * dt
    return ScorePair(delta=delta, info=info, scaling=scaling, T=path.grid.T)


def mle(path: SamplePath) -> float:
    """Maximizer of the quadratic log-likelihood in theta."""
    Y, dX, dt = _sums(path)
    s2 = float(Y @ Y) * dt
    if s2 <= 1e-12:
        raise InferenceError("degenerate path: int Y^2 dt vanishes")
    return float(Y @ dX) / s2


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise dot products A[i] . B[i].  einsum sums a lone row in another
    order than the rows of a matrix, so a single row is doubled first: a
    row's value then does not depend on how many rows come with it."""
    if A.shape[0] == 1:
        return row_dots(np.repeat(A, 2, axis=0), np.repeat(B, 2, axis=0))[:1]
    return np.einsum("ij,ij->i", A, B)


def statistics_from_sums(
    s_ydx: np.ndarray, s_yy: np.ndarray, dt: float, theta: float, scaling: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta, info, theta_hat) from the left-point sums of Y dX and Y^2."""
    s2 = s_yy * dt
    dW_dot = s_ydx - theta * s2
    delta = scaling * dW_dot
    info = scaling**2 * s2
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_hat = np.where(s2 > 1e-12, s_ydx / s2, np.nan)
    return delta, info, theta_hat


def batch_statistics(
    Y: np.ndarray, X: np.ndarray, n_delay: int, dt: float, theta: float, scaling: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (delta, info, theta_hat) over rows of a simulated batch."""
    Yl = Y[:, :-1]
    dX = np.diff(X[:, n_delay:], axis=1)
    return statistics_from_sums(row_dots(Yl, dX), row_dots(Yl, Yl), dt, theta, scaling)
