"""Direct samplers for the limiting (score, information) laws of the three
regimes, used as reference distributions in Monte Carlo tests.

LAN: (sqrt(J) Z, J) with deterministic J.  LAQ: quadratic functionals of
independent standard (complex) Wiener processes on [0,1], one per distinct
contributing frequency, built from left-point Euler sums.  LAMN/PLAMN:
mixed-normal laws whose random information involves the limit variable
U = X0(0) + theta * (initial-path mixing integral) + int_0^inf e^(-lam s) dW
truncated at a horizon S with e^(-2 v* S) below 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .measures import SignedMeasure, density_on_grid
from .simulate import InitialPath
from .spectrum import RegimeReport, ZERO_TOL


class LimitLawError(RuntimeError):
    pass


@dataclass(frozen=True)
class LimitSample:
    delta: float
    info: float
    regime: str
    d_offset: float = 0.0


def _contributing(report: RegimeReport):
    if not report.contributing_roots:
        raise LimitLawError(f"regime {report.regime} has no contributing roots")
    out = []
    m_star = int(report.m_star)
    for rt in report.contributing_roots:
        c = rt.P_poly[m_star]
        out.append((complex(rt.lam), c))
    return m_star, out


# ---------------------------------------------------------------------------
# LAN


def sample_lan_many(J: float, n: int, rng: np.random.Generator):
    if J <= 0:
        raise LimitLawError("LAN limit needs J > 0")
    z = rng.standard_normal(n)
    return np.sqrt(J) * z, np.full(n, float(J))


def sample_lan(J: float, rng: np.random.Generator) -> LimitSample:
    d, i = sample_lan_many(J, 1, rng)
    return LimitSample(delta=float(d[0]), info=float(i[0]), regime="LAN")


# ---------------------------------------------------------------------------
# LAQ


def _iterated_left(Z_incr: np.ndarray, s_left: np.ndarray, m: int) -> np.ndarray:
    """Z_m evaluated at left grid points: sum over i<j of (s_j - s_i)^m dZ_i."""
    n = Z_incr.shape[1]

    def excl_cumsum(arr):
        out = np.empty_like(arr)
        out[:, 0] = 0.0
        np.cumsum(arr[:, :-1], axis=1, out=out[:, 1:])
        return out

    if m == 0:
        return excl_cumsum(Z_incr)
    acc = np.zeros_like(Z_incr)
    for q in range(m + 1):
        cq = excl_cumsum((s_left**q) * Z_incr)
        acc += math.comb(m, q) * (-1.0) ** q * (s_left ** (m - q)) * cq
    return acc


def sample_laq_many(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport,
    n: int,
    rng: np.random.Generator,
    n_steps: int = 10_000,
):
    """(delta, info) draws of the critical-regime limit law."""
    if report.regime != "LAQ":
        raise LimitLawError(f"sample_laq needs an LAQ report, got {report.regime}")
    m_star, roots = _contributing(report)
    ds = 1.0 / n_steps
    s_left = (np.arange(n_steps) * ds)[None, :]
    freqs = sorted({round(abs(lam.imag), 12) for lam, _ in roots})

    delta = np.empty(n)
    info = np.empty(n)
    chunk = max(1, int(2_000_000 // n_steps))
    for lo in range(0, n, chunk):
        nc = min(chunk, n - lo)
        d_acc = np.zeros(nc, dtype=complex)
        j_acc = np.zeros(nc)
        for phi in freqs:
            if phi <= ZERO_TOL:
                dZ = rng.standard_normal((nc, n_steps)) * math.sqrt(ds)
            else:
                g = rng.standard_normal((2, nc, n_steps))
                dZ = (g[0] + 1j * g[1]) * math.sqrt(ds / 2.0)
            Zm = _iterated_left(dZ, s_left, m_star)
            for lam, c in roots:
                if round(abs(lam.imag), 12) != phi:
                    continue
                if phi <= ZERO_TOL or lam.imag > 0:
                    Zm_r, dZ_r = Zm, dZ
                else:
                    Zm_r, dZ_r = np.conj(Zm), np.conj(dZ)
                d_acc += c * np.einsum("ij,ij->i", Zm_r, np.conj(dZ_r))
                j_acc += abs(c) ** 2 * np.einsum("ij,ij->i", np.abs(Zm_r), np.abs(Zm_r)) * ds
        resid = np.max(np.abs(d_acc.imag)) if nc else 0.0
        if resid > 1e-8 * (1.0 + float(np.max(np.abs(d_acc.real)))):
            raise LimitLawError(
                f"LAQ delta has imaginary residual {resid:g}; conjugate pairing broken"
            )
        delta[lo : lo + nc] = d_acc.real
        info[lo : lo + nc] = j_acc
    return delta, info


def sample_laq(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport,
    rng: np.random.Generator,
    n_steps: int = 10_000,
) -> LimitSample:
    d, i = sample_laq_many(theta, a, report, 1, rng, n_steps=n_steps)
    return LimitSample(delta=float(d[0]), info=float(i[0]), regime="LAQ")


# ---------------------------------------------------------------------------
# initial-path mixing term of U


def _initial_mix(theta: float, a: SignedMeasure, x0: InitialPath, lam: complex) -> complex:
    """theta * integral over a(du) of integral_u^0 e^(-lam (s-u)) X0(s) ds."""
    if theta == 0.0 or x0.kind == "zero":
        return 0.0 + 0.0j
    m = 4097
    s = np.linspace(-a.r, 0.0, m)
    x0v = x0.eval(s, a.r)
    integrand = np.exp(-lam * s) * x0v
    G = np.concatenate([[0.0 + 0.0j], cumulative_trapezoid(integrand, s)])

    def inner(u: float) -> complex:
        g_u = complex(np.interp(u, s, G.real)) + 1j * complex(np.interp(u, s, G.imag))
        return np.exp(lam * u) * (G[-1] - g_u)

    total = 0.0 + 0.0j
    for u, w in a.atoms:
        total += w * inner(u)
    if a.density_pieces:
        rho = density_on_grid(a, s)
        inner_vals = np.exp(lam * s) * (G[-1] - G)
        total += np.trapezoid(rho * inner_vals, s)
    return theta * total


# ---------------------------------------------------------------------------
# LAMN


def sample_lamn_many(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport,
    x0: InitialPath,
    n: int,
    rng: np.random.Generator,
    horizon: float | None = None,
    noise: bool = True,
):
    if report.regime != "LAMN":
        raise LimitLawError(f"sample_lamn needs an LAMN report, got {report.regime}")
    m_star, roots = _contributing(report)
    lam, c = roots[0]
    if abs(lam.imag) > ZERO_TOL or abs(c.imag) > 1e-8 * (1.0 + abs(c)):
        raise LimitLawError("LAMN requires a single real contributing root")
    v = lam.real
    if horizon is None:
        horizon = math.log(1e8) / (2.0 * v) * 1.01
    var_w = (1.0 - math.exp(-2.0 * v * horizon)) / (2.0 * v)
    u_det = float(x0.eval(np.array(0.0), a.r)) + (_initial_mix(theta, a, x0, lam)).real
    U = u_det + (math.sqrt(var_w) * rng.standard_normal(n) if noise else np.zeros(n))
    J = (c.real**2 / (2.0 * v)) * U**2
    z = rng.standard_normal(n)
    return z * np.sqrt(J), J


def sample_lamn(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport,
    x0: InitialPath,
    rng: np.random.Generator,
    horizon: float | None = None,
    noise: bool = True,
) -> LimitSample:
    d, i = sample_lamn_many(theta, a, report, x0, 1, rng, horizon=horizon, noise=noise)
    return LimitSample(delta=float(d[0]), info=float(i[0]), regime="LAMN")


# ---------------------------------------------------------------------------
# PLAMN


def sample_plamn_many(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport,
    x0: InitialPath,
    d: float,
    n: int,
    rng: np.random.Generator,
    horizon: float | None = None,
    n_wiener: int = 8192,
    n_time: int = 8192,
):
    """(delta, info) draws of the periodic mixed-normal law at phase d; the
    stochastic integrals of all contributing roots share one Wiener draw."""
    if report.regime not in ("PLAMN", "LAMN"):
        raise LimitLawError(f"sample_plamn needs a PLAMN report, got {report.regime}")
    m_star, roots = _contributing(report)
    v = report.v_star
    if horizon is None:
        horizon = math.log(1e8) / (2.0 * v) * 1.01
    period = report.period if report.D else None

    s_left = np.arange(n_wiener) * (horizon / n_wiener)
    ds = horizon / n_wiener
    t_grid = np.linspace(0.0, horizon, n_time)
    upper = [(lam, c) for lam, c in roots if lam.imag > ZERO_TOL]
    real_roots = [(complex(lam.real, 0.0), c) for lam, c in roots if abs(lam.imag) <= ZERO_TOL]
    mix = {lam: _initial_mix(theta, a, x0, lam) for lam, _ in upper + real_roots}
    x0_at0 = float(x0.eval(np.array(0.0), a.r))

    delta = np.empty(n)
    info = np.empty(n)
    chunk = max(1, int(1_000_000 // max(n_wiener, n_time)))
    env = np.exp(-2.0 * v * t_grid)
    for lo in range(0, n, chunk):
        nc = min(chunk, n - lo)
        dW = rng.standard_normal((nc, n_wiener)) * math.sqrt(ds)
        amp = np.zeros((nc, n_time))
        for lam, c in real_roots + upper:
            kernel = np.exp(-lam * s_left)
            U = x0_at0 + mix[lam] + dW @ kernel
            osc = c * np.exp(1j * (d - t_grid) * lam.imag)
            contrib = np.real(U[:, None] * osc[None, :])
            amp += contrib if abs(lam.imag) <= ZERO_TOL else 2.0 * contrib
        g = amp**2
        J = np.trapezoid(env[None, :] * g, t_grid, axis=1)
        if period is not None:
            sel = t_grid >= horizon - period
            g_bar = np.mean(g[:, sel], axis=1)
        else:
            g_bar = g[:, -1]
        J += g_bar * math.exp(-2.0 * v * horizon) / (2.0 * v)
        z = rng.standard_normal(nc)
        delta[lo : lo + nc] = z * np.sqrt(J)
        info[lo : lo + nc] = J
    return delta, info


def sample_plamn(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport,
    x0: InitialPath,
    d: float,
    rng: np.random.Generator,
    horizon: float | None = None,
) -> LimitSample:
    dd, ii = sample_plamn_many(theta, a, report, x0, d, 1, rng, horizon=horizon)
    return LimitSample(delta=float(dd[0]), info=float(ii[0]), regime="PLAMN", d_offset=d)
