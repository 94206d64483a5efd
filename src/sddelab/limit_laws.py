"""Direct samplers for the limiting (score, information) laws of the three
regimes, used as reference distributions in Monte Carlo tests.  Each draw
is a finite Gaussian vector and fixed quadratic forms in it.

LAN: (sqrt(J) Z, J) with deterministic J.  LAQ: quadratic functionals of
independent standard (complex) Wiener processes Z on [0,1], one per distinct
contributing frequency, each the Brownian-bridge expansion
Z(s) = xi_0 s + sum_{k<=K} xi_k sqrt(2) sin(k pi s)/(k pi), which has
Z(1) = xi_0 exactly.  LAMN/PLAMN: mixed-normal laws whose random information
is a quadratic form in the limit variables
U_j = X0(0) + theta * (initial-path mixing integral) + G_j, where the
G_j = int_0^inf e^(-lam_j s) dW are jointly Gaussian with
E[G_j G_k] = 1/(lam_j + lam_k) and E[G_j conj(G_k)] = 1/(lam_j + conj(lam_k)).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .measures import SignedMeasure, density_on_grid
from .simulate import InitialPath
from .spectrum import RegimeReport, ZERO_TOL


class LimitLawError(RuntimeError):
    pass


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


# ---------------------------------------------------------------------------
# LAQ

# terms of the Brownian-bridge expansion of each LAQ Wiener process
LAQ_TERMS = 256
# draws whose bridge coefficients are held at once
LAQ_ROWS = 256


@functools.lru_cache(maxsize=None)
def _bridge_forms(m: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """G = int_0^1 psi psi^T and N = int_0^1 psi e'^T for the K-term bridge
    expansion, where psi_k(s) = int_0^s (s-u)^m e_k'(u) du, e_0(s) = s and
    e_k(s) = sqrt(2) sin(k pi s)/(k pi).  Gauss-Legendre with 64 nodes on each
    of ceil(K/16) panels: at most 16 periods of the highest frequency 2 K pi
    per panel, which integrates to rounding."""
    x, w = np.polynomial.legendre.leggauss(64)
    panels = -(-K // 16)
    s = ((np.arange(panels)[:, None] + (x + 1.0) / 2.0) / panels).ravel()
    w = np.tile(w / (2.0 * panels), panels)
    omega = np.pi * np.arange(1, K + 1)[:, None]
    z = 1j * omega * s
    taylor = sum(z**j / math.factorial(j) for j in range(m + 1))
    osc = math.factorial(m) * (np.exp(z) - taylor) / (1j * omega) ** (m + 1)
    psi = np.vstack([s ** (m + 1) / (m + 1), math.sqrt(2.0) * osc.real])
    de = np.vstack([np.ones_like(s), math.sqrt(2.0) * np.cos(omega * s)])
    G, N = (psi * w) @ psi.T, (psi * w) @ de.T
    G.flags.writeable = N.flags.writeable = False
    return G, N


def _bridge_pair(xi: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(int_0^1 Z_m dconj(Z) as an Ito integral, int_0^1 |Z_m|^2 ds) for the
    rows xi of bridge coefficients, K = xi.shape[1] - 1.  Subtracting tr N
    centres the delta (the expansion's own integral is Stratonovich), and
    1/((2m+1)(2m+2)) - tr G is the mean of the information's truncated tail."""
    G, N = _bridge_forms(m, xi.shape[1] - 1)
    xc = np.conj(xi)
    ito = np.einsum("ij,ij->i", xi @ N, xc) - np.trace(N)
    energy = np.einsum("ij,ij->i", xi @ G, xc).real
    return ito, energy + 1.0 / ((2 * m + 1) * (2 * m + 2)) - np.trace(G)


def _row_blocks(n: int):
    """[lo, hi) blocks of LAQ_ROWS draws.  A lone trailing row joins the
    block before it: a one-row einsum sums in another order than a row of a
    matrix, and any other block shape keeps the bits of one (n, K+1) draw."""
    cuts = list(range(0, n, LAQ_ROWS)) + [n]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return zip(cuts, cuts[1:])


def sample_laq_many(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport,
    n: int,
    rng: np.random.Generator,
):
    """(delta, info) draws of the critical-regime limit law.  The bridge
    coefficients are drawn and reduced LAQ_ROWS draws at a time, so memory
    does not grow with n."""
    if report.regime != "LAQ":
        raise LimitLawError(f"sample_laq_many needs an LAQ report, got {report.regime}")
    m_star, roots = _contributing(report)
    delta = np.zeros(n, dtype=complex)
    info = np.zeros(n)
    for phi in sorted({round(abs(lam.imag), 12) for lam, _ in roots}):
        ito = np.empty(n, dtype=complex if phi > ZERO_TOL else float)
        energy = np.empty(n)
        for lo, hi in _row_blocks(n):
            if phi <= ZERO_TOL:
                xi = rng.standard_normal((hi - lo, LAQ_TERMS + 1))
            else:
                g = rng.standard_normal((2, hi - lo, LAQ_TERMS + 1))
                xi = (g[0] + 1j * g[1]) / math.sqrt(2.0)
            ito[lo:hi], energy[lo:hi] = _bridge_pair(xi, m_star)
        for lam, c in roots:
            if round(abs(lam.imag), 12) != phi:
                continue
            # a lower conjugate root sees the conjugate process
            delta += c * (np.conj(ito) if phi > ZERO_TOL and lam.imag < 0 else ito)
            info += abs(c) ** 2 * energy
    resid = float(np.max(np.abs(delta.imag), initial=0.0))
    if resid > 1e-8 * (1.0 + float(np.max(np.abs(delta.real), initial=0.0))):
        raise LimitLawError(
            f"LAQ delta has imaginary residual {resid:g}; conjugate pairing broken"
        )
    return delta.real, info


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
    G = np.concatenate([[0.0 + 0.0j], np.cumsum(np.diff(s) * (integrand[1:] + integrand[:-1]) / 2.0)])

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
    noise: bool = True,
):
    if report.regime != "LAMN":
        raise LimitLawError(f"sample_lamn_many needs an LAMN report, got {report.regime}")
    m_star, roots = _contributing(report)
    lam, c = roots[0]
    if abs(lam.imag) > ZERO_TOL or abs(c.imag) > 1e-8 * (1.0 + abs(c)):
        raise LimitLawError("LAMN requires a single real contributing root")
    v = lam.real
    if not v > 0.0:
        raise LimitLawError(f"LAMN needs v* > 0, got v* = {v:.17g}")
    u_det = float(x0.eval(np.array(0.0), a.r)) + (_initial_mix(theta, a, x0, lam)).real
    U = u_det + (math.sqrt(1.0 / (2.0 * v)) * rng.standard_normal(n) if noise else np.zeros(n))
    J = (c.real**2 / (2.0 * v)) * U**2
    z = rng.standard_normal(n)
    return z * np.sqrt(J), J


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
):
    """(delta, info) draws of the periodic mixed-normal law at phase d.  A real
    root enters amp(t) = sum_j Re(b_j e^(-i phi_j t)) with weight 1, a
    conjugate pair as twice its upper root, and J = int_0^inf e^(-2 v* t)
    amp(t)^2 dt is a quadratic form in the b_j."""
    if report.regime not in ("PLAMN", "LAMN"):
        raise LimitLawError(f"sample_plamn_many needs a PLAMN report, got {report.regime}")
    m_star, roots = _contributing(report)
    v = report.v_star
    if not v > 0.0:
        raise LimitLawError(f"PLAMN needs v* > 0, got v* = {v:.17g}")
    kept = [(complex(lam.real, 0.0), c, 1.0) for lam, c in roots if abs(lam.imag) <= ZERO_TOL]
    kept += [(lam, c, 2.0) for lam, c in roots if lam.imag > ZERO_TOL]
    lam = np.array([k[0] for k in kept])
    phi = lam.imag
    p = lam.size

    # (Re G, Im G) from E[G_j G_k] and E[G_j conj(G_k)]; singular for real roots
    S = 1.0 / (lam[:, None] + lam[None, :])
    H = 1.0 / (lam[:, None] + np.conj(lam)[None, :])
    cov = 0.5 * np.block([[(H + S).real, (S - H).imag], [(S + H).imag, (H - S).real]])
    ev, V = np.linalg.eigh(cov)
    X = rng.standard_normal((n, 2 * p)) @ (V * np.sqrt(np.clip(ev, 0.0, None))).T
    u_det = float(x0.eval(np.array(0.0), a.r)) + np.array([_initial_mix(theta, a, x0, lj) for lj in lam])
    U = u_det + X[:, :p] + 1j * X[:, p:]
    b = U * np.array([w * c for _, c, w in kept]) * np.exp(1j * phi * d)

    A = 1.0 / (2.0 * v + 1j * (phi[:, None] + phi[None, :]))
    B = 1.0 / (2.0 * v + 1j * (phi[:, None] - phi[None, :]))
    J = 0.5 * np.sum((b @ A) * b + (b @ B) * np.conj(b), axis=1).real
    z = rng.standard_normal(n)
    return z * np.sqrt(J), J
