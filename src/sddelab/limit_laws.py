"""Direct samplers for the limiting (score, information) laws of the three
regimes, used as reference distributions in Monte Carlo tests.  Each draw
is a finite Gaussian vector and fixed quadratic forms in it.

LAN: (sqrt(J) Z, J) with deterministic J.  LAQ: quadratic functionals of
independent standard (complex) Wiener processes Z on [0,1], one per distinct
contributing frequency, each the Brownian-bridge expansion
Z(s) = xi_0 s + sum_{k<=K} xi_k sqrt(2) sin(k pi s)/(k pi), which has
Z(1) = xi_0 exactly.  The matrices of its quadratic forms are integrals of
exponential polynomials on [0,1], computed in closed form on each call, and
a block of draws is reduced by one real matrix product of its normals, whose
bits do not depend on the BLAS thread count.  LAMN/PLAMN: mixed-normal laws
whose random information is a quadratic form in the limit variables
U_j = X0(0) + theta * (initial-path mixing integral) + G_j, where the
G_j = int_0^inf e^(-lam_j s) dW are jointly Gaussian with
E[G_j G_k] = 1/(lam_j + lam_k) and E[G_j conj(G_k)] = 1/(lam_j + conj(lam_k)).
"""

from __future__ import annotations

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


# (-i)^q for q mod 4, exactly
_MINUS_I_POW = (1.0, -1j, -1.0, 1j)


def _bridge_forms(m: int, K: int) -> np.ndarray:
    """[N | G], with G = int_0^1 psi psi^T and N = int_0^1 psi e'^T, for the
    K-term bridge expansion, where psi_k(s) = int_0^s (s-u)^m e_k'(u) du,
    e_0(s) = s and e_k(s) = sqrt(2) sin(k pi s)/(k pi).  In closed form:
    psi_0 = s^(m+1)/(m+1) and, with nu = k pi and alpha_k = m!/(i nu)^(m+1),
    psi_k = T_k - poly_k with T_k = sqrt(2) Re(alpha_k e^(i nu s)) and poly_k
    its Taylor part of degree <= m.  Writing psi = T - P (1, s, .., s^(m+1)),
    every entry is a sum of mu_p(n pi) = int_0^1 s^p e^(i n pi s) ds, with
    mu_p = (e^(i nu) - p mu_(p-1))/(i nu) and mu_0(n pi) = 1 at n = 0, 0 at
    even n and 2i/(n pi) at odd n.  So G = XX - C P^T - P C^T + P H P^T and
    N = XY - P D^T, where C = int T s^p, D = int e' s^p, H is the Hilbert
    matrix, XX = int T T^T = diag(|alpha_k|^2) (alpha_k is real for every k
    or imaginary for every k, and the trigonometric cross terms fall on
    odd n) and XY = int T e'^T is nonzero only where j + k is odd or j = k."""
    k = np.arange(1, K + 1, dtype=float)
    nu = np.pi * k
    amp = math.factorial(m) / nu ** (m + 1)
    alpha = amp * _MINUS_I_POW[(m + 1) % 4]
    sign = np.where(k % 2, -1.0, 1.0)  # e^(i nu)
    mu = np.empty((K, m + 2), dtype=complex)
    mu[:, 0] = (sign - 1.0) / (1j * nu)
    for p in range(1, m + 2):
        mu[:, p] = (sign - p * mu[:, p - 1]) / (1j * nu)
    r2 = math.sqrt(2.0)
    # rows: psi_0, .., psi_K; columns: s^0, .., s^(m+1)
    P = np.zeros((K + 1, m + 2))
    P[0, m + 1] = -1.0 / (m + 1)
    for j in range(m + 1):
        q = m + 1 - j  # alpha_k (i nu)^j / j! = m!/j! (-i)^q / nu^q
        P[1:, j] = r2 * math.factorial(m) / math.factorial(j) * _MINUS_I_POW[q % 4].real / nu**q
    C = np.zeros((K + 1, m + 2))
    C[1:] = r2 * (alpha[:, None] * mu).real
    D = np.empty((K + 1, m + 2))
    D[0] = 1.0 / np.arange(1, m + 3)
    D[1:] = r2 * mu.real
    H = 1.0 / (np.arange(m + 2)[:, None] + np.arange(m + 2) + 1.0)

    NG = np.zeros((K + 1, 2 * (K + 1)))
    N, G = NG[:, : K + 1], NG[:, K + 1 :]
    # XY[j, k] = Re(alpha_j (mu_0((j+k) pi) + mu_0((j-k) pi))), j, k >= 1
    N[1:, 0] = C[1:, 0]
    den = np.subtract.outer(k * k, k * k)
    np.fill_diagonal(den, 1.0)
    odd = sign[:, None] != sign[None, :]
    np.multiply(((4.0 / np.pi) * (1j * alpha).real * k)[:, None] / den, odd, out=N[1:, 1:])
    N[1:, 1:][np.diag_indices(K)] = alpha.real
    N -= P @ D.T
    # G - XX = B + B^T with B = (P H/2 - C) P^T, so G is exactly symmetric
    B = (P @ H / 2.0 - C) @ P.T
    np.add(B, B.T, out=G)
    G[1:, 1:][np.diag_indices(K)] += amp**2
    return NG


def _bridge_pair(g: np.ndarray, m: int, NG: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int_0^1 Z_m dconj(Z) as an Ito integral, int_0^1 |Z_m|^2 ds) for rows
    of bridge coefficients xi, from their real normals: g of shape (n, K+1)
    is xi of a real Z, and g = (g0, g1) of shape (2, n, K+1) gives
    xi = (g0 + i g1)/sqrt(2) of a complex Z.  NG = _bridge_forms(m, K).
    One real product g @ [N | G] gives every quadratic form:
    xi N conj(xi) = (g0 N g0 + g1 N g1 + i (g1 N g0 - g0 N g1))/2.
    Subtracting tr N centres the delta (the expansion's own integral is
    Stratonovich), and 1/((2m+1)(2m+2)) - tr G is the mean of the
    information's truncated tail."""
    K1 = g.shape[-1]
    gNG = (g.reshape(-1, K1) @ NG).reshape(*g.shape[:-1], 2 * K1)
    gN, gG = gNG[..., :K1], gNG[..., K1:]
    quad = np.einsum("...j,...j->...", gN, g)
    energy = np.einsum("...j,...j->...", gG, g)
    if g.ndim == 3:
        cross = np.einsum("ij,ij->i", gN[1], g[0]) - np.einsum("ij,ij->i", gN[0], g[1])
        quad = (quad[0] + quad[1]) / 2.0 + 0.5j * cross
        energy = (energy[0] + energy[1]) / 2.0
    N, G = NG[:, :K1], NG[:, K1:]
    return quad - np.trace(N), energy + 1.0 / ((2 * m + 1) * (2 * m + 2)) - np.trace(G)


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
    NG = _bridge_forms(m_star, LAQ_TERMS)
    delta = np.zeros(n, dtype=complex)
    info = np.zeros(n)
    for phi in sorted({round(abs(lam.imag), 12) for lam, _ in roots}):
        ito = np.empty(n, dtype=complex if phi > ZERO_TOL else float)
        energy = np.empty(n)
        for lo, hi in _row_blocks(n):
            shape = (hi - lo, LAQ_TERMS + 1) if phi <= ZERO_TOL else (2, hi - lo, LAQ_TERMS + 1)
            ito[lo:hi], energy[lo:hi] = _bridge_pair(rng.standard_normal(shape), m_star, NG)
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
